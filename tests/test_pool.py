"""ForkedWorkerPool: the forked persistent-worker machinery behind the
serving cluster — spawn/message round trips, typed failure surfacing
(death, hang, worker exception), the SIGKILL drill hook, and the
signal-all-then-join-once teardown."""

import multiprocessing
import os
import time
import traceback

import pytest

from repro.pool import ForkedWorkerPool, WorkerError


def _echo_loop(index, conn):
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "ping":
            conn.send(("pong", index, message[1]))
        elif kind == "boom":
            try:
                raise ValueError("boom in the pool worker")
            except ValueError:
                conn.send(("error", traceback.format_exc()))
                return
        elif kind == "hang":
            time.sleep(60)
        elif kind == "die":
            os._exit(3)  # no goodbye message, like an OOM kill


def _stubborn_loop(index, conn):
    # Never reads its pipe: teardown must escalate past the stop message.
    while True:
        time.sleep(60)


def _no_orphans():
    for _ in range(50):
        if not multiprocessing.active_children():
            return True
        time.sleep(0.1)
    return multiprocessing.active_children() == []


class TestMessaging:
    def test_spawn_broadcast_receive_round_trip(self):
        with ForkedWorkerPool() as pool:
            for _ in range(3):
                pool.spawn(_echo_loop)
            assert len(pool) == 3
            pool.broadcast(("ping", 42))
            for worker in range(3):
                assert pool.receive(worker, "pong", timeout=10.0) == (
                    "pong", worker, 42,
                )
        assert _no_orphans()

    def test_wait_any_reports_ready_workers(self):
        with ForkedWorkerPool() as pool:
            pool.spawn(_echo_loop)
            pool.spawn(_echo_loop)
            pool.send(1, ("ping", 7))
            deadline = time.monotonic() + 10.0
            ready = []
            while not ready and time.monotonic() < deadline:
                ready = pool.wait_any(timeout=0.5)
            assert ready == [1]
            assert pool.receive(1, "pong", timeout=10.0)[2] == 7

    def test_worker_exception_surfaces_with_traceback(self):
        with ForkedWorkerPool(role="test worker") as pool:
            pool.spawn(_echo_loop)
            pool.send(0, ("boom",))
            with pytest.raises(WorkerError, match="boom in the pool worker"):
                pool.receive(0, "pong", timeout=10.0)

    def test_worker_death_surfaces_before_the_timeout(self):
        with ForkedWorkerPool(role="test worker") as pool:
            pool.spawn(_echo_loop)
            pool.spawn(_echo_loop)
            pool.send(1, ("die",))
            start = time.monotonic()
            with pytest.raises(WorkerError,
                               match=r"worker 1 died \(exit code 3\)"):
                pool.receive(1, "pong", timeout=60.0)
            # The broken pipe is noticed at once, not after the timeout.
            assert time.monotonic() - start < 10.0
            assert pool.alive(0)
        assert _no_orphans()

    def test_receive_timeout_raises_instead_of_hanging(self):
        with ForkedWorkerPool() as pool:
            pool.spawn(_echo_loop)
            pool.send(0, ("hang",))
            with pytest.raises(WorkerError, match="sent nothing for"):
                pool.receive(0, "pong", timeout=0.2)


class TestRetire:
    def test_retire_reaps_one_dead_worker_and_quiets_wait_any(self):
        # The supervisor path: a replica dies, the router retires just
        # that slot (join + close its pipe) while the rest keep serving
        # — and wait_any must stop reporting the closed connection.
        with ForkedWorkerPool(role="shard worker") as pool:
            pool.spawn(_echo_loop)
            pool.spawn(_echo_loop)
            pool.kill(0)
            pool.retire(0)
            assert pool.connections[0].closed
            pool.send(1, ("ping", 3))
            deadline = time.monotonic() + 10.0
            ready = []
            while not ready and time.monotonic() < deadline:
                ready = pool.wait_any(timeout=0.5)
            assert ready == [1]
            assert pool.receive(1, "pong", timeout=10.0)[2] == 3
        assert _no_orphans()

    def test_respawn_after_retire_fills_a_new_slot(self):
        with ForkedWorkerPool() as pool:
            pool.spawn(_echo_loop)
            pool.kill(0)
            pool.retire(0)
            replacement = pool.spawn(_echo_loop)
            assert replacement == 1
            pool.send(replacement, ("ping", 9))
            assert pool.receive(replacement, "pong",
                                timeout=10.0)[2] == 9
        assert _no_orphans()

    def test_wait_any_with_every_connection_closed_returns_empty(self):
        with ForkedWorkerPool() as pool:
            pool.spawn(_echo_loop)
            pool.kill(0)
            pool.retire(0)
            assert pool.wait_any(timeout=0.1) == []


class TestTeardown:
    def test_kill_drill_and_death_reporting(self):
        pool = ForkedWorkerPool(role="shard worker")
        pool.spawn(_echo_loop)
        pool.spawn(_echo_loop)
        pool.kill(1)
        assert not pool.alive(1)
        assert pool.alive(0)
        assert "shard worker 1 died" in str(pool.death(1))
        with pytest.raises(WorkerError, match="worker 1 died"):
            pool.send(1, ("ping", 0))
        pool.stop()
        assert _no_orphans()

    def test_stop_reaps_stubborn_workers_against_shared_deadline(self):
        pool = ForkedWorkerPool(join_timeout=0.5)
        for _ in range(3):
            pool.spawn(_stubborn_loop)
        start = time.monotonic()
        pool.stop()
        elapsed = time.monotonic() - start
        assert _no_orphans()
        # One shared graceful-join budget plus one terminate budget —
        # not a per-worker serial wait.
        assert elapsed < 4.0
        assert len(pool) == 0

    def test_parent_exception_inside_context_reaps_workers(self):
        with pytest.raises(RuntimeError, match="parent-side failure"):
            with ForkedWorkerPool() as pool:
                for _ in range(3):
                    pool.spawn(_echo_loop)
                pool.broadcast(("ping", 1))
                raise RuntimeError("parent-side failure mid-run")
        assert _no_orphans()
        assert len(pool) == 0

    def test_stop_is_idempotent_and_safe_when_empty(self):
        pool = ForkedWorkerPool()
        pool.stop()  # never started
        pool.spawn(_echo_loop)
        pool.stop()
        pool.stop()
        assert _no_orphans()
