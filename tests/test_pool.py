"""ForkedWorkerPool: the forked persistent-worker machinery behind the
serving cluster — spawn/message round trips, typed death surfacing,
the SIGKILL drill hook, retiring and respawning one slot, and the
signal-all-then-join-once teardown."""

import multiprocessing
import os
import time

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
        elif kind == "die":
            os._exit(3)  # no goodbye message, like an OOM kill


def _stubborn_loop(index, conn):
    # Never reads its pipe: teardown must escalate past the stop message.
    while True:
        time.sleep(60)


def _reply(pool, worker):
    # Bounded wait: a wedged worker fails the test instead of hanging it.
    assert pool.connections[worker].poll(10.0), f"worker {worker} silent"
    return pool.connections[worker].recv()


def _no_orphans():
    for _ in range(50):
        if not multiprocessing.active_children():
            return True
        time.sleep(0.1)
    return multiprocessing.active_children() == []


class TestMessaging:
    def test_spawn_send_recv_round_trip(self):
        with ForkedWorkerPool() as pool:
            for _ in range(3):
                pool.spawn(_echo_loop)
            assert len(pool) == 3
            for worker in range(3):
                pool.send(worker, ("ping", 42))
            for worker in range(3):
                assert _reply(pool, worker) == (
                    "pong", worker, 42,
                )
        assert _no_orphans()

    def test_worker_death_surfaces_before_the_timeout(self):
        with ForkedWorkerPool(role="test worker") as pool:
            pool.spawn(_echo_loop)
            pool.spawn(_echo_loop)
            pool.send(1, ("die",))
            start = time.monotonic()
            # The dead worker's pipe reads EOF at once, not after the
            # poll timeout; the next send surfaces the typed death.
            assert pool.connections[1].poll(60.0)
            with pytest.raises(EOFError):
                pool.connections[1].recv()
            assert time.monotonic() - start < 10.0
            with pytest.raises(WorkerError,
                               match=r"worker 1 died \(exit code 3\)"):
                pool.send(1, ("ping", 0))
            assert pool.alive(0)
        assert _no_orphans()


class TestRetire:
    def test_retire_reaps_one_dead_worker(self):
        # The supervisor path: a replica dies, the router retires just
        # that slot (join + close its pipe) while the rest keep serving.
        with ForkedWorkerPool(role="shard worker") as pool:
            pool.spawn(_echo_loop)
            pool.spawn(_echo_loop)
            pool.kill(0)
            pool.retire(0)
            assert pool.connections[0].closed
            assert not pool.alive(0)
            pool.send(1, ("ping", 3))
            assert _reply(pool, 1)[2] == 3
        assert _no_orphans()

    def test_respawn_after_retire_fills_a_new_slot(self):
        with ForkedWorkerPool() as pool:
            pool.spawn(_echo_loop)
            pool.kill(0)
            pool.retire(0)
            replacement = pool.spawn(_echo_loop)
            assert replacement == 1
            pool.send(replacement, ("ping", 9))
            assert _reply(pool, replacement)[2] == 9
        assert _no_orphans()


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
                for worker in range(3):
                    pool.spawn(_echo_loop)
                    pool.send(worker, ("ping", 1))
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
