"""Micro-benchmarks of the substrate (true pytest-benchmark timing with
repetition): attention forward/backward, GRU unrolling, Adam steps, and
evaluation throughput.  These track the engine's performance rather than
paper numbers — the complexity claims of Section IV-F (self-attention
O(n^2 d) vs RNN O(n d^2) sequential steps) become observable here.

Everything runs under the production compute path: fused kernels plus
the float32 default dtype (``TrainerConfig.compute_dtype="float32"``).
float64 is reserved for the finite-difference gradcheck suite.  Compare
against ``benchmarks/BENCH_baseline.json`` with
``benchmarks/compare_bench.py`` (or just ``make bench``)."""

import numpy as np
import pytest

from repro.core import VSAN
from repro.models import SASRec
from repro.nn import GRU, CausalSelfAttention, Linear, Parameter
from repro.optim import Adam
from repro.tensor import Tensor, set_default_dtype

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module", autouse=True)
def float32_compute():
    """Benchmark the float32 training/inference dtype policy."""
    previous = set_default_dtype(np.float32)
    yield
    set_default_dtype(previous)


@pytest.fixture(scope="module")
def attention(float32_compute):
    return CausalSelfAttention(64, np.random.default_rng(1))


def test_attention_forward(benchmark, attention):
    x = Tensor(RNG.normal(size=(8, 50, 64)))
    out = benchmark(lambda: attention(x))
    assert out.shape == (8, 50, 64)


def test_attention_forward_backward(benchmark, attention):
    data = RNG.normal(size=(8, 50, 64))

    def step():
        x = Tensor(data, requires_grad=True)
        attention(x).sum().backward()
        return x.grad

    grad = benchmark(step)
    assert np.isfinite(grad).all()


def test_gru_unroll_forward(benchmark):
    gru = GRU(64, 64, np.random.default_rng(2))
    x = Tensor(RNG.normal(size=(8, 50, 64)))

    def step():
        outputs, _ = gru(x)
        return outputs

    out = benchmark(step)
    assert out.shape == (8, 50, 64)


def test_adam_step(benchmark):
    params = [Parameter(RNG.normal(size=(200, 64))) for _ in range(10)]
    for param in params:
        param.grad = RNG.normal(size=param.shape)
    optimizer = Adam(params)
    benchmark(optimizer.step)


def test_vsan_training_step(benchmark):
    model = VSAN(500, 30, dim=48, h1=1, h2=1, seed=0)
    model.train()
    padded = np.zeros((64, 31), dtype=np.int64)
    padded[:, -10:] = RNG.integers(1, 501, size=(64, 10))

    def step():
        model.zero_grad()
        loss = model.training_loss(padded)
        loss.backward()
        return loss.item()

    loss = benchmark(step)
    assert np.isfinite(loss)


@pytest.mark.parametrize("length", [9, 51])
def test_output_head_backward(benchmark, length):
    """Backward of VSAN's prediction layer at the long-tail bench shape:
    (128, L, 48) @ (48, 2001) + bias, for the short (L=9) and long
    (L=51) length buckets.  The weight and bias gradients are the two
    largest reductions of a training step."""
    head = Linear(48, 2001, np.random.default_rng(3))
    x = Tensor(RNG.normal(size=(128, length, 48)))
    grad = RNG.normal(size=(128, length, 2001)).astype(np.float32)

    def forward():
        head.zero_grad()
        return (head(x),), {}

    benchmark.pedantic(
        lambda out: out.backward(grad), setup=forward, rounds=20
    )
    assert head.weight.grad.shape == (48, 2001)


def test_sasrec_scoring_throughput(benchmark):
    model = SASRec(500, 30, dim=48, num_blocks=2, seed=0)
    histories = [
        RNG.integers(1, 501, size=RNG.integers(3, 30)) for _ in range(64)
    ]
    scores = benchmark(lambda: model.score_batch(histories))
    assert scores.shape == (64, 501)


def test_evaluator_ranking_throughput(benchmark):
    """Batched ranking + metric accumulation over precomputed scores."""
    from repro.data.splits import FoldInUser
    from repro.eval import evaluate_recommender

    num_items = 5000
    users = []
    for uid in range(512):
        items = RNG.choice(
            np.arange(1, num_items + 1), size=25, replace=False
        )
        users.append(
            FoldInUser(user_id=uid, fold_in=items[:20], targets=items[20:])
        )
    score_table = RNG.normal(size=(512, num_items + 1)).astype(np.float32)
    index = {tuple(u.fold_in.tolist()): i for i, u in enumerate(users)}

    class Precomputed:
        def score_batch(self, histories):
            rows = [index[tuple(np.asarray(h).tolist())] for h in histories]
            return score_table[rows]

    result = benchmark(
        lambda: evaluate_recommender(Precomputed(), users, batch_size=128)
    )
    assert result.num_users == 512
