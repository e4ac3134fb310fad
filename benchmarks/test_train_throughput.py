"""Training-path benchmarks: epoch wall time of the trainer with and
without length-aware batch trimming.

The corpus is a long-tail synthetic log — 7/8 of the users have short
histories (3–8 items), 1/8 have long ones (40–50) — padded to a
50-item window, which is exactly the regime Section V's datasets live
in (Beauty's median history is far below the window).  Two orthogonal
mechanisms attack the padding waste:

- **column trimming** (``TrainerConfig.trim_batches``): each batch runs
  at its own longest real sequence, an *exact* transformation for the
  attention models (see ``tests/train/test_trimming.py``);
- **length bucketing** (``TrainerConfig.bucket_by_length``): batches mix
  only rows in a 2× length band, so a lone long row no longer forces a
  whole batch to full width — this is what makes trimming bite, and the
  benchmark matrix therefore enables it for all trimmed entries.

``test_train_speedup_gate`` credits those two mechanisms on their own:
trimmed+bucketed training must finish the same VSAN epochs at least 2×
faster than untrimmed training on the same corpus and seed.
``test_train_quality_gate`` guards the other side: on the deterministic
VSAN ablation, trimming alone must keep validation NDCG@10 within 1%
relative of the untrimmed run — trimming is loss-exact, so any drift
here is a correctness bug, not noise.  (For the full *stochastic* VSAN
a different batch width reshuffles which RNG draws land on which
positions — the runs are equal in distribution but not path-identical,
so a tight per-run NDCG bound would only measure training-noise
variance.)

Recorded means are gated against ``benchmarks/BENCH_baseline.json`` by
``compare_bench.py`` like every other benchmark (``make bench-train``).
"""

import time

import numpy as np
import pytest

from repro.core import VSAN
from repro.data import SequenceCorpus, split_strong_generalization
from repro.eval.evaluator import evaluate_recommender
from repro.models import SASRec
from repro.tensor import set_default_dtype
from repro.tensor.random import make_rng
from repro.train import Trainer, TrainerConfig

NUM_ITEMS = 200
MAX_LENGTH = 50
NUM_USERS = 768
BATCH_SIZE = 64
BENCH_EPOCHS = 2
BENCH_ROUNDS = 5
GATE_EPOCHS = 6


@pytest.fixture(scope="module", autouse=True)
def float32_compute():
    """Train under the production float32 compute dtype."""
    previous = set_default_dtype(np.float32)
    yield
    set_default_dtype(previous)


@pytest.fixture(scope="module")
def split():
    """Long-tail corpus: mostly short histories, a heavy long minority,
    each following a learnable cyclic next-item pattern."""
    rng = np.random.default_rng(0)
    sequences = []
    for user in range(NUM_USERS):
        length = int(
            rng.integers(40, 51) if user % 8 == 0 else rng.integers(3, 9)
        )
        start = int(rng.integers(0, NUM_ITEMS))
        sequences.append(
            np.array(
                [(start + t) % NUM_ITEMS + 1 for t in range(length)],
                dtype=np.int64,
            )
        )
    corpus = SequenceCorpus(sequences=sequences, num_items=NUM_ITEMS)
    return split_strong_generalization(corpus, 64, make_rng(2))


def build_model(name, **overrides):
    if name == "vsan":
        kwargs = dict(dim=48, h1=1, h2=1, dropout_rate=0.2, seed=3)
        kwargs.update(overrides)
        return VSAN(NUM_ITEMS, MAX_LENGTH, **kwargs)
    kwargs = dict(dim=48, num_blocks=1, dropout_rate=0.2, seed=3)
    kwargs.update(overrides)
    return SASRec(NUM_ITEMS, MAX_LENGTH, **kwargs)


def trainer_config(epochs, trimmed, bucketed=None):
    return TrainerConfig(
        epochs=epochs,
        batch_size=BATCH_SIZE,
        seed=0,
        compute_dtype="float32",
        trim_batches=trimmed,
        bucket_by_length=trimmed if bucketed is None else bucketed,
    )


@pytest.mark.parametrize(
    "trimmed", [False, True], ids=["serial-full", "serial-trimmed"]
)
@pytest.mark.parametrize("model_name", ["vsan", "sasrec"])
def test_train_epochs(benchmark, split, model_name, trimmed):
    """Wall time of BENCH_EPOCHS training epochs per configuration,
    over BENCH_ROUNDS rounds (each from a freshly built model)."""

    def train():
        model = build_model(model_name)
        config = trainer_config(BENCH_EPOCHS, trimmed)
        return Trainer(config).fit(model, split.train)

    history = benchmark.pedantic(train, rounds=BENCH_ROUNDS, iterations=1)
    assert len(history.losses) == BENCH_EPOCHS
    assert np.isfinite(history.losses).all()
    benchmark.extra_info["epochs"] = BENCH_EPOCHS
    benchmark.extra_info["sec_per_epoch"] = round(
        benchmark.stats.stats.mean / BENCH_EPOCHS, 3
    )


def test_train_speedup_gate(split):
    """Trimming + bucketing must train the same VSAN epochs >= 2x
    faster than the untrimmed trainer."""

    def timed(config):
        model = build_model("vsan")
        start = time.perf_counter()
        Trainer(config).fit(model, split.train)
        return time.perf_counter() - start

    full_time = timed(trainer_config(GATE_EPOCHS, False))
    trimmed_time = timed(trainer_config(GATE_EPOCHS, True))
    speedup = full_time / trimmed_time
    print(
        f"\nfull {full_time / GATE_EPOCHS:.2f}s/epoch, "
        f"trimmed+bucketed {trimmed_time / GATE_EPOCHS:.2f}s/epoch, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"trimmed+bucketed training is only {speedup:.2f}x the untrimmed "
        f"path; the training fast path has regressed"
    )


def test_train_quality_gate(split):
    """Trimming quality bar, on the deterministic VSAN ablation so the
    comparison measures the machinery rather than RNG-stream noise:
    validation NDCG@10 of the trimmed run must stay within 1% relative
    of the untrimmed run (same uniform shuffle, so only the batch width
    differs)."""

    def ndcg(config):
        model = build_model("vsan", dropout_rate=0.0, use_latent=False)
        Trainer(config).fit(model, split.train)
        return evaluate_recommender(model, split.validation)["ndcg@10"]

    full_score = ndcg(trainer_config(GATE_EPOCHS, False))
    trimmed_score = ndcg(trainer_config(GATE_EPOCHS, True, bucketed=False))
    relative = abs(trimmed_score - full_score) / full_score
    print(
        f"\nNDCG@10 full {full_score:.4f}, trimmed {trimmed_score:.4f}, "
        f"relative drift {relative:.4%}"
    )
    assert relative <= 0.01, (
        f"trimmed training drifted {relative:.2%} in NDCG@10 from the "
        f"untrimmed run; trimming is no longer exact"
    )
