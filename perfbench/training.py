"""The training phase of every workload.

VSAN trained through :class:`repro.train.Trainer` with the default
:class:`TrainerConfig` (column trimming, length bucketing, compiled
steps, serial) and validated every epoch.  The corpus is long-tail:
one user in eight has 40–50 items, the rest 3–8, so batching and
trimming decide how much padding the attention layers compute on.
The trained model is what the serving phase then rolls out.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.core import VSAN
from repro.data import SequenceCorpus, split_strong_generalization
from repro.tensor.compile import invalidate
from repro.tensor.random import make_rng
from repro.train import Trainer, TrainerConfig

clock = time.perf_counter

NUM_ITEMS = 2_000
NUM_USERS = 3_000
MAX_LENGTH = 50
DIM = 48
DROPOUT = 0.2
GENRES = 50
HELDOUT = 300
CORPUS_SEED = 0
SECONDS_PER_EPOCH = 1.75  # nominal; fixes the epoch count from --seconds
# The float32 production path.  Under the float64 default the compiled
# step programs of the long-history buckets hold ~5 GB of buffers on
# this corpus; float32 keeps the process near 1.4 GB.
COMPUTE_DTYPE = "float32"


def make_corpus(seed: int) -> SequenceCorpus:
    """Long-tail sequences with a learnable structure: items form
    ``GENRES`` ordered genres; a user mostly walks forward through one
    genre and sometimes jumps to a globally popular item."""
    rng = np.random.default_rng((seed, 3))
    genre_size = NUM_ITEMS // GENRES
    popularity = np.arange(1, NUM_ITEMS + 1, dtype=np.float64) ** -1.1
    popularity /= popularity.sum()
    sequences = []
    for user in range(NUM_USERS):
        length = int(
            rng.integers(40, 51) if user % 8 == 0 else rng.integers(3, 9)
        )
        genre = int(rng.integers(GENRES))
        position = int(rng.integers(genre_size))
        jumps = rng.random(length) < 0.25
        popular = rng.choice(NUM_ITEMS, size=length, p=popularity)
        items = np.empty(length, dtype=np.int64)
        for step in range(length):
            if jumps[step]:
                items[step] = popular[step] + 1
            else:
                position = (position + 1) % genre_size
                items[step] = genre * genre_size + position + 1
        sequences.append(items)
    return SequenceCorpus(sequences=sequences, num_items=NUM_ITEMS)


def make_split():
    """The fixed training data set (corpus seed 0) and its split."""
    corpus = make_corpus(CORPUS_SEED)
    return split_strong_generalization(
        corpus, HELDOUT, make_rng(CORPUS_SEED)
    )


def build_model(num_items: int, seed: int) -> VSAN:
    return VSAN(num_items, MAX_LENGTH, dim=DIM, h1=1, h2=1,
                dropout_rate=DROPOUT, seed=seed)


def epochs_for(seconds: float) -> int:
    return max(2, int(round(seconds / SECONDS_PER_EPOCH)))


def fit(split, epochs: int, seed: int):
    """A fresh model (initialised from ``seed``) fit for ``epochs``;
    returns ``(model, history, wall seconds)``."""
    model = build_model(NUM_ITEMS, seed)
    trainer = Trainer(
        TrainerConfig(epochs=epochs, seed=seed, compute_dtype=COMPUTE_DTYPE)
    )
    start = clock()
    history = trainer.fit(model, split.train, validation=split.validation)
    return model, history, clock() - start


def train(split, seed: int, epochs: int, steal) -> dict:
    """The timed fit.  ``steal`` reads the cumulative steal seconds of
    the CPU the process is pinned to (``epoch_s`` excludes them, see
    :mod:`perfbench.host`).  The returned model is in eval mode with
    its training programs dropped, ready to be served."""
    stolen = steal()
    start = clock()
    model, history, wall = fit(split, epochs, seed)
    window = (start, clock())
    stolen = steal() - stolen
    model.eval()
    # The step programs hold the training buffers (~1 GB); the served
    # copy must not carry them into the rollout.
    invalidate(model)
    gc.collect()
    return {
        "model": model,
        "history": history,
        "epochs": epochs,
        "fit_seconds": wall,
        "fit_steal": stolen,
        "window": window,
    }


def repeat_check(split, seed: int, results: dict) -> dict:
    """Fit one epoch from a fresh model with the same seed: its
    validation score must equal the timed fit's epoch-1 score bit for
    bit.  The final score is compared across runs of one seed by
    ``steady.py``."""
    timed = results["history"].validation_scores
    _, repeat, _ = fit(split, 1, seed)
    again = repeat.validation_scores
    scores = [score for _, score in timed]
    mismatches = int(
        not again or again[0][1] != timed[0][1]
        or not all(np.isfinite(scores))
    )
    return {"mismatches": mismatches, "epoch_1_ndcg": timed[0][1],
            "repeat_epoch_1_ndcg": again[0][1] if again else None}


def input_properties(split, epochs: int) -> dict:
    lengths = np.array([len(s) for s in split.train.sequences])
    return {
        "train_users": int(len(lengths)),
        "train_items": NUM_ITEMS,
        "train_mean_history_length": round(float(lengths.mean()), 3),
        "train_long_user_share": round(float(np.mean(lengths >= 40)), 4),
        "validation_users": len(split.validation),
        "epochs": epochs,
    }
