"""Generic training loop for the neural sequence recommenders.

Works with any :class:`repro.models.base.NeuralSequentialRecommender`:
the model supplies ``training_loss(padded_batch)`` and the trainer
supplies epochs, shuffled minibatches, Adam, gradient clipping, optional
early stopping on a validation metric, best-weight restoration, and —
when ``TrainerConfig.checkpoint_dir`` is set — crash-safe full-state
checkpoints that :meth:`Trainer.fit` can resume bit-for-bit (see
:mod:`repro.train.checkpoint`).

Two hot-path features cut the padding waste of long-tail corpora:

- **length-aware trimming** (``TrainerConfig.trim_batches``): each batch
  is column-trimmed to its own longest real sequence before the forward
  pass, an exact transformation for models that declare
  ``supports_trimming`` (attention cost is O(L²), so this is a large
  saving on long-tail corpora);
- **length bucketing** (``TrainerConfig.bucket_by_length``): minibatches
  mix only rows within a 2× length band, which is what makes trimming
  bite when batch composition would otherwise be dominated by one long
  straggler.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data.batching import (
    bucketed_minibatch_indices,
    effective_lengths,
    minibatch_indices,
    trim_batch,
)
from ..data.interactions import SequenceCorpus
from ..data.splits import FoldInUser
from ..eval.evaluator import evaluate_recommender
from ..optim import Adam, clip_grad_norm
from ..tensor import default_dtype, get_default_dtype
from ..tensor.compile import (
    DYNAMIC,
    build_program,
    invalidate,
    programs_for,
    record_feed,
    trace,
)
from ..tensor.random import make_rng
from .checkpoint import (
    TrainingCheckpoint,
    checkpoint_path,
    load_training_checkpoint,
    prune_checkpoints,
    resolve_checkpoint,
    save_training_checkpoint,
)
from .config import TrainerConfig, TrainingHistory

__all__ = ["Trainer"]


@dataclass
class _EpochTotals:
    """Per-epoch accumulators of the training loop."""

    loss: float = 0.0
    reconstruction: float = 0.0
    kl: float = 0.0
    examples: int = 0
    beta: float | None = None
    num_batches: int = 0

    def record_batch(
        self,
        loss_value: float,
        batch_size: int,
        reconstruction: float | None = None,
        kl: float | None = None,
        beta: float | None = None,
    ) -> None:
        # Weight per-batch means by batch size so a ragged final
        # minibatch doesn't bias the reported epoch means.
        self.loss += loss_value * batch_size
        if reconstruction is not None:
            self.reconstruction += reconstruction * batch_size
        if kl is not None:
            self.kl += kl * batch_size
        if beta is not None and self.beta is None:
            self.beta = beta
        self.examples += batch_size
        self.num_batches += 1


def _training_key(model, rows: np.ndarray):
    """Program-cache key of one training step: shape bucket + dtype,
    plus whether the β-annealing schedule currently sits at exactly zero
    (the ELBO's β=0 branch is structural, so the zero-crossing retraces)."""
    key = ("train", rows.shape, np.dtype(get_default_dtype()))
    beta_zero = getattr(model, "compile_beta_zero", None)
    if beta_zero is not None:
        key = key + (beta_zero(),)
    return key


def training_step_values(
    model, rows: np.ndarray, compile_enabled: bool = True,
    check_finite=None,
):
    """One forward+backward over ``rows``, leaving gradients on the
    parameters.

    Routes through the compiled trace-and-replay path when
    ``compile_enabled`` and the model allows it (``compile_training``):
    the first batch of each ``(shape, dtype, β=0?)`` bucket traces an
    eager step into a :class:`repro.tensor.compile.Program`, and every
    later batch of that bucket replays it — no tape, no fresh arrays,
    bitwise-identical numbers.  Untraceable models run eager forever.

    ``check_finite`` (optional ``callable(loss_value)``) runs between
    the forward and the backward, exactly where the eager loop checks.

    Returns ``(loss_value, reconstruction, kl, beta)``; the last three
    are ``None`` for models without ``training_elbo``.
    """
    tracks_elbo = hasattr(model, "training_elbo")

    def eager_step():
        if tracks_elbo:
            terms = model.training_elbo(rows)
            loss = terms.loss
        else:
            terms = None
            loss = model.training_loss(rows)
        loss_value = loss.item()
        if check_finite is not None:
            check_finite(loss_value)
        loss.backward()
        return loss, terms, loss_value

    def stats(loss_value, terms):
        if terms is None:
            return loss_value, None, None, None
        return (
            loss_value,
            terms.reconstruction_value,
            terms.kl_value,
            terms.beta,
        )

    if not (compile_enabled and getattr(model, "compile_training", True)):
        _, terms, loss_value = eager_step()
        return stats(loss_value, terms)

    cache = programs_for(model)
    key = _training_key(model, rows)
    entry = cache.get(key)
    if entry is DYNAMIC:
        _, terms, loss_value = eager_step()
        return stats(loss_value, terms)
    if entry is not None:
        program, terms = entry
        feeds = {"rows": rows}
        step_feeds = getattr(model, "compile_step_feeds", None)
        if step_feeds is not None:
            feeds.update(step_feeds())
        loss = program.replay(feeds)
        loss_value = loss.item()
        if check_finite is not None:
            check_finite(loss_value)
        program.replay_backward()
        if terms is not None:
            # The replayed ELBO tensors were refreshed in place; only the
            # python-float β needs to catch up for the history record.
            terms.beta = feeds.get("beta", terms.beta)
        return stats(loss_value, terms)
    with trace() as tracer:
        record_feed("rows", rows)
        loss, terms, loss_value = eager_step()
    program = build_program(tracer, loss, require_backward=True)
    cache.put(key, DYNAMIC if program is None else (program, terms))
    return stats(loss_value, terms)


class Trainer:
    """Epoch/minibatch driver around Adam (the paper's optimizer)."""

    def __init__(self, config: TrainerConfig | None = None):
        self.config = config or TrainerConfig()

    def fit(
        self,
        model,
        corpus: SequenceCorpus,
        validation: list[FoldInUser] | None = None,
        resume_from: str | Path | None = None,
    ) -> TrainingHistory:
        """Train ``model`` on ``corpus``.

        When ``validation`` users are given the model is evaluated on
        ``config.eval_metric`` every ``config.eval_every`` epochs; if
        ``config.patience`` is also set, training stops after
        ``patience`` evaluations without improvement and the best
        weights are restored.

        ``resume_from`` continues a checkpointed run: it accepts a
        checkpoint file or a checkpoint directory (newest checkpoint)
        written by a previous ``fit`` with ``config.checkpoint_dir``
        set.  The caller must pass the same model architecture and
        training data; everything else — weights, Adam moments, RNG
        streams, the β-annealing step, history, and early-stopping
        state — is restored from the checkpoint, so the resumed run
        produces the same numbers as one that never stopped.
        """
        config = self.config
        if config.compute_dtype is not None:
            # Cast parameters once, then run the whole fit (activations,
            # gradients, Adam moments) under that default dtype.
            target = np.dtype(config.compute_dtype)
            for param in model.parameters():
                if param.data.dtype != target:
                    param.data = param.data.astype(target)
            # The cast rebinds parameter arrays; any program traced
            # against the old arrays would refire into dead buffers.
            invalidate(model)
            with default_dtype(target):
                return self._fit(model, corpus, validation, resume_from)
        return self._fit(model, corpus, validation, resume_from)

    def _epoch_batches(
        self, num_rows: int, rng: np.random.Generator, epoch: int = 1
    ):
        """Minibatch index arrays for one epoch.

        With ``bucket_by_length``, epochs up to ``bucket_epochs`` draw
        length-bucketed batches and later epochs switch to the uniform
        shuffle (scheduled mixing; ``bucket_epochs=None`` buckets every
        epoch).  Both branches consume the same per-epoch ``rng``, so
        the schedule stays deterministic for a given seed — including
        across checkpoint resumes, where the epoch number (not elapsed
        work) decides the branch.
        """
        bucketed = self.config.bucket_by_length and (
            self.config.bucket_epochs is None
            or epoch <= self.config.bucket_epochs
        )
        if bucketed:
            return bucketed_minibatch_indices(
                self._lengths, self.config.batch_size, rng
            )
        return minibatch_indices(num_rows, self.config.batch_size, rng)

    def _fit(
        self,
        model,
        corpus: SequenceCorpus,
        validation: list[FoldInUser] | None = None,
        resume_from: str | Path | None = None,
    ) -> TrainingHistory:
        config = self.config
        rng = make_rng(config.seed)
        optimizer = Adam(model.parameters(), lr=config.learning_rate)
        padded = model.padded_training_rows(corpus)
        history = TrainingHistory()
        best_score = -np.inf
        best_state = None
        misses = 0
        start_epoch = 1
        if resume_from is not None:
            checkpoint = load_training_checkpoint(
                resolve_checkpoint(resume_from)
            )
            model.load_state_dict(checkpoint.model_state)
            optimizer.load_state_dict(checkpoint.optimizer_state)
            rng.bit_generator.state = checkpoint.trainer_rng_state
            model.set_rng_state(checkpoint.model_rng_state)
            model.load_extra_state(checkpoint.model_extra_state)
            history = checkpoint.history
            best_score = checkpoint.best_score
            best_state = checkpoint.best_state
            misses = checkpoint.misses
            start_epoch = checkpoint.epoch + 1
            if history.stopped_early:
                # The checkpointed run already terminated via early
                # stopping; continuing would diverge from the
                # uninterrupted run, so just restore its outcome.
                if best_state is not None:
                    model.load_state_dict(best_state)
                model.eval()
                return history
        tracks_elbo = hasattr(model, "training_elbo")
        self._lengths = effective_lengths(padded)
        trim = config.trim_batches and getattr(
            model, "supports_trimming", False
        )
        trim_margin = max(1, getattr(model, "target_window", 1))
        checkpoint_dir = (
            Path(config.checkpoint_dir)
            if config.checkpoint_dir is not None
            else None
        )

        stop = False
        for epoch in range(start_epoch, config.epochs + 1):
            model.train()
            totals = _EpochTotals()

            def check_finite(loss_value: float) -> None:
                if not np.isfinite(loss_value):
                    raise RuntimeError(
                        f"non-finite training loss ({loss_value}) at "
                        f"epoch {epoch}, batch {totals.num_batches}: check "
                        "the learning rate / KL weight, or inspect the "
                        "batch with model.training_loss directly"
                    )

            for batch in self._epoch_batches(len(padded), rng, epoch):
                rows = padded[batch]
                if trim:
                    rows = trim_batch(
                        rows, self._lengths[batch], margin=trim_margin
                    )
                optimizer.zero_grad()
                loss_value, reconstruction, kl, beta = training_step_values(
                    model, rows, compile_enabled=config.compile,
                    check_finite=check_finite,
                )
                grad_norm = clip_grad_norm(
                    model.parameters(), config.clip_norm
                )
                if not np.isfinite(grad_norm):
                    raise RuntimeError(
                        f"non-finite gradient norm ({grad_norm}) at epoch "
                        f"{epoch}, batch {totals.num_batches}: the loss was "
                        f"finite ({loss_value}) but a backward pass "
                        "produced inf/NaN — lower the learning rate or "
                        "inspect the gradients"
                    )
                history.grad_norms.append(grad_norm)
                optimizer.step()
                totals.record_batch(
                    loss_value, len(rows), reconstruction, kl, beta
                )
            denominator = max(totals.examples, 1)
            mean_loss = totals.loss / denominator
            if not np.isfinite(mean_loss):
                # Every per-batch loss passed the finite check above,
                # so this is the accumulator itself overflowing (huge
                # but finite batch losses summing to inf).
                raise RuntimeError(
                    f"non-finite epoch loss ({mean_loss}) at epoch "
                    f"{epoch}: per-batch losses were finite but their "
                    "sum overflowed — the loss scale has diverged; "
                    "lower the learning rate or inspect recent batches"
                )
            history.losses.append(mean_loss)
            if tracks_elbo:
                history.reconstruction_losses.append(
                    totals.reconstruction / denominator
                )
                history.kl_values.append(totals.kl / denominator)
                history.betas.append(
                    totals.beta if totals.beta is not None else 0.0
                )
            if config.verbose:
                print(f"epoch {epoch:3d}  loss {mean_loss:.4f}")

            # Periodic evaluation runs whenever validation users
            # exist; early stopping additionally requires patience.
            should_eval = (
                validation is not None
                and epoch % config.eval_every == 0
            )
            if should_eval:
                result = evaluate_recommender(model, validation)
                score = result[config.eval_metric]
                history.validation_scores.append((epoch, score))
                if config.verbose:
                    print(
                        f"epoch {epoch:3d}  "
                        f"{config.eval_metric} {100 * score:.3f}%"
                    )
                if score > best_score:
                    best_score = score
                    history.best_epoch = epoch
                    misses = 0
                    if config.patience is not None:
                        best_state = model.state_dict()
                elif config.patience is not None:
                    misses += 1
                    if misses >= config.patience:
                        history.stopped_early = True
                        stop = True

            if checkpoint_dir is not None and (
                epoch % config.checkpoint_every == 0
                or epoch == config.epochs
                or stop
            ):
                save_training_checkpoint(
                    TrainingCheckpoint(
                        epoch=epoch,
                        model_state=model.state_dict(),
                        optimizer_state=optimizer.state_dict(),
                        trainer_rng_state=rng.bit_generator.state,
                        model_rng_state=model.rng_state(),
                        model_extra_state=model.extra_state(),
                        history=history,
                        best_score=best_score,
                        best_state=best_state,
                        misses=misses,
                    ),
                    checkpoint_path(checkpoint_dir, epoch),
                )
                prune_checkpoints(checkpoint_dir, config.keep_last)
            if stop:
                break

        if best_state is not None:
            model.load_state_dict(best_state)
        model.eval()
        return history
