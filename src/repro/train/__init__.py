"""Training harness: Trainer, configs, KL-annealing schedules, and
full-state checkpoint/resume."""

from .annealing import BetaSchedule, ConstantBeta, KLAnnealing
from .checkpoint import (
    CheckpointError,
    TrainingCheckpoint,
    checkpoint_path,
    latest_checkpoint,
    list_checkpoints,
    load_training_checkpoint,
    prune_checkpoints,
    resolve_checkpoint,
    save_training_checkpoint,
)
from .config import TrainerConfig, TrainingHistory
from .trainer import Trainer

__all__ = [
    "BetaSchedule",
    "CheckpointError",
    "ConstantBeta",
    "KLAnnealing",
    "Trainer",
    "TrainerConfig",
    "TrainingCheckpoint",
    "TrainingHistory",
    "checkpoint_path",
    "latest_checkpoint",
    "list_checkpoints",
    "load_training_checkpoint",
    "prune_checkpoints",
    "resolve_checkpoint",
    "save_training_checkpoint",
]
