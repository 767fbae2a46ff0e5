"""Minimal differentiable engine: tape, message-passing layers, Adam."""

from .model import (
    GraphBatch,
    Model,
    batch_logits,
    batch_task_loss,
    ModelHyper,
    check_same_arch,
    init_model,
    load_checkpoint,
    perception_score,
    perception_scores,
    save_checkpoint,
)
from .optim import AdamState, adam_step, apply_spectral_norm_inplace, spectral_normalize
from .tape import Tensor, cross_entropy, kl_to_teacher, log_softmax, mean_all, sigmoid

__all__ = [
    "AdamState",
    "GraphBatch",
    "Model",
    "ModelHyper",
    "Tensor",
    "adam_step",
    "batch_logits",
    "batch_task_loss",
    "apply_spectral_norm_inplace",
    "check_same_arch",
    "cross_entropy",
    "init_model",
    "kl_to_teacher",
    "load_checkpoint",
    "log_softmax",
    "mean_all",
    "perception_score",
    "perception_scores",
    "save_checkpoint",
    "sigmoid",
]
