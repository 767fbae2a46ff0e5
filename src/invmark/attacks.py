"""Post-hoc model edits: pruning, fine-tuning, quantization, distillation.

Attacks never mutate their input model; each returns an edited copy. All
randomness is derived from the attack seed, so every edit is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carriers import CarrierBundle
from .errors import BundleRequiredError
from .graphs import Graph
from .nn.model import GraphBatch, Model, batch_logits, batch_task_loss, check_same_arch
from .nn.optim import WEIGHT_DECAY, train_loop
from .nn.tape import add, kl_to_teacher, scale
from .watermark import wm_loss

# A "full" distillation run; retention fractions scale against this count.
FULL_KD_EPOCHS = 40
# Distillation temperature: both distributions are softened by it.
KD_TEMPERATURE = 2.0


@dataclass(frozen=True)
class AttackSpec:
    """Which edit to run; only the fields for ``kind`` are meaningful."""

    kind: str  # PRUNE | FINETUNE | QUANTIZE | KD | KD_WM
    prune_fraction: float = 0.0
    ft_epochs: int = 20
    bits: int = 8
    kd_retention: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("PRUNE", "FINETUNE", "QUANTIZE", "KD", "KD_WM"):
            raise ValueError(f"unknown attack kind {self.kind}")
        if not (0.0 <= self.prune_fraction <= 1.0):
            raise ValueError("prune_fraction must be in [0, 1]")
        if self.ft_epochs < 1:
            raise ValueError("ft_epochs must be >= 1")
        if self.bits not in (4, 8):
            raise ValueError("bits must be 4 or 8")
        if not (0.0 < self.kd_retention <= 1.0):
            raise ValueError("kd_retention must be in (0, 1]")


def prune(model: Model, p_pr: float) -> Model:
    """One-shot global magnitude pruning over every parameter tensor.

    Zeroes exactly floor(p_pr * #params) entries of smallest magnitude
    (ties broken by flat parameter index), perception head included: the
    attacker has no reason to spare it. No retraining.
    """
    if not (0.0 <= p_pr <= 1.0):
        raise ValueError("p_pr must be in [0, 1]")
    out = model.copy()
    vec = out.param_vector()
    k = int(np.floor(p_pr * vec.size))
    if k > 0:
        order = np.argsort(np.abs(vec), kind="stable")
        vec[order[:k]] = 0.0
        out.set_param_vector(vec)
    return out


def finetune(
    model: Model,
    task_graphs: list[Graph],
    task_labels: np.ndarray,
    epochs: int = 20,
    seed: int = 0,
    batch_size: int = 32,
) -> tuple[Model, float]:
    """Task-loss-only training on clean data, weight decay WEIGHT_DECAY;
    returns (model, parameter displacement)."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    out = model.copy()
    labels = np.asarray(task_labels, dtype=int)
    pool = GraphBatch(task_graphs)

    def batch_loss(idx):
        loss = batch_task_loss(out, pool.take(idx), labels[idx])
        return loss, loss

    rng = np.random.default_rng([seed, 0xF17E])
    for _ in train_loop(out, batch_loss, len(task_graphs), epochs, batch_size, rng, WEIGHT_DECAY):
        pass
    delta_theta = float(np.linalg.norm(out.param_vector() - model.param_vector()))
    return out, delta_theta


def quantize(model: Model, bits: int) -> Model:
    """Symmetric per-tensor fake quantization.

    Each named tensor is rounded to a (2^(bits-1) - 1)-level grid scaled by
    its own max magnitude; all-zero tensors pass through unchanged. Values
    already on the grid are fixed points, so re-quantizing is idempotent.
    """
    if bits not in (4, 8):
        raise ValueError("bits must be 4 or 8")
    out = model.copy()
    levels = 2 ** (bits - 1) - 1
    for p in out.params.values():
        scale_max = float(np.abs(p.data).max())
        if scale_max <= 0.0:
            continue
        step = scale_max / levels
        p.data = np.round(p.data / step) * step
    return out


def kd(
    teacher: Model,
    student_init: Model,
    task_graphs: list[Graph],
    with_wm: bool = False,
    bundle: CarrierBundle | None = None,
    beta_wm: float = 1.0,
    epochs: int = FULL_KD_EPOCHS,
    seed: int = 0,
    batch_size: int = 32,
) -> Model:
    """Logits-only distillation: KL(teacher || student) at KD_TEMPERATURE,
    times T^2, averaged over the task data, without weight decay. ``with_wm``
    adds the watermark regression loss on the bundle (the KD+WM defense).
    """
    check_same_arch(teacher, student_init)
    if with_wm and bundle is None:
        raise BundleRequiredError("KD with watermark loss needs a carrier bundle")
    student = student_init.copy()
    pool, order = GraphBatch(task_graphs), np.arange(len(task_graphs))
    # The teacher is frozen, so its softened probabilities are computed once,
    # a training batch's worth of graphs per forward to bound the padded arrays.
    logits = [
        batch_logits(teacher, pool.take(order[start : start + batch_size])).data
        for start in range(0, len(task_graphs), batch_size)
    ]
    soft = np.exp(np.concatenate(logits) / KD_TEMPERATURE)
    soft = soft / soft.sum(axis=1, keepdims=True)

    def batch_loss(idx):
        loss = kl_to_teacher(batch_logits(student, pool.take(idx)), soft[idx], KD_TEMPERATURE)
        if with_wm:
            loss = add(loss, scale(wm_loss(student, bundle), beta_wm))
        return loss, loss

    rng = np.random.default_rng([seed, 0xD157])
    for _ in train_loop(student, batch_loss, len(task_graphs), epochs, batch_size, rng, 0.0):
        pass
    return student


def kd_epochs_for_retention(rho_kd: float) -> int:
    """Epoch-fraction surrogate: distill for 1 - rho_kd of a full run's epochs."""
    if not (0.0 < rho_kd <= 1.0):
        raise ValueError("rho_kd must be in (0, 1]")
    return max(1, int(round((1.0 - rho_kd) * FULL_KD_EPOCHS)))


def prune_ratio_from_drifts(points: list[tuple[float, float]]) -> float:
    """c_prune = max over sweep points of gamma / sqrt(p)."""
    return max(gamma / np.sqrt(p) for p, gamma in points)

