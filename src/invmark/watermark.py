"""Dual-objective embedding, bit decoding, black-box verification, margins.

Verification consumes a model or an opaque score oracle (any callable
mapping a graph to one score in [0, 1]), so the same code path audits
in-process models, checkpoints, attacked copies and remote suspects. Only
perception scores are read, and they are checked before use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import AuditThresholds
from .carriers import CarrierBundle, read_key
from .errors import NonFiniteValueError, ScoreRangeError, ShapeMismatchError, SizeMismatchError
from .graphs import Graph
from .nn.model import GraphBatch, Model, batch_task_loss, check_same_arch, perception_scores
from .nn.optim import WEIGHT_DECAY, train_loop
from .nn.tape import Tensor, add, mean_all, mul, scale, sub

# Carriers may make up at most this share of a joint training batch.
CARRIER_BATCH_FRACTION = 0.16


@dataclass(frozen=True)
class EmbedConfig:
    """Training configuration for watermark embedding."""

    beta_wm: float = 1.0
    epochs: int = 60
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self):
        if self.beta_wm < 0.0:
            raise ValueError("beta_wm must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    task_loss: float
    wm_loss: float
    wm_acc: float


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of the black-box bit-match audit."""

    scores: np.ndarray
    decoded_bits: np.ndarray
    match_count: int
    tau: int
    decision: str
    kappa: float
    per_bit_margins: np.ndarray

    @property
    def verified(self) -> bool:
        return self.decision == "VERIFIED"

    def to_dict(self) -> dict:
        return {
            "scores": [float(s) for s in self.scores],
            "decoded_bits": [int(b) for b in self.decoded_bits],
            "match_count": self.match_count,
            "tau": self.tau,
            "decision": self.decision,
            "kappa": self.kappa,
            "per_bit_margins": [float(x) for x in self.per_bit_margins],
        }


def carrier_scores(model_or_oracle, bundle: CarrierBundle) -> np.ndarray:
    """Perception scores of the carriers, in carrier order.

    A model scores all carriers in one batched forward; an opaque oracle is
    asked once per carrier and must answer one number. Every score must be
    finite and in [0, 1].
    """
    if isinstance(model_or_oracle, Model):
        scores = perception_scores(model_or_oracle, bundle.carrier_batch).data
    else:
        answers = [np.asarray(model_or_oracle(g), dtype=float) for g in bundle.carriers]
        if any(a.ndim for a in answers):
            raise ShapeMismatchError("an oracle must answer one number per carrier")
        scores = np.array(answers)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteValueError("a carrier score is not finite")
    if np.any((scores < 0.0) | (scores > 1.0)):
        raise ScoreRangeError("a carrier score lies outside [0, 1]")
    return scores


def wm_loss(model: Model, bundle: CarrierBundle, indices=None) -> Tensor:
    """Mean squared error of the perception head against carrier targets."""
    if bundle.m == 0:
        raise ValueError("bundle must be nonempty")
    if indices is None:
        batch, targets = bundle.carrier_batch, bundle.targets
    else:
        batch = bundle.carrier_batch.take(indices)
        targets = bundle.targets[np.asarray(indices, dtype=int)]
    r = sub(perception_scores(model, batch), Tensor(targets))
    return mean_all(mul(r, r))


def _match_count(bits: np.ndarray, bundle: CarrierBundle) -> int:
    """How many bits read from carrier scores equal the key bits."""
    return int((bits == bundle.key_bits).sum())


def wm_accuracy(model_or_oracle, bundle: CarrierBundle) -> float:
    """Fraction of carrier bits decoded correctly."""
    return _match_count(read_key(carrier_scores(model_or_oracle, bundle))[0], bundle) / bundle.m


def _carriers_per_batch(m: int, batch_size: int) -> int:
    """Largest carrier count keeping carriers <= CARRIER_BATCH_FRACTION of the joint batch."""
    cap = int(CARRIER_BATCH_FRACTION / (1.0 - CARRIER_BATCH_FRACTION) * batch_size)
    return max(1, min(m, cap))


def embed(
    model: Model,
    task_graphs: list[Graph],
    task_labels: np.ndarray,
    bundle: CarrierBundle,
    cfg: EmbedConfig,
) -> tuple[Model, list[EpochLog]]:
    """Train the joint objective: task loss plus beta_wm times the carrier loss.

    Per batch the task loss is computed on the batch and the carrier loss on
    the full carrier set, unless that would exceed CARRIER_BATCH_FRACTION of
    the joint batch, in which case a per-batch carrier subsample of the
    admissible size is drawn. After every optimizer step the perception head
    is spectrally normalized. Deterministic given cfg.seed and data order.
    Aborts with the last finite-loss checkpoint on a non-finite loss.
    """
    labels = np.asarray(task_labels, dtype=int)
    if len(task_graphs) != len(labels):
        raise ValueError("graphs and labels must align")
    rng = np.random.default_rng([cfg.seed, 0xE4BED])
    m_eff = _carriers_per_batch(bundle.m, cfg.batch_size)
    pool = GraphBatch(task_graphs)

    def batch_loss(batch_idx):
        chosen = None
        if cfg.beta_wm > 0.0 and m_eff < bundle.m:
            chosen = rng.choice(bundle.m, size=m_eff, replace=False)
        task = batch_task_loss(model, pool.take(batch_idx), labels[batch_idx])
        if cfg.beta_wm > 0.0:
            return add(task, scale(wm_loss(model, bundle, chosen), cfg.beta_wm)), task
        return task, task

    def epoch_log(epoch: int, task_loss: float) -> EpochLog:
        """wm_loss and wm_acc over all carriers, from one set of scores."""
        scores = carrier_scores(model, bundle)
        residual, matches = scores - bundle.targets, _match_count(read_key(scores)[0], bundle)
        return EpochLog(epoch, task_loss, wm_loss=float((residual * residual).mean()), wm_acc=matches / bundle.m)

    logs = [
        epoch_log(epoch, task_loss)
        for epoch, task_loss in train_loop(
            model,
            batch_loss,
            len(task_graphs),
            cfg.epochs,
            cfg.batch_size,
            rng,
            WEIGHT_DECAY,
            spectral_norm=True,
        )
    ]
    return model, logs


def verify(model_or_oracle, bundle: CarrierBundle, thresholds: AuditThresholds) -> VerificationReport:
    """Black-box ownership test: decode carrier bits, compare match count to tau."""
    if thresholds.m != bundle.m:
        raise SizeMismatchError(f"thresholds for m={thresholds.m}, bundle has m={bundle.m}")
    scores = carrier_scores(model_or_oracle, bundle)
    decoded, margins = read_key(scores)
    matches = _match_count(decoded, bundle)
    return VerificationReport(
        scores=scores,
        decoded_bits=decoded,
        match_count=matches,
        tau=thresholds.tau,
        decision="VERIFIED" if matches >= thresholds.tau else "NOT_VERIFIED",
        kappa=float(margins.min()),
        per_bit_margins=margins,
    )


def margin(model_or_oracle, bundle: CarrierBundle) -> float:
    """Smallest distance of any carrier score from the decoding midpoint."""
    if bundle.m == 0:
        raise ValueError("bundle must be nonempty")
    return float(read_key(carrier_scores(model_or_oracle, bundle))[1].min())


def score_drift(scores_a: np.ndarray, scores_b: np.ndarray) -> float:
    """gamma: the largest perception-score change between two carrier score vectors."""
    return float(np.abs(scores_a - scores_b).max())


def drift(model_or_oracle_a, model_or_oracle_b, bundle: CarrierBundle) -> float:
    """Worst-case perception-score change over the carriers.

    Accepts models or score oracles; two models must share an architecture.
    """
    if isinstance(model_or_oracle_a, Model) and isinstance(model_or_oracle_b, Model):
        check_same_arch(model_or_oracle_a, model_or_oracle_b)
    return score_drift(carrier_scores(model_or_oracle_a, bundle), carrier_scores(model_or_oracle_b, bundle))
