"""Statistical calibration: verification thresholds, the false-positive and
false-negative bounds, the Monte Carlo null, and the imperceptibility
constants (the PL-constant fit and beta_max).

Attack reports carry beta_fn_bound at the owner's margin and the edit's
drift; it needs no fitted constant.

All exponential bounds use the natural logarithm. The Monte Carlo null is
counter-based (Philox keyed by the seed, one counter range per trial block),
so trial streams depend only on (seed, trial index) and partitions across
workers would sum identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CalibrationInfeasibleError,
    InsufficientCarriersError,
    InsufficientPairsError,
    NonpositiveInputError,
    NonpositiveSlopeError,
)

# Previously published threshold constants for the (m=128, alpha=1e-6,
# rho0=7.6e-4) operating point. The closed form below gives eps_err ~ 0.2327
# and tau = 99 for the same inputs; 0.2656 is approximately 34/128, which
# makes tau = 94 exact. Reports carry both sets of numbers side by side;
# the computed values are never silently replaced.
PAPER_COMPAT_REFERENCE = {
    "m": 128,
    "alpha": 1e-6,
    "rho0": 7.6e-4,
    "eps_err": 0.2656,
    "tau": 94,
}

_HUBER_DELTA = 1.0
_HUBER_ITERS = 100
_BOOTSTRAP_RESAMPLES = 1000
_TRIM_FRACTION = 0.05
_MC_CHUNK_TRIALS = 1 << 16


def mixing_penalty(rho0: float) -> float:
    """c = min(4 rho0, 1/2), by which carrier mixing weakens every Hoeffding exponent."""
    return min(4.0 * rho0, 0.5)


@dataclass(frozen=True)
class AuditThresholds:
    """Calibrated verification configuration for an m-bit key: the mixing
    penalty, eps_err and tau follow from (m, alpha, rho0) in closed form."""

    m: int
    alpha: float
    rho0: float
    c_rho: float = field(init=False)
    eps_err: float = field(init=False)
    tau: int = field(init=False)

    def __post_init__(self):
        eps_err = solve_eps_err(self.m, self.alpha, self.rho0)
        object.__setattr__(self, "c_rho", mixing_penalty(self.rho0))
        object.__setattr__(self, "eps_err", eps_err)
        object.__setattr__(self, "tau", tau_from_eps(self.m, eps_err))


def solve_eps_err(m: int, alpha: float, rho0: float) -> float:
    """Allowed bit-error fraction for a target false-positive rate.

    eps_err = sqrt(log(1/alpha) / (2 (1 - c) m)) with c = mixing_penalty(rho0).
    Values >= 0.5 would accept chance-level matching, so they raise.
    """
    if m < 1:
        raise InsufficientCarriersError("m must be >= 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if rho0 < 0.0:
        raise ValueError("rho0 must be >= 0")
    eps = math.sqrt(math.log(1.0 / alpha) / (2.0 * (1.0 - mixing_penalty(rho0)) * m))
    if eps >= 0.5:
        raise CalibrationInfeasibleError(
            f"eps_err = {eps:.4f} >= 0.5 at m={m}, alpha={alpha}: increase m or alpha"
        )
    return eps


def tau_from_eps(m: int, eps_err: float) -> int:
    """Match-count threshold: ceil(m (1 - eps_err))."""
    if not (0.0 < eps_err < 1.0):
        raise ValueError("eps_err must be in (0, 1)")
    return math.ceil(m * (1.0 - eps_err))


def alpha_bound(m: int, eps_err: float, rho0: float) -> float:
    """Mixing-weakened Hoeffding bound on the false-positive rate."""
    return math.exp(-2.0 * (1.0 - mixing_penalty(rho0)) * m * eps_err**2)


def beta_fn_bound(m: int, kappa: float, gamma: float, rho0: float) -> float:
    """Bound on the false-negative rate; 1 (no guarantee) when gamma >= kappa."""
    if gamma >= kappa:
        return 1.0
    return math.exp(-2.0 * (1.0 - mixing_penalty(rho0)) * m * (kappa - gamma) ** 2)


def calibrate_thresholds(m: int, alpha: float, rho0: float) -> AuditThresholds:
    """Closed-form threshold selection from the measured mixing estimate."""
    return AuditThresholds(m, alpha, rho0)


def monte_carlo_null(m: int, tau: int, trials: int, seed: int) -> float:
    """Measured false-positive rate under the Bernoulli(1/2) null.

    Each trial's m coin flips come from a fixed counter range of a Philox
    stream keyed by ``seed``, so the result is independent of evaluation
    order and partitioning. Runs in vectorized chunks with popcounts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m < 1 or m > 256:
        raise ValueError("m must be in [1, 256]")
    if tau <= 0:
        return 1.0
    if tau > m:
        return 0.0
    words_per_trial = (m + 63) // 64
    tail_bits = m - 64 * (words_per_trial - 1)
    tail_mask = np.uint64((1 << tail_bits) - 1) if tail_bits < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    hits = 0
    done = 0
    while done < trials:
        count = min(_MC_CHUNK_TRIALS, trials - done)
        words_needed = count * words_per_trial
        block_offset = (done * words_per_trial) // 4
        bitgen = np.random.Philox(key=seed, counter=[block_offset, 0, 0, 0])
        raw = bitgen.random_raw(((words_needed + 3) // 4) * 4)[:words_needed]
        words = raw.reshape(count, words_per_trial)
        words[:, -1] &= tail_mask
        t = np.bitwise_count(words).sum(axis=1)
        hits += int((t >= tau).sum())
        done += count
    return hits / trials


def _huber_slope_through_origin(x: np.ndarray, y: np.ndarray) -> float:
    denom = float((x * x).sum())
    if denom <= 0.0:
        raise NonpositiveSlopeError("no variation in the regressor")
    s = float((x * y).sum() / denom)
    for _ in range(_HUBER_ITERS):
        residual = y - s * x
        absr = np.abs(residual)
        weights = np.where(absr <= _HUBER_DELTA, 1.0, _HUBER_DELTA / np.maximum(absr, 1e-300))
        new_s = float((weights * x * y).sum() / max((weights * x * x).sum(), 1e-300))
        if abs(new_s - s) <= 1e-12 * max(1.0, abs(s)):
            s = new_s
            break
        s = new_s
    return s


def fit_pl_constant(pairs) -> float:
    """Conservative curvature constant from (gradient-norm^2, loss-gap) pairs.

    Trims the top 5% of gradient norms, fits gap = s * grad_sq through the
    origin with Huber loss (IRLS), bootstraps the slope 1000 times from one
    fixed stream, and returns 1 / (2 * s_upper) where s_upper is the
    95th-percentile slope.
    Using the upper slope bound makes the returned constant a lower
    (conservative) curvature estimate.
    """
    if len(pairs) < 10:
        raise InsufficientPairsError("need at least 10 pairs")
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    if np.any(y < 0.0):
        raise ValueError("loss gaps must be nonnegative")
    cutoff = np.quantile(x, 1.0 - _TRIM_FRACTION)
    keep = x <= cutoff
    x, y = x[keep], y[keep]
    if float(np.abs(y).max(initial=0.0)) <= 0.0:
        raise NonpositiveSlopeError("all loss gaps are zero")
    base = _huber_slope_through_origin(x, y)
    rng = np.random.default_rng([0, 0xB007])
    slopes = []
    for _ in range(_BOOTSTRAP_RESAMPLES):
        idx = rng.integers(0, len(x), size=len(x))
        try:
            slopes.append(_huber_slope_through_origin(x[idx], y[idx]))
        except NonpositiveSlopeError:
            continue
    if not slopes:
        raise NonpositiveSlopeError("bootstrap produced no usable slope")
    s_upper = float(np.quantile(slopes, 0.95))
    s_upper = max(s_upper, base)
    if s_upper <= 0.0:
        raise NonpositiveSlopeError(f"slope {s_upper} is not positive")
    return 1.0 / (2.0 * s_upper)


def beta_max(mu_pl: float, eps_task: float, l_s: float) -> float:
    """Largest watermark weight preserving the task loss: sqrt(2 mu eps) / L_s."""
    if mu_pl <= 0.0 or eps_task <= 0.0 or l_s <= 0.0:
        raise NonpositiveInputError("mu_pl, eps_task and l_s must be positive")
    return math.sqrt(2.0 * mu_pl * eps_task) / l_s


def calibration_report(m: int, alpha: float, rho0: float, paper_compat: bool = False) -> dict:
    """Threshold report: inputs, computed values, and optional reference deltas."""
    report: dict = {"inputs": {"m": m, "alpha": alpha, "rho0": rho0}}
    try:
        thresholds = calibrate_thresholds(m, alpha, rho0)
        report["computed"] = {
            "c_rho": thresholds.c_rho,
            "eps_err": thresholds.eps_err,
            "tau": thresholds.tau,
            "alpha_bound": alpha_bound(m, thresholds.eps_err, rho0),
        }
    except CalibrationInfeasibleError as exc:
        report["computed"] = {"infeasible": True, "reason": str(exc)}
    if paper_compat:
        ref = dict(PAPER_COMPAT_REFERENCE)
        block: dict = {"reference": ref}
        same_inputs = (
            m == ref["m"] and alpha == ref["alpha"] and abs(rho0 - ref["rho0"]) < 1e-12
        )
        block["inputs_match_reference"] = same_inputs
        if "eps_err" in report["computed"]:
            block["eps_err_delta"] = report["computed"]["eps_err"] - ref["eps_err"]
            block["tau_delta"] = report["computed"]["tau"] - ref["tau"]
            block["discrepancy"] = (
                abs(block["eps_err_delta"]) > 1e-4 or block["tau_delta"] != 0
            )
        report["paper_compat"] = block
    return report
