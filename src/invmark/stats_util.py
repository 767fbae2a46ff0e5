"""Shared statistical primitives: Kolmogorov survival, incomplete beta,
Student-t tails, Benjamini-Hochberg.

No special-function library is assumed; the regularized incomplete beta is
evaluated with the standard continued fraction (modified Lentz) and
quantiles are obtained by bisection.
"""

from __future__ import annotations

import math

import numpy as np

_KOLMOGOROV_TERMS = 100
_BETACF_ITERS = 300
_BETACF_EPS = 3e-14
_TINY = 1e-300


def kolmogorov_survival(lam: float) -> float:
    """Asymptotic Kolmogorov distribution survival Q(lam) = 2 sum (-1)^{j-1} e^{-2 j^2 lam^2}."""
    if lam < 1e-8:
        return 1.0
    total = 0.0
    for j in range(1, _KOLMOGOROV_TERMS + 1):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += term if j % 2 == 1 else -term
        if term < 1e-18:
            break
    return float(min(1.0, max(0.0, 2.0 * total)))


def _betacf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_ITERS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            break
    return h


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) via the continued fraction, symmetric split at the mean."""
    if not (a > 0 and b > 0):
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return float(min(1.0, max(0.0, front * _betacf(a, b, x) / a)))
    return float(min(1.0, max(0.0, 1.0 - front * _betacf(b, a, 1.0 - x) / b)))


def beta_quantile(q: float, a: float, b: float) -> float:
    """Quantile of Beta(a, b) by bisection on the regularized incomplete beta."""
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must be in [0, 1]")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(mid, a, b) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def benjamini_hochberg(p_values: np.ndarray, level: float) -> np.ndarray:
    """Boolean mask of hypotheses rejected by the BH step-up procedure."""
    p = np.asarray(p_values, dtype=float)
    s = len(p)
    if s == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(p, kind="stable")
    thresholds = level * (np.arange(1, s + 1) / s)
    passing = np.nonzero(p[order] <= thresholds)[0]
    mask = np.zeros(s, dtype=bool)
    if len(passing) > 0:
        cutoff = p[order[passing[-1]]]
        mask = p <= cutoff
    return mask
