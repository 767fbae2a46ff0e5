"""Shared statistical primitives: the Kolmogorov survival function and the
Benjamini-Hochberg step-up procedure.

No special-function library is assumed; the Kolmogorov series is summed
directly until its terms vanish.
"""

from __future__ import annotations

import math

import numpy as np

_KOLMOGOROV_TERMS = 100


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
