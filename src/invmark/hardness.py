"""Exact watermark removal as a decision problem.

A separable monotone decoder thresholds nonnegative linear forms of the
parameter vector. Removal asks for a sparse, bounded-amplitude update that
flips every decoded bit; the module provides the certificate verifier, the
reduction from Hitting Set, and exact brute-force solvers for small
instances. The removal solver answers only where amplitude theta_min decides
the answer, which includes every reduced instance. Enumeration guards keep
runtime at desk scale; beyond them, and outside that domain, the solvers
refuse rather than approximate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, MalformedLineError, TooLargeError, UnsupportedInstanceError

BRUTE_FORCE_MAX_SETS = 20
# Largest universe size times set count (at least one) a parsed instance may
# declare: the reduction allocates one decoder weight per cell.
HITTING_SET_MAX_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class MonotoneDecoder:
    """Bits are 1[A theta >= b] with entrywise-nonnegative A."""

    weights: np.ndarray  # (m, d), nonnegative
    thresholds: np.ndarray  # (m,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.thresholds, dtype=float)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise DimMismatchError("weights must be (m, d) and thresholds (m,)")
        if np.any(w < 0.0):
            raise ValueError("decoder weights must be nonnegative")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "thresholds", b)

    @property
    def d(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class HittingSetInstance:
    """Universe [m], a family of subsets, and a budget B."""

    universe_size: int
    sets: tuple[frozenset[int], ...]
    budget: int

    def __post_init__(self):
        if self.universe_size < 0 or self.budget < 0:
            raise ValueError("universe size and budget must be nonnegative")
        canon = tuple(frozenset(s) for s in self.sets)
        object.__setattr__(self, "sets", canon)
        for s in canon:
            if not s:
                raise ValueError("sets must be nonempty")
            if any(not (0 <= u < self.universe_size) for u in s):
                raise ValueError("set element outside the universe")


@dataclass(frozen=True, eq=False)
class WmRemoveInstance:
    """Flip every decoded bit of theta_tilde under |J| <= budget and
    per-coordinate amplitude at least theta_min."""

    theta_tilde: np.ndarray
    decoder: MonotoneDecoder
    budget: int
    theta_min: float

    def __post_init__(self):
        theta = np.asarray(self.theta_tilde, dtype=float)
        if theta.ndim != 1 or theta.shape[0] != self.decoder.d:
            raise DimMismatchError("theta_tilde must match the decoder dimension")
        if self.theta_min <= 0.0:
            raise ValueError("theta_min must be positive")
        theta.setflags(write=False)
        object.__setattr__(self, "theta_tilde", theta)


def decode_bits(dec: MonotoneDecoder, theta: np.ndarray) -> np.ndarray:
    """Thresholded linear forms; monotone because the weights are nonnegative."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dec.d,):
        raise DimMismatchError(f"theta has shape {theta.shape}, decoder wants ({dec.d},)")
    return (dec.weights @ theta >= dec.thresholds).astype(int)


def verify_certificate(inst: WmRemoveInstance, support, delta) -> bool:
    """Polynomial-time check of a removal certificate.

    Accepts iff the support has size at most the budget, delta is supported
    exactly there with amplitudes at least theta_min, and every decoded bit
    of theta_tilde + delta differs from the baseline. Malformed certificates
    return False. Runs in O(m d).
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (inst.decoder.d,):
        return False
    support_set = set(int(j) for j in support)
    if len(support_set) > inst.budget:
        return False
    if any(not (0 <= j < inst.decoder.d) for j in support_set):
        return False
    for j in range(inst.decoder.d):
        if j in support_set:
            if abs(delta[j]) < inst.theta_min:
                return False
        elif delta[j] != 0.0:
            return False
    before = decode_bits(inst.decoder, inst.theta_tilde)
    after = decode_bits(inst.decoder, inst.theta_tilde + delta)
    return bool(np.all(after == 1 - before))


def reduce_hitting_set(hs: HittingSetInstance, theta_min: float) -> WmRemoveInstance:
    """Map sets to coordinates and elements to bits: a_kj = 1[u_k in C_j],
    thresholds theta_min / 2, base point zero. Polynomial size O(m q)."""
    if theta_min <= 0.0:
        raise ValueError("theta_min must be positive")
    m = hs.universe_size
    q = len(hs.sets)
    weights = np.zeros((m, q))
    for j, subset in enumerate(hs.sets):
        for u in subset:
            weights[u, j] = 1.0
    decoder = MonotoneDecoder(weights=weights, thresholds=np.full(m, theta_min / 2.0))
    return WmRemoveInstance(
        theta_tilde=np.zeros(q), decoder=decoder, budget=hs.budget, theta_min=theta_min
    )


def _smallest_subset(n: int, max_size: int, accept) -> tuple[int, ...] | None:
    """The first subset of range(n) with at most ``max_size`` elements that
    ``accept`` takes, by increasing size and then lexicographically; None if
    no such subset is taken."""
    for k in range(max_size + 1):
        for combo in itertools.combinations(range(n), k):
            if accept(combo):
                return combo
    return None


def brute_force_hitting_set(hs: HittingSetInstance) -> int | None:
    """Smallest number of sets covering every universe element, None if infeasible.

    (Each element u must be "hit" by some chosen set containing it; choosing
    sets is what maps to choosing parameter coordinates in the reduction.)
    Exact enumeration in increasing cardinality.
    """
    q = len(hs.sets)
    if q > BRUTE_FORCE_MAX_SETS:
        raise TooLargeError(f"more than {BRUTE_FORCE_MAX_SETS} sets")
    universe = frozenset(range(hs.universe_size))
    cover = _smallest_subset(q, q, lambda combo: frozenset().union(*(hs.sets[j] for j in combo)) >= universe)
    return None if cover is None else len(cover)


def find_certificate(inst: WmRemoveInstance) -> tuple[list[int], np.ndarray] | None:
    """A removal certificate (support, delta) of smallest support, or None.

    Supports are tried in increasing size up to the budget, with amplitude
    theta_min on every chosen coordinate. That is exact on the solver's
    domain, where every baseline bit is 0 and every row k with a positive
    weight satisfies a_k . theta_tilde + theta_min * min{a_kj > 0} >= b_k:
    there a support removes the mark iff it hits every row, whatever the
    amplitudes. Every reduced Hitting-Set instance lies in it; any other
    instance raises UnsupportedInstanceError, and a dimension above
    BRUTE_FORCE_MAX_SETS raises TooLargeError.
    """
    dec, d = inst.decoder, inst.decoder.d
    if d > BRUTE_FORCE_MAX_SETS:
        raise TooLargeError(f"dimension above {BRUTE_FORCE_MAX_SETS}")
    if decode_bits(dec, inst.theta_tilde).any():
        raise UnsupportedInstanceError("the removal solver needs every baseline bit to be 0")
    smallest = np.where(dec.weights > 0.0, dec.weights, np.inf).min(axis=1, initial=np.inf)
    rows = np.isfinite(smallest)
    if np.any(dec.weights[rows] @ inst.theta_tilde + inst.theta_min * smallest[rows] < dec.thresholds[rows]):
        raise UnsupportedInstanceError("amplitude theta_min does not flip every row one coordinate hits")

    def raised(combo) -> np.ndarray:
        delta = np.zeros(d)
        delta[list(combo)] = inst.theta_min
        return delta

    def flips_every_bit(combo) -> bool:
        return bool(decode_bits(dec, inst.theta_tilde + raised(combo)).all())

    support = _smallest_subset(d, min(inst.budget, d), flips_every_bit)
    return None if support is None else (list(support), raised(support))


def brute_force_wm_remove(inst: WmRemoveInstance) -> bool:
    """Exact decision: does any certificate flip every decoded bit?"""
    return find_certificate(inst) is not None


# --- text format -------------------------------------------------------------------


def parse_hitting_set(text: str, path: str = "<string>") -> HittingSetInstance:
    lines = text.splitlines()
    parts = lines[0].split() if lines else []
    if len(parts) != 5 or parts[:2] != ["p", "hs"]:
        raise MalformedLineError(path, 1, "expected header `p hs m q B`")
    try:
        m, q, budget = int(parts[2]), int(parts[3]), int(parts[4])
    except ValueError as exc:
        raise MalformedLineError(path, 1, "non-integer header fields") from exc
    if min(m, q, budget) < 0:
        raise MalformedLineError(path, 1, "negative header fields")
    if m * max(q, 1) > HITTING_SET_MAX_CELLS:
        raise MalformedLineError(path, 1, f"{m} elements by {q} sets exceeds {HITTING_SET_MAX_CELLS} cells")
    sets = []
    for i, line in enumerate(lines[1 : 1 + q], start=2):
        try:
            elems = frozenset(int(x) for x in line.split())
        except ValueError as exc:
            raise MalformedLineError(path, i, "non-integer set element") from exc
        if not elems:
            raise MalformedLineError(path, i, "empty set")
        if any(not (0 <= u < m) for u in elems):
            raise MalformedLineError(path, i, f"set element outside [0, {m})")
        sets.append(elems)
    if len(sets) != q:
        raise MalformedLineError(path, len(lines), f"expected {q} set lines")
    return HittingSetInstance(universe_size=m, sets=tuple(sets), budget=budget)


def wm_remove_to_dict(inst: WmRemoveInstance) -> dict:
    return {
        "theta_tilde": [float(x) for x in inst.theta_tilde],
        "weights": [[float(x) for x in row] for row in inst.decoder.weights],
        "thresholds": [float(x) for x in inst.decoder.thresholds],
        "budget": inst.budget,
        "theta_min": inst.theta_min,
    }
