"""Owner-private carrier generation and the induced secret key.

Carriers are degree-preserving rewirings of task graphs. A seed graph is
rewired only if its degrees pass a KS similarity test, which its rewirings
would repeat; each rewiring is gated by a structural out-of-support check
(WL hash non-collision) and a KS test on local clustering.
The normalized algebraic connectivity of each accepted carrier induces one
key bit, by the same ``read_key`` rule that reads a suspect's scores.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptySampleError,
    InsufficientCarriersError,
    MalformedDocumentError,
    ProtocolExhaustedError,
)
from .graphs import (
    Graph,
    NormalizationConstants,
    fit_normalization,
    graph_statistics,
    hash_set_digest,
    lambda2,
    local_clustering,
    normalize_lambda2_value,
    wl_hash,
)
from .nn.model import GraphBatch, keep_freed_pages
from .reports import check_json, field_kinds
from .stats_util import benjamini_hochberg, kolmogorov_survival

# Swap proposals per requested swap before giving up (best effort).
_SWAP_RETRY_FACTOR = 100
# Seed graphs tried per carrier slot before declaring the protocol exhausted.
_SEED_ATTEMPTS_PER_CARRIER = 64
# Swap counts tried in turn on one seed graph: 5, 10, ..., 50.
SWAP_SCHEDULE = tuple(range(5, 51, 5))
# Both KS similarity gates pass a candidate at p >= KS_DELTA.
KS_DELTA = 0.1
# Carriers are no larger than this percentile of task node counts.
SIZE_PERCENTILE = 25.0
# Dead zone around the decoding midpoint: carriers whose normalized invariant
# lands within TARGET_MARGIN of 1/2 are resampled. Keeping targets away from
# 1/2 is what gives the trained model a usable robustness margin; published
# operating points with margins near 0.38 presuppose exactly this separation.
TARGET_MARGIN = 0.15
# Reference pools for the KS gates come from this many eligible graphs
# closest to the seed in mean degree (the seed's density stratum).
_REFERENCE_POOL_SIZE = 20
# BH significance level for the cross-carrier correlation screen.
_BH_LEVEL = 0.05
# Lag correlations need at least this many pairs, and only lags up to
# _MAX_LAG are tested: mixing is near-diagonal sequence dependence, and
# long lags leave so few pairs that they only add noise to the maximum.
_MIN_LAG_SAMPLES = 8
_MAX_LAG = 32
# Permutations calibrating each statistic's max-over-lags correlation.
_RHO_PERMUTATIONS = 1999
# Largest size cap a bundle may record. Carriers are small: spectrum's dense
# eigensolve and the O(n^2) statistics assume n of at most a few hundred, and
# WL refinement still needs about n/2 rounds on a path. The cap is read from
# the bundle file itself, so without this ceiling a hostile bundle with
# thousand-node carriers would stall a load.
MAX_SIZE_CAP = 512


def read_key(values) -> tuple[np.ndarray, np.ndarray]:
    """The one readout of carrier values: each value's bit and its margin.

    The bit is 1 where a value is >= 1/2, else 0, so the midpoint itself
    reads as 1; the margin is the value's distance from 1/2, and a change
    smaller than it keeps the bit. Key bits are the targets' bits, and a
    suspect's bits those of its carrier scores.
    """
    values = np.asarray(values, dtype=float)
    return (values >= 0.5).astype(int), np.abs(values - 0.5)


@dataclass(frozen=True)
class ProtocolParams:
    """The carrier protocol's one setting: the seed of every carrier's RNG stream."""

    rng_seed: int


@dataclass(frozen=True, eq=False)
class CarrierBundle:
    """Secret key material: carriers, targets, bits, and frozen constants."""

    carriers: tuple[Graph, ...]
    targets: np.ndarray
    key_bits: np.ndarray
    norm_constants: NormalizationConstants
    protocol: ProtocolParams
    train_hash_set_digest: str
    size_cap: float

    def __post_init__(self):
        targets = np.asarray(self.targets, dtype=float)
        bits = np.asarray(self.key_bits, dtype=int)
        targets.setflags(write=False)
        bits.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "key_bits", bits)
        if not (len(self.carriers) == len(targets) == len(bits)):
            raise ValueError("carriers, targets and key_bits must align")
        if not np.array_equal(bits, read_key(targets)[0]):
            raise ValueError("key_bits must equal 1[target >= 0.5]")
        if any(g.node_count > self.size_cap for g in self.carriers):
            raise ValueError("carrier exceeds the recorded size cap")
        hashes = [wl_hash(g) for g in self.carriers]
        if len(set(hashes)) != len(hashes):
            raise ValueError("carrier WL hashes must be pairwise distinct")

    @property
    def m(self) -> int:
        return len(self.carriers)

    @cached_property
    def carrier_batch(self) -> GraphBatch:
        """The carriers as one padded batch, built on first scoring."""
        return GraphBatch(self.carriers)


BUNDLE_SCHEMA_VERSION = 3


def bundle_to_dict(bundle: CarrierBundle) -> dict:
    """Versioned JSON document for the bundle. This is the secret key
    material; it must only ever be written to files, never echoed."""
    return {
        "version": BUNDLE_SCHEMA_VERSION,
        "params": asdict(bundle.protocol),
        "norm_constants": asdict(bundle.norm_constants),
        "carriers": [
            {"n": g.node_count, "edges": [[u, v] for u, v in g.edges]} for g in bundle.carriers
        ],
        "targets": [float(t) for t in bundle.targets],
        "key_bits": [int(b) for b in bundle.key_bits],
        "train_hash_set_digest": bundle.train_hash_set_digest,
        "size_cap": bundle.size_cap,
    }


_BUNDLE_SCHEMA = {
    "version": int,
    "params": field_kinds(ProtocolParams),
    "norm_constants": field_kinds(NormalizationConstants),
    "carriers": [{"n": int, "edges": [[int]]}],
    "targets": [float],
    "key_bits": [int],
    "train_hash_set_digest": str,
    "size_cap": float,
}


def bundle_from_dict(doc: dict) -> CarrierBundle:
    """The bundle a document describes. A malformed or inconsistent document,
    a target outside [0, 1] included, raises MalformedDocumentError.

    The size cap and the carriers' node counts are checked before any graph
    is built or hashed, so an oversized bundle is refused at once."""
    # The version comes first: another version's fields do not fit this schema.
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is int and version != BUNDLE_SCHEMA_VERSION:
        raise MalformedDocumentError(f"unsupported bundle version {version}")
    check_json(doc, _BUNDLE_SCHEMA, "bundle", MalformedDocumentError)
    if not doc["carriers"]:
        raise MalformedDocumentError("bundle.carriers is empty")
    if doc["size_cap"] > MAX_SIZE_CAP:
        raise MalformedDocumentError(f"bundle.size_cap exceeds the ceiling of {MAX_SIZE_CAP} nodes")
    if any(rec["n"] > doc["size_cap"] for rec in doc["carriers"]):
        raise MalformedDocumentError("bundle.carriers holds a graph above the recorded size cap")
    targets = np.array(doc["targets"], dtype=float)
    if np.any((targets < 0.0) | (targets > 1.0)):
        raise MalformedDocumentError("bundle.targets must lie in [0, 1]")
    try:
        carriers = tuple(Graph(rec["n"], tuple(map(tuple, rec["edges"]))) for rec in doc["carriers"])
    except ValueError as exc:  # its message would name an edge of a secret carrier
        raise MalformedDocumentError("bundle.carriers holds a graph that is not simple on n nodes") from exc
    try:
        return CarrierBundle(
            carriers=carriers,
            targets=targets,
            key_bits=np.array(doc["key_bits"], dtype=int),
            norm_constants=NormalizationConstants(**doc["norm_constants"]),
            protocol=ProtocolParams(**doc["params"]),
            train_hash_set_digest=doc["train_hash_set_digest"],
            size_cap=float(doc["size_cap"]),
        )
    except (ValueError, OverflowError) as exc:
        raise MalformedDocumentError(f"bundle: {exc}") from exc


def double_edge_swap(g: Graph, swaps: int, rng: np.random.Generator) -> Graph:
    """Degree-preserving rewiring by repeated double-edge swaps.

    Each accepted swap replaces edges (a,b),(c,d) with (a,d),(c,b).
    Proposals creating self-loops or duplicate edges are rejected; after
    100 proposals per requested swap the best-effort result is returned
    (some graphs, e.g. stars, admit no swap at all). Node features are
    dropped when swaps are attempted: structure-derived features of the
    seed do not describe the rewired graph, and scoring recomputes them.
    """
    if swaps == 0:
        return Graph(g.node_count, g.edges, g.node_features)
    if g.edge_count < 2:
        raise ValueError("need at least 2 edges to swap")
    edges = list(g.edges)
    edge_set = set(edges)
    done = 0
    budget = _SWAP_RETRY_FACTOR * max(1, swaps)
    while done < swaps and budget > 0:
        budget -= 1
        i = rng.integers(0, len(edges))
        j = rng.integers(0, len(edges))
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if rng.random() < 0.5:
            a, b = b, a
        if rng.random() < 0.5:
            c, d = d, c
        e1 = (min(a, d), max(a, d))
        e2 = (min(c, b), max(c, b))
        if a == d or c == b or e1 == e2 or e1 in edge_set or e2 in edge_set:
            continue
        edge_set.remove(edges[i])
        edge_set.remove(edges[j])
        edge_set.add(e1)
        edge_set.add(e2)
        for idx, new in ((i, e1), (j, e2)):
            edges[idx] = new
        done += 1
    return Graph(g.node_count, tuple(edges))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the supremum gap between the empirical CDFs; the p-value evaluates
    the Kolmogorov survival function at sqrt(n_a n_b / (n_a + n_b)) * D.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise EmptySampleError("both samples must be nonempty")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / len(a)
    cdf_b = np.searchsorted(b, everything, side="right") / len(b)
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = len(a) * len(b) / (len(a) + len(b))
    p = kolmogorov_survival(math.sqrt(n_eff) * d)
    return d, p


def sample_carrier(
    seed_graph: Graph, taken: set[str], ref_clustering, rng: np.random.Generator
) -> tuple[Graph, str] | None:
    """One carrier attempt: escalate swap counts until both gates pass.

    Returns the first rewiring whose WL hash is not in ``taken`` (the task
    support and the carriers accepted so far) and whose local clustering
    sample passes the KS similarity gate at p >= KS_DELTA, with its hash.
    A rewiring keeps its seed's degrees, so the degree gate is the caller's,
    run once on the seed. Returns None (rejected) when the swap cap is
    exhausted; the caller resamples a new seed graph.
    """
    for swaps in SWAP_SCHEDULE:
        candidate = double_edge_swap(seed_graph, swaps, rng)
        digest = wl_hash(candidate)
        if digest not in taken and ks_two_sample(local_clustering(candidate), ref_clustering)[1] >= KS_DELTA:
            return candidate, digest
    return None


def build_bundle(task_graphs: list[Graph], m: int, p: ProtocolParams) -> CarrierBundle:
    """Generate m carriers and the induced key; deterministic given p.rng_seed.

    Normalization constants are fit on the task graphs and frozen. Carrier
    size is capped at the 25th percentile (SIZE_PERCENTILE) of task node
    counts; seed graphs are drawn with replacement from the graphs under the
    cap, and each carrier slot derives its own RNG stream from
    (rng_seed, slot index). A drawn seed whose degrees fail the KS gate is
    skipped before any swap. Reference pools for the KS gates are the pooled
    degrees and local clustering values of the seed's density stratum: the
    20 eligible graphs closest to it in mean degree. Stratifying keeps the
    similarity gates meaningful when the task mixes structurally distinct
    graph families. The first call pins the process's malloc thresholds
    (keep_freed_pages).
    """
    if m < 1:
        raise InsufficientCarriersError("m must be >= 1")
    keep_freed_pages()
    size_cap = float(np.percentile([g.node_count for g in task_graphs], SIZE_PERCENTILE))
    if size_cap > MAX_SIZE_CAP:
        raise ProtocolExhaustedError(f"size cap {size_cap:g} exceeds the ceiling of {MAX_SIZE_CAP} nodes")
    consts = fit_normalization(task_graphs)
    eligible = [g for g in task_graphs if g.node_count <= size_cap and g.edge_count >= 2]
    if not eligible:
        raise ProtocolExhaustedError("no seed graphs under the size cap")
    taken = {wl_hash(g) for g in task_graphs}  # the task support, then each accepted carrier
    train_digest = hash_set_digest(taken)
    degrees = [g.degrees().astype(float) for g in eligible]
    clustering = [local_clustering(g) for g in eligible]
    mean_degrees = np.array([d.mean() for d in degrees])
    pool_size = min(len(eligible), _REFERENCE_POOL_SIZE)

    def _reference_pools(seed_idx: int) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(np.abs(mean_degrees - mean_degrees[seed_idx]), kind="stable")
        stratum = order[:pool_size]
        return np.concatenate([degrees[i] for i in stratum]), np.concatenate([clustering[i] for i in stratum])

    carriers: list[Graph] = []
    targets_list: list[float] = []
    for k in range(m):
        rng = np.random.default_rng([p.rng_seed, k])
        for _ in range(_SEED_ATTEMPTS_PER_CARRIER):
            seed_idx = int(rng.integers(0, len(eligible)))
            ref_degrees, ref_clustering = _reference_pools(seed_idx)
            if ks_two_sample(degrees[seed_idx], ref_degrees)[1] < KS_DELTA:
                continue
            drawn = sample_carrier(eligible[seed_idx], taken, ref_clustering, rng)
            if drawn is None:
                continue
            carrier, digest = drawn
            target = normalize_lambda2_value(lambda2(carrier), consts)
            if read_key(target)[1] >= TARGET_MARGIN:
                break
        else:
            raise ProtocolExhaustedError(
                f"carrier {k}: no acceptance after {_SEED_ATTEMPTS_PER_CARRIER} seeds"
            )
        carriers.append(carrier)
        targets_list.append(target)
        taken.add(digest)

    targets = np.array(targets_list)
    return CarrierBundle(
        carriers=tuple(carriers),
        targets=targets,
        key_bits=read_key(targets)[0],
        norm_constants=consts,
        protocol=p,
        train_hash_set_digest=train_digest,
        size_cap=size_cap,
    )


def _max_lag_abs_corr(rows: np.ndarray) -> np.ndarray:
    """Row-wise max over lags of |Pearson autocorrelation|.

    ``rows`` is (r, m); lags leaving fewer than _MIN_LAG_SAMPLES pairs are
    skipped, and window pairs where either side is constant contribute 0.
    Each row is centred once, by its median; per-window sums and sums of
    squares come from cumulative sums, so a lag costs one product-sum. When a
    window holds more than half the row (every lag once m > 64), the median
    lies within the window's range, so the differences of sums lose little
    precision even beside a far outlier, where the row mean would not. A
    window is constant when no neighbouring pair inside it differs, counted
    exactly in integers.
    """
    r, m = rows.shape
    best = np.zeros(r)
    xs = rows - np.median(rows, axis=1, keepdims=True)
    s1 = np.zeros((r, m + 1))
    s2 = np.zeros((r, m + 1))
    np.cumsum(xs, axis=1, out=s1[:, 1:])
    np.cumsum(xs * xs, axis=1, out=s2[:, 1:])
    # changes[:, k]: neighbouring pairs (i, i + 1) with i < k that differ
    changes = np.zeros((r, m), dtype=np.int64)
    np.cumsum(rows[:, 1:] != rows[:, :-1], axis=1, out=changes[:, 1:])
    for lag in range(1, min(m - _MIN_LAG_SAMPLES, _MAX_LAG) + 1):
        n = m - lag
        sx, sy = s1[:, n], s1[:, m] - s1[:, lag]
        vx = s2[:, n] - sx * sx / n
        vy = s2[:, m] - s2[:, lag] - sy * sy / n
        cov = np.einsum("ij,ij->i", xs[:, :n], xs[:, lag:]) - sx * sy / n
        denom = np.sqrt(np.maximum(vx, 0.0) * np.maximum(vy, 0.0))
        ok = (changes[:, n - 1] > 0) & (changes[:, m - 1] > changes[:, lag]) & (denom > 1e-12)
        corr = np.zeros(r)
        corr[ok] = np.abs(cov[ok] / denom[ok])
        best = np.maximum(best, corr)
    return best


def estimate_rho0(bundle: CarrierBundle) -> float:
    """Empirical mixing coefficient: largest significant cross-carrier correlation.

    For every statistic of graph_statistics, the carrier sequence is
    autocorrelated at lags 1..32 (lags must leave at least 8 pairs), and the
    max |correlation| over lags is calibrated against 1999 seeded
    permutations of the same column (valid for arbitrary marginals,
    including heavily tied ones). The per-statistic permutation p-values are
    BH-corrected at level 0.05 and the estimate is the largest |correlation|
    among survivors, 0 when nothing survives.
    Constant (zero-variance) statistics are skipped. Deterministic: the
    permutation streams are fixed by the statistic index.
    """
    m = bundle.m
    if m < 3:
        raise InsufficientCarriersError("need at least 3 carriers")
    stats = np.stack([graph_statistics(g) for g in bundle.carriers], axis=0)

    best_corr: list[float] = []
    best_p: list[float] = []
    for col_idx, col in enumerate(stats.T):
        if np.std(col) < 1e-12:
            continue
        observed = float(_max_lag_abs_corr(col.reshape(1, -1))[0])
        if observed <= 0.0:
            continue
        rng = np.random.default_rng([0x5EED, col_idx])
        perms = rng.permuted(np.tile(col, (_RHO_PERMUTATIONS, 1)), axis=1)
        perm_max = _max_lag_abs_corr(perms)
        exceed = int(np.sum(perm_max >= observed - 1e-12))
        best_corr.append(observed)
        best_p.append((1 + exceed) / (_RHO_PERMUTATIONS + 1))

    if not best_corr:
        return 0.0
    survivors = benjamini_hochberg(np.array(best_p), _BH_LEVEL)
    if not survivors.any():
        return 0.0
    return float(np.max(np.asarray(best_corr)[survivors]))
