"""Graph container, Laplacian spectrum, invariant statistics, and WL hashing.

Everything here is a pure function of its inputs; graphs are immutable once
constructed, so all routines are safe to call concurrently.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateScaleError,
    InsufficientDataError,
    NumericalFailureError,
)

# Number of slots in the fixed statistics vector (see graph_statistics).
STAT_DIM = 37

# Below this many lambda_2 samples the 5th/95th percentiles are dominated by
# interpolation against the extremes, so fit_normalization falls back to
# plain min-max scaling.
_PERCENTILE_MIN_SAMPLES = 20

# Diagonal shift added to the Laplacian before its eigensolve, for stability,
# and subtracted back from the eigenvalues.
_DIAG_EPS = 1e-6


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with optional node features.

    ``edges`` is stored as a sorted tuple of (u, v) pairs with u < v. No
    self-loops, no duplicates, all indices in [0, node_count).
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    node_features: np.ndarray | None = None

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        canon = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            canon.append((u, v) if u < v else (v, u))
        canon_t = tuple(sorted(canon))
        if len(set(canon_t)) != len(canon_t):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", canon_t)
        if self.node_features is not None:
            feats = np.asarray(self.node_features, dtype=float)
            if feats.ndim != 2 or feats.shape[0] != self.node_count:
                raise ValueError("node_features must be (node_count, d_f)")
            feats.setflags(write=False)
            object.__setattr__(self, "node_features", feats)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.node_count, dtype=int)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def neighbors(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return [sorted(ns) for ns in nbrs]

    def with_features(self, feats: np.ndarray) -> "Graph":
        return Graph(self.node_count, self.edges, feats)

    def cached(self, key, compute) -> np.ndarray:
        """``compute(self)``, computed on first use for ``key`` and kept.

        The graph is immutable, so an array derived from it stays valid for
        its lifetime; the kept array is read-only.
        """
        cache = self.__dict__.setdefault("_derived", {})
        if key not in cache:
            value = compute(self)
            value.setflags(write=False)
            cache[key] = value
        return cache[key]


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Laplacian eigenvalues sorted ascending, plus the Fiedler value."""

    eigenvalues: np.ndarray
    lambda2: float


@dataclass(frozen=True)
class NormalizationConstants:
    """Frozen affine scaling for lambda_2; immutable for a watermark's life."""

    lambda_min: float
    lambda_scale: float


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian: degree matrix minus adjacency."""
    a = g.adjacency()
    return np.diag(a.sum(axis=1)) - a


def spectrum(g: Graph) -> SpectrumResult:
    """Full symmetric eigensolve of the Laplacian, shifted by _DIAG_EPS.

    Carriers are small (n at most a few hundred; a bundle's size cap may not
    exceed ``carriers.MAX_SIZE_CAP`` = 512), so a dense O(n^3) solve is
    appropriate.
    """
    lap = laplacian(g) + _DIAG_EPS * np.eye(g.node_count)
    try:
        vals = np.linalg.eigvalsh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolve failed: {exc}") from exc
    vals = np.sort(vals) - _DIAG_EPS
    lam2 = float(vals[1]) if g.node_count >= 2 else 0.0
    return SpectrumResult(eigenvalues=vals, lambda2=lam2)


def lambda2(g: Graph) -> float:
    """Algebraic connectivity (second-smallest Laplacian eigenvalue)."""
    return spectrum(g).lambda2


def normalize_lambda2_value(lam2: float, c: NormalizationConstants) -> float:
    """Affinely rescaled lambda_2, clamped to [0, 1]."""
    span = c.lambda_scale - c.lambda_min
    if span <= 0:
        raise DegenerateScaleError(
            f"lambda_scale ({c.lambda_scale}) must exceed lambda_min ({c.lambda_min})"
        )
    return float(min(1.0, max(0.0, (lam2 - c.lambda_min) / span)))


def fit_normalization_values(values: list[float]) -> NormalizationConstants:
    """Fit scaling constants from a pool of lambda_2 values.

    Uses the empirical 5th and 95th percentiles (linear interpolation between
    order statistics). With fewer than 20 samples, or when the percentile gap
    collapses below 1e-9, falls back to min-max scaling.
    """
    if len(values) < 2:
        raise InsufficientDataError("need at least 2 lambda_2 values")
    arr = np.asarray(values, dtype=float)
    lo = float(np.percentile(arr, 5.0, method="linear"))
    hi = float(np.percentile(arr, 95.0, method="linear"))
    if len(values) < _PERCENTILE_MIN_SAMPLES or hi - lo < 1e-9:
        lo = float(arr.min())
        hi = float(arr.max())
    if hi - lo <= 0:
        raise DegenerateScaleError("all lambda_2 values identical")
    return NormalizationConstants(lambda_min=lo, lambda_scale=hi)


def fit_normalization(graphs: list[Graph]) -> NormalizationConstants:
    """Fit scaling constants from a pool of graphs (see fit_normalization_values)."""
    if len(graphs) < 2:
        raise InsufficientDataError("need at least 2 graphs")
    return fit_normalization_values([lambda2(g) for g in graphs])


# --- Weisfeiler-Lehman hashing ------------------------------------------------


def wl_hash(g: Graph) -> str:
    """Weisfeiler-Lehman graph digest (16 hex chars), by colour refinement.

    Colours start as node degrees (features are ignored: the carrier
    out-of-support check is structural). Each round a node's signature is its
    colour with the sorted colours of its neighbours, and the signatures are
    relabelled canonically: each distinct signature's rank becomes its new
    colour. The digest hashes n and every round's sorted table of
    (signature, count), so it is invariant under node permutation and two
    graphs share it exactly when refinement cannot tell them apart (the
    compressed-label WL of Shervashidze et al., JMLR 2011). Each partition
    refines the last, so refinement stops after the first round that adds
    no colour class: the partition is then stable, and later rounds would
    only repeat its table.
    """
    nbrs = g.neighbors()
    colours = [len(ns) for ns in nbrs]
    classes = len(set(colours))
    h = hashlib.blake2b(str(g.node_count).encode(), digest_size=8)
    while True:
        sigs = [(colours[v], tuple(sorted(colours[u] for u in ns))) for v, ns in enumerate(nbrs)]
        table = sorted(Counter(sigs).items())
        h.update(repr(table).encode())
        rank = {sig: i for i, (sig, _) in enumerate(table)}
        colours = [rank[sig] for sig in sigs]
        if len(table) == classes:
            return h.hexdigest()
        classes = len(table)


def hash_set_digest(hashes: set[str] | list[str]) -> str:
    """Order-independent digest of a set of WL hashes (16 hex chars)."""
    return hashlib.blake2b("|".join(sorted(hashes)).encode(), digest_size=8).hexdigest()


# --- Fixed-width statistics vector --------------------------------------------

# Slot layout of graph_statistics (indices into the 37-vector):
#   0      node count n
#   1      edge count
#   2-9    moments 1..8 of the normalized degree d/(n-1)
#   10-25  degree histogram: fraction of nodes with d/(n-1) in ((k)/16, (k+1)/16]
#          (left-open buckets, so isolated nodes register nowhere)
#   26     global clustering (transitivity)
#   27     mean local clustering over all nodes (degree < 2 counts as 0)
#   28     degree assortativity (0 when undefined, e.g. regular graphs)
#   29     triangle count / C(n, 3)
#   30-35  4-node subgraph counts / C(n, 4): path P4, star K1,3, cycle C4,
#          paw (triangle + pendant), diamond (K4 minus an edge), clique K4
#   36     lambda_2
SLOT_N = 0
SLOT_EDGES = 1
SLOT_MOMENTS = slice(2, 10)
SLOT_HIST = slice(10, 26)
SLOT_TRANSITIVITY = 26
SLOT_LOCAL_CLUSTERING = 27
SLOT_ASSORTATIVITY = 28
SLOT_TRIANGLES = 29
SLOT_MOTIFS = slice(30, 36)
SLOT_LAMBDA2 = 36


def local_clustering(g: Graph) -> np.ndarray:
    """Per-node clustering coefficient; 0 for nodes of degree < 2."""
    a = g.adjacency()
    deg = a.sum(axis=1)
    tri = np.diag(a @ a @ a) / 2.0
    out = np.zeros(g.node_count)
    mask = deg >= 2
    pairs = deg * (deg - 1) / 2.0
    out[mask] = tri[mask] / pairs[mask]
    return out


def _assortativity(a: np.ndarray, deg: np.ndarray) -> float:
    us, vs = np.nonzero(np.triu(a))
    if len(us) == 0:
        return 0.0
    x = np.concatenate([deg[us], deg[vs]])
    y = np.concatenate([deg[vs], deg[us]])
    sx = x.std()
    sy = y.std()
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def _motif_counts(a: np.ndarray, deg: np.ndarray) -> tuple[float, ...]:
    """Non-induced 4-node subgraph counts via closed forms.

    Returns (P4 paths, claws, 4-cycles, paws, diamonds, K4s). All formulas
    count subgraphs, not induced subgraphs.
    """
    a2 = a @ a
    a3 = a2 @ a
    tri_per_node = np.diag(a3) / 2.0
    n_tri = tri_per_node.sum() / 3.0
    m_edges = deg.sum() / 2.0
    us, vs = np.nonzero(np.triu(a))
    # P4: paths on 4 nodes = sum over edges (du-1)(dv-1) minus 3 per triangle
    p4 = float(((deg[us] - 1) * (deg[vs] - 1)).sum() - 3.0 * n_tri)
    claw = float(np.sum(deg * (deg - 1) * (deg - 2) / 6.0))
    c4 = float((np.trace(a3 @ a) - 2.0 * m_edges - 2.0 * np.sum(deg * (deg - 1))) / 8.0)
    paw = float(np.sum(tri_per_node * (deg - 2)))
    codeg = a2[us, vs]
    diamond = float(np.sum(codeg * (codeg - 1) / 2.0))
    k4 = 0.0
    for u, v in zip(us, vs):
        common = a[u] * a[v]
        k4 += float(common @ a @ common) / 2.0
    k4 /= 6.0
    return (p4, claw, c4, paw, diamond, k4)


def graph_statistics(g: Graph) -> np.ndarray:
    """Deterministic 37-dimensional statistics vector (layout documented above).

    Statistics that are undefined on degenerate graphs (assortativity on
    regular graphs, clustering without wedges) are set to 0 so downstream
    correlation estimates never see non-finite values.
    """
    out = np.zeros(STAT_DIM)
    n = g.node_count
    a = g.adjacency()
    deg = a.sum(axis=1)
    out[SLOT_N] = float(n)
    out[SLOT_EDGES] = float(g.edge_count)
    if n >= 2:
        nd = deg / (n - 1)
        out[SLOT_MOMENTS] = [float((nd**k).mean()) for k in range(1, 9)]
        edges_bucket = np.ceil(nd * 16).astype(int)  # 0 stays bucket 0 = nowhere
        for k in range(1, 17):
            out[10 + k - 1] = float((edges_bucket == k).mean())
    wedges = float(np.sum(deg * (deg - 1) / 2.0))
    tri_total = float(np.trace(a @ a @ a) / 6.0)
    out[SLOT_TRANSITIVITY] = 3.0 * tri_total / wedges if wedges > 0 else 0.0
    out[SLOT_LOCAL_CLUSTERING] = float(local_clustering(g).mean())
    out[SLOT_ASSORTATIVITY] = _assortativity(a, deg)
    if n >= 3:
        out[SLOT_TRIANGLES] = tri_total / math.comb(n, 3)
    if n >= 4:
        scale = math.comb(n, 4)
        out[SLOT_MOTIFS] = [c / scale for c in _motif_counts(a, deg)]
    out[SLOT_LAMBDA2] = lambda2(g)
    return out


def two_hop_reach(g: Graph) -> np.ndarray:
    """Fraction of other nodes within distance 2 of each node."""
    n = g.node_count
    if n == 1:
        return np.zeros(1)
    a = g.adjacency()
    reach = ((a + a @ a) > 0).astype(float)
    np.fill_diagonal(reach, 0.0)
    return reach.sum(axis=1) / (n - 1)


def degree_features(g: Graph, dim: int = 4) -> np.ndarray:
    """Default structural node features: [1, d/(n-1), clustering, 2-hop reach]."""
    n = g.node_count
    deg = g.degrees().astype(float)
    nd = deg / (n - 1) if n > 1 else np.zeros(n)
    cols = [np.ones(n), nd, local_clustering(g), two_hop_reach(g)]
    feats = np.stack(cols[:dim], axis=1)
    if dim > 4:
        feats = np.hstack([feats, np.zeros((n, dim - 4))])
    return feats
