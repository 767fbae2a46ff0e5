"""Dataset ingestion and synthetic task generation.

Two surfaces: the TUDataset multi-file layout, and a deterministic
two-class synthetic task used as the default desk-scale workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError, MalformedLineError, MissingFileError
from .graphs import Graph, degree_features
from .reports import read_text


@dataclass(frozen=True)
class SyntheticTask:
    """Two-class graph classification task with an 80/10/10 split."""

    graphs: list[Graph]
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def subset(self, idx: np.ndarray) -> tuple[list[Graph], np.ndarray]:
        return [self.graphs[i] for i in idx], self.labels[idx]


def er_graph(rng: np.random.Generator, n: int, p: float | np.ndarray) -> Graph:
    """Erdos-Renyi G(n, p); ``p`` may hold one probability per pair of ``np.triu_indices(n, 1)``.

    One ``rng.random`` call draws the doubles of one scalar draw per pair, in row order.
    """
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < p
    return Graph(n, tuple(zip(u[keep].tolist(), v[keep].tolist())))


def two_block_graph(rng: np.random.Generator, n: int, p_in: float, p_out: float) -> Graph:
    """Two equal communities with dense intra- and sparse inter-block edges."""
    u, v = np.triu_indices(n, 1)
    return er_graph(rng, n, np.where((u < n // 2) == (v < n // 2), p_in, p_out))


def make_synthetic_task(n_graphs: int, seed: int) -> SyntheticTask:
    """Deterministic two-class task: sparse random graphs vs community graphs.

    Class 0 draws G(n, 0.1); class 1 draws a two-block community graph whose
    intra/inter rates equal 0.5 and ~0.04 at the carrier-stratum size n = 14
    and are held at a size-stable expected degree (intra degree
    3.0 + 0.12 (n - 14) for n > 14, inter degree 0.25). Holding degree rather than probability
    keeps the algebraic-connectivity distribution of each class size-stable,
    so small graphs eligible as carrier seeds rewire to invariant values
    clear of the decoding midpoint instead of drifting with size. Sizes are
    uniform in 10..30 and every graph carries 4-dimensional degree-based
    node features. The split is stratified 80/10/10, so label balance holds
    within 10% in every part.
    """
    if n_graphs < 10:
        raise ValueError("need at least 10 graphs")
    rng = np.random.default_rng([seed, 0x5D47A])
    graphs: list[Graph] = []
    labels = np.zeros(n_graphs, dtype=int)
    for i in range(n_graphs):
        n = int(rng.integers(10, 31))
        label = i % 2
        if label == 0:
            g = er_graph(rng, n, 0.1)
        else:
            half = n // 2
            intra_degree = 3.0 + 0.12 * max(0, n - 14)
            g = two_block_graph(rng, n, min(0.95, intra_degree / (half - 1)), 0.25 / half)
        graphs.append(g.with_features(degree_features(g, 4)))
        labels[i] = label
    return SyntheticTask(graphs, labels, *stratified_split(labels, rng))


def stratified_split(
    labels: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted (train, val, test) indices, split 80/10/10 within each class.

    Classes are taken in increasing label order and each is shuffled with
    one ``rng.permutation``, so the split is a function of the labels and
    the generator state.
    """
    train, val, test = [], [], []
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        members = members[rng.permutation(len(members))]
        n_tr = int(round(0.8 * len(members)))
        n_val = int(round(0.1 * len(members)))
        train.extend(members[:n_tr])
        val.extend(members[n_tr : n_tr + n_val])
        test.extend(members[n_tr + n_val :])
    return tuple(np.sort(np.array(part, dtype=int)) for part in (train, val, test))


# --- TUDataset layout -------------------------------------------------------------


def _tu_prefix(dir_path: str) -> str:
    entries = sorted(os.listdir(dir_path)) if os.path.isdir(dir_path) else []
    for name in entries:
        if name.endswith("_A.txt"):
            return name[: -len("_A.txt")]
    raise MissingFileError(f"no *_A.txt file in {dir_path}")


def _read_lines(path: str) -> list[str]:
    if not os.path.exists(path):
        raise MissingFileError(path)
    return read_text(path).splitlines()


def _label(text: str) -> int:
    return int(float(text))


def _read_values(path: str, parse, what: str):
    """Yield each nonblank line's number and ``parse`` of its text.

    A line that ``parse`` refuses with ValueError or OverflowError (``x`` as
    an integer, ``inf`` as a label) raises MalformedLineError naming ``what``.
    """
    for no, line in enumerate(_read_lines(path), start=1):
        if line.strip():
            try:
                value = parse(line.strip())
            except (ValueError, OverflowError) as exc:
                raise MalformedLineError(path, no, what) from exc
            yield no, value


def load_tudataset(dir_path: str) -> list[tuple[Graph, int]]:
    """Parse the standard TUDataset multi-file text layout (UTF-8, blank lines skipped).

    The indicator file puts each node in a graph; ids run from 1 to G and each
    has a node. Graph labels, and the optional node labels one-hot encoded
    into features, are finite numbers truncated to integers. Edge lines are
    1-indexed `u, v` pairs in one graph; both directions dedup to one edge,
    self-loops are dropped. A malformed file raises an InvmarkError naming it.
    """
    prefix = os.path.join(dir_path, _tu_prefix(dir_path))
    adj_path, ind_path, lab_path, node_lab_path = (
        f"{prefix}_{name}.txt" for name in ("A", "graph_indicator", "graph_labels", "node_labels")
    )
    indicator = []
    for no, gid in _read_values(ind_path, int, "expected an integer"):
        if gid < 1:
            raise MalformedLineError(ind_path, no, f"graph ids are 1-indexed, got {gid}")
        indicator.append(gid)
    if not indicator:
        raise MalformedLineError(ind_path, 1, "no nodes")
    n_graphs, n_nodes = max(indicator), len(indicator)
    labels = [y for _, y in _read_values(lab_path, _label, "expected a number")]
    if len(labels) != n_graphs:
        raise IndexOutOfRangeError(f"{lab_path}: {len(labels)} labels for {n_graphs} graphs")
    onehot = None
    if os.path.exists(node_lab_path):
        node_labels = [c for _, c in _read_values(node_lab_path, _label, "expected a number")]
        if len(node_labels) != n_nodes:
            raise IndexOutOfRangeError(f"{node_lab_path}: {len(node_labels)} labels for {n_nodes} nodes")
        cats, cols = np.unique(node_labels, return_inverse=True)
        onehot = np.eye(len(cats))[cols]
    # Group the nodes by graph: each graph's nodes in file order, graph by graph.
    order = np.argsort(indicator, kind="stable")
    sizes = np.bincount(indicator, minlength=n_graphs + 1)[1:]
    starts = np.cumsum(sizes) - sizes
    local = np.empty(n_nodes, dtype=int)
    local[order] = np.arange(n_nodes) - np.repeat(starts, sizes)
    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(n_graphs)]
    for no, line in enumerate(_read_lines(adj_path), start=1):
        if not line.strip():
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise MalformedLineError(adj_path, no, "expected `u, v`")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedLineError(adj_path, no, "expected integers") from exc
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise IndexOutOfRangeError(f"{adj_path}:{no}: node id out of range")
        if indicator[u - 1] != indicator[v - 1]:
            raise IndexOutOfRangeError(f"{adj_path}:{no}: edge crosses graphs")
        if u != v:  # Python ints: a carrier rewired from this graph writes its edges to JSON
            a, b = int(local[u - 1]), int(local[v - 1])
            edge_sets[indicator[u - 1] - 1].add((min(a, b), max(a, b)))
    if not sizes.all():
        raise IndexOutOfRangeError(f"{ind_path}: graph {np.argmin(sizes) + 1} has no nodes")
    groups = np.split(order, starts[1:])
    return [
        (Graph(len(nodes), tuple(edges), None if onehot is None else onehot[nodes]), label)
        for nodes, edges, label in zip(groups, edge_sets, labels)
    ]
