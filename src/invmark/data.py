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


def er_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi G(n, p)."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, tuple(edges))


def two_block_graph(rng: np.random.Generator, n: int, p_in: float, p_out: float) -> Graph:
    """Two equal communities with dense intra- and sparse inter-block edges."""
    half = n // 2
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            same = (u < half) == (v < half)
            if rng.random() < (p_in if same else p_out):
                edges.append((u, v))
    return Graph(n, tuple(edges))


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
    with open(path) as fh:
        return fh.read().splitlines()


def load_tudataset(dir_path: str) -> list[tuple[Graph, int]]:
    """Parse the standard TUDataset multi-file text layout.

    Edge file lines are 1-indexed `u, v` pairs; the indicator file assigns
    each node to a 1-indexed graph; the label file holds one integer per
    graph. An optional node-label file is one-hot encoded into features.
    Both edge directions may be listed; they dedup to one undirected edge.
    """
    prefix = _tu_prefix(dir_path)
    adj_path = os.path.join(dir_path, f"{prefix}_A.txt")
    ind_path = os.path.join(dir_path, f"{prefix}_graph_indicator.txt")
    lab_path = os.path.join(dir_path, f"{prefix}_graph_labels.txt")
    node_lab_path = os.path.join(dir_path, f"{prefix}_node_labels.txt")

    indicator = []
    for i, line in enumerate(_read_lines(ind_path)):
        if not line.strip():
            continue
        try:
            gid = int(line.strip())
        except ValueError as exc:
            raise MalformedLineError(ind_path, i + 1, "expected an integer") from exc
        if gid < 1:
            raise MalformedLineError(ind_path, i + 1, f"graph ids are 1-indexed, got {gid}")
        indicator.append(gid)
    if not indicator:
        raise MalformedLineError(ind_path, 1, "no nodes")
    n_graphs = max(indicator)
    n_nodes = len(indicator)

    labels = []
    for i, line in enumerate(_read_lines(lab_path)):
        if not line.strip():
            continue
        try:
            labels.append(int(float(line.strip())))
        except ValueError as exc:
            raise MalformedLineError(lab_path, i + 1, "expected a number") from exc
    if len(labels) != n_graphs:
        raise IndexOutOfRangeError(
            f"{lab_path}: {len(labels)} labels for {n_graphs} graphs"
        )

    node_labels = None
    if os.path.exists(node_lab_path):
        node_labels = []
        for i, line in enumerate(_read_lines(node_lab_path)):
            if not line.strip():
                continue
            try:
                node_labels.append(int(float(line.strip())))
            except ValueError as exc:
                raise MalformedLineError(node_lab_path, i + 1, "expected a number") from exc
        if len(node_labels) != n_nodes:
            raise IndexOutOfRangeError(
                f"{node_lab_path}: {len(node_labels)} labels for {n_nodes} nodes"
            )

    # Per-graph local indexing.
    local_index = np.zeros(n_nodes, dtype=int)
    sizes = np.zeros(n_graphs, dtype=int)
    for node, gid in enumerate(indicator):
        local_index[node] = sizes[gid - 1]
        sizes[gid - 1] += 1

    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(n_graphs)]
    for i, line in enumerate(_read_lines(adj_path)):
        if not line.strip():
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise MalformedLineError(adj_path, i + 1, "expected `u, v`")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedLineError(adj_path, i + 1, "expected integers") from exc
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise IndexOutOfRangeError(f"{adj_path}:{i + 1}: node id out of range")
        gu, gv = indicator[u - 1], indicator[v - 1]
        if gu != gv:
            raise IndexOutOfRangeError(f"{adj_path}:{i + 1}: edge crosses graphs")
        if u == v:
            continue
        a, b = local_index[u - 1], local_index[v - 1]
        edge_sets[gu - 1].add((min(a, b), max(a, b)))

    one_hot_dim = 0
    label_to_col: dict[int, int] = {}
    if node_labels is not None:
        cats = sorted(set(node_labels))
        label_to_col = {c: j for j, c in enumerate(cats)}
        one_hot_dim = len(cats)

    out: list[tuple[Graph, int]] = []
    node_cursor: list[list[int]] = [[] for _ in range(n_graphs)]
    for node, gid in enumerate(indicator):
        node_cursor[gid - 1].append(node)
    for gid in range(n_graphs):
        feats = None
        if node_labels is not None:
            feats = np.zeros((sizes[gid], one_hot_dim))
            for node in node_cursor[gid]:
                feats[local_index[node], label_to_col[node_labels[node]]] = 1.0
        out.append((Graph(int(sizes[gid]), tuple(edge_sets[gid]), feats), labels[gid]))
    return out
