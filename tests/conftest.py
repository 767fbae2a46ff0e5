import copy
import itertools
import json

import numpy as np
import pytest
from hypothesis import strategies as st

from invmark.data import er_graph  # re-exported: test_acceptance.py imports it from here
from invmark.graphs import Graph
from invmark.nn.model import GraphBatch, ModelHyper, _gcn_layer, _gin_layer
from invmark.nn.tape import Tensor


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def relabel(g: Graph, perm: list[int]) -> Graph:
    """The graph with node i renamed to perm[i]."""
    edges = tuple((perm[u], perm[v]) for u, v in g.edges)
    feats = None
    if g.node_features is not None:
        feats = np.empty_like(g.node_features)
        for i, p in enumerate(perm):
            feats[p] = g.node_features[i]
    return Graph(g.node_count, edges, feats)


def one_layer(g: Graph, h: Tensor, backbone: str = "gcn", eps: float = 0.0, **weights: Tensor) -> Tensor:
    """One backbone layer over a batch of one graph, h of shape (1, n, d).

    Runs the package's layer as it runs every layer after the first, which
    propagates its input h (and sends h a gradient), with the given tensors:
    ``weight``, ``bias`` for GCN; ``w1``, ``b1``, ``w2``, ``b2`` for GIN.
    GIN aggregates with the operator A + (1 + eps) I; the package's own GIN
    is GIN-0, eps = 0.
    """
    if backbone == "gcn":
        prop = GraphBatch([g]).propagation(ModelHyper(feature_dim=h.shape[-1]))
        return _gcn_layer(h, Tensor(prop), weights["weight"], weights["bias"])
    prop = (g.adjacency() + (1.0 + eps) * np.eye(g.node_count))[None]
    return _gin_layer(h, Tensor(prop), weights["w1"], weights["b1"], weights["w2"], weights["b2"])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def _json_paths(value, path=()):
    """Every path (a tuple of keys and indices) into a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, path + (key,))


_ODD_NUMBERS = [-(10**9), -1, 0, 2, 10**6, 10**9, 10**400, -(10**400), 0.5, True, False]
# Each draw is a fresh copy: a drawn list or dict may be mutated later, and a
# shared one would carry that edit into later draws, or into itself.
_ODD_VALUES = st.one_of(
    st.sampled_from(_ODD_NUMBERS + [float("nan"), float("inf"), float("-inf"), None, "", "1", [], {}, [1], {"a": 1}]).map(
        copy.deepcopy
    ),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)


@st.composite
def mutated_documents(draw, documents, hot):
    """A valid JSON document drawn from ``documents`` with one to three fields
    dropped, added or given another value.

    Paths that ``hot`` accepts are drawn as often as all paths together, so
    the fields a reader checks first are hit often. An added field is named
    "extra" or after a key the document already uses.
    """
    doc = copy.deepcopy(draw(documents))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        hot_paths = [p for p in paths if hot(p)]
        path = draw(st.sampled_from(paths) | st.sampled_from(hot_paths or paths))
        action = draw(st.sampled_from(["replace", "number", "drop", "add"]))
        if not path:
            doc = draw(_ODD_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "drop":
            del parent[key]
        elif action == "add" and isinstance(parent, dict):
            names = sorted({p[-1] for p in paths if p and isinstance(p[-1], str)})
            parent[draw(st.sampled_from(["extra", *names]))] = draw(_ODD_VALUES)
        elif action == "add":
            parent.insert(key, draw(_ODD_VALUES))
        else:
            parent[key] = draw(st.sampled_from(_ODD_NUMBERS) if action == "number" else _ODD_VALUES)
    # NaN and the infinities travel as the JSON literals NaN and Infinity
    return json.loads(json.dumps(doc))
