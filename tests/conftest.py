import itertools

import numpy as np
import pytest

from invmark.graphs import Graph
from invmark.nn.model import GraphBatch, Model, ModelHyper, _message_passing
from invmark.nn.tape import Tensor


def er_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, tuple(edges))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def one_layer(g: Graph, h: Tensor, backbone: str = "gcn", eps: float = 0.0, **weights: Tensor) -> Tensor:
    """One backbone layer over a batch of one graph, h of shape (1, n, d).

    Runs ``_message_passing`` of a one-layer model whose parameters are the
    given tensors: ``weight``, ``bias`` for GCN; ``w1``, ``b1``, ``w2``, ``b2`` for GIN.
    """
    hidden = weights["weight" if backbone == "gcn" else "w1"].shape[1]
    hyper = ModelHyper(feature_dim=h.shape[-1], hidden_dim=hidden, layers=1, backbone=backbone, gin_eps=eps)
    model = Model(hyper, {f"backbone.0.{name}": t for name, t in weights.items()})
    return _message_passing(model, Tensor(GraphBatch([g]).propagation(hyper)), h)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
