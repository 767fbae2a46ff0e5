"""Message-passing backbones, task head, and the scalar perception head.

A Model owns named parameter tensors. Forward passes build fresh tape nodes,
so scoring an immutable model snapshot is thread-safe; training (which
mutates parameters) owns the model exclusively.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ArchMismatchError, ShapeMismatchError
from ..graphs import Graph, degree_features
from .tape import Tensor, add, cross_entropy, matmul, mean_rows, relu, sigmoid, sum_rows

BACKBONES = ("gcn", "gin")


@dataclass(frozen=True)
class ModelHyper:
    feature_dim: int = 4
    hidden_dim: int = 32
    layers: int = 2
    n_classes: int = 2
    backbone: str = "gcn"
    gin_eps: float = 0.0

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ValueError(f"backbone must be one of {BACKBONES}")


class Model:
    """Named parameter collection plus hyperparameters."""

    def __init__(self, hyper: ModelHyper, params: dict[str, Tensor]):
        self.hyper = hyper
        self.params = params

    def parameter_names(self) -> list[str]:
        return list(self.params.keys())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def gradients(self) -> dict[str, np.ndarray | None]:
        return {name: p.grad for name, p in self.params.items()}

    def copy(self) -> "Model":
        params = {}
        for name, p in self.params.items():
            t = Tensor(p.data.copy(), requires_grad=True)
            params[name] = t
        return Model(self.hyper, params)

    def arch_signature(self) -> tuple:
        return (self.hyper, tuple((n, p.data.shape) for n, p in sorted(self.params.items())))

    def param_vector(self) -> np.ndarray:
        return np.concatenate([self.params[n].data.ravel() for n in sorted(self.params)])

    def set_param_vector(self, vec: np.ndarray):
        offset = 0
        for name in sorted(self.params):
            p = self.params[name]
            size = p.data.size
            p.data = vec[offset : offset + size].reshape(p.data.shape).astype(float)
            offset += size
        if offset != len(vec):
            raise ShapeMismatchError("parameter vector length mismatch")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(hyper: ModelHyper, seed: int) -> Model:
    """Deterministic Glorot-uniform initialization, zero biases."""
    rng = np.random.default_rng([seed, 0x6E57])
    params: dict[str, Tensor] = {}
    d_in = hyper.feature_dim
    for layer in range(hyper.layers):
        d_out = hyper.hidden_dim
        if hyper.backbone == "gcn":
            params[f"backbone.{layer}.weight"] = Tensor(_glorot(rng, d_in, d_out), True)
            params[f"backbone.{layer}.bias"] = Tensor(np.zeros(d_out), True)
        else:
            params[f"backbone.{layer}.w1"] = Tensor(_glorot(rng, d_in, d_out), True)
            params[f"backbone.{layer}.b1"] = Tensor(np.zeros(d_out), True)
            params[f"backbone.{layer}.w2"] = Tensor(_glorot(rng, d_out, d_out), True)
            params[f"backbone.{layer}.b2"] = Tensor(np.zeros(d_out), True)
        d_in = d_out
    params["task.weight"] = Tensor(_glorot(rng, d_in, hyper.n_classes), True)
    params["task.bias"] = Tensor(np.zeros(hyper.n_classes), True)
    params["perc.weight"] = Tensor(_glorot(rng, d_in, 1), True)
    params["perc.bias"] = Tensor(np.zeros(1), True)
    return Model(hyper, params)


def perception_parameter_names(model: Model) -> list[str]:
    return [n for n in model.params if n.startswith("perc.")]


def gcn_norm_matrix(g: Graph) -> np.ndarray:
    """Symmetric-normalized adjacency with self-loops: D^-1/2 (A+I) D^-1/2."""
    a = g.adjacency() + np.eye(g.node_count)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def propagation_matrix(g: Graph, backbone: str, eps: float = 0.0) -> np.ndarray:
    """The (n, n) aggregation operator of one layer, kept on the graph.

    GCN: D^-1/2 (A+I) D^-1/2. GIN: A + (1+eps) I, so that the layer's sum
    aggregation (1+eps) h_v + sum of neighbors is one matrix product.
    """
    if backbone == "gcn":
        return g.cached(("gcn",), gcn_norm_matrix)
    return g.cached(("gin", eps), lambda g: g.adjacency() + (1.0 + eps) * np.eye(g.node_count))


def input_features(g: Graph, feature_dim: int) -> np.ndarray:
    """Stored node features, else the structural degree features, kept on the graph."""
    feats = g.node_features
    if feats is None:
        feats = g.cached(("degree_features", feature_dim), lambda g: degree_features(g, feature_dim))
    if feats.shape[1] != feature_dim:
        raise ShapeMismatchError(f"feature dim {feats.shape[1]} != model feature dim {feature_dim}")
    return feats


class GraphBatch:
    """A list of graphs as padded arrays, for one forward over all of them.

    Holds (B, n_max, n_max) propagation matrices, (B, n_max, d) input
    features and a (B, n_max) node mask. Padded rows and columns of the
    propagation matrices are zero, so padding never reaches a real node,
    and the mask keeps it out of the mean readout. The arrays for a
    backbone or a feature width are built on first use and kept.
    """

    def __init__(self, graphs):
        self.graphs = tuple(graphs)
        if not self.graphs:
            raise ValueError("a graph batch needs at least one graph")
        sizes = np.array([g.node_count for g in self.graphs])
        self.mask = (np.arange(sizes.max())[None, :] < sizes[:, None]).astype(float)
        self._padded: dict[tuple, np.ndarray] = {}

    def propagation(self, hyper: ModelHyper) -> np.ndarray:
        key = (hyper.backbone, hyper.gin_eps)
        return self._pad(key, lambda g: propagation_matrix(g, hyper.backbone, hyper.gin_eps))

    def features(self, hyper: ModelHyper) -> np.ndarray:
        return self._pad(("features", hyper.feature_dim), lambda g: input_features(g, hyper.feature_dim))

    def _pad(self, key: tuple, per_graph) -> np.ndarray:
        if key not in self._padded:
            blocks = [per_graph(g) for g in self.graphs]
            width = max(block.shape[1] for block in blocks)
            out = np.zeros(self.mask.shape + (width,))
            for i, block in enumerate(blocks):
                out[i, : block.shape[0], : block.shape[1]] = block
            out.setflags(write=False)
            self._padded[key] = out
        return self._padded[key]


def _gcn_layer(h: Tensor, prop: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    return relu(add(matmul(matmul(prop, h), weights), bias))


def _gin_layer(h: Tensor, prop: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    hidden = relu(add(matmul(matmul(prop, h), w1), b1))
    return relu(add(matmul(hidden, w2), b2))


def _check_rows(h: Tensor, g: Graph):
    if h.data.shape[0] != g.node_count:
        raise ShapeMismatchError("feature rows must match node count")


def gcn_layer_forward(h: Tensor, g: Graph, weights: Tensor, bias: Tensor) -> Tensor:
    """Symmetric-normalized neighborhood mean, affine map, ReLU."""
    _check_rows(h, g)
    return _gcn_layer(h, Tensor(propagation_matrix(g, "gcn")), weights, bias)


def gin_layer_forward(
    h: Tensor,
    g: Graph,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    eps: float = 0.0,
) -> Tensor:
    """Sum aggregation (1+eps) h_v + sum of neighbors, then a 2-layer MLP."""
    _check_rows(h, g)
    return _gin_layer(h, Tensor(propagation_matrix(g, "gin", eps)), w1, b1, w2, b2)


def _message_passing(model: Model, prop: Tensor, h: Tensor) -> Tensor:
    """The backbone's layers over one graph's (n, ...) arrays or a batch's (B, n_max, ...)."""
    p = model.params
    for layer in range(model.hyper.layers):
        pre = f"backbone.{layer}."
        if model.hyper.backbone == "gcn":
            h = _gcn_layer(h, prop, p[pre + "weight"], p[pre + "bias"])
        else:
            h = _gin_layer(h, prop, p[pre + "w1"], p[pre + "b1"], p[pre + "w2"], p[pre + "b2"])
    return h


def mean_readout(h: Tensor) -> Tensor:
    """Permutation-invariant graph embedding: column means."""
    return mean_rows(h)


def node_embeddings(model: Model, g: Graph) -> Tensor:
    hyper = model.hyper
    prop = Tensor(propagation_matrix(g, hyper.backbone, hyper.gin_eps))
    return _message_passing(model, prop, Tensor(input_features(g, hyper.feature_dim)))


def graph_embedding(model: Model, g: Graph) -> Tensor:
    return mean_readout(node_embeddings(model, g))


def batch_embeddings(model: Model, batch: GraphBatch) -> Tensor:
    """(B, d) graph embeddings: one forward over the padded batch, masked mean readout."""
    prop, feats = batch.propagation(model.hyper), batch.features(model.hyper)
    return mean_rows(_message_passing(model, Tensor(prop), Tensor(feats)), batch.mask)


def _task_head(model: Model, emb: Tensor) -> Tensor:
    return add(matmul(emb, model.params["task.weight"]), model.params["task.bias"])


def _perception_head(model: Model, emb: Tensor) -> Tensor:
    """Sigmoid of an affine map of the embedding: a score in [0, 1] per graph."""
    return sigmoid(sum_rows(add(matmul(emb, model.params["perc.weight"]), model.params["perc.bias"])))


def task_logits(model: Model, g: Graph) -> Tensor:
    return _task_head(model, graph_embedding(model, g))


def perception_score(model: Model, g: Graph) -> Tensor:
    """Scalar head in [0, 1]: sigmoid of an affine map of the embedding."""
    return _perception_head(model, graph_embedding(model, g))


def perception_score_value(model: Model, g: Graph) -> float:
    return float(perception_score(model, g).data)


def perception_scores(model: Model, batch: GraphBatch) -> Tensor:
    """(B,) perception scores of a batch, from one forward."""
    return _perception_head(model, batch_embeddings(model, batch))


def batch_task_loss(model: Model, graphs: list[Graph], labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of a batch of graphs under the task head."""
    return cross_entropy(_task_head(model, batch_embeddings(model, GraphBatch(graphs))), labels)


def batch_logits(model: Model, graphs: list[Graph]) -> Tensor:
    """(B, n_classes) task logits, from one forward."""
    return _task_head(model, batch_embeddings(model, GraphBatch(graphs)))


def check_same_arch(a: Model, b: Model):
    if a.arch_signature() != b.arch_signature():
        raise ArchMismatchError("models do not share an architecture")


CHECKPOINT_VERSION = 1


def checkpoint_dict(model: Model) -> dict:
    """JSON-ready container; float repr round-trips bit-exactly."""
    return {
        "version": CHECKPOINT_VERSION,
        "hyper": asdict(model.hyper),
        "params": [
            {"name": n, "shape": list(p.data.shape), "values": p.data.ravel().tolist()}
            for n, p in sorted(model.params.items())
        ],
    }


def model_from_checkpoint(doc: dict) -> Model:
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')}")
    hyper = ModelHyper(**doc["hyper"])
    params = {}
    for rec in doc["params"]:
        arr = np.array(rec["values"], dtype=float).reshape(rec["shape"])
        params[rec["name"]] = Tensor(arr, requires_grad=True)
    return Model(hyper, params)


def save_checkpoint(model: Model, path: str):
    with open(path, "w") as fh:
        json.dump(checkpoint_dict(model), fh, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_checkpoint(path: str) -> Model:
    with open(path) as fh:
        return model_from_checkpoint(json.load(fh))
