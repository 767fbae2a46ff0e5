"""Message-passing backbones, task head, and the scalar perception head.

A Model owns named parameter tensors. Forward passes build fresh tape nodes,
so scoring an immutable model snapshot is thread-safe; training (which
mutates parameters) owns the model exclusively.
"""

from __future__ import annotations

import base64
import ctypes
import math
from dataclasses import asdict, dataclass
from functools import cache
from itertools import accumulate

import numpy as np

from ..errors import ArchMismatchError, MalformedDocumentError, ShapeMismatchError
from ..graphs import Graph, degree_features
from ..reports import check_json, emit_report, field_kinds, read_report
from .tape import (
    Tensor,
    add,
    cross_entropy,
    dense_relu,
    matmul,
    mean_rows,
    propagate_dense_relu,
    sigmoid,
    sum_all,
    sum_rows,
)

BACKBONES = ("gcn", "gin")


@dataclass(frozen=True)
class ModelHyper:
    feature_dim: int = 4
    hidden_dim: int = 32
    layers: int = 2
    n_classes: int = 2
    backbone: str = "gcn"

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ValueError(f"backbone must be one of {BACKBONES}")
        if min(self.feature_dim, self.hidden_dim, self.layers, self.n_classes) < 1:
            raise ValueError("feature_dim, hidden_dim, layers and n_classes must be positive")


class Model:
    """Named parameter collection plus hyperparameters."""

    def __init__(self, hyper: ModelHyper, params: dict[str, Tensor]):
        self.hyper = hyper
        self.params = params

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


def param_layout(hyper: ModelHyper) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of the architecture, in initialization order."""
    layout: dict[str, tuple[int, ...]] = {}
    d_in, d = hyper.feature_dim, hyper.hidden_dim
    for layer in range(hyper.layers):
        pre = f"backbone.{layer}."
        if hyper.backbone == "gcn":
            layout.update({pre + "weight": (d_in, d), pre + "bias": (d,)})
        else:
            layout.update({pre + "w1": (d_in, d), pre + "b1": (d,), pre + "w2": (d, d), pre + "b2": (d,)})
        d_in = d
    layout.update({"task.weight": (d_in, hyper.n_classes), "task.bias": (hyper.n_classes,)})
    layout.update({"perc.weight": (d_in, 1), "perc.bias": (1,)})
    return layout


def init_model(hyper: ModelHyper, seed: int) -> Model:
    """Deterministic Glorot-uniform weight matrices, zero biases."""
    rng = np.random.default_rng([seed, 0x6E57])
    layout = param_layout(hyper).items()
    return Model(hyper, {n: Tensor(_glorot(rng, *s) if len(s) == 2 else np.zeros(s), True) for n, s in layout})


def gcn_norm_matrix(g: Graph) -> np.ndarray:
    """Symmetric-normalized adjacency with self-loops: D^-1/2 (A+I) D^-1/2."""
    a = g.adjacency() + np.eye(g.node_count)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def propagation_matrix(g: Graph, backbone: str) -> np.ndarray:
    """The (n, n) aggregation operator of one layer, kept on the graph.

    GCN: D^-1/2 (A+I) D^-1/2. GIN: A + I, so that the layer's sum
    aggregation h_v + sum of neighbors (GIN-0) is one matrix product.
    """
    if backbone == "gcn":
        return g.cached(("gcn",), gcn_norm_matrix)
    return g.cached(("gin",), lambda g: g.adjacency() + np.eye(g.node_count))


def input_features(g: Graph, feature_dim: int) -> np.ndarray:
    """Stored node features, else the structural degree features, kept on the graph."""
    feats = g.node_features
    if feats is None:
        feats = g.cached(("degree_features", feature_dim), lambda g: degree_features(g, feature_dim))
    if feats.shape[1] != feature_dim:
        raise ShapeMismatchError(f"feature dim {feats.shape[1]} != model feature dim {feature_dim}")
    return feats


# A training set is padded once, and its batches sliced from that pool, only
# while the pool has at most this many times the cells of its graphs' own
# operators: B * n_max^2 <= POOL_PADDING_RATIO * sum of n_i^2.
POOL_PADDING_RATIO = 4


# glibc's malloc serves blocks above its mmap threshold as fresh mappings and
# trims the heap once more than its trim threshold lies free at the top. Both
# start at 128 kB and rise with the heap's history, so whether a loop faults
# in again the large arrays its last pass freed varied from one process to
# the next: in training, 20,000 to 99,000 minor faults per ten epochs, up to
# a third of their time; in a process that only scores, some 350 faults per
# 128-carrier verify, about half its time; in key generation, 3,000 or
# 35,000 faults per key, as unrelated code moved the heap's layout. The first
# batch or bundle build pins both where glibc's own adjustment stops.
@cache
def keep_freed_pages() -> None:
    """Set M_MMAP_THRESHOLD (-3) to 32 MiB and M_TRIM_THRESHOLD (-1) to twice
    that, once per process; a no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


class GraphBatch:
    """A list of graphs as padded arrays, for one forward over all of them.

    Holds (B, n_max, n_max) propagation matrices P, (B, n_max, d) input
    features X and a (B, n_max) node mask. Padded rows and columns of the
    propagation matrices are zero, so padding never reaches a real node, and
    the mask keeps it out of the mean readout. The arrays for a backbone or a
    feature width, and the constant tensors a forward reads (``inputs``), are
    built on first use and kept. Making a batch pins the process's malloc
    thresholds (keep_freed_pages).
    """

    def __init__(self, graphs):
        keep_freed_pages()
        self.graphs = tuple(graphs)
        if not self.graphs:
            raise ValueError("a graph batch needs at least one graph")
        sizes = np.array([g.node_count for g in self.graphs])
        self.mask = (np.arange(sizes.max())[None, :] < sizes[:, None]).astype(float)
        self._padded: dict[tuple, np.ndarray] = {}
        self._inputs: dict[tuple, tuple[Tensor, Tensor]] = {}
        self._pool_fits = self.mask.size * self.mask.shape[1] <= POOL_PADDING_RATIO * int((sizes * sizes).sum())
        self._source: tuple[GraphBatch, np.ndarray] | None = None

    def take(self, idx) -> "GraphBatch":
        """The batch of the graphs at ``idx``, in that order.

        While this batch's padding stays within POOL_PADDING_RATIO, the taken
        batch's arrays are slices of this batch's: ``[idx, :n, :n]`` and
        ``[idx, :n]``, n being the largest taken graph. These equal a fresh
        batch's bit for bit and are C-contiguous. Otherwise the taken graphs
        are padded on their own, so one large graph never pads a whole set.
        """
        idx = np.asarray(idx, dtype=int)
        batch = GraphBatch([self.graphs[i] for i in idx])
        if self._pool_fits:
            batch._source = (self, idx)
        return batch

    def propagation(self, hyper: ModelHyper) -> np.ndarray:
        return self._pad((hyper.backbone,), lambda g: propagation_matrix(g, hyper.backbone), square=True)

    def features(self, hyper: ModelHyper) -> np.ndarray:
        return self._pad(("features", hyper.feature_dim), lambda g: input_features(g, hyper.feature_dim), square=False)

    def inputs(self, hyper: ModelHyper) -> tuple[Tensor, Tensor]:
        """Constant tensors over P and the first layer's input P @ X, made and
        checked for finiteness once. P @ X is this batch's own product, never
        a slice of its pool's: a product's last bit can depend on the padded
        width it sums over."""
        key = (hyper.backbone, hyper.feature_dim)
        if key not in self._inputs:
            prop = self.propagation(hyper)
            propagated = prop @ self.features(hyper)
            propagated.setflags(write=False)
            self._inputs[key] = (Tensor(prop), Tensor(propagated))
        return self._inputs[key]

    def _pad(self, key: tuple, per_graph, square: bool) -> np.ndarray:
        if key not in self._padded:
            n = self.mask.shape[1]
            if self._source is not None:
                pool, idx = self._source
                out = pool._pad(key, per_graph, square)[idx, :n, : n if square else None]
            else:
                blocks = [per_graph(g) for g in self.graphs]
                width = max(block.shape[1] for block in blocks)
                out = np.zeros(self.mask.shape + (width,))
                for i, block in enumerate(blocks):
                    out[i, : block.shape[0], : block.shape[1]] = block
            out.setflags(write=False)
            self._padded[key] = out
        return self._padded[key]


def _gcn_layer(h: Tensor, prop: Tensor | None, weights: Tensor, bias: Tensor) -> Tensor:
    """max(prop @ h @ weights + bias, 0); with ``prop`` None, ``h`` is already propagated."""
    if prop is None:
        return dense_relu(h, weights, bias)
    return propagate_dense_relu(prop, h, weights, bias)


def _gin_layer(h: Tensor, prop: Tensor | None, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    return dense_relu(_gcn_layer(h, prop, w1, b1), w2, b2)


def _message_passing(model: Model, batch: GraphBatch) -> Tensor:
    """The backbone's layers over a batch's padded (B, n_max, d) arrays.

    The input features take no gradient, so the first layer starts from the
    batch's kept P @ X; every later layer propagates its own input."""
    p = model.params
    prop, h = batch.inputs(model.hyper)
    for layer in range(model.hyper.layers):
        pre = f"backbone.{layer}."
        layer_prop = prop if layer else None
        if model.hyper.backbone == "gcn":
            h = _gcn_layer(h, layer_prop, p[pre + "weight"], p[pre + "bias"])
        else:
            h = _gin_layer(h, layer_prop, p[pre + "w1"], p[pre + "b1"], p[pre + "w2"], p[pre + "b2"])
    return h


def batch_embeddings(model: Model, batch: GraphBatch) -> Tensor:
    """(B, d) graph embeddings: one forward over the padded batch, masked mean readout."""
    return mean_rows(_message_passing(model, batch), batch.mask)


def _task_head(model: Model, emb: Tensor) -> Tensor:
    return add(matmul(emb, model.params["task.weight"]), model.params["task.bias"])


def _perception_head(model: Model, emb: Tensor) -> Tensor:
    """Sigmoid of an affine map of the embedding: a score in [0, 1] per graph."""
    return sigmoid(sum_rows(add(matmul(emb, model.params["perc.weight"]), model.params["perc.bias"])))


def perception_score(model: Model, g: Graph) -> Tensor:
    """Scalar head in [0, 1] of one graph: its batch-of-one perception score."""
    return sum_all(perception_scores(model, GraphBatch([g])))


def perception_scores(model: Model, batch: GraphBatch) -> Tensor:
    """(B,) perception scores of a batch, from one forward."""
    return _perception_head(model, batch_embeddings(model, batch))


def _as_batch(graphs) -> GraphBatch:
    return graphs if isinstance(graphs, GraphBatch) else GraphBatch(graphs)


def batch_task_loss(model: Model, batch: GraphBatch, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of a batch of graphs under the task head.

    ``batch`` is a GraphBatch; a list of graphs is batched first."""
    return cross_entropy(_task_head(model, batch_embeddings(model, _as_batch(batch))), labels)


def batch_logits(model: Model, batch: GraphBatch) -> Tensor:
    """(B, n_classes) task logits, from one forward.

    ``batch`` is a GraphBatch; a list of graphs is batched first."""
    return _task_head(model, batch_embeddings(model, _as_batch(batch)))


def check_same_arch(a: Model, b: Model):
    """Hyperparameters fix the parameter layout (``param_layout``), so equal ones share it."""
    if a.hyper != b.hyper:
        raise ArchMismatchError("models do not share an architecture")


CHECKPOINT_VERSION = 3
_PACKED = np.dtype("<f8")  # the byte layout of a checkpoint's packed values: little-endian float64


def _pack(values: np.ndarray) -> str:
    return base64.b64encode(values.astype(_PACKED).tobytes()).decode("ascii")


def checkpoint_dict(model: Model) -> dict:
    """JSON-ready container. Each parameter's values are one base64 string of
    its float64 bytes, little-endian and in C order, so they round-trip bit-exactly."""
    return {
        "version": CHECKPOINT_VERSION,
        "hyper": asdict(model.hyper),
        "params": [
            {"name": n, "shape": list(p.data.shape), "values": _pack(p.data)}
            for n, p in sorted(model.params.items())
        ],
    }


_CHECKPOINT_SCHEMA = {
    "version": int,
    "hyper": field_kinds(ModelHyper),
    "params": [{"name": str, "shape": [int], "values": str}],
}


def model_from_checkpoint(doc: dict) -> Model:
    """The model a checkpoint document describes. Its parameter names and
    shapes must be exactly ``param_layout`` of its hyperparameters, and each
    parameter's packed values must hold exactly its shape's count of finite
    float64s; a malformed document raises MalformedDocumentError."""
    # The version comes first: another version's fields do not fit this schema.
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is int and version != CHECKPOINT_VERSION:
        raise MalformedDocumentError(f"unsupported checkpoint version {version}")
    check_json(doc, _CHECKPOINT_SCHEMA, "checkpoint", MalformedDocumentError)
    try:
        hyper = ModelHyper(**doc["hyper"])
    except ValueError as exc:
        raise MalformedDocumentError(f"checkpoint.hyper: {exc}") from exc
    recs = doc["params"]
    if hyper.layers > len(recs):  # every layer has a parameter record; bounds the layout's size
        raise MalformedDocumentError("checkpoint has fewer parameter records than layers")
    layout = param_layout(hyper)
    if len(recs) != len(layout) or {rec["name"]: tuple(rec["shape"]) for rec in recs} != layout:
        raise MalformedDocumentError("checkpoint parameter names or shapes differ from its architecture's")
    try:
        packed = [base64.b64decode(rec["values"], validate=True) for rec in recs]
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise MalformedDocumentError(f"checkpoint parameter values are not base64: {exc}") from exc
    sizes = [math.prod(rec["shape"]) for rec in recs]
    if [len(raw) for raw in packed] != [size * _PACKED.itemsize for size in sizes]:
        raise MalformedDocumentError("checkpoint parameter values must pack one float64 per element of their shape")
    flat = np.frombuffer(b"".join(packed), dtype=_PACKED).astype(float)
    if not np.all(np.isfinite(flat)):
        raise MalformedDocumentError("checkpoint parameter values must be finite")
    # Each parameter is a view of the checked flat vector, so it is not checked again.
    params = {
        rec["name"]: Tensor.prechecked(flat[end - size : end].reshape(rec["shape"]), True)
        for rec, size, end in zip(recs, sizes, accumulate(sizes))
    }
    return Model(hyper, params)


def save_checkpoint(model: Model, path: str):
    emit_report(checkpoint_dict(model), path)


def load_checkpoint(path: str) -> Model:
    return model_from_checkpoint(read_report(path))
