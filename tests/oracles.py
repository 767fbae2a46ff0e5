"""Earlier, slower implementations of package routines, kept as test oracles.

Each one is the straightforward version of a function the package now
computes faster; the tests check that both give the same answers.
"""

import numpy as np

from invmark.graphs import Graph
from invmark.errors import NonFiniteGradientError, NonFiniteValueError, ShapeMismatchError
from invmark.nn.tape import Tensor, _make, _unbroadcast, add, dense_relu, propagate_dense_relu

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


def wl_hash_fnv(g: Graph) -> str:
    """WL digest with n rounds of FNV-hashed labels, starting from degrees."""
    nbrs = g.neighbors()
    labels = [int(d) for d in g.degrees()]
    for _ in range(g.node_count):
        labels = [
            fnv1a64(
                "{}|{}".format(
                    labels[v], ",".join(str(x) for x in sorted(labels[u] for u in nbrs[v]))
                ).encode()
            )
            for v in range(g.node_count)
        ]
    digest = fnv1a64(",".join(str(x) for x in sorted(labels)).encode())
    return f"{digest:016x}"


def max_lag_abs_corr_recentred(rows: np.ndarray, min_lag_samples: int = 8, max_lag: int = 32) -> np.ndarray:
    """Row-wise max over lags of |Pearson autocorrelation|, re-centring every window."""
    r, m = rows.shape
    best = np.zeros(r)
    for lag in range(1, min(m - min_lag_samples, max_lag) + 1):
        x = rows[:, : m - lag]
        y = rows[:, lag:]
        xc = x - x.mean(axis=1, keepdims=True)
        yc = y - y.mean(axis=1, keepdims=True)
        sx = np.sqrt((xc**2).sum(axis=1))
        sy = np.sqrt((yc**2).sum(axis=1))
        denom = sx * sy
        ok = denom > 1e-12
        corr = np.zeros(r)
        corr[ok] = np.abs((xc * yc).sum(axis=1)[ok] / denom[ok])
        best = np.maximum(best, corr)
    return best


def double_edge_swap_pair_draw(g: Graph, swaps: int, rng: np.random.Generator) -> Graph:
    """Double-edge swaps drawing each proposal's edge pair as one size-2 array."""
    if swaps == 0:
        return Graph(g.node_count, g.edges, g.node_features)
    edges = list(g.edges)
    edge_set = set(edges)
    done = 0
    budget = 100 * max(1, swaps)
    while done < swaps and budget > 0:
        budget -= 1
        i, j = rng.integers(0, len(edges), size=2)
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
        edges[i], edges[j] = e1, e2
        done += 1
    return Graph(g.node_count, tuple(edges))


def _wrap(value) -> Tensor:
    """The oracles also take plain arrays, as constant tensors."""
    return value if isinstance(value, Tensor) else Tensor(value)


def relu(a) -> Tensor:
    """The ReLU tape node: max(a, 0), gradient 1 where a > 0."""
    a = _wrap(a)
    data = np.maximum(a.data, 0.0)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (a.data > 0.0))

    return _make(data, (a,), backward)


def matmul_stacked(a, b) -> Tensor:
    """Matrix product with numpy ``@`` semantics for 2- and 3-D operands.

    A 3-D operand is a stack of matrices; a 2-D operand next to it is shared
    by every matrix of the stack, so its gradient sums over the stack.
    """
    a, b = _wrap(a), _wrap(b)
    ranks = (a.data.ndim, b.data.ndim)
    if min(ranks) < 2 or max(ranks) > 3 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatchError(f"matmul {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.data.shape))

    return _make(data, (a, b), backward)


def gcn_layer_two_nodes(h: Tensor, prop: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """A GCN layer as the propagation product's node, then a dense_relu node."""
    return dense_relu(matmul_stacked(prop, h), weights, bias)


def gin_layer_two_nodes(h: Tensor, prop: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A GIN layer as the propagation product's node, then two dense_relu nodes."""
    return dense_relu(dense_relu(matmul_stacked(prop, h), w1, b1), w2, b2)


def gcn_layer_unfused(h: Tensor, prop: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """A GCN layer as four tape nodes: two matmuls, the bias add and the ReLU."""
    return relu(add(matmul_stacked(matmul_stacked(prop, h), weights), bias))


def gin_layer_unfused(h: Tensor, prop: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A GIN layer with its two-layer MLP as separate matmul, add and ReLU nodes."""
    hidden = relu(add(matmul_stacked(matmul_stacked(prop, h), w1), b1))
    return relu(add(matmul_stacked(hidden, w2), b2))


def gcn_layer_propagating(h: Tensor, prop: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """A GCN layer as one propagate_dense_relu node, for any input h."""
    return propagate_dense_relu(prop, h, weights, bias)


def gin_layer_propagating(h: Tensor, prop: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A GIN layer as a propagate_dense_relu node, then a dense_relu node."""
    return dense_relu(propagate_dense_relu(prop, h, w1, b1), w2, b2)


def message_passing_from_features(model, batch, gcn_layer=gcn_layer_propagating, gin_layer=gin_layer_propagating):
    """The backbone's layers with the first one propagating the input features
    itself: ``gcn_layer`` or ``gin_layer`` over the batch's padded P and X at
    every layer, as the forward ran before batches kept P @ X."""
    hyper, p = model.hyper, model.params
    prop, h = Tensor(batch.propagation(hyper)), Tensor(batch.features(hyper))
    for layer in range(hyper.layers):
        pre = f"backbone.{layer}."
        if hyper.backbone == "gcn":
            h = gcn_layer(h, prop, p[pre + "weight"], p[pre + "bias"])
        else:
            h = gin_layer(h, prop, p[pre + "w1"], p[pre + "b1"], p[pre + "w2"], p[pre + "b2"])
    return h


class AdamStatePerParameter:
    """Adam's moments as one array per parameter, keyed by name."""

    def __init__(self, model):
        self.step = 0
        self.m = {n: np.zeros_like(p.data) for n, p in model.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in model.params.items()}


def adam_step_per_parameter(model, grads, state, lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=5e-4):
    """Adam with decoupled weight decay (not on ``perc.*``), one parameter at a time."""
    beta1, beta2 = betas
    state.step += 1
    t = state.step
    for name, p in model.params.items():
        g = grads.get(name)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"gradient for {name} is not finite")
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1**t)
        v_hat = state.v[name] / (1.0 - beta2**t)
        update = m_hat / (np.sqrt(v_hat) + eps)
        if weight_decay > 0.0 and not name.startswith("perc."):
            update = update + weight_decay * p.data
        stepped = p.data - lr * update
        if not np.all(np.isfinite(stepped)):
            raise NonFiniteValueError(f"update for {name} is not finite")
        p.data = stepped
    return state


def mean_rows_product(a, mask: np.ndarray) -> Tensor:
    """The masked mean readout as the full masked product summed over rows."""
    a = _wrap(a)
    weights = np.asarray(mask, dtype=float)[..., None]
    counts = weights.sum(axis=-2)
    data = (a.data * weights).sum(axis=-2) / counts

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(np.expand_dims(grad / counts, -2) * weights, a.data.shape).copy())

    return _make(data, (a,), backward)


def spectral_normalize_power_iteration(w: np.ndarray, nu: float = 1.0, iters: int = 20) -> np.ndarray:
    """w * min(1, nu / sigma), sigma by power iteration from an all-ones start."""
    v = np.ones(w.shape[1]) / np.sqrt(w.shape[1])
    sigma = 0.0
    for k in range(1000):
        u = w @ v
        if np.linalg.norm(u) < 1e-30:
            return w
        u = u / np.linalg.norm(u)
        v = w.T @ u
        v = v / np.linalg.norm(v)
        prev, sigma = sigma, float(u @ w @ v)
        if k + 1 >= iters and abs(sigma - prev) <= 1e-12 * abs(sigma):
            break
    return w * min(1.0, nu / sigma)
