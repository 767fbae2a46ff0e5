"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Desk scale only (graphs of a few hundred nodes, hidden dims up to ~64), so
a straightforward tape with full-precision dense math is the right tool.
Each value is checked once for finiteness: an op checks its output, and a
value already checked (a dense layer's pre-activation, a loaded checkpoint's
flat vector) becomes a tensor without a second check.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteValueError, ShapeMismatchError

_SIGMOID_CLIP = 60.0


def _check_finite(data: np.ndarray):
    # A finite sum means every element is finite; only an infinite or NaN
    # sum (which may also come from overflow) needs the elementwise test.
    if not np.isfinite(data.sum()) and not np.all(np.isfinite(data)):
        raise NonFiniteValueError("tensor holds non-finite values")


class Tensor:
    """A value in the computation graph, with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=float)
        _check_finite(self.data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @classmethod
    def prechecked(cls, data: np.ndarray, requires_grad: bool) -> "Tensor":
        """A tensor over a float64 array whose values the caller has already
        checked for finiteness, built without the constructor's check."""
        out = cls.__new__(cls)
        out.data, out.grad, out.requires_grad, out._parents, out._backward = data, None, requires_grad, (), None
        return out

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, grad: np.ndarray):
        """Add ``grad`` to this tensor's gradient.

        The first gradient is stored as it comes, without a copy; each later
        one makes a new array. This is safe because no op writes into a
        gradient array in place, so an array that several tensors hold as
        their gradient, or that a node passes on, is never changed.
        """
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self):
        if self.data.ndim != 0:
            raise ShapeMismatchError("backward() expects a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward, checked: bool = False) -> Tensor:
    """The op's output node; ``checked`` when the op has checked ``data`` for finiteness itself."""
    requires_grad = any(p.requires_grad for p in parents)
    out = Tensor.prechecked(data, requires_grad) if checked else Tensor(data, requires_grad)
    if out.requires_grad:
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.data.shape))

    return _make(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-grad, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    data = a.data * factor

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * factor)

    return _make(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ grad)

    return _make(data, (a, b), backward)


def _affine_relu(x: np.ndarray, src: Tensor, to_src, w: Tensor, b: Tensor) -> Tensor:
    """max(x @ w + b, 0) as one node, for an input ``x`` computed from ``src``.

    The bias and the ReLU are applied in place in the product's buffer, and
    the pre-activation must be finite, although the ReLU would clamp a -inf
    to 0; that check covers the output too. ``to_src`` maps the gradient at
    ``x`` to the gradient at ``src``.
    """
    data = x @ w.data
    data += b.data
    _check_finite(data)
    np.maximum(data, 0.0, out=data)

    def backward(grad):
        grad = grad * (data > 0.0)
        if src.requires_grad:
            src._accumulate(to_src(grad @ w.data.T))
        if w.requires_grad:
            w._accumulate(_unbroadcast(np.swapaxes(x, -1, -2) @ grad, w.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.data.shape))

    return _make(data, (src, w, b), backward, checked=True)


def dense_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """max(x @ w + b, 0) as one node: a dense layer with a ReLU.

    ``x`` is (n, d_in) or (B, n, d_in), ``w`` is (d_in, d_out) and ``b`` is
    (d_out,). The pre-activation must be finite. The gradients equal, bit for
    bit, those of the product, the bias add and the ReLU as three separate
    nodes.
    """
    if x.data.ndim not in (2, 3) or w.data.ndim != 2 or (x.data.shape[-1],) + b.data.shape != w.data.shape:
        raise ShapeMismatchError(f"dense_relu {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    return _affine_relu(x.data, x, lambda grad: grad, w, b)


def propagate_dense_relu(prop: Tensor, h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """max((prop @ h) @ w + b, 0) as one node: a message-passing layer.

    ``prop`` is an (n, n) propagation operator or a (B, n, n) stack of them,
    ``h`` is (n, d_in) or (B, n, d_in), ``w`` is (d_in, d_out) and ``b`` is
    (d_out,). The operator is a constant and gets no gradient. The node keeps
    ``prop @ h`` for the weight gradient and sends ``h`` the gradient
    prop^T @ (g @ w^T). The pre-activation must be finite; a non-finite
    ``prop @ h`` always makes its row of the pre-activation non-finite. Values
    and gradients equal, bit for bit, those of ``prop @ h`` as its own node
    followed by ``dense_relu``.
    """
    shapes_fit = (
        h.data.ndim in (2, 3)
        and prop.data.shape == h.data.shape[:-1] + h.data.shape[-2:-1]
        and w.data.ndim == 2
        and (h.data.shape[-1],) + b.data.shape == w.data.shape
    )
    if not shapes_fit:
        raise ShapeMismatchError(
            f"propagate_dense_relu ({prop.data.shape} @ {h.data.shape}) @ {w.data.shape} + {b.data.shape}"
        )
    return _affine_relu(prop.data @ h.data, h, lambda grad: np.swapaxes(prop.data, -1, -2) @ grad, w, b)


def sigmoid(a: Tensor) -> Tensor:
    z = np.clip(a.data, -_SIGMOID_CLIP, _SIGMOID_CLIP)
    data = 1.0 / (1.0 + np.exp(-z))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * data * (1.0 - data))

    return _make(data, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.mean())

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, grad / a.data.size))

    return _make(data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, grad))

    return _make(data, (a,), backward)


def mean_rows(a: Tensor, mask: np.ndarray) -> Tensor:
    """Means over the rows (axis -2) of an (n, d) or (B, n, d) tensor.

    The permutation-invariant readout. ``mask`` (0/1, shaped like
    ``a.shape[:-1]``) counts only the rows where it is 1, so the padding of
    a batch of graphs stays out of each graph's mean.
    """
    if a.data.ndim not in (2, 3):
        raise ShapeMismatchError("mean_rows expects a 2-D or 3-D tensor")
    mask = np.asarray(mask, dtype=float)
    counts = mask.sum(axis=-1, keepdims=True)
    # Each product is exact (the mask is 0/1), and rows of two or more values
    # are summed in row order, so this is the masked product summed over rows,
    # bit for bit. (numpy sums one-value rows pairwise, so there the last bit
    # may differ.)
    data = np.einsum("...n,...nd->...d", mask, a.data) / counts

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.expand_dims(grad / counts, -2) * mask[..., None])

    return _make(data, (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax for 1-D or 2-D tensors (last axis)."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - log_z
    soft = np.exp(data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad - soft * grad.sum(axis=-1, keepdims=True))

    return _make(data, (a,), backward)


def select_classes(a: Tensor, labels: np.ndarray) -> Tensor:
    """Pick entry labels[i] from row i of a 2-D tensor."""
    idx = np.asarray(labels, dtype=int)
    rows = np.arange(a.data.shape[0])
    data = a.data[rows, idx]

    def backward(grad):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[rows, idx] = grad
            a._accumulate(full)

    return _make(data, (a,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row logits."""
    ls = log_softmax(logits)
    return scale(mean_all(select_classes(ls, labels)), -1.0)


def kl_to_teacher(student_logits: Tensor, teacher_probs: np.ndarray, temperature: float) -> Tensor:
    """Temperature-scaled KL(teacher || student), averaged over rows.

    ``teacher_probs`` are softened teacher probabilities (constant); the
    usual T^2 factor keeps gradient magnitudes comparable across T.
    """
    ls = log_softmax(scale(student_logits, 1.0 / temperature))
    p = np.asarray(teacher_probs, dtype=float)
    cross = scale(mean_all(sum_rows(mul(ls, Tensor(p)))), -1.0)
    entropy = float(-(p * np.log(np.maximum(p, 1e-300))).sum(axis=-1).mean())
    return scale(add(cross, Tensor(-entropy)), temperature**2)


def sum_rows(a: Tensor) -> Tensor:
    """Sums over the last axis: row sums of a 2-D tensor."""
    if a.data.ndim == 0:
        raise ShapeMismatchError("sum_rows expects at least a 1-D tensor")
    data = a.data.sum(axis=-1)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(np.expand_dims(grad, -1), a.data.shape).copy())

    return _make(data, (a,), backward)
