"""Adam with decoupled weight decay, the shared training loop, spectral
normalization, gradient norms."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..errors import GradsAbsentError, NonFiniteGradientError, NonFiniteLossError, NonFiniteValueError
from .model import Model
from .tape import Tensor


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, model: Model):
        self.step = 0
        self.m = {n: np.zeros_like(p.data) for n, p in model.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in model.params.items()}


def adam_step(
    model: Model,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 0.01,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 5e-4,
) -> AdamState:
    """One Adam update with bias correction, in place.

    Weight decay is decoupled and applied to the backbone and task head
    only; the perception head is excluded so that spectral normalization,
    not decay, controls its sensitivity. A non-finite gradient or updated
    value raises before that parameter is written, so parameters stay finite.
    """
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


def train_loop(
    model: Model,
    batch_loss: Callable[[np.ndarray], tuple[Tensor, Tensor]],
    n_items: int,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    lr: float,
    weight_decay: float,
    spectral_nu: float | None = None,
) -> Iterator[tuple[int, float]]:
    """Mini-batch Adam over ``n_items`` training items, trained in place.

    Each epoch draws one ``rng.permutation(n_items)`` and slices it into
    batches; ``batch_loss(batch_idx)`` returns the loss to minimize and the
    part of it to report, and may draw further from ``rng``. With
    ``spectral_nu`` the perception head is spectrally normalized after every
    step. Yields ``(epoch, mean reported value)`` after each epoch. A
    non-finite loss, gradient or update raises NonFiniteLossError whose
    ``checkpoint`` is a copy of the model at the start of the failing epoch.
    """
    state = AdamState(model)
    for epoch in range(epochs):
        last_good = model.copy()
        order = rng.permutation(n_items)
        total = 0.0
        batches = 0
        for start in range(0, n_items, batch_size):
            try:
                model.zero_grad()
                loss, reported = batch_loss(order[start : start + batch_size])
                loss.backward()
                adam_step(model, model.gradients(), state, lr=lr, weight_decay=weight_decay)
                if spectral_nu is not None:
                    apply_spectral_norm_inplace(model, nu=spectral_nu)
            except NonFiniteValueError as exc:
                err = NonFiniteLossError(
                    f"loss became non-finite at epoch {epoch}; last checkpoint attached"
                )
                err.checkpoint = last_good
                raise err from exc
            total += float(reported.data)
            batches += 1
            # Drop this batch's tape now, not while the next batch builds its own.
            del loss, reported
        yield epoch, total / max(batches, 1)


_POWER_ITER_CAP = 1000
_POWER_ITER_TOL = 1e-12


def _finite_norm(x: np.ndarray) -> float:
    norm = np.linalg.norm(x)
    if not np.isfinite(norm):
        raise NonFiniteValueError("spectral norm estimate sigma is not finite")
    return norm


def spectral_normalize(weights, nu: float = 1.0, iters: int = 20):
    """Rescale a matrix so its top singular value is at most nu.

    Power iteration from a deterministic all-ones start vector estimates the
    top singular value sigma; the result is weights * min(1, nu / sigma).
    ``iters`` is the minimum number of alternations; iteration continues
    until the estimate stabilizes (or a fixed cap), which keeps the result
    within 1% of a full SVD even on near-degenerate spectra. Accepts a
    Tensor or ndarray and returns the same kind. Raises NonFiniteValueError
    when the estimate overflows or the weights are not finite.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    is_tensor = isinstance(weights, Tensor)
    w = weights.data if is_tensor else np.asarray(weights, dtype=float)
    mat = w.reshape(w.shape[0], -1)
    v = np.ones(mat.shape[1]) / np.sqrt(mat.shape[1])
    sigma = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max(iters, _POWER_ITER_CAP)):
            u = mat @ v
            nu_u = _finite_norm(u)
            if nu_u < 1e-30:
                return weights
            u = u / nu_u
            v = mat.T @ u
            nv = _finite_norm(v)
            if nv < 1e-30:
                return weights
            v = v / nv
            prev = sigma
            sigma = float(u @ mat @ v)
            if k + 1 >= iters and abs(sigma - prev) <= _POWER_ITER_TOL * max(abs(sigma), 1e-30):
                break
    factor = min(1.0, nu / sigma) if sigma > 0 else 1.0
    scaled = w * factor
    if is_tensor:
        return Tensor(scaled, requires_grad=weights.requires_grad)
    return scaled


def apply_spectral_norm_inplace(model: Model, nu: float = 1.0, iters: int = 20):
    """Spectrally normalize the perception head's weight matrix in place."""
    head = model.params["perc.weight"]
    head.data = spectral_normalize(head.data, nu, iters)


def param_grad_norm(model: Model, prefixes: tuple[str, ...] | None = None) -> float:
    """Euclidean norm of the flattened gradients of the selected parameters.

    ``prefixes`` selects parameter names by prefix; None selects all.
    """
    total = 0.0
    selected = False
    for name, p in model.params.items():
        if prefixes is not None and not any(name.startswith(pre) for pre in prefixes):
            continue
        selected = True
        if p.grad is None:
            raise GradsAbsentError(f"no gradient for {name}; run backward() first")
        total += float((p.grad**2).sum())
    if not selected:
        raise GradsAbsentError("selector matched no parameters")
    return float(np.sqrt(total))
