"""Adam with decoupled weight decay, the shared training loop and spectral
normalization."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..errors import NonFiniteGradientError, NonFiniteLossError, NonFiniteValueError, ShapeMismatchError
from .model import Model
from .tape import Tensor

# Adam's step size, moment decay rates and denominator guard. adam_step reads
# them at each call.
LR = 0.01
BETAS = (0.9, 0.999)
EPS = 1e-8
# Decoupled weight decay of embedding and fine-tuning; distillation uses none.
WEIGHT_DECAY = 5e-4
# The bound spectral normalization puts on the perception head's singular value.
SPECTRAL_NU = 1.0


class AdamState:
    """First/second moment buffers plus the shared step counter.

    ``m`` and ``v`` are flat vectors over the model's parameters, in
    ``model.params`` order; ``spans`` gives each parameter's slice of them,
    and ``decays`` is False on the perception head, which weight decay skips.
    """

    def __init__(self, model: Model):
        self.step = 0
        sizes = [p.data.size for p in model.params.values()]
        ends = np.cumsum(sizes).tolist()
        self.spans = {name: slice(end - size, end) for name, size, end in zip(model.params, sizes, ends)}
        self.decays = np.concatenate(
            [np.full(size, not name.startswith("perc.")) for name, size in zip(model.params, sizes)]
        )
        self.m = np.zeros(sum(sizes))
        self.v = np.zeros(sum(sizes))


def _first_non_finite(values: np.ndarray, model: Model, names: list[str]) -> str:
    """The first of ``names`` whose stretch of the flat ``values`` is not finite."""
    start = 0
    for name in names:
        end = start + model.params[name].data.size
        if not np.all(np.isfinite(values[start:end])):
            return name
        start = end
    raise AssertionError("every value is finite")


def adam_step(
    model: Model,
    grads: dict[str, np.ndarray],
    state: AdamState,
    weight_decay: float = WEIGHT_DECAY,
) -> AdamState:
    """One Adam update with bias correction, in place, at step size LR with
    moment decay BETAS and denominator guard EPS.

    The parameters that have a gradient are updated together, as one flat
    vector; the others keep their values and their moments. Each update is
    elementwise, so it equals a per-parameter update bit for bit. Weight
    decay is decoupled and applied to the backbone and task head only; the
    perception head is excluded so that spectral normalization, not decay,
    controls its sensitivity. A non-finite gradient or updated value raises,
    naming the first such parameter, before any parameter is written.
    """
    beta1, beta2 = BETAS
    state.step += 1
    t = state.step
    present = [name for name in model.params if grads.get(name) is not None]
    if not present:
        return state
    if len(present) == len(state.spans):
        idx = slice(None)
    else:
        idx = np.concatenate([np.arange(state.spans[name].start, state.spans[name].stop) for name in present])
    g = np.concatenate([grads[name].ravel() for name in present])
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradientError(f"gradient for {_first_non_finite(g, model, present)} is not finite")
    m = beta1 * state.m[idx] + (1.0 - beta1) * g
    v = beta2 * state.v[idx] + (1.0 - beta2) * g * g
    state.m[idx], state.v[idx] = m, v
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    update = m_hat / (np.sqrt(v_hat) + EPS)
    values = np.concatenate([model.params[name].data.ravel() for name in present])
    if weight_decay > 0.0:
        np.add(update, weight_decay * values, out=update, where=state.decays[idx])
    stepped = values - LR * update
    if not np.all(np.isfinite(stepped)):
        raise NonFiniteValueError(f"update for {_first_non_finite(stepped, model, present)} is not finite")
    start = 0
    for name in present:
        p = model.params[name]
        p.data = stepped[start : start + p.data.size].reshape(p.data.shape)
        start += p.data.size
    return state


def train_loop(
    model: Model,
    batch_loss: Callable[[np.ndarray], tuple[Tensor, Tensor]],
    n_items: int,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    weight_decay: float,
    spectral_norm: bool = False,
) -> Iterator[tuple[int, float]]:
    """Mini-batch Adam over ``n_items`` training items, trained in place.

    Each epoch draws one ``rng.permutation(n_items)`` and slices it into
    batches; ``batch_loss(batch_idx)`` returns the loss to minimize and the
    part of it to report, and may draw further from ``rng``. With
    ``spectral_norm`` the perception head is spectrally normalized after every
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
                adam_step(model, model.gradients(), state, weight_decay=weight_decay)
                if spectral_norm:
                    apply_spectral_norm_inplace(model)
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


def spectral_normalize(weights: np.ndarray) -> np.ndarray:
    """Rescale a (d, 1) column so its one singular value is at most SPECTRAL_NU.

    A column's singular value is its length sigma, taken as u @ w with
    u = w / ||w||: that is the fixed point of power iteration, and it can
    differ from ||w|| in the last bit. The result is
    weights * min(1, SPECTRAL_NU / sigma). A zero column comes back
    unchanged. Raises ShapeMismatchError for any other shape and
    NonFiniteValueError when the length overflows or the weights are not
    finite.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != 1:
        raise ShapeMismatchError(f"spectral_normalize expects a (d, 1) column, got {w.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        length = np.linalg.norm(w[:, 0])
    if not np.isfinite(length):
        raise NonFiniteValueError("spectral norm sigma is not finite")
    if length < 1e-30:
        return weights
    sigma = float((w[:, 0] / length @ w)[0])
    return w * min(1.0, SPECTRAL_NU / sigma)


def apply_spectral_norm_inplace(model: Model):
    """Spectrally normalize the perception head's weight column in place."""
    head = model.params["perc.weight"]
    head.data = spectral_normalize(head.data)

