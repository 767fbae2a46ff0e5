import base64
import itertools
import os
import platform
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmark
from invmark.data import er_graph
from invmark.errors import (
    MalformedDocumentError,
    NonFiniteGradientError,
    NonFiniteLossError,
    NonFiniteValueError,
    ShapeMismatchError,
)
from invmark.graphs import Graph
from invmark.nn import (
    AdamState,
    ModelHyper,
    Tensor,
    adam_step,
    cross_entropy,
    init_model,
    batch_task_loss,
    kl_to_teacher,
    load_checkpoint,
    perception_score,
    save_checkpoint,
    spectral_normalize,
)
from invmark.nn import model as model_module
from invmark.nn import optim
from invmark.nn.model import Model, checkpoint_dict, model_from_checkpoint
from invmark.nn.optim import BETAS, EPS, LR, SPECTRAL_NU, train_loop
from invmark.nn.tape import add, dense_relu, log_softmax, matmul, mean_all, mean_rows, mul, scale, sum_all
from invmark.reports import canonical_json

from conftest import mutated_documents, one_layer, relabel
from gradcheck import finite_diff_check
from oracles import AdamStatePerParameter, adam_step_per_parameter, spectral_normalize_power_iteration


# --- layers ----------------------------------------------------------------------


def test_gcn_single_node_identity():
    g = Graph(1, ())
    h = Tensor(np.array([[[0.3, 0.7]]]))
    w = Tensor(np.eye(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    out = one_layer(g, h, weight=w, bias=b)
    assert np.allclose(out.data, h.data)


def test_gcn_zero_weights_zero_output():
    g = Graph(3, ((0, 1), (1, 2)))
    h = Tensor(np.ones((1, 3, 2)), requires_grad=True)
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    out = one_layer(g, h, weight=w, bias=b)
    assert np.allclose(out.data, 0.0)
    sum_all(out).backward()
    assert np.allclose(h.grad, 0.0)


def test_gcn_shape_mismatch():
    g = Graph(3, ((0, 1),))
    with pytest.raises(ShapeMismatchError):
        one_layer(g, Tensor(np.ones((1, 2, 2))), weight=Tensor(np.eye(2)), bias=Tensor(np.zeros(2)))


def test_gcn_gradient_check(rng):
    g = er_graph(rng, 5, 0.6)
    h = Tensor(rng.normal(size=(1, 5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    finite_diff_check([h, w, b], lambda: mean_all(one_layer(g, h, weight=w, bias=b)))


def test_gin_gradient_check(rng):
    g = er_graph(rng, 5, 0.6)
    h = Tensor(rng.normal(size=(1, 5, 3)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b1 = Tensor(rng.normal(size=4), requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    b2 = Tensor(rng.normal(size=4), requires_grad=True)
    finite_diff_check(
        [h, w1, b1, w2, b2], lambda: mean_all(one_layer(g, h, "gin", 0.3, w1=w1, b1=b1, w2=w2, b2=b2))
    )


@pytest.mark.parametrize("x_shape", [(5, 3), (2, 5, 3)])
def test_dense_relu_gradient(rng, x_shape):
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    weights = Tensor(rng.normal(size=x_shape[:-1] + (4,)))
    finite_diff_check([x, w, b], lambda: sum_all(mul(dense_relu(x, w, b), weights)))
    assert np.array_equal(dense_relu(x, w, b).data, np.maximum(x.data @ w.data + b.data, 0.0))


def test_dense_relu_kink_passes_no_gradient():
    # pre-activations exactly 0 (first column) and positive (second column)
    x = Tensor(np.array([[1.0, -1.0]]), requires_grad=True)
    w = Tensor(np.array([[1.0, 2.0], [1.0, 1.0]]), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    out = dense_relu(x, w, b)
    assert np.array_equal(out.data, [[0.0, 1.0]])
    sum_all(out).backward()
    assert np.array_equal(b.grad, [0.0, 1.0])
    assert np.array_equal(w.grad, [[0.0, 1.0], [0.0, -1.0]])
    assert np.array_equal(x.grad, [[2.0, 1.0]])


def test_dense_relu_rejects_pre_activation_overflow():
    # x @ w overflows to -inf; the ReLU would clamp it to 0, but it is refused
    x = Tensor(np.array([[1e200, 1.0]]))
    w = Tensor(np.array([[-1e200], [0.0]]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValueError):
        dense_relu(x, w, Tensor(np.zeros(1)))


@pytest.mark.parametrize("shapes", [((5, 3), (4, 2), (2,)), ((5, 3), (3, 2), (3,)), ((3,), (3, 2), (2,))])
def test_dense_relu_shape_mismatch(shapes):
    with pytest.raises(ShapeMismatchError):
        dense_relu(*(Tensor(np.ones(shape)) for shape in shapes))


def _mean_readout(h: np.ndarray) -> np.ndarray:
    return mean_rows(Tensor(h), np.ones(h.shape[:-1])).data


def test_mean_readout_values():
    assert _mean_readout(np.array([[1.0], [3.0]]))[0] == 2.0
    row = np.array([[0.2, 0.4, 0.6]])
    assert np.allclose(_mean_readout(row), row[0])


def test_mean_readout_permutation_invariant(rng):
    h = rng.normal(size=(6, 3))
    perm = rng.permutation(6)
    assert np.allclose(_mean_readout(h), _mean_readout(h[perm]))


def test_cross_entropy_gradient(rng):
    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    labels = np.array([0, 2, 1, 2])
    finite_diff_check([logits], lambda: cross_entropy(logits, labels))


def test_log_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(3, 5)))
    assert np.allclose(np.exp(log_softmax(x).data).sum(axis=1), 1.0)


def test_kl_to_teacher_zero_when_equal(rng):
    logits_np = rng.normal(size=(4, 3))
    t = 2.0
    soft = np.exp(logits_np / t)
    soft = soft / soft.sum(axis=1, keepdims=True)
    student = Tensor(logits_np, requires_grad=True)
    loss = kl_to_teacher(student, soft, t)
    assert loss.data == pytest.approx(0.0, abs=1e-12)


def test_kl_to_teacher_gradient(rng):
    teacher = rng.normal(size=(3, 4))
    t = 2.0
    soft = np.exp(teacher / t)
    soft = soft / soft.sum(axis=1, keepdims=True)
    student = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    finite_diff_check([student], lambda: kl_to_teacher(student, soft, t))


# --- gradient accumulation ----------------------------------------------------------
# A tensor's first gradient is the array its consumer passed, not a copy.


def test_square_through_one_tensor_gets_both_gradients(rng):
    r = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    sum_all(mul(r, r)).backward()
    assert np.array_equal(r.grad, r.data + r.data)


def test_tensor_feeding_two_nodes_sums_their_gradients(rng):
    x = Tensor(rng.normal(size=4), requires_grad=True)
    a, b = scale(x, 2.0), scale(x, -3.0)
    sum_all(add(a, b)).backward()
    # add passes one array to both operands; each scale makes its own
    assert a.grad is b.grad
    assert np.array_equal(x.grad, np.full(4, 2.0) + np.full(4, -3.0))


def test_second_backward_leaves_earlier_gradient_arrays_intact(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    sum_all(matmul(x, w)).backward()
    first_x, first_w = x.grad, w.grad
    kept_x, kept_w = first_x.copy(), first_w.copy()
    sum_all(matmul(x, w)).backward()
    assert np.array_equal(first_x, kept_x) and np.array_equal(first_w, kept_w)
    assert np.array_equal(x.grad, kept_x + kept_x) and np.array_equal(w.grad, kept_w + kept_w)


# --- perception head -----------------------------------------------------------


def _tiny_model(seed=0, backbone="gcn"):
    return init_model(ModelHyper(feature_dim=4, hidden_dim=6, layers=2, n_classes=2, backbone=backbone), seed)


def test_perception_score_zero_weights_is_half():
    model = _tiny_model()
    for p in model.params.values():
        p.data = np.zeros_like(p.data)
    g = Graph(3, ((0, 1), (1, 2)))
    assert float(perception_score(model, g).data) == 0.5


@pytest.mark.parametrize("backbone", ["gcn", "gin"])
@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_forward_refuses_a_non_finite_pre_activation(backbone, layer, sign):
    # The first layer is a dense layer over the batch's kept P @ X, the
    # second propagates; a -inf the ReLU would clamp to 0 is refused too,
    # and the output's own finiteness is not checked a second time.
    model = _tiny_model(backbone=backbone)
    for name in ("weight", "bias") if backbone == "gcn" else ("w1", "b1"):
        p = model.params[f"backbone.{layer}.{name}"]
        p.data = np.full_like(p.data, sign * np.finfo(float).max)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValueError):
        perception_score(model, Graph(3, ((0, 1), (1, 2))))


def test_perception_score_in_open_interval(rng):
    model = _tiny_model(3)
    for _ in range(10):
        g = er_graph(rng, 6, 0.5)
        s = float(perception_score(model, g).data)
        assert 0.0 < s < 1.0


def test_perception_score_permutation_invariant(rng):
    model = _tiny_model(1)
    g = er_graph(rng, 5, 0.6)
    base = float(perception_score(model, g).data)
    for perm in itertools.permutations(range(5)):
        assert float(perception_score(model, relabel(g, list(perm))).data) == pytest.approx(base, abs=1e-12)


def test_perception_score_gradient(rng):
    model = _tiny_model(2)
    g = er_graph(rng, 3, 0.9)
    params = list(model.params.values())
    finite_diff_check(params, lambda: perception_score(model, g))


def test_task_logits_gradient(rng):
    model = _tiny_model(4, backbone="gin")
    graphs = [er_graph(rng, 4, 0.7), er_graph(rng, 5, 0.5)]
    labels = np.array([1, 0])
    params = list(model.params.values())
    finite_diff_check(params, lambda: batch_task_loss(model, graphs, labels))


# --- spectral normalization -----------------------------------------------------


def test_spectral_normalize_diag():
    # the head is one column; a square matrix is refused, not normalized
    with pytest.raises(ShapeMismatchError):
        spectral_normalize(np.diag([3.0, 1.0]))
    with pytest.raises(ShapeMismatchError):
        spectral_normalize(np.ones(3))


def test_spectral_normalize_noop_when_small():
    w = np.array([[0.3], [0.4]])
    assert np.array_equal(spectral_normalize(w), w)
    assert np.allclose(spectral_normalize(np.array([[3.0], [4.0]])), [[0.6], [0.8]])


def test_spectral_normalize_zero_matrix():
    w = np.zeros((3, 1))
    assert np.array_equal(spectral_normalize(w), w)


def test_spectral_normalize_raises_on_overflow():
    # the column's length overflows; the weights must not pass unscaled
    with pytest.raises(NonFiniteValueError):
        spectral_normalize(np.full((32, 1), 1e307))
    with pytest.raises(NonFiniteValueError):
        spectral_normalize(np.array([[1.0], [np.nan]]))


def test_spectral_norm_overflow_in_training_attaches_checkpoint(rng):
    model = _tiny_model(6)
    model.params["perc.weight"].data = np.full_like(model.params["perc.weight"].data, 1e307)
    graphs = [er_graph(rng, 5, 0.5) for _ in range(4)]
    labels = np.array([0, 1, 0, 1])

    def batch_loss(idx):
        loss = batch_task_loss(model, [graphs[i] for i in idx], labels[idx])
        return loss, loss

    with pytest.raises(NonFiniteLossError) as info:
        for _ in train_loop(model, batch_loss, 4, 1, 2, rng, 0.0, spectral_norm=True):
            pass
    checkpoint = info.value.checkpoint
    assert np.all(checkpoint.params["perc.weight"].data == 1e307)


def test_spectral_normalize_against_svd_oracle(rng):
    for _ in range(500):
        w = rng.normal(size=(int(rng.integers(1, 65)), 1)) * float(rng.uniform(0.01, 4.0))
        out = spectral_normalize(w)
        assert np.linalg.svd(out, compute_uv=False)[0] <= SPECTRAL_NU * (1.0 + 1e-12)
        if np.linalg.svd(w, compute_uv=False)[0] <= SPECTRAL_NU:
            assert np.array_equal(out, w)
        # bit-equal to power iteration, so trained heads are unchanged
        assert np.array_equal(out, spectral_normalize_power_iteration(w, SPECTRAL_NU))


# --- adam ------------------------------------------------------------------------


def test_adam_zero_grad_no_move():
    model = _tiny_model(5)
    before = model.param_vector()
    grads = {n: np.zeros_like(p.data) for n, p in model.params.items()}
    adam_step(model, grads, AdamState(model), weight_decay=0.0)
    assert np.array_equal(model.param_vector(), before)


def test_adam_constant_gradient_matches_closed_form():
    # Scalar oracle: replay five Adam steps explicitly.
    hyper = ModelHyper(feature_dim=1, hidden_dim=1, layers=1, n_classes=1)
    model = init_model(hyper, 0)
    name = "task.weight"
    model.params[name].data = np.array([[0.7]])
    g = 0.3
    (b1, b2), lr, eps = BETAS, LR, EPS
    assert (lr, b1, b2, eps) == (0.01, 0.9, 0.999, 1e-8)
    theta, m, v = 0.7, 0.0, 0.0
    state = AdamState(model)
    for t in range(1, 6):
        grads = {n: np.zeros_like(p.data) for n, p in model.params.items()}
        grads[name] = np.array([[g]])
        adam_step(model, grads, state, weight_decay=0.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert model.params[name].data[0, 0] == pytest.approx(theta, abs=1e-14)


def test_adam_weight_decay_skips_perception_head():
    model = _tiny_model(6)
    perc_before = model.params["perc.weight"].data.copy()
    task_before = model.params["task.weight"].data.copy()
    grads = {n: np.zeros_like(p.data) for n, p in model.params.items()}
    adam_step(model, grads, AdamState(model), weight_decay=0.1)
    assert np.array_equal(model.params["perc.weight"].data, perc_before)
    assert not np.array_equal(model.params["task.weight"].data, task_before)


def test_adam_rejects_non_finite():
    model = _tiny_model(7)
    grads = {n: np.zeros_like(p.data) for n, p in model.params.items()}
    grads["task.bias"] = np.array([np.nan, 0.0])
    with pytest.raises(NonFiniteGradientError, match="task.bias"):
        adam_step(model, grads, AdamState(model))


def test_adam_deterministic():
    def run():
        model = _tiny_model(8)
        state = AdamState(model)
        local = np.random.default_rng(0)
        for _ in range(10):
            grads = {n: local.normal(size=p.data.shape) for n, p in model.params.items()}
            adam_step(model, grads, state)
        return model.param_vector()

    assert np.array_equal(run(), run())


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 5e-4, 0.1]), st.sampled_from(["gcn", "gin"]))
@settings(max_examples=30, deadline=None)
def test_flat_adam_equals_per_parameter_adam_bit_for_bit(seed, weight_decay, backbone):
    rng = np.random.default_rng(seed)
    flat, single = _tiny_model(seed % 7, backbone), _tiny_model(seed % 7, backbone)
    flat_state, single_state = AdamState(flat), AdamStatePerParameter(single)
    for _ in range(10):
        # each parameter has a gradient at 3 steps in 4; some are exactly 0
        grads = {
            n: rng.normal(size=p.data.shape) * rng.integers(0, 2, size=p.data.shape) if rng.random() < 0.75 else None
            for n, p in flat.params.items()
        }
        adam_step(flat, grads, flat_state, weight_decay=weight_decay)
        adam_step_per_parameter(single, grads, single_state, weight_decay=weight_decay)
    for name, span in flat_state.spans.items():
        assert flat.params[name].data.tobytes() == single.params[name].data.tobytes(), name
        assert flat_state.m[span].tobytes() == single_state.m[name].tobytes(), name
        assert flat_state.v[span].tobytes() == single_state.v[name].tobytes(), name


def test_adam_leaves_parameters_without_a_gradient_alone():
    model = _tiny_model(9)
    before = {n: p.data.copy() for n, p in model.params.items()}
    state = AdamState(model)
    grads = {n: np.ones_like(p.data) for n, p in model.params.items() if not n.startswith("perc.")}
    adam_step(model, grads, state)
    for name, span in state.spans.items():
        moved = name in grads
        assert moved != np.array_equal(model.params[name].data, before[name]), name
        assert moved == bool(np.all(state.m[span] != 0.0)), name


def test_adam_names_the_first_non_finite_update(monkeypatch):
    monkeypatch.setattr(optim, "LR", 1e300)  # adam_step reads its step size at each call
    model = _tiny_model(10)
    model.params["backbone.1.bias"].data = np.full_like(model.params["backbone.1.bias"].data, np.finfo(float).max)
    model.params["task.bias"].data = np.full_like(model.params["task.bias"].data, np.finfo(float).max)
    grads = {n: -np.ones_like(p.data) for n, p in model.params.items()}
    before = model.param_vector()
    with pytest.raises(NonFiniteValueError, match="backbone.1.bias"):
        adam_step(model, grads, AdamState(model), weight_decay=0.0)
    assert np.array_equal(model.param_vector(), before)


# --- training loop ---------------------------------------------------------------

# Run in a fresh interpreter, so that no earlier test has moved the allocator's
# thresholds. Prints the minor page faults of epochs 2-6.
_FREED_PAGES_SCRIPT = """
import resource
import numpy as np
from invmark.graphs import Graph
from invmark.nn import ModelHyper, batch_task_loss, init_model
from invmark.nn.optim import train_loop

model = init_model(ModelHyper(feature_dim=4, hidden_dim=6, layers=2, n_classes=2), 0)
graphs = [Graph(4, ((0, 1), (1, 2), (2, 3)))] * 8
labels = np.array([0, 1] * 4)

def batch_loss(idx):
    # twelve 512 kB blocks freed together, like a batch's padded arrays
    temporaries = [np.ones(1 << 16) for _ in range(12)]
    loss = batch_task_loss(model, [graphs[i] for i in idx], labels[idx])
    del temporaries
    return loss, loss

epochs = train_loop(model, batch_loss, 8, 6, 2, np.random.default_rng(0), 0.01, 0.0)
next(epochs)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in epochs:
    pass
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_training_reuses_the_pages_a_batch_frees():
    # Left to glibc's defaults, each of these 20 batches faults its 6 MB
    # (1,536 pages) in again after the previous batch's were trimmed.
    src = os.path.dirname(os.path.dirname(invmark.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FREED_PAGES_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 1000


# Run in a fresh interpreter that never trains, so that only scoring can pin
# the allocator's thresholds. Prints the minor page faults per verify of 128
# carriers after three warm-up verifies.
_SCORING_PAGES_SCRIPT = """
import resource
import numpy as np
from invmark.calibration import calibrate_thresholds
from invmark.carriers import CarrierBundle, ProtocolParams, read_key
from invmark.data import er_graph
from invmark.graphs import NormalizationConstants, wl_hash
from invmark.nn import ModelHyper, init_model
from invmark.watermark import verify

rng = np.random.default_rng(0)
carriers = {}
while len(carriers) < 128:
    g = er_graph(rng, int(rng.integers(10, 16)), 0.3)
    carriers.setdefault(wl_hash(g), g)
targets = rng.random(128)
bundle = CarrierBundle(
    tuple(carriers.values()), targets, read_key(targets)[0], NormalizationConstants(0.0, 1.0),
    ProtocolParams(rng_seed=0), "0" * 16, 16.0,
)
thresholds = calibrate_thresholds(128, 1e-6, 0.0)
model = init_model(ModelHyper(), 1)
for _ in range(3):
    verify(model, bundle, thresholds)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    verify(model, bundle, thresholds)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_scoring_reuses_the_pages_a_verify_frees():
    # Left to glibc's defaults, each verify faults in its forward's (128, 15, 32)
    # intermediates again: about 350 minor faults, against none once pinned.
    src = os.path.dirname(os.path.dirname(invmark.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _SCORING_PAGES_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) < 10


# --- checkpoints -----------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    model = _tiny_model(12)
    for p in model.params.values():
        p.data = rng.normal(size=p.data.shape)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.hyper == model.hyper
    for name in model.params:
        assert np.array_equal(loaded.params[name].data, model.params[name].data)


def test_checkpoint_is_written_as_canonical_json(tmp_path, rng):
    # model.json goes through the one JSON encoder every artifact uses
    model = _tiny_model(12)
    for p in model.params.values():
        p.data = rng.normal(size=p.data.shape)
    path = tmp_path / "model.json"
    save_checkpoint(model, str(path))
    assert path.read_text() == canonical_json(checkpoint_dict(model))
    loaded = load_checkpoint(str(path))
    assert loaded.hyper == model.hyper
    assert loaded.param_vector().tobytes() == model.param_vector().tobytes()


def test_checkpoint_values_are_little_endian_float64():
    # struct's "<d" is little-endian on every host, so this pins the packed
    # layout whatever the byte order of the machine that wrote or reads it.
    model = _tiny_model()
    doc = checkpoint_dict(model)
    rec = doc["params"][0]
    values = model.params[rec["name"]].data.ravel().tolist()
    assert base64.b64decode(rec["values"]) == struct.pack(f"<{len(values)}d", *values)
    assert checkpoint_dict(Model(model.hyper, {"x": Tensor([1.0])}))["params"][0]["values"] == "AAAAAAAA8D8="
    written = [(-1) ** i * i / 8 for i in range(len(values))]
    rec["values"] = base64.b64encode(struct.pack(f"<{len(written)}d", *written)).decode()
    assert model_from_checkpoint(doc).params[rec["name"]].data.ravel().tolist() == written


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_refuses_a_non_finite_value(value):
    # Parameters are views of the checked flat vector and are not checked
    # again; a bad value in any of them, the last one included, is refused.
    model = _tiny_model()
    for rec in checkpoint_dict(model)["params"]:
        doc = checkpoint_dict(model)
        target = next(r for r in doc["params"] if r["name"] == rec["name"])
        raw = bytearray(base64.b64decode(target["values"]))
        raw[-8:] = struct.pack("<d", value)
        target["values"] = base64.b64encode(bytes(raw)).decode()
        with pytest.raises(MalformedDocumentError, match="finite"):
            model_from_checkpoint(doc)


def test_checkpoint_layer_count_checked_before_layout(monkeypatch):
    # The layer count comes from the file and sets the layout's length: a
    # count above the number of parameter records is refused without it.
    doc = checkpoint_dict(_tiny_model())
    doc["hyper"]["layers"] = 10**9

    def no_layout(hyper):
        raise AssertionError("param_layout was called")

    monkeypatch.setattr(model_module, "param_layout", no_layout)
    with pytest.raises(MalformedDocumentError):
        model_from_checkpoint(doc)


_CHECKPOINTS = st.builds(checkpoint_dict, st.builds(_tiny_model, st.integers(0, 3), st.sampled_from(["gcn", "gin"])))


@given(mutated_documents(_CHECKPOINTS, hot=lambda path: path[:1] == ("hyper",) or {"shape", "values"} & set(path)))
@settings(max_examples=150, deadline=None)
def test_checkpoint_fuzz_raises_only_malformed_document(doc):
    try:
        model = model_from_checkpoint(doc)
    except MalformedDocumentError:
        return
    # a mutation that leaves a valid document gives a well-formed model
    assert model.params.keys() == model_module.param_layout(model.hyper).keys()
