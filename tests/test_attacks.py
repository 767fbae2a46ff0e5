import hashlib

import numpy as np
import pytest

from invmark.attacks import (
    AttackSpec,
    FULL_KD_EPOCHS,
    finetune,
    kd,
    kd_epochs_for_retention,
    prune,
    prune_ratio_from_drifts,
    quantize,
)
from invmark.calibration import calibrate_thresholds
from invmark.carriers import ProtocolParams, build_bundle
from invmark.data import er_graph, make_synthetic_task
from invmark.errors import BundleRequiredError
from invmark.nn import ModelHyper, init_model, perception_score
from invmark.nn.model import batch_logits
from invmark.nn.tape import kl_to_teacher
from invmark.pipeline import parse_attack_token, run_attack
from invmark.watermark import EmbedConfig, embed



# --- prune -----------------------------------------------------------------------


def test_prune_zero_fraction_unchanged(rng):
    model = init_model(ModelHyper(hidden_dim=6), 1)
    pruned = prune(model, 0.0)
    assert np.array_equal(pruned.param_vector(), model.param_vector())


def test_prune_magnitude_order():
    # weights [1, -2, 3, -4] at p = 0.5 -> [0, 0, 3, -4]
    hyper = ModelHyper(feature_dim=2, hidden_dim=1, layers=1, n_classes=1)
    model = init_model(hyper, 0)
    for p in model.params.values():
        p.data = np.zeros_like(p.data)
    vec = model.param_vector()
    assert vec.size >= 4
    # Only four nonzero entries; everything else is zero and already "pruned".
    vec[:4] = [1.0, -2.0, 3.0, -4.0]
    model.set_param_vector(vec)
    frac = (vec.size - 4 + 2) / vec.size  # zeros first, then the two smallest
    pruned = prune(model, frac)
    out = pruned.param_vector()
    assert list(out[:4]) == [0.0, 0.0, 3.0, -4.0]
    assert np.count_nonzero(out) == 2


def test_prune_exact_count(rng):
    model = init_model(ModelHyper(hidden_dim=8), 2)
    vec = rng.normal(size=model.param_vector().shape)
    vec[vec == 0.0] = 0.5  # ensure no pre-existing zeros
    model.set_param_vector(vec)
    n = vec.size
    for frac in (0.1, 0.37, 0.5, 0.9):
        pruned = prune(model, frac)
        out = pruned.param_vector()
        expected = int(np.floor(frac * n))
        assert int((out == 0.0).sum()) == expected
        kept = out != 0.0
        assert np.array_equal(out[kept], vec[kept])
        assert np.max(np.abs(vec[~kept]), initial=0.0) <= np.min(np.abs(vec[kept]))


def test_prune_full_scores_half(rng):
    model = init_model(ModelHyper(hidden_dim=6), 3)
    pruned = prune(model, 1.0)
    assert np.all(pruned.param_vector() == 0.0)
    g = er_graph(rng, 6, 0.5)
    assert float(perception_score(pruned, g).data) == 0.5


# --- quantize --------------------------------------------------------------------


def test_quantize_hand_values():
    hyper = ModelHyper(feature_dim=3, hidden_dim=1, layers=1, n_classes=1)
    model = init_model(hyper, 0)
    for p in model.params.values():
        p.data = np.zeros_like(p.data)
    model.params["backbone.0.weight"].data = np.array([[0.5], [-1.0], [0.25]])
    quantized = quantize(model, 8)
    got = quantized.params["backbone.0.weight"].data.ravel()
    assert got[0] == pytest.approx(64.0 / 127.0, abs=1e-12)  # 0.50394
    assert got[1] == pytest.approx(-1.0, abs=1e-12)
    assert got[2] == pytest.approx(32.0 / 127.0, abs=1e-12)  # 0.25197


def test_quantize_zero_group_unchanged():
    model = init_model(ModelHyper(hidden_dim=4), 1)
    model.params["task.bias"].data = np.zeros_like(model.params["task.bias"].data)
    quantized = quantize(model, 4)
    assert np.array_equal(quantized.params["task.bias"].data, model.params["task.bias"].data)


def test_quantize_idempotent(rng):
    model = init_model(ModelHyper(hidden_dim=6), 4)
    once = quantize(model, 8)
    twice = quantize(once, 8)
    assert np.array_equal(once.param_vector(), twice.param_vector())


# --- finetune --------------------------------------------------------------------


def test_finetune_zero_gradient_no_move(rng):
    # Zero model + label-balanced single batch: every gradient is exactly
    # zero (embeddings vanish, per-sample bias gradients cancel), so Adam
    # and the decoupled decay both stay put.
    model = init_model(ModelHyper(hidden_dim=4, n_classes=2), 5)
    for p in model.params.values():
        p.data = np.zeros_like(p.data)
    graphs = [er_graph(rng, 6, 0.5) for _ in range(4)]
    labels = np.array([0, 1, 0, 1])
    tuned, delta = finetune(model, graphs, labels, epochs=3, batch_size=4, seed=1)
    assert delta == 0.0
    assert np.array_equal(tuned.param_vector(), model.param_vector())


def test_finetune_deterministic(rng):
    model = init_model(ModelHyper(hidden_dim=4), 6)
    graphs = [er_graph(rng, 6, 0.5) for _ in range(6)]
    labels = np.array([0, 1, 0, 1, 0, 1])
    _, d1 = finetune(model, graphs, labels, epochs=2, seed=9)
    _, d2 = finetune(model, graphs, labels, epochs=2, seed=9)
    assert d1 == d2
    assert d1 > 0.0


# --- kd --------------------------------------------------------------------------


def test_kd_identical_student_zero_loss(rng):
    teacher = init_model(ModelHyper(hidden_dim=4), 7)
    graphs = [er_graph(rng, 6, 0.5) for _ in range(3)]
    t_logits = batch_logits(teacher, graphs).data
    soft = np.exp(t_logits / 2.0)
    soft = soft / soft.sum(axis=1, keepdims=True)
    loss = kl_to_teacher(batch_logits(teacher, graphs), soft, 2.0)
    assert loss.data == pytest.approx(0.0, abs=1e-12)


def test_kd_requires_bundle():
    teacher = init_model(ModelHyper(hidden_dim=4), 8)
    student = init_model(ModelHyper(hidden_dim=4), 9)
    with pytest.raises(BundleRequiredError):
        kd(teacher, student, [], with_wm=True, bundle=None)


def test_kd_deterministic(rng):
    teacher = init_model(ModelHyper(hidden_dim=4), 10)
    graphs = [er_graph(rng, 6, 0.5) for _ in range(6)]

    def run():
        student = init_model(ModelHyper(hidden_dim=4), 11)
        out = kd(teacher, student, graphs, epochs=2, seed=4)
        return out.param_vector()

    assert np.array_equal(run(), run())


def test_kd_wm_attack_distils_at_the_owners_beta():
    task = make_synthetic_task(60, 7)
    bundle = build_bundle(task.graphs, 4, ProtocolParams(rng_seed=7))
    owner = init_model(ModelHyper(hidden_dim=4), 7)
    spec = parse_attack_token("KD_WM:0.5", 7)
    edited, _ = run_attack(spec, owner, task, bundle, calibrate_thresholds(4, 0.2, 0.0), 2.0)
    graphs, _ = task.subset(task.train_idx)

    def distil(beta_wm):
        student = init_model(owner.hyper, spec.seed + 0x2D)
        epochs = kd_epochs_for_retention(0.5)
        return kd(owner, student, graphs, with_wm=True, bundle=bundle, beta_wm=beta_wm, epochs=epochs, seed=7)

    at_owner_beta = distil(2.0).param_vector()
    assert edited.param_vector().tobytes() == at_owner_beta.tobytes()
    assert not np.array_equal(distil(1.0).param_vector(), at_owner_beta)


def test_kd_epochs_for_retention():
    assert kd_epochs_for_retention(1.0) == 1  # full retention: minimal distillation
    assert kd_epochs_for_retention(0.5) == FULL_KD_EPOCHS // 2
    assert kd_epochs_for_retention(0.25) == round(0.75 * FULL_KD_EPOCHS)


# --- prune ratio -----------------------------------------------------------------


def test_prune_ratio_published_drifts():
    # gamma = 0.11, 0.19, 0.27 at p = 0.2, 0.4, 0.5 -> 0.27/sqrt(0.5)
    ratio = prune_ratio_from_drifts([(0.2, 0.11), (0.4, 0.19), (0.5, 0.27)])
    assert ratio == pytest.approx(0.3818, abs=5e-4)


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(kind="SCRUB")
    with pytest.raises(ValueError):
        AttackSpec(kind="PRUNE", prune_fraction=1.5)
    with pytest.raises(ValueError):
        AttackSpec(kind="KD", kd_retention=0.0)
    with pytest.raises(ValueError, match="ft_epochs"):
        AttackSpec(kind="FINETUNE", ft_epochs=0)



# --- the write path, pinned --------------------------------------------------------

# sha256 of the loss trace and final parameters below. Any change to a float
# of training (a reordered sum, a fused op that rounds differently) changes it
# and must be declared, and so does a change to the 8-carrier key it trains
# on: 3 of the 11 seeds drawn for that key fail the degree gate.
TRAINING_PIN = "96bdaca1623887f44aa1bf10c5deeae5102c3f12e13597f5ab4e16896aed0119"


def test_training_floats_are_pinned():
    task = make_synthetic_task(60, 1)
    bundle = build_bundle(task.graphs, 8, ProtocolParams(rng_seed=1))
    graphs, labels = task.subset(task.train_idx)
    hyper = ModelHyper()
    cfg = EmbedConfig(beta_wm=5.0, epochs=2, seed=1, batch_size=16)
    owner, logs = embed(init_model(hyper, 1), graphs, labels, bundle, cfg)
    tuned, delta = finetune(owner, graphs, labels, epochs=2, seed=1, batch_size=16)
    student = init_model(hyper, 2)
    distilled = kd(owner, student, graphs, epochs=2, seed=1, batch_size=16)
    defended = kd(owner, student, graphs, with_wm=True, bundle=bundle, beta_wm=5.0, epochs=2, seed=1, batch_size=16)
    h = hashlib.sha256(repr([(log.task_loss, log.wm_loss, log.wm_acc) for log in logs] + [delta]).encode())
    for model in (owner, tuned, distilled, defended):
        h.update(model.param_vector().tobytes())
    assert h.hexdigest() == TRAINING_PIN
