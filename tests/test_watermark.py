import math

import numpy as np
import pytest

from invmark.attacks import finetune, kd
from invmark.calibration import calibrate_thresholds
from invmark.carriers import CarrierBundle, ProtocolParams, build_bundle, estimate_rho0
from invmark.data import er_graph, make_synthetic_task
from invmark.errors import (
    ArchMismatchError,
    NonFiniteLossError,
    NonFiniteValueError,
    ScoreRangeError,
    ShapeMismatchError,
    SizeMismatchError,
)
from invmark.graphs import (
    Graph,
    NormalizationConstants,
    fit_normalization,
    lambda2,
    normalize_lambda2_value,
    wl_hash,
)
from invmark.nn import ModelHyper, init_model, optim
from invmark.watermark import (
    EmbedConfig,
    drift,
    embed,
    margin,
    verify,
    wm_accuracy,
    wm_loss,
)

from gradcheck import finite_diff_check
from test_carriers import _seed_1_bundle


def _mini_bundle(targets, seed=0) -> CarrierBundle:
    """Bundle of distinct random carriers with prescribed targets."""
    rng = np.random.default_rng(seed)
    carriers, hashes = [], set()
    while len(carriers) < len(targets):
        g = er_graph(rng, int(rng.integers(6, 10)), 0.5)
        h = wl_hash(g)
        if h in hashes or g.edge_count < 2:
            continue
        hashes.add(h)
        carriers.append(g)
    targets = np.asarray(targets, dtype=float)
    return CarrierBundle(
        carriers=tuple(carriers),
        targets=targets,
        key_bits=(targets >= 0.5).astype(int),
        norm_constants=NormalizationConstants(0.0, 1.0),
        protocol=ProtocolParams(rng_seed=seed),
        train_hash_set_digest="0" * 16,
        size_cap=16.0,
    )


def _scores_oracle(values):
    table = list(values)

    def oracle(g):
        return table.pop(0)

    return oracle


# --- wm_loss ---------------------------------------------------------------------


def _rigged_model(score: float, seed=0):
    """Zero backbone, perception bias set so every graph scores `score`."""
    model = init_model(ModelHyper(hidden_dim=4), seed)
    for p in model.params.values():
        p.data = np.zeros_like(p.data)
    model.params["perc.bias"].data = np.array([math.log(score / (1.0 - score))])
    return model


def test_wm_loss_zero_at_exact_fit():
    model = _rigged_model(0.8)
    bundle = _mini_bundle([0.8, 0.8, 0.8])
    assert wm_loss(model, bundle).data == pytest.approx(0.0, abs=1e-12)


def test_wm_loss_single_carrier_value():
    model = _rigged_model(0.8)
    bundle = _mini_bundle([0.3])
    assert wm_loss(model, bundle).data == pytest.approx(0.25, abs=1e-12)


def test_wm_loss_gradient(rng):
    model = init_model(ModelHyper(hidden_dim=5), 3)
    bundle = _mini_bundle([0.2, 0.9, 0.6], seed=4)
    params = list(model.params.values())
    finite_diff_check(params, lambda: wm_loss(model, bundle))


# --- verify ----------------------------------------------------------------------


def test_verify_all_match():
    bundle = _mini_bundle([0.9] * 5 + [0.1] * 3)
    thresholds = calibrate_thresholds(8, 0.4, 0.0)
    report = verify(_scores_oracle([0.9] * 5 + [0.1] * 3), bundle, thresholds)
    assert report.match_count == 8
    assert report.decision == "VERIFIED"
    assert report.kappa == pytest.approx(0.4)


def test_verify_match_count_hand_example():
    # key [1,0,1], decoded [1,1,1] -> T = 2
    bundle = _mini_bundle([0.8, 0.2, 0.9])
    thresholds = calibrate_thresholds(3, 0.4, 0.0)
    report = verify(_scores_oracle([0.9, 0.7, 0.8]), bundle, thresholds)
    assert list(report.decoded_bits) == [1, 1, 1]
    assert report.match_count == 2


def test_verify_size_mismatch():
    bundle = _mini_bundle([0.8, 0.2])
    thresholds = calibrate_thresholds(3, 0.4, 0.0)
    with pytest.raises(SizeMismatchError):
        verify(_scores_oracle([0.5, 0.5]), bundle, thresholds)


def test_verify_reads_only_scores():
    # verify must work with a bare callable: no model internals involved
    bundle = _mini_bundle([0.8, 0.2, 0.9, 0.1])
    thresholds = calibrate_thresholds(4, 0.4, 0.0)
    report = verify(lambda g: 0.75, bundle, thresholds)
    assert report.match_count == 2


def test_report_dict_roundtrip():
    bundle = _mini_bundle([0.8, 0.2, 0.9])
    thresholds = calibrate_thresholds(3, 0.4, 0.0)
    report = verify(_scores_oracle([0.9, 0.1, 0.8]), bundle, thresholds)
    doc = report.to_dict()
    assert doc["decision"] == "VERIFIED"
    assert doc["match_count"] == 3
    assert doc["tau"] == report.tau
    assert len(doc["per_bit_margins"]) == 3


@pytest.mark.parametrize(
    "bad, error",
    [(float("nan"), NonFiniteValueError), (float("inf"), NonFiniteValueError), (1.5, ScoreRangeError)],
)
def test_invalid_oracle_scores_raise(bad, error):
    # a NaN score must not decode as bit 0, nor 1.5 as bit 1
    bundle = _mini_bundle([0.8, 0.2, 0.9])
    thresholds = calibrate_thresholds(3, 0.4, 0.0)
    model = init_model(ModelHyper(hidden_dim=4), 0)
    with pytest.raises(error):
        verify(_scores_oracle([0.9, bad, 0.8]), bundle, thresholds)
    with pytest.raises(error):
        drift(model, _scores_oracle([0.9, 0.1, bad]), bundle)
    with pytest.raises(error):
        wm_accuracy(_scores_oracle([bad, 0.1, 0.8]), bundle)
    with pytest.raises(error):
        verify(_scores_oracle([-bad, 0.1, 0.8]), bundle, thresholds)


@pytest.mark.parametrize(
    "oracle",
    [
        lambda g: np.array([0.7]),
        lambda g: [0.7],
        lambda g: np.full((1, 1), 0.7),
        lambda g: np.array([0.7]) if g.node_count % 2 else 0.7,  # ragged
    ],
    ids=["array", "list", "matrix", "ragged"],
)
@pytest.mark.parametrize("m", [16, 128])
def test_oracle_answering_more_than_one_number_is_refused(oracle, m):
    # Read as an (m, 1) array, a one-element answer would broadcast against
    # the key bits to m x m comparisons and verify with T > m.
    bundle = _mini_bundle(np.linspace(0.05, 0.95, m)) if m == 16 else _seed_1_bundle()
    thresholds = calibrate_thresholds(m, 1e-2, 0.0)
    model = init_model(ModelHyper(hidden_dim=4), 0)
    with pytest.raises(ShapeMismatchError):
        verify(oracle, bundle, thresholds)
    with pytest.raises(ShapeMismatchError):
        drift(model, oracle, bundle)
    with pytest.raises(ShapeMismatchError):
        wm_accuracy(oracle, bundle)


# --- margin and drift --------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_a_key_oblivious_lambda2_oracle_verifies(seed):
    # A known limit, recorded so that a change to the key can show it moves:
    # each key bit is a public function of its carrier, so an oracle fitted
    # on the task graphs alone, never on the bundle, matches all m bits.
    # VERIFIED means "perceives normalized lambda_2 on these carriers".
    task = make_synthetic_task(600, seed=seed)
    constants = fit_normalization(task.graphs)
    bundle = build_bundle(task.graphs, 128, ProtocolParams(rng_seed=seed))
    thresholds = calibrate_thresholds(128, 1e-6, estimate_rho0(bundle))
    report = verify(lambda g: normalize_lambda2_value(lambda2(g), constants), bundle, thresholds)
    assert report.match_count == bundle.m
    assert report.verified


def test_margin_examples():
    bundle = _mini_bundle([0.9, 0.1, 0.8])
    assert margin(_scores_oracle([0.9, 0.1, 0.6]), bundle) == pytest.approx(0.1)
    assert margin(_scores_oracle([0.5, 0.9, 0.2]), bundle) == 0.0


def test_drift_identical_models():
    model = init_model(ModelHyper(hidden_dim=4), 0)
    bundle = _mini_bundle([0.8, 0.2])
    assert drift(model, model.copy(), bundle) == 0.0


def test_drift_hand_values():
    bundle = _mini_bundle([0.8, 0.2])
    a = _rigged_model(0.6)
    b = _rigged_model(0.6)
    b.params["perc.bias"].data = np.array([math.log(0.8 / 0.2)])
    # scores: a = 0.6 on both carriers, b = 0.8 -> drift 0.2
    assert drift(a, b, bundle) == pytest.approx(0.2, abs=1e-12)
    # score oracles are accepted in place of either model
    assert drift(_scores_oracle([0.6, 0.5]), b, bundle) == pytest.approx(0.3, abs=1e-12)


def test_drift_arch_mismatch():
    bundle = _mini_bundle([0.8])
    a = init_model(ModelHyper(hidden_dim=4), 0)
    b = init_model(ModelHyper(hidden_dim=8), 0)
    with pytest.raises(ArchMismatchError):
        drift(a, b, bundle)


# --- sign preservation (micro-scale) -----------------------------------------------


def test_sign_preservation_micro(rng):
    # Train a tiny model onto a tiny bundle, then inject parameter noise
    # scaled until measured drift approaches the margin from below: the
    # decoded bits must not move (T = m).
    # density-aligned targets: dense carriers high, sparse carriers low
    local = np.random.default_rng(9)
    carriers, hashes = [], set()
    while len(carriers) < 6:
        dense = len(carriers) < 3
        g = er_graph(local, 8, 0.8 if dense else 0.15)
        h = wl_hash(g)
        if h in hashes or g.edge_count < 2:
            continue
        hashes.add(h)
        carriers.append(g)
    targets = np.array([0.9, 0.85, 0.88, 0.12, 0.08, 0.15])
    bundle = CarrierBundle(
        carriers=tuple(carriers),
        targets=targets,
        key_bits=(targets >= 0.5).astype(int),
        norm_constants=NormalizationConstants(0.0, 1.0),
        protocol=ProtocolParams(rng_seed=9),
        train_hash_set_digest="0" * 16,
        size_cap=16.0,
    )
    model = init_model(ModelHyper(hidden_dim=8), 7)
    graphs = [er_graph(rng, 8, 0.4) for _ in range(8)]
    labels = np.array([i % 2 for i in range(8)])
    model, _ = embed(
        model, graphs, labels, bundle,
        EmbedConfig(beta_wm=20.0, epochs=150, batch_size=8, seed=7),
    )
    assert wm_accuracy(model, bundle) == 1.0
    kappa = margin(model, bundle)
    assert kappa > 0.02
    thresholds = calibrate_thresholds(bundle.m, 0.4, 0.0)
    noise_rng = np.random.default_rng(11)
    for _ in range(20):
        direction = noise_rng.normal(size=model.param_vector().shape)
        scale = 0.05
        perturbed = model.copy()
        for _ in range(30):
            perturbed.set_param_vector(model.param_vector() + scale * direction)
            if drift(perturbed, model, bundle) < kappa:
                break
            scale *= 0.5
        gamma = drift(perturbed, model, bundle)
        assert gamma < kappa
        report = verify(perturbed, bundle, thresholds)
        assert report.match_count == bundle.m


# --- embed config ------------------------------------------------------------------


def test_embed_config_validation():
    with pytest.raises(ValueError):
        EmbedConfig(beta_wm=-1.0)
    with pytest.raises(ValueError):
        EmbedConfig(epochs=0)


def test_embed_deterministic_micro(rng):
    bundle = _mini_bundle([0.9, 0.1], seed=5)
    graphs = [er_graph(rng, 7, 0.5) for _ in range(6)]
    labels = np.array([0, 1, 0, 1, 0, 1])

    def run():
        model = init_model(ModelHyper(hidden_dim=6), 3)
        model, logs = embed(
            model, graphs, labels, bundle,
            EmbedConfig(beta_wm=2.0, epochs=5, batch_size=3, seed=3),
        )
        return model.param_vector(), [(l.task_loss, l.wm_loss, l.wm_acc) for l in logs]

    v1, logs1 = run()
    v2, logs2 = run()
    assert np.array_equal(v1, v2)
    assert logs1 == logs2


@pytest.mark.parametrize("trainer", ["embed", "finetune", "kd_wm"])
def test_divergence_raises_with_finite_checkpoint(rng, monkeypatch, trainer):
    # steps of ~1e308 overflow a parameter within three updates, even where
    # every gradient vanishes after the first; adam_step reads LR at each call
    monkeypatch.setattr(optim, "LR", 1e308)
    bundle = _mini_bundle([0.9, 0.1], seed=5)
    graphs = [er_graph(rng, 7, 0.5) for _ in range(6)]
    labels = np.array([0, 1, 0, 1, 0, 1])
    model = init_model(ModelHyper(hidden_dim=6), 3)
    with pytest.raises(NonFiniteLossError) as info:
        if trainer == "embed":
            embed(model, graphs, labels, bundle, EmbedConfig(beta_wm=2.0, epochs=3, batch_size=3))
        elif trainer == "finetune":
            finetune(model, graphs, labels, epochs=3, batch_size=3)
        else:
            student = init_model(model.hyper, 4)
            kd(model, student, graphs, with_wm=True, bundle=bundle, epochs=3, batch_size=3)
    assert np.all(np.isfinite(info.value.checkpoint.param_vector()))
