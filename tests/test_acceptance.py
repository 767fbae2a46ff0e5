"""Acceptance suite: one test per criterion, at the stated tolerances.

Heavy artifacts (trained models on the synthetic task) are built once per
session and shared. Each criterion prints a PASS line with its measured
numbers (visible with `pytest -s` or `-rA`).
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from invmark.attacks import kd, kd_epochs_for_retention, prune, prune_ratio_from_drifts, quantize
from invmark.calibration import (
    alpha_bound,
    beta_max,
    calibrate_thresholds,
    calibration_report,
    fit_pl_constant,
    monte_carlo_null,
    solve_eps_err,
    tau_from_eps,
)
from invmark.carriers import CarrierBundle, ProtocolParams, build_bundle, estimate_rho0
from invmark.data import make_synthetic_task
from invmark.errors import CalibrationInfeasibleError
from invmark.graphs import Graph, NormalizationConstants, lambda2, laplacian, spectrum, wl_hash
from invmark.hardness import (
    HittingSetInstance,
    brute_force_hitting_set,
    brute_force_wm_remove,
    reduce_hitting_set,
)
from invmark.nn import (
    ModelHyper,
    Tensor,
    batch_task_loss,
    init_model,
    kl_to_teacher,
    perception_score,
)
from invmark.nn.tape import mean_all, mean_rows
from invmark.pipeline import task_accuracy
from invmark.watermark import (
    EmbedConfig,
    drift,
    embed,
    margin,
    verify,
    wm_accuracy,
    wm_loss,
)

from conftest import complete_graph, er_graph, one_layer
from gradcheck import finite_diff_check
from test_graphs import charpoly_eigenvalues

ACCEPTANCE_SEEDS = (1, 2, 7)
EMBED_EPOCHS = 120
EMBED_BETA = 5.0


@pytest.fixture(scope="session")
def runs():
    """Trained watermarked model + beta=0 control per acceptance seed."""
    out = {}
    for seed in ACCEPTANCE_SEEDS:
        task = make_synthetic_task(600, seed=seed)
        bundle = build_bundle(task.graphs, 128, ProtocolParams(rng_seed=seed))
        rho0 = estimate_rho0(bundle)
        thresholds = calibrate_thresholds(128, 1e-6, rho0)
        tr_g, tr_y = task.subset(task.train_idx)
        te_g, te_y = task.subset(task.test_idx)
        model = init_model(ModelHyper(), seed)
        model, logs = embed(
            model, tr_g, tr_y, bundle,
            EmbedConfig(beta_wm=EMBED_BETA, epochs=EMBED_EPOCHS, seed=seed),
        )
        control = init_model(ModelHyper(), seed)
        control, _ = embed(
            control, tr_g, tr_y, bundle,
            EmbedConfig(beta_wm=0.0, epochs=EMBED_EPOCHS, seed=seed),
        )
        out[seed] = SimpleNamespace(
            task=task,
            bundle=bundle,
            rho0=rho0,
            thresholds=thresholds,
            model=model,
            control=control,
            logs=logs,
            train=(tr_g, tr_y),
            test=(te_g, te_y),
        )
    return out


def test_criterion_01_spectral_correctness(rng):
    for n in range(2, 9):
        assert lambda2(complete_graph(n)) == pytest.approx(float(n), abs=1e-6)
    disconnected = [
        Graph(4, ((0, 1), (2, 3))),
        Graph(5, ((0, 1), (1, 2))),
        Graph(3, ()),
    ]
    for g in disconnected:
        assert abs(lambda2(g)) <= 1e-6
    checked = 0
    for _ in range(150):
        n = int(rng.integers(2, 6))
        g = er_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        expected = charpoly_eigenvalues(laplacian(g))
        assert np.allclose(spectrum(g).eigenvalues, expected, atol=1e-6)
        checked += 1
    print(f"CRITERION 1: PASS (K_n exact for n=2..8, {checked} char-poly spectra matched)")


def test_criterion_02_threshold_calibration():
    feasible = 0
    for m in (16, 64, 128, 256):
        for alpha in (1e-3, 1e-6):
            for rho in (0.0, 7.6e-4):
                try:
                    eps = solve_eps_err(m, alpha, rho)
                except CalibrationInfeasibleError:
                    c = min(4.0 * rho, 0.5)
                    assert math.sqrt(math.log(1.0 / alpha) / (2.0 * (1.0 - c) * m)) >= 0.5
                    continue
                assert alpha_bound(m, eps, rho) <= alpha * (1.0 + 1e-9)
                feasible += 1
    report = calibration_report(128, 1e-6, 7.6e-4, paper_compat=True)
    assert report["computed"]["eps_err"] == pytest.approx(0.2327, abs=5e-5)
    assert report["computed"]["tau"] == 99
    assert report["paper_compat"]["reference"]["eps_err"] == 0.2656
    assert report["paper_compat"]["reference"]["tau"] == 94
    assert report["paper_compat"]["discrepancy"] is True
    print(f"CRITERION 2: PASS ({feasible} feasible grid points bounded; report carries 0.2327/99 and 0.2656/94)")


def test_criterion_03_monte_carlo_null():
    tau = tau_from_eps(128, solve_eps_err(128, 1e-6, 0.0))
    assert tau == 99
    trials = 1_000_000
    measured = monte_carlo_null(128, tau, trials, seed=20240817)
    exact = float(Fraction(sum(math.comb(128, k) for k in range(tau, 129)), 2**128))
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    assert measured <= exact + 3.0 * sigma
    print(f"CRITERION 3: PASS (measured {measured:.2e} <= exact {exact:.2e} + 3 sigma)")


def test_criterion_04_end_to_end(runs):
    lines = []
    for seed in ACCEPTANCE_SEEDS:
        r = runs[seed]
        te_g, te_y = r.test
        acc = task_accuracy(r.model, te_g, te_y)
        acc_control = task_accuracy(r.control, te_g, te_y)
        wm = wm_accuracy(r.model, r.bundle)
        drop_pp = 100.0 * (acc_control - acc)
        assert acc >= 0.90, f"seed {seed}: accuracy {acc}"
        assert wm == 1.0, f"seed {seed}: WM-ACC {wm}"
        assert drop_pp <= 2.0, f"seed {seed}: drop {drop_pp}pp"
        # the no-watermark control decodes at chance level and never verifies
        control_wm = wm_accuracy(r.control, r.bundle)
        assert 0.35 <= control_wm <= 0.65, f"seed {seed}: control WM-ACC {control_wm}"
        control_report = verify(r.control, r.bundle, r.thresholds)
        assert not control_report.verified
        owner = verify(r.model, r.bundle, r.thresholds)
        assert owner.verified and owner.match_count == 128
        lines.append(f"seed {seed}: acc {acc:.3f} (ctrl {acc_control:.3f}), WM-ACC {wm:.0%}, ctrl-WM {control_wm:.2f}")
    print("CRITERION 4: PASS (" + "; ".join(lines) + ")")


def test_criterion_05_sign_preservation(runs):
    trials_per_seed = 100
    for seed in ACCEPTANCE_SEEDS:
        r = runs[seed]
        kappa = margin(r.model, r.bundle)
        assert kappa > 0.0
        base = r.model.param_vector()
        noise_rng = np.random.default_rng([seed, 0x51617])
        for trial in range(trials_per_seed):
            direction = noise_rng.normal(size=base.shape)
            direction /= np.linalg.norm(direction)
            lo, hi = 0.0, 2.0
            chosen = None
            for _ in range(10):
                mid = 0.5 * (lo + hi)
                perturbed = r.model.copy()
                perturbed.set_param_vector(base + mid * direction)
                gamma = drift(perturbed, r.model, r.bundle)
                if gamma < 0.95 * kappa:
                    chosen = (perturbed, gamma)
                    lo = mid
                else:
                    hi = mid
            assert chosen is not None, "no perturbation scale found below the margin"
            perturbed, gamma = chosen
            assert gamma < kappa
            report = verify(perturbed, r.bundle, r.thresholds)
            assert report.match_count == r.bundle.m, (
                f"seed {seed} trial {trial}: gamma {gamma:.4f} < kappa {kappa:.4f} but T={report.match_count}"
            )
    print(f"CRITERION 5: PASS ({trials_per_seed} bounded perturbations per seed preserved all bits)")


def test_criterion_06_edit_robustness_ordering(runs):
    ptq_wins = 0
    kd_lines = []
    for seed in ACCEPTANCE_SEEDS:
        r = runs[seed]
        tr_g, _ = r.train
        wm_ptq = wm_accuracy(quantize(r.model, 8), r.bundle)
        wm_prune = wm_accuracy(prune(r.model, 0.5), r.bundle)
        if wm_ptq >= wm_prune:
            ptq_wins += 1
        epochs = kd_epochs_for_retention(0.5)
        student_init = init_model(r.model.hyper, seed + 0x2D)
        plain = kd(r.model, student_init, tr_g, epochs=epochs, seed=seed)
        defended = kd(
            r.model, student_init, tr_g, epochs=epochs, seed=seed,
            with_wm=True, bundle=r.bundle, beta_wm=EMBED_BETA,
        )
        wm_kd = wm_accuracy(plain, r.bundle)
        wm_kd_wm = wm_accuracy(defended, r.bundle)
        assert wm_kd_wm > wm_kd, f"seed {seed}: KD+WM {wm_kd_wm} !> KD {wm_kd}"
        kd_lines.append(f"seed {seed}: KD {wm_kd:.2f} < KD+WM {wm_kd_wm:.2f}; PTQ {wm_ptq:.2f} vs prune50 {wm_prune:.2f}")
    assert ptq_wins >= 2, f"PTQ beat 50% pruning in only {ptq_wins}/3 seeds"
    print(f"CRITERION 6: PASS ({'; '.join(kd_lines)}; PTQ wins {ptq_wins}/3)")


def test_criterion_07_budget_calibration_arithmetic():
    ratio = prune_ratio_from_drifts([(0.2, 0.11), (0.4, 0.19), (0.5, 0.27)])
    assert ratio == pytest.approx(0.3818, abs=5e-4)
    assert abs(ratio - 0.382) < 1e-3
    print(f"CRITERION 7: PASS (c_prune {ratio:.4f} == 0.3818 +/- 5e-4)")


def test_criterion_08_uniqueness_collision_rate():
    p, m, pairs = 0.3, 16, 100_000
    rng = np.random.default_rng(20240818)
    a = rng.random((pairs, m)) < p
    b = rng.random((pairs, m)) < p
    rate = float((a == b).all(axis=1).mean())
    expected = (1.0 - 2.0 * p * (1.0 - p)) ** m
    sigma = math.sqrt(expected * (1.0 - expected) / pairs)
    assert abs(rate - expected) <= 3.0 * sigma
    print(f"CRITERION 8: PASS (rate {rate:.2e} vs formula {expected:.2e}, |diff| <= 3 sigma)")


def test_criterion_09_reduction_equivalence(rng):
    elements3 = list(range(3))
    checked = 0
    for m in (1, 2, 3):
        nonempty = []
        for size in range(1, m + 1):
            nonempty.extend(frozenset(c) for c in itertools.combinations(range(m), size))
        for q in (1, 2, 3):
            for family in itertools.combinations(nonempty, q):
                for budget in range(0, q + 1):
                    hs = HittingSetInstance(m, family, budget)
                    hs_min = brute_force_hitting_set(hs)
                    hs_yes = hs_min is not None and hs_min <= budget
                    assert hs_yes == brute_force_wm_remove(reduce_hitting_set(hs, 1.0))
                    checked += 1
    random_checked = 0
    while random_checked < 500:
        m = int(rng.integers(1, 7))
        q = int(rng.integers(1, 9))
        sets = tuple(
            frozenset(int(x) for x in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            for _ in range(q)
        )
        hs = HittingSetInstance(m, sets, int(rng.integers(0, q + 1)))
        hs_min = brute_force_hitting_set(hs)
        hs_yes = hs_min is not None and hs_min <= hs.budget
        assert hs_yes == brute_force_wm_remove(reduce_hitting_set(hs, float(rng.uniform(0.5, 2.0))))
        random_checked += 1
    print(f"CRITERION 9: PASS ({checked} exhaustive + {random_checked} random instances, zero disagreements)")


def test_criterion_10_gradient_integrity(rng):
    cases = 50
    worst = {}

    def graph_case():
        n = int(rng.integers(3, 6))
        return er_graph(rng, n, 0.7)

    worst_val = 0.0
    for _ in range(cases):
        g = graph_case()
        h = Tensor(rng.normal(size=(1, g.node_count, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        worst_val = max(worst_val, finite_diff_check([h, w, b], lambda: mean_all(one_layer(g, h, weight=w, bias=b))))
    worst["gcn"] = worst_val

    worst_val = 0.0
    for _ in range(cases):
        g = graph_case()
        h = Tensor(rng.normal(size=(1, g.node_count, 2)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b1 = Tensor(rng.normal(size=3), requires_grad=True)
        w2 = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b2 = Tensor(rng.normal(size=3), requires_grad=True)
        worst_val = max(
            worst_val,
            finite_diff_check(
                [h, w1, b1, w2, b2], lambda: mean_all(one_layer(g, h, "gin", 0.2, w1=w1, b1=b1, w2=w2, b2=b2))
            ),
        )
    worst["gin"] = worst_val

    worst_val = 0.0
    for _ in range(cases):
        h = Tensor(rng.normal(size=(int(rng.integers(2, 6)), 3)), requires_grad=True)
        worst_val = max(worst_val, finite_diff_check([h], lambda: mean_all(mean_rows(h, np.ones(h.shape[:-1])))))
    worst["readout"] = worst_val

    hyper = ModelHyper(feature_dim=4, hidden_dim=3, layers=1, n_classes=2)
    worst_val = 0.0
    for case in range(cases):
        model = init_model(hyper, case)
        g = graph_case()
        params = list(model.params.values())
        worst_val = max(worst_val, finite_diff_check(params, lambda: perception_score(model, g)))
    worst["perception"] = worst_val

    worst_val = 0.0
    for case in range(cases):
        model = init_model(hyper, 100 + case)
        gs = [graph_case() for _ in range(2)]
        labels = np.array([0, 1])
        params = list(model.params.values())
        worst_val = max(worst_val, finite_diff_check(params, lambda: batch_task_loss(model, gs, labels)))
    worst["cross_entropy"] = worst_val

    worst_val = 0.0
    for case in range(cases):
        model = init_model(hyper, 200 + case)
        carriers, hashes = [], set()
        targets = []
        while len(carriers) < 2:
            g = graph_case()
            hash_ = wl_hash(g)
            if hash_ in hashes or g.edge_count < 2:
                continue
            hashes.add(hash_)
            carriers.append(g)
            targets.append(float(rng.uniform(0.1, 0.9)))
        targets = np.array(targets)
        bundle = CarrierBundle(
            carriers=tuple(carriers),
            targets=targets,
            key_bits=(targets >= 0.5).astype(int),
            norm_constants=NormalizationConstants(0.0, 1.0),
            protocol=ProtocolParams(rng_seed=case),
            train_hash_set_digest="0" * 16,
            size_cap=8.0,
        )
        params = list(model.params.values())
        worst_val = max(worst_val, finite_diff_check(params, lambda: wm_loss(model, bundle)))
    worst["wm_loss"] = worst_val

    worst_val = 0.0
    for _ in range(cases):
        teacher = rng.normal(size=(3, 3))
        soft = np.exp(teacher / 2.0)
        soft = soft / soft.sum(axis=1, keepdims=True)
        student = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        worst_val = max(worst_val, finite_diff_check([student], lambda: kl_to_teacher(student, soft, 2.0)))
    worst["kd_kl"] = worst_val

    assert all(v < 1e-4 for v in worst.values())
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    print(f"CRITERION 10: PASS ({cases} cases/op; worst rel errors: {summary})")


def test_extra_margin_magnitude_and_edit_drifts(runs):
    """Desk-scale companions to the criteria: trained margins reach the
    published order of magnitude, fine-tuning stays inside the margin, and
    pruning drift is finite and reported next to kappa."""
    from invmark.attacks import finetune

    kappas = {}
    for seed in ACCEPTANCE_SEEDS:
        r = runs[seed]
        kappas[seed] = margin(r.model, r.bundle)
        assert kappas[seed] > 0.05
    assert max(kappas.values()) >= 0.2

    r = runs[ACCEPTANCE_SEEDS[0]]
    tr_g, tr_y = r.train
    tuned, delta_theta = finetune(r.model, tr_g, tr_y, epochs=20, seed=41)
    gamma_ft = drift(tuned, r.model, r.bundle)
    assert math.isfinite(gamma_ft)
    assert gamma_ft < kappas[ACCEPTANCE_SEEDS[0]]
    assert verify(tuned, r.bundle, r.thresholds).verified

    pruned = prune(r.model, 0.5)
    gamma_prune = drift(pruned, r.model, r.bundle)
    assert math.isfinite(gamma_prune) and gamma_prune >= 0.0
    print(
        f"EXTRA: PASS (kappas {sorted(round(k, 3) for k in kappas.values())}; "
        f"fine-tune gamma {gamma_ft:.3f} < kappa, Delta_theta {delta_theta:.3f}; "
        f"prune50 gamma {gamma_prune:.3f})"
    )


def test_criterion_11_imperceptibility_constants():
    for mu in (0.1, 0.5, 1.0):
        local = np.random.default_rng(int(mu * 1000))
        grad_sq = local.uniform(0.1, 4.0, size=100)
        pairs = list(zip(grad_sq, grad_sq / (2.0 * mu)))
        fitted = fit_pl_constant(pairs)
        assert fitted == pytest.approx(mu, rel=0.10), f"mu {mu}: fitted {fitted}"
    cap = beta_max(0.85, 0.012, 1.12e3)
    assert cap == pytest.approx(1.275e-4, abs=1e-7)
    assert 9.5e-5 <= cap
    print(f"CRITERION 11: PASS (PL recovery within 10% for mu in 0.1/0.5/1.0; beta_max {cap:.4e}, 9.5e-5 admissible)")
