import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from invmark import calibration as calibration_module
from invmark.calibration import (
    PAPER_COMPAT_REFERENCE,
    AuditThresholds,
    alpha_bound,
    beta_fn_bound,
    beta_max,
    calibrate_thresholds,
    calibration_report,
    fit_pl_constant,
    monte_carlo_null,
    solve_eps_err,
    tau_from_eps,
)
from invmark.errors import (
    CalibrationInfeasibleError,
    InsufficientPairsError,
    NonpositiveInputError,
    NonpositiveSlopeError,
)


def exact_binom_tail(m: int, tau: int) -> float:
    """P[Binom(m, 1/2) >= tau] in exact rational arithmetic."""
    total = sum(math.comb(m, k) for k in range(max(tau, 0), m + 1))
    return float(Fraction(total, 2**m))


# --- eps_err / tau ---------------------------------------------------------------


def test_solve_eps_err_rho_zero():
    expected = math.sqrt(math.log(1e6) / 256.0)
    assert solve_eps_err(128, 1e-6, 0.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.23231, abs=5e-5)


def test_solve_eps_err_published_rho():
    c = min(4.0 * 7.6e-4, 0.5)
    expected = math.sqrt(math.log(1e6) / (2.0 * (1.0 - c) * 128))
    got = solve_eps_err(128, 1e-6, 7.6e-4)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.2327, abs=5e-5)


def test_solve_eps_err_infeasible():
    with pytest.raises(CalibrationInfeasibleError):
        solve_eps_err(16, 1e-6, 0.0)


def test_tau_published_exact_fraction():
    # 0.265625 = 34/128 makes ceil(128 * (1 - eps)) hit 94 exactly.
    assert tau_from_eps(128, 34.0 / 128.0) == 94


def test_tau_from_computed_eps():
    assert tau_from_eps(128, 0.23268) == 99
    assert tau_from_eps(128, solve_eps_err(128, 1e-6, 7.6e-4)) == 99


def test_tau_small_eps_is_m():
    assert tau_from_eps(50, 1e-9) == 50


def test_alpha_bound_values():
    assert alpha_bound(128, 0.0, 0.0) == 1.0
    assert alpha_bound(128, 0.25, 0.0) == pytest.approx(math.exp(-16.0), rel=1e-12)
    assert alpha_bound(128, 0.25, 0.0) == pytest.approx(1.1254e-7, abs=1e-11)


def test_beta_fn_bound_guarantee_domain():
    assert beta_fn_bound(128, 0.3, 0.31, 0.0) == 1.0
    assert beta_fn_bound(128, 0.3, 0.3, 0.0) == 1.0
    assert beta_fn_bound(128, 0.3, 0.1, 0.0) == pytest.approx(
        math.exp(-2.0 * 128 * 0.04), rel=1e-12
    )


def test_threshold_roundtrip_grid():
    for m in (16, 64, 128, 256):
        for alpha in (1e-3, 1e-6):
            for rho in (0.0, 7.6e-4):
                try:
                    eps = solve_eps_err(m, alpha, rho)
                except CalibrationInfeasibleError:
                    c = min(4.0 * rho, 0.5)
                    raw = math.sqrt(math.log(1.0 / alpha) / (2.0 * (1.0 - c) * m))
                    assert raw >= 0.5
                    continue
                bound = alpha_bound(m, eps, rho)
                assert bound <= alpha * (1.0 + 1e-9)
                # tau = ceil(m(1-eps)) only raises the match requirement
                assert tau_from_eps(m, eps) >= m * (1.0 - eps)
                assert tau_from_eps(m, eps) <= m


def test_audit_thresholds_validation():
    # Only (m, alpha, rho0) are settable; the rest is the closed form, so no
    # instance can disagree with it.
    thr = AuditThresholds(128, 1e-6, 7.6e-4)
    c = min(4.0 * 7.6e-4, 0.5)
    eps = math.sqrt(math.log(1.0 / 1e-6) / (2.0 * (1.0 - c) * 128))
    assert (thr.c_rho, thr.eps_err, thr.tau) == (c, eps, 99)
    assert thr.tau == math.ceil(128 * (1.0 - eps))
    assert calibrate_thresholds(128, 1e-6, 7.6e-4) == thr
    for name, value in (("c_rho", c), ("eps_err", eps), ("tau", 99)):
        with pytest.raises(TypeError):
            AuditThresholds(m=128, alpha=1e-6, rho0=7.6e-4, **{name: value})


def _mixing_penalties(path: Path):
    """``file:function`` of each ``min(4 * x, 0.5)`` in a module; a method is
    named by its class."""
    def penalty(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "min"):
            return False
        if len(node.args) != 2 or not isinstance(node.args[0], ast.BinOp) or not isinstance(node.args[0].op, ast.Mult):
            return False
        factors = (node.args[0].left, node.args[0].right)
        half = isinstance(node.args[1], ast.Constant) and node.args[1].value == 0.5
        return half and any(isinstance(f, ast.Constant) and f.value == 4 for f in factors)

    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if penalty(node):
                yield f"{path.name}:{getattr(top, 'name', '<module>')}"


def test_the_mixing_penalty_is_written_once():
    sources = sorted(Path(calibration_module.__file__).parent.rglob("*.py"))
    found = [site for path in sources for site in _mixing_penalties(path)]
    assert found == ["calibration.py:mixing_penalty"]


def test_calibration_report_paper_compat():
    report = calibration_report(128, 1e-6, 7.6e-4, paper_compat=True)
    assert report["computed"]["tau"] == 99
    assert report["computed"]["eps_err"] == pytest.approx(0.2327, abs=5e-5)
    block = report["paper_compat"]
    assert block["reference"]["eps_err"] == 0.2656
    assert block["reference"]["tau"] == 94
    assert block["inputs_match_reference"]
    assert block["discrepancy"]
    assert PAPER_COMPAT_REFERENCE["tau"] == 94


# --- monte carlo null --------------------------------------------------------------


def test_mc_null_degenerate_taus():
    assert monte_carlo_null(8, 0, 10, seed=0) == 1.0
    assert monte_carlo_null(8, 9, 10, seed=0) == 0.0


def test_mc_null_matches_exact_tail():
    trials = 200_000
    for m, tau in ((16, 12), (64, 40), (128, 75)):
        expected = exact_binom_tail(m, tau)
        got = monte_carlo_null(m, tau, trials, seed=7)
        sigma = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(got - expected) <= 4.0 * sigma + 1e-12


def test_mc_null_deterministic_and_order_independent():
    a = monte_carlo_null(32, 20, 100_000, seed=3)
    b = monte_carlo_null(32, 20, 100_000, seed=3)
    assert a == b
    # different chunking must not change the result: simulate by summing two halves
    first = monte_carlo_null(32, 20, 65_536, seed=3)
    assert abs(first * 65_536 - round(first * 65_536)) < 1e-6


# --- PL constant -------------------------------------------------------------------


def _quadratic_pairs(mu: float, count: int, seed: int):
    rng = np.random.default_rng(seed)
    grad_sq = rng.uniform(0.1, 4.0, size=count)
    gaps = grad_sq / (2.0 * mu)
    return list(zip(grad_sq, gaps))


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
def test_fit_pl_recovers_quadratic(mu):
    pairs = _quadratic_pairs(mu, 80, seed=3)
    fitted = fit_pl_constant(pairs)
    assert fitted == pytest.approx(mu, rel=0.10)


def test_fit_pl_magnitude_anchor():
    # Constants of the scale reported for citation-network backbones (~0.85)
    # are recovered from clean synthetic curvature data.
    pairs = _quadratic_pairs(0.85, 120, seed=9)
    assert fit_pl_constant(pairs) == pytest.approx(0.85, rel=0.10)


def test_fit_pl_huber_shrugs_outliers():
    pairs = _quadratic_pairs(0.5, 100, seed=4)
    pairs[3] = (pairs[3][0], pairs[3][1] + 50.0)
    pairs[57] = (pairs[57][0], pairs[57][1] + 80.0)
    assert fit_pl_constant(pairs) == pytest.approx(0.5, rel=0.10)


def test_fit_pl_zero_gaps():
    pairs = [(float(i + 1), 0.0) for i in range(20)]
    with pytest.raises(NonpositiveSlopeError):
        fit_pl_constant(pairs)


def test_fit_pl_insufficient():
    with pytest.raises(InsufficientPairsError):
        fit_pl_constant([(1.0, 1.0)] * 9)


# --- beta_max ----------------------------------------------------------------


def test_beta_max_published_constants():
    # sqrt(2 * 0.85 * 0.012) / 1120
    val = beta_max(0.85, 0.012, 1.12e3)
    assert val == pytest.approx(1.275e-4, abs=1e-7)
    assert 9.5e-5 <= val


def test_beta_max_scaling_and_errors():
    assert beta_max(0.85, 0.024, 1.12e3) == pytest.approx(
        math.sqrt(2.0) * beta_max(0.85, 0.012, 1.12e3), rel=1e-12
    )
    with pytest.raises(NonpositiveInputError):
        beta_max(0.0, 0.1, 1.0)

