import ast
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmark.carriers as carriers_module
from invmark.carriers import (
    CarrierBundle,
    ProtocolParams,
    build_bundle,
    bundle_from_dict,
    bundle_to_dict,
    double_edge_swap,
    estimate_rho0,
    ks_two_sample,
    read_key,
    sample_carrier,
)
from invmark.data import er_graph, make_synthetic_task
from invmark.errors import (
    EmptySampleError,
    InsufficientCarriersError,
    MalformedDocumentError,
    ProtocolExhaustedError,
)
from invmark.graphs import Graph, NormalizationConstants, graph_statistics, lambda2, wl_hash
from invmark.reports import canonical_json
from invmark.stats_util import benjamini_hochberg, kolmogorov_survival

from conftest import cycle_graph, mutated_documents
from oracles import double_edge_swap_pair_draw, max_lag_abs_corr_recentred


def star_graph(n: int) -> Graph:
    return Graph(n, tuple((0, i) for i in range(1, n)))


# --- read_key --------------------------------------------------------------------


def test_read_key_examples():
    bits, margins = read_key([0.7, 0.3, 0.5, 0.0, 1.0])
    assert bits.tolist() == [1, 0, 1, 0, 1]  # the midpoint reads as 1
    assert margins.tolist() == [abs(0.7 - 0.5), 0.2, 0.0, 0.5, 0.5]


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_read_key_monotone(a, b):
    (lo, hi), _ = read_key([min(a, b), max(a, b)])
    assert lo <= hi


def _half_readouts(path: Path):
    """``file:function`` of each ``>= 0.5`` comparison and ``- 0.5`` subtraction
    in a module; a method is named by its class."""
    def half(node):
        return isinstance(node, ast.Constant) and node.value == 0.5

    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            compares = isinstance(node, ast.Compare) and any(
                isinstance(op, ast.GtE) and half(right) for op, right in zip(node.ops, node.comparators)
            )
            subtracts = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and half(node.right)
            if compares or subtracts:
                yield f"{path.name}:{getattr(top, 'name', '<module>')}"


def test_bits_and_margins_are_read_only_by_read_key():
    # The one other half in the package is no readout: solve_eps_err refuses
    # an allowed bit-error rate of 1/2 or more.
    sources = sorted(Path(carriers_module.__file__).parent.rglob("*.py"))
    found = {site for path in sources for site in _half_readouts(path)}
    assert found == {"carriers.py:read_key", "calibration.py:solve_eps_err"}


# --- double_edge_swap ----------------------------------------------------------


def test_swap_zero_is_identity(rng):
    g = er_graph(rng, 8, 0.5)
    assert double_edge_swap(g, 0, rng).edges == g.edges


def test_swap_preserves_degree_sequence(rng):
    for _ in range(1000):
        n = int(rng.integers(4, 14))
        g = er_graph(rng, n, float(rng.uniform(0.2, 0.8)))
        if g.edge_count < 2:
            continue
        before = sorted(g.degrees())
        for swaps in (1, 5, 50):
            out = double_edge_swap(g, swaps, rng)
            assert sorted(out.degrees()) == before


def test_swap_c4_yields_valid_rewiring(rng):
    # Hand enumeration: C4 admits exactly two simple double-edge rewirings.
    valid = {
        ((0, 2), (0, 3), (1, 2), (1, 3)),
        ((0, 1), (0, 2), (1, 3), (2, 3)),
    }
    seen = set()
    for seed in range(40):
        out = double_edge_swap(cycle_graph(4), 1, np.random.default_rng(seed))
        assert sorted(out.degrees()) == [2, 2, 2, 2]
        assert out.edges in valid
        seen.add(out.edges)
    assert seen == valid


def test_swap_star_best_effort(rng):
    g = star_graph(6)
    out = double_edge_swap(g, 5, rng)
    assert out.edges == g.edges  # no simple swap exists


def test_swap_matches_pair_draw_oracle():
    # Two scalar draws per proposal consume the generator exactly as one
    # size-2 draw did: same rewiring, same generator state afterwards.
    graphs = [er_graph(np.random.default_rng(s), 4 + s % 13, 0.5) for s in range(40)]
    graphs = [g for g in graphs if g.edge_count >= 2] + [star_graph(6)]
    for seed in range(300):
        g = graphs[seed % len(graphs)]
        for swaps in (1, 7, 30):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert double_edge_swap(g, swaps, ours).edges == double_edge_swap_pair_draw(g, swaps, theirs).edges
            assert ours.bit_generator.state == theirs.bit_generator.state


# --- ks_two_sample ---------------------------------------------------------------


def test_ks_identical_samples():
    d, p = ks_two_sample([1.0, 2.0, 5.0], [1.0, 2.0, 5.0])
    assert d == 0.0
    assert p == 1.0


def test_ks_disjoint_supports():
    d, _ = ks_two_sample([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert d == 1.0


def test_ks_hand_computed_quarter():
    d, _ = ks_two_sample([1, 2, 3, 4], [2, 3, 4, 5])
    assert d == pytest.approx(0.25)


def test_ks_empty_raises():
    with pytest.raises(EmptySampleError):
        ks_two_sample([], [1.0])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_ks_self_statistic_zero(sample):
    d, p = ks_two_sample(sample, sample)
    assert d == 0.0
    assert p == 1.0


def test_kolmogorov_survival_matches_theta_dual():
    # Independent oracle: Jacobi-theta dual form of the same distribution,
    # Q(lam) = 1 - sqrt(2 pi)/lam * sum_j exp(-(2j-1)^2 pi^2 / (8 lam^2)).
    def dual(lam):
        s = sum(
            math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8 * lam**2))
            for j in range(1, 200)
        )
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * s

    for lam in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
        assert kolmogorov_survival(lam) == pytest.approx(dual(lam), abs=1e-10)


# --- sample_carrier --------------------------------------------------------------


def _dense_pool(rng, count=30, n=10):
    return [er_graph(rng, n, 0.5) for _ in range(count)]


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Calls of the named invmark.carriers functions, which still run."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _name=name, _fn=getattr(carriers_module, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(carriers_module, name, counted)
    return calls


def test_sample_carrier_accepts_with_permissive_gates(rng, monkeypatch):
    pool = _dense_pool(rng)
    seed_graph = pool[0]
    ref_clu = np.concatenate([np.zeros(g.node_count) + 0.5 for g in pool])
    # hugely permissive delta so only the hash gate binds
    monkeypatch.setattr(carriers_module, "KS_DELTA", 1e-12)
    taken = {wl_hash(g) for g in pool}
    out, digest = sample_carrier(seed_graph, taken, ref_clu, rng)
    assert digest == wl_hash(out)
    assert digest not in taken
    assert sorted(out.degrees()) == sorted(seed_graph.degrees())


def test_sample_carrier_rejects_swapless_seed(rng):
    seed_graph = star_graph(8)
    out = sample_carrier(seed_graph, {wl_hash(seed_graph)}, np.array([1.0, 2.0, 3.0]), rng)
    assert out is None


def test_sample_carrier_clustering_gate_binds(rng, monkeypatch):
    pool = _dense_pool(rng)
    seed_graph = pool[0]
    impossible_clu = np.full(200, 0.987654)  # nothing rewired will match this
    monkeypatch.setattr(carriers_module, "KS_DELTA", 0.5)
    out = sample_carrier(seed_graph, {wl_hash(g) for g in pool}, impossible_clu, rng)
    assert out is None


@pytest.mark.parametrize("hit", ["train", "accepted", None])
def test_sample_carrier_hashes_each_candidate_once(rng, monkeypatch, hit):
    seed_graph = star_graph(8)  # admits no swap: every candidate is the seed itself
    # taken holds the task support, then each accepted carrier's digest, as in build_bundle
    known = wl_hash(seed_graph)
    taken = {"train": {known}, "accepted": {wl_hash(cycle_graph(8)), known}, None: set()}[hit]
    calls = _count_calls(monkeypatch, "wl_hash", "double_edge_swap")
    out = sample_carrier(seed_graph, taken, np.zeros(8), rng)
    # a hit in taken rejects every candidate; otherwise the first one passes
    assert (out is None) == (hit is not None)
    assert calls["double_edge_swap"] == (len(carriers_module.SWAP_SCHEDULE) if hit else 1)
    assert calls["wl_hash"] == calls["double_edge_swap"]


# --- build_bundle ----------------------------------------------------------------


def _task_pool(seed=7, count=60):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(8, 17))
        graphs.append(er_graph(rng, n, 0.45))
    return graphs


def test_build_bundle_smallest():
    pool = _task_pool()
    bundle = build_bundle(pool, 1, ProtocolParams(rng_seed=3))
    assert bundle.m == 1
    assert bundle.key_bits[0] == int(bundle.targets[0] >= 0.5)
    assert bundle.carriers[0].node_count <= bundle.size_cap


def test_build_bundle_pins_the_allocator(monkeypatch):
    # Key generation builds no GraphBatch; its permutation arrays need the
    # pinned thresholds as much as a forward's intermediates do.
    calls = []
    monkeypatch.setattr(carriers_module, "keep_freed_pages", lambda: calls.append(1))
    build_bundle(_task_pool(), 1, ProtocolParams(rng_seed=3))
    assert calls == [1]


def test_build_bundle_skips_a_seed_failing_the_degree_gate_before_any_swap(monkeypatch):
    # A rewiring keeps its seed's degrees, so the degree gate runs once on
    # each drawn seed; a seed it rejects is never rewired.
    monkeypatch.setattr(carriers_module, "ks_two_sample", lambda a, b: (1.0, 0.0))
    calls = _count_calls(monkeypatch, "ks_two_sample", "double_edge_swap")
    with pytest.raises(ProtocolExhaustedError):
        build_bundle(_task_pool(), 1, ProtocolParams(rng_seed=3))
    assert calls == {"ks_two_sample": carriers_module._SEED_ATTEMPTS_PER_CARRIER, "double_edge_swap": 0}


def test_build_bundle_hashes_each_graph_once(monkeypatch):
    # Task graphs and candidates are hashed once each while sampling, and the
    # bundle's own distinctness check hashes each carrier once more.
    calls = _count_calls(monkeypatch, "wl_hash", "double_edge_swap")
    pool = _task_pool()
    bundle = build_bundle(pool, 8, ProtocolParams(rng_seed=5))
    assert calls["wl_hash"] == len(pool) + calls["double_edge_swap"] + bundle.m


def test_build_bundle_deterministic():
    pool = _task_pool()
    a = build_bundle(pool, 6, ProtocolParams(rng_seed=11))
    b = build_bundle(pool, 6, ProtocolParams(rng_seed=11))
    assert [g.edges for g in a.carriers] == [g.edges for g in b.carriers]
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.key_bits, b.key_bits)
    assert a.train_hash_set_digest == b.train_hash_set_digest


def test_build_bundle_invariants():
    pool = _task_pool()
    bundle = build_bundle(pool, 8, ProtocolParams(rng_seed=5))
    train_hashes = {wl_hash(g) for g in pool}
    carrier_hashes = [wl_hash(g) for g in bundle.carriers]
    assert len(set(carrier_hashes)) == len(carrier_hashes)
    assert not (set(carrier_hashes) & train_hashes)
    assert np.array_equal(bundle.key_bits, (bundle.targets >= 0.5).astype(int))
    assert all(g.node_count <= bundle.size_cap for g in bundle.carriers)
    assert np.all((bundle.targets >= 0.0) & (bundle.targets <= 1.0))


def test_build_bundle_rejects_size_cap_above_ceiling():
    pool = [Graph(carriers_module.MAX_SIZE_CAP + 1, ()) for _ in range(2)]
    with pytest.raises(ProtocolExhaustedError, match="ceiling"):
        build_bundle(pool, 1, ProtocolParams(rng_seed=0))


def test_build_bundle_exhaustion():
    # Stars admit no swaps, so every candidate collides with the train set.
    pool = [star_graph(6) for _ in range(30)] + [star_graph(7) for _ in range(30)]
    with pytest.raises(ProtocolExhaustedError):
        build_bundle(pool, 2, ProtocolParams(rng_seed=1))


def test_bundle_rejects_inconsistent_bits():
    pool = _task_pool()
    bundle = build_bundle(pool, 2, ProtocolParams(rng_seed=2))
    with pytest.raises(ValueError):
        CarrierBundle(
            carriers=bundle.carriers,
            targets=bundle.targets,
            key_bits=1 - bundle.key_bits,
            norm_constants=bundle.norm_constants,
            protocol=bundle.protocol,
            train_hash_set_digest=bundle.train_hash_set_digest,
            size_cap=bundle.size_cap,
        )


# --- bundle documents ------------------------------------------------------------

# sha256 of the seed-1 key (600 task graphs, m = 128): the carriers' edges, the
# targets and the key bits as canonical JSON. A change to key generation
# changes it and must update it knowingly.
_SEED_1_KEY_DIGEST = "fc7d5702b2ec36e0627701988c6291ce58a67f0e91c25be8e918fca12fcbca2f"


@functools.cache
def _seed_1_bundle() -> CarrierBundle:
    return build_bundle(make_synthetic_task(600, 1).graphs, 128, ProtocolParams(rng_seed=1))


def test_seed_1_key_is_pinned():
    doc = bundle_to_dict(_seed_1_bundle())
    key = {name: doc[name] for name in ("carriers", "targets", "key_bits")}
    assert hashlib.sha256(canonical_json(key).encode()).hexdigest() == _SEED_1_KEY_DIGEST


# The same digest at seeds 2 and 7, each from its own 600-graph task.
@pytest.mark.parametrize(
    "seed, digest",
    [
        (2, "be5caa92de172bf084772787e5bcb5413b94bf8126b2aa8202acd3065970109a"),
        (7, "7fcf7b6072de3adc2bb9cb8480234af6df7b280675b499f4549522cc82493c2a"),
    ],
)
def test_seed_2_and_7_keys_are_pinned(seed, digest):
    doc = bundle_to_dict(build_bundle(make_synthetic_task(600, seed).graphs, 128, ProtocolParams(rng_seed=seed)))
    key = {name: doc[name] for name in ("carriers", "targets", "key_bits")}
    assert hashlib.sha256(canonical_json(key).encode()).hexdigest() == digest


# sha256 of the permutation p-values that estimate_rho0 BH-corrects for the
# seed-1 key, as little-endian float64s: one per non-constant statistic, each
# from the permutation stream of its statistic's index. None survives, so the
# estimate is exactly 0.
_SEED_1_RHO0_PVALUES_DIGEST = "42c1b8f2b4512a468df856a46cb2ea4fc398088b5d9ddf2cbaaabb00236025a4"


def test_seed_1_rho0_is_pinned(monkeypatch):
    tested = []

    def recording_bh(p_values, level):
        tested.append(np.asarray(p_values, dtype="<f8").copy())
        return benjamini_hochberg(p_values, level)

    monkeypatch.setattr(carriers_module, "benjamini_hochberg", recording_bh)
    assert estimate_rho0(_seed_1_bundle()) == 0.0
    assert len(tested) == 1 and len(tested[0]) == 32
    assert hashlib.sha256(tested[0].tobytes()).hexdigest() == _SEED_1_RHO0_PVALUES_DIGEST


@functools.cache
def _small_bundle_doc() -> dict:
    return bundle_to_dict(build_bundle(_task_pool(), 4, ProtocolParams(rng_seed=2)))


def test_bundle_document_records_only_what_varies():
    doc = _small_bundle_doc()
    assert doc["version"] == 3
    assert doc["params"] == {"rng_seed": 2}
    assert sorted(doc["norm_constants"]) == ["lambda_min", "lambda_scale"]
    assert bundle_to_dict(bundle_from_dict(json.loads(json.dumps(doc)))) == doc


def test_bundle_without_carriers_is_refused():
    doc = dict(_small_bundle_doc(), carriers=[], targets=[], key_bits=[])
    with pytest.raises(MalformedDocumentError, match="empty"):
        bundle_from_dict(doc)


@given(mutated_documents(st.builds(_small_bundle_doc), hot=lambda path: "edges" not in path))
@settings(max_examples=150, deadline=None)
def test_bundle_fuzz_raises_only_malformed_document(doc):
    try:
        bundle = bundle_from_dict(doc)
    except MalformedDocumentError:
        return
    # a mutation that leaves a valid document gives a bundle with carriers
    assert bundle.m == len(doc["carriers"]) >= 1


# --- estimate_rho0 ---------------------------------------------------------------


def _bundle_of(carriers: list[Graph], seed: int) -> CarrierBundle:
    """A bundle of the given carriers, targets lambda_2 / 8 (bypasses the protocol)."""
    targets = np.array([min(1.0, max(0.0, lambda2(g) / 8.0)) for g in carriers])
    return CarrierBundle(
        carriers=tuple(carriers),
        targets=targets,
        key_bits=(targets >= 0.5).astype(int),
        norm_constants=NormalizationConstants(0.0, 8.0),
        protocol=ProtocolParams(rng_seed=seed),
        train_hash_set_digest="0" * 16,
        size_cap=32.0,
    )


def _distinct_random_bundle(seed: int, m: int) -> CarrierBundle:
    """Bundle of structurally independent random carriers."""
    rng = np.random.default_rng(seed)
    carriers = []
    hashes = set()
    while len(carriers) < m:
        g = er_graph(rng, int(rng.integers(9, 15)), float(rng.uniform(0.3, 0.7)))
        h = wl_hash(g)
        if h in hashes or g.edge_count < 2:
            continue
        hashes.add(h)
        carriers.append(g)
    return _bundle_of(carriers, seed)


def test_rho0_small_under_independence():
    # Monte Carlo of the estimator under independence: with BH control at
    # 0.05 the estimate should be 0 (no survivor) in the vast majority of runs.
    values = [estimate_rho0(_distinct_random_bundle(seed, 24)) for seed in range(12)]
    assert sum(v < 0.05 for v in values) >= 11


def test_rho0_insufficient_carriers():
    with pytest.raises(InsufficientCarriersError):
        estimate_rho0(_distinct_random_bundle(0, 2))


def _twin_bundle() -> CarrierBundle:
    """Dependent pairs: every even carrier is a one-swap twin of the carrier
    before it, so most statistics repeat with period 2 up to a small
    structural jitter."""
    rng = np.random.default_rng(31)
    carriers, hashes = [], set()
    while len(carriers) < 24:
        base = er_graph(rng, 12, 0.5)
        twin = double_edge_swap(base, 1, rng)
        h_base, h_twin = wl_hash(base), wl_hash(twin)
        if h_base == h_twin or h_base in hashes or h_twin in hashes:
            continue
        hashes.update((h_base, h_twin))
        carriers.extend((base, twin))
    return _bundle_of(carriers, 31)


def test_rho0_detects_injected_dependence():
    # The estimator must flag the twins' dependence with a correlation near 1.
    assert estimate_rho0(_twin_bundle()) >= 0.8


def _ramp_bundle(seed: int, m: int) -> CarrierBundle:
    """Carriers on 12 nodes whose edge counts ramp, 10, 11, ..., 10 + m - 1:
    carrier k holds the first 10 + k pairs of one random order."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    order = rng.permutation(len(pairs))
    return _bundle_of([Graph(12, tuple(sorted(pairs[i] for i in order[: 10 + k]))) for k in range(m)], seed)


def test_rho0_detects_a_drifting_statistic():
    # The edge count drifts smoothly along the carrier sequence: every lag
    # correlation of a ramp is 1 and permutations of 24 distinct values
    # essentially never reproduce it, so the estimator must flag it.
    assert estimate_rho0(_ramp_bundle(3, 24)) >= 0.95


def test_rho0_skips_constant_statistics(monkeypatch):
    bundle = _ramp_bundle(5, 12)
    stats = np.stack([graph_statistics(g) for g in bundle.carriers])
    assert np.std(stats[:, 0]) == 0.0  # every carrier has 12 nodes
    # a constant statistic is skipped, not treated as correlation 1
    tested = []

    def recording_corr(rows):
        tested.append(rows[0])
        return max_lag_abs_corr_recentred(rows)

    monkeypatch.setattr(carriers_module, "_max_lag_abs_corr", recording_corr)
    estimate_rho0(bundle)
    assert tested and all(np.std(row) > 0.0 for row in tested)


def _lag_rows(seed: int, m: int) -> np.ndarray:
    """Rows with heavy ties, constant windows, an all-constant row, and a tight
    cluster beside one far outlier (windows far from the row mean)."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 3, size=(400, m)).astype(float)
    rows[:80, : m // 2] = 1.0
    rows[80:160, m // 3 :] = 2.0
    rows[160:240] = rng.normal(size=(80, m))
    rows[240:320] = 1000.0 + 1e-6 * rng.normal(size=(80, m))
    rows[240:320, -1] = 0.0
    rows[-1] = 0.1
    return rows


@pytest.mark.parametrize("m", [9, 24, 40, 128])
def test_max_lag_corr_matches_recentring_oracle(m):
    rows = _lag_rows(m, m)
    ours = carriers_module._max_lag_abs_corr(rows)
    theirs = max_lag_abs_corr_recentred(rows)
    np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-12)
    # exceed counts as estimate_rho0 forms them, each row in turn the observed one
    for observed_ours, observed_theirs in zip(ours, theirs):
        assert np.sum(ours >= observed_ours - 1e-12) == np.sum(theirs >= observed_theirs - 1e-12)


def test_max_lag_corr_constant_side_is_exactly_zero():
    # Every lag window that starts at 0 is constant, so every lag gives 0.
    for value in (0.0, 0.1, 1e6):
        row = np.full((1, 24), value)
        row[0, -1] = value + 1.0
        assert carriers_module._max_lag_abs_corr(row)[0] == 0.0


@pytest.mark.parametrize("case", ["twins", "drift"])
def test_rho0_detection_matches_recentring_oracle(case, monkeypatch):
    if case == "twins":
        bundle = _twin_bundle()
    else:
        bundle = _ramp_bundle(3, 24)
    ours = estimate_rho0(bundle)
    monkeypatch.setattr(carriers_module, "_max_lag_abs_corr", max_lag_abs_corr_recentred)
    assert abs(estimate_rho0(bundle) - ours) <= 1e-12
