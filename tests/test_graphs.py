import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmark.carriers import ProtocolParams, build_bundle
from invmark.data import er_graph, make_synthetic_task
from invmark.errors import DegenerateScaleError, InsufficientDataError
from invmark.graphs import (
    Graph,
    NormalizationConstants,
    degree_features,
    fit_normalization,
    fit_normalization_values,
    graph_statistics,
    lambda2,
    laplacian,
    local_clustering,
    normalize_lambda2_value,
    spectrum,
    wl_hash,
)

from conftest import complete_graph, cycle_graph, path_graph, relabel
from oracles import wl_hash_fnv


# --- independent oracles -------------------------------------------------------


def _poly_deg(p):
    return len(p) - 1


def _poly_trim(p):
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _poly_deriv(p):
    n = _poly_deg(p)
    return _poly_trim([c * (n - i) for i, c in enumerate(p[:-1])]) if n > 0 else [Fraction(0)]


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while _poly_deg(a) >= _poly_deg(b) and any(c != 0 for c in a):
        shift = _poly_deg(a) - _poly_deg(b)
        factor = a[0] / b[0]
        q[len(q) - 1 - shift] = factor
        for i, c in enumerate(b):
            a[i] -= factor * c
        a = _poly_trim(a)
        if _poly_deg(a) == 0 and a[0] == 0:
            break
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while any(c != 0 for c in b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return [c / a[0] for c in a]  # monic


def charpoly_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues via an exact characteristic polynomial root solve.

    Faddeev-LeVerrier over exact rationals gives the characteristic
    polynomial; Yun's square-free decomposition separates repeated roots so
    the float root solve only ever sees simple roots.
    """
    n = mat.shape[0]
    ints = np.rint(mat).astype(object)
    assert np.allclose(mat, ints.astype(float)), "oracle expects an integer matrix"
    coeffs = [Fraction(1)]
    aux = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    m = [[Fraction(int(ints[i, j])) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        aux = [[sum(m[i][l] * aux[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(aux[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            aux[i][i] += c
    # Yun's algorithm: p = prod a_i^i with each a_i square-free.
    p = _poly_trim(coeffs)
    factors = []
    g = _poly_gcd(p, _poly_deriv(p))
    if _poly_deg(g) == 0:
        factors.append((1, p))
    else:
        w, _ = _poly_divmod(p, g)
        y, _ = _poly_divmod(_poly_deriv(p), g)
        z = [a - b for a, b in _pad(y, _poly_deriv(w))]
        i = 1
        while _poly_deg(w) > 0:
            gi = _poly_gcd(w, z)
            if _poly_deg(gi) > 0:
                factors.append((i, gi))
            w, _ = _poly_divmod(w, gi)
            y, _ = _poly_divmod(z, gi)
            z = [a - b for a, b in _pad(y, _poly_deriv(w))]
            i += 1
    roots: list[float] = []
    for mult, fac in factors:
        for r in np.roots([float(c) for c in fac]):
            roots.extend([float(r.real)] * mult)
    return np.sort(np.array(roots))


def _pad(y, dw):
    width = max(len(y), len(dw))
    y = [Fraction(0)] * (width - len(y)) + list(y)
    dw = [Fraction(0)] * (width - len(dw)) + list(dw)
    return list(zip(y, dw))


def brute_force_motifs(g: Graph) -> tuple[float, ...]:
    """Subgraph copies of the six 4-node motifs by injective-map enumeration."""
    patterns = {
        "p4": ([(0, 1), (1, 2), (2, 3)], 2),
        "claw": ([(0, 1), (0, 2), (0, 3)], 6),
        "c4": ([(0, 1), (1, 2), (2, 3), (0, 3)], 8),
        "paw": ([(0, 1), (1, 2), (0, 2), (2, 3)], 2),
        "diamond": ([(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)], 4),
        "k4": (list(itertools.combinations(range(4), 2)), 24),
    }
    edge_set = set(g.edges)

    def has(u, v):
        return (min(u, v), max(u, v)) in edge_set

    counts = []
    for pat_edges, aut in patterns.values():
        total = 0
        for perm in itertools.permutations(range(g.node_count), 4):
            if all(has(perm[a], perm[b]) for a, b in pat_edges):
                total += 1
        counts.append(total / aut)
    return tuple(counts)


# --- laplacian -----------------------------------------------------------------


def test_laplacian_k2():
    g = Graph(2, ((0, 1),))
    assert np.array_equal(laplacian(g), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_empty():
    assert np.array_equal(laplacian(Graph(3, ())), np.zeros((3, 3)))


def test_laplacian_path3():
    g = path_graph(3)
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(laplacian(g), expected)


def test_laplacian_rows_sum_to_zero(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        g = er_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        assert np.allclose(laplacian(g).sum(axis=1), 0.0, atol=1e-12)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 5),))


# --- spectrum ------------------------------------------------------------------


def test_spectrum_k2():
    res = spectrum(Graph(2, ((0, 1),)))
    assert np.allclose(res.eigenvalues, [0.0, 2.0], atol=1e-6)
    assert res.lambda2 == pytest.approx(2.0, abs=1e-6)


def test_spectrum_c4_closed_form():
    # lambda_2 of the n-cycle is 2(1 - cos(2 pi / n))
    assert lambda2(cycle_graph(4)) == pytest.approx(2.0 * (1.0 - math.cos(2.0 * math.pi / 4)), abs=1e-6)


def test_spectrum_disconnected_zero():
    g = Graph(4, ((0, 1), (2, 3)))
    assert lambda2(g) == pytest.approx(0.0, abs=1e-6)


def test_spectrum_complete_graphs():
    for n in range(2, 9):
        assert lambda2(complete_graph(n)) == pytest.approx(float(n), abs=1e-6)


def test_spectrum_invariants(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        g = er_graph(rng, n, 0.5)
        res = spectrum(g)
        assert abs(res.eigenvalues[0]) < 1e-6
        assert np.all(res.eigenvalues >= -1e-9)
        if n >= 2:
            assert res.lambda2 == res.eigenvalues[1]


def test_spectrum_matches_charpoly_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        g = er_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        expected = charpoly_eigenvalues(laplacian(g))
        got = spectrum(g).eigenvalues
        assert np.allclose(got, expected, atol=1e-6)


# --- normalization -------------------------------------------------------------


def test_normalized_lambda2_identity():
    c = NormalizationConstants(0.0, 1.0)
    assert normalize_lambda2_value(0.5, c) == 0.5


def test_normalized_lambda2_clamps():
    c = NormalizationConstants(0.0, 2.0)
    assert normalize_lambda2_value(3.0, c) == 1.0
    assert normalize_lambda2_value(-0.1, c) == 0.0


def test_normalized_lambda2_degenerate():
    c = NormalizationConstants(1.0, 1.0)
    with pytest.raises(DegenerateScaleError):
        normalize_lambda2_value(0.5, c)


def test_normalized_lambda2_monotone():
    c = NormalizationConstants(0.3, 2.7)
    vals = [normalize_lambda2_value(x, c) for x in np.linspace(-1, 4, 101)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_fit_normalization_percentile_grid():
    consts = fit_normalization_values([float(x) for x in range(101)])
    assert consts.lambda_min == pytest.approx(5.0)
    assert consts.lambda_scale == pytest.approx(95.0)


def test_fit_normalization_zero_spread():
    with pytest.raises(DegenerateScaleError):
        fit_normalization_values([2.0] * 30)


def test_fit_normalization_tiny_sample_falls_back_to_minmax():
    consts = fit_normalization_values([1.0, 3.0])
    assert consts.lambda_min == 1.0
    assert consts.lambda_scale == 3.0


def test_fit_normalization_insufficient():
    with pytest.raises(InsufficientDataError):
        fit_normalization_values([1.0])
    with pytest.raises(InsufficientDataError):
        fit_normalization([complete_graph(3)])


def test_fit_normalization_on_graphs():
    graphs = [complete_graph(n) for n in range(2, 9)]
    consts = fit_normalization(graphs)
    assert consts.lambda_min == pytest.approx(2.0, abs=1e-6)
    assert consts.lambda_scale == pytest.approx(8.0, abs=1e-6)
    assert normalize_lambda2_value(lambda2(complete_graph(5)), consts) == pytest.approx(0.5, abs=1e-6)


# --- WL hashing ----------------------------------------------------------------


def test_wl_hash_isomorphism_invariance_small():
    g = path_graph(3)
    relabeled = relabel(g, [2, 0, 1])
    assert wl_hash(g) == wl_hash(relabeled)


def test_wl_hash_distinguishes_k3_p3():
    assert wl_hash(complete_graph(3)) != wl_hash(path_graph(3))


def test_wl_hash_empty_graphs_distinct_sizes():
    assert wl_hash(Graph(2, ())) != wl_hash(Graph(3, ()))


def test_wl_hash_all_permutations(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = er_graph(rng, n, 0.5)
        reference = wl_hash(g)
        for perm in itertools.permutations(range(n)):
            assert wl_hash(relabel(g, list(perm))) == reference


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_wl_hash_permutation_property(n, seed):
    local = np.random.default_rng(seed)
    g = er_graph(local, n, 0.5)
    perm = list(local.permutation(n))
    assert wl_hash(relabel(g, perm)) == wl_hash(g)


def test_wl_hash_stable_value():
    # Pinned digests: the hash function must not change across versions.
    assert wl_hash(path_graph(3)) == "4977fe86e0ff8d5e"
    assert wl_hash(cycle_graph(4)) == "15df98309274bdd1"


def _assert_same_classes(graphs):
    """wl_hash and the n-round FNV oracle partition ``graphs`` identically."""
    new = [wl_hash(g) for g in graphs]
    old = [wl_hash_fnv(g) for g in graphs]
    assert len(set(zip(new, old))) == len(set(new)) == len(set(old))


def test_wl_hash_refinement_equivalent_pairs():
    # Refinement cannot tell a 6-cycle from two triangles (both 2-regular),
    # but does tell them from a 6-path.
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert wl_hash(cycle_graph(6)) == wl_hash(two_triangles)
    assert wl_hash(cycle_graph(6)) != wl_hash(path_graph(6))
    # A 7-path and a triangle beside a 4-path agree after one round (same
    # degree and neighbour-degree counts) and differ only in the second.
    triangle_and_path = Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)))
    assert wl_hash(path_graph(7)) != wl_hash(triangle_and_path)
    _assert_same_classes(
        [cycle_graph(6), two_triangles, path_graph(6), Graph(6, ()), path_graph(7), triangle_and_path]
    )


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_wl_hash_classes_match_oracle_on_task_and_carriers(seed):
    task = make_synthetic_task(600, seed)
    bundle = build_bundle(task.graphs, 128, ProtocolParams(rng_seed=seed))
    _assert_same_classes(list(task.graphs) + list(bundle.carriers))


_small_graphs = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda bits: Graph(n, tuple(e for e, keep in zip(itertools.combinations(range(n), 2), bits) if keep))
    )
)


@given(st.lists(_small_graphs, min_size=2, max_size=12), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_wl_hash_matches_oracle_and_relabelling(graphs, random):
    _assert_same_classes(graphs)
    for g in graphs:
        perm = list(range(g.node_count))
        random.shuffle(perm)
        assert wl_hash(relabel(g, perm)) == wl_hash(g)


# --- statistics ----------------------------------------------------------------


def test_statistics_empty_graph():
    st_vec = graph_statistics(Graph(4, ()))
    nonzero = np.nonzero(st_vec)[0]
    assert list(nonzero) == [0]
    assert st_vec[0] == 4.0


def test_statistics_k4_motifs_and_clustering():
    st_vec = graph_statistics(complete_graph(4))
    # C(4,4) = 1; hand enumeration: 12 paths, 4 claws, 3 cycles, 12 paws,
    # 6 diamonds, 1 clique.
    assert np.allclose(st_vec[30:36], [12.0, 4.0, 3.0, 12.0, 6.0, 1.0])
    assert st_vec[26] == 1.0
    assert st_vec[27] == 1.0


def test_statistics_deterministic(rng):
    g = er_graph(rng, 10, 0.4)
    assert np.array_equal(graph_statistics(g), graph_statistics(g))


def test_statistics_motifs_match_bruteforce(rng):
    for _ in range(40):
        n = int(rng.integers(4, 7))
        g = er_graph(rng, n, float(rng.uniform(0.3, 0.9)))
        expected = np.array(brute_force_motifs(g)) / math.comb(n, 4)
        assert np.allclose(graph_statistics(g)[30:36], expected, atol=1e-9)


def test_statistics_all_finite(rng):
    for _ in range(100):
        n = int(rng.integers(1, 12))
        g = er_graph(rng, n, float(rng.uniform(0.0, 1.0)))
        assert np.all(np.isfinite(graph_statistics(g)))


def test_statistics_regular_graph_assortativity_zero():
    assert graph_statistics(cycle_graph(6))[28] == 0.0


def test_local_clustering_tree_is_zero():
    assert np.allclose(local_clustering(path_graph(5)), 0.0)


def test_degree_features_shape(rng):
    g = er_graph(rng, 8, 0.4)
    feats = degree_features(g, dim=4)
    assert feats.shape == (8, 4)
    assert np.allclose(feats[:, 0], 1.0)
