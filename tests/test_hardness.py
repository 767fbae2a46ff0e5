import itertools

import numpy as np
import pytest

from invmark.errors import DimMismatchError, MalformedLineError, TooLargeError, UnsupportedInstanceError
from invmark.hardness import (
    HITTING_SET_MAX_CELLS,
    HittingSetInstance,
    MonotoneDecoder,
    WmRemoveInstance,
    brute_force_hitting_set,
    brute_force_wm_remove,
    decode_bits,
    find_certificate,
    parse_hitting_set,
    reduce_hitting_set,
    verify_certificate,
)


def exhaustive_cover_oracle(hs: HittingSetInstance) -> int | None:
    """Second enumeration with a different ordering: scan bitmasks high-to-low
    and keep the best cover size."""
    universe = frozenset(range(hs.universe_size))
    q = len(hs.sets)
    best = None
    for mask in range((1 << q) - 1, -1, -1):
        chosen = [hs.sets[j] for j in range(q) if mask >> j & 1]
        covered = frozenset().union(*chosen) if chosen else frozenset()
        if covered >= universe:
            size = bin(mask).count("1")
            if best is None or size < best:
                best = size
    return best


# --- decoder ---------------------------------------------------------------------


def test_decode_bits_examples():
    dec = MonotoneDecoder(weights=np.array([[1.0]]), thresholds=np.array([0.5]))
    assert list(decode_bits(dec, np.array([1.0]))) == [1]
    dec2 = MonotoneDecoder(weights=np.array([[1.0, 2.0], [0.5, 0.0]]), thresholds=np.array([0.3, 0.2]))
    assert list(decode_bits(dec2, np.zeros(2))) == [0, 0]


def test_decoder_rejects_negative_weights():
    with pytest.raises(ValueError):
        MonotoneDecoder(weights=np.array([[-0.1]]), thresholds=np.array([0.0]))


def test_decode_bits_dim_mismatch():
    dec = MonotoneDecoder(weights=np.ones((2, 3)), thresholds=np.zeros(2))
    with pytest.raises(DimMismatchError):
        decode_bits(dec, np.zeros(2))


def test_decode_bits_monotone(rng):
    for _ in range(1000):
        m, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        dec = MonotoneDecoder(weights=rng.uniform(0, 1, (m, d)), thresholds=rng.normal(size=m))
        theta = rng.normal(size=d)
        before = decode_bits(dec, theta)
        j = int(rng.integers(0, d))
        theta2 = theta.copy()
        theta2[j] += float(rng.uniform(0, 2))
        after = decode_bits(dec, theta2)
        assert np.all(after >= before)


# --- certificates ----------------------------------------------------------------


def _reduced_yes_instance():
    hs = HittingSetInstance(2, (frozenset({0}), frozenset({1}), frozenset({0, 1})), 1)
    return hs, reduce_hitting_set(hs, 1.0)


def test_verify_certificate_empty_support_false():
    _, inst = _reduced_yes_instance()
    assert not verify_certificate(inst, [], np.zeros(3))


def test_verify_certificate_canonical_yes():
    _, inst = _reduced_yes_instance()
    cert = find_certificate(inst)
    assert cert is not None
    support, delta = cert
    assert verify_certificate(inst, support, delta)
    assert support == [2]  # the set covering both elements


def test_verify_certificate_amplitude_violation():
    _, inst = _reduced_yes_instance()
    delta = np.zeros(3)
    delta[2] = 0.5  # below theta_min = 1.0
    assert not verify_certificate(inst, [2], delta)


def test_verify_certificate_budget_violation():
    _, inst = _reduced_yes_instance()
    delta = np.zeros(3)
    delta[0] = 1.0
    delta[1] = 1.0
    assert not verify_certificate(inst, [0, 1], delta)  # budget is 1


def test_verify_certificate_support_mismatch():
    _, inst = _reduced_yes_instance()
    delta = np.zeros(3)
    delta[1] = 1.0  # nonzero outside the declared support
    assert not verify_certificate(inst, [2], delta)


# --- reduction -------------------------------------------------------------------


def test_reduce_golden_construction():
    hs, inst = _reduced_yes_instance()
    assert inst.decoder.weights.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    assert inst.decoder.thresholds.tolist() == [0.5, 0.5]
    assert inst.theta_tilde.tolist() == [0.0, 0.0, 0.0]
    assert inst.budget == 1
    assert inst.theta_min == 1.0


def test_reduce_empty_family_unsatisfiable():
    hs = HittingSetInstance(2, (), 1)
    assert brute_force_hitting_set(hs) is None
    assert not brute_force_wm_remove(reduce_hitting_set(hs, 1.0))


def test_hitting_set_instance_rejects_negative_sizes():
    with pytest.raises(ValueError):
        HittingSetInstance(2, (frozenset({0, 1}),), -1)
    with pytest.raises(ValueError):
        HittingSetInstance(-1, (), 0)


def test_reduce_single_covering_set():
    hs = HittingSetInstance(3, (frozenset({0, 1, 2}),), 1)
    assert brute_force_hitting_set(hs) == 1
    assert brute_force_wm_remove(reduce_hitting_set(hs, 0.7))


# --- brute force -----------------------------------------------------------------


def test_brute_force_hitting_set_examples():
    assert brute_force_hitting_set(HittingSetInstance(2, (frozenset({0}), frozenset({1})), 2)) == 2
    assert brute_force_hitting_set(HittingSetInstance(2, (frozenset({0, 1}),), 1)) == 1


def test_brute_force_vs_dual_oracle(rng):
    for _ in range(120):
        m = int(rng.integers(1, 7))
        q = int(rng.integers(1, 9))
        sets = []
        for _ in range(q):
            size = int(rng.integers(1, m + 1))
            sets.append(frozenset(int(x) for x in rng.choice(m, size=size, replace=False)))
        hs = HittingSetInstance(m, tuple(sets), int(rng.integers(0, q + 1)))
        assert brute_force_hitting_set(hs) == exhaustive_cover_oracle(hs)


def test_brute_force_guards():
    big = HittingSetInstance(2, tuple(frozenset({0, 1}) for _ in range(21)), 1)
    with pytest.raises(TooLargeError):
        brute_force_hitting_set(big)
    with pytest.raises(TooLargeError):
        brute_force_wm_remove(reduce_hitting_set(big, 1.0))


def test_wm_remove_budget_equals_dimension():
    hs = HittingSetInstance(3, (frozenset({0, 1}), frozenset({2})), 2)
    inst = reduce_hitting_set(hs, 1.0)
    assert brute_force_wm_remove(inst)


def test_wm_remove_refuses_a_baseline_bit_of_1():
    # baseline bits [1, 0]: flipping needs one decrease and one increase,
    # outside the solver's domain
    dec = MonotoneDecoder(weights=np.array([[1.0, 0.0], [0.0, 1.0]]), thresholds=np.array([0.5, 0.5]))
    for budget in (1, 2):
        inst = WmRemoveInstance(theta_tilde=np.array([1.0, 0.0]), decoder=dec, budget=budget, theta_min=1.0)
        with pytest.raises(UnsupportedInstanceError, match="baseline"):
            brute_force_wm_remove(inst)


def test_wm_remove_refuses_where_theta_min_does_not_decide():
    # Amplitude 1 leaves the one bit at 0, yet amplitude 2 flips it: a
    # certificate exists, so answering "no" from amplitude theta_min is wrong.
    dec = MonotoneDecoder(weights=np.array([[1.0]]), thresholds=np.array([2.0]))
    inst = WmRemoveInstance(theta_tilde=np.zeros(1), decoder=dec, budget=1, theta_min=1.0)
    assert verify_certificate(inst, [0], np.array([2.0]))
    with pytest.raises(UnsupportedInstanceError, match="theta_min"):
        find_certificate(inst)
    # the same row with a smaller positive weight beside the larger one
    dec = MonotoneDecoder(weights=np.array([[4.0, 1.0], [0.0, 0.0]]), thresholds=np.array([2.0, 1.0]))
    inst = WmRemoveInstance(theta_tilde=np.zeros(2), decoder=dec, budget=1, theta_min=1.0)
    with pytest.raises(UnsupportedInstanceError):
        brute_force_wm_remove(inst)


def test_wm_remove_answers_on_the_domain_boundary():
    # theta_min times the smallest positive weight meets the threshold
    # exactly; a zero row can never flip, so the answer is no
    dec = MonotoneDecoder(weights=np.array([[2.0, 0.5]]), thresholds=np.array([1.5]))
    inst = WmRemoveInstance(theta_tilde=np.array([0.0, 1.0]), decoder=dec, budget=1, theta_min=2.0)
    support, delta = find_certificate(inst)
    assert support == [0] and verify_certificate(inst, support, delta)
    zero_row = MonotoneDecoder(weights=np.array([[1.0], [0.0]]), thresholds=np.array([0.5, 0.5]))
    assert not brute_force_wm_remove(WmRemoveInstance(np.zeros(1), zero_row, budget=1, theta_min=1.0))


# --- equivalence -----------------------------------------------------------------


def _all_small_instances():
    for m in (1, 2, 3):
        elements = list(range(m))
        nonempty = []
        for size in range(1, m + 1):
            nonempty.extend(frozenset(c) for c in itertools.combinations(elements, size))
        for q in (1, 2, 3):
            for family in itertools.combinations(nonempty, q):
                for budget in range(0, q + 1):
                    yield HittingSetInstance(m, family, budget)


def test_reduction_equivalence_exhaustive_small():
    count = 0
    for hs in _all_small_instances():
        hs_min = brute_force_hitting_set(hs)
        hs_yes = hs_min is not None and hs_min <= hs.budget
        wm_yes = brute_force_wm_remove(reduce_hitting_set(hs, 1.0))
        assert hs_yes == wm_yes, f"disagreement on {hs}"
        count += 1
    assert count == 238  # all budgets of all families with |U| <= 3, |C| <= 3


def test_reduction_equivalence_random(rng):
    for _ in range(200):
        m = int(rng.integers(1, 7))
        q = int(rng.integers(1, 9))
        sets = []
        for _ in range(q):
            size = int(rng.integers(1, m + 1))
            sets.append(frozenset(int(x) for x in rng.choice(m, size=size, replace=False)))
        budget = int(rng.integers(0, q + 1))
        hs = HittingSetInstance(m, tuple(sets), budget)
        hs_min = brute_force_hitting_set(hs)
        hs_yes = hs_min is not None and hs_min <= budget
        theta_min = float(rng.uniform(0.5, 3.0))
        assert hs_yes == brute_force_wm_remove(reduce_hitting_set(hs, theta_min))


def test_certificates_match_brute_force(rng):
    for _ in range(60):
        m = int(rng.integers(1, 5))
        q = int(rng.integers(1, 6))
        sets = []
        for _ in range(q):
            size = int(rng.integers(1, m + 1))
            sets.append(frozenset(int(x) for x in rng.choice(m, size=size, replace=False)))
        hs = HittingSetInstance(m, tuple(sets), int(rng.integers(0, q + 1)))
        inst = reduce_hitting_set(hs, 1.0)
        yes = brute_force_wm_remove(inst)
        cert = find_certificate(inst)
        assert (cert is not None) == yes
        if cert is not None:
            assert verify_certificate(inst, cert[0], cert[1])


# --- text format -------------------------------------------------------------------


def format_hitting_set(hs: HittingSetInstance) -> str:
    """DIMACS-like: `p hs m q B` then one line of element indices per set."""
    lines = [f"p hs {hs.universe_size} {len(hs.sets)} {hs.budget}"]
    for s in hs.sets:
        lines.append(" ".join(str(u) for u in sorted(s)))
    return "\n".join(lines) + "\n"


def test_hitting_set_text_roundtrip():
    hs = HittingSetInstance(4, (frozenset({0, 2}), frozenset({1, 3}), frozenset({2})), 2)
    text = format_hitting_set(hs)
    parsed = parse_hitting_set(text)
    assert parsed.universe_size == 4
    assert parsed.sets == hs.sets
    assert parsed.budget == 2


def test_hitting_set_parse_errors():
    with pytest.raises(MalformedLineError):
        parse_hitting_set("garbage\n")
    with pytest.raises(MalformedLineError):
        parse_hitting_set("p hs 2 2 1\n0 1\n")  # missing a set line
    for header in ("p hs 2 1 -1", "p hs -1 0 0", "p hs 2 -1 0", "p hsx 2 1 1", "px hs 2 1 1", "p hs2 1 1 1"):
        with pytest.raises(MalformedLineError) as info:
            parse_hitting_set(header + "\n0 1\n")
        assert info.value.line_no == 1
    # an empty set line, or an element outside [0, m), is named by its line
    for text, line_no in [("p hs 2 1 1\n\n", 2), ("p hs 2 2 1\n0\n0 5\n", 3), ("p hs 2 1 1\n-1\n", 2)]:
        with pytest.raises(MalformedLineError) as info:
            parse_hitting_set(text, "hs.txt")
        assert str(info.value).startswith(f"hs.txt:{line_no}: ")


def test_hitting_set_parse_refuses_oversized_header():
    # refused from the header alone, before any instance or decoder is built
    with pytest.raises(MalformedLineError) as info:
        parse_hitting_set("p hs 2000000 1 1\n0\n")
    assert info.value.line_no == 1
    with pytest.raises(MalformedLineError):
        parse_hitting_set("p hs 3277 20 1\n" + "0\n" * 20)
    with pytest.raises(MalformedLineError):
        parse_hitting_set(f"p hs {HITTING_SET_MAX_CELLS + 1} 0 0\n")
    # at the ceiling an instance still parses
    assert parse_hitting_set("p hs 3276 20 1\n" + "0\n" * 20).universe_size == 3276
    assert parse_hitting_set(f"p hs {HITTING_SET_MAX_CELLS} 0 0\n").sets == ()
