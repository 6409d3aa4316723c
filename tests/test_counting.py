"""Counting operators, rewrite identities, base case, character sums.

count_progressions and lambda_average share one kernel, so each is
validated against an in-file oracle that shares none of its tables:
counts against a pure-integer loop (explicit membership tests, no numpy)
-- exhaustively over every subset of F_5 and on seeded random sets at
larger primes -- and Lambda against a double loop over field elements
(FieldElement arithmetic and character_eval).  The rewrite identities are
exact algebraic facts, so both sides must agree to near machine precision
on random inputs.  The kernel's bit-packed route for 0/1 inputs is
compared bit for bit with its per-y view loop.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest

from ffprog.errors import (ArityMismatch, CharacteristicWarning,
                           DegenerateCombination, DependentSystem,
                           ElementOutOfField, EmptyInput, FieldMismatch,
                           IndexOutOfRange, InvalidRange, NonzeroConstantTerm,
                           NotPrime, TwistedSystem, ZeroPolynomial)
from ffprog.extremal import build_hypergraph
from ffprog.field import FieldSpec, character_eval, is_prime, make_field
from ffprog.functions import (balanced_indicator, character_function,
                              dense_function, indicator, random_one_bounded)
from ffprog.counting import (BaseCaseReport, LambdaResult, WeilSum,
                             _packed_y_sums, _poly_rows, _system_rows,
                             _view_y_sums,
                             _weil_sweep, _y_sums, additive_monomial_sums,
                             base_case_report,
                             count_progressions, lambda_average,
                             main_term_error, poly_index_table,
                             twist_rewrite_check, weil_sum)
from ffprog.polys import int_poly, parse_poly, progression_system, reduce_and_eval
from ffprog.rng import SplitMix64


# -- oracle ------------------------------------------------------------------

def oracle_count(poly_coeffs, p, A, y_rule="all"):
    """Integer count of progressions {x + P_i(y)} inside A, from scratch."""
    A = {a % p for a in A}
    total = 0
    ys = range(1, p) if y_rule == "nonzero" else range(p)
    for y in ys:
        shifts = [sum(c * y ** i for i, c in enumerate(cs)) % p
                  for cs in poly_coeffs]
        for x in A:
            if all((x + s) % p in A for s in shifts):
                total += 1
    return total


def direct_lambda(system, F, Psi):
    """E_{x,y} f_0(x) prod_i f_i(x + P_i(y)) prod_j psi_j(Q_j(y)) as a
    double loop over field elements: polynomials by reduce_and_eval,
    translation by FieldElement addition, characters by character_eval."""
    field = F[0].field
    els = field.elements()
    chars = [field.element_at(a) for a in Psi]
    total = 0j
    for y in els:
        shifts = [reduce_and_eval(P, field, y) for P in system.P]
        twist = 1
        for a, Q in zip(chars, system.Q):
            twist *= character_eval(field, a, reduce_and_eval(Q, field, y))
        for x in els:
            term = F[0].values[x.index]
            for f, e in zip(F[1:], shifts):
                term *= f.values[(x + e).index]
            total += term * twist
    return total / field.q ** 2


SYSTEMS = {
    "single": ["y"],
    "ap3": ["y", "2y"],
    "quadratic": ["y", "y^2"],
}


# -- count_progressions -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("y_rule", ["all", "nonzero"])
def test_count_exhaustive_subsets_of_f5(name, y_rule):
    p = 5
    field = make_field(p)
    sys = progression_system(SYSTEMS[name])
    coeffs = [q.coeffs for q in sys.P]
    for mask in range(1 << p):
        A = {i for i in range(p) if mask >> i & 1}
        got = count_progressions(sys, A, y_rule, field=field)
        assert got == oracle_count(coeffs, p, A, y_rule)


def test_count_random_sets_medium_prime():
    p = 31
    field = make_field(p)
    rng = SplitMix64(7070)
    for name in sorted(SYSTEMS):
        sys = progression_system(SYSTEMS[name])
        coeffs = [q.coeffs for q in sys.P]
        for _ in range(10):
            A = set(rng.subset(p, 0.4))
            for y_rule in ("all", "nonzero"):
                assert count_progressions(sys, A, y_rule, field=field) == \
                    oracle_count(coeffs, p, A, y_rule)


def test_count_frozen_values():
    F7 = make_field(7)
    sys = progression_system(["y", "y^2"])
    assert count_progressions(sys, {1, 2, 4}, "all", field=F7) == 5
    ap = progression_system(["y", "2y"])
    assert count_progressions(ap, {0, 1, 3}, "nonzero", field=make_field(5)) == 2
    assert count_progressions(ap, {0, 1, 3, 5}, "all", field=make_field(11)) == 6


def test_count_extension_field_hand_case():
    # F_4, system {y}, A = {0, 1}: y = 0 and y = 1 each give both x's,
    # the two shifts involving t give none
    F4 = make_field(2, 2)
    A = [F4.element([0, 0]), F4.element([1, 0])]
    sys = progression_system(["y"])
    assert count_progressions(sys, A, "all") == 4
    assert count_progressions(sys, A, "nonzero") == 2


def test_count_field_inference_and_errors():
    F7 = make_field(7)
    sys = progression_system(["y"])
    A = [F7.element(1), F7.element(2)]
    assert count_progressions(sys, A, "all") == \
        count_progressions(sys, {1, 2}, "all", field=F7)
    with pytest.raises(EmptyInput):
        count_progressions(sys, {1, 2}, "all")  # bare ints: no field to infer
    with pytest.raises(InvalidRange,
                       match="^y_rule must be 'all' or 'nonzero', got 'some'$"):
        count_progressions(sys, A, "some")
    with pytest.raises(TwistedSystem):
        count_progressions(progression_system(["y"], ["y^2"]), A, "all")
    with pytest.raises(ElementOutOfField):
        count_progressions(sys, [make_field(5).element(1)], "all", field=F7)


def test_count_emits_no_warnings_even_when_dependent():
    field = make_field(7)
    sys = progression_system(["y", "2y"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count_progressions(sys, {0, 1, 3}, "all", field=field)


# -- the bit-packed route ------------------------------------------------------------

# W = ceil(p/64) words per row: 1 up to p = 61, 2 from 67, 3 past 128; the
# extension fields permute q/p rows, GF(67^2) with W = 2
PACKED_FIELDS = [(2, 1), (3, 1), (61, 1), (67, 1), (127, 1), (131, 1),
                 (4001, 1), (2, 6), (3, 4), (5, 3), (11, 2), (67, 2)]


@pytest.mark.parametrize("p,k", PACKED_FIELDS,
                         ids=[f"{p}^{k}" for p, k in PACKED_FIELDS])
def test_packed_sums_equal_the_view_loop(p, k):
    field = make_field(p, k)
    rng = SplitMix64(1400 + p + k)
    for polys in (["y"], ["y", "y^2"], ["y", "2y", "y^3"]):  # m1 = 1, 2, 3
        P = progression_system(polys).P
        m = len(P) + 1
        distinct = [(rng.random_block(field.q) < 0.5).astype(np.int64)
                    for _ in range(m)]
        empty, full = np.zeros(field.q, np.int64), np.ones(field.q, np.int64)
        for F in (distinct, [empty] * m, [full] * m, [full] + distinct[1:]):
            want = _view_y_sums(field, P, F)
            assert np.array_equal(_packed_y_sums(field, P, F), want), polys
        # complex 0/1 values take the packed route to the same bits
        Fc = [f.astype(np.complex128) for f in distinct]
        got = _y_sums(field, P, Fc)
        assert got.dtype == np.complex128
        assert np.array_equal(got, _view_y_sums(field, P, Fc)), polys


@pytest.mark.parametrize("p,k", [(61, 1), (131, 1), (2, 6), (67, 2)])
@pytest.mark.parametrize("y_rule", ["all", "nonzero"])
def test_packed_counts_equal_the_view_loop(p, k, y_rule):
    field = make_field(p, k)
    sys = progression_system(["y", "y^2"])
    start = 1 if y_rule == "nonzero" else 0
    A = SplitMix64(77 + p).subset(field.q, 0.4)
    members = A if k == 1 else [field.element_at(i) for i in A]
    ind = np.zeros(field.q, np.int64)
    ind[A] = 1
    want = int(_view_y_sums(field, sys.P, [ind] * 3)[start:].sum())
    assert count_progressions(sys, members, y_rule, field=field) == want
    pairs = field.q * (field.q - start)
    assert count_progressions(sys, [], y_rule, field=field) == 0
    every = range(field.q) if k == 1 else field.elements()
    assert count_progressions(sys, every, y_rule, field=field) == pairs


@pytest.mark.parametrize("p,k", [(131, 1), (5, 3)])
def test_indicator_averages_equal_the_view_route(p, k, monkeypatch):
    field = make_field(p, k)
    rng = SplitMix64(9 + p)
    A = [field.element_at(i) for i in rng.subset(field.q, 0.5)]
    B = [field.element_at(i) for i in rng.subset(field.q, 0.3)]
    sys = progression_system(["y", "y^2"])
    twisted = progression_system(["y"], ["y^3"])
    F = [indicator(field, A), indicator(field, B)]
    G = [character_function(field, 1 + rng.randrange(field.q - 1))]

    def both():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CharacteristicWarning)
            return (main_term_error(sys, A, field=field),
                    lambda_average(twisted, F, G))
    packed = both()
    monkeypatch.setattr("ffprog.counting._y_sums", _view_y_sums)
    assert both() == packed  # ==, not approximately


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2)])
def test_values_other_than_0_and_1_match_the_double_loop(p, k):
    field = make_field(p, k)
    A = [field.element_at(i) for i in range(0, field.q, 2)]
    sys = progression_system(["y", "y^2"])
    for f in (balanced_indicator(field, A), 2 * indicator(field, A)):
        F = [f, f, indicator(field, A)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CharacteristicWarning)
            got = lambda_average(sys, F)
        assert abs(got - direct_lambda(sys, F, [])) < 1e-12


# -- lambda_average ----------------------------------------------------------------

def test_lambda_matches_scaled_count_on_indicators():
    field = make_field(11)
    rng = SplitMix64(515)
    for name in sorted(SYSTEMS):
        sys = progression_system(SYSTEMS[name])
        A = set(rng.subset(11, 0.5))
        f = indicator(field, A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CharacteristicWarning)
            val = lambda_average(sys, [f] * (sys.m1 + 1))
        count = count_progressions(sys, A, "all", field=field)
        assert abs(val * 11 * 11 - count) < 1e-8
        assert abs(val.imag) < 1e-12


def test_lambda_twisted_matches_direct_sum():
    # direct evaluation of E_{x,y} f0(x) f1(x+y) psi(y^2) with explicit loops
    field = make_field(7)
    chi = field.character_matrix()
    rng = SplitMix64(616)
    f0 = random_one_bounded(field, rng)
    f1 = random_one_bounded(field, rng)
    sys = progression_system(["y"], ["y^2"])
    got = lambda_average(sys, [f0, f1], [character_function(field, 3)])
    direct = 0j
    for x in range(7):
        for y in range(7):
            direct += (f0.values[x] * f1.values[(x + y) % 7]
                       * chi[3, y * y % 7])
    assert abs(got - direct / 49) < 1e-12


@pytest.mark.parametrize("p,k", [(3, 2), (2, 3)])
@pytest.mark.parametrize("Q", [[], ["y^3", "y^4"]], ids=["plain", "two_twists"])
def test_lambda_matches_element_double_loop(p, k, Q):
    field = make_field(p, k)
    rng = SplitMix64(700 + p)
    sys = progression_system(["y", "y^2"], Q)
    F = [random_one_bounded(field, rng) for _ in range(3)]
    Psi = [1 + rng.randrange(field.q - 1) for _ in Q]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CharacteristicWarning)
        got = lambda_average(sys, F, [character_function(field, a)
                                      for a in Psi])
    assert abs(got - direct_lambda(sys, F, Psi)) < 1e-12


def test_lambda_arity_and_field_errors():
    field = make_field(7)
    f = indicator(field, {1})
    sys = progression_system(["y", "y^2"])
    with pytest.raises(ArityMismatch):
        lambda_average(sys, [f, f])  # needs m1 + 1 = 3
    twisted = progression_system(["y"], ["y^2"])
    with pytest.raises(ArityMismatch):
        lambda_average(twisted, [f, f])  # missing the twist function
    with pytest.raises(ArityMismatch):
        lambda_average(sys, [f, f, [1] * 7])  # raw arrays are rejected
    with pytest.raises(FieldMismatch):
        lambda_average(sys, [f, f, indicator(make_field(5), {1})])


def test_lambda_warns_dependent_and_low_characteristic():
    f7 = indicator(make_field(7), {0, 1, 3})
    with pytest.warns(CharacteristicWarning, match="dependent"):
        lambda_average(progression_system(["y", "2y"]), [f7] * 3)
    # {2y, 3y^2} certifies at threshold 4, so F_3 is below it
    f3 = indicator(make_field(3), {0, 1})
    with pytest.warns(CharacteristicWarning, match="threshold"):
        lambda_average(progression_system(["2y", "3y^2"]), [f3] * 3)
    # independent and above threshold: silence
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lambda_average(progression_system(["2y", "3y^2"]), [f7] * 3)


# -- main term ----------------------------------------------------------------------

def test_main_term_error_split_is_exact():
    field = make_field(13)
    rng = SplitMix64(99)
    sys = progression_system(["y", "y^2"])
    for _ in range(5):
        A = set(rng.subset(13, 0.5))
        res = main_term_error(sys, A, field=field)
        assert isinstance(res, LambdaResult)
        assert res.value == res.main_term + res.error  # exact by construction
        alpha = len(A) / 13
        assert abs(res.main_term - alpha ** 3) < 1e-15
        count = count_progressions(sys, A, "all", field=field)
        assert abs(res.scaled_count - count) < 1e-7
        assert abs(res.scaled_error - (count - 169 * alpha ** 3)) < 1e-7
        assert res.q == 13
    with pytest.raises(TwistedSystem):
        main_term_error(progression_system(["y"], ["y^2"]), {1}, field=field)


# -- rewrite identities ----------------------------------------------------------------

def rewrite_case(seed):
    rng = SplitMix64(seed)
    field = make_field((5, 7, 11)[seed % 3])
    P = [parse_poly("y"), parse_poly("y^2")]
    Q = [parse_poly("y^3")] if seed % 2 else [parse_poly("y^3"), parse_poly("y^4")]
    sys = progression_system(P, Q)
    F = [random_one_bounded(field, rng) for _ in range(3)]
    Psi = [1 + rng.randrange(field.q - 1) for _ in Q]
    return sys, F, Psi


@pytest.mark.parametrize("k,mode", [(0, None), (0, "absorb"), (2, "absorb"),
                                    (1, "shift"), (2, "shift"), (1, None),
                                    (2, None)])
def test_rewrite_identities_exact(k, mode):
    for seed in range(6):
        sys, F, Psi = rewrite_case(seed)
        chk = twist_rewrite_check(sys, F, Psi, k, mode=mode)
        assert chk.abs_diff < 1e-10
        assert chk.k == k
        assert chk.mode == ("absorb" if (mode == "absorb" or k == 0) else "shift")


@pytest.mark.parametrize("k,mode", [(0, "absorb"), (3, "absorb"),
                                    (1, "shift"), (2, "shift"), (3, "shift")])
def test_rewrite_identities_on_gf9(k, mode):
    field = make_field(3, 2)
    rng = SplitMix64(90 + k)
    sys = progression_system(["y", "y^2", "y^5"], ["y^3", "y^4"])
    F = [random_one_bounded(field, rng) for _ in range(4)]
    Psi = [1 + rng.randrange(field.q - 1) for _ in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CharacteristicWarning)
        chk = twist_rewrite_check(sys, F, Psi, k, mode=mode)
    assert abs(chk.lhs - direct_lambda(sys, F, Psi)) < 1e-12
    assert chk.abs_diff < 1e-12
    assert (chk.k, chk.mode) == (k, mode)


def test_rewrite_mode_validation():
    sys, F, Psi = rewrite_case(0)
    with pytest.raises(IndexOutOfRange):
        twist_rewrite_check(sys, F, Psi, 3)  # k > m1
    with pytest.raises(IndexOutOfRange):
        twist_rewrite_check(sys, F, Psi, 1, mode="absorb")  # inner k
    with pytest.raises(IndexOutOfRange):
        twist_rewrite_check(sys, F, Psi, 0, mode="shift")
    with pytest.raises(InvalidRange):
        twist_rewrite_check(sys, F, Psi, 1, mode="twirl")
    with pytest.raises(ArityMismatch):
        twist_rewrite_check(sys, F[:2], Psi, 0)
    with pytest.raises(ArityMismatch):
        twist_rewrite_check(sys, F, Psi + [1], 0)


# -- base case -------------------------------------------------------------------------

def test_base_case_untwisted_is_exact_product():
    field = make_field(11)
    rng = SplitMix64(4242)
    f0 = random_one_bounded(field, rng)
    f1 = random_one_bounded(field, rng)
    rep = base_case_report(parse_poly("y"), [], [f0, f1], [])
    assert rep.trivial_twist
    assert abs(rep.error) < 1e-12  # averaging over y decouples x entirely
    assert abs(rep.value - rep.main_term) < 1e-12
    assert rep.q == 11


def test_base_case_trivial_characters_count_as_untwisted():
    field = make_field(7)
    f = indicator(field, {0, 2, 3})
    rep = base_case_report(parse_poly("y"), [parse_poly("y^2")], [f, f], [0])
    assert rep.trivial_twist
    assert abs(rep.main_term - f.mean() ** 2) < 1e-12


def test_base_case_nontrivial_twist_has_zero_main_term():
    field = make_field(101)
    rng = SplitMix64(11)
    f0 = random_one_bounded(field, rng)
    f1 = random_one_bounded(field, rng)
    rep = base_case_report(parse_poly("y"), [parse_poly("y^2")],
                           [f0, f1], [5])
    assert not rep.trivial_twist
    assert rep.main_term == 0
    assert rep.sqrt_q_error == pytest.approx(abs(rep.error) * 101 ** 0.5)
    # square-root cancellation with a modest constant on random input
    assert rep.sqrt_q_error < 5.0


def test_base_case_errors_and_warning():
    field = make_field(7)
    f = indicator(field, {1, 2})
    with pytest.raises(DependentSystem):
        base_case_report(parse_poly("y"), [parse_poly("2y")], [f, f], [1])
    with pytest.raises(ArityMismatch):
        base_case_report(parse_poly("y"), [], [f, f, f], [])
    with pytest.raises(ArityMismatch):
        base_case_report(parse_poly("y"), [parse_poly("y^2")], [f, f], [])
    f3 = indicator(make_field(3), {1})
    with pytest.warns(CharacteristicWarning):
        base_case_report(parse_poly("2y"), [parse_poly("3y^2")], [f3, f3], [1])


def test_base_case_refuses_what_progression_system_refuses():
    f = indicator(make_field(7), {1, 2})
    with pytest.raises(NonzeroConstantTerm):
        base_case_report(parse_poly("y + 1"), [], [f, f], [])
    with pytest.raises(NonzeroConstantTerm):
        base_case_report(parse_poly("y"), [parse_poly("y^2 + 3")], [f, f], [1])
    with pytest.raises(ZeroPolynomial):
        base_case_report(int_poly([0]), [parse_poly("y^2")], [f, f], [1])
    with pytest.raises(DependentSystem):  # a repeat
        base_case_report(parse_poly("y^2"), [parse_poly("y^2")], [f, f], [1])


def test_base_case_twisted_matches_element_double_loop():
    field = make_field(3, 2)
    rng = SplitMix64(313)
    f0 = random_one_bounded(field, rng)
    f1 = random_one_bounded(field, rng)
    rep = base_case_report(parse_poly("y"), [parse_poly("y^2")], [f0, f1], [4])
    sys = progression_system(["y"], ["y^2"])
    assert abs(rep.value - direct_lambda(sys, [f0, f1], [4])) < 1e-12
    assert rep.main_term == 0 and not rep.trivial_twist


# -- Weil sums --------------------------------------------------------------------------

def test_gauss_sum_sits_exactly_on_the_bound():
    field = make_field(7)
    for a in range(1, 7):
        ws = weil_sum(field, [parse_poly("y^2")], [a])
        assert abs(ws.value) == pytest.approx(0.3779644730092272, abs=1e-13)
        assert ws.bound == pytest.approx(1 / 7 ** 0.5)
        assert ws.within_bound  # |S| = bound exactly; tolerance matters
        assert ws.degree == 2 and not ws.trivial


def test_weil_sum_matches_direct_character_sum():
    field = make_field(13)
    chi = field.character_matrix()
    rng = SplitMix64(31)
    polys = [parse_poly("y"), parse_poly("y^3")]
    for _ in range(10):
        a1, a2 = rng.randrange(13), rng.randrange(13)
        if a1 == 0 and a2 == 0:
            continue
        direct = np.mean([chi[a1, y % 13] * chi[a2, y ** 3 % 13]
                          for y in range(13)])
        ws = weil_sum(field, polys, [a1, a2])
        assert abs(ws.value - direct) < 1e-12


def test_weil_sum_extension_field():
    F9 = make_field(3, 2)
    t = F9.element([0, 1])
    ws = weil_sum(F9, [parse_poly("y^2")], [t])
    assert ws.degree == 2
    assert ws.bound == pytest.approx(1 / 3)
    assert ws.within_bound
    # oracle: direct sum of psi_t(y^2) over the nine elements
    chi = F9.character_matrix()
    direct = np.mean([chi[t.index, (y * y).index] for y in F9.elements()])
    assert abs(ws.value - direct) < 1e-12


def test_weil_sum_trivial_and_degenerate():
    field = make_field(5)
    ws = weil_sum(field, [parse_poly("y")], [0])
    assert ws.trivial and ws.value == 1 and ws.bound is None
    with pytest.raises(DegenerateCombination):
        weil_sum(field, [parse_poly("y"), parse_poly("2y")], [1, 2])
    with pytest.raises(EmptyInput):
        weil_sum(field, [], [])
    with pytest.raises(ArityMismatch):
        weil_sum(field, [parse_poly("y")], [1, 2])
    with pytest.raises(FieldMismatch):
        weil_sum(field, [parse_poly("y")], [make_field(7).element(1)])


def test_weil_sum_degree_at_least_p_still_evaluates():
    # y^3 = y on F_3, so the "cubic" sum is a linear one: full cancellation
    field = make_field(3)
    ws = weil_sum(field, [parse_poly("y^3")], [1])
    assert abs(ws.value) < 1e-12
    assert ws.within_bound


def test_additive_monomial_sums_match_weil_sum():
    for p, d in ((7, 2), (11, 3), (13, 4)):
        field = make_field(p)
        sums = additive_monomial_sums(p, d)
        assert sums[0] == pytest.approx(1.0)
        poly = int_poly([0] * d + [1])
        for a in range(1, p):
            assert sums[a] == pytest.approx(weil_sum(field, [poly], [a]).value,
                                            abs=1e-12)
    with pytest.raises(InvalidRange):
        additive_monomial_sums(7, 0)


def horner_sweep(p, coeffs):
    """E_y e_p(a P(y)) for every a in F_p: P by integer Horner over
    arange(p), then one inverse DFT of its value histogram."""
    y = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * y + c % p) % p
    return np.fft.ifft(np.bincount(vals, minlength=p))


@pytest.mark.parametrize("text", ["y^2", "y^3", "y^4", "y^3 + 2y"])
def test_sweep_is_bit_equal_to_the_prime_horner_sweep(text):
    poly = parse_poly(text)
    primes = [p for p in range(5, 4002) if is_prime(p)][::7] + [4001]
    for p in primes:
        want = horner_sweep(p, poly.coeffs)
        assert np.array_equal(_weil_sweep(make_field(p), poly), want), p


@pytest.mark.parametrize("p,k", [(5, 3), (3, 4), (2, 6), (11, 2)])
def test_sweep_matches_weil_sum_on_extension_fields(p, k):
    field = make_field(p, k)
    for text in ("y^2", "y^3 + 2y"):
        poly = parse_poly(text)
        sums = _weil_sweep(field, poly)
        assert abs(sums[0] - 1) < 1e-12
        for a in range(1, field.q):
            want = weil_sum(field, [poly], [a]).value
            assert abs(sums[a] - want) < 1e-12, (text, a)


def test_additive_monomial_sums_refuse_a_composite_p():
    for n in (15, 1):
        with pytest.raises(NotPrime):
            additive_monomial_sums(n, 2)


# -- index tables -------------------------------------------------------------------------

def test_poly_index_table_matches_eval():
    poly = parse_poly("2y^3 + y")
    for field in (make_field(7), make_field(3, 2), make_field(2, 6),
                  make_field(5, 3)):
        tbl = poly_index_table(poly, field)
        rows = _poly_rows(field, poly.coeffs)
        assert rows.shape == (field.q, field.k)
        for y in field.elements():
            want = reduce_and_eval(poly, field, y)
            assert tbl[y.index] == want.index
            assert tuple(rows[y.index].tolist()) == want.coeffs


def test_count_above_the_table_cap_matches_element_brute_force():
    # q = 8192 is above the 4096 cap on the q x q tables; counting needs
    # none of them.  A holds two planted (x, x + y, x + y^2) progressions.
    F = make_field(2, 13)
    rng = SplitMix64(2113)
    els = [F.element_at(rng.randrange(F.q)) for _ in range(6)]
    x0, y0, x1, y1 = els[:4]
    A = sorted({x0, x0 + y0, x0 + y0 * y0, x1, x1 + y1, x1 + y1 * y1, *els[4:]},
               key=lambda e: e.index)
    members = set(A)
    want = 0
    for y in F.elements():
        y2 = y * y
        want += sum(x + y in members and x + y2 in members for x in A)
    assert want >= len(A) + 2
    system = progression_system(["y", "y^2"])
    assert count_progressions(system, A, field=F) == want
    scaled = main_term_error(system, A, field=F).scaled_count
    assert abs(scaled - want) < 1e-6


# -- per-field caches ---------------------------------------------------------------------

CACHE_FIELDS = [(31, 1), (2, 6), (3, 4), (11, 2)]


@pytest.mark.parametrize("p,k", CACHE_FIELDS,
                         ids=[f"{p}^{k}" for p, k in CACHE_FIELDS])
def test_system_rows_are_read_only_horner_rows(p, k):
    field = make_field(p, k)
    polys = [parse_poly(s).coeffs for s in ("y", "y^2", "2y^3 + y", "y^2 + 5")]
    as_elements = [[field.element(c) for c in cs] for cs in polys]
    for P in (polys, as_elements):
        for cs, rows in zip(polys, _system_rows(field, P)):
            assert np.array_equal(rows, _poly_rows(field, cs))
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 1
    # ints and elements of one value share one cache entry
    cached = _system_rows(field, polys)
    assert all(a is b for a, b in zip(cached, _system_rows(field, as_elements)))


@pytest.mark.parametrize("p,k", CACHE_FIELDS,
                         ids=[f"{p}^{k}" for p, k in CACHE_FIELDS])
def test_packed_averages_of_different_indicators_equal_the_view_loop(p, k,
                                                                     monkeypatch):
    # the packed route packs each distinct slot array once: three different
    # indicators, and orders repeating one of them, must not share packings
    field = make_field(p, k)
    rng = SplitMix64(2200 + p + k)
    f0, f1, f2 = (indicator(field, [field.element_at(i)
                                    for i in rng.subset(field.q, d)])
                  for d in (0.6, 0.5, 0.4))
    sys = progression_system(["y", "y^2"])
    orders = ([f0, f1, f2], [f2, f0, f1], [f0, f1, f1], [f1, f0, f1],
              [f2, f2, f2])

    def averages():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CharacteristicWarning)
            return [lambda_average(sys, F) for F in orders]
    packed = averages()
    monkeypatch.setattr("ffprog.counting._y_sums", _view_y_sums)
    assert averages() == packed  # ==, not approximately


def test_a_count_evaluates_each_polynomial_once_per_field(monkeypatch):
    field = make_field(5, 3)
    calls = []
    real = FieldSpec._mul_rows

    def counted(self, a, b):
        calls.append(self)
        return real(self, a, b)
    monkeypatch.setattr(FieldSpec, "_mul_rows", counted)
    sys = progression_system(["y", "y^2"])
    A = [field.element_at(i) for i in SplitMix64(8).subset(field.q, 0.5)]
    count_progressions(sys, A, field=field)
    once = sum(poly.degree for poly in sys.P)  # Horner: one product a degree
    assert len(calls) == once
    main_term_error(sys, A, field=field)
    build_hypergraph(sys, field)
    assert len(calls) == once


def test_weil_sums_leave_the_field_cache_as_it_is():
    field = make_field(101)
    count_progressions(progression_system(["y", "y^2"]), range(0, 101, 3),
                       field=field)
    polys = [parse_poly("y^2"), parse_poly("y^3")]
    weil_sum(field, polys, [1, 1])
    size, rows = len(field._cache), field._cache["rows"]
    for n in range(500):  # 500 distinct combinations
        weil_sum(field, polys, [1 + n // 5, n % 5])
    assert len(field._cache) == size and field._cache["rows"] is rows


def test_a_field_dropped_after_counting_is_freed_at_once():
    # the per-field caches hold coefficient tuples and arrays, never
    # elements, which would point back to the field in a cycle
    gc.disable()
    try:
        field = make_field(11, 2)
        sys = progression_system(["y", "y^2"])
        A = [field.element_at(i) for i in range(0, field.q, 3)]
        count_progressions(sys, A, field=field)
        main_term_error(sys, A, field=field)
        build_hypergraph(sys, field)
        alive = weakref.ref(field)
        del field, A
        assert alive() is None
    finally:
        gc.enable()
