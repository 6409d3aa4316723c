"""Gowers uniformity norms and the Cauchy-Schwarz reduction.

gowers_norm is validated against an in-file brute-force oracle that
averages the iterated-derivative product over the full (s+1)-cube
directly from the definition -- no shared code with the implementation,
which differences every translate at once through window views.  U^2
additionally gets the independent Fourier route (sum of fourth powers of
coefficients).
"""

from itertools import product

import numpy as np
import pytest

from ffprog.errors import (BudgetExceeded, InvalidRange, NotOneBounded)
from ffprog.field import FieldSpec, make_field
from ffprog.functions import (character_function, dense_function, indicator,
                              inner, random_one_bounded, two_var_function)
from ffprog.gowers import (GowersNormValue, check_cs_inequality, cs_project,
                           gowers_norm, gowers_u2_via_fourier,
                           u2_dual_upper_bound)
from ffprog.rng import SplitMix64

F7 = make_field(7)


# -- oracle ------------------------------------------------------------------

def u_raw_power_oracle(f, s):
    """E_{x,h_1..h_s} of the full 2^s-fold conjugated product, literally."""
    field = f.field
    els = field.elements()
    q = field.q
    vals = f.values
    total = 0.0 + 0.0j
    for hs in product(range(q), repeat=s):
        for xi in range(q):
            term = 1.0 + 0.0j
            for eps in product((0, 1), repeat=s):
                point = els[xi]
                for e, hi in zip(eps, hs):
                    if e:
                        point = point + els[hi]
                v = vals[point.index]
                term *= np.conj(v) if sum(eps) % 2 else v
            total += term
    return (total / q ** (s + 1)).real


def rand_fn(field, seed, scale=1.0):
    rng = SplitMix64(seed)
    return dense_function(
        field, [scale * rng.unit_disk() for _ in range(field.q)])


# -- agreement with the definition ------------------------------------------------

@pytest.mark.parametrize(
    "s, field",
    [(s, F) for s in (1, 2, 3) for F in (make_field(5), F7, make_field(3, 2))]
    + [(4, make_field(5)), (4, make_field(2, 2))],
    ids=lambda v: f"GF({v.q})" if isinstance(v, FieldSpec) else None)
def test_gowers_norm_matches_brute_force(s, field):
    for seed in range(3):
        f = rand_fn(field, 100 * s + seed)
        got = gowers_norm(f, s)
        expect = u_raw_power_oracle(f, s)
        assert got.raw_power == pytest.approx(expect, abs=1e-10)
        assert got.value == pytest.approx(max(expect, 0.0) ** (1 / 2 ** s),
                                          abs=1e-10)
        assert got.s == s


def test_u2_fourier_route_agrees_with_naive():
    # GF(1009): U^2 there holds 1009^2 values, inside the default budget
    for field in (F7, make_field(3, 2), make_field(11), make_field(1009)):
        for seed in range(5):
            f = rand_fn(field, 900 + seed, scale=2.0)  # not 1-bounded: fine
            naive = gowers_norm(f, 2)
            spectral = gowers_u2_via_fourier(f)
            assert naive.raw_power == pytest.approx(spectral.raw_power,
                                                    rel=1e-9, abs=1e-12)


# -- frozen special cases ----------------------------------------------------------

def test_character_has_unit_u2():
    for a in range(1, 7):
        psi = character_function(F7, a)
        assert gowers_norm(psi, 2).value == pytest.approx(1.0, abs=1e-12)
        assert gowers_u2_via_fourier(psi).value == pytest.approx(1.0, abs=1e-12)


def test_two_spike_spectrum_raw_power():
    # f = (psi_1 + psi_3)/2 has two Fourier coefficients of size 1/2:
    # sum of fourth powers is 2 * (1/2)^4 = 1/8
    f = 0.5 * (character_function(F7, 1) + character_function(F7, 3))
    assert gowers_norm(f, 2).raw_power == pytest.approx(1 / 8, abs=1e-12)
    assert gowers_u2_via_fourier(f).raw_power == pytest.approx(1 / 8, abs=1e-12)


def test_flat_spectrum_and_no_boundedness_check():
    # sqrt(q) * delta_0 has |fhat(a)| = 1/sqrt(q) for every a, so
    # ||f||_{U^2} = (q * q^{-2})^{1/4} = q^{-1/4}; its sup-norm is sqrt(q) > 1
    # and gowers_norm must still accept it.
    q = 11
    field = make_field(q)
    f = float(np.sqrt(q)) * indicator(field, [0])
    assert f.max_abs() > 1
    assert gowers_norm(f, 2).value == pytest.approx(q ** -0.25, abs=1e-12)


def test_constant_function_norm_is_modulus():
    c = 0.3 - 0.4j
    f = dense_function(F7, [c] * 7)
    for s in (1, 2, 3):
        assert gowers_norm(f, s).value == pytest.approx(0.5, abs=1e-12)


# -- structural properties ----------------------------------------------------------

def test_monotonicity_in_s_for_one_bounded():
    for q in (7, 11, 13):
        field = make_field(q)
        for seed in range(4):
            f = random_one_bounded(field, 3000 + seed)
            u1 = gowers_norm(f, 1).value
            u2 = gowers_norm(f, 2).value
            u3 = gowers_norm(f, 3).value
            assert u1 <= u2 + 1e-9
            assert u2 <= u3 + 1e-9


def test_dual_bound_dominates_pairings():
    # |<f, g>| <= (sum_a |fhat(a)|) * ||g||_{U^2}, since every |ghat(a)|
    # is at most the U^2 norm
    field = make_field(13)
    for seed in range(10):
        f = rand_fn(field, 41 + seed, scale=1.5)
        g = rand_fn(field, 81 + seed)
        dual = u2_dual_upper_bound(f)
        assert dual + 1e-12 >= gowers_norm(f, 2).value
        assert abs(inner(f, g)) <= dual * gowers_u2_via_fourier(g).value + 1e-9


def test_norm_is_shift_and_phase_invariant():
    f = rand_fn(F7, 5)
    g = f.shift(3) * np.exp(1.7j)
    for s in (1, 2, 3):
        assert gowers_norm(f, s).value == pytest.approx(
            gowers_norm(g, s).value, abs=1e-10)
    # modulating by a character preserves U^2 (but not U^1)
    h = f * character_function(F7, 2)
    assert gowers_norm(h, 2).value == pytest.approx(
        gowers_norm(f, 2).value, abs=1e-10)


# -- guardrails ------------------------------------------------------------------

def test_budget_exceeded():
    f = random_one_bounded(make_field(101), 1)
    with pytest.raises(BudgetExceeded,
                       match=r"q\^s = 104060401 complex values \(1588 MiB\)"):
        gowers_norm(f, 4)  # 101^4 values > 2^24
    # the same function fits at s = 3
    assert gowers_norm(f, 3).value <= 1 + 1e-9
    with pytest.raises(BudgetExceeded):
        gowers_norm(random_one_bounded(F7, 2), 2, budget=10)


def test_naive_norms_never_build_the_addition_table(monkeypatch):
    def refuse(self):
        raise AssertionError("add_index_table called")

    monkeypatch.setattr(FieldSpec, "add_index_table", refuse)
    for field in (F7, make_field(3, 2)):
        f = rand_fn(field, 31)
        for s in (1, 2, 3):
            assert gowers_norm(f, s).raw_power == pytest.approx(
                u_raw_power_oracle(f, s), abs=1e-10)
        fs = [two_var_rand(field, 32), two_var_rand(field, 33)]
        assert check_cs_inequality(fs, 3).holds


def test_invalid_s_and_negative_raw():
    with pytest.raises(InvalidRange):
        gowers_norm(random_one_bounded(F7, 3), 0)
    with pytest.raises(InvalidRange):
        GowersNormValue(2, 0.0, -1.0)


# -- Cauchy-Schwarz reduction -------------------------------------------------------

def two_var_rand(field, seed, scale=1.0):
    rng = SplitMix64(seed)
    q = field.q
    return two_var_function(
        field, [[scale * rng.unit_disk() for _ in range(q)] for _ in range(q)])


def test_cs_project_is_row_average():
    F = two_var_rand(F7, 12)
    got = cs_project([F], [])
    assert np.abs(got.values - F.values.mean(axis=1)).max() < 1e-12
    # with two factors the product is taken pointwise before averaging
    G = two_var_rand(F7, 13)
    got2 = cs_project([F, G], [])
    manual = (F.values * G.values).mean(axis=1)
    assert np.abs(got2.values - manual).max() < 1e-12


def test_cs_inequality_exact_at_s2():
    for seed in range(5):
        fs = [two_var_rand(F7, 600 + seed), two_var_rand(F7, 700 + seed)]
        chk = check_cs_inequality(fs, 2)
        assert chk.holds
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-12)
        assert chk.projections == 1


def test_cs_inequality_holds_at_s3():
    for q in (5, 7):
        field = make_field(q)
        for seed in range(3):
            fs = [two_var_rand(field, 800 + seed),
                  two_var_rand(field, 900 + seed)]
            chk = check_cs_inequality(fs, 3)
            assert chk.holds
            assert chk.lhs <= chk.rhs + 1e-9
            assert chk.projections == q


@pytest.mark.parametrize("p,k,s", [(5, 1, 3), (7, 1, 3), (3, 2, 3),
                                   (2, 3, 3), (5, 1, 4)])
def test_cs_rhs_matches_one_projection_per_h(p, k, s):
    # oracle: the per-h route, one cs_project and one U^2 norm for each of
    # the q^(s-2) shift tuples
    field = make_field(p, k)
    fs = [two_var_rand(field, 40 + 3 * i + s) for i in range(3)]
    chk = check_cs_inequality(fs, s)
    oracle = np.mean([gowers_norm(cs_project(fs, hs), 2).raw_power
                      for hs in product(range(field.q), repeat=s - 2)])
    assert chk.rhs == pytest.approx(oracle, rel=1e-12, abs=0)
    assert chk.lhs == gowers_norm(cs_project(fs, []), s).raw_power ** (
        1 << (s - 2))
    assert chk.holds


@pytest.mark.parametrize("p,k", [(11, 1), (3, 2), (13, 1)])
def test_cs_sides_are_bit_equal_at_s2(p, k):
    # both sides are ||E_y prod f_i||_{U^2}^4, evaluated the same way; at
    # q >= 8 numpy sums a contiguous row pairwise, so the y average must
    # run along the last axis on both sides
    field = make_field(p, k)
    for seed in range(3):
        fs = [two_var_rand(field, 70 + seed), two_var_rand(field, 80 + seed)]
        chk = check_cs_inequality(fs, 2)
        assert chk.lhs == chk.rhs


def test_cs_guardrails():
    F = two_var_rand(F7, 20)
    with pytest.raises(InvalidRange):
        check_cs_inequality([F], 1)
    with pytest.raises(InvalidRange):
        check_cs_inequality([], 2)
    with pytest.raises(InvalidRange):
        cs_project([], [])
    with pytest.raises(NotOneBounded):
        check_cs_inequality([two_var_rand(F7, 21, scale=3.0)], 2)
    with pytest.raises(BudgetExceeded):
        check_cs_inequality([F], 3, budget=100)


def test_cs_guard_states_the_values_it_holds():
    # the product of the differenced factors and one more factor's
    # differences: 2 q^s complex values at once
    fs = [two_var_rand(F7, 22), two_var_rand(F7, 23)]
    with pytest.raises(BudgetExceeded,
                       match=r"s = 4 on q = 7 holds 2 q\^s = 4802 complex "
                             r"values \(0 MiB\), over the budget of 4801"):
        check_cs_inequality(fs, 4, budget=4801)
    assert check_cs_inequality(fs, 4, budget=4802).holds
