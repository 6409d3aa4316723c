"""Dense functions on F_q: algebra, Fourier analysis, differencing.

Fourier identities (Parseval, inversion, orthogonality of characters)
are checked exhaustively on small fields and with seeded random
functions on both prime and extension fields, since every downstream
norm and decomposition routine leans on them.
"""

import numpy as np
import pytest

from ffprog.decomposition import budget_from_schedule, u2_threshold_decompose
from ffprog.errors import (BudgetConditionWarning, ElementOutOfField,
                           FieldMismatch, InvalidExponent, ShapeMismatch)
from ffprog.field import FieldSpec, character_eval, make_field
from ffprog.functions import (_FFT_ABOVE, _fft_forward, _fft_inverse,
                              _forward_rows, _inverse_rows, _table_forward,
                              _table_inverse, balanced_indicator,
                              character_function,
                              constant_function, delta_first_var, delta_multi,
                              dense_function, fourier_transform,
                              function_from_json, function_to_json, indicator,
                              inner, inverse_fourier, lp_norm,
                              random_one_bounded, two_var_function)
from ffprog.gowers import gowers_u2_via_fourier, u2_dual_upper_bound
from ffprog.rng import SplitMix64
from ffprog.schedule import delta_schedule

F7 = make_field(7)
F9 = make_field(3, 2)


def rand_fn(field, seed):
    rng = SplitMix64(seed)
    return dense_function(
        field, [complex(rng.random() * 2 - 1, rng.random() * 2 - 1)
                for _ in range(field.q)])


# -- construction and algebra ---------------------------------------------------

def test_dense_function_shape_and_immutability():
    f = dense_function(F7, range(7))
    assert f.values.dtype == np.complex128
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # storage is read-only
    with pytest.raises(ShapeMismatch):
        dense_function(F7, range(6))


def test_function_algebra_pointwise():
    f = rand_fn(F7, 1)
    g = rand_fn(F7, 2)
    assert np.allclose((f + g).values, f.values + g.values)
    assert np.allclose((f - g).values, f.values - g.values)
    assert np.allclose((f * g).values, f.values * g.values)
    assert np.allclose((2j * f).values, 2j * f.values)
    assert np.allclose((-f).values, -f.values)
    assert np.allclose(f.conj().values, np.conj(f.values))
    h = rand_fn(make_field(5), 3)
    with pytest.raises(FieldMismatch):
        _ = f + h


def test_shift_semantics():
    f = dense_function(F7, range(7))
    # shift by h sends x -> f(x + h)
    assert np.allclose(f.shift(2).values, [(x + 2) % 7 for x in range(7)])
    assert np.allclose(f.shift(F7.element(3)).values,
                       [(x + 3) % 7 for x in range(7)])
    # extension fields shift by the same window view, same contract
    g = dense_function(F9, range(9))
    h = F9.element([1, 2])
    shifted = g.shift(h)
    for x in F9.elements():
        assert shifted.values[x.index] == g.values[(x + h).index]
    with pytest.raises(FieldMismatch):
        g.shift(F7.element(1))


def test_shift_composes_like_addition():
    f = rand_fn(F9, 4)
    a, b = F9.element([1, 0]), F9.element([2, 1])
    assert np.allclose(f.shift(a).shift(b).values, f.shift(a + b).values)
    assert np.allclose(f.shift(F9.zero).values, f.values)


# -- named constructions ------------------------------------------------------

def test_indicator_and_balanced_means():
    A = [0, 1, 3]
    f = indicator(F7, A)
    assert sorted(np.real(f.values)) == [0, 0, 0, 0, 1, 1, 1]
    assert set(np.unique(f.values)) == {0, 1}
    assert abs(f.mean() - 3 / 7) < 1e-15
    b = balanced_indicator(F7, A)
    assert abs(b.mean()) < 1e-15
    assert np.allclose(b.values, f.values - 3 / 7)
    # field elements and raw ints are interchangeable
    g = indicator(F7, [F7.element(0), F7.element(1), F7.element(3)])
    assert np.allclose(f.values, g.values)
    with pytest.raises(ElementOutOfField):
        indicator(F7, [F9.element([1, 0])])


def test_constant_and_character_functions():
    c = constant_function(F7, 2 - 1j)
    assert np.allclose(c.values, 2 - 1j)
    psi = character_function(F7, 1)
    chi = F7.character_matrix()
    assert np.allclose(psi.values, chi[1])
    psi_el = character_function(F7, F7.element(1))
    assert np.allclose(psi.values, psi_el.values)
    assert abs(character_function(F7, 0).values - 1).max() < 1e-15


def test_random_one_bounded_accepts_seed_or_stream():
    f = random_one_bounded(F7, 123)
    g = random_one_bounded(F7, SplitMix64(123))
    assert np.allclose(f.values, g.values)
    assert f.max_abs() <= 1.0 + 1e-12


# -- Fourier analysis -----------------------------------------------------------

@pytest.mark.parametrize("field", [F7, F9, make_field(2, 3)],
                         ids=lambda F: f"GF({F.q})")
def test_fourier_round_trip_and_parseval(field):
    for seed in range(10):
        f = rand_fn(field, 1000 + seed)
        fhat = fourier_transform(f)
        back = inverse_fourier(fhat)
        assert np.abs(back.values - f.values).max() < 1e-9
        # Parseval: sum_a |fhat(a)|^2 = E_x |f(x)|^2
        lhs = float(np.sum(np.abs(fhat.coeffs) ** 2))
        rhs = float(np.mean(np.abs(f.values) ** 2))
        assert abs(lhs - rhs) < 1e-9


def test_fourier_of_character_is_delta():
    for b in range(7):
        fhat = fourier_transform(character_function(F7, b)).coeffs
        expect = np.zeros(7)
        expect[b] = 1.0
        assert np.abs(fhat - expect).max() < 1e-12


def test_fourier_diagonalizes_shift():
    # f(x+h) has coefficients psi_a(h) fhat(a)
    f = rand_fn(F7, 55)
    h = 3
    chi = F7.character_matrix()
    lhs = fourier_transform(f.shift(h)).coeffs
    rhs = chi[:, h] * fourier_transform(f).coeffs
    assert np.abs(lhs - rhs).max() < 1e-12


def test_fourier_indicator_explicit():
    # 1_A hat at the trivial character is the density
    A = [1, 2, 4]
    fhat = fourier_transform(indicator(F7, A)).coeffs
    assert abs(fhat[0] - 3 / 7) < 1e-15
    chi = F7.character_matrix()
    for a in range(7):
        direct = sum(np.conj(chi[a, x]) for x in A) / 7
        assert abs(fhat[a] - direct) < 1e-12


# -- FFT route against the table route ------------------------------------------

def unit_rows(field, seed, n):
    """n rows of unimodular values, one SplitMix64 phase per point."""
    rng = SplitMix64(seed)
    return np.exp(2j * np.pi * rng.random_block(n * field.q)).reshape(n, field.q)


# both sides of _FFT_ABOVE, prime and extension fields
ROUTE_FIELDS = [(101, 1), (3, 4), (521, 1), (23, 2), (3, 6), (2, 10)]


@pytest.mark.parametrize("p,k", ROUTE_FIELDS, ids=lambda v: str(v))
def test_fft_route_matches_table_route(p, k):
    field = make_field(p, k)
    rows = unit_rows(field, 100 * p + k, 4)
    fft, table = _fft_forward(field, rows), _table_forward(field, rows)
    assert np.abs(fft - table).max() < 1e-14
    # one function is the one-row case of the stack
    assert np.abs(_fft_forward(field, rows[0]) - table[0]).max() < 1e-14
    # the stacked inverse of a spectrum stack, both routes
    back_fft, back_table = _fft_inverse(field, table), _table_inverse(field, table)
    assert np.abs(back_fft - back_table).max() < 1e-13
    assert np.abs(back_fft - rows).max() < 1e-13
    # the dispatchers take the route q asks for
    want = _fft_forward if field.q > _FFT_ABOVE else _table_forward
    assert np.array_equal(_forward_rows(field, rows), want(field, rows))
    want = _fft_inverse if field.q > _FFT_ABOVE else _table_inverse
    assert np.array_equal(_inverse_rows(field, table), want(field, table))


@pytest.mark.parametrize("p,k", [(17, 3), (8191, 1)], ids=["GF(17^3)", "GF(8191)"])
def test_spectral_stack_runs_past_the_table_cap(monkeypatch, p, k):
    # q = 4913 and 8191 lie above the character table's q <= 4096 cap;
    # the checks use Parseval and single characters, not the table
    def refuse(self):
        raise AssertionError("character_matrix called")

    monkeypatch.setattr(FieldSpec, "character_matrix", refuse)
    field = make_field(p, k)
    q = field.q
    f = dense_function(field, unit_rows(field, q, 1)[0])
    fhat = fourier_transform(f).coeffs
    assert abs(np.sum(np.abs(fhat) ** 2) - 1.0) < 1e-12   # Parseval, |f| = 1
    for a in (0, 1, q // 3, q - 1):
        psi = character_function(field, a).values
        assert abs(fhat[a] - np.vdot(psi, f.values) / q) < 1e-14
    u2 = gowers_u2_via_fourier(f).raw_power
    assert u2 == pytest.approx(np.sum(np.abs(fhat) ** 4), rel=1e-12)
    assert u2 <= np.abs(fhat).max() ** 2 + 1e-15    # sum |f^|^4 <= max |f^|^2
    assert u2_dual_upper_bound(f) == pytest.approx(np.abs(fhat).sum(), rel=1e-12)
    # a character: U^2 = 1 and dual bound 1
    psi = character_function(field, q // 2)
    assert gowers_u2_via_fourier(psi).value == pytest.approx(1.0, abs=1e-12)
    assert u2_dual_upper_bound(psi) == pytest.approx(1.0, abs=1e-9)
    # a spiked character decomposes: fa keeps the spike's coefficient as is
    a = q // 5
    vals = character_function(field, a).values + 0.02 * f.values
    g = dense_function(field, vals / np.sqrt(np.mean(np.abs(vals) ** 2)))
    bud = budget_from_schedule(delta_schedule(2, 1, 0.5), 2)
    with pytest.warns(BudgetConditionWarning):
        res = u2_threshold_decompose(g, bud)
    assert res.certified
    assert np.abs(res.fa.values + res.fc.values - g.values).max() < 1e-12
    ga = np.vdot(character_function(field, a).values, g.values) / q
    fa_at = np.vdot(character_function(field, a).values, res.fa.values) / q
    assert abs(fa_at - ga) < 1e-12 and abs(ga) >= res.tau
    # the producer's dual bound is the one the verifier recomputes from fa
    assert res.certificates.dual_bound == pytest.approx(
        u2_dual_upper_bound(res.fa), rel=1e-9)
    assert abs(ga) <= res.certificates.dual_bound


def test_block_built_character_matrix_matches_its_oracles():
    p = 521   # three row blocks
    F = make_field(p)
    x = np.arange(p)
    want = F.omega_powers()[np.outer(x, x) % p]
    assert np.array_equal(F.character_matrix(), want)
    # GF(17^2): q = 289 spans two blocks; rows on both sides of the seam
    G = make_field(17, 2)
    chi, els = G.character_matrix(), G.elements()
    for a in (0, 1, 255, 256, 257, G.q - 1):
        row = [character_eval(G, els[a], xe) for xe in els]
        assert np.abs(chi[a] - row).max() < 1e-12


# -- differencing ---------------------------------------------------------------

def test_delta_multi_matches_manual():
    f = rand_fn(F7, 77)
    h1, h2 = 2, 5
    manual = np.empty(7, dtype=complex)
    for x in range(7):
        d1 = lambda x: f.values[(x + h1) % 7] * np.conj(f.values[x])
        manual[x] = d1((x + h2) % 7) * np.conj(d1(x))
    got = delta_multi(f, [h1, h2])
    assert np.abs(got.values - manual).max() < 1e-12
    # empty list is the identity
    assert np.allclose(delta_multi(f, []).values, f.values)


def test_delta_multi_of_character_is_constant():
    # Delta_h psi_a = psi_a(h), a constant of modulus one
    psi = character_function(F7, 3)
    d = delta_multi(psi, [4])
    chi = F7.character_matrix()
    assert np.abs(d.values - chi[3, 4]).max() < 1e-12


def test_delta_first_var_shifts_rows_only():
    rng = SplitMix64(31337)
    vals = np.array([[complex(rng.random(), rng.random()) for _ in range(7)]
                     for _ in range(7)])
    F = two_var_function(F7, vals)
    got = delta_first_var(F, [2]).values
    for x in range(7):
        for y in range(7):
            expect = vals[(x + 2) % 7, y] * np.conj(vals[x, y])
            assert abs(got[x, y] - expect) < 1e-12
    with pytest.raises(ShapeMismatch):
        two_var_function(F7, np.zeros((7, 6)))


# -- norms and pairings ----------------------------------------------------------

def test_lp_norms():
    f = dense_function(F7, [3, -4, 0, 0, 0, 0, 0])
    assert abs(lp_norm(f, 2) - np.sqrt(25 / 7)) < 1e-12
    assert abs(lp_norm(f, 1) - 1.0) < 1e-12
    assert lp_norm(f, "inf") == 4.0
    assert lp_norm(f, float("inf")) == 4.0
    # p -> inf monotonicity at a point: L1 <= L2 <= Linf
    g = rand_fn(F9, 6)
    assert lp_norm(g, 1) <= lp_norm(g, 2) + 1e-12
    assert lp_norm(g, 2) <= lp_norm(g, "inf") + 1e-12
    with pytest.raises(InvalidExponent):
        lp_norm(f, 0.5)


def test_inner_product():
    f = rand_fn(F7, 8)
    g = rand_fn(F7, 9)
    direct = sum(f.values[x] * np.conj(g.values[x]) for x in range(7)) / 7
    assert abs(inner(f, g) - direct) < 1e-12
    assert abs(inner(f, f) - lp_norm(f, 2) ** 2) < 1e-12
    # orthonormality of characters under this pairing
    assert abs(inner(character_function(F7, 1), character_function(F7, 1)) - 1) < 1e-12
    assert abs(inner(character_function(F7, 1), character_function(F7, 2))) < 1e-12
    with pytest.raises(FieldMismatch):
        inner(f, rand_fn(F9, 10))


# -- serialization ---------------------------------------------------------------

def test_json_round_trip():
    f = rand_fn(F9, 11)
    data = function_to_json(f)
    assert data["p"] == 3 and data["k"] == 2
    g = function_from_json(data)
    assert g.field == F9
    assert np.abs(g.values - f.values).max() < 1e-15
    # validating against an explicit field
    h = function_from_json(data, field=F9)
    assert np.allclose(h.values, f.values)
    with pytest.raises(FieldMismatch):
        function_from_json(data, field=F7)
