"""Field arithmetic: exhaustive axiom checks on small GF(p^k).

The fields under test are small enough to sweep every pair (and for
distributivity a seeded sample of triples), so these are real proofs of
the arithmetic tables, not spot checks.  Canonical moduli and trace
tables are frozen: they are part of the cross-implementation contract
(element enumeration order feeds the character matrix and every seeded
experiment downstream).
"""

import gc
import math
import time
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest

from ffprog import errors, field as field_module
from ffprog.errors import (BudgetExceeded, DegreeMismatch, DivisionByZero,
                           FieldMismatch, InvalidRange, NotPrime,
                           ReducibleModulus)
from ffprog.extremal import build_hypergraph, r_exact
from ffprog.field import (_CHI_LOG_ABOVE, _MR_EXACT_BELOW, _TRIAL_DIVISORS,
                          FieldSpec, _is_irreducible, _prime_factors,
                          _primitive_element, _translates,
                          character_eval, enumerate_elements, field_arith,
                          is_prime, make_field, trace)
from ffprog.functions import character_function
from ffprog.polys import progression_system
from ffprog.rng import SplitMix64

FIELDS = [make_field(2), make_field(7), make_field(2, 3), make_field(3, 2),
          make_field(5, 2), make_field(3, 3)]


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"GF({F.q})")
def test_addition_group_axioms_exhaustive(F):
    els = F.elements()
    zero = F.zero
    for a in els:
        assert a + zero == a
        assert a + (-a) == zero
        for b in els:
            assert a + b == b + a
            assert (a + b) - b == a


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"GF({F.q})")
def test_multiplicative_group_exhaustive(F):
    els = F.elements()
    one = F.one
    for a in els:
        assert a * one == a
        for b in els:
            assert a * b == b * a
    # inverses: every nonzero element has one, and it works
    for a in els[1:]:
        inv = a.inverse()
        assert a * inv == one
    with pytest.raises(DivisionByZero):
        F.zero.inverse()


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"GF({F.q})")
def test_distributivity_sampled(F):
    els = F.elements()
    rng = SplitMix64(2024 + F.q)
    for _ in range(300):
        a = els[rng.randrange(F.q)]
        b = els[rng.randrange(F.q)]
        c = els[rng.randrange(F.q)]
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"GF({F.q})")
def test_frobenius_and_fermat(F):
    # x^q = x for all x; (a+b)^p = a^p + b^p
    for a in F.elements():
        assert a ** F.q == a
    rng = SplitMix64(17)
    els = F.elements()
    for _ in range(100):
        a = els[rng.randrange(F.q)]
        b = els[rng.randrange(F.q)]
        assert (a + b) ** F.p == a ** F.p + b ** F.p


def test_canonical_moduli_frozen():
    # lex-least monic irreducible, constant coefficient first
    assert make_field(5, 2).modulus == (1, 1, 1)        # t^2 + t + 1
    assert make_field(3, 3).modulus == (1, 0, 2, 1)     # t^3 + 2t^2 + 1
    assert make_field(7, 2).modulus == (1, 0, 1)        # t^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)


def has_no_root(coeffs, p):
    """Root scan: a polynomial of degree 2 or 3 is irreducible iff it has
    no root in F_p (and every degree-1 polynomial is irreducible)."""
    return len(coeffs) == 2 or all(
        sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
        for x in range(p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_rabin_test_matches_root_scan_on_degrees_1_to_3(p):
    for k in (1, 2, 3):
        monic = [tail + (1,) for tail in product(range(p), repeat=k)]
        for coeffs in monic:
            assert _is_irreducible(coeffs, p) == has_no_root(coeffs, p), coeffs
        # the canonical modulus is the first monic irreducible in lex order
        assert make_field(p, k).modulus == next(
            c for c in monic if has_no_root(c, p))


@pytest.mark.parametrize("p,k,modulus", [(1000003, 2, (1, 0, 1)),
                                         (100003, 3, (1, 0, 1, 1))])
def test_canonical_modulus_of_a_large_prime_is_fast(p, k, modulus):
    start = time.perf_counter()
    field = make_field(p, k)
    assert time.perf_counter() - start < 0.5
    assert field.modulus == modulus  # t^2 + 1 and t^3 + t^2 + 1


def test_enumeration_order_prime_field_is_identity():
    F = make_field(11)
    for i, el in enumerate(F.elements()):
        assert el.index == i
        assert el.coeffs == (i,)


def test_enumeration_order_extension_constant_major():
    F = make_field(3, 2)
    coeffs = [el.coeffs for el in F.elements()]
    assert coeffs[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert len(coeffs) == 9
    assert enumerate_elements(F) == list(F.elements())
    for i in range(9):
        assert F.element_at(i).index == i


def test_element_construction_and_errors():
    F = make_field(3, 2)
    assert F.element(5).coeffs == (2, 0)     # integers embed via F_p
    assert F.element([1, 2]).coeffs == (1, 2)
    assert F.element([4, -1]).coeffs == (1, 2)   # entries reduced mod p
    with pytest.raises(DegreeMismatch):
        F.element([1, 2, 0])
    with pytest.raises(InvalidRange):
        F.element_at(9)
    with pytest.raises(InvalidRange):
        F.element_at(-1)


def test_make_field_validation():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(InvalidRange):
        make_field(2 ** 64 + 13)
    with pytest.raises(DegreeMismatch):
        make_field(5, 0)
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, modulus=[2, 0, 1])  # t^2 + 2 = (t+1)(t+2) mod 3
    with pytest.raises(DegreeMismatch):
        make_field(3, 2, modulus=[1, 1])
    # a valid explicit modulus is accepted and kept
    F = make_field(3, 2, modulus=[2, 2, 1])  # t^2 + 2t + 2, irreducible
    assert F.modulus == (2, 2, 1)
    assert (F.element([0, 1]) * F.element([0, 1])).coeffs == (1, 1)


def test_trace_tables_frozen_and_linear():
    F9 = make_field(3, 2)
    assert list(F9.trace_vector()) == [0, 0, 0, 2, 2, 2, 1, 1, 1]
    # trace is F_p-linear and lands in F_p
    for F in (F9, make_field(2, 3), make_field(5, 2)):
        els = F.elements()
        for a in els:
            ta = trace(F, a)
            assert 0 <= ta < F.p
            for b in els:
                assert (trace(F, a) + trace(F, b)) % F.p == trace(F, a + b)
    # prime-field trace is the identity
    F7 = make_field(7)
    assert [trace(F7, e) for e in F7.elements()] == list(range(7))


def test_trace_surjective_onto_prime_field():
    for F in (make_field(3, 2), make_field(2, 3), make_field(3, 3)):
        vals = {trace(F, a) for a in F.elements()}
        assert vals == set(range(F.p))
        # each fibre of the trace has size q/p
        counts = np.bincount(F.trace_vector(), minlength=F.p)
        assert all(c == F.q // F.p for c in counts)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"GF({F.q})")
def test_characters_multiplicative_in_x_exhaustive(F):
    chi = F.character_matrix()
    assert chi.shape == (F.q, F.q)
    els = F.elements()
    for a in range(F.q):
        for x in els:
            for y in els:
                lhs = chi[a, (x + y).index]
                rhs = chi[a, x.index] * chi[a, y.index]
                assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"GF({F.q})")
def test_character_orthogonality(F):
    chi = F.character_matrix()
    sums = chi.sum(axis=1)
    assert abs(sums[0] - F.q) < 1e-9         # trivial character
    assert np.all(np.abs(sums[1:]) < 1e-9)   # every other row cancels
    # rows have unit modulus entries
    assert np.max(np.abs(np.abs(chi) - 1.0)) < 1e-12


def test_character_eval_matches_matrix():
    F = make_field(3, 2)
    chi = F.character_matrix()
    for a in F.elements():
        for x in F.elements():
            assert abs(character_eval(F, a, x) - chi[a.index, x.index]) < 1e-12


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (5, 3)])
def test_trace_form_character_matrix_matches_character_eval(p, k):
    # the table comes from the k x k trace form; the oracle multiplies each
    # pair and sums the Frobenius orbit of the product
    F = make_field(p, k)
    els = F.elements()
    want = np.array([[character_eval(F, a, x) for x in els] for a in els])
    assert np.max(np.abs(F.character_matrix() - want)) < 1e-12
    assert list(F.trace_vector()) == [trace(F, x) for x in els]


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (2, 6)])
def test_window_translation_matches_element_addition(p, k):
    F = make_field(p, k)
    q = F.q
    els = F.elements()
    rng = SplitMix64(p * 100 + k)
    values = np.array([rng.random() for _ in range(q)])
    rows = np.array([rng.random() for _ in range(q * q)]).reshape(q, q)
    blocks = np.array([rng.random() for _ in range(q * 6)]).reshape(q, 2, 3)
    T, T_rows = _translates(F, values), _translates(F, rows)
    T_blocks = _translates(F, blocks)
    assert T_blocks.shape == (p,) * k + (2, 3) + (p,) * k
    starts = T[..., 0]   # the x whose last coefficient is 0: still a view
    assert not T.flags.owndata and not starts.flags.owndata
    assert not T.flags.writeable
    for e in els:
        perm = [(x + e).index for x in els]
        assert np.array_equal(T[e.coeffs].reshape(q), values[perm])
        # q x q arrays translate in the first variable only; the x axes
        # come after the second variable's
        assert np.array_equal(
            np.moveaxis(T_rows[e.coeffs], 0, -1).reshape(q, q), rows[perm])
        assert np.array_equal(starts[e.coeffs].reshape(q // p),
                              values[perm][::p])
        # two trailing axes ride along the same way
        assert np.array_equal(
            np.moveaxis(T_blocks[e.coeffs], (0, 1), (-2, -1)).reshape(q, 2, 3),
            blocks[perm])


def test_field_arith_dispatcher():
    F = make_field(7)
    a, b = F.element(3), F.element(5)
    assert field_arith("add", a, b) == F.element(1)
    assert field_arith("mul", a, b) == F.element(1)
    assert field_arith("inv", a) == F.element(5)
    assert field_arith("pow", a, 6) == F.element(1)
    assert field_arith("sub", F.element(0), F.element(1)) == F.element(6)
    with pytest.raises(InvalidRange):
        field_arith("frobnicate", a, b)
    with pytest.raises(FieldMismatch):
        field_arith("add", a, 5)
    with pytest.raises(InvalidRange):
        field_arith("pow", a, "six")


def test_frozen_arithmetic_answers():
    F7 = make_field(7)
    assert F7.element(3).inverse().index == 5
    F9 = make_field(3, 2)
    t = F9.element([0, 1])
    assert (t * t).coeffs == (2, 0)   # t^2 = -1 = 2 under t^2 + 1
    assert trace(F9, t) == 0
    assert (t ** 8).coeffs == (1, 0)  # element order divides q - 1


def test_add_index_table_and_neg_perm():
    for F in (make_field(7), make_field(3, 2)):
        table = F.add_index_table()
        neg = F.neg_perm()
        els = F.elements()
        for i, a in enumerate(els):
            assert els[neg[i]] == -a
            for j, b in enumerate(els):
                assert els[table[i, j]] == a + b


def test_fieldspec_equality_ignores_caches():
    F1 = make_field(5, 2)
    F1.character_matrix()  # populate a cache on one copy only
    F2 = make_field(5, 2)
    assert F1 == F2
    assert isinstance(F1, FieldSpec)


def test_a_dropped_field_is_freed_without_the_cyclic_collector():
    # elements point back to their field, so the field holds none of them:
    # a field dropped after elements() and a table goes at once, table and
    # all, without waiting for the cyclic garbage collector
    gc.disable()
    try:
        F = make_field(7, 2)
        F.character_matrix()
        assert len(F.elements()) == F.q and F.elements()[5] == F.element_at(5)
        _primitive_element(F)
        alive = weakref.ref(F)
        del F
        assert alive() is None
    finally:
        gc.enable()


def _table_by_logs():
    F = make_field(1009)   # above _CHI_LOG_ABOVE
    F.character_matrix()
    return F


def _dilation_checked():
    F = make_field(13)   # (y, 2y) is dilation invariant
    assert r_exact(build_hypergraph(progression_system(["y", "2y"]),
                                    F)).fixed == 2
    return F


@pytest.mark.parametrize("use", [_table_by_logs, _dilation_checked],
                         ids=lambda use: use.__name__.strip("_"))
def test_a_field_dropped_after_reading_its_generator_is_freed(use):
    # the cached generator is an index, not an element pointing back to the
    # field, so these fields too go at once, without the cyclic collector
    gc.disable()
    try:
        F = use()
        assert "generator" in F._cache
        alive = weakref.ref(F)
        del F
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("table,name", [
    ("character_matrix", "character matrix"),
    ("add_index_table", "addition table"),
])
def test_tables_over_the_budget_are_refused_before_allocation(table, name):
    F = make_field(17, 3)  # q = 4913: q^2 = 24137569 entries > 2^24
    values = {"character_matrix": r"complex values \(368 MiB\)",
              "add_index_table": r"int64 values \(184 MiB\)"}[table]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=(
                rf"{name} on q = 4913 holds q\^2 = 24137569 {values}, "
                r"over the budget of 16777216 values")):
            getattr(F, table)()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one table is at least 184 MiB


def test_tables_build_at_the_budget_and_are_refused_one_under(monkeypatch):
    monkeypatch.setattr(errors, "BUDGET", 49)
    F = make_field(7)
    assert F.character_matrix().shape == F.add_index_table().shape == (7, 7)
    monkeypatch.setattr(errors, "BUDGET", 48)
    F = make_field(7)  # a fresh field: no cached tables
    for table, kind in ((F.character_matrix, "complex"),
                        (F.add_index_table, "int64")):
        with pytest.raises(BudgetExceeded, match=rf"q\^2 = 49 {kind} values"):
            table()


def test_character_matrix_still_builds_at_q_4001():
    # the largest prime-sweep field, built by logs; the benchmark's spike
    # reads a row.  Row 0 is set apart; rows 1 = g^0 and g^-1 = g^(q-2)
    # gather from the two ends of W.  Against an int64 oracle that shares
    # nothing with the build but omega
    p = 4001
    F = make_field(p)
    chi = F.character_matrix()
    assert chi.shape == (p, p)
    omega, x = F.omega_powers(), np.arange(p, dtype=np.int64)
    g = _primitive_element(F)
    for a in (0, 1, 2, g.index, g.inverse().index, 2000, 4000):
        assert np.array_equal(chi[a], omega[(a * x) % p]), a


@pytest.mark.parametrize("p,k,rows", [
    (2, 9, (1, 255, 256, 511)),
    (61, 2, (255, 256, 3584, 3720)),
    (3, 7, (255, 256, 2048, 2186)),
])
def test_character_matrix_block_seams_match_character_eval(p, k, rows):
    # each side of the first block seam, then the last block's ends.  The
    # block kernel is called directly: above _CHI_LOG_ABOVE (q = 3721 and
    # 2187) character_matrix builds by logs, but these fields give the
    # kernel up to 14 seams
    F = make_field(p, k)
    chi, els = np.empty((F.q, F.q), dtype=np.complex128), F.elements()
    F._chi_by_blocks(chi)
    for a in rows:
        want = [character_eval(F, els[a], x) for x in els]
        assert np.max(np.abs(chi[a] - want)) < 1e-12, a


@pytest.mark.parametrize("p,k,modulus", [
    (2, 1, None), (7, 1, None), (2, 6, None), (2, 10, None), (3, 3, None),
    (3, 4, None), (3, 7, None), (5, 2, None), (5, 3, None), (11, 2, None),
    (13, 3, None), (61, 2, None), (3, 2, (2, 2, 1)), (7, 1, (3, 1))])
def test_trace_form_from_newton_identities_matches_the_trace(p, k, modulus):
    # the form comes from the modulus alone; the oracle takes each trace
    # of t^m as a sum of Frobenius powers of FieldElements
    F = make_field(p, k, modulus)
    traces = [trace(F, F.element(tuple(row))) for row in F._power_rows()]
    want = [[traces[i + j] for j in range(k)] for i in range(k)]
    assert F._trace_form().tolist() == want


@pytest.mark.parametrize("p,k", [(2, 1), (101, 1), (2, 6), (11, 2), (5, 3),
                                 (3, 4), (2, 9), (13, 3)])
def test_fft_perm_is_the_frequency_index_of_every_character(p, k):
    F = make_field(p, k)
    C, T = F._coeff_matrix(), F._trace_form()
    want = C @ T % p @ F._place_values()   # frequency c_a T mod p, flattened
    assert np.array_equal(F._fft_perm(), want)
    assert sorted(F._fft_perm()) == list(range(F.q))


@pytest.mark.parametrize("p,a", [(65537, 65536), (65537, 12345),
                                 (46337, 46336)])
def test_exponent_kernel_switches_to_int64_before_int32_overflows(p, a):
    # (p - 1)^2 = 2^32 at p = 65537 must run in int64; 46337 is the largest
    # prime with (p - 1)^2 < 2^31, so its top row is the int32 edge
    F = make_field(p)
    row = F._trace_rows([a])[0]
    wide = (p - 1) ** 2 >= 1 << 31
    assert row.dtype == (np.int64 if wide else np.int32)
    want = [(a * x) % p for x in range(p)]
    assert row.tolist() == want
    psi = character_function(F, a).values
    assert np.array_equal(psi, F.omega_powers()[want])


def test_trace_vector_stays_int64():
    for F in (make_field(3, 2), make_field(101)):
        tv = F.trace_vector()
        assert tv.dtype == np.int64
        assert tv.tolist() == [trace(F, x) for x in F.elements()]


def test_character_matrix_holds_no_q_by_q_exponent_array():
    # beyond the table, the block build (q = 997) holds one block's int32
    # exponents and their quotient, about 2 MiB, where a q x q exponent
    # array and its quotient would take 7.6 MiB.  The log build (q = 4001)
    # holds O(q) vectors; the block build there would hold 11.7 MiB
    for q, work in ((997, 4 << 20), (4001, 1 << 20)):
        F = make_field(q)
        tracemalloc.start()
        try:
            F.character_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < q * q * 16 + work, q


def _chi_oracle_equal(F, chi):
    # omega at the exponent kernel's Tr(a x), a block of rows at a time,
    # compared as int64 views so that equal means bit-identical
    omega, q = F.omega_powers(), F.q
    return all(np.array_equal(
        chi[s:s + 256].view(np.int64),
        omega[F._trace_rows(slice(s, min(s + 256, q)))].view(np.int64))
        for s in range(0, q, 256))


@pytest.mark.parametrize("p,k", [
    (2, 1), (3, 1), (31, 1), (2, 3), (3, 2),            # q - 1 = 1 at GF(2)
    (1009, 1), (4001, 1), (2, 10), (2, 11), (3, 7), (61, 2),
])
def test_log_build_is_bit_identical_to_the_exponent_kernel(p, k):
    # psi_(g^i)(g^j) = W[(i + j) mod (q - 1)], called directly on either
    # side of the crossover; GF(2^10) has q - 1 = 3 * 11 * 31
    F = make_field(p, k)
    q = F.q
    chi = np.empty((q, q), dtype=np.complex128)
    F._chi_by_logs(chi)
    one = F.omega_powers()[:1].view(np.int64)   # omega^0, as two int64
    assert (chi[0].view(np.int64).reshape(q, 2) == one).all()
    assert (chi[:, :1].copy().view(np.int64) == one).all()
    last = F.element_at(q - 1)
    want = F.omega_powers()[[trace(F, last * x) for x in F.elements()]]
    assert np.array_equal(chi[q - 1].view(np.int64), want.view(np.int64))
    assert _chi_oracle_equal(F, chi)


@pytest.mark.parametrize("p,k,route,other", [
    (31, 2, "_chi_by_blocks", "_chi_by_logs"),
    (1009, 1, "_chi_by_logs", "_chi_by_blocks")])
def test_character_matrix_takes_one_route_each_side_of_the_crossover(
        monkeypatch, p, k, route, other):
    # GF(31^2) has q = 961 and GF(1009) q = 1009, either side of 1000; the
    # table is bit-identical to the other build's
    called = []
    for name in ("_chi_by_blocks", "_chi_by_logs"):
        real = getattr(FieldSpec, name)
        monkeypatch.setattr(FieldSpec, name, lambda self, chi, real=real,
                            name=name: called.append(name) or real(self, chi))
    F = make_field(p, k)
    assert (F.q > _CHI_LOG_ABOVE) == (route == "_chi_by_logs")
    chi = F.character_matrix()
    assert called == [route]
    want = np.empty_like(chi)
    getattr(F, other)(want)
    assert np.array_equal(chi.view(np.int64), want.view(np.int64))


# -- primality and factoring -------------------------------------------------

def trial_division(n):
    """Distinct prime factors of n by trial division up to sqrt(n)."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def test_is_prime_and_prime_factors_match_trial_division():
    for n in range(1, 10 ** 5):
        factors = _prime_factors(n)
        assert factors == trial_division(n), n
        assert is_prime(n) == (factors == [n]), n


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 1), (13, 1), (31, 1),
                                 (2, 3), (3, 2), (2, 4), (5, 2)])
def test_primitive_element_is_the_first_generator(p, k):
    # the multiplicative order of each element, by repeated products
    field = make_field(p, k)

    def order(a):
        n, x = 1, a
        while x != field.one:
            n, x = n + 1, x * a
        return n

    orders = [order(a) for a in field.elements()[1:]]
    g = _primitive_element(field)
    assert order(g) == field.q - 1
    assert g.index == 1 + orders.index(field.q - 1)


@pytest.mark.parametrize("p,k", [(7, 1), (2, 3), (5, 2), (1009, 1),
                                 (4001, 1), (2, 10), (3, 7), (61, 2)])
def test_primitive_element_is_searched_once_per_field(monkeypatch, p, k):
    # the uncached search: the first g with g^((q - 1) / r) != 1 for the
    # primes r | q - 1, from trial division
    field = make_field(p, k)
    q = field.q
    want = next(g for g in field.elements()[1:]
                if all(g ** ((q - 1) // r) != field.one
                       for r in trial_division(q - 1)))
    searches = []
    real = field_module._prime_factors
    monkeypatch.setattr(field_module, "_prime_factors",
                        lambda n: searches.append(n) or real(n))
    assert _primitive_element(field) == want
    assert _primitive_element(field) == want
    assert searches == [q - 1]
    assert type(field._cache["generator"]) is int


def test_prime_factors_of_planted_products():
    # 2-4 primes below 10^9 (repeats allowed), so most cofactors left
    # after trial division are composite and go to Pollard's rho.  Only
    # products below is_prime's exact bound count here: at or above it
    # trial division runs, up to _TRIAL_DIVISORS divisors.
    rng = SplitMix64(9001)
    tried = 0
    while tried < 200:
        primes = []
        for _ in range(2 + rng.randrange(3)):
            n = 2 + rng.randrange(10 ** (3 + rng.randrange(7)) - 2)
            while not is_prime(n):
                n -= 1
            primes.append(n)
        n = math.prod(primes)
        if n < _MR_EXACT_BELOW:
            tried += 1
            assert _prime_factors(n) == sorted(set(primes)), primes
    # past the bound: primes below 10^5 that trial division clears, times
    # 2-3 primes above 10^6 whose product lies below the bound, still
    # factor exactly (one small prime sits just under the divisor cap)
    for case in range(20):
        large = [_MR_EXACT_BELOW]
        while math.prod(large) >= _MR_EXACT_BELOW:
            large = []
            for _ in range(2 + rng.randrange(2)):
                n = 10 ** 6 + rng.randrange(10 ** (7 + rng.randrange(5)))
                while not is_prime(n):
                    n += 1
                large.append(n)
        small = [999983] if case == 0 else []
        while math.prod(small + large) < _MR_EXACT_BELOW:
            n = 2 + rng.randrange(10 ** 5)
            while not is_prime(n):
                n -= 1
            small.append(n)
        primes = small + large
        assert _prime_factors(math.prod(primes)) == sorted(set(primes)), primes


def test_prime_factors_refuses_an_uncleared_cofactor_quickly():
    # two 19-digit primes: no divisor up to the cap, and the product is
    # past is_prime's exact bound, so no part of it can be certified
    a, b = 10 ** 18 + 3, 10 ** 18 + 9
    assert is_prime(a) and is_prime(b)
    start = time.perf_counter()
    with pytest.raises(InvalidRange, match=(
            f"cannot factor {a * b}: no divisor up to {_TRIAL_DIVISORS} "
            f"and at or above {_MR_EXACT_BELOW}")):
        _prime_factors(a * b)
    assert time.perf_counter() - start < 2.0


def test_is_prime_rejects_strong_pseudoprime_to_bases_up_to_37():
    psi_12 = 318665857834031151167461  # smallest such, below psi_13
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(41)
