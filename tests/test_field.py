"""Field arithmetic: exhaustive axiom checks on small GF(p^k).

The fields under test are small enough to sweep every pair (and for
distributivity a seeded sample of triples), so these are real proofs of
the arithmetic tables, not spot checks.  Canonical moduli and trace
tables are frozen: they are part of the cross-implementation contract
(element enumeration order feeds the character matrix and every seeded
experiment downstream).
"""

import math
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ffprog import errors
from ffprog.errors import (BudgetExceeded, DegreeMismatch, DivisionByZero,
                           FieldMismatch, InvalidRange, NotPrime,
                           ReducibleModulus)
from ffprog.field import (_MR_EXACT_BELOW, _TRIAL_DIVISORS, FieldSpec,
                          _is_irreducible, _periodic, _prime_factors, _shifted,
                          character_eval, enumerate_elements, field_arith,
                          is_prime, make_field, trace)
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
    ext, ext_rows = _periodic(F, values), _periodic(F, rows)
    for e in els:
        perm = [(x + e).index for x in els]
        assert np.array_equal(_shifted(F, ext, e.index).reshape(q), values[perm])
        # q x q arrays translate in the first variable only
        assert np.array_equal(_shifted(F, ext_rows, e.index).reshape(q, q),
                              rows[perm])


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


@pytest.mark.parametrize("table,name", [
    ("character_matrix", "character matrix"),
    ("add_index_table", "addition table"),
])
def test_tables_over_the_budget_are_refused_before_allocation(table, name):
    F = make_field(17, 3)  # q = 4913: q^2 = 24137569 entries > 2^24
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=(
                rf"{name} on q = 4913 holds q\^2 = 24137569 complex values "
                r"\(368 MiB\), over the budget of 16777216 values")):
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
    for table in (F.character_matrix, F.add_index_table):
        with pytest.raises(BudgetExceeded, match=r"q\^2 = 49 complex values"):
            table()


def test_character_matrix_still_builds_at_q_4001():
    # the largest prime-sweep field; the benchmark's spike reads a row
    chi = make_field(4001).character_matrix()
    assert chi.shape == (4001, 4001)
    assert chi[1, 1] == pytest.approx(np.exp(2j * np.pi / 4001), abs=1e-12)


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
