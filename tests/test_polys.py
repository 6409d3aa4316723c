"""Integer polynomials, parsing, and independence certification.

The independence machinery is checked against in-file oracles: a
rational-rank Gauss-Jordan over Fraction, and the all-minors search (every
m x m minor in lexicographic row order, Bareiss determinants) with a
Gauss-Jordan kernel vector that the certificate must match bit for bit.
Witnesses are also verified exactly against the defining relation
sum(w_i P_i) = 0.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from ffprog.errors import (DependentSystem, EmptyInput, FieldMismatch,
                           NonzeroConstantTerm, PolySyntaxError,
                           ZeroPolynomial)
from ffprog.field import make_field
from ffprog.polys import (DependenceWitness, IndependenceCertificate, IntPoly,
                          characteristic_threshold, degree_sequence,
                          independence_certificate, int_poly, parse_poly,
                          progression_system, reduce_and_eval, render_poly)
from ffprog.rng import SplitMix64


# -- oracles -----------------------------------------------------------------

def rref(cols):
    """Gauss-Jordan over Fraction of the matrix whose columns are the lists.

    Returns the reduced rows and the (row, column) pivot positions.
    """
    rows = len(cols[0])
    a = [[Fraction(cols[j][i]) for j in range(len(cols))] for i in range(rows)]
    pivots = []
    for c in range(len(cols)):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, c))
    return a, pivots


def rational_rank(cols):
    """Rank of the integer matrix whose columns are the given lists."""
    return len(rref(cols)[1]) if cols else 0


def bareiss_det(matrix):
    """Bareiss fraction-free determinant of a square integer matrix."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def oracle_certificate(polys):
    """(rows, det) of the first nonvanishing minor, or the witness tuple."""
    m = len(polys)
    for i, p in enumerate(polys):
        if p.is_zero:
            return tuple(int(j == i) for j in range(m))
    cols = columns(polys)
    for rows in combinations(range(len(cols[0])), m):
        det = bareiss_det([[cols[j][i] for j in range(m)] for i in rows])
        if det != 0:
            return rows, det
    a, pivots = rref(cols)
    pivot_cols = {c for _, c in pivots}
    free = next(c for c in range(m) if c not in pivot_cols)
    vec = [Fraction(int(c == free)) for c in range(m)]
    for pr, pc in pivots:
        vec[pc] = -a[pr][free]
    denom = lcm(*[f.denominator for f in vec])
    ints = [int(f * denom) for f in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    return tuple(-x for x in ints) if first < 0 else tuple(ints)


def columns(polys):
    d = max(p.degree for p in polys)
    return [[p.coefficient(i) for i in range(d + 1)] for p in polys]


def random_poly(rng, max_degree=5, max_coeff=6):
    degree = 1 + rng.randrange(max_degree)
    coeffs = [rng.randrange(2 * max_coeff + 1) - max_coeff for _ in range(degree + 1)]
    return int_poly(coeffs)


def combination(coeffs, polys):
    """sum(c_i P_i) as an IntPoly."""
    out = int_poly([])
    for c, p in zip(coeffs, polys):
        out = out + c * p
    return out


# -- IntPoly basics ------------------------------------------------------------

def test_int_poly_normalizes_trailing_zeros():
    assert int_poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert int_poly([0, 0, 0]).coeffs == ()
    assert int_poly([]).is_zero
    assert int_poly([0]).degree == -1
    assert int_poly([0, 0, 7]).degree == 2


def test_int_poly_arithmetic():
    p = int_poly([1, 2, 3])
    q = int_poly([0, -2, -3])
    assert (p + q).coeffs == (1,)
    assert (p - p).is_zero
    assert (-p).coeffs == (-1, -2, -3)
    assert (2 * p).coeffs == (2, 4, 6)
    assert (0 * p).is_zero
    assert p.constant_term == 1
    assert p.leading_coefficient == 3
    assert p.coefficient(10) == 0
    with pytest.raises(ZeroPolynomial):
        _ = int_poly([]).leading_coefficient


# -- parsing and rendering -----------------------------------------------------

@pytest.mark.parametrize("text,coeffs", [
    ("y", (0, 1)),
    ("2y", (0, 2)),
    ("y^2", (0, 0, 1)),
    ("y^2+3y", (0, 3, 1)),
    ("y^5", (0, 0, 0, 0, 0, 1)),
    ("-y", (0, -1)),
    ("3", (3,)),
    ("0", ()),
    ("y - y", ()),
    ("2y^3 - y + 7", (7, -1, 0, 2)),
    (" - 5 y ^ 3 + y ", (0, 1, 0, -5)),
    ("y + y", (0, 2)),
    ("1y^2", (0, 0, 1)),
])
def test_parse_poly_cases(text, coeffs):
    assert parse_poly(text).coeffs == coeffs


@pytest.mark.parametrize("poly,text", [
    (int_poly([0, 1]), "y"),
    (int_poly([0, 2]), "2y"),
    (int_poly([0, 0, 1]), "y^2"),
    (int_poly([0, 3, 1]), "y^2 + 3y"),
    (int_poly([7, -1, 0, 2]), "2y^3 - y + 7"),
    (int_poly([0, -1]), "-y"),
    (int_poly([]), "0"),
    (int_poly([-4]), "-4"),
])
def test_render_poly_cases(poly, text):
    assert render_poly(poly) == text
    assert str(poly) == text


def test_parse_render_round_trip_battery():
    rng = SplitMix64(90125)
    for _ in range(300):
        p = random_poly(rng, max_degree=7, max_coeff=9)
        assert parse_poly(render_poly(p)) == p


@pytest.mark.parametrize("bad,position", [
    ("y^", 2),       # exponent missing entirely
    ("y^0", 3),      # exponent token consumed, then rejected
    ("y^-1", 3),     # sign consumed where an integer was required
    ("+", 1),
    ("y + * y", 4),
    ("2y 3y", 4),    # second term begins without a separator
    ("y**2", 1),     # '*' is not a token; position not advanced
    ("x", 0),
])
def test_parse_poly_syntax_errors_carry_position(bad, position):
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(bad)
    assert exc.value.position == position


# -- degree sequences ----------------------------------------------------------

def test_degree_sequence_distinct_leading_terms():
    polys = [parse_poly(t) for t in ("y", "2y", "y^2", "y^2+3y", "y^5")]
    seq = degree_sequence(polys)
    # two distinct degree-1 leading terms, y^2 counted once (3y is lower
    # order), one quintic
    assert seq.counts == ((1, 2), (2, 1), (5, 1))
    assert [seq.count(d) for d in range(1, 6)] == [2, 1, 0, 0, 1]
    assert seq.max_degree == 5


def test_degree_sequence_merges_equal_leading_terms():
    seq = degree_sequence([parse_poly("y^2"), parse_poly("y^2 + y")])
    assert seq.counts == ((2, 1),)
    seq = degree_sequence([parse_poly("3y^2"), parse_poly("4y^2")])
    assert seq.counts == ((2, 2),)


def test_degree_sequence_errors():
    with pytest.raises(EmptyInput):
        degree_sequence([])
    with pytest.raises(ZeroPolynomial):
        degree_sequence([int_poly([0, 1]), int_poly([])])


# -- independence certificates ---------------------------------------------------

def test_certificate_frozen_examples():
    cert = independence_certificate([parse_poly("2y"), parse_poly("3y^2")])
    assert isinstance(cert, IndependenceCertificate)
    assert cert.rows == (1, 2)
    assert cert.determinant == 6
    assert characteristic_threshold(cert) == 4  # 1 + largest prime factor 3

    cert = independence_certificate(
        [parse_poly("2y"), parse_poly("3y^2"), parse_poly("5y^3")])
    assert cert.determinant == 30
    assert characteristic_threshold(cert) == 6

    cert = independence_certificate([parse_poly("y")])
    assert cert.determinant == 1
    assert characteristic_threshold(cert) == 2  # |det| = 1 floor case


def test_dependence_witness_frozen_example():
    wit = independence_certificate([parse_poly("y"), parse_poly("2y")])
    assert isinstance(wit, DependenceWitness)
    assert wit.coefficients == (2, -1)


def test_witness_is_primitive_and_sign_normalized():
    wit = independence_certificate([parse_poly("4y"), parse_poly("6y")])
    # kernel of (4, 6) is spanned by (3, -2); primitive, first entry positive
    assert wit.coefficients == (3, -2)


def test_certificate_witness_battery_against_rank_oracle():
    rng = SplitMix64(424242)
    seen_cert = seen_wit = 0
    for trial in range(200):
        m = 1 + rng.randrange(4)
        polys = [random_poly(rng) for _ in range(m)]
        if trial % 3 == 0 and m >= 2:
            # plant a dependence: last poly = integer combination of others
            mix = [rng.randrange(5) - 2 for _ in polys[:-1]]
            planted = combination(mix, polys[:-1])
            if planted.is_zero:
                planted = polys[0]
            polys[-1] = planted
        cols = columns(polys)
        rank = rational_rank(cols)
        result = independence_certificate(polys)
        if rank == m:
            seen_cert += 1
            assert isinstance(result, IndependenceCertificate)
            minor = [[cols[j][i] for j in range(m)] for i in result.rows]
            assert rational_rank(minor) == m  # certified minor is invertible
            assert result.determinant != 0
        else:
            seen_wit += 1
            assert isinstance(result, DependenceWitness)
            w = result.coefficients
            assert any(w)
            assert combination(w, polys).is_zero  # witness kills the system exactly
    assert seen_cert > 30 and seen_wit > 30


def test_certificate_matches_all_minors_oracle_battery():
    """Rows, determinant and witness equal the all-minors search's."""
    rng = SplitMix64(20180206)
    seen = dict.fromkeys(("cert", "witness", "kernel2", "zero", "wide"), 0)
    for trial in range(600):
        kind = trial % 5
        m = 1 + rng.randrange(5)
        # small coefficients make many leading minors vanish
        polys = [random_poly(rng, max_degree=6, max_coeff=1 + trial % 3)
                 for _ in range(m)]
        if kind == 1 and m >= 2:  # one planted dependence
            mix = [rng.randrange(5) - 2 for _ in polys[:-1]]
            polys[-1] = combination(mix, polys[:-1])
        elif kind == 2 and m >= 3:  # two: a kernel of dimension >= 2
            for j in (m - 2, m - 1):
                mix = [rng.randrange(5) - 2 for _ in polys[:m - 2]]
                polys[j] = combination(mix, polys[:m - 2])
        elif kind == 3:
            polys.insert(rng.randrange(m + 1), int_poly([]))
        elif kind == 4:  # more polynomials than powers of y
            d = 1 + rng.randrange(3)
            polys = [int_poly([rng.randrange(7) - 3 for _ in range(d + 1)])
                     for _ in range(d + 2 + rng.randrange(2))]
        if all(p.is_zero for p in polys):
            polys.append(parse_poly("y"))
        expect = oracle_certificate(polys)
        got = independence_certificate(polys)
        if isinstance(got, IndependenceCertificate):
            seen["cert"] += 1
            assert (got.rows, got.determinant) == expect, polys
        else:
            seen["witness"] += 1
            assert got.coefficients == expect, polys
        cols = columns(polys)
        seen["kernel2"] += len(polys) - rational_rank(cols) >= 2
        seen["zero"] += any(p.is_zero for p in polys)
        seen["wide"] += len(polys) > len(cols[0])
    assert min(seen.values()) >= 50, seen


def test_certificate_of_high_monomials_is_pinned():
    polys = [f"y^{d}" for d in range(11, 21)]
    start = time.perf_counter()
    system = progression_system(polys)
    assert time.perf_counter() - start < 0.1
    assert system.certificate == IndependenceCertificate(
        tuple(range(11, 21)), 1)
    assert system.threshold == 2


def test_more_polys_than_dimensions_is_dependent():
    wit = independence_certificate([parse_poly("y"), parse_poly("2y"),
                                    parse_poly("3y")])
    assert isinstance(wit, DependenceWitness)


@pytest.mark.parametrize("det", [10 ** 16 + 61, 10 ** 18 + 3])
def test_threshold_of_a_large_prime_determinant_is_immediate(det):
    start = time.perf_counter()
    system = progression_system(["y", f"{det}y^2"])
    assert time.perf_counter() - start < 0.1
    assert system.certificate.determinant == det
    assert system.threshold == det + 1


@pytest.mark.parametrize("det,threshold", [
    (10000019 * 10000079, 10000080),
    (1000000007 * 1000000009, 1000000010),
])
def test_threshold_of_two_large_prime_factors_is_immediate(det, threshold):
    # trial division would run up to the smaller factor; Pollard's rho
    # splits the cofactor and is_prime certifies both parts
    start = time.perf_counter()
    system = progression_system(["y", f"{det}y^2"])
    assert time.perf_counter() - start < 0.1
    assert system.certificate.determinant == det
    assert system.threshold == threshold


def test_characteristic_threshold_inputs():
    sys_ind = progression_system(["2y", "3y^2"])
    assert characteristic_threshold(sys_ind) == 4
    sys_dep = progression_system(["y", "2y"])
    assert characteristic_threshold(sys_dep) == 0
    with pytest.raises(DependentSystem):
        characteristic_threshold(DependenceWitness((2, -1)))


# -- progression systems ----------------------------------------------------------

def test_progression_system_basic():
    sys = progression_system(["y", "y^2"], ["y^3"])
    assert sys.m1 == 2 and sys.m2 == 1
    assert sys.is_independent
    assert sys.threshold == 2  # dets of y/y^2/y^3 minors are 1
    assert sys.all_polys == sys.P + sys.Q
    assert str(sys) == "[y, y^2; y^3]"
    assert str(progression_system(["y", "2y"])) == "[y, 2y]"


def test_progression_system_accepts_mixed_input_forms():
    sys = progression_system([int_poly([0, 1]), "2y", [0, 0, 3]])
    assert [p.coeffs for p in sys.P] == [(0, 1), (0, 2), (0, 0, 3)]


def test_progression_system_dependent_is_allowed():
    sys = progression_system(["y", "2y"])  # arithmetic progression
    assert not sys.is_independent
    assert sys.threshold == 0
    assert sys.certificate is None
    assert sys.dependence.coefficients == (2, -1)


def test_progression_system_validation_errors():
    with pytest.raises(EmptyInput):
        progression_system([])
    with pytest.raises(ZeroPolynomial):
        progression_system(["y", "0"])
    with pytest.raises(NonzeroConstantTerm):
        progression_system(["y^2+1"])
    with pytest.raises(DependentSystem):
        progression_system(["y", "y"])  # duplicates within P
    with pytest.raises(DependentSystem):
        progression_system(["y", "y^2"], ["y"])  # duplicate across P and Q


# -- reduction and evaluation ------------------------------------------------------

def test_reduce_and_eval_prime_field_matches_int_oracle():
    F = make_field(7)
    rng = SplitMix64(777)
    for _ in range(100):
        p = random_poly(rng, max_degree=6, max_coeff=20)
        y = rng.randrange(7)
        expect = sum(c * y ** i for i, c in enumerate(p.coeffs)) % 7
        assert reduce_and_eval(p, F, F.element(y)) == F.element(expect)


def test_reduce_and_eval_extension_field_matches_power_sum():
    F = make_field(3, 2)
    rng = SplitMix64(99)
    for _ in range(60):
        p = random_poly(rng, max_degree=5, max_coeff=8)
        y = F.element_at(rng.randrange(F.q))
        direct = F.zero
        for i, c in enumerate(p.coeffs):
            direct = direct + F.element(c) * y ** i
        assert reduce_and_eval(p, F, y) == direct


def test_reduce_and_eval_zero_cases():
    F = make_field(5)
    assert reduce_and_eval(int_poly([]), F, F.element(3)) == F.zero
    assert reduce_and_eval(parse_poly("5y"), F, F.element(2)) == F.zero
    with pytest.raises(FieldMismatch):
        reduce_and_eval(parse_poly("y"), F, make_field(7).element(1))
