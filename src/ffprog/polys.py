"""Integer progression polynomials and exact independence certificates.

A progression polynomial is an element of Z[y] with zero constant term (it
must vanish at y = 0 so that every progression contains its base point).  A
system is an ordered pair of tuples (P_1..P_{m1}; Q_1..Q_{m2}): the P_i
shift the base point x, the Q_j feed character twists.  All structural
facts about a system -- degree sequence, linear independence over Q, the
safe-characteristic threshold -- are established with exact integer /
rational arithmetic at construction time, never with floats.

Linear independence of (R_1, ..., R_m) is certified by a nonvanishing m x m
minor of the (d+1) x m coefficient matrix (rows = powers of y, columns =
polynomials): the lexicographically first row basis, found by one exact
elimination of the rows in order, whose determinant is read off the
pivots.  The certificate records the chosen rows and that determinant.  If
fewer than m rows are independent, a rational dependence witness lambda
with sum(lambda_i R_i) = 0 is produced instead (canonicalized to a
primitive integer vector whose first nonzero entry is positive).

The safe-characteristic threshold derived from a certificate with
determinant C is 1 + (largest prime factor of |C|), or 2 when |C| = 1: for
p at or above this threshold the certified minor stays nonvanishing mod p,
so the system remains independent in F_p[y].

Text format: a polynomial is a signed sum of terms ``[int]["y"["^" int]]``,
e.g. ``y^2+3y``, ``2y - y``, ``-y^3``.  The canonical rendering lists terms
by decreasing degree (``a_d y^d + ... + a_1 y``), omits zero terms and unit
coefficients, and renders the zero polynomial as ``0``.

Errors raised here: PolySyntaxError, ZeroPolynomial, NonzeroConstantTerm,
EmptyInput, DependentSystem, IndexOutOfRange.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DependentSystem,
    EmptyInput,
    FieldMismatch,
    NonzeroConstantTerm,
    PolySyntaxError,
    ZeroPolynomial,
)
from .field import FieldElement, FieldSpec, _prime_factors


# --------------------------------------------------------------------------
# integer polynomials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPoly:
    """Element of Z[y]; coeffs[i] is the coefficient of y^i, no trailing zeros."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading_coefficient(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return int_poly([self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return int_poly([self.coefficient(i) - other.coefficient(i) for i in range(n)])

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __rmul__(self, scalar: int) -> "IntPoly":
        return int_poly([scalar * c for c in self.coeffs])

    def __str__(self) -> str:
        return render_poly(self)


def int_poly(coeffs) -> IntPoly:
    """Build an IntPoly from any coefficient sequence (constant term first)."""
    cs = [int(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return IntPoly(tuple(cs))


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<y>y)|(?P<pow>\^)|(?P<sign>[+-]))")


def parse_poly(text: str) -> IntPoly:
    """Parse ``term ((+|-) term)*`` with term ``[int]["y"["^" int]]``."""
    pos, n = 0, len(text)
    coeffs: dict[int, int] = {}

    def error(msg: str):
        raise PolySyntaxError(msg, pos)

    def next_token():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            return None, None
        m = _TOKEN.match(text, pos)
        if m is None:
            error(f"unexpected character {text[pos]!r}")
        pos = m.end()
        return m.lastgroup, m.group(m.lastgroup)

    sign = 1
    kind, val = next_token()
    if kind == "sign":  # optional leading sign
        sign = -1 if val == "-" else 1
        kind, val = next_token()
    while True:
        # one term: [int] [y [^ int]]
        coeff, have_coeff = 1, False
        if kind == "int":
            coeff, have_coeff = int(val), True
            kind, val = next_token()
        power = 0
        if kind == "y":
            power = 1
            kind, val = next_token()
            if kind == "pow":
                kind, val = next_token()
                if kind != "int":
                    error("expected integer exponent after '^'")
                power = int(val)
                if power < 1:
                    error("exponent must be at least 1")
                kind, val = next_token()
        elif not have_coeff:
            error("expected a term")
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
        if kind is None:
            break
        if kind != "sign":
            error("expected '+' or '-' between terms")
        sign = -1 if val == "-" else 1
        kind, val = next_token()
    if not coeffs:
        return IntPoly(())
    top = max(coeffs)
    return int_poly([coeffs.get(i, 0) for i in range(top + 1)])


def render_poly(poly: IntPoly) -> str:
    """Canonical text: terms by decreasing degree, zero poly renders as '0'."""
    if poly.is_zero:
        return "0"
    parts = []
    for d in range(poly.degree, -1, -1):
        c = poly.coefficient(d)
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            ypart = "y" if d == 1 else f"y^{d}"
            body = ypart if mag == 1 else f"{mag}{ypart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts)


# --------------------------------------------------------------------------
# degree sequences and independence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeSequence:
    """Counts v_d of *distinct leading terms* of degree d across a system."""

    counts: tuple[tuple[int, int], ...]  # sorted (degree, count) pairs

    def count(self, d: int) -> int:
        return dict(self.counts).get(d, 0)

    @property
    def max_degree(self) -> int:
        return max(d for d, _ in self.counts)


def degree_sequence(polys) -> DegreeSequence:
    """v_d = number of distinct leading terms c y^d among the given polynomials."""
    polys = list(polys)
    if not polys:
        raise EmptyInput("degree sequence of an empty system")
    leading: dict[int, set[int]] = {}
    for poly in polys:
        if poly.is_zero:
            raise ZeroPolynomial("degree sequence undefined for the zero polynomial")
        leading.setdefault(poly.degree, set()).add(poly.leading_coefficient)
    return DegreeSequence(tuple(sorted((d, len(s)) for d, s in leading.items())))


@dataclass(frozen=True)
class IndependenceCertificate:
    """Nonvanishing minor: row indices (powers of y) and exact determinant."""

    rows: tuple[int, ...]
    determinant: int


@dataclass(frozen=True)
class DependenceWitness:
    """Primitive integer vector lambda with sum(lambda_i P_i) = 0."""

    coefficients: tuple[int, ...]


def independence_certificate(polys):
    """Certify Q-linear independence or exhibit a dependence.

    One exact elimination over the rows of A (A[i][j] = coefficient of y^i
    in polys[j]), in row order, keeps a row when it is independent of the
    rows kept before it; by the matroid greedy argument the kept rows are
    the lexicographically first nonvanishing m x m minor.  Its determinant
    is the product of the kept rows' pivots times the sign of their pivot
    columns' order.  With fewer than m rows kept, the reduced rows are
    RREF(A), and its first free column gives the DependenceWitness.
    """
    polys = list(polys)
    if not polys:
        raise EmptyInput("independence of an empty system")
    m = len(polys)
    for i, p in enumerate(polys):
        if p.is_zero:  # unit vector on a zero polynomial
            return DependenceWitness(tuple(int(j == i) for j in range(m)))
    d = max(p.degree for p in polys)
    basis: dict[int, list[Fraction]] = {}  # pivot column -> reduced row
    rows, det = [], Fraction(1)
    for i in range(d + 1):
        row = [Fraction(p.coefficient(i)) for p in polys]
        for c, b in basis.items():
            if row[c]:
                f = row[c]
                row = [x - f * y for x, y in zip(row, b)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        det *= row[c]
        row = [x / row[c] for x in row]
        for k, b in basis.items():  # keep every kept row reduced at c
            if b[c]:
                f = b[c]
                basis[k] = [x - f * y for x, y in zip(b, row)]
        basis[c] = row
        rows.append(i)
        if len(rows) == m:
            cols = list(basis)  # pivot columns in kept-row order
            inversions = sum(a > b for k, a in enumerate(cols)
                             for b in cols[k + 1:])
            assert det.denominator == 1
            return IndependenceCertificate(
                tuple(rows), (-1) ** inversions * int(det))
    free = next(j for j in range(m) if j not in basis)
    vec = [-basis[j][free] if j in basis else Fraction(int(j == free))
           for j in range(m)]
    # clear denominators, divide by gcd, fix sign
    denom = lcm(*[f.denominator for f in vec])
    ints = [int(f * denom) for f in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    # exactness check: the witness really kills the system
    for i in range(d + 1):
        assert sum(w * p.coefficient(i) for w, p in zip(ints, polys)) == 0
    return DependenceWitness(tuple(ints))


def characteristic_threshold(cert) -> int:
    """Smallest safe characteristic implied by a certificate.

    1 + largest prime factor of |det|, or 2 when |det| = 1: above this the
    certified minor cannot vanish mod p.  Accepts a certificate or a
    ProgressionSystem.
    """
    if isinstance(cert, ProgressionSystem):
        return cert.threshold
    if not isinstance(cert, IndependenceCertificate):
        raise DependentSystem("no certificate: system is dependent")
    c = abs(cert.determinant)
    return 2 if c == 1 else 1 + max(_prime_factors(c))


# --------------------------------------------------------------------------
# progression systems
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProgressionSystem:
    """A system (P_1..P_{m1}; Q_1..Q_{m2}) with its independence status.

    Independent systems carry a certificate and a meaningful threshold;
    dependent ones (legitimate for pure counting and extremal search, e.g.
    arithmetic progressions {y, 2y}) carry the witness instead, with
    threshold 0 -- no characteristic makes the square-root estimates apply.
    """

    P: tuple[IntPoly, ...]
    Q: tuple[IntPoly, ...]
    certificate: IndependenceCertificate | None
    dependence: DependenceWitness | None
    threshold: int

    @property
    def is_independent(self) -> bool:
        return self.certificate is not None

    @property
    def m1(self) -> int:
        return len(self.P)

    @property
    def m2(self) -> int:
        return len(self.Q)

    @property
    def all_polys(self) -> tuple[IntPoly, ...]:
        return self.P + self.Q

    def __str__(self) -> str:
        ps = ", ".join(render_poly(p) for p in self.P)
        qs = ", ".join(render_poly(q) for q in self.Q)
        return f"[{ps}; {qs}]" if self.Q else f"[{ps}]"


def _coerce_poly(item) -> IntPoly:
    if isinstance(item, IntPoly):
        return item
    if isinstance(item, str):
        return parse_poly(item)
    return int_poly(item)


def progression_system(P, Q=()) -> ProgressionSystem:
    """Validate a system of progression polynomials and certify it.

    Every polynomial must be nonzero with zero constant term, and the
    members of P + Q must be pairwise distinct.  Linear dependence is
    recorded (witness, threshold 0) rather than rejected: counting and
    extremal search are well defined either way, and the operations whose
    mathematics requires independence check for it themselves.
    """
    P = tuple(_coerce_poly(p) for p in P)
    Q = tuple(_coerce_poly(q) for q in Q)
    if not P:
        raise EmptyInput("a system needs at least one progression polynomial")
    seen = set()
    for poly in P + Q:
        if poly.is_zero:
            raise ZeroPolynomial("progression polynomials must be nonzero")
        if poly.constant_term != 0:
            raise NonzeroConstantTerm(
                f"{render_poly(poly)} does not vanish at y = 0")
        if poly.coeffs in seen:
            raise DependentSystem(
                f"{render_poly(poly)} appears twice in the system")
        seen.add(poly.coeffs)
    cert = independence_certificate(P + Q)
    if isinstance(cert, DependenceWitness):
        return ProgressionSystem(P, Q, None, cert, 0)
    return ProgressionSystem(P, Q, cert, None, characteristic_threshold(cert))


def reduce_and_eval(poly: IntPoly, field: FieldSpec, y: FieldElement) -> FieldElement:
    """Evaluate the mod-p reduction of an integer polynomial at y (Horner)."""
    if y.field != field:
        raise FieldMismatch("evaluation point from a different field")
    acc = field.zero
    for c in reversed(poly.coeffs):
        acc = acc * y + field.element(c)
    return acc
