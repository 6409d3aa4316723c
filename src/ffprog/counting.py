"""Counting averages for polynomial progressions, their algebraic rewrites,
the two-function base-case estimate, and complete character sums.

The central object is the multilinear average over F_q x F_q

    Lambda(f_0, .., f_{m1}; g_1, .., g_{m2})
        = E_{x,y} f_0(x) prod_i f_i(x + P_i(y)) prod_j g_j(Q_j(y)),

attached to a validated system (P; Q).  With every f_i = 1_A and no twist,
q^2 * Lambda counts the pairs (x, y) whose whole progression {x, x+P_i(y)}
lies in A.  One kernel, _y_sums, gives S(y) = sum_x f_0(x) prod_i
f_i(x + P_i(y)) for every y in its inputs' dtype: Lambda weights S by the
twists, and count_progressions sums it on int64 indicators.  It has two
routes, picked by the input values alone.  When every value is 0 or 1,
each product is 0 or 1 and S(y) counts the x where all factors are 1: the
bit-packed route ANDs packed rows of the translated indicators for a block
of y at once and popcounts them, on every GF(p^k) alike.  Its int64 sums
are cast to the inputs' dtype; sums of 0/1 products below 2^53 are exact
in float too, so the result is bit-identical to the other route, the
per-y view loop, which multiplies translated windows and takes every
other input (and is the packed route's test oracle).  The tests'
pure-integer count oracle and direct double-loop averages audit both.
The expected main term for an untwisted average of indicators is
(|A|/q)^(m1+1), i.e. counts of order |A|^(m1+1) / q^(m1-1).

_poly_rows gives P(y) for every y as coefficient rows, which index the
all-translates view directly, and _first_y the first y of a y-rule, for
every module that counts over y.  A count reuses its field's facts: both
routes and build_hypergraph read the rows through _system_rows, which
keeps the rows of the last system counted, read-only, in the field's
_cache, and the packed route's field-only layout (_packed_layout) is
kept there too.  So count_progressions, main_term_error and
build_hypergraph on one field evaluate each polynomial once.  The cache
is bounded by what it is keyed on: one system's rows and one layout per
field; weil_sum's combined polynomials and the twists' Q_j are
evaluated afresh and never enter it.

Exact identities connect twisted and plain averages; twist_rewrite_check
evaluates both sides of each.  Writing psi for additive characters, the
splitting psi(u + v) = psi(u) psi(v) gives the absorption identities:

* k = 0:   Lambda_P^Q(F; Psi)
             = Lambda_{P+Q}(f_0 prod_j conj(psi_j), f_1, .., f_{m1}, psi_1, ..),
  the psi_j entering as ordinary functions in the slots shifted by Q_j;
* k = m1:  the same at the other end, f_{m1} -> f_{m1} prod_j conj(psi_j)
  and Q_j -> Q_j + P_{m1} (slot k takes the twists, Q_j shifts by P_k);
* 1 <= k <= m1 (shift): substituting x -> x - P_k(y) turns the average
  into one over [-P_k] + [P_i - P_k : i != k], with f_k promoted to the
  untranslated slot and f_0 demoted to the slot shifted by -P_k.

The base case of the whole reduction scheme is a single shift polynomial
against a twist tuple: for independent [P_1] + Qs the average equals
1_{Psi trivial} * (E f_0)(E f_1) up to O(q^(-1/2)), and base_case_report
returns the exact error alongside |error| * sqrt(q) so the constant in
that estimate can be observed directly.

The error mechanism behind the square root is the complete additive
character sum: for a combined polynomial sum_j a_j Q_j(y) of degree
1 <= d < p,

    | E_y psi(sum_j a_j Q_j(y)) | <= (d - 1) / sqrt(q),

which weil_sum evaluates and checks (a degree-1 combination averages to
zero exactly; a combination collapsing to a nonzero constant raises
DegenerateCombination rather than returning a vacuous bound).  On every
field the sweep over all a is a value histogram of P and one grid DFT.
The CLI and acceptance suite read the bound (_weil_verdict) and the main
term (_main_term) from here.

Errors raised here: ArityMismatch, FieldMismatch, TwistedSystem,
IndexOutOfRange, DegenerateCombination, ElementOutOfField, EmptyInput,
InvalidRange, and base_case_report's DependentSystem, ZeroPolynomial and
NonzeroConstantTerm.  A characteristic below the system threshold warns
(CharacteristicWarning) but still computes exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ArityMismatch,
    CharacteristicWarning,
    DegenerateCombination,
    DependentSystem,
    EmptyInput,
    FieldMismatch,
    IndexOutOfRange,
    InvalidRange,
    TwistedSystem,
)
from .field import FieldElement, FieldSpec, _translates, make_field
from .functions import (DenseFunction, _as_element, _indicator_values,
                        character_function, indicator)
from .polys import IntPoly, ProgressionSystem, int_poly, progression_system


# --------------------------------------------------------------------------
# evaluation tables
# --------------------------------------------------------------------------

def _poly_rows(field: FieldSpec, coeffs) -> np.ndarray:
    """Coefficient row of P(y) for every y in enumeration order, a (q, k)
    array (Horner on coefficient rows, one _mul_rows per degree); P's
    coefficients are ints or field elements, constant first.  Evaluated
    afresh on every call: the rows a count reads come from _system_rows."""
    y = field._coeff_matrix()
    acc = np.zeros_like(y)
    for i, c in enumerate(reversed(coeffs)):
        if i:
            acc = field._mul_rows(acc, y)
        acc = (acc + field.element(c).coeffs) % field.p
    return acc


def _system_rows(field: FieldSpec, polys) -> list[np.ndarray]:
    """_poly_rows of each coefficient sequence in polys, read-only, cached
    on the field.

    The field's _cache holds the rows of one system, keyed by each
    polynomial's coefficients as field.element reduces them (so ints and
    field elements of one value share a key).  A system with a polynomial
    not among them replaces them, keeping the rows the two share, so the
    cache holds one system's rows at most and needs no size limit.
    Only the systems being counted enter it; weil_sum's combined
    polynomials go through _poly_rows and are never cached.
    """
    keys = [tuple(field.element(c).coeffs for c in coeffs) for coeffs in polys]
    rows = field._cache.get("rows", {})
    if not rows.keys() >= set(keys):
        rows = {key: rows.get(key) for key in keys}
        for key, value in rows.items():
            if value is None:
                rows[key] = value = _poly_rows(field, key)
                value.flags.writeable = False
        field._cache["rows"] = rows
    return [rows[key] for key in keys]


def poly_index_table(poly: IntPoly, field: FieldSpec) -> np.ndarray:
    """Index of P(y) for every y in enumeration order (int64)."""
    return _poly_rows(field, poly.coeffs) @ field._place_values()


def _first_y(y_rule: str) -> int:
    """The first y index a y-rule counts: 0 for 'all', 1 for 'nonzero'
    (y = 0 comes first); any other rule raises InvalidRange."""
    if y_rule not in ("all", "nonzero"):
        raise InvalidRange(f"y_rule must be 'all' or 'nonzero', got {y_rule!r}")
    return int(y_rule == "nonzero")


_PACK_WORDS = 1 << 14  # uint64 words gathered per block of y (128 KiB)


def _y_sums(field: FieldSpec, P, F_values) -> np.ndarray:
    """S(y) = sum_x f_0(x) prod_i f_i(x + P_i(y)) for every y, F_values
    f_0 first, in their dtype: bit-packed when every value is 0 or 1,
    else by the per-y view loop."""
    distinct = {id(v): v for v in F_values}.values()
    if all(np.all((v == 0) | (v == 1)) for v in distinct):
        sums = _packed_y_sums(field, P, F_values)
        return sums.astype(np.result_type(*F_values), copy=False)
    return _view_y_sums(field, P, F_values)


def _view_y_sums(field: FieldSpec, P, F_values) -> np.ndarray:
    """S(y) for any values: one product of translated views per y."""
    coords = [e.tolist() for e in
              _system_rows(field, [poly.coeffs for poly in P])]
    f0 = F_values[0].reshape((field.p,) * field.k)
    views = [_translates(field, fv) for fv in F_values[1:]]
    sums = np.empty(field.q, dtype=np.result_type(*F_values))
    for yi in range(field.q):
        prod = f0
        for e, view in zip(coords, views):
            prod = prod * view[tuple(e[yi])]
        sums[yi] = prod.sum()
    return sums


def _packed_layout(field: FieldSpec) -> tuple:
    """The packed route's field-only layout, built once per field and kept
    read-only in its _cache (O(q) entries): shifts (packings per slot),
    span (words per packed row), cyclic (the column of each bit of a row's
    cyclic extension) and firsts (the flat word offset of the row window
    that starts at x + e, for the first x of every row and every e)."""
    if "packed" not in field._cache:
        p, q = field.p, field.q
        shifts, span = min(64, p), (p - 1) // 64 + -(-p // 64)
        cyclic = np.arange(64 * span + shifts - 1) % p
        cyclic.flags.writeable = False
        # flat word offset of the row window that starts at each element;
        # firsts is its translate by e, read for all e at once
        row, col = divmod(np.arange(q), p)
        offsets = (row * shifts + col % 64) * span + col // 64
        firsts = _translates(field, offsets)[..., 0]
        field._cache["packed"] = shifts, span, cyclic, firsts
    return field._cache["packed"]


def _packed_y_sums(field: FieldSpec, P, F_values) -> np.ndarray:
    """S(y) as int64 for 0/1 values: AND and popcount of packed rows.

    Each indicator is viewed as q/p rows of p bits along the coefficient
    of place value 1.  x -> f(x + e) sends row r to the row of r's other
    coefficients plus e's, and rotates it by e's last coefficient c.  Per
    slot, min(64, p) packings hold every row's cyclic extension shifted by
    s bits, so the rotated row is the W = ceil(p/64) words of packing c % 64
    from word c // 64 on; f_0, packed once with zeros past bit p, masks the
    wrap.  Each distinct slot array (by identity, so a count's repeated
    indicator) is packed once per call.  y runs in blocks of about
    _PACK_WORDS gathered words.  The P(y) rows (_system_rows) and the
    field-only layout (_packed_layout) come from the field's cache.
    """
    p, q = field.p, field.q
    rows, width = q // p, -(-p // 64)
    shifts, span, cyclic, firsts = _packed_layout(field)
    head = np.zeros((rows, 64 * width), dtype=bool)
    head[:, :p] = (F_values[0] == 1).reshape(rows, p)
    f0 = np.packbits(head, axis=-1, bitorder="little").view(np.uint64)
    windows_of = {}
    for v in F_values[1:]:
        if id(v) not in windows_of:
            bits = (v == 1).reshape(rows, p)
            ext = sliding_window_view(bits[:, cyclic], 64 * span,
                                      axis=-1)[:, :shifts]
            # words[row, s] holds row's bits from column s on
            words = np.packbits(np.ascontiguousarray(ext), axis=-1,
                                bitorder="little").view(np.uint64)
            windows_of[id(v)] = sliding_window_view(words.ravel(), width)
    windows = [windows_of[id(v)] for v in F_values[1:]]
    coords = [e.T for e in _system_rows(field, [poly.coeffs for poly in P])]
    step = max(1, _PACK_WORDS // (rows * width))
    sums = np.empty(q, dtype=np.int64)
    for start in range(0, q, step):
        ys = slice(start, start + step)
        acc = f0
        for e, win in zip(coords, windows):
            word = firsts[tuple(e[:, ys])].reshape(-1, rows)
            acc = acc & win[word]
        sums[ys] = np.bitwise_count(acc).sum(axis=(-2, -1))
    return sums


def _lambda_raw(field: FieldSpec, P, F_values, Q=(), G_values=()) -> complex:
    """The double average on trusted inputs: no validation, no warnings."""
    terms = _y_sums(field, P, F_values)
    for poly, gv in zip(Q, G_values):
        terms = terms * gv[poly_index_table(poly, field)]
    return complex(terms.sum() / (field.q * field.q))


# --------------------------------------------------------------------------
# the counting operator
# --------------------------------------------------------------------------

def _validate_functions(field: FieldSpec, fs, label: str) -> list[np.ndarray]:
    out = []
    for f in fs:
        if not isinstance(f, DenseFunction):
            raise ArityMismatch(f"{label} entries must be dense functions")
        if f.field != field:
            raise FieldMismatch(f"{label} entry on a different field")
        out.append(f.values)
    return out


def _warn_characteristic(system: ProgressionSystem, field: FieldSpec) -> None:
    if not system.is_independent:
        warnings.warn(
            "system is linearly dependent; square-root progression "
            "estimates do not apply (counting stays exact)",
            CharacteristicWarning,
            stacklevel=3,
        )
    elif field.p < system.threshold:
        warnings.warn(
            f"characteristic {field.p} below system threshold "
            f"{system.threshold}; estimates may degenerate",
            CharacteristicWarning,
            stacklevel=3,
        )


def lambda_average(system: ProgressionSystem, F, G=()) -> complex:
    """Lambda(F; G): the multilinear progression average over F_q x F_q."""
    F, G = list(F), list(G)
    if len(F) != system.m1 + 1:
        raise ArityMismatch(f"need {system.m1 + 1} shift functions, got {len(F)}")
    if len(G) != system.m2:
        raise ArityMismatch(f"need {system.m2} twist functions, got {len(G)}")
    field = F[0].field
    fv = _validate_functions(field, F, "F")
    gv = _validate_functions(field, G, "G")
    _warn_characteristic(system, field)
    return _lambda_raw(field, list(system.P), fv, list(system.Q), gv)


def _resolve_field(A, field: FieldSpec | None) -> FieldSpec:
    if field is not None:
        return field
    for item in A:
        if isinstance(item, FieldElement):
            return item.field
    raise EmptyInput("cannot infer the field from A; pass field=...")


def count_progressions(system: ProgressionSystem, A, y_rule: str = "all",
                       field: FieldSpec | None = None) -> int:
    """Exact integer count of pairs (x, y) with the whole progression in A.

    y_rule 'all' counts every y (matching q^2 * Lambda on indicators);
    'nonzero' drops y = 0, the convention for nondegenerate configurations.
    The field is inferred from A when it contains field elements.
    """
    if system.m2:
        raise TwistedSystem("integer counting is for untwisted systems")
    first = _first_y(y_rule)
    field = _resolve_field(A, field)
    ind = _indicator_values(field, A, np.int64)
    sums = _y_sums(field, system.P, [ind] * (system.m1 + 1))
    return int(sums[first:].sum())


@dataclass(frozen=True)
class LambdaResult:
    """An average split as value = main_term + error (exactly)."""

    value: complex
    main_term: complex
    error: complex
    q: int
    system: ProgressionSystem

    @property
    def scaled_count(self) -> complex:
        """q^2 * value: the raw pair count for indicator inputs."""
        return self.q * self.q * self.value

    @property
    def scaled_error(self) -> complex:
        """q^2 * error: distance of the raw count from its main term."""
        return self.q * self.q * self.error


def main_term_error(system: ProgressionSystem, A,
                    field: FieldSpec | None = None) -> LambdaResult:
    """Split the indicator average into (|A|/q)^(m1+1) plus remainder."""
    if system.m2:
        raise TwistedSystem("main term defined for untwisted systems")
    field = _resolve_field(A, field)
    f = indicator(field, A)
    value = lambda_average(system, [f] * (system.m1 + 1))
    alpha = float(f.values.real.sum()) / field.q
    main = complex(_main_term(field, [alpha] * (system.m1 + 1)))
    return LambdaResult(value, main, value - main, field.q, system)


def _trivial_twists(field: FieldSpec, Psi) -> bool:
    """Every label in Psi, read mod q, names the trivial character."""
    return all(_as_element(field, a).is_zero for a in Psi)


def _main_term(field: FieldSpec, means, Psi=()):
    """prod_i E f_i if every twist is trivial, else 0.0: the main term of
    an average; a count's is this times the number of pairs it counts."""
    return math.prod(means) if _trivial_twists(field, Psi) else 0.0


# --------------------------------------------------------------------------
# rewrite identities
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RewriteCheck:
    """Both sides of an exact identity and their absolute difference."""

    lhs: complex
    rhs: complex
    mode: str
    k: int

    @property
    def abs_diff(self) -> float:
        return abs(self.lhs - self.rhs)


def twist_rewrite_check(system: ProgressionSystem, F, Psi, k: int,
                        mode: str | None = None) -> RewriteCheck:
    """Evaluate a twisted average and its rewritten form, both exactly.

    Psi lists the twist character labels (field elements or enumeration
    indices; length m2).  k = 0 absorbs the twists next to f_0; k = m1
    with mode='absorb' pushes them onto f_{m1} (translating each Q_j by
    P_{m1}); 1 <= k <= m1 with mode='shift' (the default for k >= 1)
    performs the bare substitution x -> x - P_k(y).
    """
    F, Psi = list(F), list(Psi)
    if len(F) != system.m1 + 1:
        raise ArityMismatch(f"need {system.m1 + 1} shift functions, got {len(F)}")
    if not 0 <= k <= system.m1:
        raise IndexOutOfRange(f"k must lie in [0, {system.m1}], got {k}")
    if mode is None:
        mode = "absorb" if k == 0 else "shift"
    if mode not in ("absorb", "shift"):
        raise InvalidRange(f"mode must be 'absorb' or 'shift', got {mode!r}")
    if mode == "absorb" and k not in (0, system.m1):
        raise IndexOutOfRange("absorb mode needs k = 0 or k = m1")
    if mode == "shift" and k == 0:
        raise IndexOutOfRange("shift mode needs 1 <= k <= m1")
    field = F[0].field
    chars = [character_function(field, a) for a in Psi]
    lhs = lambda_average(system, F, chars)  # checks arity and field, warns
    fv, cv = [f.values for f in F], [c.values for c in chars]
    P, Q = list(system.P), list(system.Q)
    if mode == "absorb":  # slot k takes the twists, each Q_j shifts by P_k
        slot = fv[k]
        for c in cv:
            slot = slot * np.conj(c)
        moved = [qp + P[k - 1] for qp in Q] if k else Q
        rhs = _lambda_raw(field, P + moved, fv[:k] + [slot] + fv[k + 1:] + cv)
    else:  # x -> x - P_k(y): f_k untranslated, f_0 shifted by -P_k
        pk, rest = P[k - 1], [i for i in range(1, len(fv)) if i != k]
        rhs = _lambda_raw(field, [-pk] + [P[i - 1] - pk for i in rest],
                          [fv[k], fv[0]] + [fv[i] for i in rest], Q, cv)
    return RewriteCheck(lhs, rhs, mode, k)


# --------------------------------------------------------------------------
# base case
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseCaseReport:
    """Exact two-function twisted average against its predicted main term."""

    value: complex
    main_term: complex
    error: complex
    sqrt_q_error: float
    trivial_twist: bool
    q: int


def _base_case_system(P1: IntPoly, Qs) -> ProgressionSystem:
    """progression_system([P1], Q=Qs), refused unless independent."""
    system = progression_system([P1], Q=Qs)
    if not system.is_independent:
        raise DependentSystem(
            f"dependence witness lambda = {system.dependence.coefficients}")
    return system


def base_case_report(P1: IntPoly, Qs, F, Psi) -> BaseCaseReport:
    """E_{x,y} f_0(x) f_1(x + P_1(y)) prod_j psi_j(Q_j(y)) vs its main term.

    progression_system([P_1], Q=Qs) refuses a zero polynomial
    (ZeroPolynomial), a nonzero constant term (NonzeroConstantTerm) or a
    repeat; a dependent system raises DependentSystem.  lambda_average
    checks arity and field and warns below the threshold.  The main term is
    (E f_0)(E f_1) when every twist is trivial and 0 otherwise; |error| *
    sqrt(q) is the observable constant in the O(q^(-1/2)) estimate.
    """
    F, Psi = list(F), list(Psi)
    if len(F) != 2:
        raise ArityMismatch(f"base case takes exactly two functions, got {len(F)}")
    system = _base_case_system(P1, Qs)
    field = F[0].field
    value = lambda_average(system, F,
                           [character_function(field, a) for a in Psi])
    main = complex(_main_term(field, [f.values.mean() for f in F], Psi))
    error = value - main
    return BaseCaseReport(value, main, error, abs(error) * field.q ** 0.5,
                          _trivial_twists(field, Psi), field.q)


# --------------------------------------------------------------------------
# complete character sums
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeilSum:
    """A complete additive character sum with its square-root bound."""

    value: complex
    degree: int
    bound: float | None
    within_bound: bool
    trivial: bool


def weil_sum(field: FieldSpec, polys, coefficients) -> WeilSum:
    """E_y psi(sum_j a_j P_j(y)) against the (d-1)/sqrt(q) bound.

    coefficients are field elements (or enumeration indices); all-zero
    coefficients give the trivial sum 1 with no bound to check.  A nonzero
    combination that collapses to a constant raises DegenerateCombination.
    The bound is meaningful for combined degree d < p; larger d still
    evaluates and is compared against the same formula.
    """
    polys = list(polys)
    if not polys:
        raise EmptyInput("weil_sum needs at least one polynomial")
    coeffs = [a if isinstance(a, FieldElement) else field.element_at(int(a))
              for a in coefficients]
    if len(coeffs) != len(polys):
        raise ArityMismatch("one coefficient per polynomial")
    for a in coeffs:
        if a.field != field:
            raise FieldMismatch("coefficient from a different field")

    if all(a.is_zero for a in coeffs):
        return WeilSum(1.0 + 0j, 0, None, True, True)
    # combined polynomial over the field, coefficients in the power basis
    combined = [field.zero] * (max(p.degree for p in polys) + 1)
    for a, poly in zip(coeffs, polys):
        for i, c in enumerate(poly.coeffs):
            combined[i] = combined[i] + a * field.element(c)
    traces = field.trace_vector()[_poly_rows(field, combined)
                                  @ field._place_values()]
    value = complex(field.omega_powers()[traces].mean())
    degree, bound, within = _weil_verdict(field, combined, value)
    if degree < 1:
        raise DegenerateCombination(
            "combination collapsed to a constant; no cancellation to measure")
    return WeilSum(value, degree, bound, bool(within), False)


def _weil_verdict(field: FieldSpec, coeffs, sums):
    """(d, (d - 1)/sqrt(q), |sums| <= that bound + 1e-12), d the degree over
    the field (0 if constant) of P = sum_i c_i y^i, c_i ints or elements."""
    degree = max((i for i, c in enumerate(coeffs) if field.element(c)),
                  default=0)
    bound = (degree - 1) / field.q ** 0.5
    return degree, bound, np.abs(sums) <= bound + 1e-12  # rounding slack


def additive_monomial_sums(p: int, d: int) -> np.ndarray:
    """E_y e_p(a y^d) for every a in F_p at once (vectorized sweep helper).

    Returns the complex array of normalized sums indexed by a; entry 0 is
    the trivial sum 1.  A p that is not prime raises NotPrime.
    """
    if d < 1:
        raise InvalidRange(f"monomial degree must be >= 1, got {d}")
    return _weil_sweep(make_field(p), int_poly([0] * d + [1]))


def _weil_sweep(field: FieldSpec, poly: IntPoly) -> np.ndarray:
    """E_y psi_a(P(y)) for every a, in enumeration order.

    With n_x = #{y : P(y) = x}, the sums are (1/q) sum_x n_x psi_a(x): one
    inverse DFT of the value histogram on the (p,)*k grid, read at the
    frequency of each psi_a.
    """
    hist = np.bincount(poly_index_table(poly, field), minlength=field.q)
    spec = np.fft.ifftn(hist.reshape((field.p,) * field.k))
    return spec.ravel()[field._fft_perm()]
