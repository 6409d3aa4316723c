"""Gowers uniformity norms U^s, their Fourier route at s = 2, and the
Cauchy--Schwarz reduction for averaged two-variable functions.

The raw 2^s-th power of the U^s norm of f: F_q -> C is

    ||f||_{U^s}^{2^s} = E_{x, h_1..h_s} Delta_{h_1} ... Delta_{h_s} f(x),

with Delta_h f(x) = f(x+h) conj(f(x)).  The naive evaluator differences
s - 1 times in one loop: each level multiplies every translate of every
row, viewed at once through a sliding window over field._periodic, by the
row's conjugate, so level j holds q^j rows of q values.  The remaining
double average factors exactly as E_{x,h} Delta_h g(x) = |E g|^2, which
makes the result a mean of nonnegative terms by construction.  The final
array dominates the cost: q^s complex values, 16 bytes each.  A budget
guard (default 2^24 values, 256 MiB, so naive U^2 reaches q = 4096 like
the Fourier route) raises BudgetExceeded before anything is allocated.

At s = 2 an independent route exists through the character basis:

    ||f||_{U^2}^4 = sum_a |fhat(a)|^4,

and the two routes are kept separate on purpose -- their agreement is one
of the package's standing cross-checks.  The dual-norm helper returns
sum_a |fhat(a)|, a certified upper bound for ||.||_{U^2}^* via
|<f, g>| <= sum |fhat| * max |ghat| <= sum |fhat| * ||g||_{U^2}; the exact
dual norm is deliberately not computed.

For F(x) = E_y f_1(x, y) ... f_m(x, y) with 1-bounded f_i, one application
of Cauchy--Schwarz per differencing step gives

    ||F||_{U^s}^{2^(2s-2)} <= E_{h_1..h_{s-2}} ||F_{h_1..h_{s-2}}||_{U^2}^4,

where F_{h...}(x) = E_y prod_i Delta^{(1)}_{h...} f_i(x, y) differences each
factor in the first variable.  check_cs_inequality evaluates both sides.
For the right side it differences every factor's columns y -> f_i(., y)
s - 2 times in one batch (the same loop as the naive norm), multiplies the
factors, averages over y to get every F_h at once, and takes one more level
for their U^2 powers; it holds 2 q^s complex values, which its guard counts.
At s = 2 the two sides are the same expression and agree exactly.

Errors raised here: BudgetExceeded, NotOneBounded, InvalidRange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetExceeded, FieldMismatch, InvalidRange, NotOneBounded
from .field import FieldSpec, _periodic
from .functions import (
    DenseFunction,
    delta_first_var,
    fourier_transform,
)

DEFAULT_BUDGET = 1 << 24
_NEG_TOL = 1e-9


@dataclass(frozen=True)
class GowersNormValue:
    """A U^s evaluation: the norm and the raw 2^s-th power it came from."""

    s: int
    value: float
    raw_power: float

    def __post_init__(self):
        if self.raw_power < -_NEG_TOL:
            raise InvalidRange(
                f"raw U^{self.s} power {self.raw_power} below -{_NEG_TOL}")


def _differences(field: FieldSpec, rows: np.ndarray, levels: int) -> np.ndarray:
    """Difference every row of an (n, q) stack `levels` times.

    A level turns n rows into q * n; row (h, r) is x -> row_r(x + h)
    conj(row_r(x)).
    """
    p, k, q = field.p, field.k, field.q
    for _ in range(levels):
        n = rows.shape[0]
        windows = sliding_window_view(_periodic(field, rows.T), (p,) * k,
                                      axis=tuple(range(k)))
        out = np.empty((q * n, q), dtype=np.complex128)
        np.multiply(windows, np.conj(rows).reshape((n,) + (p,) * k),
                    out=out.reshape((p,) * k + (n,) + (p,) * k))
        rows = out
    return rows


def _mean_square_mean(rows: np.ndarray) -> float:
    """Mean over rows of |E_x row(x)|^2."""
    means = rows.mean(axis=1)
    return float((means.real ** 2 + means.imag ** 2).mean())


def gowers_norm(f: DenseFunction, s: int, budget: int = DEFAULT_BUDGET) -> GowersNormValue:
    """Naive U^s norm by direct averaging of iterated derivatives.

    Refuses (BudgetExceeded) when the q^s complex values it would hold
    exceed budget.
    """
    if s < 1:
        raise InvalidRange(f"U^s needs s >= 1, got {s}")
    held = f.field.q ** s
    if held > budget:
        raise BudgetExceeded(
            f"U^{s} on q = {f.field.q} holds q^s = {held} complex values "
            f"({held * 16 / 2 ** 20:.0f} MiB), over the budget of {budget} values")
    raw = _mean_square_mean(
        _differences(f.field, f.values.reshape(1, f.field.q), s - 1))
    raw = max(raw, 0.0)
    return GowersNormValue(s, raw ** (1.0 / (1 << s)), raw)


def gowers_u2_via_fourier(f: DenseFunction) -> GowersNormValue:
    """||f||_{U^2}^4 = sum_a |fhat(a)|^4 -- the independent spectral route."""
    c = np.abs(fourier_transform(f).coeffs)
    raw = float(np.sum(c ** 4))
    return GowersNormValue(2, raw ** 0.25, raw)


def u2_dual_upper_bound(f: DenseFunction) -> float:
    """sum_a |fhat(a)|: certified upper bound on the U^2 dual norm of f."""
    return float(np.sum(np.abs(fourier_transform(f).coeffs)))


# --------------------------------------------------------------------------
# Cauchy--Schwarz reduction
# --------------------------------------------------------------------------

def _check_one_bounded(fs) -> None:
    for i, f in enumerate(fs):
        if f.max_abs() > 1.0 + 1e-12:
            raise NotOneBounded(
                f"factor {i} has sup {f.max_abs():.6f} > 1")


def cs_project(fs, hs) -> DenseFunction:
    """F_{h...}(x) = E_y prod_i Delta^{(1)}_{h...} f_i(x, y)."""
    fs = list(fs)
    if not fs:
        raise InvalidRange("cs_project needs at least one factor")
    field = fs[0].field
    for f in fs:
        if f.field != field:
            raise FieldMismatch("factors on different fields")
    _check_one_bounded(fs)
    prod = np.ones((field.q, field.q), dtype=np.complex128)
    for f in fs:
        prod = prod * delta_first_var(f, hs).values
    return DenseFunction(field, prod.mean(axis=1))


@dataclass(frozen=True)
class CsCheck:
    """Both sides of the reduction at level s, and whether it held."""

    s: int
    lhs: float
    rhs: float
    holds: bool
    projections: int


def check_cs_inequality(fs, s: int, budget: int = DEFAULT_BUDGET) -> CsCheck:
    """Evaluate ||F||_{U^s}^{2^(2s-2)} <= E_h ||F_h||_{U^2}^4 numerically.

    fs are 1-bounded TwoVarFunctions; s >= 2.  At s = 2 both sides are the
    identical expression and the comparison is exact.
    """
    fs = list(fs)
    if not fs:
        raise InvalidRange("check_cs_inequality needs at least one factor")
    if s < 2:
        raise InvalidRange(f"reduction defined for s >= 2, got {s}")
    field = fs[0].field
    q = field.q
    held = 2 * q ** s
    if held > budget:
        raise BudgetExceeded(
            f"CS check at s = {s} on q = {q} holds 2 q^s = {held} complex "
            f"values ({held * 16 / 2 ** 20:.0f} MiB), over the budget of "
            f"{budget} values")
    _check_one_bounded(fs)

    F = cs_project(fs, [])
    lhs = gowers_norm(F, s, budget).raw_power ** (1 << (s - 2))

    # every factor's columns y -> f(., y), differenced s - 2 times in x:
    # row (h_{s-2}, .., h_1, y) of prod is prod_i Delta_{h...} f_i(., y)
    prod = np.ones((q ** (s - 1), q), dtype=np.complex128)
    for f in fs:
        prod *= _differences(field, f.values.T, s - 2)
    # F_h(x) = E_y prod: the y axis moved last, so each row of F_hs
    # averages exactly as cs_project does
    F_hs = np.ascontiguousarray(
        prod.reshape(-1, q, q).transpose(0, 2, 1)).mean(axis=2)
    rhs = _mean_square_mean(_differences(field, F_hs, 1))
    return CsCheck(s, lhs, rhs, lhs <= rhs + 1e-9, q ** (s - 2))
