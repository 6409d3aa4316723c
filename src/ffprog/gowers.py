"""Gowers uniformity norms U^s, their Fourier route at s = 2, and the
Cauchy--Schwarz reduction for averaged two-variable functions.

The raw 2^s-th power of the U^s norm of f: F_q -> C is

    ||f||_{U^s}^{2^s} = E_{x, h_1..h_s} Delta_{h_1} ... Delta_{h_s} f(x),

with Delta_h f(x) = f(x+h) conj(f(x)).  The naive evaluator differences
s - 1 times in one loop: each level multiplies every translate of every
row, viewed at once through a sliding window over field._periodic, by the
row's conjugate, so level j holds q^j rows of q values.  The remaining
double average factors exactly as E_{x,h} Delta_h g(x) = |E g|^2, which
makes the result a mean of nonnegative terms by construction.  The last
level is formed a slab at a time and only its row means are kept, so a
norm forms q^s values but holds q^(s-1); above errors.BUDGET formed values
(2^24, so naive U^2 reaches q = 4096) it is refused with BudgetExceeded.

At s = 2 an independent route exists through the character basis:

    ||f||_{U^2}^4 = sum_a |fhat(a)|^4,

and the two routes are kept separate on purpose -- their agreement is one
of the package's standing cross-checks.  Above small q the spectral
route is an FFT holding O(q) values (see functions.py), so it reaches far
past the naive one's q = 4096.  The dual-norm helper returns
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

from .errors import FieldMismatch, InvalidRange, NotOneBounded, _check_budget
from .field import FieldSpec, _periodic
from .functions import (
    DenseFunction,
    delta_first_var,
    fourier_transform,
)

_NEG_TOL = 1e-9
_SLAB = 1 << 12  # last-level values formed at once (64 KiB), see _level_power


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


def _next_level(field: FieldSpec, rows: np.ndarray):
    """Views whose product is the next difference level of an (n, q) stack.

    Row (h, r) of the level is x -> row_r(x + h) conj(row_r(x)), that is
    windows[h, r] * conj[r], with h and x on the (p,)*k grid.
    """
    p, k = field.p, field.k
    windows = sliding_window_view(_periodic(field, rows.T), (p,) * k,
                                  axis=tuple(range(k)))
    return windows, np.conj(rows).reshape((len(rows),) + (p,) * k)


def _differences(field: FieldSpec, rows: np.ndarray, levels: int) -> np.ndarray:
    """Difference every row of an (n, q) stack `levels` times: n -> q n rows."""
    for _ in range(levels):
        windows, conj = _next_level(field, rows)
        rows = np.empty((windows.size // field.q, field.q), np.complex128)
        np.multiply(windows, conj, out=rows.reshape(windows.shape))
    return rows


def _mean_square(means: np.ndarray) -> float:
    """Mean of |m|^2 over the row means m."""
    return float((means.real ** 2 + means.imag ** 2).mean())


def _level_power(field: FieldSpec, rows: np.ndarray) -> float:
    """_mean_square of the row means of the next level, never held whole.

    The level is formed _SLAB values (or one first-shift slice) at a time
    in one buffer, so repeated norms reuse a few heap pages instead of
    faulting in a fresh q n x q array each.  Each row mean is taken over
    the same values as on the whole level, so the result is bit for bit
    that of _differences(field, rows, 1).
    """
    windows, conj = _next_level(field, rows)
    q, per = field.q, windows[0].size // field.q   # rows per first shift
    step = max(1, _SLAB // (per * q))
    buf = np.empty(step * per * q, dtype=np.complex128)
    means = np.empty(q * len(rows), dtype=np.complex128)
    for h in range(0, field.p, step):
        part = windows[h:h + step]
        out = buf[:part.size].reshape(part.shape)
        np.multiply(part, conj, out=out)
        out.reshape(-1, q).mean(axis=1, out=means[h * per:(h + step) * per])
    return _mean_square(means)


def _check_norm_budget(q: int, s: int) -> None:
    """Refuse (BudgetExceeded) a naive U^s that forms q^s > BUDGET values."""
    _check_budget(f"U^{s} on q = {q} forms q^s", q ** s)


def gowers_norm(f: DenseFunction, s: int) -> GowersNormValue:
    """Naive U^s norm by direct averaging of iterated derivatives.

    Refuses (BudgetExceeded) when the q^s values it forms exceed BUDGET.
    """
    if s < 1:
        raise InvalidRange(f"U^s needs s >= 1, got {s}")
    _check_norm_budget(f.field.q, s)
    rows = f.values.reshape(1, f.field.q)
    raw = (_mean_square(rows.mean(axis=1)) if s == 1 else
           _level_power(f.field, _differences(f.field, rows, s - 2)))
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


def _check_cs_budget(q: int, s: int) -> None:
    """Refuse (BudgetExceeded) a CS check whose 2 q^s values exceed BUDGET."""
    _check_budget(f"CS check at s = {s} on q = {q} holds 2 q^s", 2 * q ** s)


def check_cs_inequality(fs, s: int) -> CsCheck:
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
    _check_cs_budget(q, s)
    _check_one_bounded(fs)

    F = cs_project(fs, [])
    lhs = gowers_norm(F, s).raw_power ** (1 << (s - 2))

    # every factor's columns y -> f(., y), differenced s - 2 times in x:
    # row (h_{s-2}, .., h_1, y) of prod is prod_i Delta_{h...} f_i(., y)
    prod = np.ones((q ** (s - 1), q), dtype=np.complex128)
    for f in fs:
        prod *= _differences(field, f.values.T, s - 2)
    # F_h(x) = E_y prod: the y axis moved last, so each row of F_hs
    # averages exactly as cs_project does
    F_hs = np.ascontiguousarray(
        prod.reshape(-1, q, q).transpose(0, 2, 1)).mean(axis=2)
    rhs = _level_power(field, F_hs)
    return CsCheck(s, lhs, rhs, lhs <= rhs + 1e-9, q ** (s - 2))
