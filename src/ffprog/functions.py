"""Complex-valued functions on F_q and F_q x F_q.

A DenseFunction stores one complex128 value per field element, indexed in
the field's enumeration order; a TwoVarFunction stores a q x q array with
the first variable as the row index.  Enumeration order is C order over
coefficient vectors, so the same vector viewed on shape (p,)*k has one
axis per coefficient, on prime and extension fields alike.  Translation
x -> f(x + e) is one helper pair from field.py for every k: _periodic wraps
those axes out to 2p - 1 entries once, and _shifted returns the window that
starts at e's coefficients.  On top of these live the analytic primitives
everything else uses: normalized Fourier coefficients with respect to the
additive characters,

    fhat(a) = E_x f(x) conj(psi_a(x)),      f(x) = sum_a fhat(a) psi_a(x),

multiplicative differencing Delta_h f(x) = f(x+h) conj(f(x)) (iterated over
a list of shifts, and in the first variable only for two-variable
functions), L^p norms with respect to normalized counting measure, and the
normalized inner product <f, g> = E_x f(x) conj(g(x)).

The Fourier transform has two routes, picked by q alone.  Above
_FFT_ABOVE it is np.fft.fftn over the (p,)*k grid: psi_a(x) =
omega^(c_a T c_x) with T the trace form, so fhat(a) is the grid DFT at
the frequency c_a T mod p, divided by q, and FieldSpec._fft_perm reads
every a's frequency off one cached length-q index.  The inverse scatters
the spectrum back through the same index and runs ifftn on the last k
axes, so a stack of spectra takes one call.  Up to _FFT_ABOVE the
direct O(q^2) contraction against the cached character matrix is faster
(numpy's FFT pays a fixed cost per axis, which small high-k fields feel
most), and it is the oracle the FFT route is tested against.  Neither
route caps q; Parseval reads sum_a |fhat(a)|^2 = E_x |f(x)|^2 on both
(to rounding).

Errors raised here: ShapeMismatch, FieldMismatch, ElementOutOfField,
InvalidExponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ElementOutOfField,
    FieldMismatch,
    InvalidExponent,
    ShapeMismatch,
)
from .field import FieldElement, FieldSpec, _periodic, _shifted, make_field
from .rng import SplitMix64


def _as_index(field: FieldSpec, h) -> int:
    """Coerce a FieldElement (or raw enumeration index) to an index."""
    if isinstance(h, FieldElement):
        if h.field != field:
            raise FieldMismatch("shift from a different field")
        return h.index
    return int(h) % field.q


@dataclass
class DenseFunction:
    """f: F_q -> C as a dense complex vector in enumeration order."""

    field: FieldSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.field.q,):
            raise ShapeMismatch(
                f"expected {self.field.q} values, got shape {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    # -- algebra ---------------------------------------------------------

    def conj(self) -> "DenseFunction":
        return DenseFunction(self.field, np.conj(self.values))

    def __add__(self, other: "DenseFunction") -> "DenseFunction":
        self._compat(other)
        return DenseFunction(self.field, self.values + other.values)

    def __sub__(self, other: "DenseFunction") -> "DenseFunction":
        self._compat(other)
        return DenseFunction(self.field, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, DenseFunction):
            self._compat(other)
            return DenseFunction(self.field, self.values * other.values)
        return DenseFunction(self.field, self.values * complex(other))

    __rmul__ = __mul__

    def __neg__(self) -> "DenseFunction":
        return DenseFunction(self.field, -self.values)

    def _compat(self, other: "DenseFunction") -> None:
        if other.field != self.field:
            raise FieldMismatch("functions on different fields")

    # -- structure ---------------------------------------------------------

    def mean(self) -> complex:
        return complex(self.values.mean())

    def shift(self, h) -> "DenseFunction":
        """x -> f(x + h)."""
        field = self.field
        window = _shifted(field, _periodic(field, self.values), _as_index(field, h))
        return DenseFunction(field, window.reshape(field.q))

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def dense_function(field: FieldSpec, values) -> DenseFunction:
    """Wrap raw values (any complex sequence of length q)."""
    return DenseFunction(field, np.asarray(values, dtype=np.complex128))


def constant_function(field: FieldSpec, c) -> DenseFunction:
    return DenseFunction(field, np.full(field.q, complex(c)))


def _indicator_values(field: FieldSpec, subset, dtype=np.complex128) -> np.ndarray:
    """1_A as a length-q array of dtype (ints embed as constants)."""
    v = np.zeros(field.q, dtype=dtype)
    for item in subset:
        if isinstance(item, FieldElement):
            if item.field != field:
                raise ElementOutOfField(f"{item} not in {field}")
            v[item.index] = 1
        else:
            v[field.element(item).index] = 1
    return v


def indicator(field: FieldSpec, subset) -> DenseFunction:
    """1_A for a collection of field elements (ints embed as constants)."""
    return DenseFunction(field, _indicator_values(field, subset))


def balanced_indicator(field: FieldSpec, subset) -> DenseFunction:
    """1_A - |A|/q, the mean-zero part of an indicator."""
    f = indicator(field, subset)
    return DenseFunction(field, f.values - f.values.mean())


def character_function(field: FieldSpec, a) -> DenseFunction:
    """psi_a as a dense function (a: FieldElement or enumeration index)."""
    row = field._trace_rows([_as_index(field, a)])[0]
    return DenseFunction(field, field.omega_powers()[row])


def random_one_bounded(field: FieldSpec, rng) -> DenseFunction:
    """Independent uniform samples from the closed unit disk at every point.

    `rng` is a SplitMix64 instance, or an integer seed for a fresh one.
    """
    if isinstance(rng, int):
        rng = SplitMix64(rng)
    return DenseFunction(field, rng.unit_disk_block(field.q))


def _random_phase(field: FieldSpec, rng: SplitMix64) -> DenseFunction:
    """x -> exp(2 pi i u_x), one uniform draw u_x per point in order."""
    u = rng.random_block(field.q)
    return DenseFunction(field, np.exp(2j * np.pi * u))


def _random_spike(field: FieldSpec, rng: SplitMix64) -> tuple[DenseFunction, int]:
    """A nontrivial character psi_a plus 1-4% phase noise, L^2-normalized.

    Draws a, then the noise level, then the noise phases; returns (f, a).
    """
    a = 1 + rng.randrange(field.q - 1)
    eps = 0.01 + 0.03 * rng.random()
    noise = _random_phase(field, rng).values
    vals = character_function(field, a).values + eps * noise
    return DenseFunction(field, vals / np.sqrt(np.mean(np.abs(vals) ** 2))), a


def _random_two_var(field: FieldSpec, rng: SplitMix64) -> TwoVarFunction:
    """(x, y) -> one unit-disk draw per point, drawn row by row."""
    q = field.q
    vals = rng.unit_disk_block(q * q).reshape(q, q)
    return TwoVarFunction(field, vals)


# --------------------------------------------------------------------------
# Fourier analysis
# --------------------------------------------------------------------------

@dataclass
class FourierCoefficients:
    """fhat indexed by character (= element) enumeration order."""

    field: FieldSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.field.q,):
            raise ShapeMismatch(
                f"expected {self.field.q} coefficients, got shape {c.shape}")
        object.__setattr__(self, "coeffs", c)


_FFT_ABOVE = 512  # fields with q above this transform by FFT, not the table


def _fft_forward(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """fhat for one function or an (n, q) stack, by FFT over (p,)*k."""
    grid = rows.reshape(rows.shape[:-1] + (field.p,) * field.k)
    spec = np.fft.fftn(grid, axes=range(-field.k, 0)).reshape(rows.shape)
    return spec[..., field._fft_perm()] / field.q


def _fft_inverse(field: FieldSpec, coeffs: np.ndarray) -> np.ndarray:
    """f = sum_a fhat(a) psi_a for one spectrum or an (n, q) stack, by FFT."""
    spec = np.empty(coeffs.shape, dtype=np.complex128)
    spec[..., field._fft_perm()] = coeffs
    grid = spec.reshape(coeffs.shape[:-1] + (field.p,) * field.k)
    vals = np.fft.ifftn(grid, axes=range(-field.k, 0)).reshape(coeffs.shape)
    return vals * field.q


def _table_forward(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """fhat for one function or an (n, q) stack, against the table."""
    # conj(chi @ conj(f)) is conj(chi) @ f without a q x q conjugated copy
    return np.conj(field.character_matrix() @ np.conj(rows).T).T / field.q


def _table_inverse(field: FieldSpec, coeffs: np.ndarray) -> np.ndarray:
    """f = sum_a fhat(a) psi_a for one spectrum or a stack, against the table."""
    # chi is symmetric (Tr(ax) = Tr(xa)), so chi.T @ c = chi @ c
    return (field.character_matrix() @ coeffs.T).T


def _forward_rows(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """fhat(a) = E_x f(x) conj(psi_a(x)) for one function or a stack of rows."""
    if field.q > _FFT_ABOVE:
        return _fft_forward(field, rows)
    return _table_forward(field, rows)


def _inverse_rows(field: FieldSpec, coeffs: np.ndarray) -> np.ndarray:
    """f(x) = sum_a fhat(a) psi_a(x) for one spectrum or a stack of rows."""
    if field.q > _FFT_ABOVE:
        return _fft_inverse(field, coeffs)
    return _table_inverse(field, coeffs)


def fourier_transform(f: DenseFunction) -> FourierCoefficients:
    """fhat(a) = E_x f(x) conj(psi_a(x)): FFT above _FFT_ABOVE, else the table."""
    return FourierCoefficients(f.field, _forward_rows(f.field, f.values))


def inverse_fourier(coeffs: FourierCoefficients) -> DenseFunction:
    """f(x) = sum_a fhat(a) psi_a(x)."""
    return DenseFunction(coeffs.field, _inverse_rows(coeffs.field, coeffs.coeffs))


# --------------------------------------------------------------------------
# differencing
# --------------------------------------------------------------------------

def delta_multi(f: DenseFunction, hs) -> DenseFunction:
    """Iterated multiplicative derivative Delta_{h1} ... Delta_{hn} f.

    Delta_h f(x) = f(x+h) conj(f(x)); an empty shift list returns f itself.
    """
    out = f
    for h in hs:
        out = out.shift(h) * out.conj()
    return out


@dataclass
class TwoVarFunction:
    """f: F_q x F_q -> C; rows are the first variable."""

    field: FieldSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        q = self.field.q
        if v.shape != (q, q):
            raise ShapeMismatch(f"expected shape ({q}, {q}), got {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def two_var_function(field: FieldSpec, values) -> TwoVarFunction:
    return TwoVarFunction(field, np.asarray(values, dtype=np.complex128))


def delta_first_var(F: TwoVarFunction, hs) -> TwoVarFunction:
    """Iterated Delta in the first variable only: rows shift, columns ride."""
    field = F.field
    out = F.values
    for h in hs:
        window = _shifted(field, _periodic(field, out), _as_index(field, h))
        out = window.reshape(out.shape) * np.conj(out)
    return TwoVarFunction(field, out)


# --------------------------------------------------------------------------
# norms and pairings
# --------------------------------------------------------------------------

def lp_norm(f, p) -> float:
    """L^p norm with normalized counting measure; p = inf gives the sup."""
    absvals = np.abs(f.values)
    if p == float("inf") or p == "inf":
        return float(absvals.max())
    p = float(p)
    if p < 1:
        raise InvalidExponent(f"L^p needs p >= 1 or inf, got {p}")
    return float((absvals ** p).mean() ** (1.0 / p))


def inner(f: DenseFunction, g: DenseFunction) -> complex:
    """<f, g> = E_x f(x) conj(g(x))."""
    if f.field != g.field:
        raise FieldMismatch("inner product across different fields")
    return complex(np.vdot(g.values, f.values) / f.field.q)


def function_to_json(f: DenseFunction) -> dict:
    """Portable JSON form: {"p", "k", "values": [[re, im], ...]}."""
    return {
        "p": f.field.p,
        "k": f.field.k,
        "values": [[float(v.real), float(v.imag)] for v in f.values],
    }


def function_from_json(data: dict, field: FieldSpec | None = None) -> DenseFunction:
    """Inverse of function_to_json; validates against a field if given."""
    if field is None:
        field = make_field(int(data["p"]), int(data.get("k", 1)))
    elif (field.p, field.k) != (int(data["p"]), int(data.get("k", 1))):
        raise FieldMismatch("JSON function belongs to a different field")
    vals = np.array([complex(re, im) for re, im in data["values"]])
    return DenseFunction(field, vals)
