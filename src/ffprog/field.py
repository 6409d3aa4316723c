"""Exact arithmetic in GF(p^k) and its additive characters.

Elements are coefficient vectors over F_p in the power basis of
F_p[t]/(modulus); the modulus is a monic irreducible of degree k supplied as
a coefficient tuple (constant term first).  When no modulus is given the
canonical one is used: the monic irreducible whose coefficient vector
(c_0, ..., c_{k-1}) is smallest in lexicographic order.

Enumeration order of the field is lexicographic on coefficient vectors, so
index 0 is always the additive identity, and for prime fields the index of
an element equals its integer value.  The absolute trace is
Tr(a) = a + a^p + ... + a^{p^{k-1}} (an F_p scalar), and the additive
characters are psi_a(x) = exp(2 pi i Tr(a x) / p), indexed by a in
enumeration order; psi_0 is the trivial character.

Array model.  Two cached facts serve every k alike: the q x k coefficient
matrix C in enumeration order, and the k x k trace form
T[i, j] = Tr(t^(i+j)) (Newton's identities on the modulus), so that
Tr(a x) = b_a . c_x mod p by linearity, with the frequency rows
b_a = c_a T mod p cached once (_freq).  One exponent kernel, _trace_rows,
turns rows b_a into Tr(a x) for every x: k broadcast multiply-adds, in
int32 whenever k (p - 1)^2 < 2^31 and in int64 above that, reduced by
floor division (v -= (v // p) p), which numpy vectorises where it does
not vectorise `%`.  The trace vector
(kept int64), character_function's single row and the character matrix
up to q = 1000 read it, and _fft_perm reads _freq.  Polynomials are
evaluated on all of C at once by Horner with a row-wise product reduced
by the modulus.  Multiplication has a second model, discrete logs: the
generator g of F_q^* is searched once per field (_primitive_element), and
above q = 1000 the character matrix is read off the powers of g.
Translation has one home, _translates: it views a value array on (p,)*k,
one axis per coefficient, wraps those axes out to 2p - 1 entries once and
returns every translate x -> f(x + e) as one window view, indexed by e's
coefficient vector.  Shifts, differencing, the naive U^s levels, both
progression-sum routes and the hypergraph all read it; the last two first
check the (2p - 1)^k extension against errors.BUDGET (_check_translates).

The Fourier transform needs no q x q table: psi_a(x) = omega^(b_a . c_x)
makes fhat a k-dimensional DFT of the values on (p,)*k read at the grid
point b_a, and _fft_perm caches that point's flat index for every a
(T is invertible, so it is a permutation).

Everything here is exact integer arithmetic; floating point enters only in
the character values themselves.  The q x q tables (addition table,
character matrix) are built lazily, cached on the field object and refused
(BudgetExceeded, before allocating) when their q^2 entries exceed
errors.BUDGET, i.e. above q = 4096; no library path above small q reads
either.  The character matrix is the oracle the spectral routes are tested
against.  Every row is gathered unbuffered, straight into the table (see
character_matrix): up to q = 1000 from omega at one block of exponents
(int32, since k (p - 1)^2 < 2^31 under the budget), above that from
W[m] = e_p(Tr(g^m)) doubled, at the discrete logs, since
psi_(g^i)(g^j) = W[(i + j) mod (q - 1)].  The build holds the table and
O(q) or one block's work, never a q x q exponent or index array.  No
library code reads the addition table or neg_perm: tests check them
against FieldElement arithmetic, and the benchmark's tracer wraps both
methods by name.  The cache holds arrays, ints and tuples of ints, never
FieldElements: those point back to the field, and the cycle would keep a
dropped field and its tables alive until the cyclic garbage collector ran.

Errors raised here: NotPrime, ReducibleModulus, DegreeMismatch,
DivisionByZero, FieldMismatch, InvalidRange, BudgetExceeded.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field as _dc_field
from itertools import count, product, zip_longest
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidRange,
    NotPrime,
    ReducibleModulus,
    _check_budget,
)

_CHI_BLOCK = 256     # character-matrix rows built per trace-row block
_CHI_LOG_ABOVE = 1000  # character matrix by discrete logs above this q
_TRIAL_DIVISORS = 10 ** 6  # trial divisors tried while is_prime is not exact
_MR_EXACT_BELOW = 3317044064679887385961981  # psi_13 (bases 2..37 reach only psi_12 ~ 3.18e23)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on bases 2..41, exact for all n < psi_13 ~ 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for small in bases:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi], in increasing order."""
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


# --------------------------------------------------------------------------
# polynomial arithmetic over F_p on plain coefficient lists (constant first),
# used for modulus validation, the canonical-modulus search and FieldElement
# --------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    """a mod m over F_p; m monic."""
    a = [c % p for c in a]
    _trim(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        _trim(a)  # leading term cancels (m is monic), so this makes progress
    return a


def _pmul(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _pmod(out, m, p)


def _ppow(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(list(a), m, p)
    while e:
        if e & 1:
            result = _pmul(result, base, m, p)
        base = _pmul(base, base, m, p)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        bm = [(c * inv_lead) % p for c in b]  # make monic for _pmod
        a, b = b, _pmod(a, bm, p)
        a, b = _trim(a), _trim(b)
    return a


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, in increasing order.

    Trial division takes out the factors below 100 and goes on while the
    cofactor is at or above is_prime's exact bound; below it, a composite
    cofactor is split by Pollard's rho until is_prime certifies every part.
    A cofactor still at or above the bound after _TRIAL_DIVISORS trial
    divisors cannot be certified quickly, and is refused (InvalidRange).
    """
    out, f = set(), 2
    while f * f <= n and (f < 100 or n >= _MR_EXACT_BELOW):
        if f > _TRIAL_DIVISORS:
            raise InvalidRange(
                f"cannot factor {n}: no divisor up to {_TRIAL_DIVISORS} and "
                f"at or above {_MR_EXACT_BELOW}, where is_prime is not exact")
        if n % f:
            f += 1
        else:
            out.add(f)
            n //= f
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if f * f > m or is_prime(m):  # m has no factor below f
            out.add(m)
        else:
            d = _rho(m)
            parts += [d, m // d]
    return sorted(out)


def _rho(n: int) -> int:
    """A proper factor of an odd composite n: Brent's Pollard rho on
    y -> y^2 + c for c = 1, 2, ..., with gcds batched over 128 steps."""
    for c in count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x, done = y, 0
            for _ in range(r):
                y = (y * y + c) % n
            while done < r and g == 1:
                saved = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g, done = gcd(acc, n), done + 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic f of degree k over F_p, every k alike: f is
    irreducible iff t^(p^k) = t and gcd(t^(p^(k/r)) - t, f) = 1 for every
    prime r | k, with t and its powers reduced mod f (for k = 1, t = -c_0).
    """
    m, k = list(coeffs), len(coeffs) - 1
    t = _pmod([0, 1], m, p)
    if _ppow(t, p ** k, m, p) != t:
        return False
    for r in _prime_factors(k):
        sub = _ppow(t, p ** (k // r), m, p)
        diff = [a - b for a, b in zip_longest(sub, t, fillvalue=0)]
        if len(_pgcd(diff, m, p)) != 1:
            return False
    return True


def _canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p:
    tails (c_0, .., c_{k-1}) run as the base-p digits of one counter, and
    for k > 1 those with c_0 = 0 are skipped, since t divides them."""
    places = [p ** (k - 1 - i) for i in range(k)]
    for n in range(0 if k == 1 else places[0], p ** k):
        cand = tuple(n // v % p for v in places) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise ReducibleModulus(f"no irreducible of degree {k} over F_{p}")  # pragma: no cover


# --------------------------------------------------------------------------
# field objects
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """A realized finite field F_{p^k} with its modulus and cached tables."""

    p: int
    k: int
    modulus: tuple[int, ...]
    _cache: dict = _dc_field(default_factory=dict, compare=False, repr=False)

    @property
    def q(self) -> int:
        return self.p ** self.k

    # -- element construction ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an int (constant embedding) or coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch("element from a different field")
            return value
        if isinstance(value, (int, np.integer)):
            coeffs = (int(value) % self.p,) + (0,) * (self.k - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.k:
            raise DegreeMismatch(
                f"coefficient vector of length {len(coeffs)}, expected {self.k}")
        return FieldElement(self, coeffs)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def element_at(self, index: int) -> "FieldElement":
        """Element at the given enumeration position."""
        if not 0 <= index < self.q:
            raise InvalidRange(f"element index {index} outside [0, {self.q})")
        coeffs = []
        for place in range(self.k - 1, -1, -1):
            coeffs.append((index // self.p ** place) % self.p)
        return FieldElement(self, tuple(coeffs))

    def elements(self) -> tuple["FieldElement", ...]:
        """Every element in enumeration order, built afresh on each call
        (not cached: see the module docstring)."""
        return tuple(FieldElement(self, c)
                     for c in product(range(self.p), repeat=self.k))

    # -- internal reduction --------------------------------------------------

    def _reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        """Reduce a raw coefficient list modulo (modulus, p) to length k."""
        out = _pmod([c % self.p for c in coeffs], list(self.modulus), self.p)
        return tuple(out) + (0,) * (self.k - len(out))

    # -- cached numpy tables ---------------------------------------------------

    def _coeff_matrix(self) -> np.ndarray:
        if "coeff" not in self._cache:
            idx = np.arange(self.q, dtype=np.int64)[:, None]
            self._cache["coeff"] = idx // self._place_values() % self.p
        return self._cache["coeff"]

    def _place_values(self) -> np.ndarray:
        if "place" not in self._cache:
            self._cache["place"] = np.array(
                [self.p ** (self.k - 1 - i) for i in range(self.k)], dtype=np.int64
            )
        return self._cache["place"]

    def _power_rows(self) -> np.ndarray:
        """Row m holds the coefficients of t^m mod the modulus, m < 2k - 1."""
        if "powers" not in self._cache:
            self._cache["powers"] = np.array(
                [self._reduce([0] * m + [1]) for m in range(2 * self.k - 1)],
                dtype=np.int64)
        return self._cache["powers"]

    def _trace_form(self) -> np.ndarray:
        """k x k matrix T[i, j] = Tr(t^(i+j)), so Tr(a x) = c_a T c_x mod p.

        Tr(t^m) is the power sum s_m of the modulus' roots, so Newton's
        identities give it from the modulus t^k + a_1 t^(k-1) + .. + a_k in
        exact ints mod p: s_0 = k and, for m >= 1,
        s_m = -(a_1 s_(m-1) + .. + a_j s_(m-j)) - m a_m, j = min(m - 1, k),
        the last term only while m <= k.  (`trace` is the oracle.)
        """
        if "form" not in self._cache:
            p, k = self.p, self.k
            a = self.modulus[k - 1::-1]   # a[j - 1] = a_j
            traces = [k % p]
            for m in range(1, 2 * k - 1):
                acc = sum(a[j - 1] * traces[m - j]
                          for j in range(1, min(m, k + 1)))
                if m <= k:
                    acc += m * a[m - 1]
                traces.append(-acc % p)
            traces = np.array(traces, dtype=np.int64)
            i = np.arange(k)
            self._cache["form"] = traces[i[:, None] + i[None, :]]
        return self._cache["form"]

    def _freq(self) -> np.ndarray:
        """Frequency rows b_a = c_a T mod p, one per a, so Tr(a x) = b_a . c_x."""
        if "freq" not in self._cache:
            self._cache["freq"] = self._coeff_matrix() @ self._trace_form() % self.p
        return self._cache["freq"]

    def _trace_rows(self, index) -> np.ndarray:
        """Tr(a x) for the elements a at index (a list or slice) and every x.

        The one exponent kernel: k broadcast multiply-adds b_a[i] c_x[i],
        in int32 whenever their sum k (p - 1)^2 fits (always, for a table
        under errors.BUDGET), else int64, reduced by v -= (v // p) p, since
        numpy vectorises floor division by a scalar and not `%`.
        """
        p, k = self.p, self.k
        dtype = np.int32 if k * (p - 1) ** 2 < 1 << 31 else np.int64
        b = self._freq()[index].astype(dtype)
        cols = self._coeff_matrix().T.astype(dtype)
        out = b[:, :1] * cols[0]
        for i in range(1, k):
            out += b[:, i:i + 1] * cols[i]
        quot = out // p
        quot *= p
        out -= quot
        return out

    def _mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise products of coefficient rows, reduced by the modulus."""
        k = self.k
        raw = np.zeros(a.shape[:-1] + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            raw[..., i:i + k] += a[..., i:i + 1] * b
        return (raw % self.p) @ self._power_rows() % self.p

    def trace_vector(self) -> np.ndarray:
        """Tr(e) for every element e in enumeration order (int64)."""
        if "trace" not in self._cache:
            self._cache["trace"] = self._trace_rows(
                [self.one.index])[0].astype(np.int64)
        return self._cache["trace"]

    def omega_powers(self) -> np.ndarray:
        """exp(2 pi i j / p) for j = 0..p-1."""
        if "omega" not in self._cache:
            self._cache["omega"] = np.exp(
                2j * np.pi * np.arange(self.p) / self.p)
        return self._cache["omega"]

    def add_index_table(self) -> np.ndarray:
        """q x q table: entry (i, j) is the index of e_i + e_j."""
        if "add" not in self._cache:
            _check_budget(f"addition table on q = {self.q} holds q^2",
                          self.q ** 2, "int64")
            c = self._coeff_matrix()
            sums = (c[:, None, :] + c[None, :, :]) % self.p
            self._cache["add"] = sums @ self._place_values()
        return self._cache["add"]

    def neg_perm(self) -> np.ndarray:
        """Permutation sending index of x to index of -x."""
        if "neg" not in self._cache:
            c = self._coeff_matrix()
            self._cache["neg"] = ((-c) % self.p) @ self._place_values()
        return self._cache["neg"]

    def _fft_perm(self) -> np.ndarray:
        """Flat index in the (p,)*k DFT grid of the frequency of psi_a, per a.

        psi_a(x) = omega^(b_a . c_x) with b_a the cached frequency row
        (_freq, the same rows the exponent kernel _trace_rows reads), so
        fhat(a) is the DFT of the values on (p,)*k at b_a, whose C-order
        index this holds.
        """
        if "fft_perm" not in self._cache:
            self._cache["fft_perm"] = self._freq() @ self._place_values()
        return self._cache["fft_perm"]

    def character_matrix(self) -> np.ndarray:
        """q x q complex matrix CHI[a, x] = psi_a(x) = e_p(Tr(a x)).

        Two builds, bit-identical (each gathers omega at Tr(a x)):
        - Blocks (q <= _CHI_LOG_ABOVE): _CHI_BLOCK rows at a time,
          _trace_rows gives a block's exponents (int32, already in [0, p))
          and np.take gathers omega at them straight into the table.
        - Discrete logs (q > _CHI_LOG_ABOVE): for a generator g of F_q^*,
          psi_(g^i)(g^j) = W[(i + j) mod (q - 1)] with W[m] = e_p(Tr(g^m)),
          so each row a != 0 is one gather from W doubled, at log x + log a
          (see _chi_by_logs); row 0 and column 0 are omega^0.  No exponent
          is computed per entry.
        Warm builds, blocks against logs (best of 7, 2 CPUs): GF(503) 1.0
        vs 1.4 ms, GF(31^2) 6.1 vs 4.1, GF(4001) 83 vs 47, GF(2^11) 101 vs
        18 ms.  End to end, logs at every q raised prime-sweep's median cell
        time by 14% over a crossover at q = 1000 (10 of 10 runs).
        Both builds gather with mode="clip", which lets take write to its
        out slice unbuffered (the default mode="raise" copies through a
        buffer) and clips nothing, since every index is in range.  Neither
        holds a q x q exponent or index array.
        """
        if "chi" not in self._cache:
            q = self.q
            _check_budget(f"character matrix on q = {q} holds q^2", q * q)
            chi = np.empty((q, q), dtype=np.complex128)
            if q > _CHI_LOG_ABOVE:
                self._chi_by_logs(chi)
            else:
                self._chi_by_blocks(chi)
            self._cache["chi"] = chi
        return self._cache["chi"]

    def _chi_by_blocks(self, chi: np.ndarray) -> None:
        """Fill chi with the character matrix, _CHI_BLOCK rows of
        exponents from _trace_rows at a time."""
        q = self.q
        for start in range(0, q, _CHI_BLOCK):
            block = slice(start, min(start + _CHI_BLOCK, q))
            np.take(self.omega_powers(), self._trace_rows(block),
                    out=chi[block], mode="clip")

    def _chi_by_logs(self, chi: np.ndarray) -> None:
        """Fill chi with the character matrix from discrete logs.

        The powers g^m, m < q - 1, of the cached generator come from
        log2(q) doubling steps of _mul_rows; their indices invert into
        log, and W[m] = e_p(Tr(g^m)).  Row a != 0 is then W2[log a + log x]
        over x != 0, one unbuffered gather from the doubled vector W2.
        """
        q, n = self.q, self.q - 1
        powers = np.empty((n, self.k), dtype=np.int64)
        powers[0] = self.one.coeffs
        step = np.array(_primitive_element(self).coeffs, dtype=np.int64)
        done = 1
        while done < n:   # powers[done:2 done] = powers[:done] g^done
            take = min(done, n - done)
            powers[done:done + take] = self._mul_rows(powers[:take], step)
            done += take
            step = self._mul_rows(step, step)
        idx = powers @ self._place_values()
        log = np.zeros(q, dtype=np.int64)
        log[idx] = np.arange(n)
        w = self.omega_powers()[self.trace_vector()[idx]]
        w2 = np.concatenate([w, w])
        chi[0] = chi[:, 0] = self.omega_powers()[0]
        cols = log[1:]
        for row, start in zip(chi[1:, 1:], cols.tolist()):
            w2[start:].take(cols, out=row, mode="clip")

    def __repr__(self) -> str:  # compact, modulus only when it matters
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k}; modulus={self.modulus})"


@dataclass(frozen=True)
class FieldElement:
    """An element of a FieldSpec, stored as a reduced coefficient tuple."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    @property
    def index(self) -> int:
        """Position in the field's enumeration order."""
        p, k = self.field.p, self.field.k
        return sum(c * p ** (k - 1 - i) for i, c in enumerate(self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise FieldMismatch("operands belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple(
            (a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.field
        return FieldElement(f, f._reduce(
            _pmul(self.coeffs, other.coeffs, f.modulus, f.p)))

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DivisionByZero("inverse of the additive identity")
        # a^(q-2) = a^(-1); q is desk scale so square-and-multiply is fine
        return self ** (self.field.q - 2)

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        return FieldElement(f, f._reduce(_ppow(self.coeffs, e, f.modulus, f.p)))


# --------------------------------------------------------------------------
# translation: every x -> f(x + e) at once, as windows of the periodic
# extension
# --------------------------------------------------------------------------

def _translates(field: FieldSpec, values: np.ndarray) -> np.ndarray:
    """Every translate of values at once: T[c] is x -> f(x + e) for the e
    with coefficient vector c, and T is a view, nothing copied per e.

    The first axis (length q) is viewed as (p,)*k, one axis per coefficient,
    and each of those axes is wrapped out to 2p - 1 entries; T slides a
    (p,)*k window over them.  Its axes are the (p,)*k window starts (e's
    coefficients), then the trailing axes of values (the second variable of
    a q x q array rides along), then the (p,)*k window axes (x's).
    """
    p, k = field.p, field.k
    ext = values.reshape((p,) * k + values.shape[1:])
    for axis in range(k):
        head = ext[(slice(None),) * axis + (slice(0, p - 1),)]
        ext = np.concatenate([ext, head], axis=axis)
    # a window axis steps like the start axis it slides along
    return as_strided(ext, shape=(p,) * k + ext.shape[k:] + (p,) * k,
                      strides=ext.strides + ext.strides[:k], writeable=False)


def _check_translates(field: FieldSpec, kind: str) -> None:
    """Refuse (BudgetExceeded) a _translates extension of a length-q array
    whose (2p - 1)^k values of dtype kind exceed errors.BUDGET, before it
    is made.  The count routes and the hypergraph build call it; shift,
    delta_first_var and the U^s levels do not."""
    _check_budget(f"translates on q = {field.q} extend to (2p - 1)^k",
                  (2 * field.p - 1) ** field.k, kind)


def _primitive_element(field: FieldSpec) -> FieldElement:
    """The first element, in enumeration order, that generates F_q^*: the
    g with g^((q - 1) / r) != 1 for every prime r dividing q - 1.

    Searched once per field; the cache keeps g's index, an int (see the
    module docstring on FieldElements in the cache)."""
    if "generator" not in field._cache:
        exponents = [(field.q - 1) // r for r in _prime_factors(field.q - 1)]
        field._cache["generator"] = next(
            g.index for g in map(field.element_at, range(1, field.q))
            if all(g ** e != field.one for e in exponents))
    return field.element_at(field._cache["generator"])


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def make_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Construct GF(p^k), validating primality and irreducibility.

    With no modulus the canonical (lexicographically smallest monic
    irreducible) one is selected; a supplied modulus must be monic of
    degree k and irreducible over F_p.
    """
    if not isinstance(p, int):
        raise NotPrime(f"characteristic {p!r} is not prime")
    if p >= 1 << 64:
        raise InvalidRange("characteristic must fit in 64 bits")
    if not is_prime(p):
        raise NotPrime(f"characteristic {p!r} is not prime")
    if not isinstance(k, int) or k < 1:
        raise DegreeMismatch(f"extension degree must be a positive integer, got {k!r}")
    if modulus is None:
        mod = _canonical_modulus(p, k)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {k}, got {tuple(modulus)!r}")
        if not _is_irreducible(mod, p):
            raise ReducibleModulus(f"{mod} is reducible over F_{p}")
    return FieldSpec(p, k, mod)


def field_arith(op: str, a: FieldElement, b=None) -> FieldElement:
    """Dispatch arithmetic: op in {add, sub, mul, inv, pow}.

    ``inv`` ignores b; ``pow`` takes an integer exponent for b.
    """
    if op == "inv":
        return a.inverse()
    if op == "pow":
        if not isinstance(b, (int, np.integer)):
            raise InvalidRange("pow exponent must be an integer")
        return a ** int(b)
    if not isinstance(b, FieldElement):
        raise FieldMismatch(f"{op} needs two field elements")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise InvalidRange(f"unknown operation {op!r}")


def enumerate_elements(field: FieldSpec) -> list[FieldElement]:
    """All elements in canonical (lexicographic coefficient) order."""
    return list(field.elements())


def trace(field: FieldSpec, a: FieldElement) -> int:
    """Absolute trace Tr(a) = a + a^p + ... + a^(p^(k-1)), as an F_p scalar."""
    if a.field != field:
        raise FieldMismatch("trace of an element from a different field")
    acc = a
    frob = a
    for _ in range(field.k - 1):
        frob = frob ** field.p
        acc = acc + frob
    assert all(c == 0 for c in acc.coeffs[1:]), "trace must land in F_p"
    return acc.coeffs[0]


def character_eval(field: FieldSpec, a: FieldElement, x: FieldElement) -> complex:
    """psi_a(x) = exp(2 pi i Tr(a x) / p)."""
    t = trace(field, a * x)
    return cmath.exp(2j * cmath.pi * t / field.p)
