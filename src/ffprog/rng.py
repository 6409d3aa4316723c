"""Deterministic pseudo-randomness: splitmix64 and derived helpers.

Every random choice made anywhere in this package flows through the
:class:`SplitMix64` generator defined here, so that a recorded 64-bit seed
reproduces an experiment bit-for-bit across runs, platforms and
reimplementations.  The update rule is the standard splitmix64 finalizer:

    state <- state + 0x9E3779B97F4A7C15                 (mod 2^64)
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9          (mod 2^64)
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB          (mod 2^64)
    output <- z XOR (z >> 31)

All derived draws (floats, bounded integers, shuffles, complex samples,
subset sampling) are defined *in this file and nowhere else*, in terms of
the raw 64-bit output stream, so the mapping seed -> experiment is part of
the package contract:

* ``random()``    -- take the top 53 bits of one output: u64 >> 11, times 2^-53.
* ``randrange(n)``-- one output modulo n (the modulo bias is negligible for
  the desk-scale n used here and is accepted for simplicity).
* ``shuffle``     -- Fisher--Yates from the top index downward, using
  ``randrange(i + 1)`` for position i.
* ``shuffled_copies(items, times)`` -- ``times`` shuffled copies of items,
  in order: copy t equals a fresh copy of items put through ``shuffle``
  after t earlier such calls.
* ``unit_disk()`` -- rejection sampling of (2u-1) + (2v-1)i over the square
  until inside the closed unit disk; u, v successive ``random()`` draws.
* ``subset(n, density)`` -- index i is included iff ``random() < density``,
  for i = 0..n-1 in order; a density outside [0, 1] (nan included) raises
  InvalidRange before any draw.

Block draws are the same stream, not a second generator.  After n outputs
the state is seed + n * 0x9E3779B97F4A7C15 (mod 2^64), so the next n
outputs are the finalizer applied to one wrapping uint64 expression over
1..n.  ``u64_block(n)``, ``random_block(n)`` and ``unit_disk_block(n)``
return numpy arrays equal to n calls of ``next_u64``, ``random`` and
``unit_disk``, and leave ``state`` exactly where those calls would.
``unit_disk_block`` draws its (u, v) pairs in chunks: a chunk that holds
fewer accepted pairs than are still needed is consumed whole (the state
moves past all of its draws, rejected ones included), and the last chunk
moves the state only to the end of the last pair it keeps.  ``subset`` and
``shuffle`` draw through ``random_block`` and ``u64_block``.
``shuffled_copies`` draws the Fisher--Yates indices of as many copies as
fit in one chunk of at most _SHUFFLE_CHUNK outputs (one copy when a single
copy needs more), and moves the state past each copy as it yields it, so
after t copies the state is where t ``shuffle`` calls leave it.  No other
draw may come from the generator while the copies are being consumed.

Seed derivation for independent experiment cells is also fixed here:
``derive_seed(base, k1, k2, ...)`` folds each key into the state with the
same finalizer, so cell streams are decorrelated but reproducible.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidRange

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# pairs per unit_disk_block chunk at most: bounds its scratch arrays
_DISK_CHUNK = 1 << 16
# outputs per shuffled_copies chunk at most: bounds its index arrays
_SHUFFLE_CHUNK = 1 << 14
# the stream's constants as uint64 scalars, converted once, not per block
_U_GOLDEN = np.uint64(_GOLDEN)
_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))


def _mix(z: int) -> int:
    """The splitmix64 output finalizer on a 64-bit state value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _outputs(state: int, n: int) -> np.ndarray:
    """The n outputs that follow `state`, as uint64; no generator moves.

    All arithmetic is on uint64 arrays, which wrap mod 2^64 silently.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= _U_GOLDEN
    z += np.uint64(state)
    z ^= z >> _U30
    z *= _U_M1
    z ^= z >> _U27
    z *= _U_M2
    z ^= z >> _U31
    return z


def _floats(u: np.ndarray) -> np.ndarray:
    """random() of each output: the top 53 bits times 2^-53 (exact)."""
    return (u >> _U11) * 2.0 ** -53


def _fisher_yates(items: list, js) -> None:
    """Swap items[i] with items[j_i] for i = n-1 .. 1, js in that order."""
    for i, j in zip(range(len(items) - 1, 0, -1), js):
        items[i], items[j] = items[j], items[i]


def derive_seed(base: int, *keys: int) -> int:
    """Derive a child seed from a base seed and integer keys.

    child = fold(fold(base, k1), k2) ... with
    fold(s, k) = mix(s XOR mix(k + GOLDEN)).
    """
    s = base & _MASK
    for k in keys:
        s = _mix(s ^ _mix((k + _GOLDEN) & _MASK))
    return s


class SplitMix64:
    """Splitmix64 stream with the derived draws used by this package."""

    def __init__(self, seed: int):
        # operator.index keeps the state a Python int for numpy seeds too
        self.state = operator.index(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return _mix(self.state)

    def _advance(self, n: int) -> None:
        self.state = (self.state + int(n) * _GOLDEN) & _MASK

    def u64_block(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array: n next_u64() calls."""
        if n < 0:
            raise ValueError("u64_block needs n >= 0")
        out = _outputs(self.state, n)
        self._advance(n)
        return out

    def random_block(self, n: int) -> np.ndarray:
        """n random() draws as a float64 array."""
        return _floats(self.u64_block(n))

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randrange(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias accepted (desk scale)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher--Yates shuffle, top index downward."""
        n = len(items)
        if n < 2:
            return
        # j_i = randrange(i + 1) for i = n-1 .. 1, drawn as one block
        js = self.u64_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        _fisher_yates(items, js.tolist())

    def shuffled_copies(self, items, times: int):
        """Yield `times` shuffled copies of items: each the list a fresh
        copy would be after one shuffle() call, the calls in sequence."""
        items = list(items)
        n = len(items)
        draws = max(n - 1, 0)
        per_chunk = max(1, _SHUFFLE_CHUNK // max(draws, 1))
        moduli = np.arange(n, 1, -1, dtype=np.uint64)
        for start in range(0, times, per_chunk):
            copies = min(per_chunk, times - start)
            # row t: the j_i of copy t, drawn without moving the state
            js = _outputs(self.state, copies * draws).reshape(copies, draws)
            for row in (js % moduli).tolist():
                self._advance(draws)
                order = items[:]
                _fisher_yates(order, row)
                yield order

    def unit_disk(self) -> complex:
        """Uniform complex sample from the closed unit disk (rejection)."""
        while True:
            re = 2.0 * self.random() - 1.0
            im = 2.0 * self.random() - 1.0
            if re * re + im * im <= 1.0:
                return complex(re, im)

    def unit_disk_block(self, n: int) -> np.ndarray:
        """n unit_disk() samples as a complex128 array, in draw order."""
        parts = []
        need = n
        while need > 0:
            # a pair is kept with probability pi/4, so one chunk nearly
            # always suffices
            pairs = min(need + need // 2 + 16, _DISK_CHUNK)
            u = _outputs(self.state, 2 * pairs)
            u >>= _U11
            # 2 random() - 1 is (u64 >> 11) 2^-52 - 1 exactly, since
            # scaling by a power of two is exact
            xy = u * 2.0 ** -52
            xy -= 1.0
            re, im = xy[0::2], xy[1::2]
            kept = np.flatnonzero(re * re + im * im <= 1.0)[:need]
            used = int(kept[-1]) + 1 if len(kept) == need else pairs
            self._advance(2 * used)
            # (re, im) pairs side by side are complex128 values
            parts.append(xy.view(np.complex128)[kept])
            need -= len(kept)
        if len(parts) == 1:  # one chunk sufficed: nothing to join
            return parts[0]
        return np.concatenate([np.empty(0, dtype=np.complex128), *parts])

    def subset(self, n: int, density: float) -> list[int]:
        """Indices i in [0, n) kept independently with the given density."""
        if not 0.0 <= density <= 1.0:
            raise InvalidRange(f"density must lie in [0, 1], got {density}")
        return np.flatnonzero(self.random_block(n) < density).tolist()
