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
* ``unit_disk()`` -- rejection sampling of (2u-1) + (2v-1)i over the square
  until inside the closed unit disk; u, v successive ``random()`` draws.
* ``subset(n, density)`` -- index i is included iff ``random() < density``,
  for i = 0..n-1 in order; a density outside [0, 1] (nan included) raises
  InvalidRange before any draw.

Seed derivation for independent experiment cells is also fixed here:
``derive_seed(base, k1, k2, ...)`` folds each key into the state with the
same finalizer, so cell streams are decorrelated but reproducible.
"""

from __future__ import annotations

from .errors import InvalidRange

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """The splitmix64 output finalizer on a 64-bit state value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


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
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return _mix(self.state)

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
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def unit_disk(self) -> complex:
        """Uniform complex sample from the closed unit disk (rejection)."""
        while True:
            re = 2.0 * self.random() - 1.0
            im = 2.0 * self.random() - 1.0
            if re * re + im * im <= 1.0:
                return complex(re, im)

    def subset(self, n: int, density: float) -> list[int]:
        """Indices i in [0, n) kept independently with the given density."""
        if not 0.0 <= density <= 1.0:
            raise InvalidRange(f"density must lie in [0, 1], got {density}")
        return [i for i in range(n) if self.random() < density]
