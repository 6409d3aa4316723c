"""Generator contract tests: the exact output sequence is part of the API.

The stream cipher here is the classic 64-bit splittable mix; any
reimplementation (another language, another process) must reproduce these
words bit for bit, so the first outputs from small seeds are frozen.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffprog import rng as rng_module
from ffprog.errors import InvalidRange
from ffprog.field import make_field
from ffprog.functions import (_random_phase, _random_two_var,
                              random_one_bounded)
from ffprog.rng import SplitMix64, derive_seed

# reference sequence for the standard update rule, seed 0
SEED0_FIRST = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_known_answer_seed_zero():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == SEED0_FIRST


def test_streams_deterministic_and_seed_sensitive():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    c = SplitMix64(12346)
    xs = [a.next_u64() for _ in range(64)]
    assert xs == [b.next_u64() for _ in range(64)]
    assert xs != [c.next_u64() for _ in range(64)]


def test_output_range():
    r = SplitMix64(7)
    for _ in range(1000):
        v = r.next_u64()
        assert 0 <= v < 1 << 64


def test_random_unit_interval():
    r = SplitMix64(99)
    xs = [r.random() for _ in range(5000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    # crude uniformity: mean of 5000 uniforms is within 5 sigma of 1/2
    assert abs(sum(xs) / len(xs) - 0.5) < 5 * (1 / 12) ** 0.5 / len(xs) ** 0.5


def test_randrange_bounds_and_coverage():
    r = SplitMix64(3)
    seen = set()
    for _ in range(2000):
        v = r.randrange(13)
        assert 0 <= v < 13
        seen.add(v)
    assert seen == set(range(13))


def test_shuffle_is_permutation_and_reproducible():
    r1 = SplitMix64(41)
    r2 = SplitMix64(41)
    xs = list(range(30))
    ys = list(range(30))
    r1.shuffle(xs)
    r2.shuffle(ys)
    assert xs == ys
    assert sorted(xs) == list(range(30))
    assert xs != list(range(30))  # 30! makes identity effectively impossible


def test_unit_disk_inside_closed_disk():
    r = SplitMix64(5)
    for _ in range(2000):
        z = r.unit_disk()
        assert abs(z) <= 1.0 + 1e-12


def test_subset_density_and_reproducibility():
    r = SplitMix64(8)
    s1 = r.subset(101, 0.5)
    s2 = SplitMix64(8).subset(101, 0.5)
    assert s1 == s2
    assert all(0 <= i < 101 for i in s1)
    assert len(set(s1)) == len(s1)
    # density 0 and 1 are the trivial subsets
    assert SplitMix64(1).subset(50, 0.0) == []
    assert sorted(SplitMix64(1).subset(50, 1.0)) == list(range(50))


@pytest.mark.parametrize("density", [-0.1, 1.5, math.nan])
def test_subset_refuses_a_density_outside_the_unit_interval(density):
    r = SplitMix64(8)
    with pytest.raises(InvalidRange):
        r.subset(10, density)
    assert r.state == SplitMix64(8).state  # refused before any draw


def test_derive_seed_folds_all_keys():
    base = 777
    assert derive_seed(base, 1, 2) == derive_seed(base, 1, 2)
    assert derive_seed(base, 1, 2) != derive_seed(base, 2, 1)
    assert derive_seed(base, 1) != derive_seed(base, 1, 0)
    assert derive_seed(base) == base  # no keys: the fold is empty
    vals = {derive_seed(base, k) for k in range(200)}
    assert len(vals) == 200  # no collisions in a small grid
    assert all(0 <= v < 1 << 64 for v in vals)


def test_derived_streams_look_independent():
    # correlation between sibling streams should be tiny
    a = SplitMix64(derive_seed(5, 1))
    b = SplitMix64(derive_seed(5, 2))
    n = 4000
    xs = [a.random() - 0.5 for _ in range(n)]
    ys = [b.random() - 0.5 for _ in range(n)]
    corr = sum(x * y for x, y in zip(xs, ys)) / n
    assert abs(corr) < 5 / math.sqrt(n) / 12 ** 0.5


# -- block draws against a scalar oracle ----------------------------------------

class ScalarOracle:
    """Splitmix64 and its derived draws written out from the definition.

    Shares no code with ffprog.rng: one Python int per step, so the block
    paths there are checked against an independent scalar stream.
    """

    def __init__(self, seed):
        self.state = seed % 2 ** 64

    def u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2 ** 64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
        return z ^ (z >> 31)

    def uniform(self):
        return (self.u64() >> 11) / 2 ** 53

    def disk(self):
        while True:
            x, y = 2 * self.uniform() - 1, 2 * self.uniform() - 1
            if x * x + y * y <= 1:
                return complex(x, y)

    def subset(self, n, density):
        return [i for i in range(n) if self.uniform() < density]

    def shuffle(self, items):
        for i in reversed(range(1, len(items))):
            j = self.u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


# seeds anywhere, and seeds just below 2^64 so the state wraps at once
SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1),
                  st.integers(2 ** 64 - 1000, 2 ** 64 - 1))
LENGTHS = st.integers(0, 300)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, n=LENGTHS, density=st.floats(0.0, 1.0))
@example(seed=0, n=0, density=0.5)
@example(seed=2 ** 64 - 1, n=0, density=0.0)
def test_block_draws_equal_the_scalar_oracle(seed, n, density):
    gen, ref = SplitMix64(seed), ScalarOracle(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning
        assert gen.u64_block(n).tolist() == [ref.u64() for _ in range(n)]
        assert gen.state == ref.state
        assert gen.random_block(n).tolist() == [ref.uniform() for _ in range(n)]
        assert gen.state == ref.state
        assert gen.unit_disk_block(n).tolist() == [ref.disk() for _ in range(n)]
        assert gen.state == ref.state
        assert gen.subset(n, density) == ref.subset(n, density)
        assert gen.state == ref.state
        xs, ys = list(range(n)), list(range(n))
        gen.shuffle(xs)
        ref.shuffle(ys)
        assert xs == ys and gen.state == ref.state
    assert type(gen.state) is int
    # a scalar draw after the blocks continues the same stream
    assert gen.next_u64() == ref.u64()
    assert gen.unit_disk() == ref.disk()


@pytest.mark.parametrize("seed", [5, 2 ** 64 - 3])
def test_unit_disk_block_over_several_full_chunks(seed, monkeypatch):
    # 2 * _DISK_CHUNK samples need three chunks of _DISK_CHUNK pairs (each
    # keeps about pi/4 of them): the draws and the final state still match
    # the scalar stream, and so does the draw after them
    calls, real = [], rng_module._outputs

    def outputs(state, n):
        calls.append(n)
        return real(state, n)
    monkeypatch.setattr(rng_module, "_outputs", outputs)
    n = 2 * rng_module._DISK_CHUNK
    gen, ref = SplitMix64(seed), ScalarOracle(seed)
    got = gen.unit_disk_block(n)
    assert len(calls) >= 3 and got.dtype == np.complex128
    assert got.tolist() == [ref.disk() for _ in range(n)]
    assert gen.state == ref.state
    assert gen.unit_disk() == ref.disk()


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=LENGTHS, chunk=st.integers(1, 8))
def test_unit_disk_block_state_after_short_chunks(seed, n, chunk):
    # tiny chunks run out of accepted pairs: each such chunk is consumed
    # whole and the last one stops at its last kept pair
    gen, ref = SplitMix64(seed), ScalarOracle(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "_DISK_CHUNK", chunk)
        got = gen.unit_disk_block(n).tolist()
    assert got == [ref.disk() for _ in range(n)]
    assert gen.state == ref.state
    assert gen.next_u64() == ref.u64()


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, n=LENGTHS, times=st.integers(0, 12))
def test_shuffled_copies_equal_repeated_shuffles(seed, n, times):
    gen, ref = SplitMix64(seed), ScalarOracle(seed)
    items = [f"v{i}" for i in range(n)]
    got = list(gen.shuffled_copies(items, times))
    want = []
    for _ in range(times):
        want.append(items[:])
        ref.shuffle(want[-1])
    assert got == want and gen.state == ref.state
    assert items == [f"v{i}" for i in range(n)]  # the input is left as it is
    assert gen.next_u64() == ref.u64()


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.integers(0, 12), times=st.integers(0, 9),
       chunk=st.integers(1, 8))
def test_shuffled_copies_across_short_chunks(seed, n, times, chunk):
    # a chunk holds chunk // (n - 1) copies, and one copy when n - 1 is
    # larger; after each copy the state is where that many shuffles leave it
    gen, ref = SplitMix64(seed), ScalarOracle(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "_SHUFFLE_CHUNK", chunk)
        for order in gen.shuffled_copies(range(n), times):
            want = list(range(n))
            ref.shuffle(want)
            assert order == want and gen.state == ref.state
    assert gen.next_u64() == ref.u64()


def test_shuffled_copies_draw_bounded_chunks(monkeypatch):
    # 10^12 copies of 50 items: each chunk draws at most _SHUFFLE_CHUNK
    # outputs, so the first copies come at once and no block of 4.9e13
    # outputs is ever asked for
    sizes = []
    outputs = rng_module._outputs

    def spy(state, n):
        sizes.append(n)
        return outputs(state, n)

    monkeypatch.setattr(rng_module, "_outputs", spy)
    gen, ref = SplitMix64(5), ScalarOracle(5)
    copies = gen.shuffled_copies(range(50), 10 ** 12)
    for _ in range(rng_module._SHUFFLE_CHUNK // 49 + 3):
        want = list(range(50))
        ref.shuffle(want)
        assert next(copies) == want
    assert sizes == [rng_module._SHUFFLE_CHUNK // 49 * 49] * 2
    assert gen.state == ref.state


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.integers(0, 40), times=st.integers(0, 12),
       chunk=st.sampled_from([1, 5, 40, 1 << 17]))
def test_shuffled_blocks_equal_repeated_shuffles(seed, n, times, chunk):
    # each block holds chunk // (n - 1) copies (one when n - 1 is larger),
    # its rows the shuffles in sequence; after a block the state is where
    # that many shuffle() calls leave it
    gen, ref = SplitMix64(seed), ScalarOracle(seed)
    items = [3 * i + 1 for i in range(n)]
    rows = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "_SHUFFLE_CHUNK", chunk)
        for block in gen._shuffled_blocks(items, times):
            assert block.dtype == np.int64
            assert block.shape == (
                min(max(1, chunk // max(n - 1, 1)), times - rows), n)
            for got in block.tolist():
                want = items[:]
                ref.shuffle(want)
                assert got == want
            rows += len(block)
            assert gen.state == ref.state
    assert rows == times
    assert gen.next_u64() == ref.u64()


def test_block_of_negative_length_is_refused():
    gen = SplitMix64(3)
    with pytest.raises(ValueError):
        gen.u64_block(-1)
    assert gen.state == 3


def test_numpy_seed_keeps_a_python_int_state():
    gen = SplitMix64(np.uint64(2 ** 64 - 5))
    assert type(gen.state) is int and gen.state == 2 ** 64 - 5
    gen.unit_disk_block(7)
    assert type(gen.state) is int


@pytest.mark.parametrize("p,k", [(101, 1), (3, 2)])
def test_random_functions_pinned_to_the_scalar_loop(p, k):
    field = make_field(p, k)
    q = field.q
    gen = SplitMix64(2024)
    f = random_one_bounded(field, gen)
    ref = SplitMix64(2024)
    assert f.values.tolist() == [ref.unit_disk() for _ in range(q)]
    assert gen.state == ref.state
    assert random_one_bounded(field, 2024).values.tolist() == f.values.tolist()
    phase = _random_phase(field, gen).values
    want = np.exp(2j * np.pi * np.array([ref.random() for _ in range(q)]))
    assert phase.tolist() == want.tolist()
    two = _random_two_var(field, gen).values
    assert two.ravel().tolist() == [ref.unit_disk() for _ in range(q * q)]
    assert gen.state == ref.state


def test_random_one_bounded_and_subset_at_scale_are_immediate():
    field = make_field(4001)
    start = time.perf_counter()
    f = random_one_bounded(field, 1)
    assert time.perf_counter() - start < 0.1
    assert f.values.shape == (4001,) and f.max_abs() <= 1.0
    start = time.perf_counter()
    idx = SplitMix64(1).subset(10 ** 5, 0.5)
    assert time.perf_counter() - start < 0.1
    assert 49_000 < len(idx) < 51_000
