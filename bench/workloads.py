"""Cell plans of the three benchmark workloads, and the check on every cell.

A plan is a list of groups.  A group shares one field: its first cell
builds the field and the later cells reuse the field's lazily cached
tables, the way one CLI invocation does.  When the group is done the field
is dropped, so its tables are freed before the next field is built.

Every cell calls the library the way the `count`, `weil-scan`, `norms`,
`decompose` and `extremal` subcommands do, then checks its own result
against an independent route.  A cell raises CellFailure when a check
fails and returns the exact results (counts, r values, edge counts,
decomposition statuses and cutoffs) that reference.json pins at
DEFAULT_SEED.  Work counts such as search nodes are not results: a faster
search may explore fewer nodes, so the traced run reports them instead.

The benchmark's own checking code (the independent count and the witness's
edge scan) runs inside `untimed()` blocks, whose time session.run_pass
takes out of cell latencies and pass wall times.  Library calls are always
timed, those made to check a result included.

All randomness comes from the workload seed through the package's own
seeded API (derive_seed, SplitMix64, random_one_bounded), as a user's
--seed does, so the rng layer is measured with the rest.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

import ffprog as fp

DEFAULT_SEED = 1

# Stream tags keep the derive_seed streams of different cell kinds apart.
_TAG_COUNT, _TAG_WEIL, _TAG_SPECTRAL, _TAG_U2, _TAG_GREEDY = 1, 2, 3, 4, 5

PRIME_LADDER = (31, 61, 127, 251, 503, 1009, 2003, 4001)
# Acceptance criterion 9 decomposes phase and spike functions at q = 101 and
# checks 1000 random dual pairs per decomposition; the criterion9 cells do
# the same.  The other spectral cells draw no pairs, like `decompose`.
CRITERION9_Q = 101
CRITERION9_PAIRS = 1000
# (y, y^2), constant term first, for the independent count
SQUARE_POLYS = ((0, 1), (0, 0, 1))
EXTENSION_FIELDS = ((2, 6), (11, 2), (5, 3), (3, 4))
EXTENSION_EXTREMAL_FIELDS = ((5, 2), (3, 3))
# (y, y^2) on 29..43 and (y, 2y) on 29..37 are the configurations the
# workload is about; the primes 11..23 are cheap cells that put more
# samples around the median cell latency.
EXTREMAL_SQUARE_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
EXTREMAL_LINEAR_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)
GREEDY_ITERS = 200
POLICIES = ("paper_literal", "distinct_points")

# The naive U^s evaluator refuses q^(s+1) above this budget (gowers.py).
_NAIVE_U2_LIMIT = 10 ** 9


class CellFailure(Exception):
    """A cell's result failed one of its cross-checks."""


def check(ok, message: str) -> None:
    if not ok:
        raise CellFailure(message)


untimed_s = 0.0


@contextmanager
def untimed():
    """Add the block's time to untimed_s, which the timings leave out."""
    global untimed_s
    t0 = time.perf_counter()
    try:
        yield
    finally:
        untimed_s += time.perf_counter() - t0


def oracle_count(F, polys, A) -> int:
    """#{(x, y) : x, x + P_1(y), ..., x + P_m(y) all in A}, y over all of F.

    The arithmetic is the benchmark's own: numpy on the integers mod p for
    prime fields, and coefficient tuples (constant term first) reduced by
    F.modulus for GF(p^k).  It shares no code with counting.py or with the
    field's tables.  polys holds integer coefficient tuples.
    """
    p, k = F.p, F.k
    if k == 1:
        ind = np.zeros(p, dtype=bool)
        ind[np.asarray(A, dtype=np.int64) % p] = True
        x = np.flatnonzero(ind)
        total = 0
        for y0 in range(0, p, 256):
            y = np.arange(y0, min(p, y0 + 256), dtype=np.int64)[:, None]
            hit = np.ones((len(y), len(x)), dtype=bool)
            for coeffs in polys:
                shift = sum(c * y ** j for j, c in enumerate(coeffs)) % p
                hit &= ind[(x + shift) % p]
            total += int(hit.sum())
        return total

    mod = F.modulus   # monic of degree k, constant term first

    def add(a, b):
        return tuple((s + t) % p for s, t in zip(a, b))

    def mul(a, b):
        raw = [0] * (2 * k - 1)
        for i, s in enumerate(a):
            for j, t in enumerate(b):
                raw[i + j] += s * t
        for d in range(2 * k - 2, k - 1, -1):   # take c t^(d-k) mod(t) off
            c = raw[d] % p
            for i in range(k):
                raw[d - k + i] -= c * mod[i]
        return tuple(c % p for c in raw[:k])

    zero, one = (0,) * k, (1,) + (0,) * (k - 1)
    members = {a.coeffs for a in A}
    total = 0
    for y in itertools.product(range(p), repeat=k):
        shifts = []
        for coeffs in polys:
            value, power = zero, one
            for c in coeffs:
                value = add(value, tuple(c * t % p for t in power))
                power = mul(power, y)
            shifts.append(value)
        total += sum(all(add(x, s) in members for s in shifts) for x in members)
    return total


@dataclass
class Cell:
    name: str
    run: Callable[["Group"], dict]


@dataclass
class Group:
    p: int
    k: int
    cells: list = dc_field(default_factory=list)
    notes: dict = dc_field(default_factory=dict)
    _field: object = None

    def field(self):
        if self._field is None:
            self._field = fp.make_field(self.p, self.k)
        return self._field

    def release(self) -> None:
        self._field = None
        self.notes.clear()


def _stream(seed: int, g: Group, tag: int, *keys: int):
    return fp.SplitMix64(fp.derive_seed(seed, g.p, g.k, tag, *keys))


def _random_set(F, rng):
    """A half-density random subset, as `--set random:0.5` draws it.

    Indices are passed as ints on prime fields (the CLI path).  On GF(p^k)
    an int embeds as a constant, so there the indices become elements.
    """
    idx = rng.subset(F.q, 0.5)
    if F.k == 1:
        return idx
    return [F.element_at(i) for i in idx]


def _test_function(kind: str, F, rng):
    """The `phase` and `spike` functions of `decompose --fn`."""
    q = F.q
    if kind == "phase":
        vals = np.exp(2j * np.pi * np.array([rng.random() for _ in range(q)]))
        return fp.dense_function(F, vals)
    a = 1 + rng.randrange(q - 1)
    eps = 0.01 + 0.03 * rng.random()
    noise = np.exp(2j * np.pi * np.array([rng.random() for _ in range(q)]))
    vals = F.character_matrix()[a] + eps * noise
    return fp.dense_function(F, vals / np.sqrt(np.mean(np.abs(vals) ** 2)))


# --------------------------------------------------------------------------
# cells
# --------------------------------------------------------------------------

def count_cell(system, polys, seed: int, i: int, g: Group) -> dict:
    """Exact count against the benchmark's own count and round(q^2 Re Lambda)."""
    F = g.field()
    A = _random_set(F, _stream(seed, g, _TAG_COUNT, i))
    count = fp.count_progressions(system, A, y_rule="all", field=F)
    scaled = fp.main_term_error(system, A, field=F).scaled_count
    check(round(scaled.real) == count and abs(scaled.imag) < 1e-6,
          f"count {count} but q^2 Lambda = {scaled}")
    with untimed():
        want = oracle_count(F, polys, A)
    check(count == want, f"count {count} but the definition gives {want}")
    return {"count": count, "size": len(A)}


def weil_cell(cube, seed: int, g: Group) -> dict:
    """The y^3 sweep against its square-root bound and a single weil_sum."""
    p = g.p
    sums = fp.additive_monomial_sums(p, 3)
    check(abs(sums[0] - 1) < 1e-12, f"trivial sum {sums[0]} is not 1")
    worst = float(np.abs(sums[1:]).max())
    check(worst <= 2 / math.sqrt(p) + 1e-12,
          f"max |sum| {worst} above 2/sqrt({p})")
    a = 1 + _stream(seed, g, _TAG_WEIL).randrange(p - 1)
    single = fp.weil_sum(g.field(), [cube], [a])
    check(single.within_bound and abs(single.value - sums[a]) < 1e-9,
          f"weil_sum at a = {a} is {single.value}, sweep has {sums[a]}")
    return {"a": a}


def spectral_cell(bud, seed: int, i: int, pairs: int, g: Group) -> dict:
    """Threshold decomposition, its verifier, and dual-pair checks.

    Even i decomposes a phase function, odd i a spiked character.  Each
    of the `pairs` dual pairs draws a random_one_bounded g, as criterion 9
    does.  Criterion 9 draws pairs only for certified decompositions; the
    bound holds for every f_a, so here they are drawn whatever the status
    and the work does not depend on it.
    """
    F = g.field()
    q = F.q
    rng = _stream(seed, g, _TAG_SPECTRAL, i)
    f = _test_function(("phase", "spike")[i % 2], F, rng)
    res = fp.u2_threshold_decompose(f, bud)
    resid = float(np.abs(f.values - (res.fa.values + res.fb.values
                                     + res.fc.values)).max())
    check(resid <= 1e-10, f"parts miss f by {resid:.3e}")
    fp.recheck_certificates(res, q)
    out = {"status": res.status, "tau": res.tau}
    if q ** 3 <= _NAIVE_U2_LIMIT:
        ver = fp.verify_decomposition(f, res.fa, res.fb, res.fc, bud)
        check(ver.status == res.status,
              f"producer says {res.status}, verifier says {ver.status}")
        out["verifier"] = ver.status
    # |<g, fa>| <= sum |fa^| * ||g||_U2 holds for every fa, certified or not
    dual = res.certificates.dual_bound
    for _ in range(pairs):
        other = fp.random_one_bounded(F, rng.next_u64())
        lhs = abs(fp.inner(res.fa, other))
        rhs = dual * fp.gowers_u2_via_fourier(other).value
        check(lhs <= rhs + 1e-9, f"dual pair |<g, fa>| = {lhs} > {rhs}")
    return out


def u2_cell(seed: int, i: int, g: Group) -> dict:
    """Naive U^2 against sum |f^|^4, criterion 1's 1e-8 relative tolerance."""
    f = fp.random_one_bounded(g.field(),
                              fp.derive_seed(seed, g.p, g.k, _TAG_U2, i))
    a = fp.gowers_norm(f, 2).value
    b = fp.gowers_u2_via_fourier(f).value
    check(abs(a - b) <= 1e-8 * max(a, b, 1e-12),
          f"naive U^2 {a} against Fourier U^2 {b}")
    return {}


def _check_witness(system, hg, res) -> None:
    """The witness has r points and contains no edge of the hypergraph."""
    idx = res.witness_indices
    check(len(set(idx)) == res.r, f"witness has {len(set(idx))} points, r = {res.r}")
    with untimed():
        mask = 0
        for v in idx:
            mask |= 1 << v
        for edge in hg.edges:
            emask = 0
            for v in edge:
                emask |= 1 << v
            check(emask & ~mask, f"witness contains the edge {edge}")
    if hg.degeneracy == "paper_literal":
        # every (x, y != 0) is an edge, so the set is progression-free
        n = fp.count_progressions(system, list(res.witness), y_rule="nonzero",
                                  field=hg.field)
        check(n == 0, f"witness holds {n} progressions")


def exact_cell(system, label: str, policy: str, g: Group) -> dict:
    """`extremal --method exact`: hypergraph, branch and bound, witness."""
    hg = fp.build_hypergraph(system, g.field(), degeneracy=policy)
    res = fp.r_exact(hg)
    check(res.exact, f"node budget hit after {res.nodes_explored} nodes")
    _check_witness(system, hg, res)
    g.notes[(label, policy)] = res.r
    return {"r": res.r, "edges": len(hg.edges)}


def greedy_cell(system, label: str, policy: str, seed: int, g: Group) -> dict:
    """`extremal --method random`: best of GREEDY_ITERS shuffled greedy passes."""
    hg = fp.build_hypergraph(system, g.field(), degeneracy=policy)
    res = fp.r_lower_random(hg, GREEDY_ITERS, fp.derive_seed(
        seed, g.p, g.k, _TAG_GREEDY, POLICIES.index(policy)))
    _check_witness(system, hg, res)
    exact = g.notes.get((label, policy))
    check(exact is None or res.r <= exact,
          f"greedy r = {res.r} above exact r = {exact}")
    return {"r": res.r}


# --------------------------------------------------------------------------
# plans
# --------------------------------------------------------------------------

def prime_sweep(seed: int, reduced: bool = False) -> list[Group]:
    system = fp.progression_system(["y", "y^2"])
    bud = fp.budget_from_schedule(fp.delta_schedule(2, 1, Fraction(1, 2)), 2)
    cube = fp.parse_poly("y^3")
    groups = []
    for p in PRIME_LADDER[:2] if reduced else PRIME_LADDER:
        g = Group(p, 1)
        g.cells.append(Cell(f"weil/p{p}", partial(weil_cell, cube, seed)))
        g.cells += [Cell(f"count/p{p}/{i}",
                         partial(count_cell, system, SQUARE_POLYS, seed, i))
                    for i in range(3)]
        g.cells += [Cell(f"spectral/p{p}/{kind}",
                         partial(spectral_cell, bud, seed, i, 0))
                    for i, kind in enumerate(("phase", "spike"))]
        groups.append(g)
    g = Group(CRITERION9_Q, 1)
    g.cells += [Cell(f"criterion9/p{CRITERION9_Q}/{kind}",
                     partial(spectral_cell, bud, seed, i, CRITERION9_PAIRS))
                for i, kind in enumerate(("phase", "spike"))]
    groups.insert(2, g)
    return groups


def extension_field(seed: int, reduced: bool = False) -> list[Group]:
    system = fp.progression_system(["y", "y^2"])
    bud = fp.budget_from_schedule(fp.delta_schedule(2, 1, Fraction(1, 2)), 2)
    fields = ((2, 3), (3, 2)) if reduced else EXTENSION_FIELDS
    per_kind = 2 if reduced else 6
    groups = []
    for p, k in fields:
        g = Group(p, k)
        tag = f"{p}^{k}"
        g.cells += [Cell(f"count/{tag}/{i}",
                         partial(count_cell, system, SQUARE_POLYS, seed, i))
                    for i in range(per_kind)]
        g.cells += [Cell(f"u2/{tag}/{i}", partial(u2_cell, seed, i))
                    for i in range(per_kind)]
        g.cells += [Cell(f"decompose/{tag}/{i}",
                         partial(spectral_cell, bud, seed, i, 0))
                    for i in range(per_kind)]
        groups.append(g)
    for p, k in ((3, 2),) if reduced else EXTENSION_EXTREMAL_FIELDS:
        g = Group(p, k)
        g.cells += [Cell(f"r_exact/{p}^{k}/{policy}",
                         partial(exact_cell, system, "y,y^2", policy))
                    for policy in POLICIES]
        groups.append(g)
    return groups


def extremal(seed: int, reduced: bool = False) -> list[Group]:
    systems = [("y,y^2", fp.progression_system(["y", "y^2"]),
                EXTREMAL_SQUARE_PRIMES, POLICIES),
               ("y,2y", fp.progression_system(["y", "2y"]),
                EXTREMAL_LINEAR_PRIMES, POLICIES[:1])]
    if reduced:
        systems = [(label, system, (11, 31, 41), POLICIES[:1])
                   for label, system, _, _ in systems[:1]]
    groups = []
    for p in sorted({p for _, _, primes, _ in systems for p in primes}):
        g = Group(p, 1)
        for label, system, primes, policies in systems:
            if p not in primes:
                continue
            for policy in policies:
                g.cells.append(Cell(f"exact/{label}/p{p}/{policy}",
                                    partial(exact_cell, system, label, policy)))
                g.cells.append(Cell(f"greedy/{label}/p{p}/{policy}",
                                    partial(greedy_cell, system, label, policy,
                                            seed)))
        groups.append(g)
    return groups


PLANS = {"prime-sweep": prime_sweep, "extension-field": extension_field,
         "extremal": extremal}


def build_plan(workload: str, seed: int, reduced: bool = False) -> list[Group]:
    return PLANS[workload](seed, reduced)
