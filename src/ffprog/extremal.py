"""Extremal problem: largest progression-free subsets of F_q.

A subset S of F_q is progression-free for a system {P_1, .., P_m} when no
pair (x, y), y != 0, has the whole configuration {x, x + P_i(y)} inside S.
Each admissible (x, y) therefore defines a hyperedge (the configuration's
point set), and the extremal quantity r = r_{P_1..P_m}(F_q) is the
independence number of the resulting hypergraph.

Two policies govern degenerate configurations (points colliding because
P_i(y) = P_j(y) or P_i(y) = 0 at small characteristic):

* paper_literal (default): every (x, y != 0) generates an edge, even a
  singleton -- matching the verbatim progression-free definition, under
  which such a vertex can never be in S and pathological systems can have
  r = 0;
* distinct_points: only full-size edges (m+1 distinct points) are kept.

r_exact runs an exact branch-and-bound maximum-independent-set search over
bitmask sets, on an explicit stack rather than by recursion: vertices are
considered in ascending index order, a greedy pass seeds the incumbent, the
cardinality bound prunes, and unit propagation removes vertices that would
complete an almost-full edge.  Propagation reads closing tables keyed by a
vertex already in the set: for an edge e and distinct v, w in e, once v
joins the set w is forbidden exactly when the rest of e is already in it.
Including v therefore walks the (at most r) vertices of the set, not every
edge through v.  The search keeps one invariant: no candidate completes an
edge with the set.  It holds at the root, where one-vertex edges have made
their vertex unusable, and each include removes every candidate that v
would let complete an edge; so no include ever completes an edge, and the
candidates left after each include, hence the nodes visited, are those of a
scan over the edges through v.  The hypergraph is invariant under
x -> x + c, so the unusable vertices are all or none, and a largest
progression-free set S can be translated by -s (s in S) to one containing
0.  When the edge set passes that invariance check and vertex 0 is usable,
the search therefore fixes 0 in the set at the root and never explores the
branch without it; witnesses of such hypergraphs contain vertex 0.  A
hypergraph that fails the check (hand-built ones may) gets the full search.
The search is deterministic -- identical inputs give identical witnesses --
and a node budget turns the result into a best-found lower bound
(exact = False) with a certified upper bound r_upper beside it, instead of
ever raising.  r_lower_random is the randomized greedy companion (best of
`iters` shuffled insertion passes, seeded), and reads the same tables.

Background for the symmetry break: Crawford, Ginsberg, Luks & Roy,
"Symmetry-breaking predicates for search problems", KR 1996.

gamma_fit estimates the exponent gamma in r ~ q^(1-gamma) by least squares
on log r against log q over exact results; it reports a standard error and
residuals and makes no claim beyond the fitted data.

Errors raised here: TwistedSystem, InvalidRange, InsufficientData.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .counting import poly_index_table
from .errors import InsufficientData, InvalidRange, TwistedSystem
from .field import FieldElement, FieldSpec, _translates
from .polys import ProgressionSystem
from .rng import SplitMix64


@dataclass(frozen=True)
class ProgressionHypergraph:
    """Deduplicated configuration hypergraph of a system over a field."""

    field: FieldSpec
    edges: tuple[tuple[int, ...], ...]
    y_rule: str
    degeneracy: str

    @property
    def q(self) -> int:
        return self.field.q


def build_hypergraph(system: ProgressionSystem, field: FieldSpec,
                     y_rule: str = "nonzero",
                     degeneracy: str = "paper_literal") -> ProgressionHypergraph:
    """Edges {x} U {x + P_i(y)} over admissible y, deduplicated as sets."""
    if system.m2:
        raise TwistedSystem("hypergraphs are built from untwisted systems")
    if y_rule not in ("all", "nonzero"):
        raise InvalidRange(f"y_rule must be 'all' or 'nonzero', got {y_rule!r}")
    if degeneracy not in ("paper_literal", "distinct_points"):
        raise InvalidRange(f"unknown degeneracy policy {degeneracy!r}")
    q = field.q
    coords = [field._coeff_matrix()[poly_index_table(p, field)].tolist()
              for p in system.P]
    full_size = system.m1 + 1
    seen: set[tuple[int, ...]] = set()
    start = 1 if y_rule == "nonzero" else 0
    index = np.arange(q, dtype=np.int64)
    to = _translates(field, index)   # to[c_e]: x -> index of x + e
    for yi in range(start, q):
        points = [index] + [to[tuple(e[yi])].reshape(q) for e in coords]
        for row in np.sort(np.stack(points, axis=1), axis=1).tolist():
            seen.add(tuple(dict.fromkeys(row)))   # sorted, duplicates dropped
    if degeneracy == "distinct_points":
        seen = {e for e in seen if len(e) == full_size}
    edges = tuple(sorted(seen, key=lambda e: (len(e), e)))
    return ProgressionHypergraph(field, edges, y_rule, degeneracy)


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of one extremal search."""

    q: int
    r: int
    witness: tuple[FieldElement, ...]
    exact: bool
    nodes_explored: int
    wall_time: float
    method: str
    seed: int | None = None
    r_upper: int | None = None   # r_exact: r <= r(hg) <= r_upper

    @property
    def witness_indices(self) -> tuple[int, ...]:
        return tuple(e.index for e in self.witness)


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _check_bitset(q: int) -> None:
    """Refuse (InvalidRange) a bitset search over more than 512 vertices."""
    if q > 512:
        raise InvalidRange(f"bitset search capped at q <= 512, got q = {q}")


def _closing_tables(hg: ProgressionHypergraph):
    """The closing tables (static, pair, wide) of hg, and its usable mask.

    For an edge e and distinct v, w in e, let rest = e minus {v, w}: once v
    is in the set, w is forbidden exactly when rest is inside it.  static[v]
    holds the w with rest empty (2-point edges); pair[v][u] holds the w
    with rest = {u} (3-point edges); wide[v][u] lists (rest, w-bit) for
    |rest| >= 2, keyed by u, the lowest vertex of rest, and is None when no
    edge has four points.  Edges are sized by their distinct vertices, and
    one-vertex edges make that vertex unusable instead; an edge through an
    unusable vertex can never be completed and is left out.
    """
    q = hg.q
    _check_bitset(q)
    bit = [1 << v for v in range(q)]
    dead = {e[0] for e in hg.edges if len(set(e)) == 1}
    static = [0] * q
    pair = [[0] * q for _ in range(q)]
    wide = None
    for e in hg.edges:
        e = set(e)
        if len(e) < 2 or not dead.isdisjoint(e):
            continue
        if len(e) == 3:
            a, b, c = e
            pa, pb, pc = pair[a], pair[b], pair[c]
            pa[b] |= bit[c]
            pa[c] |= bit[b]
            pb[a] |= bit[c]
            pb[c] |= bit[a]
            pc[a] |= bit[b]
            pc[b] |= bit[a]
        elif len(e) == 2:
            a, b = e
            static[a] |= bit[b]
            static[b] |= bit[a]
        else:
            if wide is None:
                wide = [[()] * q for _ in range(q)]
            m = _mask(e)
            for v in e:
                row = wide[v]
                for w in e:
                    if w != v:
                        rest = m ^ bit[v] ^ bit[w]
                        u = (rest & -rest).bit_length() - 1
                        if not row[u]:
                            row[u] = []
                        row[u].append((rest, bit[w]))
    usable = ((1 << q) - 1) & ~_mask(dead)
    return (static, pair, wide), usable


def _closed(v: int, cur: int, static, pair, wide) -> int:
    """The vertices that v, joining cur, forbids: each w whose edge with v
    has every other vertex in cur.  Walks the vertices of cur, not the
    edges through v."""
    out = static[v]
    pv = pair[v]
    c = cur
    if wide is None:   # no edge of four points: the pair tier alone
        while c:
            low = c & -c
            out |= pv[low.bit_length() - 1]
            c ^= low
        return out
    wv = wide[v]
    missing = ~cur
    while c:
        low = c & -c
        u = low.bit_length() - 1
        out |= pv[u]
        for rest, w in wv[u]:
            if not rest & missing:
                out |= w
        c ^= low
    return out


def _greedy_mask(order, tables, usable: int) -> int:
    """Deterministic greedy independent set along the given vertex order.

    Each vertex taken forbids every vertex that would now complete one of
    its edges (the unit propagation of r_exact), so a vertex is skipped
    exactly when it would complete an edge, with no scan of its edges.
    """
    static, pair, wide = tables
    cur = 0
    forbidden = ~usable
    for v in order:
        vbit = 1 << v
        if forbidden & vbit:
            continue
        forbidden |= _closed(v, cur, static, pair, wide)
        cur |= vbit
    return cur


def _witness(field: FieldSpec, mask: int) -> tuple[FieldElement, ...]:
    els = field.elements()
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(els[v])
        mask &= mask - 1
    return tuple(out)


def _translation_invariant(hg: ProgressionHypergraph) -> bool:
    """Whether the edge set maps onto itself under every x -> x + c.

    Checked for the c whose coefficient vectors are the unit vectors, which
    generate (F_q, +); O(|E| k).
    """
    field = hg.field
    masks = {_mask(e) for e in hg.edges}
    translates = _translates(field, np.arange(field.q, dtype=np.int64))
    for unit in np.eye(field.k, dtype=np.int64):
        to = translates[tuple(unit)].reshape(field.q).tolist()
        if any(_mask(to[v] for v in e) not in masks for e in hg.edges):
            return False
    return True


def r_exact(hg: ProgressionHypergraph,
            node_budget: int = 10_000_000) -> ExtremalResult:
    """Exact maximum independent set by branch and bound (deterministic).

    When the edge set is translation-invariant (every hypergraph that
    build_hypergraph returns is) and vertex 0 is usable, some optimum
    contains 0: the search includes 0 at the root and never explores the
    branch without it, so the witness then contains vertex 0.  Any other
    hypergraph gets the full search.  The search runs on an explicit stack
    (no recursion), visiting nodes in include-first depth-first order.

    Runs to completion within node_budget (exact = True, r_upper = r) or
    stops at the first node over it and returns the best set found so far
    (exact = False, nodes_explored = node_budget + 1) with r_upper, the
    largest of r and size + |candidates| over the stopped frame and every
    frame left on the stack, so that r <= r(hg) <= r_upper; never raises
    for budget.
    """
    q = hg.q
    t0 = time.perf_counter()
    tables, usable = _closing_tables(hg)
    static, pair, wide = tables
    best_mask = _greedy_mask(range(q), tables, usable)
    best_size = best_mask.bit_count()
    nodes = 0
    # frames (cur, cand, size, forced): the set so far, the vertices still
    # open, |cur|, and whether the exclude branch of the lowest candidate
    # is skipped.  The include child is pushed above the exclude sibling,
    # so nodes pop in the order of a recursive include-first search.  No
    # candidate completes an edge with cur, so including v never does.
    forced = bool(usable & 1) and _translation_invariant(hg)
    stack = [(0, usable, 0, forced)]
    while stack:
        cur, cand, size, forced = stack.pop()
        nodes += 1
        if nodes > node_budget:
            stack.append((cur, cand, size, forced))  # left unexplored
            break
        if size + cand.bit_count() <= best_size:
            continue
        if cand == 0:
            best_size, best_mask = size, cur
            continue
        vbit = cand & -cand
        v = vbit.bit_length() - 1
        if not forced:
            stack.append((cur, cand & ~vbit, size, False))  # exclude v
        newcand = cand & ~vbit & ~_closed(v, cur, static, pair, wide)
        stack.append((cur | vbit, newcand, size + 1, False))  # include v

    # every set better than the incumbent that the search has not ruled
    # out lies under a frame still stacked, inside that frame's cur | cand
    r_upper = max([best_size] + [size + cand.bit_count()
                                 for _, cand, size, _ in stack])
    return ExtremalResult(q, best_size, _witness(hg.field, best_mask),
                          not stack, nodes, time.perf_counter() - t0,
                          "branch_and_bound", r_upper=r_upper)


def r_lower_random(hg: ProgressionHypergraph, iters: int,
                   seed: int) -> ExtremalResult:
    """Best of `iters` randomized greedy passes; reproducible from seed."""
    q = hg.q
    if iters < 1:
        raise InvalidRange(f"iters must be >= 1, got {iters}")
    t0 = time.perf_counter()
    tables, usable = _closing_tables(hg)
    rng = SplitMix64(seed)
    vertices = [v for v in range(q) if usable & (1 << v)]
    best_mask = 0
    best_size = 0
    attempts = 0
    for _ in range(iters):
        order = vertices[:]
        rng.shuffle(order)
        cur = _greedy_mask(order, tables, usable)
        attempts += len(order)
        size = cur.bit_count()
        if size > best_size:
            best_size, best_mask = size, cur
    return ExtremalResult(q, best_size, _witness(hg.field, best_mask),
                          False, attempts, time.perf_counter() - t0,
                          "random_greedy", seed)


@dataclass(frozen=True)
class GammaFit:
    """Least-squares exponent estimate from exact extremal values."""

    gamma_hat: float
    stderr: float
    points_used: int
    residuals: tuple[float, ...]


def gamma_fit(results) -> GammaFit:
    """Fit log r = (1 - gamma) log q + const over exact results with r >= 1."""
    pts = [(res.q, res.r) for res in results if res.exact and res.r >= 1]
    if len(pts) < 3:
        raise InsufficientData(
            f"need >= 3 exact results with r >= 1, have {len(pts)}")
    x = np.log([p for p, _ in pts])
    yv = np.log([r for _, r in pts])
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0.0:
        raise InsufficientData("all results share one q; no slope to fit")
    slope = float(((x - xbar) * (yv - yv.mean())).sum() / sxx)
    const = float(yv.mean() - slope * xbar)
    resid = yv - (slope * x + const)
    n = len(pts)
    s2 = float((resid ** 2).sum()) / (n - 2) if n > 2 else 0.0
    return GammaFit(1.0 - slope, (s2 / sxx) ** 0.5, n,
                    tuple(float(r) for r in resid))
