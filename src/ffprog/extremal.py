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

build_hypergraph gathers every configuration at once: one fancy index per
polynomial (its rows from counting._system_rows) into the all-translates
view of field._translates gives the points x + P_i(y) for every admissible
y and every x.  The configurations are worked on as columns (point j of
every configuration), so each numpy call spans all of them: the columns
are sorted by a compare-exchange network, repeated points dropped by an
adjacent-difference mask, and the configurations with d distinct points
deduplicated through an exact int64 key (the row read as a base-q number,
whose order is the rows' lexicographic order) or, when q^d >= 2^63, by
lexsort.  Those vertex-set arrays are the edge store the search reads;
the edge tuples are zipped from their column lists a block at a time.
The 2- and 3-point edges fill one (q, q) closing table of little-endian
uint64 words, W = ceil(q / 64) per mask, the 2-point masks on its
diagonal, by one scatter (np.add.at: the sets are distinct, so no bit is
set twice and adding ORs); the scatter runs _TUPLE_ROWS edges at a time,
so its index arrays stay a block's size.  r_exact reads the words as the
masks' Python ints, made row by row; the greedy batch reads the words
themselves.  The invariance checks behind the symmetry breaks
map the vertex sets through a vertex permutation and compare the sorted
keys of the result with the sets' own keys (deduplicated rows where
q^d >= 2^63).

r_exact runs an exact branch-and-bound maximum-independent-set search over
bitmask sets, on an explicit stack rather than by recursion: vertices are
considered in ascending index order, a greedy pass seeds the incumbent, the
cardinality bound prunes, and unit propagation removes vertices that would
complete an almost-full edge.  Propagation reads closing tables keyed by a
vertex already in the set: for an edge e and distinct v, w in e, once v
joins the set w is forbidden exactly when the rest of e is already in it.
Including v therefore walks the (at most r) vertices of the set, not every
edge through v: each frame carries the tuple of its set's members, and the
include step ORs v's row of the table at v and at each member, with no walk
over the bits.  The search keeps one invariant: no candidate completes an
edge with the set.  It holds at the root, where one-vertex edges have made
their vertex unusable, and each include removes every candidate that v
would let complete an edge; so no include ever completes an edge, and the
candidates left after each include, hence the nodes visited, are those of a
scan over the edges through v.  The hypergraph is invariant under
x -> x + c, so the unusable vertices are all or none, and a largest
progression-free set S can be translated by -s (s in S) to one containing
0.  When the edge set passes that invariance check and vertex 0 is usable,
the search therefore fixes 0 in the set at the root and never explores the
branch without it; witnesses of such hypergraphs contain vertex 0.  When
the edge set is also invariant under x -> a x for every a != 0 (checked for
a primitive element, which generates F_q^*; linear systems such as (y, 2y)
pass), an optimum through 0 can be dilated by v / s to contain any vertex
v that can join 0, so the search fixes the lowest such v as well.  The
first optimum in include-first order lies under both fixed vertices, so
the witness is the one the full search finds, and only the node count
drops.  A hypergraph that fails a check (hand-built ones may) gets no
break from it.
The search is deterministic -- identical inputs give identical witnesses --
and a node budget turns the result into a best-found lower bound
(exact = False) with a certified upper bound r_upper beside it, instead of
ever raising.  r_lower_random is the randomized greedy companion: the best
of `iters` shuffled insertion passes, seeded, their orders drawn as
blocks of rows by SplitMix64._shuffled_blocks.  When no edge has four
points it runs every pass of a block at once on the closing words
(_greedy_batch): each round, every open pass takes the first vertex of its
order that is neither taken nor forbidden, found as the argmin of a rank
array, and forbids what one gather and OR-reduce of the words gives.  A
wide tier (edges of four or more points) sends each order through
_greedy_mask, r_exact's incumbent pass, instead; both routes give the same
sets.

Background for the symmetry break: Crawford, Ginsberg, Luks & Roy,
"Symmetry-breaking predicates for search problems", KR 1996.

gamma_fit estimates the exponent gamma in r ~ q^(1-gamma) by least squares
on log r against log q over exact results; it reports a standard error and
residuals and makes no claim beyond the fitted data.

Errors raised here: TwistedSystem, InvalidRange, InsufficientData,
BudgetExceeded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as _dc_field
from itertools import chain, permutations, repeat

import numpy as np

from .counting import _first_y, _system_rows
from .errors import (InsufficientData, InvalidRange, TwistedSystem,
                     _check_budget)
from .field import (FieldElement, FieldSpec, _check_translates,
                    _primitive_element, _translates)
from .polys import ProgressionSystem
from .rng import SplitMix64

_TUPLE_ROWS = 1 << 12   # edge rows turned into tuples, or scattered, per block
_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


@dataclass(frozen=True)
class ProgressionHypergraph:
    """Deduplicated configuration hypergraph of a system over a field.

    build_hypergraph gives its edges as sorted tuples, shortest first and
    in lexicographic order within a length.  _cache keeps the edges'
    vertex-set arrays (_vertex_sets), which build_hypergraph fills as it
    goes and the search reads; it takes no part in equality.
    """

    field: FieldSpec
    edges: tuple[tuple[int, ...], ...]
    y_rule: str
    degeneracy: str
    _cache: dict = _dc_field(default_factory=dict, compare=False, repr=False)

    @property
    def q(self) -> int:
        return self.field.q

    def _vertex_sets(self) -> dict[int, np.ndarray]:
        """The edges as vertex sets, by size (cached): see _point_sets.
        A vertex outside [0, q), which no base-q key holds, is refused."""
        if "sets" not in self._cache:
            edges = [e for e in self.edges if e]
            lens = np.array([len(e) for e in edges], dtype=np.int64)
            flat = np.fromiter(chain.from_iterable(edges), np.int64)
            bad = flat[(flat < 0) | (flat >= self.q)]
            if len(bad):
                raise InvalidRange(f"vertex {bad[0]} outside [0, {self.q})")
            # each edge padded to the widest by repeating its last vertex,
            # which leaves its vertex set as it is
            width = int(lens.max(initial=1))
            at = np.minimum(np.arange(width), lens[:, None] - 1)
            self._cache["sets"] = _point_sets(
                flat[at + (np.cumsum(lens) - lens)[:, None]], self.q)
        return self._cache["sets"]


def _sorted_columns(cols: np.ndarray) -> np.ndarray:
    """A (d, n) array with every column sorted, so that out[j] ascends in
    j: an odd-even transposition network of compare-exchanges on whole
    rows, each one numpy call over n values (np.sort(axis=0) would sort
    the n short columns one by one)."""
    out = list(cols)
    for r in range(len(out)):
        for j in range(r % 2, len(out) - 1, 2):
            out[j], out[j + 1] = (np.minimum(out[j], out[j + 1]),
                                  np.maximum(out[j], out[j + 1]))
    return np.stack(out)


def _row_keys(rows: np.ndarray, q: int) -> np.ndarray | None:
    """Each row of a (n, d) array over [0, q) as its exact int64 key
    sum_j v_j q^(d-1-j), whose order is the rows' lexicographic order, by
    Horner over the columns; None when q^d >= 2^63 and no key fits."""
    if q ** rows.shape[1] >= 2 ** 63:
        return None
    cols = rows.T
    keys = cols[0].astype(np.int64)
    for col in cols[1:]:
        keys *= q
        keys += col
    return keys


def _distinct_rows(rows: np.ndarray, q: int) -> np.ndarray:
    """The distinct rows of a (n, d) array over [0, q), ascending in
    lexicographic order.

    While q^d < 2^63 the keys (_row_keys) are sorted, repeats dropped by
    an adjacent-difference mask, and the rows decoded column by column
    into a column-major array.  Wider rows take lexsort, about ten times
    slower.
    """
    keys = _row_keys(rows, q)
    if keys is not None:
        keys.sort()
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
        cols = np.empty((rows.shape[1], len(keys)), dtype=np.int64)
        for j in range(len(cols) - 1, 0, -1):
            keys, cols[j] = np.divmod(keys, q)
        cols[0] = keys
        return cols.T
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.append(True, (rows[1:] != rows[:-1]).any(axis=1))]


def _point_sets(rows: np.ndarray, q: int) -> dict[int, np.ndarray]:
    """Rows of vertex indices read as sets, grouped by size: for each
    count d of distinct vertices, the distinct d-sets as rows sorted
    within, in ascending lexicographic order (_distinct_rows).

    The work runs on the columns, so every numpy call spans all rows: the
    columns are sorted (_sorted_columns), a row's distinct vertices are
    those that differ from the one before, and a row with repeats writes
    each vertex to the slot of its rank among them.
    """
    cols = _sorted_columns(rows.T)
    new = cols[1:] != cols[:-1]   # (D - 1, n): vertex j + 1 starts a run
    size = 1 + new.sum(axis=0)
    out = {}
    for d in range(1, len(cols) + 1):
        of_d = size == d
        if not of_d.any():
            continue
        sets = cols.compress(of_d, axis=1)
        if d < len(cols):
            rank = np.cumsum(new.compress(of_d, axis=1), axis=0)
            sets[rank, np.arange(sets.shape[1])] = sets[1:].copy()
            sets = sets[:d]
        out[d] = _distinct_rows(sets.T, q)
    return out


def _as_tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The rows as tuples of ints, zipped from the columns' lists
    _TUPLE_ROWS rows at a time, so the lists of every row never exist at
    once beside the tuples."""
    out = []
    for start in range(0, len(rows), _TUPLE_ROWS):
        out += zip(*rows[start:start + _TUPLE_ROWS].T.tolist())
    return out


def build_hypergraph(system: ProgressionSystem, field: FieldSpec,
                     y_rule: str = "nonzero",
                     degeneracy: str = "paper_literal") -> ProgressionHypergraph:
    """Edges {x} U {x + P_i(y)} over admissible y, deduplicated as sets."""
    if system.m2:
        raise TwistedSystem("hypergraphs are built from untwisted systems")
    start = _first_y(y_rule)
    if degeneracy not in ("paper_literal", "distinct_points"):
        raise InvalidRange(f"unknown degeneracy policy {degeneracy!r}")
    _check_translates(field, "int64")
    q = field.q
    _check_budget(f"hypergraph on q = {q} gathers (m + 1)(q - {start})q",
                  (system.m1 + 1) * (q - start) * q, "int64")
    index = np.arange(q, dtype=np.int64)
    to = _translates(field, index)   # to[c_e]: x -> index of x + e
    points = [np.broadcast_to(index, (q - start, q))]
    for e in _system_rows(field, [poly.coeffs for poly in system.P]):
        # row y: x -> index of x + P(y), for every admissible y at once
        points.append(to[tuple(e[start:].T)].reshape(q - start, q))
    full_size = system.m1 + 1
    sets = _point_sets(np.stack(points).reshape(full_size, -1).T, q)
    if degeneracy == "distinct_points":
        sets = {d: rows for d, rows in sets.items() if d == full_size}
    edges = tuple(chain.from_iterable(_as_tuples(sets[d])
                                      for d in sorted(sets)))
    return ProgressionHypergraph(field, edges, y_rule, degeneracy,
                                 _cache={"sets": sets})


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
    fixed: int | None = None     # r_exact: vertices fixed at the root

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


def _scatter_bits(words: np.ndarray, rows: np.ndarray, q: int) -> None:
    """Set in words, a zeroed (q, q, W) array of little-endian uint64
    words, the bit of w at [v, u] for every vertex order (v, u, w) of each
    3-row and at [v, v] for every order (v, w) of each 2-row: the row is
    v q + cols[-2], which is v itself for a 2-row.  One scatter per block
    of _TUPLE_ROWS rows, so its index arrays stay a block's size.

    The rows are distinct sets, so no order comes twice and no bit is set
    twice: adding the bits ORs them, and np.add.at runs several times
    faster than np.bitwise_or.at."""
    width = words.shape[-1]
    orders = np.array(list(permutations(range(rows.shape[1]))))
    for start in range(0, len(rows), _TUPLE_ROWS):
        cols = rows[start:start + _TUPLE_ROWS].T[orders]   # (d!, d, n)
        w = cols[:, -1]
        at = (cols[:, 0] * q + cols[:, -2]) * width + (w >> 6)
        np.add.at(words.reshape(-1), at.ravel(), _BITS[w & 63].ravel())


def _word_ints(words: np.ndarray) -> list:
    """A (q, q, W) array of little-endian uint64 words as a (q, q) nested
    list of Python ints, one int per W words: tolist for one word, else
    each row viewed as W-word void scalars, whose tolist gives the bytes
    that int.from_bytes reads."""
    width = words.shape[-1]
    if width == 1:
        return words[..., 0].tolist()
    return [list(map(int.from_bytes, row.tolist(), repeat("little")))
            for row in words.view(f"V{8 * width}")[..., 0]]


def _closing_words(hg: ProgressionHypergraph):
    """The closing tables (words, wide) of hg, and its usable mask.

    For an edge e and distinct v, w in e, let rest = e minus {v, w}: once v
    is in the set, w is forbidden exactly when rest is inside it.
    words[v, u] holds the w with rest = {u} (3-point edges), and words[v, v]
    the w with rest empty (2-point edges): a 3-point rest never contains v,
    so nothing else writes that slot.  wide[v][u] lists (rest, w-bit) for
    |rest| >= 2, keyed by u, the lowest vertex of rest, and is None when no
    edge has four points.  The edges are read as hg's vertex sets: a
    one-vertex set makes its vertex unusable instead, and a set through an
    unusable vertex can never be completed and is left out.

    words is one (q, q, W) array of W = ceil(q / 64) little-endian uint64
    words per mask, filled by one scatter over the 2- and 3-point sets, run
    _TUPLE_ROWS edges at a time (_scatter_bits).  The wide tier is filled
    edge by edge.
    """
    q = hg.q
    _check_bitset(q)
    bit = [1 << v for v in range(q)]
    sets = hg._vertex_sets()
    dead = sets[1][:, 0].tolist() if 1 in sets else []
    alive = np.ones(q, dtype=bool)
    alive[dead] = False
    words = np.zeros((q, q, -(-q // 64)), dtype="<u8")
    wide = None
    for d, rows in sets.items():
        if dead:   # a copy, so only when needed; drops the one-vertex sets too
            rows = rows[alive[rows].all(axis=1)]
        if d in (2, 3):
            _scatter_bits(words, rows, q)
        elif len(rows):
            if wide is None:
                wide = [[()] * q for _ in range(q)]
            for e in _as_tuples(rows):
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
    return (words, wide), usable


def _closing_tables(hg: ProgressionHypergraph):
    """The closing tables (pair, wide) of hg, and its usable mask: those of
    _closing_words, with pair[v][u] the mask of words[v, u] as a Python
    int (_word_ints), row by row."""
    (words, wide), usable = _closing_words(hg)
    return (_word_ints(words), wide), usable


def _closed(v: int, members, cur: int, pair, wide) -> int:
    """The vertices that v, joining cur, forbids: each w whose edge with v
    has every other vertex in cur.  Starts from pair[v][v], v's 2-point
    edges, and walks members, the vertices of cur, not the edges through
    v; v is never in cur, so the walk never reads that slot again."""
    pv = pair[v]
    out = pv[v]
    if wide is None:   # no edge of four points: the pair tier alone
        for u in members:
            out |= pv[u]
        return out
    wv = wide[v]
    missing = ~cur
    for u in members:
        out |= pv[u]
        for rest, w in wv[u]:
            if not rest & missing:
                out |= w
    return out


def _greedy_mask(order, tables, usable: int) -> int:
    """Deterministic greedy independent set along the given vertex order.

    Each vertex taken forbids every vertex that would now complete one of
    its edges (the unit propagation of r_exact), so a vertex is skipped
    exactly when it would complete an edge, with no scan of its edges.
    """
    pair, wide = tables
    cur = 0
    members = []
    forbidden = ~usable
    for v in order:
        vbit = 1 << v
        if forbidden & vbit:
            continue
        forbidden |= _closed(v, members, cur, pair, wide)
        cur |= vbit
        members.append(v)
    return cur


def _greedy_batch(orders: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The greedy sets of every row of orders, a (passes, n) array of
    usable vertices, read off the closing words when no edge has four
    points: a (passes, q) array whose row i lists pass i's set in the
    order taken, padded with q.  _greedy_mask gives the same sets.

    rank[i, v] is v's position in order i, and n once v is taken or
    forbidden.  Forbidden sets only grow, so the vertex a pass takes next
    is the first in its order neither forbidden nor taken: the argmin of
    its rank row, and the pass closes when that rank is n.  Each round
    every open pass takes its vertex v, so all open passes hold k members
    at round k, and the vertices v forbids are words[v, u] ORed over u in
    its members and v itself (the 2-point masks): one gather of (k + 1,
    open, W) words, one OR-reduce, and the result unpacked to bits.
    """
    passes, n = orders.shape
    q = len(words)
    flat = words.reshape(q * q, -1)
    rank = np.full((passes, q), n, dtype=np.intp)
    rank[np.arange(passes)[:, None], orders] = np.arange(n)
    taken = np.full((q, passes), q, dtype=np.intp)   # round k: taken[k]
    open_ = at = np.arange(passes)   # the open passes; at: their rank rows
    for k in range(q):
        v = rank.argmin(axis=1)
        live = rank[at, v] < n
        if not live.all():
            open_, rank, v = open_[live], rank[live], v[live]
            at = at[:len(v)]
            if not len(v):
                break
        taken[k, open_] = v
        rows = taken[:k + 1, open_]
        rows += v * q
        closed = np.bitwise_or.reduce(np.take(flat, rows, axis=0), axis=0)
        rank[np.unpackbits(closed.view(np.uint8), axis=1, count=q,
                           bitorder="little").view(bool)] = n
        rank[at, v] = n
    return taken.T


def _witness(field: FieldSpec, mask: int) -> tuple[FieldElement, ...]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(field.element_at(v))
        mask &= mask - 1
    return tuple(out)


def _invariant(hg: ProgressionHypergraph, perm: np.ndarray) -> bool:
    """Whether x -> perm[x], a permutation of the vertices, maps the edge
    set onto itself.  A permutation maps distinct sets to distinct sets,
    so for each size the sorted keys of the mapped vertex sets must equal
    the sets' own keys, which ascend already (see _distinct_rows); where
    q^d >= 2^63 leaves no int64 key the mapped sets are deduplicated and
    compared as rows."""
    q = hg.q
    for rows in hg._vertex_sets().values():
        mapped = _sorted_columns(perm[rows.T]).T
        keys = _row_keys(mapped, q)
        if keys is None:
            same = np.array_equal(_distinct_rows(mapped, q), rows)
        else:
            keys.sort()
            same = np.array_equal(keys, _row_keys(rows, q))
        if not same:
            return False
    return True


def _translation_invariant(hg: ProgressionHypergraph) -> bool:
    """Whether the edge set maps onto itself under every x -> x + c.

    Checked for the c whose coefficient vectors are the unit vectors, which
    generate (F_q, +).
    """
    field = hg.field
    translates = _translates(field, np.arange(field.q, dtype=np.int64))
    return all(_invariant(hg, translates[tuple(unit)].reshape(field.q))
               for unit in np.eye(field.k, dtype=np.int64))


def _dilation_invariant(hg: ProgressionHypergraph) -> bool:
    """Whether the edge set maps onto itself under every x -> a x, a != 0.

    Checked for a = g, a primitive element, which generates F_q^*.
    """
    field = hg.field
    g = np.array(_primitive_element(field).coeffs, dtype=np.int64)
    return _invariant(hg, field._mul_rows(field._coeff_matrix(), g)
                      @ field._place_values())


def _fixed_at_root(hg: ProgressionHypergraph, usable: int) -> int:
    """How many vertices the search may fix at the root.

    0 when vertex 0 is unusable or the edge set is not translation
    invariant; else 1 (vertex 0), or 2 when it is also dilation invariant
    (vertex 0 and the lowest candidate left after including it).
    """
    if not (usable & 1 and _translation_invariant(hg)):
        return 0
    return 2 if _dilation_invariant(hg) else 1


def r_exact(hg: ProgressionHypergraph,
            node_budget: int = 10_000_000) -> ExtremalResult:
    """Exact maximum independent set by branch and bound (deterministic).

    The symmetry breaks of the module docstring fix vertex 0 and, under
    dilations, the lowest vertex that can join it at the root; `fixed`
    reports how many (0, 1 or 2).  The witness is the one the full search
    finds, so it then contains vertex 0.

    Runs to completion within node_budget (exact = True, r_upper = r) or
    stops at the first node over it and returns the best set found so far
    (exact = False, nodes_explored = node_budget + 1) with r_upper, the
    largest of r and size + |candidates| over the stopped frame and every
    frame left on the stack, so that r <= r(hg) <= r_upper; running out of
    budget never raises, but a budget below 0 raises InvalidRange.
    """
    if node_budget < 0:
        raise InvalidRange(f"node_budget must be >= 0, got {node_budget}")
    q = hg.q
    t0 = time.perf_counter()
    tables, usable = _closing_tables(hg)
    pair, wide = tables
    best_mask = _greedy_mask(range(q), tables, usable)
    best_size = best_mask.bit_count()
    nodes = 0
    # frames (cur, cand, size, forced, members): the set so far, the
    # vertices still open, |cur|, for how many levels, this one first, the
    # search takes only the include branch of the lowest candidate, and
    # the vertices of cur in the order included.  The include
    # child is pushed above the exclude sibling, so nodes pop in the order
    # of a recursive include-first search.  No candidate completes an edge
    # with cur, so including v never does.
    fixed = _fixed_at_root(hg, usable)
    if fixed == 2 and not usable & ~1 & ~pair[0][0]:
        fixed = 1   # no vertex can join 0: the dilation break fixes none
    stack = [(0, usable, 0, fixed, ())]
    while stack:
        cur, cand, size, forced, members = stack.pop()
        nodes += 1
        if nodes > node_budget:
            stack.append((cur, cand, size, forced, members))  # unexplored
            break
        if size + cand.bit_count() <= best_size:
            continue
        if cand == 0:
            best_size, best_mask = size, cur
            continue
        vbit = cand & -cand
        v = vbit.bit_length() - 1
        cand &= ~vbit
        if forced:
            forced -= 1   # the include child inherits what is left
        else:
            stack.append((cur, cand, size, 0, members))  # exclude v
        if wide is None:
            pv = pair[v]
            out = pv[v]
            for u in members:
                out |= pv[u]
        else:
            out = _closed(v, members, cur, pair, wide)
        stack.append((cur | vbit, cand & ~out, size + 1, forced,
                      members + (v,)))  # include v

    # every set better than the incumbent that the search has not ruled
    # out lies under a frame still stacked, inside that frame's cur | cand
    r_upper = max([best_size] + [size + cand.bit_count()
                                 for _, cand, size, _, _ in stack])
    return ExtremalResult(q, best_size, _witness(hg.field, best_mask),
                          not stack, nodes, time.perf_counter() - t0,
                          "branch_and_bound", r_upper=r_upper, fixed=fixed)


def r_lower_random(hg: ProgressionHypergraph, iters: int,
                   seed: int) -> ExtremalResult:
    """Best of `iters` randomized greedy passes; reproducible from seed.

    The best is the first pass of largest size.  Without a wide tier the
    passes of each block of orders run together (_greedy_batch); with one,
    _greedy_mask runs each order in turn.
    """
    q = hg.q
    if iters < 1:
        raise InvalidRange(f"iters must be >= 1, got {iters}")
    t0 = time.perf_counter()
    (words, wide), usable = _closing_words(hg)
    tables = None if wide is None else (_word_ints(words), wide)
    rng = SplitMix64(seed)
    vertices = [v for v in range(q) if usable & (1 << v)]
    best_size = best_mask = 0
    for orders in rng._shuffled_blocks(vertices, iters):
        if tables is None:
            taken = _greedy_batch(orders, words)
            sizes = (taken < q).sum(axis=1)
            i = int(sizes.argmax())
            if sizes[i] > best_size:
                best_size = int(sizes[i])
                best_mask = _mask(taken[i, :best_size].tolist())
        else:
            for order in orders.tolist():
                cur = _greedy_mask(order, tables, usable)
                if cur.bit_count() > best_size:
                    best_size, best_mask = cur.bit_count(), cur
    return ExtremalResult(q, best_size, _witness(hg.field, best_mask),
                          False, iters * len(vertices),
                          time.perf_counter() - t0, "random_greedy", seed)


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
    s2 = float((resid ** 2).sum()) / (n - 2)
    return GammaFit(1.0 - slope, (s2 / sxx) ** 0.5, n,
                    tuple(float(r) for r in resid))
