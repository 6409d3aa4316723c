"""Extremal progression-free sets: hypergraphs, exact search, fits.

build_hypergraph gathers every translate in one pass and deduplicates rows
by integer keys; the per-y loop it replaced is its oracle here, edge for
edge, and so is element arithmetic on FieldElements.  r_exact is validated
against an in-file 2^q exhaustive sweep over every subset (pure integers,
no shared code), and every witness is replayed through count_progressions
to confirm it really avoids the system.  The translation-symmetry break
(vertex 0 forced into the search) is checked against the full search on
relabelled copies that the break cannot apply to, and against the sweep on
random translation-invariant hypergraphs.  The dilation gate behind the
second break is checked against every a in F_q^* by FieldElement products,
and the search with it against the search without it.  The search reads
closing tables; an in-file edge-scan branch and bound over incidence lists
built here from hg.edges is its oracle, node for node.  The greedy pass is
checked against its definition (an edge scan per vertex) on shuffled
orders.  The closing tables, packed as uint64 words, are checked against
that definition at the 64-bit word seams and for their peak memory
(tracemalloc), and pinned searches must reproduce their recorded results.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffprog import extremal
from ffprog.counting import count_progressions, poly_index_table
from ffprog.errors import InsufficientData, InvalidRange, TwistedSystem
from ffprog.extremal import (ExtremalResult, ProgressionHypergraph,
                             _closing_tables, _dilation_invariant,
                             _distinct_rows, _fixed_at_root, _greedy_mask,
                             _invariant, _row_keys, _translation_invariant,
                             build_hypergraph, gamma_fit, r_exact,
                             r_lower_random)
from ffprog.field import _translates, make_field
from ffprog.polys import progression_system, reduce_and_eval


# -- oracle ------------------------------------------------------------------

def oracle_r(p, coeff_lists, y_rule="nonzero"):
    """Largest subset of F_p containing no full progression, by 2^p sweep."""
    shifts_per_y = []
    ys = range(1 if y_rule == "nonzero" else 0, p)
    for y in ys:
        shifts_per_y.append([sum(c * y ** i for i, c in enumerate(cs)) % p
                             for cs in coeff_lists])
    best = 0
    for mask in range(1 << p):
        members = [x for x in range(p) if mask >> x & 1]
        ok = True
        for x in members:
            for shifts in shifts_per_y:
                if all(mask >> ((x + s) % p) & 1 for s in shifts):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = max(best, len(members))
    return best


def incidence(hg):
    """Per-vertex lists of edge bitmasks, and the usable mask.

    An edge with one distinct vertex makes that vertex unusable; every
    other edge is listed at each of its vertices, even one through an
    unusable vertex, which the scan then finds dead.
    """
    masks = [sum(1 << v for v in set(e)) for e in hg.edges]
    singles = 0
    for m in masks:
        if m.bit_count() == 1:
            singles |= m
    edges_of = [[] for _ in range(hg.q)]
    for m in masks:
        if m.bit_count() > 1:
            for v in range(hg.q):
                if m >> v & 1:
                    edges_of[v].append(m)
    return edges_of, ((1 << hg.q) - 1) & ~singles


def incidence_tables(hg):
    """The closing tables by their definition, read off incidence(hg).

    (static, pair, wide, usable) as table_contents gives them: for each
    distinct edge through v that misses every unusable vertex, and each
    other w in it, w goes to the tier of rest = edge - {v, w}.
    """
    edges_of, usable = incidence(hg)
    q = hg.q
    static = [0] * q
    pair = [[0] * q for _ in range(q)]
    wide = [[[] for _ in range(q)] for _ in range(q)]
    for v in range(q):
        for e in set(edges_of[v]):
            if e & ~usable:
                continue
            for w in range(q):
                if w == v or not e >> w & 1:
                    continue
                rest = e & ~(1 << v) & ~(1 << w)
                low = (rest & -rest).bit_length() - 1
                if rest == 0:
                    static[v] |= 1 << w
                elif rest == 1 << low:
                    pair[v][low] |= 1 << w
                else:
                    wide[v][low].append((rest, 1 << w))
    if not any(any(row) for row in wide):
        wide = None
    else:
        wide = [[sorted(entries) for entries in row] for row in wide]
    return static, pair, wide, usable


def table_contents(hg):
    """_closing_tables(hg) with each wide entry list sorted (its order is
    not part of the tables' meaning)."""
    (static, pair, wide), usable = _closing_tables(hg)
    if wide is not None:
        wide = [[sorted(entries) for entries in row] for row in wide]
    return static, pair, wide, usable


def scan_greedy(order, edges_of, usable):
    """Greedy by the definition: skip v if some edge of v lacks only v."""
    cur = 0
    for v in order:
        vbit = 1 << v
        if usable & vbit and not any((e & ~cur) == vbit for e in edges_of[v]):
            cur |= vbit
    return cur


def scan_r_exact(hg, node_budget=10_000_000):
    """Branch and bound that scans every edge through v at each include.

    (r, witness indices, nodes, exact), in the frame order r_exact uses;
    the symmetry breaks are read from r_exact's own gate.
    """
    edges_of, usable = incidence(hg)
    best_mask = scan_greedy(range(hg.q), edges_of, usable)
    best_size = best_mask.bit_count()
    nodes = 0
    truncated = False
    stack = [(0, usable, 0, _fixed_at_root(hg, usable))]
    while stack:
        cur, cand, size, forced = stack.pop()
        nodes += 1
        if nodes > node_budget:
            truncated = True
            break
        if size + cand.bit_count() <= best_size:
            continue
        if cand == 0:
            best_size, best_mask = size, cur
            continue
        vbit = cand & -cand
        v = vbit.bit_length() - 1
        if forced:
            forced -= 1
        else:
            stack.append((cur, cand & ~vbit, size, 0))
        blocked = False
        newcand = cand & ~vbit
        for e in edges_of[v]:
            rem = e & ~cur
            if rem & ~cand:
                continue  # some vertex already excluded: edge is dead
            rem &= ~vbit
            if rem == 0:
                blocked = True  # v alone completes this edge
                break
            if rem & (rem - 1) == 0:
                newcand &= ~rem  # unit propagation
        if not blocked:
            stack.append((cur | vbit, newcand, size + 1, forced))
    witness = tuple(v for v in range(hg.q) if best_mask >> v & 1)
    return best_size, witness, nodes, not truncated


def search_outcome(res):
    return res.r, res.witness_indices, res.nodes_explored, res.exact


BUDGETS = (1, 50, 10_000_000)


SYSTEMS = {
    "single": ["y"],
    "ap3": ["y", "2y"],
    "quadratic": ["y", "y^2"],
}


def loop_hypergraph(system, field, y_rule="nonzero",
                    degeneracy="paper_literal"):
    """Edges built one y at a time: each configuration row sorted, its
    repeats dropped, and the rows deduplicated in a set of tuples."""
    q = field.q
    coords = [field._coeff_matrix()[poly_index_table(p, field)].tolist()
              for p in system.P]
    seen = set()
    start = 1 if y_rule == "nonzero" else 0
    index = np.arange(q, dtype=np.int64)
    to = _translates(field, index)   # to[c_e]: x -> index of x + e
    for yi in range(start, q):
        points = [index] + [to[tuple(e[yi])].reshape(q) for e in coords]
        for row in np.sort(np.stack(points, axis=1), axis=1).tolist():
            seen.add(tuple(dict.fromkeys(row)))   # sorted, duplicates dropped
    if degeneracy == "distinct_points":
        seen = {e for e in seen if len(e) == system.m1 + 1}
    return tuple(sorted(seen, key=lambda e: (len(e), e)))


# -- hypergraph construction ---------------------------------------------------

def test_hypergraph_shape_and_dedup():
    field = make_field(7)
    sys = progression_system(["y", "2y"])
    hg = build_hypergraph(sys, field)
    assert hg.q == 7
    assert hg.y_rule == "nonzero" and hg.degeneracy == "paper_literal"
    for edge in hg.edges:
        assert edge == tuple(sorted(set(edge)))  # canonical form
        assert 1 <= len(edge) <= 3
    assert len(set(hg.edges)) == len(hg.edges)
    # every (x, y != 0) pair's configuration appears
    for y in range(1, 7):
        for x in range(7):
            cfg = tuple(sorted({x, (x + y) % 7, (x + 2 * y) % 7}))
            assert cfg in hg.edges


def test_hypergraph_distinct_points_drops_degenerate_edges():
    field = make_field(7)
    sys = progression_system(["y", "y^2"])
    literal = build_hypergraph(sys, field, degeneracy="paper_literal")
    distinct = build_hypergraph(sys, field, degeneracy="distinct_points")
    assert set(distinct.edges) <= set(literal.edges)
    assert all(len(e) == 3 for e in distinct.edges)
    assert any(len(e) < 3 for e in literal.edges)  # collisions exist


def test_hypergraph_y_rule_all_includes_singletons():
    # y = 0 makes every P_i(0) = 0, so each {x} becomes a singleton edge
    field = make_field(5)
    hg = build_hypergraph(progression_system(["y"]), field, y_rule="all")
    singles = [e for e in hg.edges if len(e) == 1]
    assert len(singles) == 5


@pytest.mark.parametrize("y_rule", ["nonzero", "all"])
@pytest.mark.parametrize("policy", ["paper_literal", "distinct_points"])
@pytest.mark.parametrize("polys", [("y", "y^2"), ("y", "2y"), ("y^2", "y^3")])
@pytest.mark.parametrize("p,k", [(3, 2), (2, 3), (5, 2), (7, 1), (11, 1),
                                 (13, 1)])
def test_hypergraph_matches_element_arithmetic(p, k, polys, policy, y_rule):
    # the oracle adds FieldElements; build_hypergraph reads translates off
    # the (p,)*k grid.  ("y", "2y") collapses at p = 2, so both policies
    # see degenerate edges there.
    field = make_field(p, k)
    system = progression_system(list(polys))
    els = field.elements()
    want = set()
    for y in els[1 if y_rule == "nonzero" else 0:]:
        shifts = [reduce_and_eval(P, field, y) for P in system.P]
        for x in els:
            edge = tuple(sorted({x.index} | {(x + s).index for s in shifts}))
            if policy == "paper_literal" or len(edge) == system.m1 + 1:
                want.add(edge)
    hg = build_hypergraph(system, field, y_rule=y_rule, degeneracy=policy)
    assert hg.edges == tuple(sorted(want, key=lambda e: (len(e), e)))


def test_hypergraph_validation():
    field = make_field(7)
    with pytest.raises(TwistedSystem):
        build_hypergraph(progression_system(["y"], ["y^2"]), field)
    sys = progression_system(["y"])
    with pytest.raises(InvalidRange,
                       match="^y_rule must be 'all' or 'nonzero', got 'some'$"):
        build_hypergraph(sys, field, y_rule="some")
    with pytest.raises(InvalidRange):
        build_hypergraph(sys, field, degeneracy="lenient")


# -- exact search vs the exhaustive oracle --------------------------------------

@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("p", [5, 7, 11])
def test_r_exact_matches_exhaustive_oracle(name, p):
    field = make_field(p)
    sys = progression_system(SYSTEMS[name])
    hg = build_hypergraph(sys, field)
    res = r_exact(hg)
    assert res.exact
    assert res.r == oracle_r(p, [q.coeffs for q in sys.P])
    # the witness replays cleanly: no progression with y != 0 inside it
    A = list(res.witness)
    assert len(A) == res.r
    if A:
        assert count_progressions(sys, A, "nonzero") == 0


def test_r_exact_y_rule_all_with_zero_shift_kills_everything():
    # under y_rule='all' each vertex forms a singleton edge, so no vertex
    # is usable at all in the paper_literal reading
    field = make_field(7)
    hg = build_hypergraph(progression_system(["y"]), field, y_rule="all")
    res = r_exact(hg)
    assert res.r == 0
    assert res.witness == ()
    # distinct_points discards those degenerate edges instead
    hg2 = build_hypergraph(progression_system(["y"]), field, y_rule="all",
                           degeneracy="distinct_points")
    res2 = r_exact(hg2)
    assert res2.r == oracle_r(7, [(0, 1)], y_rule="nonzero")


def test_r_exact_is_deterministic():
    field = make_field(11)
    hg = build_hypergraph(progression_system(["y", "y^2"]), field)
    a = r_exact(hg)
    b = r_exact(hg)
    assert (a.r, a.witness_indices, a.nodes_explored) == \
        (b.r, b.witness_indices, b.nodes_explored)
    assert a.method == "branch_and_bound"
    assert a.seed is None


def test_r_exact_frozen_values():
    # the quadratic system (y, y^2) at the first few primes
    for p, expect in ((31, 7), (41, 9)):
        field = make_field(p)
        hg = build_hypergraph(progression_system(["y", "y^2"]), field)
        res = r_exact(hg)
        assert res.exact and res.r == expect


def test_r_exact_node_budget_degrades_gracefully():
    field = make_field(13)
    hg = build_hypergraph(progression_system(["y", "2y"]), field)
    full = r_exact(hg)
    tiny = r_exact(hg, node_budget=1)
    assert not tiny.exact
    assert 0 <= tiny.r <= full.r
    assert len(tiny.witness) == tiny.r  # still returns its best attempt
    zero = r_exact(hg, node_budget=0)
    assert (zero.nodes_explored, zero.exact) == (1, False)
    with pytest.raises(InvalidRange, match="node_budget must be >= 0, got -1"):
        r_exact(hg, node_budget=-1)
    if tiny.r:
        assert count_progressions(progression_system(["y", "2y"]),
                                  list(tiny.witness), "nonzero") == 0


def test_r_exact_extension_field():
    F9 = make_field(3, 2)
    sys = progression_system(["y", "2y"])  # 3-APs in F_9
    res = r_exact(build_hypergraph(sys, F9))
    # the known cap-set size in (F_3)^2 is 4
    assert res.exact and res.r == 4
    assert count_progressions(sys, list(res.witness), "nonzero") == 0


def test_r_exact_node_budget_mid_search():
    # the budget runs out inside the subtree under the forced vertex 0
    sys = progression_system(["y", "y^2"])
    field = make_field(31)
    hg = build_hypergraph(sys, field)
    full = r_exact(hg)
    cut = r_exact(hg, node_budget=50)
    assert full.exact and full.nodes_explored > 50
    assert not cut.exact
    assert cut.nodes_explored == 51  # stops at the first node over budget
    assert 1 <= cut.r <= full.r
    assert len(cut.witness) == cut.r
    assert count_progressions(sys, list(cut.witness), "nonzero") == 0


# (y, 2y) at p = 13 passes the dilation gate and finishes in 27 nodes, so
# its mid-search cut is at 10 nodes
@pytest.mark.parametrize("p,polys,budget", [
    (13, ("y", "2y"), 1), (13, ("y", "2y"), 10),
    (31, ("y", "y^2"), 1), (31, ("y", "y^2"), 50)])
def test_truncated_search_brackets_r(p, polys, budget):
    hg = build_hypergraph(progression_system(list(polys)), make_field(p))
    full = r_exact(hg)
    cut = r_exact(hg, node_budget=budget)
    assert full.exact and full.r_upper == full.r
    assert not cut.exact
    assert cut.r <= full.r <= cut.r_upper
    assert r_lower_random(hg, 3, seed=1).r_upper is None


# -- translation-symmetry break -----------------------------------------------

def is_independent(indices, edges):
    s = set(indices)
    return all(not set(e) <= s for e in edges)


def test_r_exact_star_is_not_translation_invariant():
    # every edge holds 0, so the best set is everything else; forcing 0
    # into the set without checking invariance would give r = 1
    field = make_field(5)
    hg = ProgressionHypergraph(field, ((0, 1), (0, 2), (0, 3), (0, 4)),
                               "nonzero", "paper_literal")
    assert not _translation_invariant(hg)
    res = r_exact(hg)
    assert res.exact and res.fixed == 0
    assert res.r == 4
    assert res.witness_indices == (1, 2, 3, 4)
    # stopped after the root: the greedy seed {0} is the best found, and
    # the still-stacked branch without 0 keeps all of 1..4 open
    cut = r_exact(hg, node_budget=1)
    assert (cut.r, cut.r_upper, cut.exact) == (1, 4, False)


def relabelled(hg):
    """The same hypergraph with vertices 0 and 1 swapped (not affine)."""
    perm = list(range(hg.q))
    perm[0], perm[1] = 1, 0
    edges = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in hg.edges))
    return ProgressionHypergraph(hg.field, edges, hg.y_rule, hg.degeneracy)


BREAK_CASES = (
    [(p, 1, ("y", "y^2"), policy) for p in (11, 13, 17, 19, 23, 29, 31, 37)
     for policy in ("paper_literal", "distinct_points")]
    + [(p, 1, ("y", "2y"), "paper_literal")
       for p in (11, 13, 17, 19, 23, 29, 31, 37)]
    + [(p, k, polys, "paper_literal") for p, k in ((5, 2), (3, 3))
       for polys in (("y", "y^2"), ("y", "2y"))])


@pytest.mark.parametrize("p,k,polys,policy", BREAK_CASES)
def test_r_exact_break_matches_full_search(p, k, polys, policy):
    hg = build_hypergraph(progression_system(list(polys)), make_field(p, k),
                          degeneracy=policy)
    other = relabelled(hg)
    assert _translation_invariant(hg)
    assert not _translation_invariant(other)  # so the full search runs
    forced, full = r_exact(hg), r_exact(other)
    assert forced.exact and full.exact
    assert forced.r == full.r
    assert 0 in forced.witness_indices
    assert forced.nodes_explored < full.nodes_explored
    assert is_independent(forced.witness_indices, hg.edges)
    assert is_independent(full.witness_indices, other.edges)


def sweep_r(q, edges):
    """Independence number by a sweep over all 2^q vertex subsets."""
    masks = [sum(1 << v for v in set(e)) for e in edges]
    return max(bin(s).count("1") for s in range(1 << q)
               if all(m & s != m for m in masks))


SMALL_FIELDS = {(p, k): make_field(p, k)
                for p, k in ((5, 1), (7, 1), (11, 1), (2, 3), (3, 2))}


@st.composite
def orbit_hypergraphs(draw):
    """Orbits of 1-3 base sets under x -> x + c, maybe plus the edge {0}."""
    field = SMALL_FIELDS[draw(st.sampled_from(sorted(SMALL_FIELDS)))]
    els = field.elements()
    bases = draw(st.lists(st.sets(st.integers(0, field.q - 1), min_size=1,
                                  max_size=4), min_size=1, max_size=3))
    edges = {tuple(sorted({(els[b] + c).index for b in base}))
             for base in bases for c in els}
    invariant = True
    if draw(st.booleans()) and (0,) not in edges:
        edges.add((0,))  # vertex 0 unusable: the break must stay off
        invariant = False
    hg = ProgressionHypergraph(field, tuple(sorted(edges)), "nonzero",
                               "paper_literal")
    return hg, invariant


@settings(max_examples=300, deadline=None)
@given(orbit_hypergraphs())
def test_r_exact_matches_sweep_on_invariant_hypergraphs(case):
    hg, invariant = case
    assert _translation_invariant(hg) is invariant
    assert _dilation_invariant(hg) is dilation_brute(hg)
    res = r_exact(hg)
    assert res.exact
    # r <= 1 leaves no vertex beside 0 for the dilation break to fix
    assert res.fixed == (min(1 + _dilation_invariant(hg), res.r)
                         if invariant else 0)
    assert res.r == sweep_r(hg.q, hg.edges)
    assert len(res.witness_indices) == res.r
    assert 0 in res.witness_indices or not (invariant and res.r)
    assert is_independent(res.witness_indices, hg.edges)


@settings(max_examples=150, deadline=None)
@given(orbit_hypergraphs())
def test_closing_tables_match_edge_scan_on_orbit_hypergraphs(case):
    # the orbits hold up to 4-point edges, so every tier of the tables runs;
    # a stopped search brackets the sweep's answer
    hg, _ = case
    r = sweep_r(hg.q, hg.edges)
    for budget in BUDGETS:
        res = r_exact(hg, node_budget=budget)
        assert search_outcome(res) == scan_r_exact(hg, budget)
        assert res.r <= r <= res.r_upper


IDENTITY_CASES = (
    [(p, k, polys, policy, relabel) for p, k, polys, policy in BREAK_CASES
     for relabel in (False, True)]
    + [(p, 1, ("y", "y^2", "y^3"), "paper_literal", False) for p in (13, 17)])


@pytest.mark.parametrize("y_rule", ["nonzero", "all"])
@pytest.mark.parametrize("p,k,polys,policy",
                         sorted({case[:4] for case in IDENTITY_CASES}))
def test_build_matches_the_per_y_loop(p, k, polys, policy, y_rule):
    system, field = progression_system(list(polys)), make_field(p, k)
    hg = build_hypergraph(system, field, y_rule=y_rule, degeneracy=policy)
    assert hg.edges == loop_hypergraph(system, field, y_rule, policy)
    # the vertex sets the build keeps equal those read back from its edges
    fresh = ProgressionHypergraph(field, hg.edges, y_rule, policy)
    kept, read = hg._vertex_sets(), fresh._vertex_sets()
    assert kept.keys() == read.keys()
    assert all(np.array_equal(kept[d], read[d]) for d in kept)
    # the search's tables, from the kept sets and from the edges alone
    assert table_contents(hg) == table_contents(fresh) == incidence_tables(hg)


@pytest.mark.parametrize("policy", ["paper_literal", "distinct_points"])
def test_build_past_int64_keys_matches_the_per_y_loop(policy):
    # ten-point rows over GF(127) have no int64 key (127^10 > 2^63), so
    # they are deduplicated by lexsort; the narrower ones by keys
    system = progression_system(["y"] + [f"y^{i}" for i in range(2, 10)])
    field = make_field(127)
    assert 127 ** 10 > 2 ** 63 > 127 ** 9
    hg = build_hypergraph(system, field, degeneracy=policy)
    assert hg.edges == loop_hypergraph(system, field, "nonzero", policy)
    assert max(map(len, hg.edges)) == 10


@pytest.mark.parametrize("p,k,polys,policy,relabel", IDENTITY_CASES)
def test_closing_tables_match_edge_scan(p, k, polys, policy, relabel):
    hg = build_hypergraph(progression_system(list(polys)), make_field(p, k),
                          degeneracy=policy)
    if relabel:
        hg = relabelled(hg)
    for budget in BUDGETS:
        assert search_outcome(r_exact(hg, node_budget=budget)) == \
            scan_r_exact(hg, budget)


@pytest.mark.parametrize("edges,r", [
    (((3, 3),), 4),                 # one distinct vertex: 3 is unusable
    (((3, 3), (0, 1, 2)), 3),
    (((1, 3, 3), (0, 2)), 3),       # two 2-point edges
    (((0, 1, 1, 2), (2, 3, 4, 4)), 4),
    # unusable 2 also inside 2-, 3- and 4-point edges, which drop out
    (((2,), (0, 2), (1, 2, 3), (0, 2, 3, 4), (0, 1, 3)), 3),
    (((2, 2, 2), (4, 0, 2), (1, 2, 2), (0, 1, 2, 3), (0, 1, 3, 4),
      (1, 3, 4, 4), (0, 1, 3, 4)), 3),
])
def test_repeated_vertex_edges_are_sized_by_distinct_vertices(edges, r):
    hg = ProgressionHypergraph(make_field(5), edges, "nonzero",
                               "paper_literal")
    assert sweep_r(5, edges) == r
    assert table_contents(hg) == incidence_tables(hg)
    for budget in BUDGETS:
        assert search_outcome(r_exact(hg, node_budget=budget)) == \
            scan_r_exact(hg, budget)
    res = r_exact(hg)
    assert res.exact and res.r == r
    assert is_independent(res.witness_indices, edges)
    greedy = r_lower_random(hg, 20, seed=4)
    assert is_independent(greedy.witness_indices, edges)


# -- packed closing tables, edge tuples and invariance keys ---------------------

# q = 61 and 64 = 2^6 fit one word per mask, 67 and 128 = 2^7 two, 131
# three; the 3-point edges of the last two span several scatter blocks.
# (y, y^2, y^3) at p = 13 has 4-point edges, so the wide tier runs.
SEAM_CASES = [(61, 1, ("y", "y^2")), (2, 6, ("y", "y^2")),
              (67, 1, ("y", "y^2")), (2, 7, ("y", "y^2")),
              (131, 1, ("y", "y^2")), (13, 1, ("y", "y^2", "y^3"))]


@pytest.mark.parametrize("policy", ["paper_literal", "distinct_points"])
@pytest.mark.parametrize("p,k,polys", SEAM_CASES)
def test_packed_tables_match_the_definition_at_word_seams(p, k, polys,
                                                          policy):
    hg = build_hypergraph(progression_system(list(polys)), make_field(p, k),
                          degeneracy=policy)
    assert table_contents(hg) == incidence_tables(hg)
    # the edge tuples are the vertex-set rows, listed row by row
    sets = hg._vertex_sets()
    assert hg.edges == tuple(e for d in sorted(sets)
                             for e in map(tuple, sets[d].tolist()))
    assert all(type(v) is int for e in hg.edges[:50] for v in e)


def test_closing_tables_peak_is_their_output_and_one_block():
    # beside its output the build holds the (q, q, W) pair words and one
    # scatter block's index arrays; a scatter of every 3-point edge at
    # once would hold about 18 MiB of indices at q = 251
    q = 251
    hg = build_hypergraph(progression_system(["y", "y^2"]), make_field(q))
    hg._vertex_sets()
    words = q * q * -(-q // 64) * 8
    tracemalloc.start()
    try:
        tables = _closing_tables(hg)
        output, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables[0][1][0][1]   # {0, 1, 2} is an edge
    assert peak - output <= words + (1 << 20)


def invariant_by_rows(hg, perm):
    """The invariance gate by deduplicated rows, compared as arrays."""
    return all(np.array_equal(
        _distinct_rows(np.sort(perm[rows], axis=1), hg.q), rows)
        for rows in hg._vertex_sets().values())


def test_invariance_keys_match_the_row_route():
    # a translation orbit with one edge moved is invariant under no
    # translation, while the orbit itself is
    field = make_field(7)
    orbit = {tuple(sorted({c, (c + 1) % 7, (c + 3) % 7})) for c in range(7)}
    broken = (orbit - {(0, 1, 3)}) | {(0, 1, 4)}
    shift = (np.arange(7) + 1) % 7
    for edges, want in ((orbit, True), (broken, False)):
        hg = ProgressionHypergraph(field, tuple(sorted(edges)), "nonzero",
                                   "paper_literal")
        for perm in (shift, (np.arange(7) * 3) % 7, np.arange(7)[::-1]):
            assert _invariant(hg, perm) is invariant_by_rows(hg, perm)
        assert _invariant(hg, shift) is want
        assert _translation_invariant(hg) is want


def test_invariance_past_int64_keys_takes_the_row_route():
    # 7-point sets over GF(2^9) have no int64 key: 512^7 = 2^63
    field = make_field(2, 9)
    rows = np.zeros((1, 7), dtype=np.int64)
    assert _row_keys(rows, 512) is None and _row_keys(rows[:, 1:], 512) == 0
    els = field.elements()
    base = [els[i] for i in (0, 1, 2, 5, 9, 77, 300)]
    orbit = {tuple(sorted((b + c).index for b in base)) for c in els}
    broken = (orbit - {min(orbit)}) | {(0, 1, 2, 3, 4, 5, 6)}
    assert (0, 1, 2, 3, 4, 5, 6) not in orbit
    for edges, want in ((orbit, True), (broken, False)):
        hg = ProgressionHypergraph(field, tuple(sorted(edges)), "nonzero",
                                   "paper_literal")
        assert _translation_invariant(hg) is want
        perm = np.array([(x + els[3]).index for x in els])
        assert _invariant(hg, perm) is invariant_by_rows(hg, perm) is want


# -- pinned searches -------------------------------------------------------------

# r_exact as (r, witness, nodes, exact, r_upper, fixed) by node budget
# (None: run to completion), and r_lower_random(hg, 200, seed=3) as (r,
# witness, attempts); every table, tuple and gate the search reads must
# reproduce them exactly
GOLDEN = {
    (43, 1, ("y", "y^2"), "paper_literal"): (
        {
            0: (6, (0, 2, 5, 7, 10, 12), 1, False, 43, 1),
            1: (6, (0, 2, 5, 7, 10, 12), 2, False, 41, 1),
            50: (7, (0, 2, 5, 7, 12, 22, 28), 51, False, 40, 1),
            500: (8, (0, 2, 5, 12, 21, 24, 28, 36), 501, False, 40, 1),
            None: (8, (0, 2, 5, 12, 21, 24, 28, 36), 14392, True, 8, 1),
        },
        (8, (5, 7, 18, 22, 26, 33, 35, 41), 8600)),
    (43, 1, ("y", "y^2"), "distinct_points"): (
        {
            0: (8, (0, 1, 3, 4, 6, 23, 28, 29), 1, False, 43, 1),
            1: (8, (0, 1, 3, 4, 6, 23, 28, 29), 2, False, 43, 1),
            50: (8, (0, 1, 3, 4, 6, 23, 28, 29), 51, False, 42, 1),
            500: (9, (0, 1, 3, 10, 17, 18, 22, 26, 35), 501, False, 42, 1),
            None: (9, (0, 1, 3, 10, 17, 18, 22, 26, 35), 24114, True, 9, 1),
        },
        (9, (1, 2, 9, 10, 18, 26, 27, 35, 36), 8600)),
    (67, 1, ("y", "y^2"), "paper_literal"): (
        {
            0: (10, (0, 2, 5, 7, 12, 16, 20, 24, 38, 46), 1, False, 67, 1),
            1: (10, (0, 2, 5, 7, 12, 16, 20, 24, 38, 46), 2, False, 65, 1),
            50: (10, (0, 2, 5, 7, 12, 16, 20, 24, 38, 46), 51, False, 64, 1),
            500: (11, (0, 2, 5, 7, 12, 34, 41, 43, 46, 50, 59), 501, False, 64,
                1),
            None: (11, (0, 2, 5, 7, 12, 34, 41, 43, 46, 50, 59), 808750, True,
                11, 1),
        },
        (11, (0, 6, 11, 15, 19, 21, 34, 38, 40, 52, 63), 13400)),
    (67, 1, ("y", "y^2"), "distinct_points"): (
        {
            0: (10, (0, 1, 3, 4, 6, 18, 19, 24, 29, 55), 1, False, 67, 1),
            1: (10, (0, 1, 3, 4, 6, 18, 19, 24, 29, 55), 2, False, 67, 1),
            50: (11, (0, 1, 3, 4, 6, 18, 21, 24, 43, 47, 57), 51, False, 66,
                1),
            500: (11, (0, 1, 3, 4, 6, 18, 21, 24, 43, 47, 57), 501, False, 66,
                1),
            None: (12, (0, 1, 3, 4, 15, 17, 18, 29, 43, 53, 54, 57), 1424086,
                True, 12, 1),
        },
        (11, (8, 11, 24, 26, 34, 38, 39, 43, 49, 52, 65), 13400)),
    (127, 1, ("y", "y^2"), "paper_literal"): (
        {
            0: (13, (0, 2, 5, 7, 10, 12, 15, 20, 22, 31, 38, 42, 77), 1, False,
                127, 1),
            1: (13, (0, 2, 5, 7, 10, 12, 15, 20, 22, 31, 38, 42, 77), 2, False,
                125, 1),
            50: (13, (0, 2, 5, 7, 10, 12, 15, 20, 22, 31, 38, 42, 77), 51,
                False, 124, 1),
            500: (15, (0, 2, 5, 7, 10, 12, 15, 20, 22, 38, 43, 77, 91, 96,
                119), 501, False, 124, 1),
        },
        (16, (4, 6, 15, 29, 33, 47, 52, 54, 60, 66, 80, 88, 97, 105, 111, 113),
            25400)),
    (127, 1, ("y", "y^2"), "distinct_points"): (
        {
            0: (15, (0, 1, 3, 4, 6, 11, 14, 18, 19, 22, 27, 32, 50, 85, 90), 1,
                False, 127, 1),
            1: (15, (0, 1, 3, 4, 6, 11, 14, 18, 19, 22, 27, 32, 50, 85, 90), 2,
                False, 127, 1),
            50: (15, (0, 1, 3, 4, 6, 11, 14, 18, 19, 22, 27, 32, 50, 85, 90),
                51, False, 126, 1),
            500: (15, (0, 1, 3, 4, 6, 11, 14, 18, 19, 22, 27, 32, 50, 85, 90),
                501, False, 126, 1),
        },
        (16, (4, 6, 15, 29, 33, 47, 52, 54, 60, 66, 80, 88, 97, 105, 111, 113),
            25400)),
    (37, 1, ("y", "2y"), "paper_literal"): (
        {
            0: (8, (0, 1, 3, 4, 9, 10, 12, 13), 1, False, 37, 2),
            1: (8, (0, 1, 3, 4, 9, 10, 12, 13), 2, False, 37, 2),
            50: (8, (0, 1, 3, 4, 9, 10, 12, 13), 51, False, 33, 2),
            500: (10, (0, 1, 3, 7, 17, 24, 25, 28, 29, 35), 501, False, 33, 2),
            None: (10, (0, 1, 3, 7, 17, 24, 25, 28, 29, 35), 4011, True, 10,
                2),
        },
        (10, (7, 8, 11, 13, 17, 22, 24, 25, 30, 32), 7400)),
    (37, 1, ("y", "2y"), "distinct_points"): (
        {
            0: (8, (0, 1, 3, 4, 9, 10, 12, 13), 1, False, 37, 2),
            1: (8, (0, 1, 3, 4, 9, 10, 12, 13), 2, False, 37, 2),
            50: (8, (0, 1, 3, 4, 9, 10, 12, 13), 51, False, 33, 2),
            500: (10, (0, 1, 3, 7, 17, 24, 25, 28, 29, 35), 501, False, 33, 2),
            None: (10, (0, 1, 3, 7, 17, 24, 25, 28, 29, 35), 4011, True, 10,
                2),
        },
        (10, (7, 8, 11, 13, 17, 22, 24, 25, 30, 32), 7400)),
    (3, 3, ("y", "y^2"), "paper_literal"): (
        {
            0: (5, (0, 1, 2, 12, 15), 1, False, 27, 1),
            1: (5, (0, 1, 2, 12, 15), 2, False, 25, 1),
            50: (9, (0, 1, 2, 15, 16, 17, 21, 22, 23), 51, False, 23, 1),
            500: (9, (0, 1, 2, 15, 16, 17, 21, 22, 23), 158, True, 9, 1),
            None: (9, (0, 1, 2, 15, 16, 17, 21, 22, 23), 158, True, 9, 1),
        },
        (9, (0, 1, 2, 15, 16, 17, 21, 22, 23), 5400)),
    (3, 3, ("y", "y^2"), "distinct_points"): (
        {
            0: (6, (0, 1, 2, 9, 10, 11), 1, False, 27, 1),
            1: (6, (0, 1, 2, 9, 10, 11), 2, False, 27, 1),
            50: (6, (0, 1, 2, 9, 10, 11), 51, False, 26, 1),
            500: (9, (0, 1, 2, 15, 16, 17, 21, 22, 23), 501, False, 19, 1),
            None: (9, (0, 1, 2, 15, 16, 17, 21, 22, 23), 596, True, 9, 1),
        },
        (9, (0, 4, 8, 10, 14, 15, 20, 21, 25), 5400)),
}


@pytest.mark.parametrize("p,k,polys,policy", sorted(GOLDEN))
def test_searches_reproduce_pinned_results(p, k, polys, policy):
    hg = build_hypergraph(progression_system(list(polys)), make_field(p, k),
                          degeneracy=policy)
    exact, greedy = GOLDEN[p, k, polys, policy]
    for budget, want in exact.items():
        res = r_exact(hg) if budget is None else r_exact(hg, budget)
        assert (res.r, res.witness_indices, res.nodes_explored, res.exact,
                res.r_upper, res.fixed) == want
    res = r_lower_random(hg, 200, seed=3)
    assert (res.r, res.witness_indices, res.nodes_explored) == greedy


# -- dilation-symmetry break ---------------------------------------------------

def dilation_brute(hg):
    """Whether every x -> a x, a != 0, maps the edges onto themselves as
    sets, by FieldElement products."""
    els = hg.field.elements()
    edges = {frozenset(e) for e in hg.edges}
    return all({frozenset((a * els[v]).index for v in e) for e in edges}
               == edges for a in els[1:])


@pytest.mark.parametrize("policy", ["paper_literal", "distinct_points"])
@pytest.mark.parametrize("polys", [("y", "2y"), ("y", "y^2"), ("y^2",),
                                   ("y^2", "y^3"), ("y", "y^2", "y^3")])
@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (11, 1), (13, 1), (3, 2),
                                 (2, 3), (5, 2)])
def test_dilation_gate_matches_every_multiplier(p, k, polys, policy):
    hg = build_hypergraph(progression_system(list(polys)), make_field(p, k),
                          degeneracy=policy)
    dilation = dilation_brute(hg)
    assert _dilation_invariant(hg) is dilation
    res = r_exact(hg)
    # with r = 1 no vertex can join 0, and the second break fixes none
    assert res.fixed == min(1 + dilation, res.r)
    assert search_outcome(res) == scan_r_exact(hg)


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2)])
def test_translation_without_dilation_fixes_one_vertex(p, k):
    # the orbit of {0, 1} under x -> x + c: a dilation by a moves it to the
    # orbit of {0, a}, a different edge set
    field = make_field(p, k)
    els = field.elements()
    edges = tuple(sorted(tuple(sorted((c.index, (c + field.one).index)))
                         for c in els))
    hg = ProgressionHypergraph(field, edges, "nonzero", "paper_literal")
    assert _translation_invariant(hg)
    assert not _dilation_invariant(hg) and not dilation_brute(hg)
    res = r_exact(hg)
    assert res.exact and res.fixed == 1
    assert res.r == sweep_r(hg.q, edges) and 0 in res.witness_indices
    assert search_outcome(res) == scan_r_exact(hg)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_dilation_break_keeps_r_and_witness(p, monkeypatch):
    hg = build_hypergraph(progression_system(["y", "2y"]), make_field(p))
    on = r_exact(hg)
    monkeypatch.setattr(extremal, "_dilation_invariant", lambda hg: False)
    off = r_exact(hg)
    assert (on.fixed, off.fixed) == (2, 1)
    assert on.exact and off.exact
    assert (on.r, on.witness_indices) == (off.r, off.witness_indices)
    assert on.nodes_explored < off.nodes_explored


def test_fixed_counts_the_vertices_fixed():
    quadratic = build_hypergraph(progression_system(["y", "y^2"]),
                                 make_field(11))
    assert r_exact(quadratic).fixed == 1
    assert r_lower_random(quadratic, 3, seed=1).fixed is None
    # (y) over F_5: every pair is an edge, so no vertex can join 0 and the
    # dilation break, though its gate passes, has nothing to fix
    pairs = build_hypergraph(progression_system(["y"]), make_field(5))
    assert _fixed_at_root(pairs, 0b11111) == 2
    res = r_exact(pairs)
    assert (res.r, res.fixed, res.witness_indices) == (1, 1, (0,))


def test_bitset_limit():
    field = make_field(521)
    hg = ProgressionHypergraph(field, (), "nonzero", "paper_literal")
    with pytest.raises(InvalidRange, match="q <= 512, got q = 521"):
        r_exact(hg)
    with pytest.raises(InvalidRange, match="q <= 512, got q = 521"):
        r_lower_random(hg, 5, seed=1)


# -- randomized lower bounds ------------------------------------------------------

def test_r_lower_random_bounded_by_exact_and_reproducible():
    field = make_field(31)
    sys = progression_system(["y", "y^2"])
    hg = build_hypergraph(sys, field)
    exact = r_exact(hg)
    lower = r_lower_random(hg, 40, seed=99)
    again = r_lower_random(hg, 40, seed=99)
    other = r_lower_random(hg, 40, seed=100)
    assert 1 <= lower.r <= exact.r
    assert not lower.exact
    assert lower.method == "random_greedy" and lower.seed == 99
    assert lower.witness_indices == again.witness_indices
    assert lower.r == again.r
    assert (other.r, other.witness_indices) != (lower.r, lower.witness_indices) \
        or other.r == lower.r  # different seed may still tie on r
    assert count_progressions(sys, list(lower.witness), "nonzero") == 0
    with pytest.raises(InvalidRange):
        r_lower_random(hg, 0, seed=1)


@pytest.mark.parametrize("p,k,polys,policy,y_rule", [
    (31, 1, ("y", "y^2"), "paper_literal", "nonzero"),
    (31, 1, ("y", "y^2"), "distinct_points", "nonzero"),
    (37, 1, ("y", "2y"), "paper_literal", "nonzero"),
    (13, 1, ("y", "y^2", "y^3"), "paper_literal", "nonzero"),
    (7, 1, ("y", "2y"), "paper_literal", "all"),  # every vertex unusable
    (5, 2, ("y", "y^2"), "paper_literal", "nonzero"),
    (3, 3, ("y", "2y"), "distinct_points", "nonzero"),
    (2, 6, ("y", "y^2"), "paper_literal", "nonzero"),
])
def test_greedy_mask_matches_edge_scan(p, k, polys, policy, y_rule):
    hg = build_hypergraph(progression_system(list(polys)), make_field(p, k),
                          y_rule=y_rule, degeneracy=policy)
    tables, usable = _closing_tables(hg)
    edges_of, scan_usable = incidence(hg)
    assert usable == scan_usable
    rng = random.Random(p ** k)
    orders = [list(range(hg.q))]
    for _ in range(30):
        orders.append(orders[0][:])
        rng.shuffle(orders[-1])
    for order in orders:
        got = _greedy_mask(order, tables, usable)
        assert got == scan_greedy(order, edges_of, usable)
        assert is_independent([v for v in order if got >> v & 1], hg.edges)


# -- exponent fits -----------------------------------------------------------------

def synthetic_result(q, r, exact=True):
    return ExtremalResult(q, r, (), exact, 0, 0.0, "synthetic")


def test_gamma_fit_recovers_power_law():
    # r = q^(0.6) exactly => gamma_hat = 0.4 with zero residuals
    qs = [11, 31, 101, 301, 1009]
    results = [synthetic_result(q, round(q ** 0.6)) for q in qs]
    fit = gamma_fit(results)
    assert fit.points_used == 5
    assert fit.gamma_hat == pytest.approx(0.4, abs=0.02)
    assert all(abs(r) < 0.05 for r in fit.residuals)
    assert fit.stderr < 0.02


def test_gamma_fit_ignores_inexact_and_zero_r():
    results = [synthetic_result(11, 3), synthetic_result(31, 6),
               synthetic_result(101, 12),
               synthetic_result(301, 99, exact=False),  # skipped
               synthetic_result(41, 0)]                 # skipped
    fit = gamma_fit(results)
    assert fit.points_used == 3


def test_gamma_fit_insufficient_data():
    with pytest.raises(InsufficientData):
        gamma_fit([synthetic_result(11, 3), synthetic_result(31, 5)])
    with pytest.raises(InsufficientData):
        gamma_fit([synthetic_result(11, 3, exact=False)] * 5)
    with pytest.raises(InsufficientData):
        gamma_fit([synthetic_result(11, 3), synthetic_result(11, 4),
                   synthetic_result(11, 5)])  # one q: no slope
