"""Extremal progression-free sets: hypergraphs, exact search, fits.

r_exact is validated against an in-file 2^q exhaustive sweep over every
subset (pure integers, no shared code), and every witness is replayed
through count_progressions to confirm it really avoids the system.  The
translation-symmetry break (vertex 0 forced into the search) is checked
against the full search on relabelled copies that the break cannot apply to,
and against the sweep on random translation-invariant hypergraphs.  The
greedy pass is checked against its definition (an edge scan per vertex) on
shuffled orders.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ffprog.counting import count_progressions
from ffprog.errors import InsufficientData, InvalidRange, TwistedSystem
from ffprog.extremal import (ExtremalResult, ProgressionHypergraph,
                             _edge_masks, _greedy_mask,
                             _translation_invariant, build_hypergraph,
                             gamma_fit, r_exact, r_lower_random)
from ffprog.field import make_field
from ffprog.polys import progression_system


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


SYSTEMS = {
    "single": ["y"],
    "ap3": ["y", "2y"],
    "quadratic": ["y", "y^2"],
}


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


def test_hypergraph_validation():
    field = make_field(7)
    with pytest.raises(TwistedSystem):
        build_hypergraph(progression_system(["y"], ["y^2"]), field)
    sys = progression_system(["y"])
    with pytest.raises(InvalidRange):
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
    assert res.exact
    assert res.r == 4
    assert res.witness_indices == (1, 2, 3, 4)


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
    res = r_exact(hg)
    assert res.exact
    assert res.r == sweep_r(hg.q, hg.edges)
    assert len(res.witness_indices) == res.r
    assert 0 in res.witness_indices or not (invariant and res.r)
    assert is_independent(res.witness_indices, hg.edges)


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


def scan_greedy(order, edges_of, usable):
    """Greedy by the definition: skip v if some edge of v lacks only v."""
    cur = 0
    for v in order:
        vbit = 1 << v
        if usable & vbit and not any((e & ~cur) == vbit for e in edges_of[v]):
            cur |= vbit
    return cur


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
    edges_of, usable = _edge_masks(hg)
    rng = random.Random(p ** k)
    orders = [list(range(hg.q))]
    for _ in range(30):
        orders.append(orders[0][:])
        rng.shuffle(orders[-1])
    for order in orders:
        got = _greedy_mask(order, edges_of, usable)
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
