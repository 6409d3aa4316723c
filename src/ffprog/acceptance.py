"""Acceptance suite: ten numbered end-to-end checks with fixed seeds.

Each criterion is a self-contained function returning a
:class:`CriterionResult`: its check returns (passed, detail) and the
`_criterion` wrapper times it, applies its runtime limit and builds the
result.  `run_all` executes them in order and prints one PASS/FAIL line
per criterion.  The suite is what `ffprog acceptance` runs and what
tests/test_acceptance.py asserts on, so the two entry points can never
drift apart.

Every criterion that needs randomness derives its seeds from the fixed
master seed below through `derive_seed`, making the whole suite
reproducible bit for bit.  Runtime limits are part of each criterion's
pass condition.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import wraps
from fractions import Fraction

import numpy as np

from .counting import (_main_term, _weil_sweep, _weil_verdict,
                       count_progressions, lambda_average,
                       twist_rewrite_check, weil_sum)
from .decomposition import (budget_from_schedule, u2_threshold_decompose,
                            verify_decomposition)
from .extremal import build_hypergraph, r_exact
from .field import _primes, make_field
from .functions import (_forward_rows, _random_phase, _random_spike,
                        _random_two_var, character_function, dense_function,
                        fourier_transform, random_one_bounded)
from .gowers import check_cs_inequality, gowers_norm, gowers_u2_via_fourier
from .polys import int_poly, progression_system, reduce_and_eval
from .rng import SplitMix64, derive_seed
from .schedule import (ScheduleParams, delta_schedule, u2_step_constraints,
                       exponent_negativity)

MASTER_SEED = 0x5EED_2026


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} criterion {self.index}: {self.name} "
                f"({self.detail}) [{self.seconds:.1f}s]")


def _criterion(index: int, name: str, limit: float | None = None):
    """Criterion `index` from a check returning (passed, detail): timed, and
    failed past `limit` seconds when a limit is given."""
    def wrap(check):
        @wraps(check)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check()
            dt = time.perf_counter() - t0
            ok = passed and (limit is None or dt < limit)
            return CriterionResult(index, name, ok, detail, dt)
        return run
    return wrap


# --------------------------------------------------------------------------
# criterion 1: U^2 computed naively equals the l^4 norm of the spectrum
# --------------------------------------------------------------------------

@_criterion(1, "naive U^2 equals Fourier U^2 (100 f x 7 fields)", 10)
def criterion_1():
    fields = [(7, 1), (11, 1), (13, 1), (5, 2), (3, 3), (7, 2), (101, 1)]
    worst = 0.0
    for p, k in fields:
        F = make_field(p, k)
        for i in range(100):
            f = random_one_bounded(F, derive_seed(MASTER_SEED, 1, p, k, i))
            a = gowers_norm(f, 2).value
            b = gowers_u2_via_fourier(f).value
            rel = abs(a - b) / max(a, b, 1e-12)
            worst = max(worst, rel)
    return worst <= 1e-8, f"max rel diff {worst:.2e}"


# --------------------------------------------------------------------------
# criterion 2: Gowers norm monotonicity U^s <= U^(s+1)
# --------------------------------------------------------------------------

@_criterion(2, "U^s <= U^(s+1) for s in {1,2,3} (100 f x q in {7,11,13})", 60)
def criterion_2():
    violations = 0
    worst = 0.0
    for q in (7, 11, 13):
        F = make_field(q)
        for i in range(100):
            f = random_one_bounded(F, derive_seed(MASTER_SEED, 2, q, i))
            vals = [gowers_norm(f, s).value for s in (1, 2, 3, 4)]
            for s in (0, 1, 2):
                gap = vals[s] - vals[s + 1]
                worst = max(worst, gap)
                if gap > 1e-9:
                    violations += 1
    return violations == 0, f"violations {violations}, worst gap {worst:.2e}"


# --------------------------------------------------------------------------
# criterion 3: square-root cancellation bound for monomial character sums
# --------------------------------------------------------------------------

@_criterion(3, "Weil sweep |E e_p(a y^d)| <= (d-1)/sqrt(p), p in [5,199]", 30)
def criterion_3():
    primes = _primes(5, 199)
    checked = 0
    violations = 0
    worst_margin = -1.0
    for p in primes:
        field = make_field(p)
        for d in (2, 3, 4):  # d < p, as p >= 5
            monomial = int_poly([0] * d + [1])
            sums = _weil_sweep(field, monomial)[1:]
            _, bound, ok = _weil_verdict(field, monomial.coeffs, sums)
            checked += ok.size
            violations += int(np.sum(~ok))
            worst_margin = max(worst_margin, np.abs(sums).max() - bound)
    # tie in the single-instance operation on a spot check
    w = weil_sum(make_field(7), [int_poly([0, 0, 1])], [3])
    return (violations == 0 and w.within_bound,
            f"{checked} sums, violations {violations}, "
            f"worst margin {worst_margin:.2e}")


# --------------------------------------------------------------------------
# criterion 4: q^2 Lambda on indicators equals the brute-force count
# --------------------------------------------------------------------------

def _oracle_count(p: int, systems_coeffs, A) -> int:
    """Pure-integer double loop straight from the definition (all y)."""
    Aset = set(A)
    count = 0
    for y in range(p):
        shifts = []
        for coeffs in systems_coeffs:
            v = 0
            for c in reversed(coeffs):
                v = (v * y + c) % p
            shifts.append(v)
        for x in Aset:
            if all((x + s) % p in Aset for s in shifts):
                count += 1
    return count


def _criterion_4_sets():
    """(F, A): every subset of F_5, F_7 and F_11, then 200 random ones of
    F_31 and of F_101."""
    for q in (5, 7, 11):
        F = make_field(q)
        for bits in range(1 << q):
            yield F, [i for i in range(q) if bits >> i & 1]
    for q in (31, 101):
        F, rng = make_field(q), SplitMix64(derive_seed(MASTER_SEED, 4, q))
        for _ in range(200):
            yield F, rng.subset(q, 0.5)


@_criterion(4, "q^2 Lambda(1_A,..) = brute-force count, exhaustive + random A")
def criterion_4():
    system = progression_system(["y", "y^2"])
    coeffs = [[0, 1], [0, 0, 1]]
    mismatches = 0
    cells = 0
    for F, A in _criterion_4_sets():
        got = count_progressions(system, A, y_rule="all", field=F)
        cells += 1
        if got != _oracle_count(F.p, coeffs, A):
            mismatches += 1
    return mismatches == 0, f"{cells} sets, mismatches {mismatches}"


# --------------------------------------------------------------------------
# criterion 5: twist rewrite identities and the U^2-step specialization
# --------------------------------------------------------------------------

def _spec_41_check(q: int) -> float:
    """g(x) = E_y f1(x+P1) f2(x+P2) has ghat(psi) = Lambda^{P1}_{P2-P1}."""
    F = make_field(q)
    rng = SplitMix64(derive_seed(MASTER_SEED, 5, 41, q))
    f1 = random_one_bounded(F, rng.next_u64())
    f2 = random_one_bounded(F, rng.next_u64())
    P1, P2 = int_poly([0, 1]), int_poly([0, 0, 1])
    shifted = progression_system([P2 - P1], Q=[P1])
    # direct construction of g by its definition
    gv = np.zeros(q, dtype=np.complex128)
    for y in F.elements():
        gv += (f1.shift(reduce_and_eval(P1, F, y)).values
               * f2.shift(reduce_and_eval(P2, F, y)).values)
    gv /= q
    g = dense_function(F, gv)
    ghat = fourier_transform(g).coeffs
    worst = 0.0
    for a in range(q):
        psi = character_function(F, a)
        lhs = ghat[a]
        rhs = lambda_average(shifted, [psi.conj() * f1, f2], [psi])
        worst = max(worst, abs(lhs - rhs))
    return worst


@_criterion(5, "rewrite identities, 100 random cases + U^2-step specialization",
            60)
def criterion_5():
    rng = SplitMix64(derive_seed(MASTER_SEED, 5))
    p_pool = [["y", "2y"], ["y", "y^2"], ["y", "y^2", "y^3"], ["y^2"],
              ["2y", "y^2+y"]]
    q_pool = [[], ["y"], ["y^2"], ["y", "y^2"]]
    fields = [5, 7, 11, 13]
    worst = 0.0
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while cases < 100:
            q = fields[rng.randrange(len(fields))]
            F = make_field(q)
            P = p_pool[rng.randrange(len(p_pool))]
            Q = q_pool[rng.randrange(len(q_pool))]
            if set(P) & set(Q):  # systems must be pairwise distinct
                Q = []
            system = progression_system(P, Q=Q)
            Fs = [random_one_bounded(F, rng.next_u64())
                  for _ in range(system.m1 + 1)]
            Psi = [rng.randrange(q) for _ in range(system.m2)]
            modes = [("absorb", 0), ("absorb", system.m1)]
            modes += [("shift", k) for k in range(1, system.m1 + 1)]
            mode, k = modes[rng.randrange(len(modes))]
            if mode == "absorb" and not system.m2:
                mode, k = "shift", max(1, k)
                if system.m1 < 1:
                    continue
            chk = twist_rewrite_check(system, Fs, Psi, k, mode=mode)
            worst = max(worst, chk.abs_diff)
            cases += 1
    spec_worst = max(_spec_41_check(7), _spec_41_check(11))
    worst = max(worst, spec_worst)
    return worst <= 1e-10, f"max abs diff {worst:.2e}"


# --------------------------------------------------------------------------
# criterion 6: iterated Cauchy-Schwarz projection inequality
# --------------------------------------------------------------------------

@_criterion(6, "Cauchy-Schwarz bound, 50 instances m=2 s=3, exact at s=2", 300)
def criterion_6():
    rng = SplitMix64(derive_seed(MASTER_SEED, 6))
    fails = 0
    worst = 0.0
    for i in range(50):
        q = (5, 7, 11)[i % 3]
        F = make_field(q)
        fs = [_random_two_var(F, rng) for _ in range(3)]  # m = 2
        chk = check_cs_inequality(fs, 3)
        worst = max(worst, chk.lhs - chk.rhs)
        if not chk.holds:
            fails += 1
    # s = 2: both sides collapse to the same average, exactly
    F = make_field(7)
    fs2 = [_random_two_var(F, rng) for _ in range(3)]
    chk2 = check_cs_inequality(fs2, 2)
    exact2 = abs(chk2.lhs - chk2.rhs) <= 1e-12
    return (fails == 0 and exact2,
            f"violations {fails}, worst excess {worst:.2e}, "
            f"s=2 gap {abs(chk2.lhs - chk2.rhs):.2e}")


# --------------------------------------------------------------------------
# criterion 7: empirical error shape |A|^(3/2) p^(2/5) for (y, y^2)
# --------------------------------------------------------------------------

@_criterion(7, "error shape for (y, y^2): |q^2 err| <= 10 |A|^1.5 p^0.4", 600)
def criterion_7():
    system = progression_system(["y", "y^2"])
    primes = _primes(31, 499)
    cells = 0
    within = 0
    max_err = {}
    for p in primes:
        F = make_field(p)
        rng = SplitMix64(derive_seed(MASTER_SEED, 7, p))
        for _ in range(20):
            A = rng.subset(p, 0.5)
            n = len(A)
            count = count_progressions(system, A, y_rule="all", field=F)
            err = abs(count - p * p * _main_term(F, [n / p] * (system.m1 + 1)))
            cells += 1
            if err <= 10.0 * n ** 1.5 * p ** 0.4:
                within += 1
            max_err[p] = max(max_err.get(p, 0.0), err)
    xs = np.log([p for p in primes if max_err[p] > 0])
    ys = np.log([max_err[p] for p in primes if max_err[p] > 0])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return (within / cells >= 0.99 and slope < 2.0,
            f"{within}/{cells} cells within, fitted exponent {slope:.3f}")


# --------------------------------------------------------------------------
# criterion 8: exact-rational negativity of the five exponent families
# --------------------------------------------------------------------------

@_criterion(8, "five exponent families negative, s in 2..8, dyadic beta/gamma",
            5)
def criterion_8():
    failures = 0
    grids = 0
    dyadics = [Fraction(1, 2 ** j) for j in range(6, -1, -1)]
    for s in range(2, 9):
        for beta in dyadics:
            for gamma in dyadics:
                rep = exponent_negativity(ScheduleParams(s, beta, gamma))
                grids += 1
                if not rep.all_ok:
                    failures += 1
    cons = u2_step_constraints(Fraction(1, 8), Fraction(1, 256),
                               Fraction(1, 128), Fraction(1, 16))
    cons_ok = all(cons.values())
    return (failures == 0 and cons_ok,
            f"{grids} parameter points, failures {failures}, "
            f"worked example constraints {'ok' if cons_ok else 'VIOLATED'}")


# --------------------------------------------------------------------------
# criterion 9: decomposition producer certified and dual-sound at q = 101
# --------------------------------------------------------------------------

def _dual_pairs(fa, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|<fa, g>| and ||g||_{U^2} for every row g of gs, as two products.

    Row by row these are abs(inner(fa, g)) and gowers_u2_via_fourier(g),
    with every row's spectrum taken in one stacked forward transform.
    """
    ghat = np.abs(_forward_rows(fa.field, gs))
    return (np.abs(np.conj(gs) @ fa.values / fa.field.q),
            np.sum(ghat ** 4, axis=1) ** 0.25)


@_criterion(9, "threshold decomposition certified >= 90% with sound dual bound",
            300)
def criterion_9():
    q = 101
    F = make_field(q)
    bud = budget_from_schedule(delta_schedule(2, 1, 0.5), 2)
    rng = SplitMix64(derive_seed(MASTER_SEED, 9))
    certified = 0
    pair_violations = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(50):
            f = _random_spike(F, rng)[0] if trial % 2 else _random_phase(F, rng)
            res = u2_threshold_decompose(f, bud)
            if not res.certified:
                continue
            ver = verify_decomposition(f, res.fa, res.fb, res.fc, bud)
            if ver.status != "certified":
                continue
            certified += 1
            gs = np.array([random_one_bounded(F, seed).values
                           for seed in rng.u64_block(1000).tolist()])
            lhs, u2 = _dual_pairs(res.fa, gs)
            rhs = res.certificates.dual_bound * u2
            pair_violations += int(np.count_nonzero(lhs > rhs + 1e-9))
    return (certified >= 45 and pair_violations == 0,
            f"certified {certified}/50, "
            f"adversarial violations {pair_violations}/1000x{certified}")


# --------------------------------------------------------------------------
# criterion 10: exact extremal search vs the 2^q exhaustive oracle
# --------------------------------------------------------------------------

def _oracle_r(p: int, coeff_lists) -> int:
    """2^p sweep over subsets using pure-integer progression masks."""
    masks = set()
    for y in range(1, p):
        shifts = []
        for coeffs in coeff_lists:
            v = 0
            for c in reversed(coeffs):
                v = (v * y + c) % p
            shifts.append(v)
        for x in range(p):
            m = 1 << x
            for s in shifts:
                m |= 1 << ((x + s) % p)
            masks.add(m)
    mask_list = sorted(masks)
    best = 0
    for S in range(1 << p):
        if any(m & S == m for m in mask_list):
            continue
        c = bin(S).count("1")
        if c > best:
            best = c
    return best


@_criterion(10, "r_exact equals 2^q oracle, witnesses progression-free", 600)
def criterion_10():
    cases = [(["y"], [[0, 1]]),
             (["y", "2y"], [[0, 1], [0, 2]]),
             (["y", "y^2"], [[0, 1], [0, 0, 1]]),
             (["y", "y^2", "y^3"], [[0, 1], [0, 0, 1], [0, 0, 0, 1]])]
    mismatches = 0
    bad_witness = 0
    cells = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for strs, coeffs in cases:
            system = progression_system(strs)
            for q in (5, 7, 11, 13):
                F = make_field(q)
                res = r_exact(build_hypergraph(system, F))
                want = _oracle_r(q, coeffs)
                cells += 1
                if not (res.exact and res.r == want):
                    mismatches += 1
                if count_progressions(system, list(res.witness),
                                      y_rule="nonzero", field=F) != 0:
                    bad_witness += 1
    return (mismatches == 0 and bad_witness == 0,
            f"{cells} cells, mismatches {mismatches}, "
            f"bad witnesses {bad_witness}")


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def run_all(echo=print) -> list[CriterionResult]:
    """Run every criterion in order, printing one PASS/FAIL line each."""
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
