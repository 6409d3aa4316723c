"""Command-line harness: reproducible experiments over the library.

Subcommands
-----------
count           exact progression count, main term, error, error-shape ratio
norms           Gowers norms of a chosen function
weil-scan       monomial character-sum sweep against the square-root bound
base-scan       base-case averages (value, main term, sqrt(q)-scaled error)
extremal        progression-free search ledger (both degeneracy policies)
decompose       structured/small/uniform split with certified budgets
schedule        delta schedule, exponent sign report, bound recursion
cs-check        Cauchy-Schwarz projection inequality on random instances
verify-theorem  empirical main-term/error sweep across primes
acceptance      the full numbered acceptance suite

Conventions shared by every subcommand:

* output is JSON lines (`--out`, default stdout); some commands add a CSV
  export (`--csv`);
* every record, the `failures` record included, carries `"schema": 1`, the
  tool version, the subcommand, the config, and the seed actually used
  (auto-generated and recorded when not supplied);
* `config` echoes only the flags that can change a record: not `--out`,
  `--csv`, `--quiet` or `--quiet-warnings`, nor `--seed`, which the
  top-level `seed` already holds;
* identical config + seed reproduce identical output except for the
  wall-clock `timing` key;
* `--config file.json` holds a JSON object whose entries are read as flags
  typed right after the subcommand name (dashes as underscores; `true` is a
  bare switch, `false` and `null` add nothing), so they pass the same checks
  as typed flags, and explicit flags, typed later, win;
* `extremal` records count the search's work under one `work` key (`nodes`,
  the hypergraph's `edges`, and for exact ones the vertices `fixed` at the
  root by symmetry breaks); exact ones add the certified bound `r_upper`,
  random ones the greedy stream's `derived_seed`;
* exit status: 0 success, 1 usage or input errors, 2 when a checked
  property or bound fails (a machine-readable `failures` record is
  emitted before exiting).

Set sources (`--set`): `random:DENSITY[:seedN]`, `explicit:i,j,k`,
`file:PATH` (JSON array of element indices), or `all`.  Twist labels
(`--psi`, in base-scan and verify-theorem) are element indices read mod q,
so a multiple of q names the trivial character.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import __version__
from .acceptance import run_all
from .counting import (_base_case_system, _first_y, _main_term, _weil_sweep,
                       _weil_verdict, base_case_report, count_progressions,
                       lambda_average)
from .decomposition import (budget, budget_from_schedule,
                            u2_threshold_decompose, verify_decomposition)
from .errors import FFProgError, ThresholdViolation
from .extremal import _check_bitset, build_hypergraph, r_exact, r_lower_random
from .field import _primes, make_field
from .functions import (_random_phase, _random_spike, _random_two_var,
                        balanced_indicator, character_function, indicator,
                        random_one_bounded)
from .gowers import (_check_cs_budget, _check_norm_budget, check_cs_inequality,
                     gowers_norm, gowers_u2_via_fourier, u2_dual_upper_bound)
from .polys import parse_poly, progression_system
from .rng import SplitMix64, derive_seed
from .schedule import (bound_recursion, budget_condition, delta_schedule,
                       exponent_negativity, initial_state)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# parsed names that are bookkeeping, or choose where records go and how
# loud the run is, so never what a record says
_NOT_CONFIG = frozenset({"func", "config", "command", "seed", "out", "csv",
                         "quiet", "quiet_warnings"})


class Ledger:
    """One run's JSON-lines sink (plus optional CSV), flushed per record.

    It owns the envelope every record starts with: schema, tool, version,
    command, the result-changing config and the seed.  Files open at the
    first record (CSV rows wait till then), so a refused run leaves them be.
    """

    def __init__(self, args, seed: int):
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in _NOT_CONFIG and v is not None}
        self._head = {"schema": 1, "tool": "ffprog", "version": __version__,
                      "command": args.command, "config": config,
                      "seed": seed}
        self._out = None if args.out in (None, "-") else args.out
        self._csv_path = getattr(args, "csv", None)
        self._fh = self._csv_fh = self._csv = None
        self._rows = []

    def open(self):
        """Open the sinks, truncating the files, unless already open."""
        if self._fh is None:
            self._fh = open(self._out, "w") if self._out else sys.stdout
            if self._csv_path:
                self._csv_fh = open(self._csv_path, "w", newline="")
                self._csv = csv.writer(self._csv_fh)
                self._csv.writerows(self._rows)
                self._csv_fh.flush()

    def write(self, **fields):
        """Write one record: the envelope, then `fields`, which never
        override it (ValueError)."""
        clash = self._head.keys() & fields.keys()
        if clash:
            raise ValueError(f"record fields {sorted(clash)} would override "
                             "the envelope")
        self.open()
        record = {**self._head, **fields}
        self._fh.write(json.dumps(record, separators=(", ", ": ")) + "\n")
        self._fh.flush()

    def csv_row(self, row):
        if self._csv is not None:
            self._csv.writerow(row)
            self._csv_fh.flush()
        elif self._csv_path:
            self._rows.append(row)

    def finish(self, failures) -> int:
        """Record the failed checks, if any; return the exit code, 0 or 2."""
        if not failures:
            return 0
        self.write(record="failures", failures=failures)
        return 2

    def close(self):
        if self._out and self._fh is not None:
            self._fh.close()
        if self._csv_fh is not None:
            self._csv_fh.close()


def _read(flag: str, value: str, convert):
    """`convert(value)` for a flag's string; bad input exits 1."""
    try:
        return convert(value)
    except (ValueError, ZeroDivisionError):
        raise FFProgError(f"bad {flag} value {value!r}") from None


def _count(text: str) -> int:
    """The argparse type of --trials, --iters and --node-budget: an int,
    refused below 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _ints(flag: str, value: str) -> list[int]:
    """A comma list of integers."""
    return _read(flag, value, lambda v: [int(t) for t in v.split(",")])


def _parse_indices(source: str, values, q: int) -> list[int]:
    try:
        idx = sorted({int(v) for v in values})
    except (TypeError, ValueError):
        raise FFProgError(f"set indices in {source!r} must be integers") from None
    if idx and not 0 <= idx[0] <= idx[-1] < q:
        raise FFProgError(f"set indices out of range for q={q}")
    return idx


def _parse_set(source: str, field, seed: int):
    """Resolve a set source string to the elements at the indices it names."""
    q = field.q
    kind, _, rest = source.partition(":")
    if source == "all":
        idx, echo = list(range(q)), {"source": "all"}
    elif kind == "random":
        density_s, _, seed_s = rest.partition(":")
        try:
            density = float(density_s)
        except ValueError:
            raise FFProgError(f"bad density in set source {source!r}") from None
        if seed_s:
            if not seed_s.startswith("seed") or not seed_s[4:].isdigit():
                raise FFProgError(f"bad set source {source!r}")
            seed = int(seed_s[4:])
        rng = SplitMix64(derive_seed(seed, 0x5E7))
        idx = sorted(rng.subset(q, density))
        echo = {"source": "random", "density": density, "set_seed": seed}
    elif kind == "explicit":
        idx = _parse_indices(source, [t for t in rest.split(",") if t != ""], q)
        echo = {"source": "explicit"}
    elif kind == "file":
        with open(rest) as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FFProgError(f"{rest}: not a JSON array ({exc})") from None
        idx = _parse_indices(source, values, q)
        echo = {"source": "file", "path": rest}
    else:
        raise FFProgError(f"unknown set source {source!r}")
    return [field.element_at(i) for i in idx], echo


def _make_function(kind: str, field, set_source: str, seed: int):
    if kind in ("indicator", "balanced"):
        A, echo = _parse_set(set_source, field, seed)
        fn = (indicator if kind == "indicator" else balanced_indicator)(
            field, A)
        return fn, {"fn": kind, **echo, "set_size": len(A)}
    rng = SplitMix64(derive_seed(seed, 0xF0))
    if kind == "disk":
        return random_one_bounded(field, rng), {"fn": "disk"}
    if kind == "phase":
        return _random_phase(field, rng), {"fn": "phase"}
    if kind == "spike":
        f, a = _random_spike(field, rng)
        return f, {"fn": "spike", "character": a}
    raise FFProgError(f"unknown function kind {kind!r}")


# --------------------------------------------------------------------------
# subcommands: each computes and writes its fields; main() owns the seed,
# the ledger and its envelope
# --------------------------------------------------------------------------

def _cmd_count(args, seed: int, ledger: Ledger) -> int:
    field = make_field(args.p, args.k)
    system = progression_system([s.strip() for s in args.polys.split(",")])
    A, echo = _parse_set(args.set, field, seed)
    n = len(A)
    count = count_progressions(system, A, y_rule=args.y_rule, field=field)
    q = field.q
    ys = q - _first_y(args.y_rule)
    main = q * ys * _main_term(field, [n / q] * (system.m1 + 1))
    err = count - main
    bc_ratio = abs(err) / (n ** 1.5 * q ** 0.4) if n else 0.0
    ledger.write(system=str(system), p=field.p, k=field.k, set=echo,
                 set_size=n, y_rule=args.y_rule, count=count,
                 main_term=main, error=err, bc_ratio=bc_ratio)
    return 0


def _cmd_norms(args, seed: int, ledger: Ledger) -> int:
    field = make_field(args.p, args.k)
    f, echo = _make_function(args.fn, field, args.set, seed)
    val = gowers_norm(f, args.s)
    extra = {}
    if args.s == 2:
        extra = {"fourier_value": gowers_u2_via_fourier(f).value,
                 "dual_upper_bound": u2_dual_upper_bound(f)}
    ledger.write(p=field.p, k=field.k, **echo, s=args.s, value=val.value,
                 raw_power=val.raw_power, **extra)
    return 0


def _cmd_weil_scan(args, seed: int, ledger: Ledger) -> int:
    poly = parse_poly(args.poly)
    ledger.csv_row(["p", "max_scaled", "bound"])
    failures = []
    for p in _primes(args.pmin, args.pmax):
        field = make_field(p)
        sums = _weil_sweep(field, poly)[1:]
        d, _, within = _weil_verdict(field, poly.coeffs, sums)
        if d < 1:
            ledger.write(p=p, degree=d, max_scaled=None, bound=None,
                         within=None, note="degenerate modulo p")
            continue
        cell = {"max_scaled": float(np.abs(sums).max() * math.sqrt(p)),
                "bound": float(d - 1)}
        ledger.write(p=p, degree=d, **cell, within=bool(within.all()))
        ledger.csv_row([p, *cell.values()])
        if not within.all():
            failures.append({"p": p, **cell})
    return ledger.finish(failures)


def _cmd_base_scan(args, seed: int, ledger: Ledger) -> int:
    p1 = parse_poly(args.p1)
    qs = ([parse_poly(s.strip()) for s in args.qs.split(",")]
          if args.qs else [])
    _base_case_system(p1, qs)  # refused up front, even for an empty range
    psi = _ints("--psi", args.psi) if args.psi else [0] * len(qs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore" if args.quiet_warnings else "default")
        for p in _primes(args.pmin, args.pmax):
            field = make_field(p)
            for trial in range(args.trials):
                rng = SplitMix64(derive_seed(seed, p, trial))
                f0 = indicator(field, rng.subset(p, args.density))
                f1 = indicator(field, rng.subset(p, args.density))
                rep = base_case_report(p1, qs, [f0, f1], psi)
                ledger.write(p=p, trial=trial,
                             value_re=rep.value.real,
                             value_im=rep.value.imag,
                             main_re=rep.main_term.real,
                             main_im=rep.main_term.imag,
                             abs_error=abs(rep.error),
                             sqrt_q_error=rep.sqrt_q_error,
                             trivial_twist=rep.trivial_twist)
    return 0


def _cmd_extremal(args, seed: int, ledger: Ledger) -> int:
    polys = [s.strip() for s in args.polys.split(",")]
    system = progression_system(polys)
    policies = (["paper_literal", "distinct_points"] if args.degeneracy == "both"
                else [args.degeneracy])
    fields = [make_field(p, args.k) for p in _ints("--p", args.p)]
    for field in fields:
        _check_bitset(field.q)  # every q refused before the first build
    ledger.csv_row(["q", "r", "exact", "gamma_point"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for field in fields:
            for policy in policies:
                hg = build_hypergraph(system, field, y_rule=args.y_rule,
                                      degeneracy=policy)
                if args.method == "exact":
                    res = r_exact(hg, node_budget=args.node_budget)
                    extra = {"r_upper": res.r_upper}
                else:
                    res = r_lower_random(hg, args.iters,
                                         derive_seed(seed, field.p))
                    extra = {"derived_seed": res.seed}
                work = {"nodes": res.nodes_explored, "edges": len(hg.edges)}
                if res.fixed is not None:
                    work["fixed"] = res.fixed
                ledger.write(system=str(system), p=field.p, k=field.k,
                             policy=policy, r=res.r, exact=res.exact, **extra,
                             witness=list(res.witness_indices), work=work,
                             timing={"ms": int(res.wall_time * 1000)})
                if policy == policies[0]:
                    gamma_point = ""
                    if res.exact and res.r >= 1:
                        gamma_point = 1.0 - math.log(res.r) / math.log(field.q)
                    ledger.csv_row([field.q, res.r, res.exact, gamma_point])
    return 0


def _budget_from_args(args):
    if args.deltas:
        parts = _read("--deltas", args.deltas,
                      lambda v: [Fraction(t) for t in v.split(",")])
        if len(parts) != 4:
            raise FFProgError("--deltas needs four comma-separated rationals")
        return budget(*parts, s=args.s)
    params = delta_schedule(args.s, _read("--beta", args.beta, Fraction),
                            _read("--gamma", args.gamma, Fraction))
    return budget_from_schedule(params, args.ell if args.ell else args.s)


def _cmd_decompose(args, seed: int, ledger: Ledger) -> int:
    field = make_field(args.p, args.k)
    bud = _budget_from_args(args)
    _check_norm_budget(field.q, bud.s)  # the verifier's, before any work
    f, echo = _make_function(args.fn, field, args.set, seed)
    with warnings.catch_warnings():  # producer and verifier warn alike
        warnings.simplefilter("ignore" if args.quiet_warnings else "once")
        res = u2_threshold_decompose(f, bud)
        ver = verify_decomposition(f, res.fa, res.fb, res.fc, bud)
    ledger.write(p=field.p, k=field.k, **echo,
                 deltas=[str(d) for d in bud.deltas],
                 thresholds=list(bud.thresholds(field.q)), tau=res.tau,
                 producer_status=res.status, verifier_status=ver.status,
                 certificates={
                     "dual_bound": ver.certificates.dual_bound,
                     "l1_fb": ver.certificates.l1_fb,
                     "linf_fc": ver.certificates.linf_fc,
                     "usnorm_fc": ver.certificates.usnorm_fc},
                 diagnostics=ver.diagnostics)
    failed = ver.status == "failed"
    return ledger.finish([{"check": "decomposition",
                           "diagnostics": ver.diagnostics}] if failed else [])


def _cmd_schedule(args, seed: int, ledger: Ledger) -> int:
    params = delta_schedule(args.s, _read("--beta", args.beta, Fraction),
                            _read("--gamma", args.gamma, Fraction))
    q = _read("--q", args.q, float)
    neg = exponent_negativity(params)
    levels = []
    for ell in range(2, args.s + 1):
        d = params.level_deltas(ell)
        bc = budget_condition(d, q)
        levels.append({"ell": ell, "deltas": [str(x) for x in d],
                       "deltas_float": [float(x) for x in d],
                       "budget_lhs": bc.lhs, "budget_ok": bc.ok})
    gp = (_read("--gamma-prime", args.gamma_prime, Fraction)
          if args.gamma_prime else None)
    rec_state = bound_recursion(params, initial_state(params), q,
                                gamma_prime=gp, c2_prime=args.c2)
    final = rec_state.states[-1]
    ledger.write(
        s=args.s, beta=str(params.beta), gamma=str(params.gamma),
        levels=levels,
        negativity={
            "all_ok": neg.all_ok,
            "checks": [{"family": c.family, "j": c.j,
                        "exponent": str(c.exponent),
                        "ceiling": str(c.ceiling), "ok": c.ok}
                       for c in neg.checks]},
        recursion={"final_ell": final.ell, "b1": final.b1,
                   "b2": str(final.b2), "b3": final.b3,
                   "final_coeff": rec_state.final_coeff,
                   "u1_exponent": str(rec_state.u1_exponent),
                   "constants_dropped": rec_state.constants_dropped})
    return ledger.finish([{"family": c.family, "j": c.j,
                           "exponent": str(c.exponent),
                           "ceiling": str(c.ceiling)}
                          for c in neg.checks if not c.ok])


def _cmd_cs_check(args, seed: int, ledger: Ledger) -> int:
    field = make_field(args.p, args.k)
    _check_cs_budget(field.q, args.s)  # before the q x q factors are drawn
    rng = SplitMix64(derive_seed(seed, 0xC5))
    failures = []
    for trial in range(args.trials):
        fs = [_random_two_var(field, rng) for _ in range(args.m + 1)]
        chk = check_cs_inequality(fs, args.s)
        ledger.write(trial=trial, lhs=chk.lhs, rhs=chk.rhs, holds=chk.holds)
        if not chk.holds:
            failures.append({"trial": trial, "lhs": chk.lhs, "rhs": chk.rhs})
    return ledger.finish(failures)


def _cmd_verify_theorem(args, seed: int, ledger: Ledger) -> int:
    """Empirical main-term/error sweep across primes.

    For each prime and trial, draws a random set A of the given density,
    computes the exact count, the predicted main term (zero when any twist
    character is nontrivial, labels read mod q) and the count-level error
    q^2 |Lambda - main|, and finally fits log max-error against log q.  The
    fit is evidence, not proof; records are tagged accordingly.
    """
    system = progression_system(
        [s.strip() for s in args.polys.split(",")],
        Q=[s.strip() for s in args.qs.split(",")] if args.qs else ())
    psi = _ints("--psi", args.psi) if args.psi else [0] * len(system.Q)
    primes = _primes(args.pmin, args.pmax)
    below = [p for p in primes if p < system.threshold]
    if below and not args.allow_below_threshold:
        raise ThresholdViolation(
            f"primes {below} lie below the system threshold "
            f"{system.threshold}; pass --allow-below-threshold to proceed")
    max_err: dict[int, float] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in primes:
            field = make_field(p)
            q = field.q
            for trial in range(args.trials):
                rng = SplitMix64(derive_seed(seed, p, trial))
                idx = rng.subset(q, args.density)
                n = len(idx)
                fs = [indicator(field, idx)] * (system.m1 + 1)
                gs = [character_function(field, a) for a in psi]
                value = lambda_average(system, fs, gs)
                main = _main_term(field, [n / q] * (system.m1 + 1), psi)
                scaled_err = abs(value - main) * q * q
                max_err[p] = max(max_err.get(p, 0.0), scaled_err)
                ledger.write(p=p, trial=trial, set_size=n,
                             value_re=value.real, value_im=value.imag,
                             main_term=main, scaled_error=scaled_err)
    pts = [(math.log(p), math.log(e)) for p, e in sorted(max_err.items())
           if e > 0]
    slope = float(np.polyfit(*zip(*pts), 1)[0]) if len(pts) >= 2 else None
    ledger.write(record="fit", points=len(pts), error_exponent=slope,
                 note="empirical evidence only",
                 rows=len(primes) * args.trials, below_threshold=below)
    return 0


def _cmd_acceptance(args, seed: int, ledger: Ledger) -> int:
    results = run_all(echo=None if args.quiet else print)
    # on stdout the PASS/FAIL lines are the report; per-criterion records
    # go only to an --out file
    if args.out != "-":
        for res in results:
            ledger.write(criterion=res.index, name=res.name,
                         passed=res.passed, detail=res.detail,
                         timing={"ms": int(res.seconds * 1000)})
    return ledger.finish([{"criterion": r.index, "name": r.name,
                           "detail": r.detail}
                          for r in results if not r.passed])


# --------------------------------------------------------------------------
# parser construction
# --------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--seed", type=int, default=None,
                    help="PRNG seed (auto-generated and recorded if absent)")
    sp.add_argument("--out", default="-",
                    help="JSON-lines output path ('-' = stdout)")
    sp.add_argument("--config", default=None,
                    help="JSON file of flags, read before the typed ones")


def build_parser() -> _Parser:
    ap = _Parser(prog="ffprog",
                 description="polynomial progressions over finite fields")
    ap.add_argument("--version", action="version",
                    version=f"ffprog {__version__}")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("count", help="exact progression count and error")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--polys", required=True,
                    help='comma list, e.g. "y,y^2"')
    sp.add_argument("--set", default="random:0.5", help="set source")
    sp.add_argument("--y-rule", choices=("all", "nonzero"), default="all")
    _add_common(sp)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("norms", help="Gowers norms of a function")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--fn", default="balanced",
                    choices=("indicator", "balanced", "phase", "disk", "spike"))
    sp.add_argument("--set", default="random:0.5")
    _add_common(sp)
    sp.set_defaults(func=_cmd_norms)

    sp = sub.add_parser("weil-scan",
                        help="character-sum sweep vs the square-root bound")
    sp.add_argument("--pmin", type=int, default=5)
    sp.add_argument("--pmax", type=int, default=199)
    sp.add_argument("--poly", required=True, help='e.g. "y^3"')
    sp.add_argument("--csv", default=None, help="CSV export path")
    _add_common(sp)
    sp.set_defaults(func=_cmd_weil_scan)

    sp = sub.add_parser("base-scan", help="base-case average sweep")
    sp.add_argument("--pmin", type=int, default=31)
    sp.add_argument("--pmax", type=int, default=101)
    sp.add_argument("--p1", required=True, help="progression polynomial")
    sp.add_argument("--qs", default=None, help="comma list of twist polys")
    sp.add_argument("--psi", default=None,
                    help="comma list of twist character indices, mod q")
    sp.add_argument("--trials", type=_count, default=5)
    sp.add_argument("--density", type=float, default=0.5)
    sp.add_argument("--quiet-warnings", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_base_scan)

    sp = sub.add_parser("extremal", help="progression-free set search")
    sp.add_argument("--p", required=True,
                    help="prime (or comma list for a sweep)")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--polys", required=True)
    sp.add_argument("--y-rule", choices=("all", "nonzero"), default="nonzero")
    sp.add_argument("--degeneracy",
                    choices=("paper_literal", "distinct_points", "both"),
                    default="both")
    sp.add_argument("--method", choices=("exact", "random"), default="exact")
    sp.add_argument("--iters", type=_count, default=200,
                    help="random-method greedy passes")
    sp.add_argument("--node-budget", type=_count, default=10_000_000)
    sp.add_argument("--csv", default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_extremal)

    sp = sub.add_parser("decompose",
                        help="structured/small/uniform split, certified")
    sp.add_argument("--p", type=int, default=101)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--beta", default="1")
    sp.add_argument("--gamma", default="1/2")
    sp.add_argument("--ell", type=int, default=None,
                    help="schedule level (default s)")
    sp.add_argument("--deltas", default=None,
                    help='explicit budget "d1,d2,d3,d4" (rationals)')
    sp.add_argument("--fn", default="phase",
                    choices=("indicator", "balanced", "phase", "disk", "spike"))
    sp.add_argument("--set", default="random:0.5")
    sp.add_argument("--quiet-warnings", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("schedule",
                        help="delta schedule, sign report, bound recursion")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--beta", required=True, help="rational in (0,1]")
    sp.add_argument("--gamma", required=True, help="rational in (0,1]")
    sp.add_argument("--q", default="1e8", help="field size for the budget")
    sp.add_argument("--gamma-prime", default=None,
                    help="lower-level exponent for the counting term")
    sp.add_argument("--c2", type=float, default=1.0,
                    help="lower-level constant for the counting term")
    _add_common(sp)
    sp.set_defaults(func=_cmd_schedule)

    sp = sub.add_parser("cs-check",
                        help="Cauchy-Schwarz inequality on random instances")
    sp.add_argument("--p", type=int, default=7)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--s", type=int, default=3)
    sp.add_argument("--trials", type=_count, default=10)
    _add_common(sp)
    sp.set_defaults(func=_cmd_cs_check)

    sp = sub.add_parser("verify-theorem",
                        help="empirical main-term/error sweep across primes")
    sp.add_argument("--polys", required=True)
    sp.add_argument("--qs", default=None)
    sp.add_argument("--psi", default=None,
                    help="comma list of twist character indices, mod q")
    sp.add_argument("--pmin", type=int, default=31)
    sp.add_argument("--pmax", type=int, default=199)
    sp.add_argument("--trials", type=_count, default=5)
    sp.add_argument("--density", type=float, default=0.5)
    sp.add_argument("--allow-below-threshold", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify_theorem)

    sp = sub.add_parser("acceptance", help="run the numbered acceptance suite")
    sp.add_argument("--quiet", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_acceptance)

    return ap


def _config_argv(ap, command: str, path: str) -> list[str]:
    """The entries of the --config file at `path` as argv tokens for `command`.

    Each entry becomes one `--flag=value` token (the `=` form keeps values
    such as "-y,y^2" whole); `true` becomes the bare switch, `false` and
    `null` add nothing.
    """
    sub = ap._subparsers._group_actions[0]  # argparse's subcommand action
    if command not in sub.choices:
        return []  # the parser rejects the command itself
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except ValueError as exc:  # malformed JSON, or not text at all
        raise FFProgError(f"{path}: not JSON ({exc})") from None
    if not isinstance(entries, dict):
        raise FFProgError(f"{path}: not a JSON object of flag values")
    known = {a.dest for a in sub.choices[command]._actions} - {"help", "config"}
    bad = set(entries) - known
    if bad:
        raise FFProgError(f"unknown config keys {sorted(bad)} for {command}")
    tokens = []
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False and value is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            tokens.append(f"{flag}={text}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        pre = _Parser(prog="ffprog", usage=argparse.SUPPRESS, add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv)[0].config
        if path:  # the file's entries read as flags typed before the user's
            argv[1:1] = _config_argv(ap, argv[0], path)
        args = ap.parse_args(argv)
        seed = (args.seed if args.seed is not None
                else int.from_bytes(os.urandom(8), "big"))
        ledger = Ledger(args, seed)
        try:
            code = args.func(args, seed, ledger)
            ledger.open()  # a finished run leaves exactly its own records
            return code
        finally:
            ledger.close()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except FFProgError as exc:
        print(f"ffprog: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        try:  # keep the interpreter from whining about the closed pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except OSError as exc:
        print(f"ffprog: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
