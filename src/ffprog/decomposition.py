"""Structure / smallness / uniformity decompositions with certificates.

For an exponent budget (d1, d2, d3, d4) at level s and a function f with
||f||_{L^2} <= 1, a *certified decomposition* is a triple f = fa + fb + fc
with

    ||fa||_{U^s}*   <= q^(d1)      (dual norm; certified by an upper bound)
    ||fb||_{L^1}    <= q^(-d2)
    ||fc||_{L^inf}  <= q^(d3)
    ||fc||_{U^s}    <= q^(-d4),

which exists whenever the budget is admissible at q, i.e.
q^(d2-d3) + q^(d4-d1) <= 1/2.  The verifier recomputes every inequality
from the parts alone; the producer must convince the verifier, not itself.

The constructive producer works at s = 2 by Fourier thresholding: fa keeps
the spectrum above a cutoff tau, fb = 0, fc is the spectral tail.  Its
certificates are computed on the Fourier side -- the dual bound as
sum of kept |fhat| (a sound upper bound for the U^2 dual norm), the U^2
norm of the tail as (sum of dropped |fhat|^4)^(1/4), which is the exact
identity -- while the verifier recomputes the same quantities from the
parts by direct averaging, so producer and verifier never share a code
path.  All dyadic cutoffs 1, 1/2, .., down to just below 1/q are tried in
one pass: one row per cutoff, one batched inverse transform for every
candidate fa.  The smallest certified cutoff wins; if none certifies, the
result is status 'failed' carrying the least-violating attempt (fewest
violated checks, then smallest worst ratio, first on ties).

Errors raised here: NotL2Normalized, ShapeMismatch, InvalidRange,
IndexOutOfRange, ThresholdViolation (re-certification only).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetConditionWarning,
    FieldMismatch,
    InvalidRange,
    IndexOutOfRange,
    NotL2Normalized,
    ShapeMismatch,
    ThresholdViolation,
)
from .functions import (DenseFunction, _inverse_rows, fourier_transform,
                        lp_norm)
from .gowers import gowers_norm, u2_dual_upper_bound
from .schedule import BudgetCheck, ScheduleParams, budget_condition

_L2_TOL = 1e-12
_SUM_TOL = 1e-10
_CERT_TOL = 1e-9


@dataclass(frozen=True)
class DecompositionBudget:
    """Exponent budget (d1, d2, d3, d4) for a level-s decomposition."""

    delta1: Fraction
    delta2: Fraction
    delta3: Fraction
    delta4: Fraction
    s: int

    def __post_init__(self):
        if self.s < 2:
            raise InvalidRange(f"decomposition level must be >= 2, got {self.s}")
        for name, val in (("delta1", self.delta1), ("delta2", self.delta2),
                          ("delta3", self.delta3), ("delta4", self.delta4)):
            if val <= 0:
                raise InvalidRange(f"{name} must be positive, got {val}")

    @property
    def deltas(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.delta1, self.delta2, self.delta3, self.delta4)

    def thresholds(self, q: int) -> tuple[float, float, float, float]:
        """(dual, L1, Linf, U^s) numeric thresholds at field size q."""
        return (
            float(q) ** float(self.delta1),
            float(q) ** -float(self.delta2),
            float(q) ** float(self.delta3),
            float(q) ** -float(self.delta4),
        )

    def condition(self, q) -> BudgetCheck:
        return budget_condition(self.deltas, q)


def budget(delta1, delta2, delta3, delta4, s: int = 2) -> DecompositionBudget:
    """Build a budget from exact rationals (strings, Fractions, ints...)."""
    return DecompositionBudget(Fraction(delta1), Fraction(delta2),
                               Fraction(delta3), Fraction(delta4), s)


def budget_from_schedule(params: ScheduleParams, ell: int) -> DecompositionBudget:
    """The budget a schedule prescribes at one level of its descent."""
    if not 2 <= ell <= params.s:
        raise IndexOutOfRange(f"level must lie in [2, {params.s}], got {ell}")
    d1, d2, d3, d4 = params.level_deltas(ell)
    return DecompositionBudget(d1, d2, d3, d4, ell)


@dataclass(frozen=True)
class Certificates:
    """The four certified quantities of a decomposition."""

    dual_bound: float | None   # upper bound for ||fa||_{U^s}* (None: unavailable)
    l1_fb: float
    linf_fc: float
    usnorm_fc: float

    def within(self, thresholds) -> tuple[bool, ...]:
        t_dual, t_l1, t_linf, t_us = thresholds
        dual_ok = (self.dual_bound is not None
                   and self.dual_bound <= t_dual + _CERT_TOL)
        return (dual_ok,
                self.l1_fb <= t_l1 + _CERT_TOL,
                self.linf_fc <= t_linf + _CERT_TOL,
                self.usnorm_fc <= t_us + _CERT_TOL)


@dataclass(frozen=True)
class DecompositionResult:
    """Parts, certificates, verdict and diagnostics of one decomposition."""

    fa: DenseFunction
    fb: DenseFunction
    fc: DenseFunction
    budget: DecompositionBudget
    certificates: Certificates
    status: str                      # 'certified' | 'failed' | 'partial'
    diagnostics: tuple[str, ...]
    tau: float | None = None         # producer cutoff, when applicable

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _check_l2(f: DenseFunction) -> None:
    l2 = lp_norm(f, 2)
    if l2 > 1.0 + _L2_TOL:
        raise NotL2Normalized(f"||f||_L2 = {l2:.12f} exceeds 1")


def _warn_budget(bud: DecompositionBudget, q: int) -> BudgetCheck:
    check = bud.condition(q)
    if not check.ok:
        warnings.warn(
            f"budget condition fails at q = {q}: lhs = {check.lhs:.6f} > 1/2; "
            "a certified decomposition is not guaranteed to exist",
            BudgetConditionWarning,
            stacklevel=3,
        )
    return check


# --------------------------------------------------------------------------
# verifier
# --------------------------------------------------------------------------

def verify_decomposition(f: DenseFunction, fa: DenseFunction, fb: DenseFunction,
                         fc: DenseFunction, bud: DecompositionBudget,
                         dual_upper: float | None = None) -> DecompositionResult:
    """Recompute all four inequalities from the parts alone.

    At s = 2 the dual bound is recomputed spectrally from fa; for s > 2 a
    caller-supplied certified dual_upper is compared instead (without one
    the result is 'partial': three checks passed or failed on evidence,
    the dual left open).  The parts must reassemble f exactly (1e-10 sup).
    """
    field = f.field
    for part in (fa, fb, fc):
        if part.field != field:
            raise FieldMismatch("decomposition parts on different fields")
        if part.values.shape != f.values.shape:
            raise ShapeMismatch("decomposition parts have wrong length")
    _check_l2(f)
    q = field.q
    _warn_budget(bud, q)

    diagnostics = []
    resid = float(np.abs(f.values - (fa.values + fb.values + fc.values)).max())
    if resid > _SUM_TOL:
        diagnostics.append(f"parts do not sum to f: sup residual {resid:.3e}")

    if bud.s == 2:
        dual = u2_dual_upper_bound(fa)
    else:
        dual = dual_upper
        if dual is None:
            diagnostics.append("no dual-norm certificate supplied for s > 2")
    certs = Certificates(
        dual_bound=dual,
        l1_fb=lp_norm(fb, 1),
        linf_fc=lp_norm(fc, float("inf")),
        usnorm_fc=gowers_norm(fc, bud.s).value,
    )
    thresholds = bud.thresholds(q)
    oks = certs.within(thresholds)
    names = ("dual", "L1", "Linf", f"U^{bud.s}")
    for name, ok, got, want in zip(names, oks, (certs.dual_bound, certs.l1_fb,
                                                certs.linf_fc, certs.usnorm_fc),
                                   thresholds):
        if not ok:
            diagnostics.append(f"{name}: {got} > threshold {want:.6f}")

    if resid > _SUM_TOL:
        status = "failed"
    elif all(oks):
        status = "certified"
    elif dual is None and all(oks[1:]):
        status = "partial"
    else:
        status = "failed"
    return DecompositionResult(fa, fb, fc, bud, certs, status,
                               tuple(diagnostics))


# --------------------------------------------------------------------------
# constructive producer (s = 2)
# --------------------------------------------------------------------------

def u2_threshold_decompose(f: DenseFunction,
                           bud: DecompositionBudget) -> DecompositionResult:
    """Fourier-threshold decomposition at s = 2.

    Tries every dyadic cutoff tau = 1, 1/2, ..., 2^(-ceil(log2 q)) in one
    pass: row t of a stacked spectrum keeps the characters with
    |fhat| >= tau_t, and one batched inverse transform gives every
    candidate fa (fc = f - fa, fb = 0).  Returns the smallest certified
    tau, or status 'failed' with the least-violating cutoff (fewest
    violated checks, then smallest worst ratio, first on ties) if none
    certifies.  Parts and result are built once, for that cutoff.
    """
    if bud.s != 2:
        raise InvalidRange("the threshold producer works at s = 2 only")
    _check_l2(f)
    field = f.field
    q = field.q
    _warn_budget(bud, q)
    thresholds = np.array(bud.thresholds(q))

    coeffs = fourier_transform(f).coeffs
    taus = 2.0 ** -np.arange(math.ceil(math.log2(q)) + 1)
    kept = np.where(np.abs(coeffs) >= taus[:, None], coeffs, 0.0)
    fas = _inverse_rows(field, kept)
    fcs = f.values - fas
    # columns: dual bound, ||fb||_1 = 0, ||fc||_inf, ||fc||_U2 (one row per tau)
    certs = np.stack([np.abs(kept).sum(axis=1), np.zeros(len(taus)),
                      np.abs(fcs).max(axis=1),
                      np.sum(np.abs(coeffs - kept) ** 4, axis=1) ** 0.25],
                     axis=1)
    bad = certs > thresholds + _CERT_TOL
    certified = np.flatnonzero(~bad.any(axis=1))
    if certified.size:
        t, status, diags = certified[-1], "certified", ()  # smallest tau
    else:
        violations = bad.sum(axis=1)
        worst = np.where(bad, certs / thresholds, 0.0).max(axis=1)
        t = min(range(len(taus)), key=lambda i: (violations[i], worst[i]))
        status = "failed"
        diags = (f"no dyadic cutoff certified; best attempt tau = "
                 f"{float(taus[t])} violates {violations[t]} checks "
                 f"(worst ratio {worst[t]:.4f})",)
    return DecompositionResult(DenseFunction(field, fas[t]),
                               DenseFunction(field, np.zeros(q)),
                               DenseFunction(field, fcs[t]), bud,
                               Certificates(*map(float, certs[t])), status,
                               diags, float(taus[t]))


def recheck_certificates(result: DecompositionResult, q: int) -> None:
    """Raise ThresholdViolation if a certified result fails its thresholds."""
    if result.status != "certified":
        return
    oks = result.certificates.within(result.budget.thresholds(q))
    if not all(oks):
        raise ThresholdViolation(
            f"certified result fails recheck: {oks}")
