"""Certified structure/smallness/uniformity decompositions.

The producer must convince the verifier: every certified output here is
re-verified from the parts alone, and the certificates are additionally
recomputed against the raw Fourier data in this file.  Desk-scale q
makes the admissibility inequality fail by design, so tests assert the
resulting warning explicitly and silence it where it is incidental.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ffprog.decomposition import (Certificates, DecompositionBudget,
                                  DecompositionResult, budget,
                                  budget_from_schedule, recheck_certificates,
                                  u2_threshold_decompose,
                                  verify_decomposition)
from ffprog.errors import (BudgetConditionWarning, FieldMismatch,
                           IndexOutOfRange, InvalidRange, NotL2Normalized,
                           ShapeMismatch, ThresholdViolation)
from ffprog.field import make_field
from ffprog.functions import (character_function, constant_function,
                              dense_function, fourier_transform, lp_norm)
from ffprog.gowers import gowers_norm, u2_dual_upper_bound
from ffprog.rng import SplitMix64
from ffprog.schedule import delta_schedule

F101 = make_field(101)
SCHEDULE_BUDGET = budget_from_schedule(delta_schedule(2, 1, Fraction(1, 2)), 2)


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BudgetConditionWarning)
        return fn(*args, **kwargs)


def phase_fn(field, seed):
    """Unimodular random phases: exactly L2-normalized."""
    rng = SplitMix64(seed)
    vals = np.exp(2j * np.pi * np.array([rng.random() for _ in range(field.q)]))
    return dense_function(field, vals)


def spike_fn(field, seed):
    """One dominant character plus small unimodular noise, renormalized."""
    rng = SplitMix64(seed)
    a = 1 + rng.randrange(field.q - 1)
    eps = 0.01 + 0.03 * rng.random()
    noise = np.exp(2j * np.pi * np.array([rng.random() for _ in range(field.q)]))
    vals = field.character_matrix()[a] + eps * noise
    return dense_function(field, vals / np.sqrt(np.mean(np.abs(vals) ** 2)))


# -- budgets ------------------------------------------------------------------

def test_budget_construction_and_thresholds():
    bud = budget("1/8", "1/256", "1/128", "1/16")
    assert bud.deltas == (Fraction(1, 8), Fraction(1, 256),
                          Fraction(1, 128), Fraction(1, 16))
    assert bud.s == 2
    t = bud.thresholds(101)
    assert t[0] == pytest.approx(101 ** 0.125)
    assert t[1] == pytest.approx(101 ** (-1 / 256))
    assert t[2] == pytest.approx(101 ** (1 / 128))
    assert t[3] == pytest.approx(101 ** (-1 / 16))
    assert bud.condition(1e200).ok


def test_schedule_budget_frozen_thresholds():
    # level-2 deltas of the (s=2, beta=1, gamma=1/2) schedule at q = 101
    t = SCHEDULE_BUDGET.thresholds(101)
    assert t == pytest.approx((1.018191, 0.999437, 1.001127, 0.991027),
                              abs=5e-7)


def test_budget_validation():
    with pytest.raises(InvalidRange):
        budget(0, "1/256", "1/128", "1/16")
    with pytest.raises(InvalidRange):
        budget("1/8", "-1/256", "1/128", "1/16")
    with pytest.raises(InvalidRange):
        DecompositionBudget(Fraction(1, 8), Fraction(1, 256),
                            Fraction(1, 128), Fraction(1, 16), 1)
    with pytest.raises(IndexOutOfRange):
        budget_from_schedule(delta_schedule(3, 1, 1), 4)
    # the schedule's own levels are accepted, and carry s = ell
    assert budget_from_schedule(delta_schedule(3, 1, 1), 3).s == 3


def test_certificates_within_tolerances():
    certs = Certificates(1.0, 0.0, 1.0, 0.5)
    assert certs.within((1.0, 1.0, 1.0, 0.5)) == (True, True, True, True)
    # a hair over passes via the tolerance, a mile over does not
    assert certs.within((1.0 - 1e-12, 1.0, 1.0, 0.5))[0]
    assert not Certificates(2.0, 0.0, 1.0, 0.5).within((1.0, 1, 1, 1))[0]
    # a missing dual bound can never satisfy the first check
    assert not Certificates(None, 0.0, 1.0, 0.5).within((9.9, 1, 1, 1))[0]


# -- producer ----------------------------------------------------------------------

def test_character_decomposes_to_pure_structure():
    psi = character_function(F101, 7)
    res = quiet(u2_threshold_decompose, psi, SCHEDULE_BUDGET)
    assert res.certified
    assert np.abs(res.fa.values - psi.values).max() < 1e-9
    assert lp_norm(res.fc, 2) < 1e-9
    assert res.certificates.l1_fb == 0.0
    assert res.certificates.dual_bound == pytest.approx(1.0, abs=1e-9)
    # the sweep prefers the smallest certified cutoff
    assert res.tau == pytest.approx(2.0 ** -7)


def test_phase_and_spike_ensembles_certify():
    for seed in range(6):
        f = phase_fn(F101, 2000 + seed) if seed % 2 else spike_fn(F101, seed)
        res = quiet(u2_threshold_decompose, f, SCHEDULE_BUDGET)
        assert res.certified, res.diagnostics
        # parts reassemble f exactly
        total = res.fa.values + res.fb.values + res.fc.values
        assert np.abs(total - f.values).max() < 1e-10
        # certificates hold against the budget's thresholds
        assert all(res.certificates.within(SCHEDULE_BUDGET.thresholds(101)))


def test_spike_yields_nontrivial_structured_part():
    f = spike_fn(F101, 4)
    res = quiet(u2_threshold_decompose, f, SCHEDULE_BUDGET)
    assert res.certified
    assert res.certificates.dual_bound > 0.9   # the spike is captured
    assert res.tau == pytest.approx(0.0078125)


def test_producer_certificates_match_fourier_data():
    f = spike_fn(F101, 8)
    res = quiet(u2_threshold_decompose, f, SCHEDULE_BUDGET)
    mags = np.abs(fourier_transform(f).coeffs)
    kept = mags[mags >= res.tau]
    rest = mags[mags < res.tau]
    assert res.certificates.dual_bound == pytest.approx(kept.sum(), rel=1e-9)
    assert res.certificates.usnorm_fc == pytest.approx(
        float(np.sum(rest ** 4) ** 0.25), rel=1e-9)
    assert res.certificates.linf_fc == pytest.approx(res.fc.max_abs(), rel=1e-9)


@pytest.mark.parametrize("field", [F101, make_field(2, 6), make_field(3, 4)],
                         ids=lambda F: f"GF({F.q})")
def test_smallest_certified_tau_is_chosen(field):
    f = spike_fn(field, 12)
    res = quiet(u2_threshold_decompose, f, SCHEDULE_BUDGET)
    assert res.certified
    coeffs = fourier_transform(f).coeffs
    chi = field.character_matrix()
    certified_taus = []
    for t_exp in range(math.ceil(math.log2(field.q)) + 1):  # down to < 1/q
        tau = 2.0 ** -t_exp
        kept = np.where(np.abs(coeffs) >= tau, coeffs, 0.0)
        fa = dense_function(field, chi.T @ kept)
        fc = dense_function(field, f.values - fa.values)
        fb = constant_function(field, 0)
        ver = quiet(verify_decomposition, f, fa, fb, fc, SCHEDULE_BUDGET)
        if ver.status == "certified":
            certified_taus.append(tau)
    assert res.tau == min(certified_taus)


@pytest.mark.parametrize("field", [F101, make_field(31), make_field(2, 6)],
                         ids=lambda F: f"GF({F.q})")
def test_failed_sweep_returns_first_least_violating_cutoff(field):
    # rank each cutoff by (violated checks, worst ratio) from the raw
    # spectrum; the producer must return the first minimal one
    harsh = budget("1/8", "1/256", "1/128", "1/2")
    f = phase_fn(field, 21)
    coeffs = fourier_transform(f).coeffs
    chi = field.character_matrix()
    thresholds = harsh.thresholds(field.q)
    taus, keys = [], []
    for t_exp in range(math.ceil(math.log2(field.q)) + 1):
        tau = 2.0 ** -t_exp
        kept = np.where(np.abs(coeffs) >= tau, coeffs, 0.0)
        certs = (np.abs(kept).sum(), 0.0,
                 np.abs(f.values - chi.T @ kept).max(),
                 np.sum(np.abs(coeffs - kept) ** 4) ** 0.25)
        ratios = [got / want for got, want in zip(certs, thresholds)
                  if got > want + 1e-9]
        taus.append(tau)
        keys.append((len(ratios), max(ratios, default=0.0)))
    assert min(keys)[0] > 0  # nothing certifies under this budget
    best = keys.index(min(keys))
    res = quiet(u2_threshold_decompose, f, harsh)
    assert res.status == "failed"
    assert res.tau == taus[best]
    assert (f"best attempt tau = {taus[best]} violates {keys[best][0]} checks"
            in res.diagnostics[0])


def test_harsh_budget_fails_honestly():
    harsh = budget("1/8", "1/256", "1/128", "1/2")  # demands U^2 <= q^(-1/2)
    f = phase_fn(F101, 21)
    res = quiet(u2_threshold_decompose, f, harsh)
    assert res.status == "failed"
    assert not res.certified
    assert res.diagnostics  # says which checks broke
    assert "no dyadic cutoff certified" in res.diagnostics[0]


def test_dense_bounded_function_is_structurally_out_of_reach():
    # sup|f| barely above 1 already exceeds the Linf threshold q^(delta3),
    # and thresholding cannot shrink the sup of the tail: honest failure
    rng = SplitMix64(31)
    vals = np.array([rng.unit_disk() for _ in range(101)])
    vals = vals / np.sqrt(np.mean(np.abs(vals) ** 2))
    f = dense_function(F101, vals)
    if f.max_abs() > SCHEDULE_BUDGET.thresholds(101)[2] + 0.05:
        res = quiet(u2_threshold_decompose, f, SCHEDULE_BUDGET)
        assert res.status == "failed"


def test_producer_guardrails():
    with pytest.raises(InvalidRange):
        u2_threshold_decompose(phase_fn(F101, 1), budget(1, 1, 1, 1, s=3))
    too_big = dense_function(F101, 2 * np.ones(101))
    with pytest.raises(NotL2Normalized):
        quiet(u2_threshold_decompose, too_big, SCHEDULE_BUDGET)


def test_budget_condition_warning_is_emitted_at_desk_scale():
    with pytest.warns(BudgetConditionWarning, match="not guaranteed"):
        u2_threshold_decompose(character_function(F101, 3), SCHEDULE_BUDGET)


# -- verifier ----------------------------------------------------------------------

def test_verifier_round_trip_on_producer_output():
    for seed in (3, 5):
        f = spike_fn(F101, seed) if seed % 2 else phase_fn(F101, seed)
        res = quiet(u2_threshold_decompose, f, SCHEDULE_BUDGET)
        ver = quiet(verify_decomposition, f, res.fa, res.fb, res.fc,
                    SCHEDULE_BUDGET)
        assert ver.status == "certified"
        assert ver.certificates.dual_bound == pytest.approx(
            res.certificates.dual_bound, rel=1e-9)
        assert ver.certificates.usnorm_fc == pytest.approx(
            res.certificates.usnorm_fc, rel=1e-6, abs=1e-9)


def test_verifier_rejects_parts_that_do_not_sum():
    f = phase_fn(F101, 6)
    zero = constant_function(F101, 0)
    bad = quiet(verify_decomposition, f, f, zero,
                dense_function(F101, np.ones(101) * 0.01), SCHEDULE_BUDGET)
    assert bad.status == "failed"
    assert any("do not sum" in d for d in bad.diagnostics)


def test_verifier_catches_cheating_certificates():
    # put all the mass in "uniform" part fc: U^2 of fc is way over budget
    f = character_function(F101, 9)
    zero = constant_function(F101, 0)
    res = quiet(verify_decomposition, f, zero, zero, f, SCHEDULE_BUDGET)
    assert res.status == "failed"
    assert any("U^2" in d for d in res.diagnostics)


def test_verifier_partial_without_dual_certificate_at_s3():
    bud3 = budget("1/8", "1/256", "1/128", "1/16", s=3)
    f = phase_fn(F101, 7)
    zero = constant_function(F101, 0)
    # fa = f, fb = fc = 0: the three non-dual checks pass trivially
    res = quiet(verify_decomposition, f, f, zero, zero, bud3)
    assert res.status == "partial"
    assert any("no dual-norm certificate" in d for d in res.diagnostics)
    # supplying a certified dual bound upgrades or fails it, honestly
    good = quiet(verify_decomposition, f, f, zero, zero, bud3,
                 dual_upper=1.0)
    assert good.status == "certified"
    bad = quiet(verify_decomposition, f, f, zero, zero, bud3,
                dual_upper=1e6)
    assert bad.status == "failed"


def test_verifier_validation_errors():
    f = phase_fn(F101, 10)
    zero = constant_function(F101, 0)
    other = constant_function(make_field(7), 0)
    with pytest.raises(FieldMismatch):
        quiet(verify_decomposition, f, other, zero, zero, SCHEDULE_BUDGET)
    heavy = dense_function(F101, np.full(101, 1.5))
    with pytest.raises(NotL2Normalized):
        quiet(verify_decomposition, heavy, f, zero, zero, SCHEDULE_BUDGET)


def test_recheck_certificates_threshold_violation():
    f = spike_fn(F101, 13)
    res = quiet(u2_threshold_decompose, f, SCHEDULE_BUDGET)
    assert res.certified
    recheck_certificates(res, 101)  # the certified field size: fine

    # a synthetic certified result whose tail norm hugs its threshold:
    # 0.70 <= 101^(-1/16) = 0.749 passes, but (1e9)^(-1/16) = 0.274 fails
    bud = budget("1/8", "1/256", "1/128", "1/16")
    zero = constant_function(F101, 0)
    tight = DecompositionResult(zero, zero, zero, bud,
                                Certificates(1.0, 0.0, 1.0, 0.70),
                                "certified", ())
    recheck_certificates(tight, 101)
    with pytest.raises(ThresholdViolation):
        recheck_certificates(tight, 10 ** 9)
    # non-certified results are ignored by contract
    loose = DecompositionResult(zero, zero, zero, bud,
                                Certificates(1.0, 0.0, 1.0, 0.70),
                                "failed", ())
    recheck_certificates(loose, 10 ** 9)


def test_verify_dual_bound_is_sound_for_pairings():
    # |<fa, g>| / q <= dual * ||g||_{U^2} for arbitrary 1-bounded g
    from ffprog.functions import random_one_bounded
    from ffprog.gowers import gowers_u2_via_fourier
    f = spike_fn(F101, 15)
    res = quiet(u2_threshold_decompose, f, SCHEDULE_BUDGET)
    dual = res.certificates.dual_bound
    rng = SplitMix64(16)
    for _ in range(50):
        g = random_one_bounded(F101, rng.next_u64())
        lhs = abs(np.vdot(g.values, res.fa.values) / 101)
        assert lhs <= dual * gowers_u2_via_fourier(g).value + 1e-9
