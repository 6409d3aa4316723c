"""The benchmark's reduced cell plans, run with their own checks.

bench/workloads.py checks every cell against an independent route (the
definition's count, the witness's edge scan, the verifier), so a library
change that breaks one of those checks fails here, inside the test suite,
and a fault that both library count routes share must still fail the
count cells.
The module is loaded from its file as it is, without writing bytecode
beside it.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

from ffprog import counting

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it loads
    sys.modules[spec.name] = module
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("workload", ["prime-sweep", "extension-field",
                                      "extremal"])
def test_reduced_plan_cells_pass_their_checks(workloads, workload):
    plan = workloads.build_plan(workload, 7, reduced=True)
    assert plan and all(g.cells for g in plan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # as bench/session.py runs a pass
        for group in plan:
            for cell in group.cells:
                cell.run(group)   # raises CellFailure when a check fails
            group.release()


def _last_coefficient_plus_one(real):
    def faulty(field, coeffs):
        rows = real(field, coeffs)
        nonzero = rows.any(axis=1)
        rows[nonzero, -1] = (rows[nonzero, -1] + 1) % field.p
        return rows
    return faulty


@pytest.mark.parametrize("fault", [True, False], ids=["fault", "no-op"])
def test_a_fault_both_count_routes_share_fails_the_count_cells(
        workloads, monkeypatch, fault):
    # count_progressions and main_term_error both read the P(y) rows that
    # counting._poly_rows makes (cached per field by _system_rows), so a
    # fault there makes them agree with each other; the count cells' own
    # count from the definition must still catch it, on every field.  The
    # plans build their fields after the patch, so every count reads it.
    real = counting._poly_rows
    monkeypatch.setattr(counting, "_poly_rows",
                        _last_coefficient_plus_one(real) if fault
                        else lambda field, coeffs: real(field, coeffs))
    outcomes = {}
    for workload in ("prime-sweep", "extension-field"):
        for group in workloads.build_plan(workload, 7, reduced=True):
            for cell in group.cells:
                if not cell.name.startswith("count/"):
                    continue
                try:
                    cell.run(group)
                    outcomes[cell.name] = "passed"
                except workloads.CellFailure as failure:
                    outcomes[cell.name] = str(failure)
            group.release()
    fields = {name.split("/")[1] for name in outcomes}
    assert fields == {"p31", "p61", "2^3", "3^2"}
    if fault:
        assert all("the definition gives" in outcome
                   for outcome in outcomes.values()), outcomes
    else:
        assert set(outcomes.values()) == {"passed"}
