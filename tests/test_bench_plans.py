"""The benchmark's reduced cell plans, run with their own checks.

bench/workloads.py checks every cell against an independent route (the
definition's count, the witness's edge scan, the verifier), so a library
change that breaks one of those checks fails here, inside the test suite.
The module is loaded from its file as it is, without writing bytecode
beside it.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

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
