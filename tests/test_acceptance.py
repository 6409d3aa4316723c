"""Run the numbered acceptance criteria and require a PASS from each.

Each criterion is self-contained and self-timed; the assertion message is
its one-line PASS/FAIL report, so a regression shows up here with the same
text the ``ffprog acceptance`` command would print.
"""

import numpy as np
import pytest

from ffprog import acceptance
from ffprog.acceptance import CRITERIA, CriterionResult, _dual_pairs
from ffprog.field import make_field
from ffprog.functions import inner, random_one_bounded
from ffprog.gowers import gowers_u2_via_fourier


@pytest.mark.parametrize("fn", CRITERIA, ids=[f.__name__ for f in CRITERIA])
def test_criterion_passes(fn):
    res = fn()
    print(res.line())
    assert res.passed, res.line()


def test_registry_is_complete_and_ordered():
    assert len(CRITERIA) == 10
    assert [fn.__name__ for fn in CRITERIA] == [
        f"criterion_{i}" for i in range(1, 11)]
    # every criterion reports the index it is registered under
    for i, fn in enumerate(CRITERIA, start=1):
        assert fn is getattr(acceptance, f"criterion_{i}")


def test_result_line_format():
    ok = CriterionResult(3, "some check", True, "max err 1e-9", 1.234)
    assert ok.line() == "PASS criterion 3: some check (max err 1e-9) [1.2s]"
    bad = CriterionResult(7, "other check", False, "off by 2", 0.05)
    assert bad.line() == "FAIL criterion 7: other check (off by 2) [0.1s]"


@pytest.mark.parametrize("p,k", [(101, 1), (3, 2)])
def test_dual_pairs_match_the_per_function_route(p, k):
    field = make_field(p, k)
    fa = random_one_bounded(field, 7)
    gs = [random_one_bounded(field, seed) for seed in range(20)]
    lhs, u2 = _dual_pairs(fa, np.array([g.values for g in gs]))
    for g, a, b in zip(gs, lhs, u2):
        assert a == pytest.approx(abs(inner(fa, g)), rel=1e-12)
        assert b == pytest.approx(gowers_u2_via_fourier(g).value, rel=1e-12)
