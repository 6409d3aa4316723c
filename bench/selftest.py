#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 bench/selftest.py

They run the reduced plans (run.py --reduced) and take about a minute.
The file name keeps pytest from collecting them into the library's suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    return proc


def result_and_record(workload: str, trace: int):
    proc = run_bench(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / "out" /
                         f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return result, record


class ReducedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {(w, t, i): result_and_record(w, t)
                    for w in WORKLOADS for t in (0, 1) for i in range(2 if t else 1)}

    def test_every_metric_is_emitted_with_its_unit(self):
        for (workload, trace, _), (result, _) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                spec = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
                for m in spec:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))

    def test_exact_counters_repeat(self):
        exact = ("rng.draws", "field.tables_built", "gowers.naive_ops",
                 "extremal.nodes", "extremal.edges", "counting.y_steps",
                 "functions.fourier_calls", "decomposition.cutoffs_tried")
        for workload in WORKLOADS:
            first = self.runs[(workload, 1, 0)][0]["metrics"]
            second = self.runs[(workload, 1, 1)][0]["metrics"]
            for name in exact:
                with self.subTest(workload=workload, counter=name):
                    self.assertEqual(first[name]["value"], second[name]["value"])
            self.assertGreater(first["rng.draws"]["value"], 0)
            self.assertGreater(first["field.tables_built"]["value"], 0)

    def test_cells_pin_results_not_work(self):
        # a search that explores fewer nodes must not fail the reference
        for (workload, _, _), (_, record) in self.runs.items():
            for rec in record["passes"]:
                for cell in rec["cells"]:
                    self.assertNotIn("nodes", cell["exact"])


class Gates(unittest.TestCase):
    """Cells run in this process, against a deliberately corrupted library."""

    @classmethod
    def setUpClass(cls):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
        import ffprog
        import session
        import workloads
        cls.fp, cls.session, cls.workloads = ffprog, session, workloads

    def test_count_off_by_one_fails_its_cells(self):
        real = self.fp.count_progressions
        self.fp.count_progressions = lambda *a, **kw: real(*a, **kw) + 1
        try:
            plan = self.workloads.build_plan("prime-sweep", SEED, reduced=True)
            cells = self.session.run_pass(plan)["cells"]
        finally:
            self.fp.count_progressions = real
        failed = {c["name"] for c in cells if not c["ok"]}
        self.assertGreater(len(failed) / len(cells), 0)
        self.assertEqual(failed, {c["name"] for c in cells
                                  if c["name"].startswith("count/")})

    def test_fault_shared_by_both_library_routes_fails(self):
        # count_progressions and main_term_error share _shifted, so a fault
        # there makes them agree with each other; the independent count
        # still catches it, on prime and extension fields alike
        counting = sys.modules["ffprog.counting"]
        real = counting._shifted
        counting._shifted = lambda F, v, e: real(F, v, (e + 1) % F.q if e else 0)
        try:
            cells = []
            for workload in ("prime-sweep", "extension-field"):
                plan = self.workloads.build_plan(workload, SEED, reduced=True)
                cells += self.session.run_pass(plan)["cells"]
        finally:
            counting._shifted = real
        # a small random set can be blind to the fault, so ask for a caught
        # fault in every field rather than in every cell
        fields = {c["name"].split("/")[1] for c in cells
                  if c["name"].startswith("count/")}
        caught = {c["name"].split("/")[1] for c in cells
                  if c["name"].startswith("count/") and not c["ok"]
                  and "the definition gives" in c["error"]}
        self.assertEqual(len(fields), 4)
        self.assertEqual(caught, fields)

    def test_untimed_checks_leave_the_timings(self):
        plan = self.workloads.build_plan("prime-sweep", SEED, reduced=True)
        plan[0].cells[0].run = lambda g: time.sleep(0.3) or {}
        real = plan[0].cells[1].run

        def slow_check(g):
            with self.workloads.untimed():
                time.sleep(0.3)
            return real(g)
        plan[0].cells[1].run = slow_check
        out = self.session.run_pass(plan)
        self.assertGreaterEqual(out["cells"][0]["ms"], 300)
        self.assertLess(out["cells"][1]["ms"], 300)
        self.assertLess(out["wall_s"], sum(c["ms"] for c in out["cells"]) / 1e3
                        + 0.1)

    def test_reference_mismatch_fails(self):
        plan = self.workloads.build_plan("extremal", SEED, reduced=True)
        reference = {c.name: {"r": -1} for g in plan for c in g.cells}
        cells = self.session.run_pass(plan, reference)["cells"]
        self.assertTrue(all(not c["ok"] for c in cells))

    def test_seeds_change_inputs(self):
        def counts(seed):
            plan = self.workloads.build_plan("prime-sweep", seed, reduced=True)
            return [c["exact"] for c in self.session.run_pass(plan)["cells"]
                    if c["name"].startswith("count/")]
        self.assertNotEqual(counts(SEED), counts(SEED + 1))


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("prime-sweep", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
