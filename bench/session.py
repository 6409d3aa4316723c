"""One benchmark pass: a fresh process that runs a workload's cells in order.

run.py starts this script once per pass, with the BLAS thread count and
PYTHONPATH already pinned.  It prints one JSON line on stdout: the time
set-up ended (time.monotonic, which is system-wide on Linux, so run.py can
subtract its own spawn time), each cell's latency, check outcome and exact
outputs, the pass's wall time and peak RSS, and, when traced, the
per-layer metrics.

    python3 bench/session.py --workload prime-sweep --seed 1 [--trace]
        [--reduced] [--setup-only] [--spans-out FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

import workloads   # imports ffprog

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_pass(plan, reference=None, tracer=None) -> dict:
    """Run every cell of a plan; a failed check or an exception fails the cell.

    Time spent in workloads.untimed() blocks is left out of each cell's ms
    and of the pass's wall_s.
    """
    cells = []
    untimed_first = workloads.untimed_s
    t_first = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for group in plan:
            for cell in group.cells:
                if tracer is not None:
                    tracer.begin_cell(cell.name)
                untimed0 = workloads.untimed_s
                t0 = time.perf_counter()
                error = exact = None
                try:
                    exact = cell.run(group)
                except Exception as exc:   # a raising cell is a failed cell
                    error = f"{type(exc).__name__}: {exc}"
                ms = (time.perf_counter() - t0
                      - (workloads.untimed_s - untimed0)) * 1e3
                if tracer is not None:
                    tracer.end_cell()
                if error is None and reference is not None:
                    want = reference.get(cell.name)
                    if json.loads(json.dumps(exact)) != want:
                        error = f"exact outputs {exact} differ from reference {want}"
                cells.append({"name": cell.name, "ms": ms, "ok": error is None,
                              "error": error, "exact": exact})
            group.release()
    wall = time.perf_counter() - t_first - (workloads.untimed_s - untimed_first)
    return {"cells": cells, "wall_s": wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reduced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    plan = workloads.build_plan(args.workload, args.seed, args.reduced)
    t_ready = time.monotonic()
    n_cells = sum(len(g.cells) for g in plan)
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready, "n_cells": n_cells,
                          "env": environment()}))
        return 0

    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.reduced:
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    out = run_pass(plan, reference, tracer)
    out.update({"t_ready": t_ready, "n_cells": n_cells,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024})
    if tracer is not None:
        out["layers"] = tracer.summary()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
