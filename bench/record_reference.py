#!/usr/bin/env python3
"""Record every cell's exact outputs at the default seed into reference.json.

    python3 bench/record_reference.py

Passes at the default seed compare each cell against this file, so a
library change that alters a count, an r value, an edge count or a
decomposition status fails the cell.  Record again only when the plan in
workloads.py changes, never to absorb a changed library output.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import session    # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.PLANS:
        plan = workloads.build_plan(name, workloads.DEFAULT_SEED)
        cells = session.run_pass(plan)["cells"]
        bad = [c for c in cells if not c["ok"]]
        if bad:
            for c in bad:
                print(f"{name} {c['name']}: {c['error']}", file=sys.stderr)
            return 1
        reference[name] = {c["name"]: c["exact"] for c in cells}
        print(f"{name}: {len(cells)} cells", file=sys.stderr)
    session.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                                 + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
