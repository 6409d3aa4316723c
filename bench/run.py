#!/usr/bin/env python3
"""ffprog benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload prime-sweep --seed 1 --seconds 42 --trace 0

Run it from the repository root; it runs the library in ./src, not an
installed copy.  A run is a closed loop with one client: passes run one
after another, each in a fresh process (bench/session.py) that builds its
fields and tables from nothing, the way every CLI invocation does.  The
loop starts passes until the next one would end after --seconds, and
runs at least two passes and enough of them for MIN_CELL_SAMPLES cell
latencies.  SETUP_PROBES extra processes only import and
build the plan, so set-up is sampled several times per run.

--trace 0 prints the end-to-end metrics: medians over passes of wall_s
and peak_rss_mb, the median of all set-up samples, and the median and
90th percentile of the latencies of the run's passing cells.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones (medians), with trace.overhead_s = traced wall_s minus
untraced wall_s.  Spans go to bench/out/spans/, and every run's full
record, environment included, to bench/out/.

The last line of stdout is one JSON object: correct, attempted, failed
(cells) and metrics.  The metric names and units are those of
BENCHMARK.json.  --reduced runs a small plan for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

BLAS_THREADS = 1
SETUP_PROBES = 3
MIN_CELL_SAMPLES = 100    # so that ten samples lie beyond cell_p90_ms
LAST_PASS_START_S = 100   # with PASS_TIMEOUT_S, a run ends within 180 s
PASS_TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "blas_threads": BLAS_THREADS}


def spawn(args, env, setup_only=False, traced=False, spans_out=None) -> dict:
    """Run one session process; return its record with setup_s, or a failure."""
    cmd = [sys.executable, str(BENCH_DIR / "session.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if traced else []
    cmd += ["--reduced"] if args.reduced else []
    cmd += ["--spans-out", str(spans_out)] if spans_out else []
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {PASS_TIMEOUT_S} s"}
    elapsed = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"session exited with {proc.returncode}"}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["t_ready"] - t_spawn
    rec["elapsed_s"] = elapsed
    rec["traced"] = traced
    return rec


def end_to_end(passes, probes) -> dict:
    ok_ms = [c["ms"] for p in passes for c in p["cells"] if c["ok"]]
    if len(ok_ms) < 2:
        return {}
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(r["setup_s"] for r in probes + passes),
        "cell_p50_ms": statistics.median(ok_ms),
        "cell_p90_ms": statistics.quantiles(ok_ms, n=10)[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if not traced or not plain:
        return {}
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small plan, for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ffprog" / "__init__.py").is_file():
        print(f"run.py: no ffprog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    spans_dir = OUT_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    t_run = time.monotonic()
    probes, passes, broken = [], [], []
    for _ in range(SETUP_PROBES):
        rec = spawn(args, env, setup_only=True)
        (broken if "error" in rec else probes).append(rec)
    if not probes:
        print(f"run.py: set-up failed: {broken[0]['error']}", file=sys.stderr)
        return 2
    n_cells = probes[0]["n_cells"]
    min_passes = 2 if args.reduced else max(
        2, math.ceil(MIN_CELL_SAMPLES / n_cells))
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans = spans_dir / f"{tag}-pass{len(passes)}.csv.gz" if traced else None
        rec = spawn(args, env, traced=traced, spans_out=spans)
        if "error" in rec:
            broken.append(rec)
            passes.append({"cells": [{"ok": False, "error": rec["error"]}]
                           * n_cells, "traced": traced, "broken": True})
            break
        passes.append(rec)
        elapsed = time.monotonic() - t_run
        longest = max(p["elapsed_s"] for p in passes if "elapsed_s" in p)
        if len(passes) >= min_passes and (elapsed + longest > args.seconds
                                          or elapsed > LAST_PASS_START_S):
            break

    good = [p for p in passes if not p.get("broken")]
    attempted = sum(len(p["cells"]) for p in passes)
    failed = sum(not c["ok"] for p in passes for c in p["cells"])
    kind = "per_layer" if args.trace else "end_to_end"
    values = per_layer(good) if args.trace else end_to_end(good, probes)
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    complete = set(values) == set(units)
    correct = failed == 0 and not broken and complete
    if not complete and values:
        print(f"run.py: metrics {sorted(set(values) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    env_record = {**probes[0]["env"], **host()}
    failures = [f"{c.get('name', 'pass')}: {c['error']}"
                for p in passes for c in p["cells"] if not c["ok"]]
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "passes": len(passes),
               "cell_samples": attempted - failed,
               "fail_frac": failed / attempted if attempted else 1.0,
               "env": env_record}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {**summary, "metrics": metrics, "probes": probes, "passes": passes,
         "errors": [b["error"] for b in broken]}, indent=1))
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
