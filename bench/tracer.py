"""Per-layer spans and work counters, recorded from outside the package.

install() wraps the public functions of each layer module, the FieldSpec
table methods and the SplitMix64 draw methods.  The modules import each
other with `from .x import y`, so every module namespace that holds a
function gets the wrapped one.

A span is opened only where a call crosses into a layer from outside it
(from the benchmark or from another layer); a call inside the same layer
runs unwrapped in effect.  FieldElement arithmetic is not wrapped at all:
it runs millions of times inside character_matrix and its time counts
toward the calling span.  A layer's self time is its spans' time minus
the time of the spans nested in them.  `<layer>.calls` counts spans.

Spans stay in memory and are written out by write_spans when the pass
ends.  Work counters are taken at the same boundaries; they are exact and
repeat exactly for a given plan and seed.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("field", "polys", "functions", "gowers", "counting", "schedule",
          "decomposition", "extremal", "rng")
FIELD_TABLE_METHODS = ("elements", "trace_vector", "omega_powers",
                       "add_index_table", "neg_perm", "character_matrix")
RNG_METHODS = ("next_u64", "random", "randrange", "shuffle", "unit_disk",
               "subset")

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)

COUNTERS = ("field.tables_built", "field.table_bytes", "functions.fourier_calls",
            "functions.fourier_bytes", "gowers.naive_ops",
            "gowers.spectral_calls", "counting.y_steps", "counting.weil_bytes",
            "decomposition.cutoffs_tried", "decomposition.attempted",
            "decomposition.certified", "rng.disk_accepted",
            "rng.disk_attempted", "extremal.nodes", "extremal.exact_s",
            "extremal.edges")


def draws_since(state0: int, state: int) -> int:
    """Outputs drawn from a SplitMix64 stream that went from state0 to state.

    After n outputs the state is state0 + n * GOLDEN mod 2^64, and GOLDEN
    is odd, so n = (state - state0) * GOLDEN^-1 mod 2^64.
    """
    return ((state - state0) * _GOLDEN_INV) & _MASK


class Tracer:
    def __init__(self):
        self.names: list[str] = []       # "layer.function", by name id
        self.spans: list = []            # (cell, name id, parent, start, end)
        self.cells: list = []            # (name, start, end)
        self.stack: list = []            # [layer, span index, child time]
        self.generators: list = []       # (SplitMix64, seed state)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.origin = time.perf_counter()

    # -- cells ---------------------------------------------------------------

    def begin_cell(self, name: str) -> None:
        self.cells.append([name, time.perf_counter(), None])

    def end_cell(self) -> None:
        self.cells[-1][2] = time.perf_counter()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, fname: str, fn, hook=None):
        name_id = len(self.names)
        self.names.append(f"{layer}.{fname}")
        stack, spans, self_time = self.stack, self.spans, self.self_time
        layer_calls, cells = self.layer_calls, self.cells
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            finish = hook(args, kwargs) if hook is not None else None
            parent = stack[-1][1] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [layer, idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                self_time[layer] += dur - frame[2]
                layer_calls[layer] += 1
                spans[idx] = (len(cells) - 1, name_id, parent, start, end)
            if finish is not None:
                finish(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", fname)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions in every ffprog namespace."""
        import ffprog  # noqa: F401  (loads every submodule)

        namespaces = [m for n, m in sys.modules.items()
                      if n == "ffprog" or n.startswith("ffprog.")]
        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules[f"ffprog.{layer}"]
            for fname, obj in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(layer, fname, obj, hooks.get(fname))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, wrapped)

        field_spec = sys.modules["ffprog.field"].FieldSpec
        for meth in FIELD_TABLE_METHODS:
            setattr(field_spec, meth, self._wrap(
                "field", f"FieldSpec.{meth}", vars(field_spec)[meth],
                self._table_hook))

        gen_cls = sys.modules["ffprog.rng"].SplitMix64
        for meth in RNG_METHODS:
            hook = self._disk_hook if meth == "unit_disk" else None
            setattr(gen_cls, meth, self._wrap(
                "rng", f"SplitMix64.{meth}", vars(gen_cls)[meth], hook))
        init = gen_cls.__init__
        generators = self.generators

        def registering_init(gen, seed):
            init(gen, seed)
            generators.append((gen, gen.state))

        gen_cls.__init__ = registering_init

    # -- counters ------------------------------------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def fourier(args, kwargs):
            q = _arg(args, kwargs, 0, "f").field.q
            c["functions.fourier_calls"] += 1
            c["functions.fourier_bytes"] += q * q * 16   # chi.conj()

        def naive(args, kwargs):
            q = _arg(args, kwargs, 0, "f").field.q
            c["gowers.naive_ops"] += q ** (_arg(args, kwargs, 1, "s") + 1)

        def spectral(args, kwargs):
            c["gowers.spectral_calls"] += 1

        def count(args, kwargs):
            # every benchmark cell passes the field explicitly
            q = _arg(args, kwargs, 3, "field").q
            c["counting.y_steps"] += q * _arg(args, kwargs, 0, "system").m1

        def main_term(args, kwargs):
            def finish(res):
                c["counting.y_steps"] += res.q * res.system.m1
            return finish

        def weil(args, kwargs):
            p = _arg(args, kwargs, 0, "p")
            c["counting.weil_bytes"] += p * p * 24   # int64 phase + complex gather

        def decompose(args, kwargs):
            q = _arg(args, kwargs, 0, "f").field.q

            def finish(res):
                c["decomposition.cutoffs_tried"] += int(math.ceil(math.log2(q))) + 1
                c["decomposition.attempted"] += 1
                c["decomposition.certified"] += res.status == "certified"
            return finish

        def hypergraph(args, kwargs):
            def finish(hg):
                c["extremal.edges"] += len(hg.edges)
            return finish

        def exact(args, kwargs):
            t0 = time.perf_counter()

            def finish(res):
                c["extremal.nodes"] += res.nodes_explored
                c["extremal.exact_s"] += time.perf_counter() - t0
            return finish

        return {"fourier_transform": fourier, "gowers_norm": naive,
                "gowers_u2_via_fourier": spectral,
                "u2_dual_upper_bound": spectral,
                "count_progressions": count,
                "main_term_error": main_term,
                "additive_monomial_sums": weil,
                "u2_threshold_decompose": decompose,
                "build_hypergraph": hypergraph, "r_exact": exact}

    def _table_hook(self, args, kwargs):
        cache = args[0]._cache
        before = set(cache)

        def finish(_):
            for key in set(cache) - before:
                self.counters["field.tables_built"] += 1
                if isinstance(cache[key], np.ndarray):
                    self.counters["field.table_bytes"] += cache[key].nbytes
        return finish

    def _disk_hook(self, args, kwargs):
        gen = args[0]
        state0 = gen.state

        def finish(_):
            self.counters["rng.disk_accepted"] += 1
            self.counters["rng.disk_attempted"] += draws_since(state0, gen.state) // 2
        return finish

    # -- results -------------------------------------------------------------

    def draws(self) -> int:
        return sum(draws_since(s0, gen.state) for gen, s0 in self.generators)

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        c = self.counters
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
        draws = self.draws()
        out.update({
            "field.tables_built": c["field.tables_built"],
            "field.table_mb": c["field.table_bytes"] / 1e6,
            "functions.fourier_calls": c["functions.fourier_calls"],
            "functions.fourier_mb": c["functions.fourier_bytes"] / 1e6,
            "gowers.naive_ops": c["gowers.naive_ops"],
            "gowers.spectral_calls": c["gowers.spectral_calls"],
            "counting.y_steps": c["counting.y_steps"],
            "counting.weil_mb": c["counting.weil_bytes"] / 1e6,
            "decomposition.cutoffs_tried": c["decomposition.cutoffs_tried"],
            "decomposition.certified_ratio": _ratio(
                c["decomposition.certified"], c["decomposition.attempted"]),
            "rng.draws": draws,
            "rng.draws_per_s": _ratio(draws, self.self_time["rng"]),
            "rng.disk_accept_ratio": _ratio(c["rng.disk_accepted"],
                                            c["rng.disk_attempted"]),
            "extremal.nodes": c["extremal.nodes"],
            "extremal.nodes_per_s": _ratio(c["extremal.nodes"],
                                           c["extremal.exact_s"]),
            "extremal.edges": c["extremal.edges"],
            "trace.spans": len(self.spans),
        })
        return out

    def write_spans(self, path) -> None:
        """Spans and cells as gzipped CSV; times in seconds from tracer start."""
        t0 = self.origin
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["kind", "id", "parent", "cell", "name", "start_s", "end_s"])
            for i, (name, start, end) in enumerate(self.cells):
                w.writerow(["cell", i, -1, i, name, f"{start - t0:.9f}",
                            f"{end - t0:.9f}"])
            for i, span in enumerate(self.spans):
                if span is None:   # still open: the pass ended inside a call
                    continue
                cell, name_id, parent, start, end = span
                w.writerow(["span", i, parent, cell, self.names[name_id],
                            f"{start - t0:.9f}", f"{end - t0:.9f}"])


def _arg(args, kwargs, pos: int, name: str):
    """A call's argument, passed by position or by keyword."""
    return args[pos] if len(args) > pos else kwargs[name]


def _ratio(num, den) -> float:
    return num / den if den else 0.0
