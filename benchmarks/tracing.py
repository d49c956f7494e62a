"""Per-layer tracing of the program from outside.

The program is not edited.  :class:`Tracer` replaces chosen public functions
at every ``weakdep`` module attribute that refers to them (so calls through
``from .x import f`` copies are seen too) and restores them afterwards.  Each
call opens a span: name, start, end and the enclosing span.  A span's self
time is its duration minus the time its traced children cover.  Spans and
counters stay in memory; :meth:`Tracer.dump` writes them once, at the end.

Hot leaf functions (called thousands of times per operation) are only
aggregated, not kept as span records.  Memory peaks come from tracemalloc in
a separate pass, because tracing every allocation would distort the times.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, function, kept as span records)
TRACED = [
    ("rng", "substream", False),
    ("processes", "sample_chain_paths", True),
    ("processes", "sample_lsv_ensemble", True),
    ("coefficients", "theta_exact", True),
    ("coefficients", "summarize_chain", True),
    ("coefficients", "sigma2_certified", True),
    ("bounds", "path_statistics", True),
    ("bounds", "empirical_tail", True),
    ("bounds", "fit_constants", True),
    ("bounds", "validate_constants", True),
    ("coupling", "block_sum_dist", False),
    ("coupling", "gaussian_quantile", False),
    ("coupling", "skorohod_split", False),
    ("coupling", "coupling_errors", True),
    ("experiments", "coupling_sup_errors", True),
    ("experiments", "run_rate_experiment", True),
    ("experiments", "run_lsv_experiment", True),
    ("reporting", "emit_report", True),
]

# Functions whose tracemalloc peak is reported, in the memory pass.
MEMORY = [("bounds", "path_statistics"), ("processes", "sample_lsv_ensemble")]

# Coupling construction time: coupling_sup_errors minus these direct children.
CONSTRUCT_EXCLUDES = ("processes.sample_chain_paths", "coupling.coupling_errors",
                      "coefficients.sigma2_certified")

# name -> unit; the order is the report order.
PER_LAYER = {
    "rng.substreams": "count",
    "rng.substream_s": "s",
    "bounds.tail_queries": "count",
    "bounds.simulations": "count",
    "bounds.useful_sim_ratio": "ratio",
    "bounds.path_statistics_s": "s",
    "bounds.fit_search_s": "s",
    "bounds.peak_mb": "MB",
    "processes.chain_paths": "count",
    "processes.chain_steps": "count",
    "processes.sample_chain_paths_s": "s",
    "processes.lsv_steps": "count",
    "processes.lsv_ensemble_s": "s",
    "processes.lsv_peak_mb": "MB",
    "coefficients.theta_exact_calls": "count",
    "coefficients.theta_exact_s": "s",
    "coefficients.summarize_chain_s": "s",
    "coefficients.sigma2_calls": "count",
    "coefficients.sigma2_s": "s",
    "coupling.blocks": "count",
    "coupling.construct_s": "s",
    "coupling.block_law_calls": "count",
    "coupling.block_law_s": "s",
    "coupling.block_tensor_hits": "count",
    "coupling.block_tensor_misses": "count",
    "coupling.quantile_calls": "count",
    "coupling.split_s": "s",
    "coupling.errors_s": "s",
    "experiments.sup_errors_s": "s",
    "reporting.emit_s": "s",
    "reporting.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _patch_everywhere(original, replacement) -> list:
    """Point every weakdep module attribute bound to `original` at `replacement`."""
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "weakdep" or mod_name.startswith("weakdep.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))
    return patched


class Tracer:
    """Spans, counters and memory peaks for one traced run."""

    def __init__(self):
        self.spans = []          # (id, op, name, parent id, start, end, self)
        self._stack = []         # open frames: [id, child time, child time by name]
        self._next_id = 0
        self._patched = []
        self.op = -1
        self.begin_op(-1)

    # -- one operation's aggregates ---------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.sim_keys = set()
        self.peaks = defaultdict(float)

    # -- spans --------------------------------------------------------------
    def _enter(self):
        frame = [self._next_id, 0.0, defaultdict(float)]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, start, end, record):
        self._stack.pop()
        duration = end - start
        own = duration - frame[1]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += own
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent[2][name] += duration
        if name == "experiments.coupling_sup_errors":
            self.counters["coupling.construct_s"] += duration - sum(
                frame[2][c] for c in CONSTRUCT_EXCLUDES)
        if record:
            parent_id = self._stack[-1][0] if self._stack else None
            self.spans.append((frame[0], self.op, name, parent_id, start, end, own))

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a recorded span called `name`."""
        frame = self._enter()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame, start, time.perf_counter(), True)

    def _timing_wrapper(self, name, fn, record):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, time.perf_counter(), record)
            if observe:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    def _memory_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks[name], peak / 2**20)
        return wrapper

    # -- counters read from arguments and results ---------------------------
    def _observe_processes_sample_chain_paths(self, args, result):
        reps = len(args["replicates"])
        self.counters["processes.chain_paths"] += reps
        self.counters["processes.chain_steps"] += reps * int(args["n"])

    def _observe_processes_sample_lsv_ensemble(self, args, result):
        reps = len(args["replicates"])
        self.counters["processes.lsv_steps"] += reps * (args["process"].burn_in + int(args["n"]))

    def _observe_bounds_path_statistics(self, args, result):
        self.sim_keys.add((int(args["n"]), int(args["seed"]), int(args["replicates"])))

    def _observe_coupling_coupling_errors(self, args, result):
        self.counters["coupling.blocks"] += sum(len(u) for u in args["path"].u_by_level)

    def _observe_reporting_emit_report(self, args, result):
        self.counters["reporting.bytes_written"] += sum(os.path.getsize(p) for p in result)

    # -- installing ---------------------------------------------------------
    def install(self, memory: bool = False) -> None:
        """Wrap the traced functions (timing pass) or the memory functions.
        The weakdep modules must already be imported."""
        targets = ([(m, f, True) for m, f in MEMORY] if memory else TRACED)
        for module, fn_name, record in targets:
            original = getattr(sys.modules["weakdep." + module], fn_name)
            name = f"{module}.{fn_name}"
            wrapped = (self._memory_wrapper(name, original) if memory
                       else self._timing_wrapper(name, original, record))
            self._patched += _patch_everywhere(original, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- reporting ------------------------------------------------------------
    def op_metrics(self, cache_delta: tuple[int, int]) -> dict:
        """Per-layer metrics of the operation traced since begin_op."""
        c, t, s, k = self.calls, self.total, self.self_time, self.counters
        sims = c["bounds.path_statistics"]
        return {
            "rng.substreams": c["rng.substream"],
            "rng.substream_s": t["rng.substream"],
            "bounds.tail_queries": c["bounds.empirical_tail"],
            "bounds.simulations": sims,
            "bounds.useful_sim_ratio": len(self.sim_keys) / sims if sims else 0.0,
            "bounds.path_statistics_s": t["bounds.path_statistics"],
            "bounds.fit_search_s": s["bounds.fit_constants"],
            "processes.chain_paths": k["processes.chain_paths"],
            "processes.chain_steps": k["processes.chain_steps"],
            "processes.sample_chain_paths_s": t["processes.sample_chain_paths"],
            "processes.lsv_steps": k["processes.lsv_steps"],
            "processes.lsv_ensemble_s": t["processes.sample_lsv_ensemble"],
            "coefficients.theta_exact_calls": c["coefficients.theta_exact"],
            "coefficients.theta_exact_s": t["coefficients.theta_exact"],
            "coefficients.summarize_chain_s": t["coefficients.summarize_chain"],
            "coefficients.sigma2_calls": c["coefficients.sigma2_certified"],
            "coefficients.sigma2_s": t["coefficients.sigma2_certified"],
            "coupling.blocks": k["coupling.blocks"],
            "coupling.construct_s": k["coupling.construct_s"],
            "coupling.block_law_calls": c["coupling.block_sum_dist"],
            "coupling.block_law_s": t["coupling.block_sum_dist"],
            "coupling.block_tensor_hits": cache_delta[0],
            "coupling.block_tensor_misses": cache_delta[1],
            "coupling.quantile_calls": c["coupling.gaussian_quantile"],
            "coupling.split_s": t["coupling.skorohod_split"],
            "coupling.errors_s": t["coupling.coupling_errors"],
            "experiments.sup_errors_s": t["experiments.coupling_sup_errors"],
            "reporting.emit_s": t["reporting.emit_report"],
            "reporting.bytes_written": k["reporting.bytes_written"],
            "cli.self_s": s["cli"],
        }

    def memory_metrics(self) -> dict:
        return {"bounds.peak_mb": self.peaks["bounds.path_statistics"],
                "processes.lsv_peak_mb": self.peaks["processes.sample_lsv_ensemble"]}

    def function_table(self) -> dict:
        """calls, total and self seconds per traced function, this operation."""
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]} for name in sorted(self.calls)}

    def dump(self, path: str, extra: dict) -> None:
        keys = ("id", "op", "name", "parent", "start", "end", "self_s")
        doc = {**extra, "spans": [dict(zip(keys, span)) for span in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
