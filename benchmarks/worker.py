"""One workload in one process: set up, run whole operations for the given
number of seconds, check each output, print one JSON line.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH`` and the
BLAS thread pools pinned to one thread.  ``--t0`` is the starter's
``time.monotonic()`` just before it launched this interpreter, so the set-up
time covers interpreter start-up, importing ``weakdep.cli`` and writing the
configs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import weakdep.cli
    if not os.path.abspath(weakdep.cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"weakdep imported from {weakdep.cli.__file__}, not {args.src}")
    shutil.rmtree(args.out, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, args.out, tiny=args.tiny)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from checks import CheckFailed
    from tracing import Tracer
    cli_main = weakdep.cli.main
    block_tensor = sys.modules["weakdep.coupling"]._block_tensor

    def invoke(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(argv, standalone_mode=False)

    tracer = Tracer()
    # Trace runs cycle plain, timed-trace and memory-trace operations, so the
    # overhead is traced minus plain time within one process.
    modes = ["plain", "timed", "memory"] if args.trace else ["plain"]
    times = {mode: [] for mode in modes}
    layer_rows, memory_rows, function_rows = [], [], []
    attempted = failed = 0
    correct = True
    spent = 0.0
    op = 0
    while True:
        mode = modes[op % len(modes)]
        planned = statistics.median(times[mode]) if times[mode] else 0.0
        if op >= len(modes) and spent + planned > args.seconds:
            break
        attempted += 1
        tracer.begin_op(op)
        if mode != "plain":
            tracer.install(memory=(mode == "memory"))
        before = block_tensor.cache_info()
        start = time.perf_counter()
        try:
            if mode == "timed":
                workload.operation(op, lambda a: tracer.call("cli", invoke, a))
            else:
                workload.operation(op, invoke)
            elapsed = time.perf_counter() - start
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            failed += 1
            op += 1
            spent += elapsed
            continue
        finally:
            tracer.uninstall()
        after = block_tensor.cache_info()
        spent += elapsed
        times[mode].append(elapsed)
        if mode == "timed":
            layer_rows.append(tracer.op_metrics((after.hits - before.hits,
                                                 after.misses - before.misses)))
            function_rows.append(tracer.function_table())
        elif mode == "memory":
            memory_rows.append(tracer.memory_metrics())
        try:
            workload.check(op)
        except CheckFailed as exc:
            print(f"{args.workload} op {op}: check failed: {exc}", file=sys.stderr)
            failed += 1
            correct = False
        op += 1

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "setup_s": setup_s, "op_seconds": times["plain"],
              "work": workload.work,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        layers = {name: statistics.median(row[name] for row in layer_rows)
                  for name in layer_rows[0]} if layer_rows else {}
        layers.update({name: statistics.median(row[name] for row in memory_rows)
                       for name in memory_rows[0]} if memory_rows else {})
        if times["plain"] and times["timed"]:
            layers["trace.overhead_s"] = (statistics.median(times["timed"])
                                          - statistics.median(times["plain"]))
        result["layers"] = layers
        result["traced_op_seconds"] = times["timed"]
        tracer.dump(os.path.join(args.out, "trace.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "plain_op_seconds": times["plain"],
                     "traced_op_seconds": times["timed"],
                     "per_op_layers": layer_rows, "per_op_memory": memory_rows,
                     "per_op_functions": function_rows})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
