"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` in its own worker process, with the
program's ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread, and prints
one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones of
``tracing.py`` plus the tracing overhead.  ``--tiny`` shrinks the inputs
(for the benchmark's own tests).  Exits non-zero without a result when the
program's sources are missing or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Interpreter start-ups timed per untraced run; their median is setup_s.
SETUP_RUNS = 3
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def launch(args, out: Path, deadline: float, setup_only: bool) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out), "--src", str(SRC)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the worker")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=worker_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def report(args, setups: list, doc: dict) -> dict:
    if args.trace:
        from tracing import PER_LAYER
        missing = set(PER_LAYER) - set(doc["layers"])
        if missing:
            raise RuntimeError(f"traced run lacks {sorted(missing)}")
        metrics = {name: {"value": doc["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        wall = statistics.median(doc["op_seconds"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "work_per_s": {"value": doc["work"] / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "weakdep" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(launch(args, out, deadline, setup_only=True)["setup_s"])
        doc = launch(args, out, deadline, setup_only=False)
        setups.append(doc["setup_s"])
        print(f"{args.workload} seed {args.seed}: set-ups {setups}, operations "
              f"{doc['op_seconds']}, traced {doc.get('traced_op_seconds')}", file=sys.stderr)
        result = report(args, setups, doc)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
