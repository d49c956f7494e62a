"""Tests of the benchmark itself: each check accepts a right output and
rejects a deliberately wrong one, the references agree with brute force, and
every workload runs end to end at a tiny size.

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

FLIP = [[0.75, 0.25], [0.25, 0.75]]


def brute_tail(transition, obs_int, n, m):
    pi = checks.stationary(transition)
    total = 0.0
    for start in range(len(transition)):
        for seq in product(range(len(transition)), repeat=n):
            prob, prev, s, hit = pi[start], start, 0, False
            for state in seq:
                prob *= transition[prev][state]
                s += obs_int[state]
                hit = hit or s >= m
                prev = state
            total += prob if hit else 0.0
    return total


@pytest.mark.parametrize("transition, obs_int", [
    (FLIP, [1, -1]),
    ([[0.5, 0.25, 0.25], [0.125, 0.75, 0.125], [0.25, 0.25, 0.5]], [2, 0, -1]),
])
def test_first_passage_matches_enumeration(transition, obs_int):
    for n, m in [(1, 1), (4, 2), (7, 3), (7, 1)]:
        assert checks.first_passage_tail(transition, obs_int, n, m) == pytest.approx(
            brute_tail(transition, obs_int, n, m), abs=1e-14)


def test_sigma2_fundamental_flip():
    for a in (0.125, 0.25, 0.375):
        p = [[1 - a, a], [a, 1 - a]]
        assert checks.sigma2_fundamental(p, [1.0, -1.0]) == pytest.approx((1 - a) / a)


def tail_rows(replicates=2048):
    rows, exact = [], []
    for n, x in [(256, 40.3), (512, 70.0), (1024, 120.5)]:
        p = checks.first_passage_tail(FLIP, [1, -1], n, math.ceil(x))
        rows.append({"n": n, "x": x, "p_hat": round(p * replicates) / replicates,
                     "rhs": 2 * p})
        exact.append(p)
    return rows, exact


def test_tail_band_rejects_moved_probability():
    rows, exact = tail_rows()
    checks.check_tail_band(rows, exact, 2048)
    lo, hi = checks.binomial_band(exact[1], 2048)
    rows[1]["p_hat"] = (hi + 1) / 2048
    with pytest.raises(CheckFailed):
        checks.check_tail_band(rows, exact, 2048)


def test_dominance_rejects_bound_below_exact_tail():
    rows, exact = tail_rows()
    checks.check_dominance(rows, exact)
    rows[2]["rhs"] = 0.99 * exact[2]
    with pytest.raises(CheckFailed):
        checks.check_dominance(rows, exact)


def test_sigma2_off_by_1e6_is_rejected():
    checks.check_close(3.0 + 1e-11, 3.0, 1e-9, "sigma2")
    with pytest.raises(CheckFailed):
        checks.check_close(3.0 + 1e-6, 3.0, 1e-9, "sigma2")
    with pytest.raises(CheckFailed):     # the coeffs-table tolerance
        checks.check_close(1e-6, 0.0, 0.0, "sigma2", abs_tol=1e-8)


def test_rate_check():
    ns = [2 ** k for k in range(10, 16)]
    values = [0.7 * n ** 0.27 for n in ns]
    slope = checks.ols_slope(ns, values)
    assert slope == pytest.approx(0.27)
    checks.check_rate(ns, values, slope, 0.25, 0.08, 0.03)
    with pytest.raises(CheckFailed):          # summary disagrees with the rows
        checks.check_rate(ns, values, slope + 0.01, 0.25, 0.08, 0.03)
    far = [0.7 * n ** 0.5 for n in ns]        # an uncoupled Gaussian partner
    with pytest.raises(CheckFailed):
        checks.check_rate(ns, far, checks.ols_slope(ns, far), 0.25, 0.08, 0.03)


def test_block_law_rejects_permuted_law():
    from weakdep import flip_chain
    from weakdep.coupling import block_sum_dist
    chain = flip_chain(0.25)
    for m in range(4):
        dist = block_sum_dist(chain, 0, m)
        brute = checks.brute_block_law(FLIP, [1, -1], 0, 2 ** m)
        checks.check_block_law(dist.sums_int, dist.probs, dist.end_state_probs, brute)
    dist = block_sum_dist(chain, 1, 3)
    brute = checks.brute_block_law(FLIP, [1, -1], 1, 8)
    with pytest.raises(CheckFailed):
        checks.check_block_law(dist.sums_int, dist.probs[::-1], dist.end_state_probs, brute)
    with pytest.raises(CheckFailed):
        checks.check_block_law(dist.sums_int, dist.probs, dist.end_state_probs[:, ::-1], brute)


def test_coupled_path_check():
    from weakdep import flip_chain
    from weakdep.coupling import build_coupling, make_schedule
    path = build_coupling(flip_chain(0.25), make_schedule(11, 4.0), 3.0, 2 ** 12, seed=5)
    checks.check_coupled_path(path.x, path.z, 3.0, [-1.0, 1.0])
    with pytest.raises(CheckFailed):          # S increments off {-1, +1}
        checks.check_coupled_path(2 * path.x, path.z, 3.0, [-1.0, 1.0])
    with pytest.raises(CheckFailed):          # T increments copied from S: not Gaussian
        checks.check_coupled_path(path.x, math.sqrt(3.0) * path.x, 3.0, [-1.0, 1.0])
    with pytest.raises(CheckFailed):          # wrong variance
        checks.check_coupled_path(path.x, 2 * path.z, 3.0, [-1.0, 1.0])


def test_orbit_check():
    x = [0.3]
    for _ in range(500):
        x.append(float(checks.lsv_map(0.375, x[-1])))
    orbits = np.array([x])
    checks.check_orbits(0.375, orbits)
    bad = orbits.copy()
    bad[0, 250] *= 1 + 1e-9
    with pytest.raises(CheckFailed):
        checks.check_orbits(0.375, bad)
    bad = orbits.copy()
    bad[0, -1] = 1.5
    with pytest.raises(CheckFailed):
        checks.check_orbits(0.375, bad)


def test_sup_growth_and_theta_checks():
    ns = [2 ** 11, 2 ** 13, 2 ** 15]
    checks.check_sup_growth(ns, [115.0, 108.0, 169.0], 0.6)   # a laminar outlier
    with pytest.raises(CheckFailed):
        checks.check_sup_growth(ns, [115.0, 108.0, 100.0], 0.6)
    with pytest.raises(CheckFailed):
        checks.check_sup_growth(ns, [115.0, 108.0, 0.6 * ns[-1] + 1], 0.6)
    rho = 0.5
    values = [rho ** k for k in range(17)]
    checks.check_theta_table(values)
    checks.check_flip_theta(values, 0.25, 4 * rho ** 12)
    with pytest.raises(CheckFailed):
        checks.check_theta_table(values[:5] + [values[3]] + values[6:])
    with pytest.raises(CheckFailed):
        checks.check_flip_theta([v * 0.99 for v in values], 0.25, 4 * rho ** 12)
    with pytest.raises(CheckFailed):
        checks.check_flip_theta(values, 0.25, 4 * rho ** 12 + 1e-6)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["tail-fit", "coupling-rate", "lsv-orbit",
                                      "coeffs-table"])
def test_tiny_run(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = run_bench(workload, 0)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_tiny_traced_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = run_bench("coupling-rate", 1)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 3
    assert set(doc["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert metrics["coupling.blocks"] > 0 and metrics["coupling.construct_s"] > 0
    assert metrics["bounds.simulations"] == 0


def test_missing_sources_fail(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tail-fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout.strip() == ""
