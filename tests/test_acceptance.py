"""Exit-criteria suite.

One test per criterion, each printing a single pass/fail line (run with -s to
see them live) and asserting at the stated tolerance.  Tolerances are pinned
here, not configurable.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import kstest

from weakdep import (ExperimentConfig, build_finite_chain, donsker_wasserstein,
                     flip_chain, fuk_nagaev_rhs, make_coboundary,
                     make_schedule, run_degenerate_suite, run_rate_experiment,
                     series_summary, sigma2_exact, symmetrization_check,
                     theta_exact)
from weakdep.bounds import (fit_constants, params_from_summary, tail_grid,
                            validate_constants)
from weakdep.coefficients import (TailModel, ThetaTable, sigma2_extrapolated,
                                  summarize_chain)
from weakdep.coupling import (block_coupling_second_moment, build_coupling,
                              coupling_errors)
from weakdep.cli import main
from weakdep.processes import process_to_config, symmetrize

from _oracles import block_sum_dist_exact, theta_brute

pytestmark = pytest.mark.acceptance

SEED = 20260810


def _report(num: int, ok: bool, started: float, budget: float, detail: str):
    elapsed = time.perf_counter() - started
    status = "pass" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {detail} ({elapsed:.1f}s / {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


@pytest.fixture(scope="module")
def chain():
    return flip_chain(0.25)


def test_criterion_01_theta_oracle(chain):
    t0 = time.perf_counter()
    ok = True
    details = []
    for k in range(1, 7):
        matrix = theta_exact(chain, 1, 1, k)
        brute = theta_brute(chain, 1, 1, k, horizon=2)
        closed = 0.5 ** k
        ok &= abs(matrix - closed) <= 1e-10 and abs(matrix - brute) <= 1e-10
        details.append(f"{matrix:.6g}")
    _report(1, ok, t0, 1.0, "theta_{1,1}(1..6) = " + ", ".join(details)
            + " matches 0.5^k and path enumeration to 1e-10")


def test_criterion_02_sigma2(chain):
    t0 = time.perf_counter()
    exact = sigma2_exact(chain)
    extrapolated = sigma2_extrapolated(chain, n=2 ** 16)
    ok = abs(exact - 3.0) <= 1e-8
    ok &= abs(extrapolated - exact) / exact <= 1e-3
    _report(2, ok, t0, 10.0,
            f"sigma2 = {exact:.12f} (closed form 3), "
            f"variance-rate extrapolation {extrapolated:.6f}")


def test_criterion_03_symmetrization_properties(chain, three_state, four_state):
    t0 = time.perf_counter()
    ok = True
    worst_moment = 0.0
    for base in (chain, three_state, four_state):
        z = symmetrize(base)
        f, p, pi = z.observable, z.transition, z.stationary
        for i in range(0, 5):
            for j in range(i + 1, 6):
                for k in range(j + 1, 7):
                    inner = f * (np.linalg.matrix_power(p, k - j) @ f)
                    val = abs(float(pi @ (f * (np.linalg.matrix_power(p, j - i)
                                               @ inner))))
                    worst_moment = max(worst_moment, val)
        ok &= worst_moment <= 1e-10
    worst_slack = math.inf
    for base in (chain, three_state, four_state):
        for (pp, qq) in [(1, 1), (2, 2)]:
            for k in range(1, 5):
                tz, bound = symmetrization_check(base, pp, qq, k,
                                                 tuple_horizon=6)
                ok &= tz <= bound + 1e-10
                if bound > 0:
                    worst_slack = min(worst_slack, bound - tz)
    _report(3, ok, t0, 30.0,
            f"third moments vanish (max |E| = {worst_moment:.2e}), "
            f"pair coefficients below 2^(q+1) bound on all product chains")


@pytest.fixture(scope="module")
def flip_summary(chain):
    return summarize_chain(chain, horizon=16)


def test_criterion_04_bound_dominance(chain, flip_summary):
    t0 = time.perf_counter()
    summ = flip_summary
    train = tail_grid([256, 512, 1024], 4, chain.sup_norm)
    hold = tail_grid([256, 512, 1024], 4, chain.sup_norm, holdout=True)
    assert len(train) == 12 and len(hold) == 12
    assert not set(train) & set(hold)
    fit = fit_constants(chain, train, 100_000, SEED, summary=summ)
    ok = fit.c1 <= 1e4 and fit.c2 <= 1e4
    dominated, rows = validate_constants(chain, fit, hold, 100_000, SEED + 1,
                                         summary=summ)
    ok &= dominated
    worst = min(r["rhs"] / max(r["ci_high"], 1e-300) for r in rows)
    _report(4, ok, t0, 600.0,
            f"fitted c1={fit.c1:.4g}, c2={fit.c2:.4g} (<= 1e4); holdout "
            f"dominated at 12/12 points (worst margin x{worst:.2f})")


def test_criterion_05_polynomial_regime_slope():
    t0 = time.perf_counter()
    table = ThetaTable(values=0.5 ** np.arange(9), tail=TailModel("zero"))
    summ = series_summary(table, sigma2=3.0)
    n = 80_000
    xs = np.geomspace(2.0 * math.sqrt(n), n / 2.0, 25)
    rhs = [fuk_nagaev_rhs(params_from_summary(summ, n, float(x)))
           for x in xs]
    decade = xs >= xs[-1] / 10.0
    slope = float(np.polyfit(np.log(xs[decade]),
                             np.log(np.asarray(rhs)[decade]), 1)[0])
    ok = -4.2 <= slope <= -3.8
    _report(5, ok, t0, 1.0, f"polynomial-regime slope {slope:.3f} in [-4.2, -3.8]")


def test_criterion_06_coupling_validity(chain):
    t0 = time.perf_counter()
    sigma2 = sigma2_exact(chain)

    sch = make_schedule(13, 4.0, "balanced")
    path = build_coupling(chain, sch, sigma2, 2 ** 14, seed=SEED)
    z_p = kstest(path.z, "norm", args=(0.0, math.sqrt(sigma2))).pvalue
    ok = z_p > 0.01

    pooled_v = []
    sch_v = make_schedule(12, 4.0, "balanced")
    for rep in range(12):
        p_v = build_coupling(chain, sch_v, sigma2, 2 ** 13, seed=SEED + 2,
                             replicate=rep)
        for level, m in enumerate(p_v.m_by_level):
            scale = math.sqrt(sigma2) * 2.0 ** (m / 2.0)
            pooled_v.extend(p_v.v_by_level[level] / scale)
    v_p = kstest(np.asarray(pooled_v), "norm").pvalue
    ok &= len(pooled_v) >= 10_000 and v_p > 0.01

    mass_ok = True
    for start in range(chain.n_states):
        for m in range(5):
            mass_ok &= (sum(block_sum_dist_exact(chain, start, m).values())
                        == Fraction(1))
    ok &= mass_ok

    mc = block_coupling_second_moment(chain, 4, sigma2, 100_000, seed=SEED + 3)
    ok &= abs(mc["z_score"]) <= 3.0
    _report(6, ok, t0, 300.0,
            f"KS p-values: Z {z_p:.3f}, V {v_p:.3f} (n={len(pooled_v)}); exact "
            f"mass for m<=4; E(U-V)^2 MC {mc['mc']:.4f} vs quadrature "
            f"{mc['exact']:.4f} (z={mc['z_score']:.2f})")


def test_criterion_07_coupling_rate(chain):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(process=chain, n_list=[2 ** k for k in range(10, 18)],
                           replicates=64, seed=SEED, p=4.0, tolerance=0.08)
    report = run_rate_experiment(cfg)
    ok = report.passed is True
    _report(7, ok, t0, 1800.0,
            f"L2 coupling-error exponent {report.exponent:.4f} "
            f"(target 0.25 +- 0.08, se {report.exponent_se:.3f})")


def test_criterion_08_wasserstein_rate(chain):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(process=chain, n_list=[2 ** k for k in range(10, 18)],
                           replicates=64, seed=SEED + 4, p=4.0, tolerance=0.10)
    report = donsker_wasserstein(cfg)
    est = report.estimate
    ok = est.passed is True
    ok &= all("reference_n16" in row for row in est.rows)
    ok &= report.reference_exponent == pytest.approx(-1.0 / 6.0)
    _report(8, ok, t0, 1800.0,
            f"uniform-distance decay exponent {est.exponent:.4f} "
            f"(target -0.25 +- 0.10); n^(-1/6) reference line attached")


def test_criterion_09_degenerate_suite(chain):
    t0 = time.perf_counter()
    cob = make_coboundary(chain, [1.0, -1.0])
    cfg = ExperimentConfig(process=cob, n_list=[100, 1000, 10000],
                           replicates=3000, seed=SEED + 5, alpha=0.5,
                           series_epsilon=1.0, moment_q=2.0)
    report = run_degenerate_suite(cfg)
    ok = report.passed
    ok &= all(r["below_bound"] for r in report.moment["rows"])
    ok &= report.sup_growth.passed is True
    ok &= abs(report.sup_growth.exponent) <= 0.05
    ok &= report.zero_beyond is not None
    _report(9, ok, t0, 300.0,
            f"moments below bound {report.moment['bound']:.3g} at all n; "
            f"max|S| growth exponent {report.sup_growth.exponent:.4f} "
            f"(|.| <= 0.05); summands vanish beyond n={report.zero_beyond}")


def test_criterion_10_determinism(tmp_path, chain):
    t0 = time.perf_counter()
    ok = True
    checked = []

    process = process_to_config(chain)
    docs = {
        "rates": {"process": process, "n_list": [256, 512, 1024],
                  "replicates": 16, "seed": SEED + 6},
        "wasserstein": {"process": process, "n_list": [256, 512],
                        "replicates": 16, "seed": SEED + 7},
        "degenerate": {"process": process_to_config(make_coboundary(chain, [1.0, -1.0])),
                       "n_list": [100, 1000], "replicates": 400, "seed": SEED + 8,
                       "alpha": 0.5},
        "bound": {"process": process, "grid_n": [128, 256], "points_per_n": 3,
                  "replicates": 2000, "seed": SEED + 9, "theta_horizon": 12},
    }

    def emit(out, kind):
        config = tmp_path / f"{kind}.json"
        config.write_text(json.dumps(docs[kind]))
        command = ["bound", "fit"] if kind == "bound" else [kind]
        result = CliRunner().invoke(main, [*command, "--config", str(config),
                                           "--out", out])
        assert result.exit_code == 0, result.output

    for kind in ("rates", "wasserstein", "degenerate", "bound"):
        d1 = tmp_path / f"{kind}_run1"
        d2 = tmp_path / f"{kind}_run2"
        emit(str(d1), kind)
        emit(str(d2), kind)
        for name in sorted(f.name for f in d1.iterdir()):
            same = (d1 / name).read_bytes() == (d2 / name).read_bytes()
            ok &= same
            checked.append(f"{kind}/{name}")
    _report(10, ok, t0, 600.0,
            f"byte-identical outputs across two runs for "
            f"{len(checked)} files over 4 pipelines")
