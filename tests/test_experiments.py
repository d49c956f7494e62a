import json
import math
from pathlib import Path

import numpy as np
import pytest

from weakdep import (ExperimentConfig, donsker_wasserstein, emit_report,
                     flip_chain, make_coboundary, make_schedule,
                     run_degenerate_suite, run_lsv_experiment,
                     run_rate_experiment, sigma2_exact)
from weakdep.coupling import build_coupling, coupling_errors
from weakdep.experiments import fit_power_law
from weakdep import coefficients, experiments, processes
from weakdep.coefficients import is_degenerate
from weakdep.bounds import path_statistics
from weakdep.cli import _read_config
from weakdep.processes import (LsvObservable, LsvProcess, process_to_config,
                               sample_lsv_ensemble)


def small_config(chain, **kw):
    base = dict(process=chain, n_list=[2 ** k for k in range(8, 12)],
                replicates=24, seed=101, p=4.0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_fit_power_law_recovers_exponent_noiselessly():
    ns = [2 ** k for k in range(6, 14)]
    for a in (-0.5, 0.25, 1.0):
        ys = [3.7 * n ** a for n in ns]
        slope, se, _ = fit_power_law(ns, ys)
        assert slope == pytest.approx(a, abs=1e-10)


def test_config_validation(flip25):
    with pytest.raises(ValueError, match="nonempty"):
        ExperimentConfig(process=flip25, n_list=[])
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(process=flip25, n_list=[64, 64])
    cfg = ExperimentConfig(process=flip25, n_list=[100, 200], replicates=8)
    with pytest.raises(ValueError, match="powers of two"):
        run_rate_experiment(cfg)
    with pytest.raises(ValueError, match="16 replicates"):
        run_rate_experiment(ExperimentConfig(process=flip25, n_list=[256, 512],
                                             replicates=8))


@pytest.mark.parametrize("name", ["rates_flip", "rates_lsv", "wasserstein_flip",
                                  "degenerate_flip"])
def test_shipped_experiment_configs_load(name):
    path = Path(__file__).parent.parent / "scripts" / "configs" / f"{name}.json"
    doc = json.loads(path.read_text())
    cfg = ExperimentConfig(**_read_config(str(path), name.split("_")[0]))
    assert cfg.seed == doc["seed"]
    assert list(cfg.n_list) == doc["n_list"]


def test_rate_experiment_consistency(flip25):
    report = run_rate_experiment(small_config(flip25))
    assert report.target == 0.25
    assert report.passed == (abs(report.exponent - report.target)
                             <= report.tolerance)
    assert len(report.rows) == 4
    assert all(row["error_l2"] > 0 for row in report.rows)


def test_rate_experiment_identity_coupling_flagged():
    # An identity coupling has zero error at every n: no slope to fit.
    report = experiments._rate_estimate([256, 512, 1024], [0.0, 0.0, 0.0],
                                        target=0.25, tolerance=0.08)
    assert report.degenerate
    assert report.passed is None
    assert [row["n"] for row in report.rows] == [256, 512, 1024]


def test_rate_experiment_rejects_degenerate(flip25):
    cob = make_coboundary(flip25, [1.0, -1.0])
    with pytest.raises(ValueError, match="degenerate process"):
        run_rate_experiment(small_config(cob))


def test_rate_experiment_se_shrinks_with_replicates(flip25):
    lo = run_rate_experiment(small_config(flip25, replicates=16,
                                          n_list=[2 ** k for k in range(8, 14)]))
    hi = run_rate_experiment(small_config(flip25, replicates=32,
                                          n_list=[2 ** k for k in range(8, 14)]))
    ratio = lo.exponent_se / hi.exponent_se
    assert math.sqrt(2.0) * 0.75 <= ratio <= math.sqrt(2.0) * 1.25


def test_lsv_target_rule():
    proc = LsvProcess(gamma=0.2, observable=LsvObservable("identity", 0.5),
                      burn_in=100)
    cfg = ExperimentConfig(process=proc, n_list=[256, 512], replicates=16, seed=1)
    report = run_lsv_experiment(cfg)
    assert report.target == 0.25
    assert report.surrogate is None
    assert report.direct_rows


def test_lsv_direct_rows_match_full_orbit_matrix(monkeypatch):
    # Blocks of 7 steps force carries across block edges at every n.
    monkeypatch.setattr(processes, "LSV_BLOCK_STEPS", 7)
    process = LsvProcess(gamma=0.3, observable=LsvObservable("identity", 0.4),
                         burn_in=50)
    cfg = ExperimentConfig(process=process, n_list=[20, 40, 80], replicates=16,
                           seed=5)
    report = run_lsv_experiment(cfg)
    for row in report.direct_rows:
        vals = sample_lsv_ensemble(process, row["n"], 5, range(16))
        sums = np.cumsum(vals, axis=1)
        smax = np.max(np.abs(sums), axis=1)
        assert row["sup_l2"] == math.sqrt(float(np.mean(smax ** 2)))
        sample = path_statistics(process, row["n"], 16, seed=5)
        assert np.array_equal(sample.s, sums[:, -1])
        assert np.array_equal(sample.smax, np.maximum(sums.max(axis=1), 0.0))
        assert np.array_equal(sample.smin, np.minimum(sums.min(axis=1), 0.0))


def _no_orbits(*args, **kw):
    raise AssertionError("orbits stepped before the surrogate was checked")


def test_lsv_surrogate_non_dyadic_ladder_rejected_before_orbits(monkeypatch):
    monkeypatch.setattr(experiments, "lsv_running_stats", _no_orbits)
    proc = LsvProcess(gamma=0.375, observable=LsvObservable("identity", 0.42823),
                      burn_in=10)
    cfg = ExperimentConfig(process=proc, surrogate=flip_chain(0.25),
                           n_list=[100, 300], replicates=16, seed=1)
    with pytest.raises(ValueError, match="powers of two, >= 8"):
        run_lsv_experiment(cfg)


def test_lsv_degenerate_surrogate_rejected_before_orbits(monkeypatch, flip25):
    monkeypatch.setattr(experiments, "lsv_running_stats", _no_orbits)
    proc = LsvProcess(gamma=0.375, observable=LsvObservable("identity", 0.42823),
                      burn_in=10)
    cfg = ExperimentConfig(process=proc, surrogate=make_coboundary(flip25, [1.0, -1.0]),
                           n_list=[256, 512], replicates=16, seed=1)
    with pytest.raises(ValueError, match="degenerate process"):
        run_lsv_experiment(cfg)


def test_sigma2_certified_once_per_ladder(monkeypatch, flip25):
    calls = []
    certified = coefficients.sigma2_certified

    def counted(chain, *args, **kw):
        calls.append(chain)
        return certified(chain, *args, **kw)

    monkeypatch.setattr(coefficients, "sigma2_certified", counted)
    counts = []
    for n_list in ([64, 128], [64, 128, 256, 512]):
        calls.clear()
        run_rate_experiment(small_config(flip25, n_list=n_list, replicates=16))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_lsv_gamma_out_of_range_rejected():
    proc = LsvProcess(gamma=0.6, observable=LsvObservable("identity", 0.5),
                      burn_in=10)
    cfg = ExperimentConfig(process=proc, n_list=[256, 512], replicates=16, seed=1)
    with pytest.raises(ValueError, match="gamma"):
        run_lsv_experiment(cfg)


@pytest.mark.slow
def test_lsv_surrogate_coupled_rate():
    # center = long-run mean of x under the invariant law at gamma = 0.375
    proc = LsvProcess(gamma=0.375, observable=LsvObservable("identity", 0.42823),
                      burn_in=1000)
    cfg = ExperimentConfig(process=proc, surrogate=flip_chain(0.25),
                           n_list=[2 ** k for k in range(11, 18)],
                           replicates=32, seed=7, tolerance=0.1)
    report = run_lsv_experiment(cfg)
    assert report.target == pytest.approx(0.375)
    assert report.surrogate is not None
    assert report.surrogate.passed


@pytest.mark.slow
def test_median_sup_error_tracks_rate_curve(flip25):
    # median sup|S-T| at n = 2^15 within a factor 4 of C n^{1/4} (log n)^{1/2}
    # with C anchored at n = 2^11
    from weakdep.experiments import coupling_sup_errors
    cfg = small_config(flip25, replicates=64, n_list=[2 ** 11, 2 ** 15], seed=77)
    sigma2 = sigma2_exact(flip25)

    def median_at(n):
        return float(np.median(coupling_sup_errors(flip25, cfg, n, sigma2)))

    def curve(n):
        return n ** 0.25 * math.log(n) ** 0.5

    c_anchor = median_at(2 ** 11) / curve(2 ** 11)
    ratio = median_at(2 ** 15) / (c_anchor * curve(2 ** 15))
    assert 0.25 <= ratio <= 4.0


def test_donsker_rescaling_identity(flip25):
    sigma2 = sigma2_exact(flip25)
    n = 2 ** 9
    sch = make_schedule(8, 4.0, "balanced")
    path = build_coupling(flip25, sch, sigma2, n, seed=3)
    sup = coupling_errors(path).sup_error
    b_line = path.s / math.sqrt(n)
    g_line = path.t / math.sqrt(n)
    breakpoint_sup = float(np.max(np.abs(b_line - g_line)))
    assert breakpoint_sup == pytest.approx(sup / math.sqrt(n), abs=1e-15)
    # linear interpolation between shared breakpoints adds nothing; the
    # crude remainder bound is trivially respected
    remainder_bound = (flip25.sup_norm + float(np.max(np.abs(path.z)))) / math.sqrt(n)
    assert remainder_bound >= 0.0


def test_donsker_reference_line(flip25):
    cfg = small_config(flip25)
    report = donsker_wasserstein(cfg)
    est = report.estimate
    assert report.reference_exponent == pytest.approx(-1.0 / 6.0)
    assert est.target == -0.25
    first = est.rows[0]
    assert first["reference_n16"] == pytest.approx(first["error_l2"], rel=1e-12)


def test_degenerate_suite_passes(flip25):
    cob = make_coboundary(flip25, [1.0, -1.0])
    cfg = ExperimentConfig(process=cob, n_list=[100, 1000, 10000],
                           replicates=1500, seed=5, alpha=0.5,
                           series_epsilon=1.0)
    report = run_degenerate_suite(cfg)
    assert report.passed
    assert abs(report.sigma2) <= 1e-6
    assert report.sup_growth.passed
    assert report.zero_beyond is not None
    assert all(row["below_bound"] for row in report.moment["rows"])


def test_degenerate_suite_rejects_nondegenerate(flip25):
    cfg = ExperimentConfig(process=flip25, n_list=[100, 1000], replicates=500,
                           seed=5, alpha=0.5)
    with pytest.raises(ValueError, match="not degenerate"):
        run_degenerate_suite(cfg)


@pytest.mark.parametrize("changes, message", [
    ({"n_list": [100, 1000, 5000]}, "n_list must be geometric"),
    ({"n_list": [100]}, "strictly increasing with >= 2 entries"),
    ({"alpha": 1.0}, r"alpha must lie in \(0, 1\)"),
    ({"replicates": 99}, "need at least 100 replicates"),
], ids=["non-geometric", "one-n", "alpha", "replicates"])
def test_degenerate_suite_checks_before_simulating(monkeypatch, flip25, changes,
                                                   message):
    def no_simulation(*args, **kw):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(experiments, "path_statistics", no_simulation)
    settings = dict(process=make_coboundary(flip25, [1.0, -1.0]),
                    n_list=[100, 1000, 10000], replicates=500, seed=5, alpha=0.5)
    with pytest.raises(ValueError, match=message):
        run_degenerate_suite(ExperimentConfig(**{**settings, **changes}))


def test_degeneracy_decided_by_certified_interval(monkeypatch, flip25):
    cob = make_coboundary(flip25, [1.0, -1.0])
    assert is_degenerate(cob) and not is_degenerate(flip25)

    def no_simulation(*args, **kw):
        raise AssertionError("simulated before the degeneracy check")

    # sigma2 = 1e-7 +- 1e-10 is certified positive: not a degenerate chain
    monkeypatch.setattr(coefficients, "sigma2_certified",
                        lambda chain, *args, **kw: (1e-7, 1e-10))
    monkeypatch.setattr(experiments, "path_statistics", no_simulation)
    assert not is_degenerate(cob)
    cfg = ExperimentConfig(process=cob, n_list=[100, 1000], replicates=500,
                           seed=5, alpha=0.5)
    with pytest.raises(ValueError, match="not degenerate"):
        run_degenerate_suite(cfg)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def bundle(cfg, report):
    config = {"process": process_to_config(cfg.process), "n_list": list(cfg.n_list),
              "seed": cfg.seed}
    return {"config": config, "summary": report.to_dict(),
            "tables": {"rates": list(report.rows)}}


def test_emit_report_byte_stable(tmp_path, flip25):
    cfg = small_config(flip25, n_list=[256, 512], replicates=16)
    report = run_rate_experiment(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit_report(bundle(cfg, report), str(d1))
    emit_report(bundle(cfg, report), str(d2))
    for name in ("summary.json", "rates.csv", "rates.dat"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_emit_report_embeds_config(tmp_path, flip25):
    cfg = small_config(flip25, n_list=[256, 512], replicates=16)
    report = run_rate_experiment(cfg)
    emit_report(bundle(cfg, report), str(tmp_path))
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["config"]["seed"] == cfg.seed
    assert doc["config"]["process"]["type"] == "finite_chain"
    assert doc["config"]["n_list"] == [256, 512]


def test_emit_report_validates_before_writing(tmp_path):
    target = tmp_path / "out"
    with pytest.raises(ValueError, match="empty"):
        emit_report({"config": {}, "summary": {}, "tables": {"rows": []}},
                    str(target))
    assert not target.exists()


def test_rerun_gives_identical_results(flip25):
    cfg = small_config(flip25, n_list=[256, 512], replicates=16)
    r1 = run_rate_experiment(cfg)
    r2 = run_rate_experiment(cfg)
    assert r1.exponent == r2.exponent
    assert [row["error_l2"] for row in r1.rows] == \
           [row["error_l2"] for row in r2.rows]
