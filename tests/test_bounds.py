import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import (empirical_tail, fit_constants, flip_chain, make_coboundary,
                     series_summary, tail_grid, validate_constants)
from weakdep import bounds, experiments
from weakdep.bounds import (TailSample, bound_terms, clopper_pearson,
                            degenerate_moment_check, path_statistics,
                            series_convergence_check)
from weakdep.coefficients import SeriesSummary, ThetaTable, summarize_chain
from weakdep.experiments import ExperimentConfig, run_degenerate_suite

from _oracles import lattice_constants_loop, srw_max_tail_dp, srw_max_tail_reflection


# ---------------------------------------------------------------------------
# bound arithmetic
# ---------------------------------------------------------------------------

def summary_of(sigma2, theta1, theta2, weighted_x):
    return SeriesSummary(theta1=theta1, theta2=theta2, weighted=lambda x: weighted_x,
                         sigma2=sigma2)


def test_rhs_worked_example():
    summ = summary_of(sigma2=1.0, theta1=1.0, theta2=1.0, weighted_x=0.0)
    gauss = 0.025 ** 4 * math.exp(-2.5)
    poly = 1000 / 200.0 ** 4
    terms = [float(col[0]) for col in bound_terms(summ, [(1000, 200.0)])]
    assert sum(terms) == pytest.approx(gauss + poly, rel=1e-12)
    assert sum(terms) == pytest.approx(6.57e-7, rel=1e-2)


def test_rhs_indicator_suppresses_gaussian_term():
    summ = summary_of(sigma2=0.0, theta1=2.0, theta2=3.0, weighted_x=4.0)
    (gauss,), (poly,) = bound_terms(summ, [(500, 50.0)])
    assert gauss == 0.0
    assert 7.0 * gauss + 2.0 * poly == pytest.approx(
        2.0 * 500 / 50.0 ** 4 * (6.0 + 4.0), rel=1e-12)


def test_params_validation():
    summ = summary_of(sigma2=1.0, theta1=1.0, theta2=1.0, weighted_x=0.0)
    with pytest.raises(ValueError):
        bound_terms(summ, [(0, 1.0)])
    with pytest.raises(ValueError, match="divergent"):
        bound_terms(summary_of(sigma2=1.0, theta1=1.0, theta2=math.inf, weighted_x=0.0),
                    [(10, 1.0)])
    with pytest.raises(ValueError):
        bound_terms(summ, [(10, -1.0)])


def test_polynomial_regime_slope():
    # theta supported on k <= 8, finite Theta2: slope of log rhs in log x
    # approaches -4 over the last decade once the Gaussian term has died.
    vals = 0.5 ** np.arange(9)
    table = ThetaTable(values=vals, rate=0.0)
    summ = series_summary(table, sigma2=3.0)
    n = 80_000
    xs = np.geomspace(2.0 * math.sqrt(n), n / 2.0, 25)
    gauss, poly = bound_terms(summ, [(n, float(x)) for x in xs])
    rhs = gauss + poly
    decade = xs >= xs[-1] / 10.0
    slope = np.polyfit(np.log(xs[decade]), np.log(np.asarray(rhs)[decade]), 1)[0]
    assert -4.2 <= slope <= -3.8


# ---------------------------------------------------------------------------
# Monte Carlo tails
# ---------------------------------------------------------------------------

def test_tail_at_zero_is_one(flip25):
    est = empirical_tail(path_statistics(flip25, 50, 200, seed=1), 0.0)
    assert est.p_hat == 1.0


def test_tail_above_range_is_zero(flip25):
    est = empirical_tail(path_statistics(flip25, 50, 200, seed=1), 51.0)
    assert est.p_hat == 0.0
    assert est.ci_low == 0.0


def test_tail_needs_replicates(flip25):
    with pytest.raises(ValueError, match="replicates"):
        empirical_tail(path_statistics(flip25, 50, 10, seed=1), 1.0)


def test_tail_matches_walk_oracle(iid_chain):
    exact = srw_max_tail_dp(100, 10)
    assert exact == pytest.approx(srw_max_tail_reflection(100, 10), abs=1e-12)
    est = empirical_tail(path_statistics(iid_chain, 100, 20_000, seed=7), 10.0)
    assert est.ci_low <= exact <= est.ci_high


def test_tail_monotone_in_x(flip25):
    sample = path_statistics(flip25, 64, 2000, seed=3)
    xs = [2.0, 5.0, 9.0, 14.0, 20.0]
    ps = [empirical_tail(sample, x).p_hat for x in xs]
    assert all(b <= a for a, b in zip(ps, ps[1:]))


def test_tail_statistic_absmax_dominates_max(flip25):
    sample = path_statistics(flip25, 64, 2000, seed=5)
    one = empirical_tail(sample, 10.0, statistic="max")
    two = empirical_tail(sample, 10.0, statistic="absmax")
    assert two.p_hat >= one.p_hat


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=50, max_value=500))
@settings(max_examples=25)
def test_clopper_pearson_properties(k, n):
    k = min(k, n)
    lo, hi = clopper_pearson(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_clopper_pearson_matches_beta_quantiles():
    from scipy.stats import beta
    a = (1.0 - 0.95) / 2.0
    for n in (1, 2, 7, 100, 1000, 2048, 20_000):
        for k in sorted({0, 1, 2, n // 3, n // 2, n - 2, n - 1, n} & set(range(n + 1))):
            lo, hi = clopper_pearson(k, n)
            assert lo == (0.0 if k == 0 else float(beta.ppf(a, k, n - k + 1)))
            assert hi == (1.0 if k == n else float(beta.ppf(1.0 - a, k + 1, n - k)))


def test_path_statistics_refuses_lsv():
    # no command simulates a tail sample on the LSV map
    from weakdep.processes import LsvObservable, LsvProcess
    proc = LsvProcess(gamma=0.3, observable=LsvObservable("identity", 0.4),
                      burn_in=100)
    with pytest.raises(TypeError, match="LsvProcess"):
        path_statistics(proc, 64, 200, seed=2)


# ---------------------------------------------------------------------------
# constant fitting
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def flip_summary():
    chain = flip_chain(0.25)
    summ = summarize_chain(chain, horizon=16)
    return chain, summ


def test_fit_constants_finite_on_training_grid(flip_summary):
    chain, summ = flip_summary
    grid = tail_grid([128, 256], 3, chain.sup_norm)
    fit = fit_constants(chain, grid, 5000, seed=13, summary=summ)
    assert math.isfinite(fit.c1) and math.isfinite(fit.c2)
    assert fit.binding
    for row in fit.rows:
        assert row["rhs"] >= row["ci_high"]


def test_fit_constants_finite_for_iid_walk(iid_chain):
    # sub-Gaussian tails dominate both regimes, so finite constants exist
    summ = summarize_chain(iid_chain, horizon=8)
    grid = tail_grid([128, 256], 3, iid_chain.sup_norm)
    fit = fit_constants(iid_chain, grid, 4000, seed=21, summary=summ)
    assert math.isfinite(fit.c1) and math.isfinite(fit.c2)


def test_fit_constants_holdout_transfer(flip_summary):
    chain, summ = flip_summary
    train = tail_grid([128, 256], 3, chain.sup_norm)
    hold = tail_grid([128, 256], 3, chain.sup_norm, holdout=True)
    assert not set(train) & set(hold)
    fit = fit_constants(chain, train, 5000, seed=13, summary=summ)
    ok, rows = validate_constants(chain, fit.c1, fit.c2, hold, 5000, seed=14, summary=summ)
    assert ok is True
    assert len(rows) == len(hold)


def test_fit_and_validate_rows_match_fresh_simulation(flip_summary):
    chain, summ = flip_summary
    train = tail_grid([64, 128], 3, chain.sup_norm)
    hold = tail_grid([64, 128], 3, chain.sup_norm, holdout=True)
    fit = fit_constants(chain, train, 1000, seed=41, summary=summ)
    _, rows = validate_constants(chain, fit.c1, fit.c2, hold, 1000, seed=42, summary=summ)
    for grid, got, seed in ((train, fit.rows, 41), (hold, rows, 42)):
        assert len(got) == len(grid)
        for (n, x), row in zip(grid, got):
            fresh = empirical_tail(path_statistics(chain, n, 1000, seed), x)
            got_row = (row["n"], row["x"], row["p_hat"], row["ci_low"], row["ci_high"])
            assert got_row == (n, x, fresh.p_hat, fresh.ci_low, fresh.ci_high)


def test_one_simulation_per_distinct_n(monkeypatch, flip_summary):
    calls = []
    simulate = bounds.path_statistics

    def counting(process, n, replicates, seed):
        calls.append(n)
        return simulate(process, n, replicates, seed)

    monkeypatch.setattr(bounds, "path_statistics", counting)
    monkeypatch.setattr(experiments, "path_statistics", counting)
    chain, summ = flip_summary
    fit = fit_constants(chain, tail_grid([64, 128], 3, chain.sup_norm), 1000,
                        seed=1, summary=summ)
    assert calls == [64, 128]
    calls.clear()
    hold = tail_grid([64, 128], 3, chain.sup_norm, holdout=True)
    validate_constants(chain, fit.c1, fit.c2, hold, 1000, seed=2, summary=summ)
    assert calls == [64, 128]
    calls.clear()
    cob = make_coboundary(chain, [1.0, -1.0])
    run_degenerate_suite(ExperimentConfig(process=cob, n_list=[16, 64, 256],
                                          replicates=200, seed=3, alpha=0.5))
    assert calls == [16, 64, 256]


def test_fit_constants_degenerate_uses_only_c2(flip_summary):
    chain, _ = flip_summary
    cob = make_coboundary(chain, [1.0, -1.0])
    summ = summarize_chain(cob, horizon=16)
    grid = tail_grid([64, 128], 3, cob.sup_norm)
    fit = fit_constants(cob, grid, 2000, seed=5, summary=summ)
    assert fit.c1 == pytest.approx(1e-3)     # pinned at the box minimum
    assert math.isfinite(fit.c2)


def test_fit_and_check_rhs_is_the_bound_form(flip_summary):
    # the fit and the check evaluate c1 * gauss + c2 * poly of bound_terms, to
    # the last bit
    chain, summ = flip_summary
    fit = fit_constants(chain, tail_grid([64, 128], 3, chain.sup_norm), 1000,
                        seed=41, summary=summ)
    hold = tail_grid([64, 128], 3, chain.sup_norm, holdout=True)
    _, rows = validate_constants(chain, fit.c1, fit.c2, hold, 1000, seed=42, summary=summ)
    for row in fit.rows + rows:
        (gauss,), (poly,) = bound_terms(summ, [(row["n"], row["x"])])
        assert row["rhs"] == fit.c1 * gauss + fit.c2 * poly


def test_check_compares_rhs_with_the_upper_limit(flip_summary):
    # A bound between p_hat and ci_high of a holdout row does not dominate it:
    # the check reads the upper confidence limit, not the point estimate.
    chain, summ = flip_summary
    hold = tail_grid([64, 128], 3, chain.sup_norm, holdout=True)
    _, rows = validate_constants(chain, 1.0, 1.0, hold, 1000, seed=42, summary=summ)
    i = max(range(len(rows)), key=lambda j: rows[j]["p_hat"])
    factor = 0.5 * (rows[i]["p_hat"] + rows[i]["ci_high"]) / rows[i]["rhs"]
    ok, rows = validate_constants(chain, factor, factor, hold, 1000, seed=42, summary=summ)
    assert rows[i]["p_hat"] < rows[i]["rhs"] < rows[i]["ci_high"]
    assert rows[i]["dominates"] is False
    assert ok is False


def test_divergent_summary_refused(monkeypatch, flip_summary):
    # The bound's terms are evaluated before any path is simulated: at the
    # grid, and for the fit also at the envelope points inside its gaps.
    def simulate(*args):
        raise AssertionError("simulated before the summary was refused")

    monkeypatch.setattr(bounds, "path_statistics", simulate)
    chain, _ = flip_summary
    summ = SeriesSummary(theta1=2.0, theta2=math.inf, weighted=lambda x: 1.0,
                         sigma2=3.0)
    grid = tail_grid([64], 2, chain.sup_norm)
    with pytest.raises(ValueError, match="divergent"):
        fit_constants(chain, grid, 200, seed=1, summary=summ)
    with pytest.raises(ValueError, match="divergent"):
        validate_constants(chain, 1.0, 1.0, grid, 200, seed=1, summary=summ)
    grid_xs = {x for _, x in grid}
    envelope_only = SeriesSummary(theta1=2.0, theta2=3.0, sigma2=3.0,
                                  weighted=lambda x: 1.0 if x in grid_xs else math.inf)
    with pytest.raises(ValueError, match="divergent"):
        fit_constants(chain, grid, 200, seed=1, summary=envelope_only)


def test_fit_constants_box_failure(monkeypatch, flip_summary):
    chain, summ = flip_summary
    grid = tail_grid([128], 2, chain.sup_norm)
    monkeypatch.setattr(bounds, "SEARCH_BOX", (1e-9, 1e-8))
    with pytest.raises(ValueError, match="search box"):
        fit_constants(chain, grid, 2000, seed=3, summary=summ)


SEARCH_BOXES = [bounds.SEARCH_BOX, (1e-9, 1e-8), (1e-6, 1e-3), (10.0, 100.0), (0.5, 2.0)]


@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.booleans(),
       st.sampled_from(SEARCH_BOXES))
@settings(max_examples=300, deadline=None)
def test_lattice_search_matches_loop(seed, m, gaussian_zero, box):
    # The array search returns the loop's (c1, c2), or its refusal, bit for
    # bit.  Each constraint alone needs c1 or c2 of order 10^u, with u drawn
    # from a decade below the box to just above it, so sets are refused, fit
    # with c1 on the box floor, or fit with c1 inside the box.
    rng = np.random.default_rng(seed)
    lo, hi = np.log10(box)
    targets = 10.0 ** rng.uniform(-12.0, 3.0, m)
    b = targets / 10.0 ** rng.uniform(lo - 1.0, hi + 0.2, m)
    a = targets / 10.0 ** rng.uniform(lo - 1.0, hi + 0.2, m) * (rng.random(m) < 0.8)
    if gaussian_zero:
        a = np.zeros(m)

    def outcome(search):
        try:
            return search(a, b, targets, box)
        except ValueError as err:
            assert "search box" in str(err)
            return str(err)

    assert outcome(bounds._lattice_constants) == outcome(lattice_constants_loop)


# ---------------------------------------------------------------------------
# series convergence and degenerate moments
# ---------------------------------------------------------------------------

def test_series_summands_decrease_exact_oracle():
    # exact DP summands n^{alpha p - 2} P(max >= n^alpha) for the fair walk
    summands = []
    for n in [2 ** k for k in range(8, 15)]:
        x = math.ceil(n ** 0.75)
        summands.append(n * srw_max_tail_dp(n, x))
    tail = summands[2:]   # beyond n = 2^10
    assert all(b < a for a, b in zip(tail, tail[1:]))


def samples(process, n_list, replicates, seed):
    return [path_statistics(process, n, replicates, seed) for n in n_list]


def test_series_convergence_check_walk(iid_chain):
    out = series_convergence_check(
        samples(iid_chain, [2 ** k for k in range(8, 13)], 2000, 17), 0.75, 4.0, 1.0)
    assert out["decays"]
    for row in out["rows"]:
        exact = srw_max_tail_dp(row["n"], math.ceil(row["x"]))
        assert row["ci_low"] <= exact <= row["ci_high"]


@pytest.mark.parametrize("alpha, p", [(0.75, 4.0), (1.0, 2.0)])
def test_series_does_not_decay_when_last_summand_reaches_first(alpha, p):
    # Every path reaches n, so each tail is 1 and the summands are
    # n^(alpha p - 2): growing at alpha p = 3, equal at alpha p = 2.
    sims = []
    for n in (64, 128, 256):
        top = np.full(bounds.MIN_TAIL_REPLICATES, float(n))
        sims.append(TailSample(n=n, step=1.0, s=top, smax=top, smin=np.zeros_like(top)))
    out = series_convergence_check(sims, alpha, p, 1.0)
    assert out["rows"][-1]["summand"] >= out["rows"][0]["summand"] > 0.0
    assert out["decays"] is False


def test_series_epsilon_scaling_weakly_decreases(iid_chain):
    sims = samples(iid_chain, [2 ** k for k in range(8, 12)], 1500, 23)
    small = series_convergence_check(sims, 0.75, 4.0, 1.0)
    large = series_convergence_check(sims, 0.75, 4.0, 2.0)
    for a, b in zip(small["rows"], large["rows"]):
        assert b["summand"] <= a["summand"]


def test_series_alpha_validation(iid_chain):
    sims = samples(iid_chain, [256, 512], 200, 1)
    with pytest.raises(ValueError, match="alpha"):
        series_convergence_check(sims, 0.4, 4.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        series_convergence_check(sims, 0.4, 4.0, 1.0, statistic="max")
    with pytest.raises(ValueError, match="geometric"):
        series_convergence_check(samples(iid_chain, [256, 300, 512], 200, 1),
                                 0.75, 4.0, 1.0)


def test_degenerate_series_vanishes_beyond_path_bound(flip25):
    cob = make_coboundary(flip25, [1.0, -1.0])
    out = series_convergence_check(samples(cob, [16, 64, 256, 1024], 500, 3),
                                   0.5, 4.0, 1.0, statistic="absmax")
    for row in out["rows"]:
        if row["x"] > cob.sup_path_bound:
            assert row["p_hat"] == 0.0


def test_degenerate_moment_check_below_bound(flip25):
    cob = make_coboundary(flip25, [1.0, -1.0])
    out = degenerate_moment_check(cob, 2.0, samples(cob, [100, 1000], 2000, 29))
    for row in out["rows"]:
        assert row["below_bound"]
        assert row["moment_q"] <= out["bound"]
    # moments flat: confidence intervals overlap across n
    lo = max(r["moment_ci_low"] for r in out["rows"])
    hi = min(r["moment_ci_high"] for r in out["rows"])
    assert lo <= hi


def test_degenerate_moment_check_rejects_nondegenerate(flip25):
    with pytest.raises(ValueError, match="not degenerate"):
        degenerate_moment_check(flip25, 2.0, samples(flip25, [100, 1000], 500, 1))


def test_degenerate_null_observable_moments_zero(flip25):
    cob = make_coboundary(flip25, [2.0, 2.0])
    out = degenerate_moment_check(cob, 1.0, samples(cob, [100, 1000], 500, 1))
    for row in out["rows"]:
        assert row["moment_q"] == 0.0


def test_path_statistics_chunking_invariance(monkeypatch, flip25):
    n, seed = 200, 11
    whole = path_statistics(flip25, n, 1000, seed)
    # 37 replicates per chunk: 28 chunks, the last one partial
    monkeypatch.setattr(bounds, "_CHUNK_ELEMENT_BUDGET", 37 * (n + 1))
    assert len(bounds._chunk_ranges(1000, n)) == 28
    chunked = path_statistics(flip25, n, 1000, seed)
    for stat in ("s", "smax", "smin"):
        assert np.array_equal(getattr(whole, stat), getattr(chunked, stat))
    assert empirical_tail(whole, 6.0) == empirical_tail(chunked, 6.0)


def test_tail_grid_regimes(flip25):
    grid = tail_grid([256], 5, flip25.sup_norm)
    xs = [x for _, x in grid]
    assert min(xs) == pytest.approx(2.0 * 16.0)
    assert max(xs) <= 128.0 + 1e-9
