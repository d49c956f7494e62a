import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakdep import (ThetaTable, build_finite_chain,
                     degenerate_moment_bound, flip_chain, make_coboundary,
                     series_summary, sigma2_exact, symmetrize, theta_exact)
from weakdep.coefficients import (BudgetExceededError, _count_tuples,
                                  _positive_exponent_vectors, certified_contraction, certify,
                                  theta_table_from_chain, theta_truncation_bound)
from weakdep.processes import process_to_config

from _oracles import (alpha_brute_two_state, alpha_inf4_exact,
                      covariance_series_partial, normalize_process,
                      partial_sum_variance, positive_exponent_vectors_recursive,
                      random_lattice_chain,
                      sigma2_extrapolated, symmetrization_check, theta_brute,
                      theta_exact_loop)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_geometric_closed_form(flip25):
    for k in range(1, 7):
        assert theta_exact(flip25, 1, 1, k) == pytest.approx(0.5 ** k, abs=1e-12)
    assert theta_exact(flip25, 1, 1, 3) == pytest.approx(0.125, abs=1e-12)


def test_theta_matches_path_enumeration(flip25, three_state):
    for chain, horizon in ((flip25, 3), (three_state, 2)):
        for (p, q, k) in [(1, 1, 1), (1, 2, 1), (2, 2, 1), (1, 1, 3)]:
            got = theta_exact(chain, p, q, k, tuple_horizon=horizon)
            want = theta_brute(chain, p, q, k, horizon)
            assert got == pytest.approx(want, abs=1e-10)


def test_theta_iid_vanishes(iid_chain):
    for (p, q) in [(1, 1), (2, 2), (4, 4)]:
        assert theta_exact(iid_chain, p, q, 1) == pytest.approx(0.0, abs=1e-12)


def test_theta_nonincreasing(flip25, three_state, four_state):
    for chain in (flip25, three_state, four_state):
        vals = [theta_exact(chain, 2, 2, k, tuple_horizon=6) for k in range(6)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_theta_domination_11_by_44(flip25):
    for k in range(7):
        assert (theta_exact(flip25, 1, 1, k)
                <= theta_exact(flip25, 4, 4, k) + 1e-12)


def test_theta_normalization_scaling():
    base = build_finite_chain([[0.75, 0.25], [0.25, 0.75]], [2.0, -2.0], 1.0)
    unit = normalize_process(base)
    for k in range(4):
        raw = theta_exact(base, 1, 1, k)
        scaled = theta_exact(unit, 1, 1, k)
        assert scaled == pytest.approx(raw / base.sup_norm, rel=1e-12)
        # higher q scales at least as fast when sup_norm >= 1
        assert (theta_exact(unit, 2, 2, k)
                <= theta_exact(base, 2, 2, k) / base.sup_norm + 1e-12)


def test_theta_truncation_bound(flip25):
    assert theta_truncation_bound(flip25, 4, 10) == pytest.approx(
        4 * 0.5 ** 10, abs=1e-12)


def test_theta_budget_guard(flip25):
    with pytest.raises(BudgetExceededError, match="tuple budget"):
        theta_exact(flip25, 4, 4, 0, tuple_horizon=400)


def test_theta_table_budget_guard(flip25):
    with pytest.raises(BudgetExceededError, match="tuple budget"):
        theta_table_from_chain(flip25, 4, 4, 2, 0.0, tuple_horizon=400)


def test_exponent_vectors_match_recursion():
    for r in range(9):
        for q in range(11):
            assert (_positive_exponent_vectors(r, q)
                    == positive_exponent_vectors_recursive(r, q)), (r, q)


def test_tuple_count_matches_enumeration():
    for p in range(1, 9):
        for q in range(1, 9):
            for horizon in range(15):
                built = sum(len(positive_exponent_vectors_recursive(r, q))
                            * math.comb(horizon + 1, r) for r in range(1, p + 1))
                assert _count_tuples(p, q, horizon) == built, (p, q, horizon)


# (states, symmetrized): S <= 9 after symmetrization
CHAIN_SHAPES = st.one_of(st.tuples(st.integers(1, 9), st.just(False)),
                         st.tuples(st.integers(1, 3), st.just(True)))


@given(CHAIN_SHAPES, st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 8), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_theta_table_matches_per_lag_loop(shape, seed, p, q, horizon, tuple_horizon):
    # The pattern-table kernel against the per-lag enumeration of the tuples
    # that start at k: identical bits for the table and for every single lag,
    # whatever the weight vector (random_lattice_chain's is not its own law).
    n_states, symmetrized = shape
    chain = random_lattice_chain(np.random.default_rng(seed), n_states)
    if symmetrized:
        try:
            chain = symmetrize(chain)
        except ValueError:  # the product chain has several closed classes
            assume(False)
    want = [theta_exact_loop(chain, p, q, k, tuple_horizon, first_start=True)
            for k in range(horizon + 1)]
    table = theta_table_from_chain(chain, p, q, horizon, 0.0,
                                   tuple_horizon=tuple_horizon)
    assert table.values.tobytes() == np.minimum.accumulate(want).tobytes()
    for k, value in enumerate(want):
        assert np.float64(theta_exact(chain, p, q, k, tuple_horizon)).tobytes() == \
            np.float64(value).tobytes()


@given(CHAIN_SHAPES, st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 8), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_theta_first_start_matches_full_window(shape, seed, p, q, horizon, tuple_horizon):
    # On a chain whose weights are its own stationary law, the tuples that
    # start after k add nothing but rounding: the loop over the whole window
    # [k, k + T] is never below the kernel, bit for bit (the kernel's tuples
    # are among its own), and exceeds it by at most 1e-14 of the largest value.
    n_states, symmetrized = shape
    base = random_lattice_chain(np.random.default_rng(seed), n_states)
    try:
        chain = build_finite_chain(base.transition, base.observable, 1.0)
        if symmetrized:
            chain = symmetrize(chain)
    except ValueError:  # several closed classes, or a huge mean denominator
        assume(False)
    got = np.array([theta_exact(chain, p, q, k, tuple_horizon) for k in range(horizon + 1)])
    want = np.array([theta_exact_loop(chain, p, q, k, tuple_horizon)
                     for k in range(horizon + 1)])
    assert np.all(want >= got)
    assert np.all(want - got <= 1e-14 * want.max())


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_transition_contracts_in_l1_of_stationary_law(n_states, seed):
    # The fact behind the first-start rule, in exact arithmetic: for pi P = pi
    # and any g and constant c, pi|P g - c| <= pi|g - c|.
    rng = np.random.default_rng(seed)
    base = random_lattice_chain(rng, n_states)
    try:
        chain = build_finite_chain(base.transition, base.observable, 1.0)
    except ValueError:  # several closed classes, or a huge mean denominator
        assume(False)
    p, pi = chain.exact_transition, chain.exact_stationary
    g = [Fraction(int(v)) for v in rng.integers(-8, 9, n_states)]
    c = Fraction(int(rng.integers(-8, 9)), 3)
    for _ in range(4):
        pg = [sum(pij * gj for pij, gj in zip(row, g)) for row in p]
        assert (sum(w * abs(v - c) for w, v in zip(pi, pg))
                <= sum(w * abs(v - c) for w, v in zip(pi, g)))
        g = pg


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_stacked_products_match_per_row_products(seed):
    # The theta kernel relies on these two numpy identities for its bits:
    # a stacked (K, S, S) @ h is one gemv per slice, and vecdot over rows is
    # one ddot per row.
    rng = np.random.default_rng(seed)
    s, k = int(rng.integers(1, 10)), int(rng.integers(1, 30))
    mats = [rng.random((s, s)) for _ in range(k)]
    h, pi = rng.standard_normal(s), rng.random(s)
    stacked = np.stack(mats) @ h
    assert stacked.tobytes() == np.stack([m @ h for m in mats]).tobytes()
    rows = [row.copy() for row in stacked]
    assert np.vecdot(stacked, pi).tobytes() == \
        np.array([float(pi @ row) for row in rows]).tobytes()


def test_theta_cap_after_normalization(flip25):
    # sup_norm 1: theta(0) cannot exceed 1
    assert theta_exact(flip25, 4, 4, 0) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# alpha
# ---------------------------------------------------------------------------

def test_alpha_iid_vanishes(iid_chain):
    assert alpha_inf4_exact(iid_chain, 1, tuple_horizon=4) == pytest.approx(
        0.0, abs=1e-12)


def test_alpha_flip_in_expected_range(flip25):
    val = alpha_inf4_exact(flip25, 1, tuple_horizon=5)
    assert 0.0 < val <= 0.25 * 0.5 + 1e-12
    assert val <= 0.25 + 1e-12   # universal cap


def test_alpha_matches_event_enumeration(flip25):
    got = alpha_inf4_exact(flip25, 1, tuple_horizon=4)
    want = alpha_brute_two_state(flip25, 1, 4)
    assert got == pytest.approx(want, abs=1e-12)


def test_alpha_nonincreasing(flip25):
    a = [alpha_inf4_exact(flip25, k, tuple_horizon=4) for k in range(1, 4)]
    assert all(y <= x + 1e-12 for x, y in zip(a, a[1:]))


def test_alpha_state_budget(four_state):
    big = build_finite_chain(np.full((9, 9), 1.0 / 9), list(range(-4, 5)), 1.0)
    with pytest.raises(BudgetExceededError):
        alpha_inf4_exact(big, 1)


# ---------------------------------------------------------------------------
# sigma2
# ---------------------------------------------------------------------------

def test_sigma2_flip_closed_form(flip25):
    assert sigma2_exact(flip25) == pytest.approx(3.0, abs=1e-8)
    assert certify(flip25).radius <= 1e-10


def test_sigma2_iid(iid_chain):
    assert sigma2_exact(iid_chain) == pytest.approx(1.0, abs=1e-10)


def test_sigma2_matches_partial_series(flip25, three_state):
    for chain in (flip25, three_state):
        assert sigma2_exact(chain) == pytest.approx(
            covariance_series_partial(chain, 200), abs=1e-9)


def test_sigma2_extrapolation_agreement(flip25):
    assert sigma2_extrapolated(flip25, n=2 ** 14) == pytest.approx(
        sigma2_exact(flip25), rel=1e-3)


def test_sigma2_coboundary_degenerate(flip25):
    chain = make_coboundary(flip25, [1.0, -1.0])
    assert abs(sigma2_exact(chain)) <= 1e-8


def test_sigma2_periodic_rejected():
    cycle = build_finite_chain([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0], 1.0)
    with pytest.raises(ValueError, match="no spectral gap"):
        sigma2_exact(cycle)


def test_partial_sum_variance_against_covariances(flip25):
    n = 50
    covs = [float(flip25.stationary
                  @ (flip25.observable
                     * (np.linalg.matrix_power(flip25.transition, k)
                        @ flip25.observable))) for k in range(n)]
    want = n * covs[0] + 2.0 * sum((n - k) * covs[k] for k in range(1, n))
    assert partial_sum_variance(flip25, n) == pytest.approx(want, rel=1e-12)


def test_certified_contraction_flip(flip25):
    r, delta = certified_contraction(flip25)
    assert r == 1
    assert delta == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# tables and series summaries
# ---------------------------------------------------------------------------

def geometric_table(rate=0.5, horizon=10):
    vals = rate ** np.arange(horizon + 1)
    return ThetaTable(values=vals, rate=rate)


def test_series_summary_zero_tail_unit():
    table = ThetaTable(values=np.array([1.0]), rate=0.0)
    summ = series_summary(table, sigma2=0.0)
    assert summ.theta1 == 1.0 and summ.theta2 == 1.0
    assert summ.weighted(7.0) == 0.0


def test_series_summary_geometric_closed_form():
    summ = series_summary(geometric_table(), sigma2=0.0)
    assert summ.theta1 == pytest.approx(2.0, rel=1e-12)
    assert summ.theta2 == pytest.approx(3.0, rel=1e-12)


def test_weighted_at_one_equals_theta2_minus_one():
    summ = series_summary(geometric_table(), sigma2=0.0)
    assert summ.weighted(1.0) == pytest.approx(summ.theta2 - 1.0, rel=1e-12)


def test_weighted_matches_numeric_sum():
    summ = series_summary(geometric_table(rate=0.7, horizon=8), sigma2=0.0)
    ks = np.arange(1, 4000, dtype=float)
    theta = np.where(ks <= 8, 0.7 ** ks, 0.7 ** 8 * 0.7 ** (ks - 8))
    for x in (0.5, 3.0, 12.7, 250.0):
        want = float((ks * np.minimum(ks, x) * theta).sum())
        assert summ.weighted(x) == pytest.approx(want, rel=1e-10)


@given(st.floats(min_value=0.0, max_value=500.0),
       st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=30)
def test_weighted_monotone(x1, x2):
    summ = series_summary(geometric_table(rate=0.6, horizon=6), sigma2=0.0)
    lo, hi = sorted((x1, x2))
    assert summ.weighted(lo) <= summ.weighted(hi) + 1e-12


def test_table_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        ThetaTable(values=np.array([0.5, 0.7]), rate=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ThetaTable(values=np.array([0.5, -0.1]), rate=0.0)
    with pytest.raises(ValueError):
        ThetaTable(values=np.array([1.0]), rate=1.0)


def test_theta_table_from_chain_and_csv(tmp_path, flip25):
    table = theta_table_from_chain(flip25, 1, 1, 6, 0.5)
    assert np.allclose(table.values, 0.5 ** np.arange(7), atol=1e-12)
    # the declared tail at lag 9: values[6] * rate^3
    assert table.values[-1] * table.rate ** 3 == pytest.approx(0.5 ** 9, rel=1e-10)
    # The table's CSV is the one `coeffs` writes; p, q and the tail rate are
    # in its summary.json.
    from click.testing import CliRunner

    from weakdep.cli import main

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"process": process_to_config(flip25)}))
    result = CliRunner().invoke(main, ["coeffs", "--config", str(cfg), "--out", str(tmp_path),
                                       "--p", "1", "--q", "1", "--horizon", "6"])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert (doc["config"]["p"], doc["config"]["q"]) == (1, 1)
    assert doc["summary"]["tail_rate"] == table.rate
    lines = (tmp_path / "theta.csv").read_text().splitlines()
    assert lines[0] == "k,value"
    k, v = lines[1].split(",")
    assert (k, float(v)) == ("0", 1.0)


# ---------------------------------------------------------------------------
# symmetrization comparison and degenerate moment bound
# ---------------------------------------------------------------------------

def test_symmetrization_check_iid(iid_chain):
    tz, bound = symmetrization_check(iid_chain, 1, 1, 1, tuple_horizon=4)
    assert tz == pytest.approx(0.0, abs=1e-10)
    assert bound == pytest.approx(0.0, abs=1e-10)


def test_symmetrization_check_flip(flip25):
    tz, bound = symmetrization_check(flip25, 1, 1, 2, tuple_horizon=6)
    assert bound == pytest.approx(1.0, abs=1e-10)   # 2^2 * 0.25
    assert tz <= bound + 1e-10


def test_symmetrization_bound_monotone_in_q(flip25):
    _, b1 = symmetrization_check(flip25, 1, 1, 2, tuple_horizon=4)
    _, b2 = symmetrization_check(flip25, 1, 2, 2, tuple_horizon=4)
    assert b2 >= b1 - 1e-12


def test_symmetrization_bound_holds_with_slack(flip25, three_state):
    for chain in (flip25, three_state):
        unit = normalize_process(chain)
        for (p, q) in [(1, 1), (2, 2)]:
            for k in range(1, 5):
                tz, bound = symmetrization_check(unit, p, q, k, tuple_horizon=5)
                assert tz <= bound + 1e-10


def test_degenerate_moment_bound_single_term():
    table = ThetaTable(values=np.array([1.0]), rate=0.0)
    assert degenerate_moment_bound(0.5, 2, table) == pytest.approx(2.0, rel=1e-12)


def test_degenerate_moment_bound_geometric():
    assert degenerate_moment_bound(1.0, 1, geometric_table()) == pytest.approx(
        4.0, rel=1e-10)


def test_degenerate_moment_bound_q1_ignores_weight():
    table = geometric_table(rate=0.3, horizon=12)
    summ = series_summary(table, sigma2=0.0)
    direct = 2.0 * (1.0 + (summ.theta1 - 1.0))   # 2M * sum_{k>=0} theta(k)
    assert degenerate_moment_bound(1.0, 1, table) == pytest.approx(
        direct, rel=1e-10)


def test_degenerate_moment_bound_divergent():
    # at q = 2 the term ratio rho (k+2)/(k+1) stays >= 1 until lag ~10^6, so
    # the tail has not converged by the numeric horizon
    table = ThetaTable(values=np.array([1.0, 0.5]), rate=0.999999)
    assert degenerate_moment_bound(1.0, 2, table) == math.inf
