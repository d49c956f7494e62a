import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakdep import (TailModel, ThetaTable, build_finite_chain,
                     degenerate_moment_bound, flip_chain, make_coboundary,
                     normalize_process, series_summary, sigma2_exact,
                     symmetrization_check, symmetrize, theta_exact)
from weakdep.coefficients import (BudgetExceededError, alpha_inf4_exact,
                                  certified_contraction, partial_sum_variance,
                                  sigma2_certified, sigma2_extrapolated,
                                  theta_table_from_chain, theta_table_to_csv,
                                  theta_truncation_bound)

from _oracles import (alpha_brute_two_state, covariance_series_partial,
                      random_lattice_chain, theta_brute, theta_exact_loop)


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
        theta_table_from_chain(flip25, 4, 4, 2, TailModel("zero"), tuple_horizon=400)


# (states, symmetrized): S <= 9 after symmetrization
CHAIN_SHAPES = st.one_of(st.tuples(st.integers(1, 9), st.just(False)),
                         st.tuples(st.integers(1, 3), st.just(True)))


@given(CHAIN_SHAPES, st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 8), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_theta_table_matches_per_lag_loop(shape, seed, p, q, horizon, tuple_horizon):
    # The pattern-table kernel against the per-lag enumeration it replaced:
    # identical bits for the table and for every single lag.
    n_states, symmetrized = shape
    chain = random_lattice_chain(np.random.default_rng(seed), n_states)
    if symmetrized:
        try:
            chain = symmetrize(chain)
        except ValueError:  # the product chain has several closed classes
            assume(False)
    want = [theta_exact_loop(chain, p, q, k, tuple_horizon) for k in range(horizon + 1)]
    table = theta_table_from_chain(chain, p, q, horizon, TailModel("zero"),
                                   tuple_horizon=tuple_horizon)
    assert table.values.tobytes() == np.minimum.accumulate(want).tobytes()
    for k, value in enumerate(want):
        assert np.float64(theta_exact(chain, p, q, k, tuple_horizon)).tobytes() == \
            np.float64(value).tobytes()


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
    mid, radius = sigma2_certified(flip25)
    assert radius <= 1e-10


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
    assert abs(sigma2_exact(chain, radius_target=1e-9)) <= 1e-8


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
    return ThetaTable(values=vals, tail=TailModel("geometric", rate=rate))


def test_series_summary_zero_tail_unit():
    table = ThetaTable(values=np.array([1.0]), tail=TailModel("zero"))
    summ = series_summary(table)
    assert summ.theta1 == 1.0 and summ.theta2 == 1.0
    assert summ.weighted(7.0) == 0.0


def test_series_summary_geometric_closed_form():
    summ = series_summary(geometric_table())
    assert summ.theta1 == pytest.approx(2.0, rel=1e-12)
    assert summ.theta2 == pytest.approx(3.0, rel=1e-12)


def test_weighted_at_one_equals_theta2_minus_one():
    summ = series_summary(geometric_table())
    assert summ.weighted(1.0) == pytest.approx(summ.theta2 - 1.0, rel=1e-12)


def test_weighted_matches_numeric_sum():
    summ = series_summary(geometric_table(rate=0.7, horizon=8))
    ks = np.arange(1, 4000, dtype=float)
    theta = np.where(ks <= 8, 0.7 ** ks, 0.7 ** 8 * 0.7 ** (ks - 8))
    for x in (0.5, 3.0, 12.7, 250.0):
        want = float((ks * np.minimum(ks, x) * theta).sum())
        assert summ.weighted(x) == pytest.approx(want, rel=1e-10)


@given(st.floats(min_value=0.0, max_value=500.0),
       st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=30)
def test_weighted_monotone(x1, x2):
    summ = series_summary(geometric_table(rate=0.6, horizon=6))
    lo, hi = sorted((x1, x2))
    assert summ.weighted(lo) <= summ.weighted(hi) + 1e-12


def test_polynomial_tail_finite_and_divergent():
    vals = np.array([1.0, 0.5, 0.3, 1.0 * 3.0 ** (1 - 3.5)])
    table = ThetaTable(values=vals,
                       tail=TailModel("polynomial", coefficient=1.0, p_exponent=3.5))
    summ = series_summary(table)
    assert math.isfinite(summ.theta2)
    table2 = ThetaTable(values=np.array([1.0, 0.5, 0.3, 1.0 * 3.0 ** (1 - 2.5)]),
                        tail=TailModel("polynomial", coefficient=1.0, p_exponent=2.5))
    summ2 = series_summary(table2)
    assert summ2.theta2 == math.inf
    assert summ2.weighted(100.0) == math.inf


def test_tail_consistency_enforced():
    with pytest.raises(ValueError, match="factor 2"):
        ThetaTable(values=np.array([1.0, 0.5]),
                   tail=TailModel("polynomial", coefficient=10.0, p_exponent=3.2))


def test_table_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        ThetaTable(values=np.array([0.5, 0.7]), tail=TailModel("zero"))
    with pytest.raises(ValueError, match="nonnegative"):
        ThetaTable(values=np.array([0.5, -0.1]), tail=TailModel("zero"))
    with pytest.raises(ValueError):
        TailModel("geometric", rate=1.0)


def test_theta_table_from_chain_and_csv(tmp_path, flip25):
    table = theta_table_from_chain(flip25, 1, 1, 6, TailModel("geometric", rate=0.5))
    assert np.allclose(table.values, 0.5 ** np.arange(7), atol=1e-12)
    assert table.theta_at(9) == pytest.approx(0.5 ** 9, rel=1e-10)
    out = tmp_path / "theta.csv"
    theta_table_to_csv(table, str(out))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# kind: theta")
    assert "geometric" in lines[1]
    assert lines[2] == "k,value"
    k, v = lines[3].split(",")
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
    table = ThetaTable(values=np.array([1.0]), tail=TailModel("zero"))
    assert degenerate_moment_bound(0.5, 2, table) == pytest.approx(2.0, rel=1e-12)


def test_degenerate_moment_bound_geometric():
    assert degenerate_moment_bound(1.0, 1, geometric_table()) == pytest.approx(
        4.0, rel=1e-10)


def test_degenerate_moment_bound_q1_ignores_weight():
    table = geometric_table(rate=0.3, horizon=12)
    summ = series_summary(table)
    direct = 2.0 * (1.0 + (summ.theta1 - 1.0))   # 2M * sum_{k>=0} theta(k)
    assert degenerate_moment_bound(1.0, 1, table) == pytest.approx(
        direct, rel=1e-10)


def test_degenerate_moment_bound_divergent():
    vals = np.array([1.0, 0.5, 1.0 * 2.0 ** (1 - 2.2)])
    table = ThetaTable(values=vals,
                       tail=TailModel("polynomial", coefficient=1.0, p_exponent=2.2))
    assert degenerate_moment_bound(1.0, 2, table) == math.inf
