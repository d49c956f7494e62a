import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from weakdep import (block_sum_dist, build_coupling, coupling_errors,
                     flip_chain, make_coboundary, make_schedule,
                     sigma2_exact, skorohod_split, w2_conditional)
from weakdep.coupling import (VARIANTS, BudgetExceededError, _conditional_quantile,
                              _couple_path, gaussian_quantile)
from weakdep.processes import sample_chain_paths
from weakdep.rng import substream, substreams

from _oracles import (block_coupling_second_moment, block_dist_brute, block_dist_from_atoms,
                      block_dist_mean, block_sum_dist_exact, couple_path_loop,
                      random_lattice_chain)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_balanced_worked_value():
    sch = make_schedule(16, 4.0, "balanced")
    assert sch.m[16] == 6          # [2 (16 - log2 16) / 4]


def test_schedule_log_inflated_worked_value():
    sch = make_schedule(16, 4.0, "log_inflated", epsilon=0.5)
    assert sch.m[16] == 11         # [2 (16 + 1.5 * 4) / 4]


def test_schedule_small_levels_clamped():
    for variant, eps in (("balanced", 0.0), ("inflated", 0.5), ("log_inflated", 0.5)):
        sch = make_schedule(4, 2.5, variant, epsilon=eps)
        assert 0 <= sch.m[1] <= 1
        assert np.all(sch.m <= sch.levels)
        assert np.all(sch.m >= 0)


@given(st.integers(min_value=2, max_value=24),
       st.floats(min_value=2.01, max_value=4.0))
@settings(max_examples=40)
def test_schedule_balanced_sandwich(big_n, p):
    sch = make_schedule(big_n, p, "balanced")
    for level in range(2, big_n + 1):
        lo = 2.0 ** (-1.0 + 2.0 * level / p) * level ** (-2.0 / p)
        hi = 2.0 ** (2.0 * level / p) * level ** (-2.0 / p)
        assert lo <= 2.0 ** sch.m[level] <= hi * (1 + 1e-12)
        assert (2 ** level) % (2 ** sch.m[level]) == 0


def test_schedule_lambda_formula():
    sch = make_schedule(8, 4.0, "balanced", c_fit=2.0)
    kappa = math.sqrt(2.0 * 2.0 * math.log(2.0))
    want = kappa * 2.0 ** (sch.m[5] / 2.0) * math.sqrt(5.0)
    assert sch.lambdas[5] == pytest.approx(want, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError, match=r"\(2, 4\]"):
        make_schedule(8, 5.0, "balanced")
    with pytest.raises(ValueError, match="epsilon"):
        make_schedule(8, 4.0, "inflated", epsilon=0.0)
    with pytest.raises(ValueError, match="big_n"):
        make_schedule(1, 4.0, "balanced")


# ---------------------------------------------------------------------------
# block distributions
# ---------------------------------------------------------------------------

def test_block_dist_single_step(flip25):
    dist = block_sum_dist(flip25, 0, 0)
    assert np.array_equal(dist.sums_int, [-1, 1])
    assert np.allclose(dist.probs, [0.25, 0.75])


def test_block_dist_two_steps_brute(flip25):
    dist = block_sum_dist(flip25, 0, 1)
    brute = block_dist_brute(flip25, 0, 1)
    marg = {}
    for (s, _), p in brute.items():
        marg[s] = marg.get(s, 0.0) + p
    assert sorted(marg) == list(dist.sums_int)
    for s, p in zip(dist.sums_int, dist.probs):
        assert p == pytest.approx(marg[int(s)], abs=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_block_dist_matches_brute_enumeration(flip25, m):
    for start in range(2):
        dist = block_sum_dist(flip25, start, m)
        brute = block_dist_brute(flip25, start, m)
        marg = {}
        for (s, _), p in brute.items():
            marg[s] = marg.get(s, 0.0) + p
        assert list(dist.sums_int) == sorted(marg)
        for s, p in zip(dist.sums_int, dist.probs):
            assert p == pytest.approx(marg[int(s)], abs=1e-13)


def test_block_dist_mass_exact_rational(flip25, three_state):
    for chain in (flip25, three_state):
        for m in range(5):
            exact = block_sum_dist_exact(chain, 0, m)
            assert sum(exact.values()) == Fraction(1)


def test_block_dist_mean_is_conditional_drift(flip25, three_state):
    for chain in (flip25, three_state):
        for m in (0, 2, 4):
            mix = 0.0
            for start in range(chain.n_states):
                dist = block_sum_dist(chain, start, m)
                drift = sum((np.linalg.matrix_power(chain.transition, i)
                             @ chain.observable)[start]
                            for i in range(1, 2 ** m + 1))
                assert block_dist_mean(dist) == pytest.approx(float(drift), abs=1e-10)
                mix += chain.stationary[start] * block_dist_mean(dist)
            assert mix == pytest.approx(0.0, abs=1e-10)


def test_block_dist_end_state_split_consistent(flip25):
    dist = block_sum_dist(flip25, 1, 3)
    assert np.allclose(dist.end_state_probs.sum(axis=1), dist.probs, atol=1e-14)
    assert dist.cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_block_dist_budget_guard(flip25):
    with pytest.raises(BudgetExceededError, match="atom budget"):
        block_sum_dist(flip25, 0, 24)


# ---------------------------------------------------------------------------
# quantile transform
# ---------------------------------------------------------------------------

def two_point_dist():
    return block_dist_from_atoms([-1.0, 1.0], [0.5, 0.5],
                                 sums_int=np.array([-1, 1]))


def test_quantile_two_point_worked_value():
    v = _conditional_quantile(two_point_dist(), np.array([-1, -1]),
                              np.array([0.5, 0.2]))
    assert v == pytest.approx([-0.6744897501960817, -1.2815515655446004],
                              abs=1e-12)


def test_quantile_identity_on_matching_discretization():
    for m_atoms in (21, 81):
        qs = (np.arange(m_atoms) + 0.5) / m_atoms
        atoms = np.sort(gaussian_quantile(qs))
        dist = block_dist_from_atoms(atoms, np.full(m_atoms, 1.0 / m_atoms),
                                     sums_int=np.arange(m_atoms))
        idx = np.arange(0, m_atoms, 5)
        v = _conditional_quantile(dist, idx, np.full(len(idx), 0.5))
        assert v == pytest.approx(atoms[idx], abs=1e-10)


def test_quantile_between_atoms_is_left_limit():
    # F(u) = F(u-) off the atoms, whatever the randomizer: 1 lies between
    # the atoms 0 and 2, and 3 beyond the last atom.
    dist = block_dist_from_atoms([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25],
                                 sums_int=np.array([-2, 0, 2]))
    v = _conditional_quantile(dist, np.array([1, 1, 3]), np.array([0.1, 0.9, 0.5]))
    assert v[0] == v[1] == gaussian_quantile(0.75)
    assert v[2] == gaussian_quantile(1.0)


def test_quantile_clamp_path_finite():
    v = _conditional_quantile(two_point_dist(), np.array([1, -1]),
                              np.array([1.0 - 1e-12, 1e-300]))
    assert np.all(np.isfinite(v))
    assert np.all(np.abs(v) <= 8.3)


def test_quantile_validation():
    with pytest.raises(ValueError, match="support"):
        _conditional_quantile(two_point_dist(), np.array([1, -5]),
                              np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# increment split
# ---------------------------------------------------------------------------

def _increments(prefix):
    return np.diff(prefix, axis=1, prepend=0.0)


@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.1, max_value=9.0),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_split_sums_exactly(v, m, sigma2, key):
    normals = np.stack([substream(key, 7, 1, 2 + k).standard_normal(2 ** m)
                        for k in range(len(v))])
    prefix = skorohod_split(np.array(v), normals, sigma2)
    assert prefix.shape == (len(v), 2 ** m)
    for total, want in zip(prefix[:, -1], v):
        assert float(total) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_split_zero_total_antisymmetric():
    prefix = skorohod_split(np.zeros(1), substream(3, 7, 0, 0).standard_normal((1, 2)), 1.0)
    inc = _increments(prefix)[0]
    assert inc[0] == pytest.approx(-inc[1], abs=1e-12)


def test_split_marginals_gaussian_ks():
    sigma2 = 2.0
    m = 2
    v = np.empty(2500)
    normals = np.empty((2500, 2 ** m))
    for b, gen in enumerate(substreams(11, 7, ((b, 0) for b in range(2500)))):
        v[b] = gen.normal(0.0, math.sqrt(sigma2 * 2 ** m))
        gen.standard_normal(out=normals[b])
    pooled = _increments(skorohod_split(v, normals, sigma2)).ravel()
    stat = kstest(pooled, "norm", args=(0.0, math.sqrt(sigma2)))
    assert stat.pvalue > 0.01


def test_split_validation():
    with pytest.raises(ValueError):
        skorohod_split(np.ones(1), np.zeros((1, 1)), 1.0)
    with pytest.raises(ValueError):
        skorohod_split(np.ones(1), np.zeros((1, 4)), 0.0)


# ---------------------------------------------------------------------------
# full construction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coupled():
    chain = flip_chain(0.25)
    sigma2 = sigma2_exact(chain)
    sch = make_schedule(11, 4.0, "balanced")
    path = build_coupling(chain, sch, sigma2, 2 ** 12, seed=41)
    return chain, sigma2, sch, path


def test_coupling_rejects_degenerate(flip25):
    cob = make_coboundary(flip25, [1.0, -1.0])
    sch = make_schedule(5, 4.0, "balanced")
    with pytest.raises(ValueError, match="degenerate process"):
        build_coupling(cob, sch, 0.0, 2 ** 6, seed=1)


def test_coupling_rejects_mismatched_n(flip25):
    sch = make_schedule(5, 4.0, "balanced")
    with pytest.raises(ValueError, match="2\\^"):
        build_coupling(flip25, sch, 3.0, 100, seed=1)


def test_coupling_boundary_identity_exact(coupled):
    _, _, sch, path = coupled
    running = path.t[1]
    for level in range(len(sch.levels)):
        m = path.m_by_level[level]
        count = 2 ** m
        for k, v in enumerate(path.v_by_level[level]):
            boundary = 2 ** level + (k + 1) * count
            running = running + v
            assert path.t[boundary] == running      # bitwise


def test_coupling_block_sums_match_path(coupled):
    _, _, sch, path = coupled
    for level in range(len(sch.levels)):
        m = path.m_by_level[level]
        count = 2 ** m
        for k, u in enumerate(path.u_by_level[level]):
            b = 2 ** level + k * count
            assert u == pytest.approx(float(np.sum(path.x[b:b + count])), abs=1e-9)
            z_sum = float(np.sum(path.z[b:b + count]))
            assert z_sum == pytest.approx(path.v_by_level[level][k],
                                          rel=1e-12, abs=1e-9)


def test_coupling_errors_decompositions(coupled):
    _, _, _, path = coupled
    errs = coupling_errors(path)
    assert errs.sup_error <= errs.envelope + 1e-9
    for row in errs.per_level:
        assert row["d"] <= row["d1"] + row["d2"] + 1e-9


def test_coupling_identity_debug_gives_zero(coupled):
    _, _, _, path = coupled
    ident = replace(path, t=path.s.copy(), z=np.diff(path.s),
                    v_by_level=path.u_by_level)
    errs = coupling_errors(ident)
    assert errs.sup_error == 0.0
    assert all(row["d"] == 0.0 for row in errs.per_level)


def test_coupling_pooled_z_gaussian(coupled):
    _, sigma2, _, path = coupled
    stat = kstest(path.z, "norm", args=(0.0, math.sqrt(sigma2)))
    assert stat.pvalue > 0.01


def test_coupling_iid_chain_standard_normal_increments():
    chain = flip_chain(0.5)
    sch = make_schedule(11, 4.0, "balanced")
    path = build_coupling(chain, sch, 1.0, 2 ** 12, seed=29)
    stat = kstest(path.z, "norm")
    assert stat.pvalue > 0.01


def test_coupling_v_normalized_gaussian():
    chain = flip_chain(0.25)
    sigma2 = sigma2_exact(chain)
    sch = make_schedule(10, 4.0, "balanced")
    pooled = []
    for rep in range(8):
        path = build_coupling(chain, sch, sigma2, 2 ** 11, seed=43, replicate=rep)
        for level in range(11):
            m = path.m_by_level[level]
            scale = math.sqrt(sigma2) * 2.0 ** (m / 2.0)
            pooled.extend(path.v_by_level[level] / scale)
    stat = kstest(np.asarray(pooled), "norm")
    assert stat.pvalue > 0.01


def test_coupling_v_independent_of_past():
    chain = flip_chain(0.25)
    sigma2 = sigma2_exact(chain)
    sch = make_schedule(10, 4.0, "balanced")
    vs, starts, sums = [], [], []
    for rep in range(6):
        path = build_coupling(chain, sch, sigma2, 2 ** 11, seed=47, replicate=rep)
        states_sign = np.sign(path.x)   # bounded function of the step values
        for level in range(11):
            m = path.m_by_level[level]
            count = 2 ** m
            for k, v in enumerate(path.v_by_level[level]):
                b = 2 ** level + k * count
                vs.append(v)
                sums.append(path.s[b])
                starts.append(states_sign[b - 1])
    vs, sums, starts = map(np.asarray, (vs, sums, starts))
    n = len(vs)
    corr_sum = np.corrcoef(vs, sums)[0, 1]
    corr_start = np.corrcoef(vs, starts)[0, 1]
    assert abs(corr_sum) <= 3.0 / math.sqrt(n)
    assert abs(corr_start) <= 3.0 / math.sqrt(n)


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(VARIANTS))
@settings(max_examples=40, deadline=None)
def test_couple_path_matches_reference_loop(n_states, seed, variant):
    # The per-level coupling against the block-by-block loop it replaced:
    # same path and substreams in, identical T, U and V out.
    rng = np.random.default_rng(seed)
    chain = random_lattice_chain(rng, n_states)
    big_n = int(rng.integers(2, 9))
    sch = make_schedule(big_n, float(rng.uniform(2.01, 4.0)), variant,
                        epsilon=0.0 if variant == "balanced" else float(rng.uniform(0.1, 1.5)))
    sigma2 = float(rng.uniform(0.1, 4.0))
    replicate = int(rng.integers(0, 4))
    states, vals = sample_chain_paths(chain, sch.n, seed, [replicate])
    path = _couple_path(chain, sch, sigma2, states[0], vals[0], seed, replicate)
    t, u_by_level, v_by_level = couple_path_loop(chain, sch, sigma2, states[0],
                                                 vals[0], seed, replicate)
    assert np.array_equal(path.t, t)
    assert len(path.u_by_level) == len(u_by_level) == big_n + 1
    for got_u, got_v, want_u, want_v in zip(path.u_by_level, path.v_by_level,
                                            u_by_level, v_by_level):
        assert np.array_equal(got_u, want_u)
        assert np.array_equal(got_v, want_v)


def test_coupling_determinism(flip25):
    sigma2 = sigma2_exact(flip25)
    sch = make_schedule(7, 4.0, "balanced")
    a = build_coupling(flip25, sch, sigma2, 2 ** 8, seed=19)
    b = build_coupling(flip25, sch, sigma2, 2 ** 8, seed=19)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.s, b.s)


# ---------------------------------------------------------------------------
# quadratic transport cost
# ---------------------------------------------------------------------------

def test_w2_point_mass_is_second_moment():
    dist = block_dist_from_atoms([0.0], [1.0])
    assert w2_conditional(dist, 1.0) == pytest.approx(1.0, rel=1e-10)
    assert w2_conditional(dist, 4.0) == pytest.approx(4.0, rel=1e-10)


def test_w2_vanishes_under_refinement():
    prev = None
    for m_atoms in (20, 80, 320):
        qs = (np.arange(m_atoms) + 0.5) / m_atoms
        atoms = np.array([gaussian_quantile(float(q)) for q in qs])
        dist = block_dist_from_atoms(atoms, np.full(m_atoms, 1.0 / m_atoms))
        val = w2_conditional(dist, 1.0)
        if prev is not None:
            assert val < prev
        prev = val
    assert prev < 5e-3


def test_w2_monte_carlo_identity(flip25):
    sigma2 = sigma2_exact(flip25)
    out = block_coupling_second_moment(flip25, 3, sigma2, 30_000, seed=3)
    assert abs(out["z_score"]) <= 3.0
