import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import (build_finite_chain, flip_chain, make_coboundary, processes,
                     sample_path, sigma2_exact, symmetrize)
from weakdep.bounds import _chain_running_stats
from weakdep.processes import (LsvObservable, LsvProcess,
                               _chain_states_from_uniforms, lsv_map,
                               lsv_reference_mean, lsv_running_stats,
                               process_from_config, process_to_config,
                               sample_lsv_ensemble)

from _oracles import (chain_states_loop, exact_stationary_elimination, lsv_map_expr,
                      lsv_running_stats_per_n, normalize_process, random_lattice_chain,
                      symmetrize_loop)


def test_flip_chain_stationary_and_sup_norm():
    chain = flip_chain(0.25)
    assert np.allclose(chain.stationary, [0.5, 0.5], atol=1e-14)
    assert chain.sup_norm == 1.0
    assert np.array_equal(chain.obs_int, [1, -1])


def test_identity_transition_rejected():
    with pytest.raises(ValueError, match="non-unique stationary law"):
        build_finite_chain(np.eye(2), [1.0, -1.0], 1.0)


@st.composite
def stochastic_rows(draw):
    """Exact stochastic rows, each a random dyadic row with zeros (masses
    k / 2^bits), a row of a random permutation, or a row of the identity."""
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(n)))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(("dyadic", "permutation", "identity")))
        if kind == "dyadic":
            unit = 2 ** draw(st.integers(0, 4))
            cuts = sorted(draw(st.lists(st.integers(0, unit), min_size=n - 1,
                                        max_size=n - 1)))
            rows.append([Fraction(b - a, unit) for a, b in zip([0, *cuts], [*cuts, unit])])
        else:
            target = perm[i] if kind == "permutation" else i
            rows.append([Fraction(int(j == target)) for j in range(n)])
    return rows


@given(stochastic_rows())
@settings(max_examples=300, deadline=None)
def test_square_stationary_solve_matches_elimination(rows):
    # The square solve against the rank-revealing elimination it replaced:
    # the same Fractions, or the same refusal.
    def solve(method):
        try:
            return method([list(row) for row in rows])
        except ValueError as exc:
            return str(exc)

    assert solve(processes._exact_stationary) == solve(exact_stationary_elimination)


def test_empty_or_mismatched_chain_rejected():
    with pytest.raises(ValueError, match="nonempty square matrix"):
        build_finite_chain(np.zeros((0, 0)), [], 1.0)
    with pytest.raises(ValueError, match="nonempty square matrix"):
        build_finite_chain([[0.75, 0.25], [1.0]], [1.0, -1.0], 1.0)
    for observable in ([], [1.0, 0.0, -1.0]):
        with pytest.raises(ValueError, match="one value per state"):
            build_finite_chain([[0.5, 0.5], [0.5, 0.5]], observable, 1.0)


def test_three_state_stationary_matches_linear_solve(three_state):
    assert np.allclose(three_state.stationary, [1 / 3] * 3, atol=1e-12)
    # independent oracle: least-squares solve of pi (P - I) = 0, sum pi = 1
    p = three_state.transition
    a = np.vstack([(p - np.eye(3)).T, np.ones(3)])
    b = np.concatenate([np.zeros(3), [1.0]])
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.allclose(three_state.stationary, pi, atol=1e-10)


def test_rejects_bad_rows():
    with pytest.raises(ValueError, match="sum to 1"):
        build_finite_chain([[0.6, 0.6], [0.5, 0.5]], [1, -1], 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        build_finite_chain([[1.2, -0.2], [0.5, 0.5]], [1, -1], 1.0)
    with pytest.raises(ValueError, match="lattice"):
        build_finite_chain([[0.5, 0.5], [0.5, 0.5]], [1.0, -0.7], 0.5)


def test_recentering_refines_lattice_exactly():
    chain = build_finite_chain([[0.9, 0.1], [0.3, 0.7]], [1.0, 0.0], 1.0)
    # stationary (0.75, 0.25), mean 3/4: step refines to 1/4
    assert np.allclose(chain.stationary, [0.75, 0.25], atol=1e-12)
    assert chain.step == pytest.approx(0.25)
    assert np.array_equal(chain.obs_int, [1, -3])
    assert abs(float(chain.stationary @ chain.observable)) < 1e-12
    assert np.allclose(chain.obs_int * chain.step, chain.observable)


@given(st.integers(min_value=0, max_value=2 ** 63 - 1))
@settings(max_examples=15)
def test_sample_path_deterministic(seed):
    chain = flip_chain(0.25)
    a = sample_path(chain, 64, seed)
    b = sample_path(chain, 64, seed)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.partial_sums, b.partial_sums)
    c = sample_path(chain, 64, seed, replicate=1)
    assert a.seed == b.seed == seed
    assert len(c.values) == 64


def test_partial_sum_consistency_exact(flip25):
    path = sample_path(flip25, 500, seed=3)
    assert path.partial_sums[0] == 0.0
    assert np.array_equal(np.diff(path.sums_int), path.values_int)
    assert np.array_equal(path.partial_sums, path.sums_int * flip25.step)
    assert np.all(np.abs(path.values) <= flip25.sup_norm)


def test_empirical_mean_inside_clt_band(flip25):
    n = 10 ** 6
    path = sample_path(flip25, n, seed=12)
    sigma = math.sqrt(sigma2_exact(flip25))
    assert abs(path.partial_sums[-1] / n) < 3.0 * sigma / math.sqrt(n)


def test_zero_length_path_rejected(flip25):
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_path(flip25, 0, seed=0)


@given(st.integers(min_value=4, max_value=28),
       st.integers(min_value=4, max_value=28),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40)
def test_build_invariants_random_two_state(ia, ib, k0, k1):
    # probabilities on a rational grid: exact recentering stays tractable
    a, b = ia / 64.0, ib / 64.0
    chain = build_finite_chain([[1 - a, a], [b, 1 - b]],
                               [float(k0), float(k1)], 1.0)
    assert np.allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(chain.stationary @ chain.transition, chain.stationary,
                       atol=1e-10)
    assert abs(float(chain.stationary @ chain.observable)) < 1e-10
    assert np.allclose(chain.obs_int * chain.step, chain.observable, atol=0)


# ---------------------------------------------------------------------------
# LSV map
# ---------------------------------------------------------------------------

def lsv_orbit(gamma, x0, n):
    x = np.array([x0])
    orbit = [x0]
    for _ in range(n):
        x = lsv_map(gamma, x)
        orbit.append(float(x[0]))
    return np.array(orbit)


def test_lsv_fixed_point_at_zero():
    assert np.all(lsv_orbit(0.4, 0.0, 10) == 0.0)


def test_lsv_right_branch():
    assert lsv_map(0.3, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_lsv_left_branch_value():
    assert lsv_map(0.5, 0.25) == pytest.approx(0.25 * (1 + math.sqrt(2) * 0.5), abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=50)
def test_lsv_orbit_stays_in_unit_interval(x0, gamma):
    orbit = lsv_orbit(gamma, x0, 50)
    assert np.all(orbit >= 0.0) and np.all(orbit <= 1.0)


@given(st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_lsv_step_matches_expression_map(gamma, size, seed):
    x = np.random.default_rng(seed).random(size)
    x[: min(size, 5)] = [0.0, 5e-324, np.nextafter(0.5, 0.0), 0.5, 1.0][: min(size, 5)]
    x = np.random.default_rng(seed + 1).permutation(x)
    assert lsv_map(gamma, x).tobytes() == lsv_map_expr(gamma, x).tobytes()
    for x0 in (0.0, 5e-324, np.nextafter(0.5, 0.0), 0.5, 1.0):
        assert lsv_map(gamma, x0).tobytes() == lsv_map_expr(gamma, x0).tobytes()


@given(st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=50),
       st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5,
                unique=True).map(sorted),
       st.integers(min_value=0, max_value=100),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_lsv_ladder_matches_per_n_loop(gamma, center, burn_in, n_list, first_rep,
                                       reps, block_steps, seed):
    # Small blocks put block edges and prefix shrinks at many steps.
    process = LsvProcess(gamma=gamma, observable=LsvObservable("identity", center),
                         burn_in=burn_in)
    replicates = range(first_rep, first_rep + reps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "LSV_BLOCK_STEPS", block_steps)
        ladder = lsv_running_stats(process, n_list, seed, replicates)
    oracle = lsv_running_stats_per_n(process, n_list, seed, replicates)
    assert len(ladder) == len(n_list)
    for got, want in zip(ladder, oracle):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def _block_shapes(monkeypatch):
    """Record the shape of every block the LSV orbit loop yields."""
    shapes = []
    loop = processes._lsv_value_blocks

    def recorded(*args):
        for block in loop(*args):
            shapes.append(block.shape)
            yield block

    monkeypatch.setattr(processes, "_lsv_value_blocks", recorded)
    return shapes


@pytest.mark.parametrize("block_steps, n_list, reps", [
    (7, [20, 40, 80], 16), (2, [3, 5], 2),
    (processes.LSV_BLOCK_STEPS, [3000, 6000, 9000], 2)])
def test_lsv_ladder_blocks_within_budget(monkeypatch, block_steps, n_list, reps):
    monkeypatch.setattr(processes, "LSV_BLOCK_STEPS", block_steps)
    shapes = _block_shapes(monkeypatch)
    process = LsvProcess(gamma=0.3, observable=LsvObservable("identity", 0.4),
                         burn_in=20)
    lsv_running_stats(process, n_list, 5, range(reps))
    assert all(rows * width <= reps * block_steps for rows, width in shapes)
    # Row i (longest orbits first) appears in exactly its orbit length of steps.
    lengths = np.repeat(sorted(n_list, reverse=True), reps)
    for i, n in enumerate(lengths):
        assert sum(width for rows, width in shapes if rows > i) == n


@pytest.mark.parametrize("block_steps", [7, processes.LSV_BLOCK_STEPS])
def test_lsv_single_n_blocks_span_block_steps(monkeypatch, block_steps):
    monkeypatch.setattr(processes, "LSV_BLOCK_STEPS", block_steps)
    shapes = _block_shapes(monkeypatch)
    process = LsvProcess(gamma=0.3, observable=LsvObservable("identity", 0.4),
                         burn_in=20)
    n = 2 * block_steps + 3
    lsv_running_stats(process, [n], 5, range(3))
    assert shapes == [(3, block_steps), (3, block_steps), (3, 3)]


def test_lsv_value_blocks_refuse_increasing_lengths():
    process = LsvProcess(gamma=0.3, observable=LsvObservable("identity", 0.4),
                         burn_in=0)
    with pytest.raises(ValueError, match="nonincreasing"):
        next(processes._lsv_value_blocks(process, [0.2, 0.7], [3, 5], 8))


def test_lsv_gamma_validation():
    for gamma in (0.0, 1.2):
        with pytest.raises(ValueError, match="gamma"):
            LsvProcess(gamma=gamma, observable=LsvObservable("identity", 0.5))
    with pytest.raises(ValueError, match="gamma"):
        lsv_reference_mean(1.2, total_iterations=1000)


def test_lsv_reference_mean_short_run_pinned():
    # the value of the former stand-alone orbit loop on the same draws
    assert lsv_reference_mean(0.375, 10 ** 5, seed=0) == pytest.approx(
        0.4290506364335108, abs=1e-12)


@pytest.mark.slow
def test_lsv_centered_mean_drift_small():
    gamma = 0.375
    center = lsv_reference_mean(gamma, total_iterations=10 ** 7, seed=0)
    process = LsvProcess(gamma=gamma,
                         observable=LsvObservable("identity", center),
                         burn_in=10 ** 4)
    path = sample_path(process, 10 ** 5, seed=5)
    assert abs(float(np.mean(path.values))) < 0.01


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_chain_kernel_matches_reference_loop(n_states, seed):
    # Random lattice chains with zero transition entries; a fifth of the
    # uniforms sit exactly on a threshold, where "strictly below" decides.
    rng = np.random.default_rng(seed)
    chain = random_lattice_chain(rng, n_states)
    transition, obs = chain.transition, chain.obs_int
    u = rng.random((int(rng.integers(1, 40)), int(rng.integers(2, 60))))
    ties = rng.random(u.shape) < 0.2
    u[ties] = rng.choice(np.cumsum(transition, axis=1).ravel(), size=int(ties.sum()))

    reference = chain_states_loop(chain, u)
    assert np.array_equal(_chain_states_from_uniforms(chain, u), reference)
    sums = np.cumsum(obs[reference[:, 1:]], axis=1)
    s, smax, smin = _chain_running_stats(chain, u)
    assert np.array_equal(s, sums[:, -1])
    assert np.array_equal(smax, np.maximum(sums.max(axis=1), 0))
    assert np.array_equal(smin, np.minimum(sums.min(axis=1), 0))


def test_lsv_ensemble_matches_single_paths():
    process = LsvProcess(gamma=0.3, observable=LsvObservable("identity", 0.4),
                         burn_in=50)
    block = sample_lsv_ensemble(process, 40, seed=9, replicates=range(3))
    for rep in range(3):
        single = sample_path(process, 40, seed=9, replicate=rep)
        assert np.allclose(block[rep], single.values, atol=1e-12)


# ---------------------------------------------------------------------------
# Derived processes
# ---------------------------------------------------------------------------

def test_coboundary_constant_g_gives_null_observable(flip25):
    chain = make_coboundary(flip25, [3.0, 3.0])
    assert np.all(chain.observable == 0.0)


def test_coboundary_centered_and_bounded(flip25):
    chain = make_coboundary(flip25, [1.0, -1.0])
    assert abs(float(chain.stationary @ chain.observable)) < 1e-12
    assert chain.sup_norm <= 2.0 * 1.0 + 1e-12
    assert chain.sup_path_bound == pytest.approx(2.0)
    assert sigma2_exact(chain) == pytest.approx(0.0, abs=1e-8)


def test_coboundary_telescoping_paths_bounded(flip25):
    chain = make_coboundary(flip25, [1.0, -1.0])
    path = sample_path(chain, 2000, seed=21)
    assert np.max(np.abs(path.partial_sums)) <= chain.sup_path_bound + 1e-12


def test_coboundary_mean_abs_sum_stable(flip25):
    from weakdep.bounds import path_statistics
    chain = make_coboundary(flip25, [1.0, -1.0])
    means = []
    for n in (100, 1000, 10000):
        s = path_statistics(chain, n, 5000, seed=31).s
        means.append(float(np.mean(np.abs(s))))
    assert max(means) / min(means) < 1.10


def test_symmetrize_covariance_doubles(flip25):
    z = symmetrize(flip25)
    assert z.sup_norm == pytest.approx(2.0)
    assert abs(float(z.stationary @ z.observable)) < 1e-12
    for k in range(1, 11):
        pz = float(z.stationary @ (z.observable
                                   * (np.linalg.matrix_power(z.transition, k)
                                      @ z.observable)))
        px = float(flip25.stationary @ (flip25.observable
                                        * (np.linalg.matrix_power(flip25.transition, k)
                                           @ flip25.observable)))
        assert pz == pytest.approx(2.0 * px, abs=1e-10)


def test_symmetrize_third_moments_vanish(flip25, three_state, four_state):
    for base in (flip25, three_state, four_state):
        z = symmetrize(base)
        f = z.observable
        p = z.transition
        pi = z.stationary
        for i, j, k in [(0, 1, 2), (0, 2, 5), (1, 3, 6), (2, 4, 6), (0, 1, 6)]:
            inner = f * (np.linalg.matrix_power(p, k - j) @ f)
            val = float(pi @ (f * (np.linalg.matrix_power(p, j - i) @ inner)))
            assert abs(val) < 1e-10


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_symmetrize_arrays_match_pair_loop(n_states, seed):
    # The transition and observable that symmetrize hands to the builder are
    # the pair loop's, bit for bit (random chains with zero entries; the
    # builder is not run, so their stationary law does not matter).
    chain = random_lattice_chain(np.random.default_rng(seed), n_states)
    with mock.patch.object(processes, "build_finite_chain") as build:
        symmetrize(chain)
    (t, obs, step), kw = build.call_args
    t_ref, obs_ref, labels = symmetrize_loop(chain)
    for got, ref in ((t, t_ref), (obs, obs_ref)):
        assert (got.shape, got.dtype, got.tobytes()) == (ref.shape, ref.dtype, ref.tobytes())
    assert step == chain.step and kw == {"states": labels}


def test_normalize_process(flip25):
    big = build_finite_chain(flip25.transition, [2.0, -2.0], 1.0)
    unit = normalize_process(big)
    assert unit.sup_norm == 1.0
    assert np.allclose(unit.observable, [1.0, -1.0])


def test_serialization_round_trip(flip25, three_state):
    for chain in (flip25, three_state):
        doc = process_to_config(chain)
        back = process_from_config(json.loads(json.dumps(doc)))
        assert np.allclose(back.transition, chain.transition, atol=1e-15)
        assert np.allclose(back.observable, chain.observable, atol=1e-12)
        assert back.step == pytest.approx(chain.step)
    process = LsvProcess(gamma=0.375, observable=LsvObservable("identity", 0.33),
                         burn_in=100)
    back = process_from_config(process_to_config(process))
    assert back == process


def test_coboundary_path_bound_survives_round_trip(flip25):
    cob = make_coboundary(flip25, [1.0, -1.0])
    doc = json.loads(json.dumps(process_to_config(cob)))
    assert doc["sup_path_bound"] == 2.0
    assert process_from_config(doc).sup_path_bound == cob.sup_path_bound
    assert "sup_path_bound" not in process_to_config(flip25)
    assert process_from_config(process_to_config(flip25)).sup_path_bound is None


LSV_DOC = {"type": "lsv", "gamma": 0.375, "burn_in": 100,
           "observable": {"kind": "identity", "center": 0.4}}


@pytest.mark.parametrize("doc, unknown", [
    ({**LSV_DOC, "burnin": 5}, "burnin"),
    ({**LSV_DOC, "observable": {"kind": "identity", "center": 0.4, "treshold": 0.2}},
     "treshold"),
    ({"type": "finite_chain", "transition": [[0.5, 0.5], [0.5, 0.5]],
      "observable": [1.0, -1.0], "step": 1.0, "setp": 2.0, "labels": []},
     "labels, setp"),
])
def test_process_config_typo_rejected(doc, unknown):
    with pytest.raises(ValueError, match=f"^unknown config keys: {unknown}$"):
        process_from_config(doc)


def test_lsv_observable_kind_checked_on_construction():
    with pytest.raises(ValueError, match="unknown observable kind 'identiy'"):
        LsvObservable("identiy", 0.5)



def test_path_csv_export(tmp_path, flip25):
    from click.testing import CliRunner

    from weakdep.cli import main

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"process": process_to_config(flip25), "seed": 1}))
    result = CliRunner().invoke(main, ["export-path", "--config", str(cfg),
                                       "--out", str(tmp_path), "--n", "5"])
    assert result.exit_code == 0, result.output
    path = sample_path(flip25, 5, seed=1)
    lines = (tmp_path / "path.csv").read_text().strip().splitlines()
    assert lines[0] == "index,value,partial_sum"
    assert len(lines) == 6
    k, value, psum = lines[3].split(",")
    assert int(k) == 3
    assert float(psum) == pytest.approx(path.partial_sums[3])
    assert float(value) == pytest.approx(path.values[2])
