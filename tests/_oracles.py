"""Independent brute-force oracles for frozen expected values.

Everything here avoids the library's computational paths: conditional
expectations by explicit path enumeration, tail probabilities by survival
dynamic programming (cross-checked against the reflection identity), event
suprema by full subset enumeration, block laws in rational arithmetic.
Reference kernels (the chain stepper, the coupling loop, the LSV map and its
per-n orbit loop) keep the loops that faster kernels replaced, and
``random_lattice_chain`` draws the chains they are compared on.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import binom

from weakdep.coefficients import BudgetExceededError
from weakdep.coupling import block_sum_dist, skorohod_split
from weakdep.processes import FiniteChain
from weakdep.rng import block_stream, path_stream


def _positive_vectors(r, q):
    if r == 0:
        return [()]
    out = []
    for first in range(1, q - r + 2):
        for rest in _positive_vectors(r - 1, q - first):
            out.append((first,) + rest)
    return out


def conditional_product_moment(chain, start, indices, exponents):
    """E[prod f(xi_{j})^{b} | xi_0 = start] by full path enumeration."""
    horizon = indices[-1]
    total = 0.0
    weight = {idx: b for idx, b in zip(indices, exponents)}
    f = chain.observable
    for path in product(range(chain.n_states), repeat=horizon):
        prob = 1.0
        prev = start
        val = 1.0
        for j, state in enumerate(path, start=1):
            prob *= chain.transition[prev, state]
            if prob == 0.0:
                break
            if j in weight:
                val *= f[state] ** weight[j]
            prev = state
        else:
            total += prob * val
    return total


def theta_brute(chain, p, q, k, horizon):
    """Dependence coefficient by path enumeration over all tuples/exponents."""
    pi = chain.stationary
    best = 0.0
    for r in range(1, p + 1):
        for idx in combinations(range(k, k + horizon + 1), r):
            if idx[0] < 1:
                continue
            for b in _positive_vectors(r, q):
                cond = np.array([conditional_product_moment(chain, s, idx, b)
                                 for s in range(chain.n_states)])
                mu = float(pi @ cond)
                best = max(best, float(pi @ np.abs(cond - mu)))
    return best


def theta_exact_loop(chain, p, q, k, tuple_horizon):
    """Reference theta(k): enumerate every index tuple in [k, k + T] and every
    positive exponent vector again for each lag, one matrix-vector product
    per tuple.  The pattern-table kernel must reproduce it bit for bit."""
    f = chain.observable
    pi = chain.stationary
    powers = [np.eye(chain.n_states)]
    for _ in range(k + tuple_horizon):
        powers.append(powers[-1] @ chain.transition)
    f_pows = [None] + [f ** a for a in range(1, q + 1)]
    best = 0.0
    for r in range(1, min(p, q) + 1):
        for indices in combinations(range(k, k + tuple_horizon + 1), r):
            for b in _positive_vectors(r, q):
                h = f_pows[b[r - 1]]
                for i in range(r - 1, 0, -1):
                    gap = indices[i] - indices[i - 1]
                    h = f_pows[b[i - 1]] * (powers[gap] @ h)
                h = powers[indices[0]] @ h
                mu = float(pi @ h)
                val = float(pi @ np.abs(h - mu))
                if val > best:
                    best = val
    return best


def srw_max_tail_dp(n, x):
    """P(max_{0<=k<=n} S_k >= x) for the simple +-1 walk, survival DP.

    Positions below x survive; the table is O(n * (n + x)) as advertised.
    """
    if x <= 0:
        return 1.0
    width = n + x          # positions -n .. x-1, index = pos + n
    alive = np.zeros(width)
    alive[n] = 1.0
    for _ in range(n):
        nxt = np.zeros(width)
        nxt[1:] += 0.5 * alive[:-1]     # step +1 (falling off the top = hit)
        nxt[:-1] += 0.5 * alive[1:]     # step -1
        alive = nxt
    return 1.0 - float(alive.sum())


def srw_max_tail_reflection(n, x):
    """Same probability by the reflection identity P(S_n >= x) + P(S_n > x)."""
    if x <= 0:
        return 1.0

    def upper(v):  # P(S_n >= v), S_n = 2 B - n
        k = -(-(n + v) // 2)     # ceil
        if k > n:
            return 0.0
        return float(binom.sf(k - 1, n, 0.5))

    return upper(x) + upper(x + 1)


def alpha_brute_two_state(chain, k, horizon):
    """Strong mixing coefficient of order 4 by full event enumeration.

    Two-state chains only: 16 future atoms -> 65536 events, 4 past events.
    """
    assert chain.n_states == 2
    pi = chain.stationary
    best = 0.0
    n_atoms = 16
    bits = np.array([[(mask >> a) & 1 for a in range(n_atoms)]
                     for mask in range(2 ** n_atoms)], dtype=float)
    for idx in combinations(range(k, k + horizon + 1), 4):
        probs = np.zeros((2, n_atoms))
        for start in range(2):
            for a, states in enumerate(product(range(2), repeat=4)):
                total = 0.0
                for path in product(range(2), repeat=idx[-1]):
                    if tuple(path[j - 1] for j in idx) != states:
                        continue
                    pr = 1.0
                    prev = start
                    for st in path:
                        pr *= chain.transition[prev, st]
                        prev = st
                    total += pr
                probs[start, a] = total
        marg = pi @ probs
        for past_mask in range(1, 4):
            sel = [s for s in range(2) if (past_mask >> s) & 1]
            pa = float(pi[sel].sum())
            joint = probs[sel].T @ pi[sel]        # P(atom, past event)
            dev = bits @ (joint - pa * marg)
            best = max(best, float(np.max(np.abs(dev))))
    return best


def block_dist_brute(chain, start, m):
    """Joint block-sum law {(sum_int, end): prob} by path enumeration."""
    length = 2 ** m
    out = {}
    for path in product(range(chain.n_states), repeat=length):
        pr = 1.0
        prev = start
        total = 0
        for st in path:
            pr *= chain.transition[prev, st]
            total += int(chain.obs_int[st])
            prev = st
        if pr > 0:
            key = (total, path[-1])
            out[key] = out.get(key, 0.0) + pr
    return out


def covariance_series_partial(chain, kmax):
    """E X0^2 + 2 sum_{k<=kmax} E X0 X_k by direct matrix powers."""
    f, pi, p = chain.observable, chain.stationary, chain.transition
    total = float(pi @ (f * f))
    g = f.copy()
    for _ in range(kmax):
        g = p @ g
        total += 2.0 * float(pi @ (f * g))
    return total


def random_lattice_chain(rng, n_states):
    """Random lattice chain with zero transition entries and integer
    observable values in [-3, 3]; the stationary vector is uniform, not the
    chain's own law, which no kernel compared here depends on."""
    shape = (n_states, n_states)
    weights = rng.integers(0, 4, size=shape) * (rng.random(shape) < 0.6)
    weights[weights.sum(axis=1) == 0, 0] = 1
    transition = weights / weights.sum(axis=1, keepdims=True)
    obs = rng.integers(-3, 4, size=n_states)
    return FiniteChain(states=tuple(range(n_states)), transition=transition,
                       stationary=np.full(n_states, 1.0 / n_states),
                       observable=obs.astype(float), step=1.0, obs_int=obs,
                       sup_norm=float(np.abs(obs).max()), exact_transition=(),
                       exact_stationary=())


def chain_states_loop(chain, u):
    """Reference chain stepper: each step compares u_j with the whole
    cumulative row of the current state, an (r, S) temporary, and clips the
    count to the last state.  u (r, n+1) maps to states (r, n+1); u[:, 0]
    draws xi_0 from the stationary law."""
    cum_pi = np.cumsum(chain.stationary)
    cum_rows = np.cumsum(chain.transition, axis=1)
    last = chain.n_states - 1
    r, cols = u.shape
    states = np.empty((r, cols), dtype=np.int64)
    states[:, 0] = np.minimum(np.searchsorted(cum_pi, u[:, 0], side="right"), last)
    for j in range(1, cols):
        rows = cum_rows[states[:, j - 1]]
        states[:, j] = np.minimum((u[:, j][:, None] > rows).sum(axis=1), last)
    return states


def lsv_map_expr(gamma, x):
    """The intermittent map as three array expressions."""
    x = np.asarray(x, dtype=float)
    left = x * (1.0 + (2.0 ** gamma) * np.power(x, gamma))
    out = np.where(x < 0.5, left, 2.0 * x - 1.0)
    return np.clip(out, 0.0, 1.0)


def lsv_running_stats_per_n(process, n_list, seed, replicates):
    """(S_n, max_k S_k, min_k S_k) per n, each n a separate orbit ensemble:
    its own start draws and burn-in, then a whole-orbit cumsum."""
    stats = []
    for n in n_list:
        x = np.array([float(path_stream(seed, n, rep).random()) for rep in replicates])
        for _ in range(process.burn_in):
            x = lsv_map_expr(process.gamma, x)
        orbit = np.empty((len(x), n))
        for k in range(n):
            x = lsv_map_expr(process.gamma, x)
            orbit[:, k] = x
        sums = np.cumsum(process.observable(orbit), axis=1)
        zeros = np.zeros(len(x))
        stats.append((sums[:, -1], np.maximum(zeros, sums.max(axis=1)),
                      np.minimum(zeros, sums.min(axis=1))))
    return stats


def couple_path_loop(chain, schedule, sigma2, states, vals_int, seed, replicate):
    """Reference coupling: the block-by-block loop with a scalar cdf lookup.

    Each block builds its substream in serial order, draws the atom
    randomizer, maps its integer sum to F(u-) + delta (F(u) - F(u-)) of the
    exact block-start law (F(u) = F(u-) between atoms), takes the clamped
    Gaussian quantile and splits the total.  Returns (t, u_by_level,
    v_by_level)."""
    p_lo = float(ndtr(-8.2))
    p_hi = min(1.0 - p_lo, float(np.nextafter(1.0, 0.0)))

    def quantile(p):
        return float(ndtri(min(max(p, p_lo), p_hi)))

    def clip_unit(u):
        return min(max(u, 2.0 ** -60), float(np.nextafter(1.0, 0.0)))

    def cdf_pair(dist, u_int):
        idx = int(np.searchsorted(dist.sums_int, u_int, side="left"))
        f_minus = float(dist.cdf[idx - 1]) if idx > 0 else 0.0
        if idx < len(dist.sums_int) and int(dist.sums_int[idx]) == u_int:
            return f_minus, float(dist.cdf[idx])
        return f_minus, f_minus

    n = len(vals_int)
    t = np.zeros(n + 1)
    sigma = math.sqrt(sigma2)
    t_run = t[1] = sigma * quantile(clip_unit(float(
        block_stream(seed, n, replicate, 0).random())))
    u_by_level, v_by_level = [], []
    serial = 1
    for level in schedule.levels:
        m = int(schedule.m[level])
        count = 2 ** m
        us, vs = [], []
        for k in range(2 ** (level - m)):
            b = 2 ** int(level) + k * count
            u_int = int(np.sum(vals_int[b:b + count]))
            dist = block_sum_dist(chain, int(states[b]), m)
            gen = block_stream(seed, n, replicate, serial)
            serial += 1
            delta = clip_unit(float(gen.random()))
            f_minus, f_at = cdf_pair(dist, u_int)
            assert f_at > 0.0
            v = sigma * (2.0 ** (m / 2.0)) * quantile(f_minus + delta * (f_at - f_minus))
            target = t_run + v
            if m == 0:
                t[b + 1] = target
            else:
                prefix = t_run + np.cumsum(skorohod_split(v, m, sigma2, gen))
                prefix[-1] = target
                t[b + 1:b + count + 1] = prefix
            t_run = target
            us.append(u_int * chain.step)
            vs.append(v)
        u_by_level.append(np.asarray(us))
        v_by_level.append(np.asarray(vs))
    return t, u_by_level, v_by_level


def block_sum_dist_exact(chain: FiniteChain, start_state: int, m: int) -> dict:
    """Rational-arithmetic block law for small m: {(sum_int, end): Fraction}.

    Companion of ``coupling.block_sum_dist`` used to certify exact mass
    conservation; guarded to m <= 6.
    """
    if m > 6:
        raise BudgetExceededError("exact mode is guarded to m <= 6")
    k = [int(v) for v in chain.obs_int]
    t = {}
    for a in range(chain.n_states):
        t[a] = {}
        for bb in range(chain.n_states):
            pr = chain.exact_transition[a][bb]
            if pr > 0:
                key = (k[bb], bb)
                t[a][key] = t[a].get(key, Fraction(0)) + pr
    for _ in range(m):
        out = {}
        for a in range(chain.n_states):
            acc: dict = {}
            for (u1, mid), p1 in t[a].items():
                for (u2, end), p2 in t[mid].items():
                    key = (u1 + u2, end)
                    acc[key] = acc.get(key, Fraction(0)) + p1 * p2
            out[a] = acc
        t = out
    return t[start_state]
