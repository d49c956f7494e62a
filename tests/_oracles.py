"""Independent brute-force oracles for frozen expected values.

Everything here avoids the library's computational paths: conditional
expectations by explicit path enumeration, tail probabilities by survival
dynamic programming (cross-checked against the reflection identity), event
suprema by full subset enumeration, block laws in rational arithmetic.
Reference kernels (the chain stepper, the coupling loop with its scalar
increment split, the LSV map and its per-n orbit loop) keep the loops that
faster kernels replaced, ``philox_substream`` builds a fresh generator for
each substream address, and ``random_lattice_chain`` draws the chains they
are compared on.  ``alpha_inf4_exact`` (strong mixing of order 4) and the
variance-rate route to sigma2 (``partial_sum_variance``,
``sigma2_extrapolated``) are exact cross-checks that no pipeline reads, as
are ``symmetrization_check`` (theta of the symmetrized pair process against
its comparison bound) and ``block_coupling_second_moment`` (Monte Carlo
E(U - V)^2 of one coupled block against its exact quadrature);
``block_stream`` addresses one BLOCK substream.  ``lattice_constants_loop``
is the constants search as the c2-by-c2 loop the array search replaced,
``positive_exponent_vectors_recursive`` the exponent-vector recursion that
the stars-and-bars enumeration replaced, ``exact_stationary_elimination``
the rank-revealing elimination that the square stationary solve replaced,
``symmetrize_loop`` the pair-by-pair product chain that ``symmetrize``'s
Kronecker product replaced, and ``block_dist_from_atoms`` /
``block_dist_mean`` build and average hand-made block laws.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import binom

from weakdep.coefficients import BudgetExceededError, _transition_powers, theta_exact
from weakdep.coupling import (BlockDist, _clip_unit, _conditional_quantile,
                              block_sum_dist, w2_conditional)
from weakdep.processes import FiniteChain, _chain_states_from_uniforms, symmetrize
from weakdep.rng import Domain, block_address, path_stream, substream, substreams


def _positive_vectors(r, q):
    if r == 0:
        return [()]
    out = []
    for first in range(1, q - r + 2):
        for rest in _positive_vectors(r - 1, q - first):
            out.append((first,) + rest)
    return out


def positive_exponent_vectors_recursive(r: int, q: int) -> list[tuple[int, ...]]:
    """All (b_1..b_r) with b_i >= 1 and sum <= q."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining):
        if len(prefix) == r:
            out.append(tuple(prefix))
            return
        slots_left = r - len(prefix) - 1
        for b in range(1, remaining - slots_left + 1):
            rec(prefix + [b], remaining - b)

    if r <= q:
        rec([], q)
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


def theta_exact_loop(chain, p, q, k, tuple_horizon, first_start=False):
    """Reference theta(k): enumerate every index tuple in [k, k + T] (with
    `first_start`, only those with k_1 = k) and every positive exponent
    vector again for each lag, one matrix-vector product per tuple.  The
    pattern-table kernel must reproduce the first-start loop bit for bit on
    any weight vector, and on a chain whose weights are its stationary law
    the full loop exceeds it by rounding only."""
    f = chain.observable
    pi = chain.stationary
    powers = [np.eye(chain.n_states)]
    for _ in range(k + tuple_horizon):
        powers.append(powers[-1] @ chain.transition)
    f_pows = [None] + [f ** a for a in range(1, q + 1)]
    best = 0.0
    for r in range(1, min(p, q) + 1):
        for indices in combinations(range(k, k + tuple_horizon + 1), r):
            if first_start and indices[0] != k:
                continue
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


def exact_stationary_elimination(rows: list[list[Fraction]]) -> list[Fraction]:
    """Unique probability vector pi with pi P = pi, by exact elimination.

    Raises ``ValueError("non-unique stationary law")`` when the fixed space of
    the transpose has dimension != 1 (reducible with several closed classes,
    or the identity map).
    """
    n = len(rows)
    # a = P^T - I
    a = [[rows[j][i] - (Fraction(1) if i == j else Fraction(0)) for j in range(n)]
         for i in range(n)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
    if r != n - 1:
        raise ValueError("non-unique stationary law")
    free = next(c for c in range(n) if c not in pivot_cols)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for row_idx, c in enumerate(pivot_cols):
        x[c] = -a[row_idx][free]
    total = sum(x)
    if total == 0:
        raise ValueError("non-unique stationary law")
    pi = [v / total for v in x]
    if any(p < 0 for p in pi):
        raise ValueError("non-unique stationary law")
    return pi


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
    chain's own law.  Kernels compared on it must agree for any weight
    vector, so theta is compared here with the first-start loop only: the
    kernel's first-start rule needs pi P = pi, which build_finite_chain
    chains (and their symmetrizations) have."""
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


def skorohod_split_scalar(v, m, sigma2, substream):
    """Reference split of one Gaussian total v into 2^m N(0, sigma2)
    increments drawn from `substream`: v / 2^m plus the centered draws, the
    last increment corrected twice so the increments add back to v."""
    count = 2 ** m
    g = substream.normal(0.0, math.sqrt(sigma2), count)
    inc = v / count + (g - g.mean())
    for _ in range(2):
        inc[-1] += v - float(np.sum(inc))
    return inc


def philox_substream(seed, domain, a, b):
    """A fresh Philox generator at the substream (domain, a, b) of `seed`,
    built from the address layout documented in weakdep.rng."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, 0x9E3779B97F4A7C15], dtype=np.uint64)
    counter = np.array([0, domain & mask, a & mask, b & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def couple_path_loop(chain, schedule, sigma2, states, vals_int, seed, replicate):
    """Reference coupling: the block-by-block loop with a scalar cdf lookup.

    Each block builds its substream in serial order, draws the atom
    randomizer, maps its integer sum to F(u-) + delta (F(u) - F(u-)) of the
    exact block-start law (F(u) = F(u-) between atoms), takes the clamped
    Gaussian quantile and splits the total with skorohod_split_scalar.
    Returns (t, u_by_level, v_by_level)."""
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
                prefix = t_run + np.cumsum(skorohod_split_scalar(v, m, sigma2, gen))
                prefix[-1] = target
                t[b + 1:b + count + 1] = prefix
            t_run = target
            us.append(u_int * chain.step)
            vs.append(v)
        u_by_level.append(np.asarray(us))
        v_by_level.append(np.asarray(vs))
    return t, u_by_level, v_by_level


def normalize_process(chain: FiniteChain) -> FiniteChain:
    """Chain with the observable divided by its sup norm (sup_norm becomes 1)."""
    if chain.sup_norm == 0:
        raise ValueError("cannot normalize a null observable")
    return FiniteChain(
        states=chain.states,
        transition=chain.transition.copy(),
        stationary=chain.stationary.copy(),
        observable=chain.observable / chain.sup_norm,
        step=chain.step / chain.sup_norm,
        obs_int=chain.obs_int.copy(),
        sup_norm=1.0,
        exact_transition=chain.exact_transition,
        exact_stationary=chain.exact_stationary,
        sup_path_bound=(None if chain.sup_path_bound is None
                        else chain.sup_path_bound / chain.sup_norm),
    )


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


def alpha_inf4_exact(chain: FiniteChain, k: int, tuple_horizon: int = 8) -> float:
    """Strong mixing coefficient of order 4 against the time-0 state, exact.

    For each index tuple the sup over past events and future events reduces
    to a max over subsets of time-0 states (at most 2^S of them) with, per
    subset, an independent optimal choice of each future atom: the atoms
    where the signed mass is positive.  Exact and linear in atom count.
    """
    if chain.n_states > 8:
        raise BudgetExceededError("alpha_inf4_exact supports at most 8 states")
    if k < 0 or tuple_horizon < 3:
        raise ValueError("need k >= 0 and tuple_horizon >= 3")
    n_tuples = math.comb(tuple_horizon + 1, 4)
    s = chain.n_states
    if n_tuples * (2 ** s) * (s ** 4) > 10**9:
        raise BudgetExceededError("event budget exceeded; reduce tuple_horizon")

    pi = chain.stationary
    powers = _transition_powers(chain, k + tuple_horizon)
    masks = np.array([[(t >> i) & 1 for i in range(s)]
                      for t in range(2 ** s)], dtype=float)

    best = 0.0
    for i1, i2, i3, i4 in combinations(range(k, k + tuple_horizon + 1), 4):
        a1 = powers[i1]
        g12, g23, g34 = powers[i2 - i1], powers[i3 - i2], powers[i4 - i3]
        # q[s0, t1, t2, t3, t4]: conditional atom probabilities
        qq = np.einsum("ab,bc,cd,de->abcde", a1, g12, g23, g34)
        mm = np.einsum("b,bc,cd,de->bcde", pi, g12, g23, g34)
        m_flat = (pi[:, None] * (qq - mm[None]).reshape(s, -1))
        rows = masks @ m_flat                       # (2^s, atoms)
        val = float(np.max(np.sum(np.maximum(rows, 0.0), axis=1)))
        if val > best:
            best = val
    return best


def partial_sum_variance(chain: FiniteChain, n: int) -> float:
    """Var(S_n), by a forward first/second-moment recursion over end states.

    Independent of the covariance-series route: tracks A_j(t) = E[S_j^2;
    xi_j = t] and B_j(t) = E[S_j; xi_j = t] step by step.
    """
    p, pi, f = chain.transition, chain.stationary, chain.observable
    b = f * pi
    a = f * f * pi
    for _ in range(n - 1):
        bp = b @ p
        a = a @ p + 2.0 * f * bp + f * f * pi
        b = bp + f * pi
    mean = float(b.sum())
    return float(a.sum()) - mean * mean


def sigma2_extrapolated(chain: FiniteChain, n: int = 2**16) -> float:
    """Richardson extrapolation in 1/n of Var(S_n)/n at n/2 and n."""
    v_half = partial_sum_variance(chain, n // 2) / (n // 2)
    v_full = partial_sum_variance(chain, n) / n
    return 2.0 * v_full - v_half


def block_stream(seed: int, n: int, replicate: int, serial: int) -> np.random.Generator:
    return substream(seed, Domain.BLOCK, block_address(n, replicate), serial)


def symmetrize_loop(chain: FiniteChain) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Reference pair construction of ``symmetrize``: the transition, the
    observable f(s) - f(s') and the labels of the product chain on state
    pairs, filled pair by pair."""
    n = chain.n_states
    pairs = [(i, j) for i in range(n) for j in range(n)]
    t = np.zeros((n * n, n * n))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            t[a, b] = chain.transition[i, k] * chain.transition[j, l]
    obs = np.array([chain.observable[i] - chain.observable[j] for (i, j) in pairs])
    labels = tuple((chain.states[i], chain.states[j]) for (i, j) in pairs)
    return t, obs, labels


def symmetrization_check(chain: FiniteChain, p: int, q: int, k: int,
                         tuple_horizon: int = 8) -> tuple[float, float]:
    """theta of the symmetrized pair process, with its comparison bound.

    Returns (theta_Z, 2^{q+1} theta_X); the first never exceeds the second
    (the comparison presumes sup_norm <= 1, which every shipped test chain
    satisfies).
    """
    theta_x = theta_exact(chain, p, q, k, tuple_horizon)
    theta_z = theta_exact(symmetrize(chain), p, q, k, tuple_horizon)
    bound = 2.0 ** (q + 1) * theta_x
    if theta_z > bound + 1e-9:
        raise AssertionError(
            f"symmetrized coefficient {theta_z} exceeds bound {bound}")
    return theta_z, bound


def block_coupling_second_moment(chain: FiniteChain, m: int, sigma2: float,
                                 blocks: int, seed: int) -> dict:
    """Monte Carlo E(U - V)^2 over independent blocks, with the exact
    stationary-mixture quadrature it must match.

    Each block draws its start from the stationary law, simulates 2^m steps,
    and applies the quantile transform; the exact value is the stationary
    mixture of per-start squared transport costs.
    """
    count = 2 ** m
    addresses = ((block_address(count, rep), 0) for rep in range(blocks))
    u = np.stack([gen.random(count + 2) for gen in substreams(seed, Domain.BLOCK, addresses)])
    states = _chain_states_from_uniforms(chain, u[:, :count + 1])
    u_int = chain.obs_int[states[:, 1:]].sum(axis=1)
    deltas = _clip_unit(u[:, -1])

    scale = math.sqrt(sigma2) * 2.0 ** (m / 2.0)
    v = np.empty(blocks)
    exact = 0.0
    for state in range(chain.n_states):
        dist = block_sum_dist(chain, state, m)
        exact += chain.stationary[state] * w2_conditional(dist, sigma2 * count)
        sel = states[:, 0] == state
        v[sel] = scale * _conditional_quantile(dist, u_int[sel], deltas[sel])

    diff2 = (u_int.astype(float) * chain.step - v) ** 2
    e2 = float(diff2.mean())
    se = float(diff2.std(ddof=1)) / math.sqrt(blocks)
    return {"mc": e2, "se": se, "exact": exact,
            "z_score": (e2 - exact) / se if se > 0 else 0.0,
            "blocks": blocks, "m": m}


def lattice_constants_loop(a, b, targets, box):
    """The constants search as a loop over lattice c2: for each c2 the least
    lattice c1 that covers every residual target, with an all-zero Gaussian
    column pinning c1 at the box minimum."""
    lo, hi = box
    decades = math.log10(hi) - math.log10(lo)
    candidates = np.geomspace(lo, hi, int(round(8 * decades)) + 1)

    best = None
    gaussian_active = bool(np.any(a > 0))
    c1_options = candidates if gaussian_active else candidates[:1]
    for c2 in candidates:
        residual = targets - c2 * b
        needs = residual > 0
        if not np.any(needs):
            c1_req = 0.0
        elif not gaussian_active:
            continue
        else:
            with np.errstate(divide="ignore"):
                c1_req = float(np.max(residual[needs] / a[needs])) \
                    if np.all(a[needs] > 0) else math.inf
        if not math.isfinite(c1_req):
            continue
        idx = int(np.searchsorted(c1_options, c1_req * (1.0 - 1e-12)))
        if idx >= len(c1_options):
            continue
        c1 = float(c1_options[idx])
        c2f = float(c2)
        key = (c1 * c2f, c2f, c1)
        if best is None or key < best[0]:
            best = (key, c1, c2f)
    if best is None:
        raise ValueError(
            f"no finite constants found within search box {box}")
    _, c1, c2 = best
    return c1, c2


def block_dist_from_atoms(values, probs, **kw) -> BlockDist:
    """A BlockDist from unsorted atoms and their probabilities."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    if np.any(probs < 0):
        raise ValueError("negative atom probability")
    total = probs.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError("atom probabilities must sum to 1 within 1e-12")
    return BlockDist(values=values, probs=probs, cdf=np.cumsum(probs), **kw)


def block_dist_mean(dist: BlockDist) -> float:
    return float(dist.values @ dist.probs)
