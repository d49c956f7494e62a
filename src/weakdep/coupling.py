"""Dyadic-block Gaussian coupling of lattice Markov chain partial sums.

The construction pairs the observed partial sums S_k with partial sums T_k of
i.i.d. centered Gaussians built on the same probability space:

1. a schedule assigns each dyadic level L = 0..N a block exponent m(L);
2. each block sum U over 2^{m(L)} steps is pushed through the cdf of its
   exact conditional law given the block-start state (uniform randomization
   at atoms) and the Gaussian quantile, producing V ~ N(0, sigma2 2^{m(L)})
   independent of the past;
3. V is split into 2^{m(L)} i.i.d. N(0, sigma2) increments summing to V
   (conditional-Gaussian mean shift plus centered residuals).

Step 2 runs one dyadic level at a time: the level's block sums come from one
reshape, and one array call of the quantile transform serves all blocks that
start in the same state.  Step 3 stays a loop over the blocks, each on its
own substream (layout in :mod:`weakdep.rng`).

Per-level error statistics D_L <= D_{L,1} + D_{L,2} quantify how far T tracks
S.  Everything here requires an exact lattice chain and sigma2 > 0; the
degenerate regime lives in :mod:`weakdep.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .coefficients import BudgetExceededError
from .processes import FiniteChain, _chain_states_from_uniforms, sample_chain_paths
from .rng import block_stream

ATOM_BUDGET = 10**7

_P_LO = float(ndtr(-8.2))
_P_HI = min(1.0 - _P_LO, float(np.nextafter(1.0, 0.0)))


def gaussian_quantile(p):
    """Standard normal quantile, argument clamped to [Phi(-8.2), Phi(8.2)].

    Beyond 8.2 standard deviations the contribution is below the double
    precision resolution of every error statistic computed here.
    """
    return ndtri(np.clip(p, _P_LO, _P_HI))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

VARIANTS = ("balanced", "inflated", "log_inflated")


@dataclass(frozen=True)
class CouplingSchedule:
    """Per-level block exponents m(L) and thresholds for levels L = 0..N."""

    levels: np.ndarray
    m: np.ndarray
    variant: str
    p: float
    epsilon: float
    c_fit: float
    lambdas: np.ndarray

    @property
    def big_n(self) -> int:
        return int(self.levels[-1])

    @property
    def n(self) -> int:
        return 2 ** (self.big_n + 1)

    def __post_init__(self):
        if np.any(self.m > self.levels) or np.any(self.m < 0):
            raise ValueError("schedule requires 0 <= m(L) <= L")


def make_schedule(big_n: int, p: float, variant: str = "balanced",
                  epsilon: float = 0.0, c_fit: float = 1.0) -> CouplingSchedule:
    """Block schedule for levels 0..big_n.

    ``balanced`` uses m(L) = [2 (L - log2 L) / p]; ``inflated`` adds
    ``epsilon log2 L`` inside, ``log_inflated`` adds ``(1 + epsilon) log2 L``.
    Values are clamped into [0, L].  Thresholds are
    lambda_L = sqrt(2 c_fit ln 2) * 2^{m(L)/2} * sqrt(L), with c_fit an
    empirical stand-in for the unspecified constant of the within-block
    exponential bound.
    """
    if big_n < 2:
        raise ValueError("big_n must be >= 2")
    if not 2.0 < p <= 4.0:
        raise ValueError("p must lie in (2, 4]")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant != "balanced" and epsilon <= 0:
        raise ValueError("inflated variants need epsilon > 0")
    if c_fit <= 0:
        raise ValueError("c_fit must be positive")

    levels = np.arange(big_n + 1)
    m = np.zeros(big_n + 1, dtype=np.int64)
    for level in range(1, big_n + 1):
        log2l = math.log2(level) if level > 1 else 0.0
        if variant == "balanced":
            raw = 2.0 * (level - log2l) / p
        elif variant == "inflated":
            raw = 2.0 * (level + epsilon * log2l) / p
        else:
            raw = 2.0 * (level + (1.0 + epsilon) * log2l) / p
        m[level] = min(max(int(math.floor(raw)), 0), level)
    kappa = math.sqrt(2.0 * c_fit * math.log(2.0))
    lambdas = kappa * np.exp2(m / 2.0) * np.sqrt(levels.astype(float))
    return CouplingSchedule(levels=levels, m=m, variant=variant, p=p,
                            epsilon=epsilon, c_fit=c_fit, lambdas=lambdas)


# ---------------------------------------------------------------------------
# Exact conditional block-sum distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockDist:
    """Discrete law of a block sum, optionally with per-end-state splits.

    Atoms are sorted; for lattice-backed distributions ``sums_int`` holds the
    exact integer sums so cdf lookups are tolerance-free.
    """

    values: np.ndarray
    probs: np.ndarray
    cdf: np.ndarray
    step: float | None = None
    sums_int: np.ndarray | None = None
    start_state: int | None = None
    length: int = 1
    end_state_probs: np.ndarray | None = None   # (atoms, n_states) joint mass

    @classmethod
    def from_atoms(cls, values, probs, **kw) -> "BlockDist":
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        order = np.argsort(values)
        values, probs = values[order], probs[order]
        if np.any(probs < 0):
            raise ValueError("negative atom probability")
        total = probs.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1 within 1e-12")
        return cls(values=values, probs=probs, cdf=np.cumsum(probs), **kw)

    def mean(self) -> float:
        return float(self.values @ self.probs)


@lru_cache(maxsize=32)
def _block_tensor(chain: FiniteChain, m: int) -> tuple[np.ndarray, int]:
    """Dense joint law tensor T[start, sum_index, end] for blocks of 2^m steps.

    Length-doubling convolution: the law for 2L steps contracts two L-step
    tensors over the middle state while convolving the sum axis.
    """
    k = chain.obs_int
    k_min, k_max = int(k.min()), int(k.max())
    s = chain.n_states
    width_final = (k_max - k_min) * (2 ** m) + 1
    if width_final * s > ATOM_BUDGET:
        raise BudgetExceededError(
            "atom budget exceeded; reduce m or coarsen the lattice")

    width = k_max - k_min + 1
    t = np.zeros((s, width, s))
    for a in range(s):
        for bb in range(s):
            t[a, k[bb] - k_min, bb] += chain.transition[a, bb]
    length = 1
    for _ in range(m):
        new_width = 2 * (length * (k_max - k_min)) + 1
        out = np.zeros((s, new_width, s))
        for a in range(s):
            for mid in range(s):
                if not np.any(t[a, :, mid]):
                    continue
                for bb in range(s):
                    col = t[mid, :, bb]
                    if np.any(col):
                        out[a, :, bb] += np.convolve(t[a, :, mid], col)
        t = out
        length *= 2
    return t, length * k_min


def block_sum_dist(chain: FiniteChain, start_state: int, m: int) -> BlockDist:
    """Exact law of (sum of 2^m observable steps, end state) from `start_state`.

    By the Markov property this realizes the conditional block-sum law given
    the whole past up to the block start.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    tensor, offset = _block_tensor(chain, m)
    joint = tensor[start_state]                 # (width, n_states)
    marginal = joint.sum(axis=1)
    mask = marginal > 0.0
    sums_int = np.nonzero(mask)[0] + offset
    probs = marginal[mask]
    return BlockDist(
        values=sums_int.astype(float) * chain.step,
        probs=probs,
        cdf=np.cumsum(probs),
        step=chain.step,
        sums_int=sums_int.astype(np.int64),
        start_state=start_state,
        length=2 ** m,
        end_state_probs=joint[mask],
    )


# ---------------------------------------------------------------------------
# Quantile transform and increment split
# ---------------------------------------------------------------------------

def _conditional_quantile(dist: BlockDist, u_int, delta) -> np.ndarray:
    """Standard normal images of the integer block sums u_int under the
    conditional quantile transform: Phi^{-1}(F(u-) + delta (F(u) - F(u-)))
    with F the block-sum cdf (F(u) = F(u-) between atoms); delta in (0, 1)
    randomizes within the atom.
    """
    idx = np.searchsorted(dist.sums_int, u_int, side="left")
    f_minus = np.where(idx > 0, dist.cdf[idx - 1], 0.0)
    at = np.minimum(idx, len(dist.sums_int) - 1)
    f_at = np.where(dist.sums_int[at] == u_int, dist.cdf[at], f_minus)
    if np.any(f_at == 0.0):
        raise ValueError("block sum outside its conditional support")
    return gaussian_quantile(f_minus + delta * (f_at - f_minus))


def skorohod_split(v: float, m: int, sigma2: float,
                   substream: np.random.Generator) -> np.ndarray:
    """Split a Gaussian total into 2^m i.i.d. N(0, sigma2) increments.

    Increments are v / 2^m plus centered Gaussian residuals (the conditional
    law of i.i.d. Gaussians given their sum); the final increment absorbs the
    float summation residual so the increments add back to v.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    count = 2 ** m
    g = substream.normal(0.0, math.sqrt(sigma2), count)
    inc = v / count + (g - g.mean())
    for _ in range(2):
        inc[-1] += v - float(np.sum(inc))
    return inc


# ---------------------------------------------------------------------------
# Full coupling construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoupledPath:
    """Paired trajectories (S_k, T_k) with the per-level block data."""

    s: np.ndarray                 # S_0..S_n
    t: np.ndarray                 # T_0..T_n
    z: np.ndarray                 # T increments, Z_1..Z_n
    x: np.ndarray                 # X_1..X_n
    u_by_level: tuple
    v_by_level: tuple
    m_by_level: tuple
    sigma2: float
    seed: int
    replicate: int

    @property
    def n(self) -> int:
        return len(self.x)


def _clip_unit(u):
    return np.clip(u, 2.0 ** -60, np.nextafter(1.0, 0.0))


def build_coupling(process: FiniteChain, schedule: CouplingSchedule, sigma2: float,
                   n: int, seed: int, replicate: int = 0) -> CoupledPath:
    """One coupled path at n = 2^{N+1} for the schedule's N.

    Simulates the chain path, computes each block sum, maps it through the
    conditional quantile transform of its exact block-start law, and splits
    the Gaussian block totals into i.i.d. increments.  Each block consumes
    one substream: first draw the atom randomizer, remaining draws the split.
    """
    if not isinstance(process, FiniteChain):
        raise TypeError("coupling requires an exact lattice chain")
    if sigma2 <= 0:
        raise ValueError("degenerate process: coupling undefined")
    if n != schedule.n:
        raise ValueError(f"n must equal 2^(N+1) = {schedule.n} for this schedule")

    states, vals_int = sample_chain_paths(process, n, seed, [replicate])
    states, vals_int = states[0], vals_int[0]
    return _couple_path(process, schedule, sigma2, states, vals_int, seed, replicate)


def _couple_path(chain: FiniteChain, schedule: CouplingSchedule, sigma2: float,
                 states: np.ndarray, vals_int: np.ndarray, seed: int,
                 replicate: int) -> CoupledPath:
    n = len(vals_int)
    step = chain.step
    sums_int = np.concatenate(([0], np.cumsum(vals_int)))
    s = sums_int.astype(float) * step

    t = np.zeros(n + 1)
    sigma = math.sqrt(sigma2)
    gen0 = block_stream(seed, n, replicate, 0)
    z1 = sigma * gaussian_quantile(_clip_unit(gen0.random()))
    t[1] = z1

    dists: dict[tuple[int, int], BlockDist] = {}
    u_by_level, v_by_level, m_by_level = [], [], []
    serial = 1
    t_run = z1
    for level in schedule.levels:
        m = int(schedule.m[level])
        count = 2 ** m
        base = 2 ** int(level)
        u_int = vals_int[base:2 * base].reshape(-1, count).sum(axis=1)
        starts = states[base:2 * base:count]
        gens = [block_stream(seed, n, replicate, serial + k) for k in range(len(u_int))]
        serial += len(u_int)
        deltas = _clip_unit(np.array([gen.random() for gen in gens]))
        v = np.empty(len(u_int))
        scale = sigma * (2.0 ** (m / 2.0))
        for state in np.unique(starts):
            key = (int(state), m)
            dist = dists.get(key)
            if dist is None:
                dist = dists[key] = block_sum_dist(chain, key[0], m)
            sel = starts == state
            v[sel] = scale * _conditional_quantile(dist, u_int[sel], deltas[sel])
        for k, gen in enumerate(gens):
            b = base + k * count
            target = t_run + v[k]
            if m == 0:
                t[b + 1] = target
            else:
                prefix = t_run + np.cumsum(skorohod_split(v[k], m, sigma2, gen))
                prefix[-1] = target    # boundary identity holds bitwise
                t[b + 1:b + count + 1] = prefix
            t_run = target
        u_by_level.append(u_int * step)
        v_by_level.append(v)
        m_by_level.append(m)

    z = np.diff(t)
    return CoupledPath(s=s, t=t, z=z, x=vals_int.astype(float) * step,
                       u_by_level=tuple(u_by_level), v_by_level=tuple(v_by_level),
                       m_by_level=tuple(m_by_level), sigma2=sigma2, seed=seed,
                       replicate=replicate)


@dataclass(frozen=True)
class CouplingErrors:
    sup_error: float
    first_step_error: float          # |X_1 - Z_1|
    per_level: tuple                  # dicts with level, m, d, d1, d2
    envelope: float                   # first_step_error + sum of D_L


def coupling_errors(path: CoupledPath) -> CouplingErrors:
    """sup_k |S_k - T_k| plus the per-level (D_L, D_{L,1}, D_{L,2}) statistics.

    Asserts the pathwise triangle decomposition D_L <= D_{L,1} + D_{L,2} and
    the dyadic envelope sup <= |X_1 - Z_1| + sum_L D_L.
    """
    e = path.s - path.t
    n = path.n
    sup_error = float(np.max(np.abs(e[1:])))
    first = abs(float(path.x[0] - path.z[0]))
    scale = 1e-9 * (1.0 + float(np.max(np.abs(path.s))) + float(np.max(np.abs(path.t))))

    per_level = []
    big_n = int(math.log2(n)) - 1
    for level in range(big_n + 1):
        base = 2 ** level
        seg = e[base:2 * base + 1]
        d = float(np.max(np.abs(seg[1:] - seg[0])))
        du = path.u_by_level[level] - path.v_by_level[level]
        d1 = float(np.max(np.abs(np.cumsum(du))))
        m = path.m_by_level[level]
        count = 2 ** m
        blocks = seg[1:].reshape(-1, count)
        anchors = seg[0:-1:count][:blocks.shape[0]]
        d2 = float(np.max(np.abs(blocks - anchors[:, None])))
        if d > d1 + d2 + scale:
            raise AssertionError(
                f"level {level}: D_L={d} exceeds D_L1+D_L2={d1 + d2}")
        per_level.append({"level": level, "m": m, "d": d, "d1": d1, "d2": d2})

    envelope = first + sum(row["d"] for row in per_level)
    if sup_error > envelope + scale:
        raise AssertionError("dyadic envelope violated")
    return CouplingErrors(sup_error=sup_error, first_step_error=first,
                          per_level=tuple(per_level), envelope=envelope)


# ---------------------------------------------------------------------------
# Quadratic transport cost
# ---------------------------------------------------------------------------

def _phi(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    finite = np.isfinite(z)
    out[finite] = np.exp(-0.5 * z[finite] ** 2) / math.sqrt(2.0 * math.pi)
    return out


def w2_conditional(dist: BlockDist, target_variance: float) -> float:
    """Squared quadratic Wasserstein distance to N(0, target_variance).

    Exact quantile-function L2 distance: per atom, the integral over its cdf
    interval of (u - tau Phi^{-1}(t))^2 dt, with the Gaussian partial moments
    in closed form.
    """
    if target_variance <= 0:
        raise ValueError("target_variance must be positive")
    tau = math.sqrt(target_variance)
    c = np.concatenate(([0.0], np.minimum(dist.cdf, 1.0)))
    z = np.empty_like(c)
    z[0] = -np.inf
    z[-1] = np.inf
    if len(c) > 2:
        z[1:-1] = ndtri(c[1:-1])
    phi = _phi(z)
    zphi = np.zeros_like(z)
    finite = np.isfinite(z)
    zphi[finite] = z[finite] * phi[finite]
    dc = np.diff(c)
    i1 = phi[:-1] - phi[1:]
    i2 = dc - (zphi[1:] - zphi[:-1])
    u = dist.values
    return float(np.sum(u * u * dc - 2.0 * tau * u * i1 + tau * tau * i2))


def block_coupling_second_moment(chain: FiniteChain, m: int, sigma2: float,
                                 blocks: int, seed: int) -> dict:
    """Monte Carlo E(U - V)^2 over independent blocks, with the exact
    stationary-mixture quadrature it must match.

    Each block draws its start from the stationary law, simulates 2^m steps,
    and applies the quantile transform; the exact value is the stationary
    mixture of per-start squared transport costs.
    """
    count = 2 ** m
    gens = [block_stream(seed, count, rep, 0) for rep in range(blocks)]
    u = np.stack([g.random(count + 2) for g in gens])
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
