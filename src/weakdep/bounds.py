"""Tail-probability bound evaluation and Monte Carlo verification.

The central object is the two-term deviation bound for the running maximum of
partial sums: a sub-Gaussian term (suppressed when the variance rate
vanishes) plus a polynomial term driven by the aggregate dependence sums,
both evaluated at (n, x) points by ``bound_terms(summary, points)``.
Its numerical constants are not pinned by theory, so they are fitted: the
smallest constants on a log grid that dominate empirical tail estimates on a
training grid, then validated on a disjoint holdout grid.

All Monte Carlo here is replicate-parallel with counter-based substreams;
results are independent of chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import betaincinv

from .coefficients import (SeriesSummary, certified_theta_table,
                           degenerate_moment_bound, is_degenerate, sigma2_exact)
from .processes import FiniteChain, chain_walk, path_uniforms

_CHUNK_ELEMENT_BUDGET = 8_000_000   # replicates x (n+1) doubles per chunk
MIN_TAIL_REPLICATES = 100           # fewest replicates a tail estimate accepts
SEARCH_BOX = (1e-3, 1e6)            # range of the fitted constants' log lattice


# ---------------------------------------------------------------------------
# Bound arithmetic
# ---------------------------------------------------------------------------

def bound_terms(summary: SeriesSummary, points) -> tuple[np.ndarray, np.ndarray]:
    """The Gaussian and the polynomial term of the bound at c1 = c2 = 1, one
    entry per (n, x) of ``points``.  The Gaussian term carries the variance
    indicator and is 0 when sigma2 == 0."""
    sigma2, theta1, theta2 = summary.sigma2, summary.theta1, summary.theta2
    gauss, poly = [], []
    for n, x in points:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not x > 0:
            raise ValueError("x must be positive")
        if sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if theta1 < 1 or theta2 < 1:
            raise ValueError("theta1 and theta2 must be >= 1")
        weighted_x = summary.weighted(x)
        if not math.isfinite(theta2) or not math.isfinite(weighted_x):
            raise ValueError("divergent dependence series; bound refuses such inputs")
        if weighted_x < 0:
            raise ValueError("weighted_x must be nonnegative")
        gauss.append((n * sigma2 / x ** 2) ** 4 * math.exp(-x ** 2 / (16.0 * n * sigma2))
                     if sigma2 > 0 else 0.0)
        poly.append(n / x ** 4 * (theta1 * theta2 + weighted_x))
    return np.array(gauss, dtype=float), np.array(poly, dtype=float)


# ---------------------------------------------------------------------------
# Monte Carlo path statistics
# ---------------------------------------------------------------------------

def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact binomial 95 % confidence interval."""
    a = (1.0 - 0.95) / 2.0
    if successes == 0:
        lo = 0.0
    else:
        lo = float(betaincinv(successes, trials - successes + 1, a))
    if successes == trials:
        hi = 1.0
    else:
        hi = float(betaincinv(successes + 1, trials - successes, 1.0 - a))
    return lo, hi


def _chunk_ranges(replicates: int, n: int) -> list[range]:
    chunk = max(16, min(4096, _CHUNK_ELEMENT_BUDGET // (n + 1)))
    return [range(lo, min(lo + chunk, replicates))
            for lo in range(0, replicates, chunk)]


def _chain_running_stats(chain: FiniteChain, u: np.ndarray):
    """Per-replicate (final_sum, running_max, running_min) integer statistics
    of the paths driven by uniforms u (r, n+1)."""
    r = len(u)
    s = np.zeros(r, dtype=np.int64)
    smax = np.zeros(r, dtype=np.int64)   # S_0 = 0 participates in the max
    smin = np.zeros(r, dtype=np.int64)
    obs = chain.obs_int
    walk = chain_walk(chain, u)
    next(walk)                           # xi_0 carries no summand
    for states in walk:
        s += obs[states]
        np.maximum(smax, s, out=smax)
        np.minimum(smin, s, out=smin)
    return s, smax, smin


@dataclass(frozen=True, eq=False)
class TailSample:
    """(S_n, max_k S_k, min_k S_k) per replicate path of length n, in process
    units, S_0 = 0 included.  ``step`` is the chain's lattice step and makes
    tail queries exact."""

    n: int
    step: float
    s: np.ndarray
    smax: np.ndarray
    smin: np.ndarray


def path_statistics(process: FiniteChain, n: int, replicates: int,
                    seed: int) -> TailSample:
    """Simulate a tail sample of a finite chain; the one place where tail
    samples are simulated.

    Chunked lockstep simulation; replicate substreams make the output
    independent of chunking.
    """
    if not isinstance(process, FiniteChain):
        raise TypeError(f"unsupported process type {type(process).__name__}")
    parts = [_chain_running_stats(process, path_uniforms(seed, n, reps))
             for reps in _chunk_ranges(replicates, n)]
    step = process.step
    s, smax, smin = (np.concatenate(stat).astype(float) * step for stat in zip(*parts))
    return TailSample(n=n, step=step, s=s, smax=smax, smin=smin)


def _lattice_threshold(x: float, step: float) -> int:
    """Smallest integer m with m * step >= x, computed exactly."""
    q = Fraction(float(x)) / Fraction(float(step))
    return math.ceil(q)


@dataclass(frozen=True)
class TailEstimate:
    p_hat: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError("inconsistent confidence interval")


def empirical_tail(sample: TailSample, x: float, statistic: str = "max") -> TailEstimate:
    """Monte Carlo estimate of P(S_n^* >= x) from a simulated sample, with an
    exact binomial interval.

    ``statistic`` selects the one-sided running maximum (``"max"``) or the
    two-sided ``max_k |S_k|`` (``"absmax"``).  The comparison against x is
    exact (integer lattice threshold).
    """
    replicates = len(sample.smax)
    if replicates < MIN_TAIL_REPLICATES:
        raise ValueError(f"need at least {MIN_TAIL_REPLICATES} replicates")
    if statistic not in ("max", "absmax"):
        raise ValueError("statistic must be 'max' or 'absmax'")
    stat = sample.smax if statistic == "max" else np.maximum(sample.smax, -sample.smin)
    thr = _lattice_threshold(x, sample.step) * sample.step
    hits = int(np.count_nonzero(stat >= thr - 0.5 * sample.step))
    lo, hi = clopper_pearson(hits, replicates)
    return TailEstimate(p_hat=hits / replicates, ci_low=lo, ci_high=hi)


# ---------------------------------------------------------------------------
# Constant fitting
# ---------------------------------------------------------------------------

def tail_grid(n_values, points_per_n: int, sup_norm: float,
              holdout: bool = False) -> list[tuple[int, float]]:
    """Log-spaced (n, x) grid straddling the Gaussian and polynomial regimes.

    x runs between 2 sqrt(n) and n * sup_norm / 2, endpoints included.  The
    holdout grid lives strictly inside the trained envelope (fitted constants
    are interpolated, never extrapolated) at log-offset positions that cannot
    collide with training points for any point count (irrational offset).
    An empty ``n_values`` (the config's ``grid_n``) or a ``points_per_n``
    below 1 is refused.
    """
    if len(n_values) == 0:
        raise ValueError("grid_n must list at least one n")
    if points_per_n < 1:
        raise ValueError(f"points_per_n must be at least 1, not {points_per_n}")
    grid = []
    offset = 0.5 * math.sqrt(2.0)
    for n in n_values:
        lo, hi = 2.0 * math.sqrt(n), 0.5 * n * sup_norm
        if hi <= lo:
            raise ValueError(f"degenerate x-range for n={n}")
        span = hi / lo
        if holdout:
            xs = [lo * span ** ((j + offset) / points_per_n)
                  for j in range(points_per_n)]
        else:
            xs = np.geomspace(lo, hi, points_per_n)
        grid.extend((int(n), float(x)) for x in xs)
    return grid


@dataclass(frozen=True)
class ConstantsFit:
    c1: float
    c2: float
    rows: list

    @property
    def binding(self) -> list:
        return [row for row in self.rows if row["binding"]]


def _tail_rows(process, grid, replicates: int, seed: int) -> list[dict]:
    """The pass the fit and the check share: ``n, x, p_hat, ci_low, ci_high``
    rows of an (n, x) grid from one simulated sample per distinct n."""
    samples = {n: path_statistics(process, n, replicates, seed)
               for n in dict.fromkeys(n for n, _ in grid)}
    return [{"n": n, "x": x, **vars(empirical_tail(samples[n], x))} for n, x in grid]


def _envelope_points(grid) -> tuple[list, list]:
    """Five log-spaced points inside each gap between adjacent training x at
    fixed n (n in grid order, x sorted), and each point's left anchor: the
    index of the gap's left grid point."""
    by_n: dict[int, list] = {}
    for i, (n, x) in enumerate(grid):
        by_n.setdefault(n, []).append((x, i))
    points, anchors = [], []
    for n, xs in by_n.items():
        xs.sort(key=lambda t: t[0])
        for (x_l, i), (x_r, _) in zip(xs, xs[1:]):
            points.extend((n, float(x)) for x in np.geomspace(x_l, x_r, 7)[1:-1])
            anchors.extend([i] * 5)
    return points, anchors


def _padded_limit(row: dict) -> float:
    """An anchor row's upper confidence limit times its noise allowance."""
    width = row["ci_high"] - row["ci_low"]
    return row["ci_high"] * (1.0 + min(0.5, 2.0 * width / max(row["p_hat"], width, 1e-300)))


def _lattice_constants(a, b, targets, box) -> tuple[float, float]:
    """Least-product lattice pair (c1, c2), 8 points per decade of ``box``,
    with c1 * a + c2 * b >= targets; see ``fit_constants``."""
    lo, hi = box
    lattice = np.geomspace(lo, hi, int(round(8 * (math.log10(hi) - math.log10(lo)))) + 1)
    need = np.max((targets[:, None] - a[:, None] * lattice) / b[:, None], axis=0)
    idx = np.searchsorted(lattice, need)
    fits = idx < len(lattice)
    if not fits.any():
        raise ValueError(f"no finite constants found within search box {box}")
    c1s, c2s = lattice[fits], lattice[idx[fits]]
    best = np.lexsort((c1s, c2s, c1s * c2s))[0]
    return float(c1s[best]), float(c2s[best])


def fit_constants(process, grid, replicates: int, seed: int, *,
                  summary: SeriesSummary) -> ConstantsFit:
    """Smallest constants on a log lattice (8 points per decade of
    ``SEARCH_BOX``) whose bound dominates the empirical tail curve over the
    training grid.

    The constraints are one table: the bound's terms (a, b) at the grid
    points, with target ci_high, and at five points inside each gap between
    adjacent training x at fixed n, whose target is the left anchor's upper
    limit padded for holdout noise (the tail is nonincreasing in x).  This
    gap envelope makes fitted constants transfer to disjoint holdout grids
    instead of relying on lattice overshoot.  Terms are evaluated before
    anything is simulated, so a summary the bound refuses fails first.

    Each lattice c1 takes the least lattice c2 at or above the envelope
    c2(c1) = max((target - c1 * a) / b); every polynomial term b is
    positive, so c2(c1) is always defined.  "Smallest" means minimal product
    c1 * c2 (ties broken toward smaller c2 then c1).  sigma2 and the
    dependence sums come from ``summary``.  When every Gaussian term a is 0
    (sigma2 == 0, or a tiny sigma2 whose term underflows) c2(c1) is flat and
    c1 lands on the box minimum.  Raises when no lattice pair dominates,
    which signals a bound violation or broken inputs.
    """
    envelope, anchors = _envelope_points(grid)
    a, b = bound_terms(summary, [*grid, *envelope])
    rows = _tail_rows(process, grid, replicates, seed)
    targets = np.array([row["ci_high"] for row in rows]
                       + [_padded_limit(rows[i]) for i in anchors])
    c1, c2 = _lattice_constants(a, b, targets, SEARCH_BOX)
    k = len(grid)
    rhs = c1 * a[:k] + c2 * b[:k]
    ratios = rhs / np.maximum(targets[:k], 1e-300)
    min_ratio = float(ratios.min())
    for row, value, ratio in zip(rows, rhs, ratios):
        row["rhs"] = float(value)
        row["binding"] = bool(ratio <= min_ratio * (1.0 + 1e-9))
    return ConstantsFit(c1=c1, c2=c2, rows=rows)


def validate_constants(process, c1: float, c2: float, holdout_grid, replicates: int,
                       seed: int, *, summary: SeriesSummary) -> tuple[bool, list]:
    """Check dominance of the bound with constants c1, c2 over the holdout
    grid's upper confidence limits.  A summary the bound refuses fails before
    anything is simulated."""
    a, b = bound_terms(summary, holdout_grid)
    rows = _tail_rows(process, holdout_grid, replicates, seed)
    for row, value in zip(rows, c1 * a + c2 * b):
        row["rhs"] = float(value)
        row["dominates"] = bool(value >= row["ci_high"])
    return all(row["dominates"] for row in rows), rows


# ---------------------------------------------------------------------------
# Series and moment diagnostics
# ---------------------------------------------------------------------------

def check_series_inputs(n_list, alpha: float, replicates: int, statistic: str) -> None:
    """Refuse a series check that cannot run, before anything is simulated:
    a non-geometric n_list, alpha outside the statistic's range, or fewer
    than MIN_TAIL_REPLICATES replicates."""
    ns = [int(n) for n in n_list]
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing with >= 2 entries")
    ratios = [b / a for a, b in zip(ns, ns[1:])]
    if max(ratios) / min(ratios) > 1.0 + 1e-9:
        raise ValueError("n_list must be geometric")
    if statistic == "max" and not 0.5 < alpha <= 1.0:
        raise ValueError("alpha must lie in (1/2, 1] for the one-sided check")
    if statistic == "absmax" and not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1) for the degenerate check")
    if replicates < MIN_TAIL_REPLICATES:
        raise ValueError(f"need at least {MIN_TAIL_REPLICATES} replicates")


def series_convergence_check(samples, alpha: float, p: float, epsilon: float,
                             statistic: str = "max") -> dict:
    """Summands n^{alpha p - 2} P(S_n^* >= eps n^alpha) over samples whose n
    form a geometric list.

    ``statistic="max"`` is the nondegenerate check (alpha in (1/2, 1]);
    ``statistic="absmax"`` the degenerate one (alpha in (0, 1)).  The returned
    ``decays`` flag compares the last summand against the first.
    """
    check_series_inputs([sample.n for sample in samples], alpha,
                        min((len(sample.smax) for sample in samples), default=0),
                        statistic)
    rows = []
    for sample in samples:
        n = sample.n
        x = epsilon * n ** alpha
        est = empirical_tail(sample, x, statistic=statistic)
        w = n ** (alpha * p - 2.0)
        rows.append({"n": n, "x": x, "p_hat": est.p_hat, "ci_low": est.ci_low,
                     "ci_high": est.ci_high, "summand": w * est.p_hat,
                     "summand_ci_high": w * est.ci_high})
    first, last = rows[0]["summand"], rows[-1]["summand"]
    return {"rows": rows, "decays": bool(last < first or last == 0.0)}


def degenerate_moment_check(process: FiniteChain, q: float, samples) -> dict:
    """Monte Carlo moments of a degenerate process against the analytic bound.

    Verifies degeneracy (``is_degenerate``), computes E|S_n|^q per sample
    with a normal-approximation interval, compares with the lag-weighted
    moment bound (theta_{1,1} tabulated to lag 40), and tracks ||S_n^*||_r
    (two-sided maximum, r = 2) against C n^{1/p} (p = 4) anchored at the
    first sample's n.
    """
    if not is_degenerate(process):
        raise ValueError("process not degenerate")
    r, p_decay = 2.0, 4.0
    sig = sigma2_exact(process)
    table = certified_theta_table(process, 1, 1, 40)
    bound = degenerate_moment_bound(process.sup_norm, q, table)

    rows = []
    for sample in samples:
        s = sample.s
        amax = np.maximum(sample.smax, -sample.smin)
        mq = np.abs(s) ** q
        m_hat = float(mq.mean())
        m_se = float(mq.std(ddof=1)) / math.sqrt(len(s))
        sup_r = float((amax ** r).mean()) ** (1.0 / r)
        rows.append({"n": sample.n, "moment_q": m_hat,
                     "moment_ci_low": m_hat - 1.96 * m_se,
                     "moment_ci_high": m_hat + 1.96 * m_se,
                     "bound": bound, "below_bound": bool(m_hat <= bound),
                     "sup_norm_r": sup_r})
    anchor = rows[0]
    c_ref = anchor["sup_norm_r"] / anchor["n"] ** (1.0 / p_decay)
    for row in rows:
        row["sup_reference"] = c_ref * row["n"] ** (1.0 / p_decay)
    return {"rows": rows, "bound": bound, "sigma2": sig}
