"""Tail-probability bound evaluation and Monte Carlo verification.

The central object is the two-term deviation bound for the running maximum of
partial sums: a sub-Gaussian term (suppressed when the variance rate
vanishes) plus a polynomial term driven by the aggregate dependence sums.
Its numerical constants are not pinned by theory, so they are fitted: the
smallest constants on a log grid that dominate empirical tail estimates on a
training grid, then validated on a disjoint holdout grid.

All Monte Carlo here is replicate-parallel with counter-based substreams;
results are independent of chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import betaincinv

from .coefficients import (SeriesSummary, certified_theta_table,
                           degenerate_moment_bound, is_degenerate, sigma2_exact)
from .processes import (FiniteChain, LsvProcess, chain_walk, lsv_running_stats,
                        path_uniforms)

_CHUNK_ELEMENT_BUDGET = 8_000_000   # replicates x (n+1) doubles per chunk
MIN_TAIL_REPLICATES = 100           # fewest replicates a tail estimate accepts


# ---------------------------------------------------------------------------
# Bound arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FukNagaevParams:
    """Inputs of the two-term tail bound at a single (n, x) query."""

    n: int
    x: float
    sigma2: float
    theta1: float
    theta2: float
    weighted_x: float
    c1: float
    c2: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.x > 0:
            raise ValueError("x must be positive")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if self.theta1 < 1 or self.theta2 < 1:
            raise ValueError("theta1 and theta2 must be >= 1")
        if not math.isfinite(self.theta2) or not math.isfinite(self.weighted_x):
            raise ValueError("divergent dependence series; bound refuses such inputs")
        if self.weighted_x < 0:
            raise ValueError("weighted_x must be nonnegative")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("constants must be positive")


def bound_terms(params: FukNagaevParams) -> tuple[float, float]:
    """The two terms of the bound at c1 = c2 = 1: (Gaussian, polynomial).  The
    Gaussian term carries the variance indicator and is 0 when sigma2 == 0."""
    n, x, sigma2 = params.n, params.x, params.sigma2
    gauss = 0.0
    if sigma2 > 0:
        gauss = (n * sigma2 / x ** 2) ** 4 * math.exp(-x ** 2 / (16.0 * n * sigma2))
    poly = n / x ** 4 * (params.theta1 * params.theta2 + params.weighted_x)
    return gauss, poly


def fuk_nagaev_rhs(params: FukNagaevParams) -> float:
    """Value of the two-term bound."""
    gauss, poly = bound_terms(params)
    return params.c1 * gauss + params.c2 * poly


def params_from_summary(summary: SeriesSummary, n: int, x: float,
                        c1: float = 1.0, c2: float = 1.0) -> FukNagaevParams:
    """Bound inputs at (n, x) from a series summary, sigma2 included."""
    if summary.sigma2 is None:
        raise ValueError("series summary carries no sigma2")
    return FukNagaevParams(n=n, x=x, sigma2=summary.sigma2, theta1=summary.theta1,
                           theta2=summary.theta2, weighted_x=summary.weighted(x),
                           c1=c1, c2=c2)


# ---------------------------------------------------------------------------
# Monte Carlo path statistics
# ---------------------------------------------------------------------------

def clopper_pearson(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval."""
    a = (1.0 - level) / 2.0
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
    units, S_0 = 0 included.  ``step`` is the lattice step of a lattice chain
    (None otherwise) and makes tail queries exact."""

    n: int
    step: float | None
    s: np.ndarray
    smax: np.ndarray
    smin: np.ndarray


def path_statistics(process, n: int, replicates: int, seed: int) -> TailSample:
    """Simulate a tail sample; the one place where tail samples are simulated.

    Chunked lockstep simulation; replicate substreams make the output
    independent of chunking.
    """
    ranges = _chunk_ranges(replicates, n)
    if isinstance(process, FiniteChain):
        job = lambda reps: _chain_running_stats(process, path_uniforms(seed, n, reps))
        step = process.step
    elif isinstance(process, LsvProcess):
        job = lambda reps: lsv_running_stats(process, [n], seed, reps)[0]
        step = None
    else:
        raise TypeError(f"unsupported process type {type(process).__name__}")
    parts = [job(reps) for reps in ranges]
    scale = 1.0 if step is None else step
    s, smax, smin = (np.concatenate(stat).astype(float) * scale for stat in zip(*parts))
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
    replicates: int
    n: int
    x: float
    statistic: str = "max"

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError("inconsistent confidence interval")


def empirical_tail(sample: TailSample, x: float, statistic: str = "max") -> TailEstimate:
    """Monte Carlo estimate of P(S_n^* >= x) from a simulated sample, with an
    exact binomial interval.

    ``statistic`` selects the one-sided running maximum (``"max"``) or the
    two-sided ``max_k |S_k|`` (``"absmax"``).  The comparison against x is
    exact on lattice chains (integer threshold).
    """
    replicates = len(sample.smax)
    if replicates < MIN_TAIL_REPLICATES:
        raise ValueError(f"need at least {MIN_TAIL_REPLICATES} replicates")
    if statistic not in ("max", "absmax"):
        raise ValueError("statistic must be 'max' or 'absmax'")
    stat = sample.smax if statistic == "max" else np.maximum(sample.smax, -sample.smin)
    if sample.step is not None and x > 0:
        thr = _lattice_threshold(x, sample.step) * sample.step
        hits = int(np.count_nonzero(stat >= thr - 0.5 * sample.step))
    else:
        hits = int(np.count_nonzero(stat >= x))
    lo, hi = clopper_pearson(hits, replicates)
    return TailEstimate(p_hat=hits / replicates, ci_low=lo, ci_high=hi,
                        replicates=replicates, n=sample.n, x=x, statistic=statistic)


def _samples_by_n(process, grid, replicates: int, seed: int) -> dict[int, TailSample]:
    """One simulated sample per distinct n of an (n, x) grid."""
    return {n: path_statistics(process, n, replicates, seed)
            for n in dict.fromkeys(n for n, _ in grid)}


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
    """
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
    binding: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    search_box: tuple = (1e-3, 1e6)


def _grid_terms(summary: SeriesSummary, grid) -> tuple[np.ndarray, np.ndarray]:
    """Per grid point: Gaussian term at c1 = 1 and polynomial term at c2 = 1."""
    terms = np.array([bound_terms(params_from_summary(summary, n, x)) for n, x in grid],
                     dtype=float).reshape(-1, 2)
    return terms[:, 0], terms[:, 1]


def _envelope_constraints(grid, ests, summary, mesh: int = 7):
    """Interior dominance constraints between adjacent training x at fixed n.

    The true tail is nonincreasing in x, so between anchors it stays below
    the left anchor's upper confidence limit; a noise allowance covers the
    fluctuation of the holdout interval itself.  Returns (a, b, u) rows.
    """
    by_n: dict[int, list] = {}
    for (n, x), est in zip(grid, ests):
        by_n.setdefault(n, []).append((x, est))
    rows_a, rows_b, rows_u = [], [], []
    for n, points in by_n.items():
        points.sort(key=lambda t: t[0])
        for (x_l, est_l), (x_r, _) in zip(points, points[1:]):
            width = est_l.ci_high - est_l.ci_low
            pad = 1.0 + min(0.5, 2.0 * width / max(est_l.p_hat, width, 1e-300))
            target = est_l.ci_high * pad
            xs = np.geomspace(x_l, x_r, mesh)[1:-1]
            a, b = _grid_terms(summary, [(n, float(x)) for x in xs])
            rows_a.extend(a)
            rows_b.extend(b)
            rows_u.extend([target] * len(xs))
    return np.asarray(rows_a), np.asarray(rows_b), np.asarray(rows_u)


def fit_constants(process, grid, replicates: int, seed: int, *,
                  summary: SeriesSummary,
                  search_box: tuple[float, float] = (1e-3, 1e6),
                  points_per_decade: int = 8, statistic: str = "max") -> ConstantsFit:
    """Smallest constants on a log lattice whose bound dominates the
    empirical tail curve over the training grid.

    Dominance is required at every grid point (rhs >= ci_high) and, through
    the monotonicity of the tail in x, across each gap between adjacent
    training x (rhs >= left anchor's upper limit, noise-padded).  The gap
    envelope is what makes fitted constants transfer to disjoint holdout
    grids instead of relying on lattice overshoot.

    "Smallest" means minimal product c1 * c2 (ties broken toward smaller c2
    then c1).  sigma2 and the dependence sums come from ``summary``.  When
    every Gaussian term is 0 (sigma2 == 0, or a tiny sigma2 whose term
    underflows) the Gaussian constant is irrelevant and pinned at the box
    minimum.  Raises when even the box corner fails, which signals a bound
    violation or broken inputs.
    """
    a_pts, b_pts = _grid_terms(summary, grid)
    samples = _samples_by_n(process, grid, replicates, seed)
    ests = [empirical_tail(samples[n], x, statistic=statistic) for (n, x) in grid]
    point_targets = np.array([e.ci_high for e in ests])
    a_env, b_env, u_env = _envelope_constraints(grid, ests, summary)
    targets = np.concatenate([point_targets, u_env])
    a = np.concatenate([a_pts, a_env])
    b = np.concatenate([b_pts, b_env])

    lo, hi = search_box
    decades = math.log10(hi) - math.log10(lo)
    candidates = np.geomspace(lo, hi, int(round(points_per_decade * decades)) + 1)

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
            f"no finite constants found within search box {search_box}")
    _, c1, c2 = best

    rhs = c1 * a_pts + c2 * b_pts
    ratios = rhs / np.maximum(point_targets, 1e-300)
    min_ratio = float(ratios.min())
    rows = []
    binding = []
    for i, ((n, x), est) in enumerate(zip(grid, ests)):
        row = {"n": n, "x": x, "p_hat": est.p_hat, "ci_low": est.ci_low,
               "ci_high": est.ci_high, "rhs": float(rhs[i]),
               "binding": bool(ratios[i] <= min_ratio * (1.0 + 1e-9))}
        rows.append(row)
        if row["binding"]:
            binding.append(row)
    return ConstantsFit(c1=c1, c2=c2, binding=binding, rows=rows,
                        search_box=search_box)


def validate_constants(process, fit: ConstantsFit, holdout_grid, replicates: int,
                       seed: int, *, summary: SeriesSummary,
                       statistic: str = "max") -> tuple[bool, list]:
    """Check bound dominance over the holdout grid's upper confidence limits."""
    a, b = _grid_terms(summary, holdout_grid)
    samples = _samples_by_n(process, holdout_grid, replicates, seed)
    rows = []
    ok = True
    for i, (n, x) in enumerate(holdout_grid):
        est = empirical_tail(samples[n], x, statistic=statistic)
        rhs = fit.c1 * a[i] + fit.c2 * b[i]
        dominates = rhs >= est.ci_high
        ok = ok and dominates
        rows.append({"n": n, "x": x, "p_hat": est.p_hat, "ci_low": est.ci_low,
                     "ci_high": est.ci_high, "rhs": float(rhs),
                     "dominates": bool(dominates)})
    return ok, rows


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


def degenerate_moment_check(process: FiniteChain, q: float, samples, *,
                            r: float = 2.0, p_decay: float = 4.0,
                            theta_horizon: int = 40) -> dict:
    """Monte Carlo moments of a degenerate process against the analytic bound.

    Verifies degeneracy (``is_degenerate``), computes E|S_n|^q per sample
    with a normal-approximation interval, compares with the lag-weighted
    moment bound, and tracks ||S_n^*||_r (two-sided maximum) against C n^{r/p}
    anchored at the first sample's n.
    """
    if not is_degenerate(process):
        raise ValueError("process not degenerate")
    sig = sigma2_exact(process)
    table = certified_theta_table(process, 1, 1, theta_horizon)
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
    return {"rows": rows, "bound": bound, "q": q, "r": r, "p_decay": p_decay,
            "sigma2": sig}
