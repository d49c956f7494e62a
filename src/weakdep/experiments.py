"""Config-driven experiment pipelines over the coupling and bounds machinery.

Every pipeline is a pure function of (config, seed): replicates fan out over
counter-based substreams, statistics are reduced in replicate order, and rate
checks are slope regressions against declared targets with declared
tolerances.  The three coupled rates (``rates`` on a chain, ``wasserstein``
and an LSV surrogate) run one pipeline, :func:`_coupled_rate`, behind one set
of checks, :func:`_require_coupled`.  Logarithmic factors in the predicted
rates are nearly collinear with the power term at desk scale, so they are
folded into the tolerances rather than fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (check_series_inputs, degenerate_moment_check, path_statistics,
                     series_convergence_check)
from .coefficients import is_degenerate, sigma2_exact
from .coupling import coupling_errors, make_schedule, _couple_path
from .processes import FiniteChain, LsvProcess, lsv_running_stats, sample_chain_paths


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run: the pipelines' input.

    The CLI builds it from the settings of ``cli._read_config``.
    """

    process: object
    n_list: tuple
    replicates: int = 64
    seed: int = 0
    variant: str = "balanced"
    p: float = 4.0
    epsilon: float = 0.5
    c_fit: float = 1.0
    tolerance: float = 0.08
    surrogate: object | None = None
    alpha: float = 0.75
    series_p: float = 4.0
    series_epsilon: float = 1.0
    moment_q: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("n_list must be strictly increasing")


@dataclass(frozen=True)
class RateEstimate:
    """Fitted log-log slope against a declared target exponent."""

    exponent: float
    exponent_se: float
    target: float
    tolerance: float
    passed: bool | None
    degenerate: bool = False
    rows: tuple = ()

    def to_dict(self) -> dict:
        return {"exponent": self.exponent, "exponent_se": self.exponent_se,
                "target": self.target, "tolerance": self.tolerance,
                "passed": self.passed, "degenerate": self.degenerate}


def fit_power_law(ns, values):
    """OLS fit of log2(values) on log2(n).

    Returns (slope, slope_se, intercept).  Noiseless power law input recovers
    the exponent to float precision.
    """
    ns = np.asarray(ns, dtype=float)
    y = np.log2(np.asarray(values, dtype=float))
    design = np.column_stack([np.ones_like(ns), np.log2(ns)])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    dof = len(ns) - design.shape[1]
    if dof > 0:
        s2 = float(resid @ resid) / dof
        cov = s2 * np.linalg.inv(design.T @ design)
        se = math.sqrt(max(cov[1, 1], 0.0))
    else:
        se = math.inf
    return float(beta[1]), se, float(beta[0])


def _require_replicates(config: ExperimentConfig) -> None:
    if config.replicates < 16:
        raise ValueError("rate experiments need at least 16 replicates")


def _require_coupled(chain, config: ExperimentConfig) -> None:
    """The checks of every coupled ladder: an exact lattice chain with
    sigma2 > 0, n_list powers of two >= 8 (dyadic blocks), >= 16 replicates."""
    if not isinstance(chain, FiniteChain):
        raise ValueError("rate experiments require an exact lattice chain")
    if not all(n >= 8 and n & (n - 1) == 0 for n in config.n_list):
        raise ValueError("n_list entries must be powers of two, >= 8")
    _require_replicates(config)
    if is_degenerate(chain):
        raise ValueError("degenerate process: use the degenerate pipeline")


def coupling_sup_errors(chain: FiniteChain, config: ExperimentConfig, n: int,
                        sigma2: float) -> np.ndarray:
    """sup_k |S_k - T_k| per replicate for one n, coupled at variance sigma2."""
    schedule = make_schedule(int(math.log2(n)) - 1, config.p, config.variant,
                             epsilon=config.epsilon, c_fit=config.c_fit)
    states, vals = sample_chain_paths(chain, n, config.seed, range(config.replicates))
    return np.asarray([
        coupling_errors(_couple_path(chain, schedule, sigma2, states[rep],
                                     vals[rep], config.seed, rep)).sup_error
        for rep in range(config.replicates)])


def _l2_with_variance(errs: np.ndarray) -> tuple[float, float]:
    """Root mean square of the replicate statistics, plus the Monte Carlo
    variance of its base-2 log (delta method)."""
    sq = errs ** 2
    mean_sq = float(np.mean(sq))
    if mean_sq <= 0.0:
        return 0.0, math.inf
    var_mean = float(np.var(sq, ddof=1)) / len(sq)
    d = 1.0 / (2.0 * math.log(2.0) * mean_sq)
    return math.sqrt(mean_sq), var_mean * d * d


def _rate_estimate(ns, rms, target, tolerance, y_vars=None) -> RateEstimate:
    rows = tuple({"n": int(n), "error_l2": float(level)} for n, level in zip(ns, rms))
    arr = np.asarray(rms, dtype=float)
    if np.any(arr <= 0.0) or float(np.max(arr)) < 1e-9:
        return RateEstimate(exponent=0.0, exponent_se=math.inf, target=target,
                            tolerance=tolerance, passed=None, degenerate=True,
                            rows=rows)
    slope, se, _ = fit_power_law(ns, rms)
    if y_vars is not None:
        # Monte Carlo error of the slope: propagate per-point log variances
        # through the least-squares weights (replicate noise only; the
        # systematic log-factor curvature is folded into the tolerance).
        design = np.column_stack([np.ones(len(ns)),
                                  np.log2(np.asarray(ns, dtype=float))])
        weights = np.linalg.inv(design.T @ design) @ design.T
        se = math.sqrt(float(weights[1] ** 2 @ np.asarray(y_vars)))
    passed = abs(slope - target) <= tolerance
    return RateEstimate(exponent=slope, exponent_se=se, target=target,
                        tolerance=tolerance, passed=passed, rows=rows)


def _coupled_rate(chain: FiniteChain, config: ExperimentConfig, target: float,
                  rescale: bool = False) -> RateEstimate:
    """The one coupled pipeline: per n, the L2 level over replicates of
    sup_k |S_k - T_k| (over sqrt(n) with ``rescale``: the uniform distance of
    the rescaled lines, both linear between breakpoints k/n) and the Monte
    Carlo variance of its log; then the slope fit against ``target``.  sigma2
    is certified once per ladder."""
    sigma2 = sigma2_exact(chain)
    levels, y_vars = [], []
    for n in config.n_list:
        errs = coupling_sup_errors(chain, config, n, sigma2)
        if rescale:
            errs = errs / math.sqrt(n)
        level, var_y = _l2_with_variance(errs)
        levels.append(level)
        y_vars.append(var_y)
    return _rate_estimate(config.n_list, levels, target, config.tolerance, y_vars=y_vars)


def run_rate_experiment(config: ExperimentConfig) -> RateEstimate:
    """L2 coupling-error growth exponent against the 1/p target.

    For each n the L2 norm of sup_k |S_k - T_k| is the root mean square over
    replicates; the fitted log-log slope is compared with 1/p at the
    configured tolerance.
    """
    _require_coupled(config.process, config)
    return _coupled_rate(config.process, config, 1.0 / config.p)


@dataclass(frozen=True)
class LsvReport:
    """Direct orbit statistics plus, when configured, the surrogate coupled rate."""

    gamma: float
    target: float
    direct_exponent: float
    direct_se: float
    direct_rows: tuple
    surrogate: RateEstimate | None


def run_lsv_experiment(config: ExperimentConfig) -> LsvReport:
    """Intermittent-map rate experiment.

    Orbits admit no exact conditional block law, so the direct measurement is
    the growth exponent of ||S_n^*||_2 (a fluctuation proxy); when a
    finite-chain surrogate is configured, its coupled rate is measured under
    a schedule with p = min(4, 1/gamma) and compared with the
    max(gamma, 1/4) target.  Every check, the surrogate's included, runs
    before any orbit is stepped.
    """
    process = config.process
    if not isinstance(process, LsvProcess):
        raise ValueError("run_lsv_experiment requires an intermittent-map process")
    if not 0.0 < process.gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2) for rate experiments")
    gamma = process.gamma
    target = max(gamma, 0.25)
    coupled = replace(config, p=min(4.0, 1.0 / gamma))
    _require_replicates(config)
    if config.surrogate is not None:
        _require_coupled(config.surrogate, coupled)

    sup_l2 = []
    rows = []
    ladder = lsv_running_stats(process, config.n_list, config.seed,
                               range(config.replicates))
    for n, (_, smax, smin) in zip(config.n_list, ladder):
        level = math.sqrt(float(np.mean(np.maximum(smax, -smin) ** 2)))
        sup_l2.append(level)
        rows.append({"n": int(n), "sup_l2": level})
    direct_slope, direct_se, _ = fit_power_law(config.n_list, sup_l2)

    surrogate_estimate = None
    if config.surrogate is not None:
        surrogate_estimate = _coupled_rate(config.surrogate, coupled, target)
    return LsvReport(gamma=gamma, target=target, direct_exponent=direct_slope,
                     direct_se=direct_se, direct_rows=tuple(rows),
                     surrogate=surrogate_estimate)


@dataclass(frozen=True)
class WassersteinReport:
    estimate: RateEstimate
    reference_exponent: float = -1.0 / 6.0


def donsker_wasserstein(config: ExperimentConfig) -> WassersteinReport:
    """Decay of the quadratic-cost upper bound ||sup_t |B_n - sigma B|||_2.

    Target exponent -1/4; a reference n^{-1/6} line (the Skorohod-embedding
    rate at fourth moments, reported for visual comparison only) is anchored
    at the smallest n.
    """
    _require_coupled(config.process, config)
    estimate = _coupled_rate(config.process, config, -0.25, rescale=True)
    first = estimate.rows[0]
    anchor_c = first["error_l2"] / first["n"] ** (-1.0 / 6.0)
    rows = tuple({**row, "reference_n16": anchor_c * row["n"] ** (-1.0 / 6.0)}
                 for row in estimate.rows)
    return WassersteinReport(estimate=replace(estimate, rows=rows))


@dataclass(frozen=True)
class DegenerateReport:
    sigma2: float
    moment: dict
    series: dict
    sup_growth: RateEstimate
    zero_beyond: int | None
    passed: bool


def run_degenerate_suite(config: ExperimentConfig) -> DegenerateReport:
    """Moment-bound, flat-growth and series checks for telescoping observables.

    Requires a verified sigma2 = 0 process; aggregates the moment bound check
    (E|S_n|^q below the analytic bound at every n), the ||S_n^*||_2 growth
    exponent (target 0, pathwise-bounded sums), and the degenerate series
    summands, which must vanish once eps n^alpha exceeds the pathwise bound.
    """
    chain = config.process
    if not isinstance(chain, FiniteChain):
        raise ValueError("the degenerate suite requires an exact lattice chain")
    if not is_degenerate(chain):
        raise ValueError("process not degenerate")
    check_series_inputs(config.n_list, config.alpha, config.replicates, "absmax")
    samples = [path_statistics(chain, n, config.replicates, config.seed)
               for n in config.n_list]
    moment = degenerate_moment_check(chain, config.moment_q, samples)
    series = series_convergence_check(samples, config.alpha, config.series_p,
                                      config.series_epsilon, statistic="absmax")
    ns = [row["n"] for row in moment["rows"]]
    sups = [row["sup_norm_r"] for row in moment["rows"]]
    sup_growth = _rate_estimate(ns, sups, target=0.0, tolerance=0.05)

    # Telescoping constructions carry their pathwise bound on max_k |S_k|;
    # series summands must be exactly zero once eps n^alpha exceeds it.
    path_bound = chain.sup_path_bound
    zero_beyond = None
    ok_zero = True
    if path_bound is not None:
        for row in series["rows"]:
            if row["x"] > path_bound:
                if zero_beyond is None:
                    zero_beyond = row["n"]
                ok_zero = ok_zero and row["p_hat"] == 0.0
    passed = (all(r["below_bound"] for r in moment["rows"])
              and sup_growth.passed is True and ok_zero)
    return DegenerateReport(sigma2=moment["sigma2"], moment=moment, series=series,
                            sup_growth=sup_growth, zero_beyond=zero_beyond,
                            passed=passed)
