"""Output checks, computed apart from the program.

Every reference here is derived from the chain parameters or the map formula
with plain numpy/scipy: first-passage dynamic programming for exact tails,
the fundamental matrix for the variance rate, brute-force enumeration for
block laws, the map formula for orbits.  Nothing is compared with a stored
copy of the program's output.  Each check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.stats import binom, kstest

# Per-test levels.  A run makes at most ~150 tail queries and ~50 normality
# tests, so a correct program fails a run with probability below 1e-6.
BAND_LEVEL = 1e-9
NORMALITY_LEVEL = 1e-8
# The rate check allows the model tolerance of the experiment (log factors
# fold into it) plus this many Monte Carlo standard errors of the slope.
SLOPE_SE_ALLOWANCE = 4.0


class CheckFailed(AssertionError):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Finite chains as plain arrays
# ---------------------------------------------------------------------------

def stationary(transition) -> np.ndarray:
    p = np.asarray(transition, dtype=float)
    s = len(p)
    a = np.vstack([p.T - np.eye(s), np.ones(s)])
    rhs = np.zeros(s + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return pi


def sigma2_fundamental(transition, observable) -> float:
    """Variance rate 2 pi f Z f - pi f^2 with Z = (I - P + 1 pi)^-1, f centered."""
    p = np.asarray(transition, dtype=float)
    pi = stationary(p)
    f = np.asarray(observable, dtype=float)
    f = f - pi @ f
    z = np.linalg.inv(np.eye(len(p)) - p + np.outer(np.ones(len(p)), pi))
    return float(2.0 * (pi * f) @ (z @ f) - pi @ (f * f))


@lru_cache(maxsize=None)
def _first_passage(transition: tuple, obs_int: tuple, n: int, m: int) -> float:
    p = np.asarray(transition, dtype=float)
    k = np.asarray(obs_int, dtype=np.int64)
    low = n * min(int(k.min()), 0)          # smallest reachable partial sum
    width = m - low                         # sums low..m-1 are still alive
    dist = np.zeros((len(p), width))
    dist[:, -low] = stationary(p)           # S_0 = 0, xi_0 stationary
    absorbed = 0.0
    for _ in range(n):
        mass = p.T @ dist                   # mass[j] = law of (S, xi = j)
        nxt = np.zeros_like(dist)
        for j, step in enumerate(k):
            if step >= 0:
                absorbed += float(mass[j, width - step:].sum()) if step else 0.0
                nxt[j, step:] += mass[j, :width - step]
            else:
                nxt[j, :step] += mass[j, -step:]
        dist = nxt
    return absorbed


def first_passage_tail(transition, obs_int, n: int, m: int) -> float:
    """P(max_{1<=k<=n} S_k >= m) for a stationary lattice chain, m >= 1."""
    if m < 1:
        raise ValueError("threshold must be positive")
    t = tuple(tuple(float(v) for v in row) for row in transition)
    return _first_passage(t, tuple(int(v) for v in obs_int), int(n), int(m))


def brute_block_law(transition, obs_int, start: int, length: int) -> dict:
    """{(sum, end_state): probability} over every state sequence of `length` steps."""
    p = np.asarray(transition, dtype=float)
    law: dict = {}
    for seq in product(range(len(p)), repeat=length):
        prob = 1.0
        prev = start
        for state in seq:
            prob *= p[prev, state]
            prev = state
        if prob > 0.0:
            key = (int(sum(int(obs_int[s]) for s in seq)), seq[-1])
            law[key] = law.get(key, 0.0) + prob
    return law


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def binomial_band(p: float, trials: int, level: float = BAND_LEVEL) -> tuple[int, int]:
    """Hit counts outside [lo, hi] have probability below `level` under Bin(trials, p)."""
    lo = int(binom.ppf(level / 2.0, trials, p))
    hi = int(binom.isf(level / 2.0, trials, p))
    return lo, hi


def check_tail_band(rows, exact, replicates: int) -> None:
    """Each row's hit count lies in the binomial band of its exact tail."""
    for row, p in zip(rows, exact):
        hits = round(row["p_hat"] * replicates)
        lo, hi = binomial_band(p, replicates)
        require(lo <= hits <= hi,
                f"n={row['n']} x={row['x']}: {hits} hits outside [{lo}, {hi}] "
                f"for exact tail {p:.6g}")


def check_dominance(rows, exact) -> None:
    for row, p in zip(rows, exact):
        require(row["rhs"] >= p,
                f"n={row['n']} x={row['x']}: bound {row['rhs']} below exact tail {p}")


def check_close(value: float, expected: float, rel: float, what: str,
                abs_tol: float = 0.0) -> None:
    require(math.isfinite(value) and abs(value - expected) <= max(rel * abs(expected), abs_tol),
            f"{what}: {value!r} differs from {expected!r}")


def ols_slope(ns, values) -> float:
    """Least-squares slope of log2(values) on log2(n)."""
    x = np.log2(np.asarray(ns, dtype=float))
    y = np.log2(np.asarray(values, dtype=float))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def check_rate(ns, values, reported: float, target: float, tolerance: float,
               slope_se: float) -> None:
    """The reported exponent is the least-squares slope and lies near the target."""
    slope = ols_slope(ns, values)
    check_close(reported, slope, 1e-9, "reported exponent vs own least squares", 1e-12)
    require(0.0 < slope_se < 0.1, f"implausible slope standard error {slope_se!r}")
    band = tolerance + SLOPE_SE_ALLOWANCE * slope_se
    require(abs(slope - target) <= band,
            f"exponent {slope:.4f} outside {target} +- {band:.4f}")


def check_block_law(dist_sums, dist_probs, dist_end_probs, brute: dict) -> None:
    """Program block law (sums, marginal, joint with end state) equals enumeration."""
    marginal: dict = {}
    for (total, _), prob in brute.items():
        marginal[total] = marginal.get(total, 0.0) + prob
    sums = sorted(marginal)
    require(list(map(int, dist_sums)) == sums, "block-law support differs")
    require(np.allclose(dist_probs, [marginal[s] for s in sums], rtol=0, atol=1e-12),
            "block-law probabilities differ")
    joint = np.zeros_like(np.asarray(dist_end_probs, dtype=float))
    for (total, end), prob in brute.items():
        joint[sums.index(total), end] += prob
    require(np.allclose(dist_end_probs, joint, rtol=0, atol=1e-12),
            "block-law end-state split differs")


def check_coupled_path(x, z, sigma2: float, steps) -> None:
    """S increments lie on the observable's values; T increments are N(0, sigma2)."""
    require(np.all(np.isin(x, steps)), "S increments off the observable values")
    pvalue = float(kstest(np.asarray(z) / math.sqrt(sigma2), "norm").pvalue)
    require(pvalue >= NORMALITY_LEVEL,
            f"T increments fail the normality test (p = {pvalue:.3g})")


def lsv_map(gamma: float, x: np.ndarray) -> np.ndarray:
    """T(x) = x (1 + (2x)^gamma) on [0, 1/2), 2x - 1 on [1/2, 1]."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.5, x * (1.0 + (2.0 * x) ** gamma), 2.0 * x - 1.0)


def check_orbits(gamma: float, orbits: np.ndarray, rel: float = 1e-12) -> None:
    """Orbits stay in [0, 1] and each step is the map of the previous point."""
    orbits = np.asarray(orbits, dtype=float)
    require(np.all((orbits >= 0.0) & (orbits <= 1.0)), "orbit leaves [0, 1]")
    expected = lsv_map(gamma, orbits[:, :-1])
    err = np.abs(orbits[:, 1:] - expected)
    require(np.all(err <= rel * np.abs(expected)),
            f"orbit step differs from the map by up to {float(err.max()):.3g}")


def check_sup_growth(ns, values, sup_norm: float) -> None:
    """RMS of max_k |S_k| per n: positive, within the pathwise bound
    n * sup_norm, and larger at the largest n than at the smallest.

    Rung-to-rung growth is not required.  For the LSV map with gamma > 1/4,
    |S_n| has no fourth moment: one replicate caught in a long laminar phase
    near 0 can lift a small-n rung above the next one.
    """
    v = np.asarray(values, dtype=float)
    n = np.asarray(ns, dtype=float)
    require(np.all(v > 0.0), f"sup_l2 not positive: {v.tolist()}")
    require(np.all(v <= n * sup_norm), f"sup_l2 above the pathwise bound: {v.tolist()}")
    require(v[-1] > v[0], f"sup_l2 does not grow from n={ns[0]} to n={ns[-1]}")


def check_theta_table(values) -> None:
    v = np.asarray(values, dtype=float)
    require(np.all(v >= 0.0) and np.all(np.diff(v) <= 0.0),
            "theta table not nonnegative and nonincreasing")


def check_flip_theta(values, a: float, truncation_bound: float, p: int = 4,
                     tuple_horizon: int = 12) -> None:
    """theta_{p,q}(k) >= |1-2a|^k (the order-1 coefficient) and the truncation
    bound equals p |1-2a|^tuple_horizon."""
    rho = abs(1.0 - 2.0 * a)
    v = np.asarray(values, dtype=float)
    floor = rho ** np.arange(len(v))
    require(np.all(v >= floor * (1.0 - 1e-9)), "theta below |1-2a|^k")
    check_close(truncation_bound, p * rho ** tuple_horizon, 1e-9, "truncation bound")
