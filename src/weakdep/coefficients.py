"""Exact dependence coefficients and derived series for finite chains.

For a stationary finite-state chain the conditional law given the whole past
collapses (Markov property) to the law given the time-0 state, so the
weak-dependence coefficients defined through conditional L1 norms are exact
finite computations: matrix powers for conditional expectations and a sup
over enumerated exponent vectors and index tuples.

The index-tuple sup is truncated at ``tuple_horizon`` (``TUPLE_HORIZON`` by
default); the truncation error is geometrically small for chains with a
spectral gap and can be bounded via :func:`theta_truncation_bound`.  It is
refused above ``TUPLE_BUDGET`` (exponent vector, index tuple) pairs, counted
in closed form (:func:`_count_tuples`), so a refusal builds no tuple.

All exact theta values come from one pattern table, ``_theta_lags``: the
vector of each gap pattern k_i - k_1 (with its exponents) is built once and
moved to every lag by stacked powers of P, and theta(k) needs only the start
k_1 = k of each pattern, as P contracts in L1(pi) (see :func:`theta_exact`).
A table theta(0..K) is thus one pass over the patterns, not K + 1
enumerations of every tuple.

Each chain has one certificate (:func:`certify`, cached per chain): the
contraction (r, delta) and the covariance series sigma2 with a certified
radius; that interval is the one degeneracy decision (:func:`is_degenerate`).
Cross-checks no pipeline reads are test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from .processes import FiniteChain

TUPLE_BUDGET = 10**7
# Index tuples span at most this many steps beyond their first index.
TUPLE_HORIZON = 12


class BudgetExceededError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Conditional-moment coefficients
# ---------------------------------------------------------------------------

def _positive_exponent_vectors(r: int, q: int) -> list[tuple[int, ...]]:
    """All (b_1..b_r) with b_i >= 1 and sum <= q, in lexicographic order: the
    gaps of the partial sums 0 < c_1 < ... < c_r <= q (stars and bars)."""
    return [tuple(b - a for a, b in zip((0, *c), c))
            for c in combinations(range(1, q + 1), r)]


def _count_tuples(p: int, q: int, horizon: int) -> int:
    """(exponent vector, index tuple) pairs of theta_{p,q}: sum over lengths r
    of C(q, r) vectors (stars and bars) times C(horizon + 1, r) index sets."""
    return sum(math.comb(q, r) * math.comb(horizon + 1, r) for r in range(1, p + 1))


def _transition_powers(chain: FiniteChain, up_to: int) -> np.ndarray:
    """P^0..P^up_to as one (up_to + 1, S, S) array."""
    powers = np.empty((up_to + 1, chain.n_states, chain.n_states))
    powers[0] = np.eye(chain.n_states)
    for k in range(up_to):
        powers[k + 1] = powers[k] @ chain.transition
    return powers


def _theta_lags(chain: FiniteChain, p: int, q: int, k_lo: int, k_hi: int,
                tuple_horizon: int) -> np.ndarray:
    """theta(k) for k_lo <= k <= k_hi by the pattern table (see theta_exact),
    each (gap pattern, exponents) vector computed once for the whole range."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive integers")
    if k_lo < 0 or tuple_horizon < 0:
        raise ValueError("k and tuple_horizon must be nonnegative")
    if k_hi < k_lo:
        raise ValueError("horizon must be nonnegative")
    if _count_tuples(p, q, tuple_horizon) > TUPLE_BUDGET:
        raise BudgetExceededError(
            "tuple budget exceeded; reduce tuple_horizon or p, q")

    f = chain.observable
    pi = chain.stationary
    powers = _transition_powers(chain, max(k_hi, tuple_horizon))
    starts = powers[k_lo:k_hi + 1]
    f_pows = [None] + [f ** a for a in range(1, q + 1)]

    best = np.zeros(k_hi - k_lo + 1)
    for r in range(1, min(p, q) + 1):
        exps = _positive_exponent_vectors(r, q)
        for rest in combinations(range(1, tuple_horizon + 1), r - 1):
            offsets = (0, *rest)
            for b in exps:
                h = f_pows[b[r - 1]]
                for i in range(r - 1, 0, -1):
                    gap = offsets[i] - offsets[i - 1]
                    h = f_pows[b[i - 1]] * (powers[gap] @ h)
                big_h = starts @ h
                mu = np.vecdot(big_h, pi)
                np.maximum(best, np.vecdot(np.abs(big_h - mu[:, None]), pi), out=best)
    return best


def theta_exact(chain: FiniteChain, p: int, q: int, k: int,
                tuple_horizon: int = TUPLE_HORIZON) -> float:
    """Conditional-moment dependence coefficient at lag k, computed exactly.

    Sup over exponent vectors (a_1..a_p), a_1 >= 1, sum <= q, and index
    tuples k <= k_1 < ... < k_p <= k + tuple_horizon of the L1 distance
    between conditional and unconditional expectations of the monomial
    ``prod X_{k_i}^{a_i}``.  Zero exponents drop their index, so enumeration
    runs over strictly positive exponent vectors of every length r <= p.

    Pattern table: a tuple is its start k_1 plus a gap pattern
    0 = o_1 < ... < o_r = span <= T (T = tuple_horizon).  The pattern vector
    h_0 = f^{b_1} * P^{o_2 - o_1}(... * f^{b_r}) does not depend on k_1, so it
    is built once per (pattern, exponents), and ``P^{[k_lo .. k_hi]} @ h_0``
    gives E[monomial | xi_0] at the starts k_1 = k_lo..k_hi.  Only k_1 = k
    counts: pi P = pi makes P a contraction in L1(pi) (pi|P g| <= pi P|g| =
    pi|g|), so a pattern's deviation never grows with its start, and the
    pattern started at k lies in the window since span <= T.  This is the
    one-lag case of :func:`theta_table_from_chain`.  Its BLAS kernels (gemv,
    ddot) are those of one product per tuple, so each value equals, bit for
    bit, that of enumerating the tuples that start at k.
    """
    return float(_theta_lags(chain, p, q, k, k, tuple_horizon)[0])


def theta_truncation_bound(chain: FiniteChain, p: int, tuple_horizon: int) -> float:
    """Upper bound p * theta_{1,1}(tuple_horizon) on the index-truncation error."""
    return p * theta_exact(chain, 1, 1, tuple_horizon, tuple_horizon=0)


# ---------------------------------------------------------------------------
# Covariance series
# ---------------------------------------------------------------------------

def dobrushin_coefficient(p: np.ndarray) -> float:
    """Contraction coefficient: half the largest L1 distance between rows."""
    diffs = np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2)
    return 0.5 * float(diffs.max())


def certified_contraction(chain: FiniteChain, max_power: int = 64) -> tuple[int, float]:
    """Smallest power r <= max_power with Dobrushin coefficient delta of P^r
    at most 0.999; returns (r, delta).

    Raises for chains without a spectral gap (periodic or with several
    closed classes the builder could not reject).
    """
    power = np.eye(chain.n_states)
    for r in range(1, max_power + 1):
        power = power @ chain.transition
        delta = dobrushin_coefficient(power)
        if delta <= 0.999:
            return r, delta
    raise ValueError("no spectral gap (periodic chain)")


def sigma2_certified(chain: FiniteChain, r: int, delta: float) -> tuple[float, float]:
    """Covariance series E X0^2 + 2 sum_k E X0 X_k with a certified tail.

    Terms are summed until the remainder, bounded through the Dobrushin
    coefficient delta of P^r (the certified contraction) and the monotone span
    of P^k f, is below 1e-10; a series that has not certified after 200 000
    terms is refused.  Returns (midpoint, radius).
    """
    pi, p, f = chain.stationary, chain.transition, chain.observable
    sup = chain.sup_norm
    total = float(pi @ (f * f))
    g = f.copy()
    k = 0
    while True:
        g = p @ g
        k += 1
        total += 2.0 * float(pi @ (f * g))
        span = float(g.max() - g.min())
        # |E X0 X_j| <= (sup/2) span(P^j f); span is nonincreasing in j and
        # contracts by delta every r steps.
        tail = (sup / 2.0) * r * span / (1.0 - delta)
        fuzz = 1e-14 * k * (1.0 + abs(total))
        if tail + fuzz <= 1e-10:
            return total, tail + fuzz
        if k >= 200_000:
            raise ValueError("covariance series tail did not certify; "
                             "spectral gap too weak")


@dataclass(frozen=True)
class ChainCertificate:
    """Certified contraction (r, delta) of a chain and sigma2 +- radius."""

    r: int
    delta: float
    sigma2: float
    radius: float


@lru_cache(maxsize=32)
def certify(chain: FiniteChain) -> ChainCertificate:
    """The only caller of certified_contraction and of the covariance series."""
    r, delta = certified_contraction(chain)
    return ChainCertificate(r, delta, *sigma2_certified(chain, r, delta))


def sigma2_exact(chain: FiniteChain) -> float:
    """Midpoint of the certified covariance series (radius <= 1e-10)."""
    return certify(chain).sigma2


def is_degenerate(chain: FiniteChain) -> bool:
    """Whether the certified sigma2 interval mid +- radius reaches 0.

    The one degeneracy decision: pipelines that need sigma2 > 0 refuse such a
    chain, and the degenerate pipeline refuses every other chain.
    """
    cert = certify(chain)
    return cert.sigma2 - cert.radius <= 0.0


# ---------------------------------------------------------------------------
# Coefficient tables and series summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ThetaTable:
    """Finite nonincreasing coefficient table theta(0..K) plus a geometric
    tail theta(K + j) = values[K] * rate**j; rate 0 means no tail."""

    values: np.ndarray
    rate: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if np.any(v < 0):
            raise ValueError("theta values must be nonnegative")
        if np.any(np.diff(v) > 1e-12):
            raise ValueError("theta values must be nonincreasing")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("geometric tail rate must lie in [0, 1)")
        object.__setattr__(self, "values", v)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1


def theta_table_from_chain(chain: FiniteChain, p: int, q: int, horizon: int,
                           rate: float,
                           tuple_horizon: int = TUPLE_HORIZON) -> ThetaTable:
    """Tabulate theta(0..horizon) exactly, in one pass of the pattern table
    over every lag; the geometric tail rate is caller-declared."""
    vals = _theta_lags(chain, p, q, 0, horizon, tuple_horizon)
    vals = np.minimum.accumulate(vals)  # crush 1e-16 enumeration noise
    return ThetaTable(values=vals, rate=rate)


# Geometric tail helpers, all shifted to a starting index a:
#   sum_{k>=a} rho^k, sum k rho^k, sum k^2 rho^k.

def _geo0(rho: float, a: int) -> float:
    return rho ** a / (1.0 - rho)


def _geo1(rho: float, a: int) -> float:
    return rho ** a * (a / (1.0 - rho) + rho / (1.0 - rho) ** 2)


def _geo2(rho: float, a: int) -> float:
    return rho ** a * (a * a / (1.0 - rho)
                       + 2.0 * a * rho / (1.0 - rho) ** 2
                       + rho * (1.0 + rho) / (1.0 - rho) ** 3)


@dataclass(frozen=True)
class SeriesSummary:
    """Aggregate dependence sums feeding the tail bound.

    ``weighted(x)`` evaluates ``sum_{k>=1} k (k ^ x) theta(k)`` with the
    minimum taken exactly; ``sigma2`` is the covariance series, which the
    Gaussian term of the bound reads.
    """

    theta1: float
    theta2: float
    weighted: Callable[[float], float]
    sigma2: float


def series_summary(table: ThetaTable, sigma2: float) -> SeriesSummary:
    """Theta_1 = 1 + sum theta(k), Theta_2 = 1 + sum k theta(k), and the
    weighted evaluator, with the geometric tail summed in closed form."""
    v = table.values
    kk = np.arange(len(v), dtype=float)
    head1 = float(v[1:].sum())
    head2 = float((kk[1:] * v[1:]).sum())
    k_horizon = table.horizon
    rho = table.rate
    anchor = float(v[-1])
    # theta(K + j) = anchor * rho^j; all sums are taken in the shifted index j
    # so no rho^{-K} blowup can occur.  Without a tail (anchor 0 or rho 0)
    # every sum is an exact 0: 0 * finite = 0 and 0.0**a = 0 for a >= 1.
    kf = float(k_horizon)

    def shift1(a: int) -> float:        # sum_{j>=a} (K + j) rho^j
        return kf * _geo0(rho, a) + _geo1(rho, a)

    def shift2(a: int) -> float:        # sum_{j>=a} (K + j)^2 rho^j
        return kf * kf * _geo0(rho, a) + 2.0 * kf * _geo1(rho, a) + _geo2(rho, a)

    tail1 = anchor * _geo0(rho, 1)
    tail2 = anchor * shift1(1)

    def tail_weighted(x: float) -> float:
        m = math.floor(x)
        if m <= k_horizon:
            return x * tail2
        j_m = m - k_horizon
        sq = anchor * (shift2(1) - shift2(j_m + 1))
        lin = x * anchor * shift1(j_m + 1)
        return sq + lin

    def weighted(x: float) -> float:
        if x < 0:
            raise ValueError("weighted(x) requires x >= 0")
        head = float((kk[1:] * np.minimum(kk[1:], x) * v[1:]).sum())
        return head + tail_weighted(x)

    return SeriesSummary(theta1=1.0 + head1 + tail1, theta2=1.0 + head2 + tail2,
                         weighted=weighted, sigma2=sigma2)


def certified_theta_table(chain: FiniteChain, p: int, q: int,
                          horizon: int) -> ThetaTable:
    """Exact theta(0..horizon) with a geometric tail at the rate delta^(1/r),
    capped just below 1, of the chain's certificate (which certifies sigma2 too)."""
    cert = certify(chain)
    return theta_table_from_chain(chain, p, q, horizon,
                                  min(0.999999, cert.delta ** (1.0 / cert.r)))


def summarize_chain(chain: FiniteChain, horizon: int = 16) -> SeriesSummary:
    """Series summary of a chain: exact theta_{4,4} table, certified geometric
    tail, and the certified covariance series."""
    table = certified_theta_table(chain, 4, 4, horizon)
    return series_summary(table, sigma2=sigma2_exact(chain))


# ---------------------------------------------------------------------------
# Degenerate moment bound
# ---------------------------------------------------------------------------

def degenerate_moment_bound(m_sup: float, q: float, table: ThetaTable) -> float:
    """Moment bound q (2M)^q sum_{k>=0} (k+1)^{q-1} theta(k) for degenerate sums.

    Terms of the geometric tail beyond the table are summed one by one until
    the remainder, bounded by a geometric series in the term ratio, is below
    1e-16 of the total.  Returns +inf when that has not happened by lag 10^6,
    as for rate 0.999999 at q = 2.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    numeric_horizon = 10**6
    v = table.values
    kk = np.arange(len(v), dtype=float)
    total = float(((kk + 1.0) ** (q - 1.0) * v).sum())
    k_horizon = table.horizon
    anchor = float(v[-1])

    if anchor > 0.0 and table.rate > 0.0:
        rho, term_k = table.rate, k_horizon + 1
        term = (term_k + 1.0) ** (q - 1.0) * anchor * rho
        while term_k < numeric_horizon:
            total += term
            ratio = rho * ((term_k + 2.0) / (term_k + 1.0)) ** (q - 1.0)
            if ratio < 1.0 and term * ratio / (1.0 - ratio) < 1e-16 * max(total, 1.0):
                total += term * ratio / (1.0 - ratio)
                break
            term_k += 1
            term = (term_k + 1.0) ** (q - 1.0) * anchor * rho ** (term_k - k_horizon)
        else:
            return math.inf
    return q * (2.0 * m_sup) ** q * total
