"""Exact dependence coefficients and derived series for finite chains.

For a stationary finite-state chain the conditional law given the whole past
collapses (Markov property) to the law given the time-0 state, so the
weak-dependence coefficients defined through conditional L1 norms are exact
finite computations: matrix powers for conditional expectations and a sup
over enumerated exponent vectors and index tuples.

The index-tuple sup is truncated at ``tuple_horizon``; the truncation error
is geometrically small for chains with a spectral gap and can be bounded via
:func:`theta_truncation_bound`.

All exact theta values come from one pattern table, ``_theta_lags``: the
vector of each gap pattern k_i - k_1 (with its exponents) is built once and
moved to every start k_1 by stacked powers of P, and theta(k) is a
sliding-window max over starts (see :func:`theta_exact`).  A table
theta(0..K) is thus one pass over the patterns, not K + 1 enumerations of
every tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import zeta

from .processes import FiniteChain, symmetrize

TUPLE_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Conditional-moment coefficients
# ---------------------------------------------------------------------------

def _positive_exponent_vectors(r: int, q: int) -> list[tuple[int, ...]]:
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

def _count_tuples(p: int, q: int, horizon: int) -> int:
    total = 0
    for r in range(1, p + 1):
        total += len(_positive_exponent_vectors(r, q)) * math.comb(horizon + 1, r)
    return total


def _transition_powers(chain: FiniteChain, up_to: int) -> list[np.ndarray]:
    powers = [np.eye(chain.n_states)]
    for _ in range(up_to):
        powers.append(powers[-1] @ chain.transition)
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
    powers = _transition_powers(chain, k_hi + tuple_horizon)
    stacked = np.stack(powers)
    f_pows = [None] + [f ** a for a in range(1, q + 1)]

    best = np.zeros(k_hi - k_lo + 1)
    for r in range(1, p + 1):
        exps = _positive_exponent_vectors(r, q)
        if not exps:
            continue
        for rest in combinations(range(1, tuple_horizon + 1), r - 1):
            offsets = (0, *rest)
            width = tuple_horizon - offsets[-1] + 1
            starts = stacked[k_lo:k_hi + width]
            for b in exps:
                h = f_pows[b[r - 1]]
                for i in range(r - 1, 0, -1):
                    gap = offsets[i] - offsets[i - 1]
                    h = f_pows[b[i - 1]] * (powers[gap] @ h)
                big_h = starts @ h
                mu = np.vecdot(big_h, pi)
                vals = np.vecdot(np.abs(big_h - mu[:, None]), pi)
                np.maximum(best, sliding_window_view(vals, width).max(axis=1),
                           out=best)
    return best


def theta_exact(chain: FiniteChain, p: int, q: int, k: int,
                tuple_horizon: int = 12) -> float:
    """Conditional-moment dependence coefficient at lag k, computed exactly.

    Sup over exponent vectors (a_1..a_p), a_1 >= 1, sum <= q, and index
    tuples k <= k_1 < ... < k_p <= k + tuple_horizon of the L1 distance
    between conditional and unconditional expectations of the monomial
    ``prod X_{k_i}^{a_i}``.  Zero exponents drop their index, so enumeration
    runs over strictly positive exponent vectors of every length r <= p.

    Pattern table: a tuple is its start k_1 plus a gap pattern
    0 = o_1 < ... < o_r = span <= T (T = tuple_horizon).  The pattern vector
    h_0 = f^{b_1} * P^{o_2 - o_1}(... * f^{b_r}) does not depend on k_1, so it
    is built once per (pattern, exponents) and moved to every start at once:
    for lags k_lo..k_hi, row j of ``H = P^{[k_lo .. k_hi + T - span]} @ h_0``
    is E[monomial | xi_0] for k_1 = k_lo + j.  Each row's L1 deviation is
    one value, and theta(k) is the max over the window of starts
    k <= k_1 <= k + T - span.  This function is the one-lag case; :func:`theta_table_from_chain` sweeps every
    lag in one pass.  The stacked products and row reductions run the same
    BLAS kernels (gemv, ddot) as one product per start, so the values equal
    those of enumerating every tuple at every lag, bit for bit.
    """
    return float(_theta_lags(chain, p, q, k, k, tuple_horizon)[0])


def theta_truncation_bound(chain: FiniteChain, p: int, tuple_horizon: int) -> float:
    """Upper bound p * theta_{1,1}(tuple_horizon) on the index-truncation error."""
    return p * theta_exact(chain, 1, 1, tuple_horizon, tuple_horizon=0)


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


# ---------------------------------------------------------------------------
# Covariance series
# ---------------------------------------------------------------------------

def dobrushin_coefficient(p: np.ndarray) -> float:
    """Contraction coefficient: half the largest L1 distance between rows."""
    diffs = np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2)
    return 0.5 * float(diffs.max())


def certified_contraction(chain: FiniteChain, max_power: int = 64,
                          threshold: float = 0.999) -> tuple[int, float]:
    """Smallest power r with Dobrushin coefficient of P^r below `threshold`.

    Raises for chains without a spectral gap (periodic or with several
    closed classes the builder could not reject).
    """
    power = np.eye(chain.n_states)
    for r in range(1, max_power + 1):
        power = power @ chain.transition
        delta = dobrushin_coefficient(power)
        if delta <= threshold:
            return r, delta
    raise ValueError("no spectral gap (periodic chain)")


def sigma2_certified(chain: FiniteChain, radius_target: float = 1e-10,
                     max_terms: int = 200_000) -> tuple[float, float]:
    """Covariance series E X0^2 + 2 sum_k E X0 X_k with a certified tail.

    Terms are summed until the remainder, bounded through the Dobrushin
    contraction of a fixed power of the kernel and the monotone span of
    P^k f, is below `radius_target`.  Returns (midpoint, radius).
    """
    r, delta = certified_contraction(chain)
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
        if tail + fuzz <= radius_target:
            return total, tail + fuzz
        if k >= max_terms:
            raise ValueError("covariance series tail did not certify; "
                             "spectral gap too weak")


def sigma2_exact(chain: FiniteChain, radius_target: float = 1e-10) -> float:
    """Midpoint of the certified covariance series (radius <= radius_target)."""
    mid, _ = sigma2_certified(chain, radius_target)
    return mid


def is_degenerate(chain: FiniteChain) -> bool:
    """Whether the certified sigma2 interval mid +- radius reaches 0.

    The one degeneracy decision: pipelines that need sigma2 > 0 refuse such a
    chain, and the degenerate pipeline refuses every other chain.
    """
    mid, radius = sigma2_certified(chain)
    return mid - radius <= 0.0


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


# ---------------------------------------------------------------------------
# Coefficient tables and series summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailModel:
    """Caller-declared decay of theta(k) beyond the tabulated horizon.

    * ``zero``       : theta(k) = 0 for k > K.
    * ``geometric``  : theta(k) = values[K] * rate**(k - K).
    * ``polynomial`` : theta(k) = coefficient * k**(1 - p_exponent).
    """

    kind: str
    rate: float = 0.0
    coefficient: float = 0.0
    p_exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "geometric", "polynomial"):
            raise ValueError(f"unknown tail model {self.kind!r}")
        if self.kind == "geometric" and not 0.0 <= self.rate < 1.0:
            raise ValueError("geometric tail rate must lie in [0, 1)")
        if self.kind == "polynomial" and self.coefficient < 0:
            raise ValueError("polynomial tail coefficient must be nonnegative")


@dataclass(frozen=True, eq=False)
class ThetaTable:
    """Finite nonincreasing coefficient table theta(0..K) plus a tail model."""

    values: np.ndarray
    tail: TailModel
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if np.any(v < 0):
            raise ValueError("theta values must be nonnegative")
        if np.any(np.diff(v) > 1e-12):
            raise ValueError("theta values must be nonincreasing")
        object.__setattr__(self, "values", v)
        if self.tail.kind == "polynomial" and v[-1] > 0:
            predicted = self.tail.coefficient * self.horizon ** (1.0 - self.tail.p_exponent)
            if not (0.5 * v[-1] <= predicted <= 2.0 * v[-1]):
                raise ValueError("declared polynomial tail does not match "
                                 "values[K] within factor 2")

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def theta_at(self, k: int) -> float:
        if k <= self.horizon:
            return float(self.values[k])
        if self.tail.kind == "zero":
            return 0.0
        if self.tail.kind == "geometric":
            return float(self.values[-1]) * self.tail.rate ** (k - self.horizon)
        return self.tail.coefficient * float(k) ** (1.0 - self.tail.p_exponent)


def theta_table_from_chain(chain: FiniteChain, p: int, q: int, horizon: int,
                           tail: TailModel, tuple_horizon: int = 12) -> ThetaTable:
    """Tabulate theta(0..horizon) exactly, in one pass of the pattern table
    over every lag; the tail model is caller-declared."""
    vals = _theta_lags(chain, p, q, 0, horizon, tuple_horizon)
    vals = np.minimum.accumulate(vals)  # crush 1e-16 enumeration noise
    return ThetaTable(values=vals, tail=tail, p=p, q=q)


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
    minimum taken exactly; ``theta2`` is +inf when the declared tail makes the
    series diverge (consumers must refuse such summaries).
    """

    theta1: float
    theta2: float
    weighted: Callable[[float], float]
    sigma2: float | None = None


def series_summary(table: ThetaTable, sigma2: float | None = None) -> SeriesSummary:
    """Theta_1 = 1 + sum theta(k), Theta_2 = 1 + sum k theta(k), and the
    weighted evaluator, with tail-model remainders summed in closed form."""
    v = table.values
    kk = np.arange(len(v), dtype=float)
    head1 = float(v[1:].sum())
    head2 = float((kk[1:] * v[1:]).sum())
    k_horizon = table.horizon
    tail = table.tail
    anchor = float(v[-1])

    if tail.kind == "zero" or (tail.kind == "geometric" and (anchor == 0.0 or tail.rate == 0.0)):
        tail1 = tail2 = 0.0

        def tail_weighted(x: float) -> float:
            return 0.0
    elif tail.kind == "geometric":
        # theta(K + j) = anchor * rho^j; all sums are taken in the shifted
        # index j so no rho^{-K} blowup can occur.
        rho = tail.rate
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
    else:
        c, pe = tail.coefficient, tail.p_exponent
        tail1 = c * float(zeta(pe - 1.0, k_horizon + 1)) if pe > 2.0 else math.inf
        tail2 = c * float(zeta(pe - 2.0, k_horizon + 1)) if pe > 3.0 else math.inf

        def tail_weighted(x: float) -> float:
            m = math.floor(x)
            if m <= k_horizon:
                return x * tail2
            if pe <= 3.0:
                return math.inf
            ks = np.arange(k_horizon + 1, m + 1, dtype=float)
            sq = c * float(np.sum(ks ** (3.0 - pe)))
            lin = x * c * float(zeta(pe - 2.0, m + 1))
            return sq + lin

    def weighted(x: float) -> float:
        if x < 0:
            raise ValueError("weighted(x) requires x >= 0")
        head = float((kk[1:] * np.minimum(kk[1:], x) * v[1:]).sum())
        return head + tail_weighted(x)

    return SeriesSummary(theta1=1.0 + head1 + tail1, theta2=1.0 + head2 + tail2,
                         weighted=weighted, sigma2=sigma2)


def certified_theta_table(chain: FiniteChain, p: int, q: int, horizon: int,
                          tuple_horizon: int = 12) -> ThetaTable:
    """Exact theta(0..horizon) with a geometric tail at the rate delta^(1/r)
    of the certified contraction (r, delta), capped just below 1."""
    r, delta = certified_contraction(chain)
    tail = TailModel("geometric", rate=min(0.999999, delta ** (1.0 / r)))
    return theta_table_from_chain(chain, p, q, horizon, tail, tuple_horizon=tuple_horizon)


def summarize_chain(chain: FiniteChain, p: int = 4, q: int = 4, horizon: int = 16,
                    tuple_horizon: int = 12) -> SeriesSummary:
    """Series summary of a chain: exact table, certified geometric tail, and
    the certified covariance series."""
    table = certified_theta_table(chain, p, q, horizon, tuple_horizon=tuple_horizon)
    return series_summary(table, sigma2=sigma2_exact(chain))


# ---------------------------------------------------------------------------
# Symmetrization comparison and degenerate moment bound
# ---------------------------------------------------------------------------

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


def degenerate_moment_bound(m_sup: float, q: float, table: ThetaTable,
                            numeric_horizon: int = 10**6) -> float:
    """Moment bound q (2M)^q sum_{k>=0} (k+1)^{q-1} theta(k) for degenerate sums.

    Tail terms beyond the table are summed numerically under the declared
    model with a certified upper remainder; divergent declared tails give
    +inf.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    v = table.values
    kk = np.arange(len(v), dtype=float)
    total = float(((kk + 1.0) ** (q - 1.0) * v).sum())
    tail = table.tail
    k_horizon = table.horizon
    anchor = float(v[-1])

    if tail.kind == "geometric" and anchor > 0.0 and tail.rate > 0.0:
        rho, term_k = tail.rate, k_horizon + 1
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
    elif tail.kind == "polynomial" and tail.coefficient > 0.0:
        c, pe = tail.coefficient, tail.p_exponent
        if q >= pe - 1.0:
            return math.inf
        ks = np.arange(k_horizon + 1, numeric_horizon, dtype=float)
        total += c * float(((ks + 1.0) ** (q - 1.0) * ks ** (1.0 - pe)).sum())
        # (t+1)^{q-1} <= (2t)^{q-1} for t >= 1 gives an integral upper remainder
        total += (c * 2.0 ** (q - 1.0)
                  * numeric_horizon ** (q - pe + 1.0) / (pe - 1.0 - q))
    return q * (2.0 * m_sup) ** q * total


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def theta_table_to_csv(table: ThetaTable, file) -> None:
    own = isinstance(file, (str, bytes))
    fh = open(file, "w") if own else file
    try:
        fh.write(f"# kind: theta p={table.p} q={table.q}\n")
        t = table.tail
        if t.kind == "geometric":
            fh.write(f"# tail: geometric rate={t.rate!r}\n")
        elif t.kind == "polynomial":
            fh.write(f"# tail: polynomial coefficient={t.coefficient!r} "
                     f"p_exponent={t.p_exponent!r}\n")
        else:
            fh.write("# tail: zero\n")
        fh.write("k,value\n")
        for k, val in enumerate(table.values):
            fh.write(f"{k},{float(val)!r}\n")
    finally:
        if own:
            fh.close()
