"""Stationary bounded dependent processes with exactly computable laws.

Two process families are provided:

* :class:`FiniteChain` — a stationary finite-state Markov chain carrying a
  centered observable whose values lie on a rational lattice
  ``{integer * step}``.  The lattice makes partial sums exactly representable
  as integers, which the dependence-coefficient and block-distribution code
  relies on.
* :class:`LsvProcess` — forward orbits of the intermittent interval map
  ``T(x) = x(1 + 2^g x^g)`` on ``[0, 1/2)`` and ``2x - 1`` on ``[1/2, 1]``,
  with a bounded observable.  Stationary sampling is approximated by a
  uniform start plus a burn-in.

Sampling is deterministic given ``(process, n, seed, replicate)``; see
:mod:`weakdep.rng` for the substream scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .rng import path_stream

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
CENTER_TOL = 1e-10
LATTICE_SNAP_TOL = 1e-9
# Exact recentering refines the lattice by the denominator of the stationary
# mean; beyond this the integer representation stops being practical.
MAX_LATTICE_REFINEMENT = 10**6
LSV_BLOCK_STEPS = 4096   # time steps per block of the streaming orbit statistics


def _as_exact_rows(transition: np.ndarray) -> list[list[Fraction]]:
    """Exact row-normalized copy of a float transition matrix.

    Floats are dyadic rationals, so ``Fraction(x)`` is lossless; rows are then
    renormalized exactly so that the stationary solve sees a genuinely
    stochastic matrix.
    """
    rows = []
    for row in transition:
        exact = [Fraction(float(x)) for x in row]
        total = sum(exact)
        if total <= 0:
            raise ValueError("transition row with nonpositive mass")
        rows.append([x / total for x in exact])
    return rows


def _exact_stationary(rows: list[list[Fraction]]) -> list[Fraction]:
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


def _snap_to_lattice(values: Sequence[float], step: float) -> np.ndarray:
    ints = []
    for v in values:
        k = round(float(v) / step)
        if abs(k * step - float(v)) > LATTICE_SNAP_TOL * max(1.0, abs(float(v))):
            raise ValueError(
                f"value {v!r} is off the lattice of step {step!r}")
        ints.append(k)
    return np.asarray(ints, dtype=np.int64)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class FiniteChain:
    """Stationary finite-state chain with a centered lattice observable.

    ``observable == obs_int * step`` exactly; the stationary mean of the
    observable is zero by construction (exact rational recentering).
    Instances are immutable and safe to share across threads.
    """

    states: tuple
    transition: np.ndarray       # row-stochastic (n, n)
    stationary: np.ndarray       # probability row vector (n,)
    observable: np.ndarray       # centered lattice values (n,)
    step: float
    obs_int: np.ndarray          # observable / step, exact integers
    sup_norm: float
    exact_transition: tuple = field(repr=False)   # tuple of tuples of Fraction
    exact_stationary: tuple = field(repr=False)   # tuple of Fraction
    process_id: str = "finite_chain"
    sup_path_bound: float | None = None   # pathwise bound on max|S_k|, when known

    def __post_init__(self):
        object.__setattr__(self, "transition", _readonly(np.asarray(self.transition, float)))
        object.__setattr__(self, "stationary", _readonly(np.asarray(self.stationary, float)))
        object.__setattr__(self, "observable", _readonly(np.asarray(self.observable, float)))
        object.__setattr__(self, "obs_int", _readonly(np.asarray(self.obs_int, np.int64)))

    @property
    def n_states(self) -> int:
        return len(self.states)


def build_finite_chain(transition, observable_raw, step: float, states=None) -> FiniteChain:
    """Validate a transition matrix and assemble the stationary lattice chain.

    The stationary vector is the exact normalized left fixed vector; the
    observable is recentered by its exact stationary mean, refining the
    lattice step by the mean's denominator so centered values stay exact
    integer multiples.

    Raises
    ------
    ValueError
        Non-stochastic rows, observable off the lattice, or a fixed space of
        dimension != 1 ("non-unique stationary law").
    """
    t = np.asarray(transition, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("transition must be a square matrix")
    if np.any(t < 0):
        raise ValueError("transition entries must be nonnegative")
    row_sums = t.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        raise ValueError("transition rows must sum to 1 within 1e-12")
    if step <= 0:
        raise ValueError("step must be positive")
    n = t.shape[0]
    if states is None:
        states = tuple(range(n))
    else:
        states = tuple(states)
        if len(states) != n:
            raise ValueError("states length must match transition size")

    exact_rows = _as_exact_rows(t)
    pi = _exact_stationary(exact_rows)

    obs_int = _snap_to_lattice(observable_raw, float(step))
    mean = sum(p * int(k) for p, k in zip(pi, obs_int))
    if mean == 0:
        new_int, new_step = obs_int, float(step)
    else:
        # Float kernels carry spurious huge denominators (0.9 is not 9/10 in
        # binary); recenter by the closest bounded-denominator rational and
        # insist the residual is far below the 1e-10 centering tolerance.
        snapped = mean.limit_denominator(MAX_LATTICE_REFINEMENT)
        if abs(float(mean - snapped)) > 1e-12:
            raise ValueError(
                "stationary mean denominator too large for exact lattice recentering")
        d = snapped.denominator
        new_int = obs_int * d - snapped.numerator
        new_step = float(step) / d

    observable = new_int.astype(float) * new_step
    sup_norm = float(np.max(np.abs(observable))) if len(observable) else 0.0
    return FiniteChain(
        states=states,
        transition=np.array([[float(x) for x in row] for row in exact_rows]),
        stationary=np.array([float(p) for p in pi]),
        observable=observable,
        step=new_step,
        obs_int=new_int,
        sup_norm=sup_norm,
        exact_transition=tuple(tuple(row) for row in exact_rows),
        exact_stationary=tuple(pi),
    )


def flip_chain(a: float, step: float = 1.0) -> FiniteChain:
    """Two-state chain flipping with probability `a`, observable (+1, -1)."""
    return build_finite_chain(
        [[1.0 - a, a], [a, 1.0 - a]], [1.0 * step, -1.0 * step], step,
        states=("+", "-"))


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
        process_id=chain.process_id + "_normalized",
        sup_path_bound=(None if chain.sup_path_bound is None
                        else chain.sup_path_bound / chain.sup_norm),
    )


# ---------------------------------------------------------------------------
# LSV intermittent map
# ---------------------------------------------------------------------------

def _lsv_scratch(shape) -> tuple:
    """Scratch arrays (left branch, right branch, branch mask) for _lsv_step."""
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)


def _lsv_step(gamma: float, x: np.ndarray, scratch: tuple) -> None:
    """Apply the intermittent map to the float array x in place.

    The single copy of the map arithmetic: x(1 + 2^g x^g) below 1/2, 2x - 1
    from 1/2 on, clipped to [0, 1].  `scratch` is _lsv_scratch(x.shape); no
    array is allocated, which is most of a step's cost on short orbit arrays.
    """
    left, right, mask = scratch
    np.power(x, gamma, out=left)
    left *= 2.0 ** gamma
    left += 1.0
    left *= x
    np.greater_equal(x, 0.5, out=mask)
    np.multiply(x, 2.0, out=right)
    right -= 1.0
    np.putmask(left, mask, right)
    left.clip(0.0, 1.0, out=x)


def lsv_map(gamma: float, x: np.ndarray) -> np.ndarray:
    """One application of the intermittent interval map, vectorized: a copy
    of x stepped by _lsv_step."""
    x = np.array(x, dtype=float)
    _lsv_step(gamma, x, _lsv_scratch(x.shape))
    return x


@dataclass(frozen=True)
class LsvObservable:
    """Named bounded observable on [0, 1] with an explicit centering constant."""

    kind: str                 # "identity" or "indicator"
    center: float
    threshold: float = 0.5    # only used by "indicator"

    def __post_init__(self):
        if self.kind not in ("identity", "indicator"):
            raise ValueError(f"unknown observable kind {self.kind!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x - self.center
        return (x >= self.threshold).astype(float) - self.center

    @property
    def sup_norm(self) -> float:
        return max(abs(self.center), abs(1.0 - self.center))


@dataclass(frozen=True)
class LsvProcess:
    """Forward-orbit process of the intermittent map with a bounded observable.

    Stationary sampling is approximate: the start point is uniform on [0, 1]
    and `burn_in` iterations are discarded before recording.
    """

    gamma: float
    observable: LsvObservable
    burn_in: int = 10_000
    process_id: str = "lsv"

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie strictly inside (0, 1)")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")

    @property
    def sup_norm(self) -> float:
        return self.observable.sup_norm


def lsv_reference_mean(gamma: float, total_iterations: int = 10**7, seed: int = 0,
                       orbits: int = 100) -> float:
    """Long-run average of x under the invariant law, by ensemble Birkhoff sums.

    Splits the iteration budget over `orbits` parallel orbits started uniformly
    (after a shared burn-in of one tenth of the per-orbit length).
    """
    per_orbit = max(1, total_iterations // orbits)
    process = LsvProcess(gamma=gamma, observable=LsvObservable("identity", 0.0),
                         burn_in=per_orbit // 10)
    x = path_stream(seed, per_orbit, 0).random(orbits)
    blocks = _lsv_value_blocks(process, x, [per_orbit] * orbits,
                               orbits * LSV_BLOCK_STEPS)
    return sum(float(block.sum()) for block in blocks) / (per_orbit * orbits)


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SamplePath:
    """Realized path X_1..X_n with exact partial sums.

    ``partial_sums[0] == 0`` and ``partial_sums[k] - partial_sums[k-1] ==
    values[k-1]``; for lattice chains both are integer multiples of ``step``
    (``values_int`` / ``sums_int`` carry the exact integers).
    """

    values: np.ndarray
    partial_sums: np.ndarray
    seed: int
    process_id: str
    replicate: int = 0
    step: float | None = None
    values_int: np.ndarray | None = None
    sums_int: np.ndarray | None = None
    states: np.ndarray | None = None   # chain states xi_0..xi_n (lattice chains)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def running_max(self) -> np.ndarray:
        """One-sided running maximum max_{j<=k} S_j, k = 0..n."""
        return np.maximum.accumulate(self.partial_sums)

    def max_abs_partial_sum(self) -> float:
        return float(np.max(np.abs(self.partial_sums)))


def path_uniforms(seed: int, n: int, replicates: Sequence[int]) -> np.ndarray:
    """Uniforms (r, n+1) from the path substreams of the given replicates."""
    u = np.empty((len(replicates), n + 1))
    for row, rep in zip(u, replicates):
        path_stream(seed, n, rep).random(out=row)
    return u


def chain_walk(chain: FiniteChain, u: np.ndarray):
    """Yield the states xi_0..xi_n of r paths, one (r,) array per step, driven
    by uniforms u (r, n+1); u[:, 0] draws xi_0.

    Exact step rule: from s, go to the number of thresholds cum_rows[s, c],
    c < S-1, strictly below u_j.  Cumulative rows are nondecreasing, so this
    is the count over all S columns clipped to S-1.
    """
    last = chain.n_states - 1
    thresholds = np.cumsum(chain.transition, axis=1)[:, :last].T.copy()  # (S-1, S)
    states = np.minimum(np.searchsorted(np.cumsum(chain.stationary), u[:, 0],
                                        side="right"), last)
    yield states
    for j in range(1, u.shape[1]):
        # One gather per step; in the (S-1, r) layout the count is a sum of
        # rows, which numpy does faster than a sum over a short last axis.
        states = (u[:, j] > thresholds.take(states, axis=1)).sum(axis=0)
        yield states


def _chain_states_from_uniforms(chain: FiniteChain, u: np.ndarray) -> np.ndarray:
    """Map uniforms (r, n+1) to state paths (r, n+1); u[:, 0] draws xi_0."""
    states = np.empty(u.shape, dtype=np.int64)
    for j, column in enumerate(chain_walk(chain, u)):
        states[:, j] = column
    return states


def sample_chain_paths(chain: FiniteChain, n: int, seed: int,
                       replicates: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """State paths (r, n+1) and integer observable values (r, n) for the given
    replicate indices, each driven by its own path substream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    states = _chain_states_from_uniforms(chain, path_uniforms(seed, n, replicates))
    return states, chain.obs_int[states[:, 1:]]


def sample_path(process, n: int, seed: int, replicate: int = 0) -> SamplePath:
    """One path of length n; bit-identical across calls with equal arguments."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(process, FiniteChain):
        states, vals_int = sample_chain_paths(process, n, seed, [replicate])
        vals_int = vals_int[0]
        sums_int = np.concatenate(([0], np.cumsum(vals_int)))
        return SamplePath(
            values=vals_int.astype(float) * process.step,
            partial_sums=sums_int.astype(float) * process.step,
            seed=seed, replicate=replicate, process_id=process.process_id,
            step=process.step, values_int=vals_int, sums_int=sums_int,
            states=states[0],
        )
    if isinstance(process, LsvProcess):
        values = sample_lsv_ensemble(process, n, seed, [replicate])[0]
        return SamplePath(
            values=values,
            partial_sums=np.concatenate(([0.0], np.cumsum(values))),
            seed=seed, replicate=replicate, process_id=process.process_id,
        )
    raise TypeError(f"unsupported process type {type(process).__name__}")


def _lsv_value_blocks(process: LsvProcess, x: np.ndarray, lengths: Sequence[int],
                      budget: int):
    """Observable values of the orbits started at x, after the process
    burn-in, stepped in lockstep; row i runs for lengths[i] steps.  The one
    LSV orbit loop.

    Lengths must be nonincreasing, so the orbits still running always form a
    prefix of the rows.  One burn-in serves every row; then each time block
    is an (active rows, width) array of X_{t+1}..X_{t+width}.  A block stops
    where the next row finishes, and its width is budget // active rows (at
    least 1), so a block holds at most max(budget, active rows) values.
    """
    x = np.array(x, dtype=float)
    lengths = np.asarray(lengths)
    if np.any(np.diff(lengths) > 0):
        raise ValueError("orbit lengths must be nonincreasing")
    scratch = _lsv_scratch(len(x))
    for _ in range(process.burn_in):
        _lsv_step(process.gamma, x, scratch)
    t = 0
    while rows := int(np.count_nonzero(lengths > t)):
        stop = min(int(lengths[rows - 1]), t + max(1, budget // rows))
        head, head_scratch = x[:rows], tuple(a[:rows] for a in scratch)
        orbit = np.empty((rows, stop - t))
        for k in range(stop - t):
            _lsv_step(process.gamma, head, head_scratch)
            orbit[:, k] = head
        yield process.observable(orbit)
        t = stop


def _lsv_ladder_blocks(process: LsvProcess, n_list: Sequence[int], seed: int,
                       replicates: Sequence[int]):
    """(order, blocks): one orbit per (n, replicate), rows grouped by n in
    `order`, the positions of n_list by decreasing n, and replicates in their
    given order within a group.  The orbit of replicate rep at length n starts
    at the first draw of path_stream(seed, n, rep).  The block budget is
    len(replicates) x LSV_BLOCK_STEPS values, so a single n gets blocks of
    LSV_BLOCK_STEPS steps."""
    order = sorted(range(len(n_list)), key=lambda i: -n_list[i])
    x = np.array([float(path_stream(seed, n_list[i], rep).random())
                  for i in order for rep in replicates])
    lengths = np.repeat([n_list[i] for i in order], len(replicates))
    return order, _lsv_value_blocks(process, x, lengths,
                                    len(replicates) * LSV_BLOCK_STEPS)


def sample_lsv_ensemble(process: LsvProcess, n: int, seed: int,
                        replicates: Sequence[int]) -> np.ndarray:
    """Observable values (r, n) for LSV orbits, lockstep across replicates."""
    _, blocks = _lsv_ladder_blocks(process, [n], seed, replicates)
    return np.concatenate([np.empty((len(replicates), 0)), *blocks], axis=1)


def lsv_running_stats(process: LsvProcess, n_list: Sequence[int], seed: int,
                      replicates: Sequence[int]
                      ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(S_n, max_k S_k, min_k S_k) of the replicate orbits, S_0 = 0 included,
    one triple per n of n_list.

    The whole ladder is one lockstep ensemble (_lsv_ladder_blocks): one
    burn-in, then only the orbits still running are stepped, in blocks of at
    most len(replicates) x LSV_BLOCK_STEPS values.  Each block's first column
    takes the running sum before the cumsum, so S_k is added in the order of a
    whole-orbit cumsum and each triple equals that of a separate run at its n.
    """
    r = len(replicates)
    order, blocks = _lsv_ladder_blocks(process, n_list, seed, replicates)
    s = np.zeros(r * len(order))
    smax = np.zeros(r * len(order))
    smin = np.zeros(r * len(order))
    for values in blocks:
        rows = len(values)
        values[:, 0] += s[:rows]
        sums = np.cumsum(values, axis=1)
        s[:rows] = sums[:, -1]
        np.maximum(smax[:rows], sums.max(axis=1), out=smax[:rows])
        np.minimum(smin[:rows], sums.min(axis=1), out=smin[:rows])
    stats = [None] * len(order)
    for group, i in enumerate(order):
        rows = slice(group * r, (group + 1) * r)
        stats[i] = (s[rows], smax[rows], smin[rows])
    return stats


# ---------------------------------------------------------------------------
# Derived processes: symmetrized pair and telescoping (degenerate) observable
# ---------------------------------------------------------------------------

def symmetrize(chain: FiniteChain) -> FiniteChain:
    """Chain of Z_i = X_i - X'_i with (X') an independent copy of (X).

    Built exactly as the product chain on state pairs with observable
    f(s) - f(s'); the product stationary law is recomputed by the exact
    solver (and equals the product of the marginals).
    """
    if not isinstance(chain, FiniteChain):
        raise TypeError("symmetrize is implemented for exact finite chains only")
    n = chain.n_states
    pairs = [(i, j) for i in range(n) for j in range(n)]
    t = np.zeros((n * n, n * n))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            t[a, b] = chain.transition[i, k] * chain.transition[j, l]
    obs = [chain.observable[i] - chain.observable[j] for (i, j) in pairs]
    labels = tuple((chain.states[i], chain.states[j]) for (i, j) in pairs)
    out = build_finite_chain(t, obs, chain.step, states=labels)
    return replace(out, process_id=chain.process_id + "_symmetrized")


def make_coboundary(chain: FiniteChain, g_values) -> FiniteChain:
    """Degenerate process whose partial sums telescope pathwise.

    Returns the pair-state chain eta_i = (xi_i, xi_{i+1}) with observable
    f(s, t) = g(s) - g(t), so that S_n = g(xi_1) - g(xi_{n+1}) is bounded by
    2 max|g| and the covariance series vanishes.  g must live on the chain's
    lattice.
    """
    g_int = _snap_to_lattice(g_values, chain.step)
    if len(g_int) != chain.n_states:
        raise ValueError("g_values must assign one value per state")
    pairs = [(i, j) for i in range(chain.n_states) for j in range(chain.n_states)
             if chain.exact_stationary[i] > 0 and chain.exact_transition[i][j] > 0]
    m = len(pairs)
    t = np.zeros((m, m))
    for a, (_, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if k == j:
                t[a, b] = chain.transition[j, l]
    obs = [(g_int[i] - g_int[j]) * chain.step for (i, j) in pairs]
    labels = tuple((chain.states[i], chain.states[j]) for (i, j) in pairs)
    out = build_finite_chain(t, obs, chain.step, states=labels)
    support = [i for i in range(chain.n_states) if chain.exact_stationary[i] > 0]
    g_spread = float((max(g_int[i] for i in support)
                      - min(g_int[i] for i in support)) * chain.step)
    return replace(out, process_id=chain.process_id + "_coboundary",
                   sup_path_bound=g_spread)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def process_to_config(process) -> dict:
    if isinstance(process, FiniteChain):
        doc = {
            "type": "finite_chain",
            "states": [str(s) for s in process.states],
            "transition": [[float(x) for x in row] for row in process.transition],
            "observable": [float(v) for v in process.observable],
            "step": process.step,
        }
        if process.sup_path_bound is not None:
            doc["sup_path_bound"] = process.sup_path_bound
        return doc
    if isinstance(process, LsvProcess):
        return {
            "type": "lsv",
            "gamma": process.gamma,
            "burn_in": process.burn_in,
            "observable": {
                "kind": process.observable.kind,
                "center": process.observable.center,
                "threshold": process.observable.threshold,
            },
        }
    raise TypeError(f"unsupported process type {type(process).__name__}")


def refuse_unknown_keys(doc: dict, allowed) -> None:
    """Refuse a config document with keys outside `allowed`, naming them all."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")


def process_from_config(doc: dict):
    """Build the process a config document describes; unknown keys are refused."""
    kind = doc.get("type")
    if kind == "finite_chain":
        refuse_unknown_keys(doc, ("type", "states", "transition", "observable", "step",
                                  "sup_path_bound"))
        chain = build_finite_chain(doc["transition"], doc["observable"],
                                   float(doc["step"]), states=doc.get("states"))
        if "sup_path_bound" in doc:
            chain = replace(chain, sup_path_bound=float(doc["sup_path_bound"]))
        return chain
    if kind == "lsv":
        refuse_unknown_keys(doc, ("type", "gamma", "burn_in", "observable"))
        obs = doc["observable"]
        refuse_unknown_keys(obs, ("kind", "center", "threshold"))
        return LsvProcess(
            gamma=float(doc["gamma"]),
            observable=LsvObservable(kind=obs["kind"], center=float(obs["center"]),
                                     threshold=float(obs.get("threshold", 0.5))),
            burn_in=int(doc.get("burn_in", 10_000)),
        )
    raise ValueError(f"unknown process type {kind!r}")

