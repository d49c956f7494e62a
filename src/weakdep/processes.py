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

import json
from dataclasses import MISSING, dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .rng import Domain, path_stream, substreams

ROW_SUM_TOL = 1e-12
LATTICE_SNAP_TOL = 1e-9
# Exact recentering refines the lattice by the denominator of the stationary
# mean; beyond this the integer representation stops being practical.
MAX_LATTICE_REFINEMENT = 10**6
LSV_BLOCK_STEPS = 4096   # time steps per block of the streaming orbit statistics


def _as_exact_rows(transition: np.ndarray) -> list[list[Fraction]]:
    """Exact row-normalized copy of a validated float transition matrix.

    Floats are dyadic rationals, so ``Fraction(x)`` is lossless; rows are then
    renormalized exactly so that the stationary solve sees a genuinely
    stochastic matrix.
    """
    rows = []
    for row in transition:
        exact = [Fraction(float(x)) for x in row]
        total = sum(exact)
        rows.append([x / total for x in exact])
    return rows


def _exact_stationary(rows: list[list[Fraction]]) -> list[Fraction]:
    """Unique probability vector pi with pi P = pi, by one exact square solve.

    The rows of P^T - I add up to zero, so its last row may be replaced by
    ones (sum pi = 1).  That matrix is singular exactly when the fixed space
    has dimension != 1 ("non-unique stationary law"); otherwise the solution
    spans it, and the fixed space of a stochastic matrix holds a distribution.
    """
    n = len(rows)
    # augmented [B | e_n], B = P^T - I with its last row replaced by ones
    a = [[rows[j][i] - (i == j) for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    a.append([Fraction(1)] * (n + 1))
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            raise ValueError("non-unique stationary law")
        a[c], a[pr] = a[pr], a[c]
        inv = a[c][c]
        a[c] = [x / inv for x in a[c]]
        for i in range(n):
            if i != c and (f := a[i][c]) != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n] for row in a]


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

    ``observable == obs_int * step`` exactly.  The builder recenters by the
    rational with denominator at most ``MAX_LATTICE_REFINEMENT`` (10^6)
    nearest the exact stationary mean, so the exact stationary mean of the
    observable is zero when that mean's denominator is at most 10^6, and
    within 1e-12 input lattice steps otherwise.  For example the float
    entries of [[0.9, 0.1], [0.3, 0.7]] leave a mean of -6.9e-18 in lattice
    units.  Instances are immutable and safe to share across threads.
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
        An empty, non-square (ragged included) or non-stochastic matrix, an
        observable off the lattice or not of one value per state, or a fixed
        space of dimension != 1.
    """
    # Row by row, before numpy sees it: a ragged list of rows is refused here too.
    size = len(transition) if hasattr(transition, "__len__") else 0
    if size == 0 or any(np.shape(row) != (size,) for row in transition):
        raise ValueError("transition must be a nonempty square matrix")
    t = np.asarray(transition, dtype=float)
    if np.any(t < 0):
        raise ValueError("transition entries must be nonnegative")
    row_sums = t.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        raise ValueError("transition rows must sum to 1 within 1e-12")
    if step <= 0:
        raise ValueError("step must be positive")
    n = t.shape[0]
    if len(observable_raw) != n:
        raise ValueError("observable must assign one value per state")
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
    # Float kernels carry spurious huge denominators (0.9 is not 9/10 in
    # binary); recenter by the closest bounded-denominator rational (0/1 for a
    # zero mean) and insist the residual is far below the centering tolerance.
    snapped = mean.limit_denominator(MAX_LATTICE_REFINEMENT)
    if abs(float(mean - snapped)) > 1e-12:
        raise ValueError(
            "stationary mean denominator too large for exact lattice recentering")
    d = snapped.denominator
    new_int = obs_int * d - snapped.numerator
    new_step = float(step) / d

    observable = new_int.astype(float) * new_step
    sup_norm = float(np.max(np.abs(observable)))
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


def flip_chain(a: float) -> FiniteChain:
    """Two-state chain flipping with probability `a`, observable (+1, -1)."""
    return build_finite_chain([[1.0 - a, a], [a, 1.0 - a]], [1.0, -1.0], 1.0,
                              states=("+", "-"))


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


@dataclass(frozen=True)
class LsvProcess:
    """Forward-orbit process of the intermittent map with a bounded observable.

    Stationary sampling is approximate: the start point is uniform on [0, 1]
    and `burn_in` iterations are discarded before recording.
    """

    gamma: float
    observable: LsvObservable
    burn_in: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie strictly inside (0, 1)")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")


def lsv_reference_mean(gamma: float, total_iterations: int = 10**7,
                       seed: int = 0) -> float:
    """Long-run average of x under the invariant law, by ensemble Birkhoff sums.

    Splits the iteration budget over 100 parallel orbits started uniformly
    (after a shared burn-in of one tenth of the per-orbit length).
    """
    orbits = 100
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
    """Realized path X_1..X_n with exact partial sums, drawn with `seed`.

    ``partial_sums[0] == 0`` and ``partial_sums[k] - partial_sums[k-1] ==
    values[k-1]``; for lattice chains both are integer multiples of the
    chain's lattice step (``values_int`` / ``sums_int`` carry the exact
    integers; None for other processes).
    """

    values: np.ndarray
    partial_sums: np.ndarray
    seed: int
    values_int: np.ndarray | None = None
    sums_int: np.ndarray | None = None


def path_uniforms(seed: int, n: int, replicates: Sequence[int]) -> np.ndarray:
    """Uniforms (r, n+1) from the path substreams of the given replicates."""
    u = np.empty((len(replicates), n + 1))
    for row, gen in zip(u, substreams(seed, Domain.PATH, ((n, rep) for rep in replicates))):
        gen.random(out=row)
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
        vals_int = sample_chain_paths(process, n, seed, [replicate])[1][0]
        sums_int = np.concatenate(([0], np.cumsum(vals_int)))
        return SamplePath(
            values=vals_int.astype(float) * process.step,
            partial_sums=sums_int.astype(float) * process.step,
            seed=seed, values_int=vals_int, sums_int=sums_int,
        )
    if isinstance(process, LsvProcess):
        values = sample_lsv_ensemble(process, n, seed, [replicate])[0]
        return SamplePath(
            values=values,
            partial_sums=np.concatenate(([0.0], np.cumsum(values))),
            seed=seed,
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
    addresses = ((n_list[i], rep) for i in order for rep in replicates)
    x = np.array([gen.random() for gen in substreams(seed, Domain.PATH, addresses)])
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

    Built exactly as the product chain on state pairs, (i, j) at index
    i * S + j, with transition P kron P and observable f(i) - f(j); the
    product stationary law is recomputed by the exact solver (and equals
    the product of the marginals).
    """
    if not isinstance(chain, FiniteChain):
        raise TypeError("symmetrize is implemented for exact finite chains only")
    f = chain.observable
    labels = tuple((a, b) for a in chain.states for b in chain.states)
    return build_finite_chain(np.kron(chain.transition, chain.transition),
                              (f[:, None] - f[None, :]).ravel(), chain.step, states=labels)


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
    return replace(out, sup_path_bound=g_spread)


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


# The JSON types a config value takes, by the type of its default: a default
# of None (a process document) takes an object, and a list default a list
# whose entries each take the type of its first entry.  A required setting
# (default MISSING: n_list) takes a list of integers.
_JSON_TYPES = {int: ((int,), "an integer", "integers"),
               float: ((int, float), "a number", "numbers"),
               str: ((str,), "a string", "strings"),
               type(None): ((dict,), "an object", "objects")}


def _has_type(value, default) -> bool:
    if type(default) is list:
        return type(value) is list and all(_has_type(v, default[0]) for v in value)
    return type(value) in _JSON_TYPES[type(default)][0]


def _type_name(default, plural: bool = False) -> str:
    if type(default) is list:
        return f"{'lists' if plural else 'a list'} of {_type_name(default[0], True)}"
    return _JSON_TYPES[type(default)][1 + plural]


def check_type(key: str, value, default) -> None:
    """Refuse a config value whose JSON type is not its default's (a bool is
    not an integer)."""
    default = [0] if default is MISSING else default
    if not _has_type(value, default):
        raise ValueError(f'config key "{key}" must be {_type_name(default)}, '
                         f'not {json.dumps(value)}')


def _check_document(doc: dict, required, defaults: dict) -> None:
    """Refuse a process document without a required key, or with a value whose
    JSON type is not that of its entry in `defaults` (:func:`check_type`)."""
    for key in required:
        if key not in doc:
            raise ValueError(f'process config needs a "{key}" key')
    for key, default in defaults.items():
        if key in doc:
            check_type(key, doc[key], default)


def process_from_config(doc: dict):
    """Build the process a config document describes.  Unknown keys, missing
    required keys and values of the wrong JSON type are refused; an absent
    optional key takes its dataclass default (the class attribute)."""
    kind = doc.get("type")
    if kind == "finite_chain":
        refuse_unknown_keys(doc, ("type", "states", "transition", "observable", "step",
                                  "sup_path_bound"))
        _check_document(doc, ("transition", "observable", "step"),
                        {"states": [""], "transition": [[0.0]], "observable": [0.0],
                         "step": 0.0, "sup_path_bound": 0.0})
        chain = build_finite_chain(doc["transition"], doc["observable"],
                                   float(doc["step"]), states=doc.get("states"))
        if "sup_path_bound" in doc:
            chain = replace(chain, sup_path_bound=float(doc["sup_path_bound"]))
        return chain
    if kind == "lsv":
        refuse_unknown_keys(doc, ("type", "gamma", "burn_in", "observable"))
        _check_document(doc, ("gamma", "observable"),
                        {"gamma": 0.0, "burn_in": LsvProcess.burn_in, "observable": None})
        obs = doc["observable"]
        refuse_unknown_keys(obs, ("kind", "center", "threshold"))
        _check_document(obs, ("kind", "center"),
                        {"center": 0.0, "threshold": LsvObservable.threshold})
        return LsvProcess(
            gamma=float(doc["gamma"]),
            observable=LsvObservable(kind=obs["kind"], center=float(obs["center"]),
                                     threshold=float(obs.get("threshold",
                                                             LsvObservable.threshold))),
            burn_in=doc.get("burn_in", LsvProcess.burn_in),
        )
    raise ValueError(f"unknown process type {kind!r}")
