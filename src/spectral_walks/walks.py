"""Finite-state Markov chains and their simulated path ensembles.

The kernel may come from a weighted graph (p(x,y) = c(x,y)/c(x), whose
stationary measure is c(x)/sum c and which is reversible) or be supplied
directly.  Simulation is vectorized over paths and driven by the
counter-based generator in rng.py, so an ensemble is a pure function of
(kernel, mu0, n_steps, n_paths, seed): same inputs, same bytes, however
many worker threads run.

Checks compare Monte Carlo estimates against exact kernel arithmetic and
report deviations in units of the standard error.  The package has one
estimator and one gate: every sample mean and its standard error come from
`mean_se`, which refuses fewer than 2 samples, and every verdict from
`CheckRow.passed`, which holds at most SIGMA_THRESHOLD = 5 SE and fails a
NaN sigma.  The covariance and grouped checks here and the solenoid and
CLI checks elsewhere all go through these two.  covariance_mc serves both
walks through their ensembles' evaluate(f, step); as_vector refuses a
state function that is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .graphs import WeightedGraph, _float_edges, _hop_counts, _pattern_arcs
from .rng import derive_key, path_keys, run_blocks, step_uniforms

__all__ = [
    "FiniteMarkov",
    "PathEnsemble",
    "CheckRow",
    "CheckReport",
    "stationary_measure",
    "is_irreducible",
    "is_aperiodic",
    "ergodic_limit",
    "simulate",
    "cylinder_mass",
    "covariance_exact",
    "covariance_mc",
    "mean_se",
    "markov_check",
    "harmonic_solve",
    "martingale_check",
    "doob_boundary_check",
]

SIGMA_THRESHOLD = 5.0
# ergodic_limit stops once T^n f is within this of its stationary mean everywhere
_ERGODIC_TOL = 1e-10


class FiniteMarkov:
    """States, a row-stochastic kernel, and an initial measure.

    kernel[i, j] = p(states[i] -> states[j]); every row must sum to 1
    within 1e-12 with finite nonnegative entries.  mu0 is normalized on
    input and must be finite too.
    """

    __slots__ = ("states", "kernel", "mu0", "index")

    def __init__(self, states, kernel, mu0):
        states = tuple(states)
        if not states:
            raise ValueError("a chain needs at least one state")
        if len(set(states)) != len(states):
            raise ValueError("duplicate state labels")
        kernel = np.array(kernel, dtype=np.float64)
        n = len(states)
        if kernel.shape != (n, n):
            raise ValueError("kernel shape does not match the state count")
        if not np.all(np.isfinite(kernel)):
            raise ValueError("kernel has a non-finite entry")
        if np.any(kernel < 0):
            raise ValueError("kernel has a negative entry")
        rowdev = np.max(np.abs(kernel.sum(axis=1) - 1.0))
        if rowdev > 1e-12:
            raise ValueError(f"kernel rows are not stochastic (max deviation {rowdev:.3e})")
        mu0 = np.array(mu0, dtype=np.float64)
        if mu0.shape != (n,):
            raise ValueError("mu0 length does not match the state count")
        if not np.all(np.isfinite(mu0)):
            raise ValueError("mu0 has a non-finite entry")
        if np.any(mu0 < 0):
            raise ValueError("mu0 has a negative entry")
        total = float(mu0.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mu0 does not sum to 1 (got {total!r})")
        self.states = states
        self.kernel = kernel
        self.mu0 = mu0 / total
        self.index = {s: i for i, s in enumerate(states)}

    @classmethod
    def from_graph(cls, g: WeightedGraph, mu0=None) -> "FiniteMarkov":
        """The conductance-driven walk on g; default start is c(x)/sum c."""
        n = len(g.vertices)
        head, tail, c, total = _float_edges(g)
        # p(x, y) = float(c) / float(c(x)) for each edge in both directions
        kernel = np.zeros((n, n))
        kernel[head, tail] = c / total[head]
        kernel[tail, head] = c / total[tail]
        if mu0 is None:
            mu0 = total / total.sum()
        else:
            mu0 = cls._as_vector_static(g.vertices, mu0)
        return cls(g.vertices, kernel, mu0)

    @staticmethod
    def _as_vector_static(states, f) -> np.ndarray:
        if isinstance(f, dict):
            if set(f) != set(states):
                raise ValueError("function does not match the state set")
            return np.array([float(f[s]) for s in states])
        arr = np.array(f, dtype=np.float64)
        if arr.shape != (len(states),):
            raise ValueError("function length does not match the state count")
        return arr

    def as_vector(self, f) -> np.ndarray:
        """A state function (dict keyed by states, or array in state order) as an array; ValueError if not finite."""
        vec = FiniteMarkov._as_vector_static(self.states, f)
        if not np.isfinite(vec).all():
            raise ValueError("state function has a non-finite value")
        return vec

    def with_start(self, x) -> "FiniteMarkov":
        """Same kernel, started deterministically at x; ValueError when x is not a state."""
        if x not in self.index:
            raise ValueError(f"start state {x!r} is not a chain state")
        mu0 = np.zeros(len(self.states))
        mu0[self.index[x]] = 1.0
        return FiniteMarkov(self.states, self.kernel, mu0)

    def transfer(self, f) -> np.ndarray:
        """(Tf)(x) = sum_y p(x,y) f(y) as an array in state order."""
        return self.kernel @ self.as_vector(f)

    def __len__(self):
        return len(self.states)


def _levels(positive):
    """(level, rows, cols): breadth-first levels from state 0, -1 where unreached, and the pattern's arcs."""
    rows, cols, starts = _pattern_arcs(positive)
    return _hop_counts(cols, starts, 0), rows, cols


def is_irreducible(fm: FiniteMarkov) -> bool:
    """True when every state reaches every other along positive-probability arcs."""
    positive = fm.kernel > 0
    return all((_levels(arcs)[0] >= 0).all() for arcs in (positive, positive.T))


def is_aperiodic(fm: FiniteMarkov) -> bool:
    """True when the period of the component of state 0 is 1.

    Assigns breadth-first levels from state 0; the period is the gcd of
    level[i] + 1 - level[j] over all positive arcs i -> j inside the
    reached component.  Meaningful for irreducible kernels.
    """
    level, i, j = _levels(fm.kernel > 0)
    # every arc out of a reached state ends at a reached state
    inside = level[i] >= 0
    return int(np.gcd.reduce(np.abs(level[i[inside]] + 1 - level[j[inside]]))) == 1


def stationary_measure(fm: FiniteMarkov) -> np.ndarray:
    """The unique probability row vector with mu P = mu.

    Solved densely; the chain must be irreducible, otherwise the measure
    is not unique and this raises instead of guessing.  The residual
    ||mu P - mu||_inf is checked against 1e-12.
    """
    if not is_irreducible(fm):
        raise ValueError("kernel is reducible: stationary measure is not unique")
    n = len(fm.states)
    a = fm.kernel.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(a, b)
    mu = mu / mu.sum()
    residual = float(np.max(np.abs(mu @ fm.kernel - mu)))
    if residual > 1e-12:
        raise ArithmeticError(f"stationary solve residual {residual:.3e} exceeds 1e-12")
    return mu


def ergodic_limit(fm: FiniteMarkov, f, max_steps: int = 100000) -> float:
    """Iterate T^n f until it flattens to the stationary mean, and return that mean.

    Verifies the averaging limit T^n f -> mu(f) * 1 by direct power
    iteration, to within _ERGODIC_TOL everywhere; raises for chains where
    the limit does not exist (periodic or reducible kernels).
    """
    mu = stationary_measure(fm)
    vec = fm.as_vector(f)
    target = float(mu @ vec)
    g = vec.astype(np.float64)
    for _ in range(max_steps):
        if float(np.max(np.abs(g - target))) <= _ERGODIC_TOL:
            return target
        g = fm.kernel @ g
    raise ArithmeticError(f"T^n f did not flatten within {max_steps} steps")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated trajectories: row p, column k holds the state index of Z_k on path p."""

    states: tuple
    seed: int
    trajectories: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.trajectories.shape[0]

    @property
    def n_steps(self) -> int:
        return self.trajectories.shape[1] - 1

    as_vector = FiniteMarkov.as_vector

    def evaluate(self, f, step: int) -> np.ndarray:
        """The state function f at every path's state at one step; ValueError for a step outside 0..n_steps."""
        if not 0 <= step <= self.n_steps:
            raise ValueError(f"step {step} is outside 0..{self.n_steps}")
        return self.as_vector(f)[self.trajectories[:, step]]


def _sparse_rows(kernel: np.ndarray):
    """Inverse-CDF tables over the positive entries of each kernel row.

    Row i of cum holds the running sums of the positive entries of
    kernel[i] in column order, and the flat table targets holds their
    columns: targets[i * width + m] is the column of the m-th one.  The
    width is the largest out-degree rounded up to a power of two, so a
    binary search over a row takes exactly log2(width) halvings; cum is
    inf past each row's degree.  The sums equal the dense
    np.cumsum(kernel[i]) at those columns bit for bit: the dense sum only
    adds +0.0 in between, which leaves a sum >= 0 unchanged.  The last
    positive entry of each row is clamped to 1.0, so no draw u < 1 can
    fall past it onto a zero-probability column.  Counting the entries
    <= u picks the same state as the dense inverse CDF at every draw where
    that one takes a positive-probability step.
    """
    rows, cols, starts = _pattern_arcs(kernel > 0)
    degree = np.diff(starts)
    width = 1 << (int(degree.max()) - 1).bit_length()
    slot = np.arange(len(rows)) - starts[rows]
    probs = np.zeros((len(kernel), width))
    probs[rows, slot] = kernel[rows, cols]
    cum = np.cumsum(probs, axis=1)
    cum[np.arange(width) >= degree[:, None]] = np.inf
    cum[np.arange(len(kernel)), degree - 1] = 1.0
    targets = np.zeros(cum.size, dtype=np.intp)
    targets[rows * width + slot] = cols
    return cum, targets


def _simulate_block(cum, targets, mu0_cum, n_steps, seed, out, first, count):
    keys = path_keys(seed, first, count)
    u = step_uniforms(keys, 0)
    state = np.searchsorted(mu0_cum, u, side="right")
    out[first : first + count, 0] = state
    width = cum.shape[1]
    flat = cum.ravel()
    # round r asks whether the entry at pos + half - 1 is <= u: a view that starts half - 1 in saves the add
    rounds = [(flat[half - 1 :], half) for half in (width >> r for r in range(1, width.bit_length()))]
    for k in range(n_steps):
        u = step_uniforms(keys, k + 1)
        pos = state * width
        for shifted, half in rounds:
            pos += (shifted.take(pos) <= u) * half
        state = targets.take(pos)
        out[first : first + count, k + 1] = state


def simulate(fm: FiniteMarkov, n_steps: int, n_paths: int, seed: int) -> PathEnsemble:
    """Draw n_paths independent trajectories Z_0 .. Z_{n_steps}.

    Z_0 ~ mu0 and each step draws from the kernel row of the current
    state by the inverse CDF over that row's positive entries, so a step
    costs O(log2 max out-degree) rather than O(states).  A step finds how
    many of the path's row of cumulative sums are <= its draw by a
    branchless binary search, log2(width) rounds of one `take` and one
    compare each, and reads the next state from the flat target table at
    state * width + that count.  The entries <= u always form a prefix of
    the row: the sums before the clamp are nondecreasing, and the clamped
    1.0 and the inf padding lie above every draw u < 1, so the search
    counts exactly the entries <= u.  Path p consumes only the stream
    keyed by (seed, p), so the ensemble is bit-identical no matter how the
    work is chunked.
    """
    if n_steps < 0 or n_paths < 1:
        raise ValueError("need n_steps >= 0 and n_paths >= 1")
    cum, targets = _sparse_rows(fm.kernel)
    mu0_cum = np.cumsum(fm.mu0)
    # clamp at the last positive entry: no start lands on a zero-mass state
    mu0_cum[np.flatnonzero(fm.mu0)[-1] :] = 1.0
    out = np.empty((n_paths, n_steps + 1), dtype=np.int32)
    run_blocks(partial(_simulate_block, cum, targets, mu0_cum, n_steps, seed, out), n_paths)
    return PathEnsemble(states=fm.states, seed=seed, trajectories=out)


def cylinder_mass(fm: FiniteMarkov, sets) -> float:
    """Probability that Z_i lands in E_i for every i, by exact backward recursion.

    sets is the sequence E_0 .. E_n of state subsets; the value is
    sum over x_0 in E_0, .., x_n in E_n of mu0(x_0) p(x_0,x_1)..p(x_{n-1},x_n).
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least E_0")
    masks = np.zeros((len(sets), len(fm.states)))
    for k, e in enumerate(sets):
        for x in e:
            if x not in fm.index:
                raise ValueError(f"state {x!r} of E_{k} is not a chain state")
            masks[k, fm.index[x]] = 1.0
    w = masks[-1]
    for mask in reversed(masks[:-1]):
        w = mask * (fm.kernel @ w)
    return float(fm.mu0 @ w)


def covariance_exact(fm: FiniteMarkov, f1, f2, n: int) -> float:
    """E[f1(Z_n) f2(Z_{n+1})] by kernel arithmetic: mu0 . T^n(f1 . T f2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    g = fm.as_vector(f1) * (fm.kernel @ fm.as_vector(f2))
    for _ in range(n):
        g = fm.kernel @ g
    return float(fm.mu0 @ g)


def covariance_mc(ens, f1, f2, n: int):
    """Estimate of E[f1(Z_n) f2(Z_{n+1})] (real part) on a PathEnsemble or SolenoidEnsemble; returns (estimate, SE)."""
    if n < 0 or n + 1 > ens.n_steps:
        raise ValueError("need 0 <= n <= n_steps - 1")
    return mean_se((ens.evaluate(f1, n) * ens.evaluate(f2, n + 1)).real)


def mean_se(samples: np.ndarray):
    """The sample mean and its standard error, the n - 1 sample deviation over sqrt(n); returns (estimate, SE).

    For a float64 array both values equal samples.mean() and
    samples.std(ddof=1) / math.sqrt(n) bit for bit.  Raises ValueError for
    fewer than 2 samples, where the standard error is undefined and would
    otherwise print as NaN.
    """
    n = len(samples)
    if n < 2:
        raise ValueError("a standard error needs at least 2 samples")
    # the ufunc sequence of samples.mean() and samples.std(ddof=1), pairwise sums included, so the
    # bits are the same without numpy's per-call wrapper cost; like numpy, square the deviations in
    # place, so one temporary of n floats is alive at a time
    mean = np.add.reduce(samples) / n
    dev = samples - mean
    dev *= dev
    return float(mean), math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n)


@dataclass(frozen=True)
class CheckRow:
    """One estimate-vs-exact comparison in standard-error units."""

    label: str
    estimate: float
    exact: float
    se: float

    @property
    def sigmas(self) -> float:
        dev = self.estimate - self.exact
        if dev == 0.0:
            return 0.0
        if self.se == 0.0:
            return math.inf
        return abs(dev) / self.se

    @property
    def passed(self) -> bool:
        """The package's one gate: at most SIGMA_THRESHOLD sigmas; a NaN sigma fails."""
        return self.sigmas <= SIGMA_THRESHOLD


@dataclass(frozen=True)
class CheckReport:
    """A batch of CheckRows plus anything skipped for lack of data."""

    rows: tuple
    skipped: tuple = ()
    threshold: ClassVar[float] = SIGMA_THRESHOLD

    @property
    def max_sigmas(self) -> float:
        """The largest row sigma, whatever the row order: NaN if any row's is NaN."""
        sigmas = [r.sigmas for r in self.rows]
        if any(math.isnan(x) for x in sigmas):
            return math.nan
        return max(sigmas, default=0.0)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _grouped_check(states, here, values, exact, min_visits) -> CheckReport:
    """Test E[values | here = i] = exact[i] for every state i.

    here (state indices) and values (samples) share one shape, 1-D or 2-D, read in C order.

    One sort groups the samples by conditioning state, keeping each group
    in its original order; states with fewer than min_visits samples are
    reported in `skipped` rather than tested.  The sort keys pack each
    sample's label above its position, label << b | position with b the
    bits of the largest position, as uint32 when label and position fit
    in 32 bits together and as uint64 otherwise.  The keys are distinct,
    so any sort orders them as a stable sort of the labels would, and the
    position bits of the sorted keys are that permutation.  min_visits
    below 2 is refused: a single visit has no standard error.
    """
    if min_visits < 2:
        raise ValueError(f"min_visits must be at least 2 for a standard error, got {min_visits}")
    shift = (here.size - 1).bit_length()
    dtype = np.uint32 if shift + (len(states) - 1).bit_length() <= 32 else np.uint64
    # astype copies into C order, so this ravel is a view
    keys = here.astype(dtype).ravel()
    keys <<= shift
    keys |= np.arange(here.size, dtype=dtype)
    keys.sort()
    values = values.ravel()[keys & ((1 << shift) - 1)]
    bounds = [*np.searchsorted(keys, np.arange(len(states), dtype=dtype) << shift).tolist(), here.size]
    rows = []
    skipped = []
    for i, x in enumerate(states):
        samples = values[bounds[i] : bounds[i + 1]]
        if len(samples) < min_visits:
            skipped.append(x)
            continue
        est, se = mean_se(samples)
        rows.append(CheckRow(label=str(x), estimate=est, exact=float(exact[i]), se=se))
    return CheckReport(rows=tuple(rows), skipped=tuple(skipped))


def markov_check(ens: PathEnsemble, fm: FiniteMarkov, f, n: int, min_visits: int = 100) -> CheckReport:
    """Per-state test of E[f(Z_{n+1}) | Z_n = x] = (Tf)(x) at a fixed step n.

    States visited fewer than min_visits times at step n are reported in
    `skipped` rather than tested.
    """
    if n < 0 or n + 1 > ens.n_steps:
        raise ValueError("need 0 <= n <= n_steps - 1")
    vec = fm.as_vector(f)
    traj = ens.trajectories
    return _grouped_check(fm.states, traj[:, n], vec[traj[:, n + 1]], fm.kernel @ vec, min_visits)


def harmonic_solve(fm: FiniteMarkov, boundary: dict) -> dict:
    """Extend boundary values to a function with Th = h off the boundary.

    Solves the linear system (I - P_II) h_I = P_IB b densely and verifies
    the interior residual against 1e-12.  Raises when the interior block
    is singular (the boundary does not determine the extension), and
    for a boundary value that is not finite.
    """
    if not boundary:
        raise ValueError("boundary is empty")
    h = np.zeros(len(fm.states))
    for x, val in boundary.items():
        if x not in fm.index:
            raise ValueError(f"boundary state {x!r} is not a chain state")
        h[fm.index[x]] = float(val)
        if not math.isfinite(h[fm.index[x]]):
            raise ValueError(f"boundary value at {x!r} is not finite: {val!r}")
    interior = [i for i, s in enumerate(fm.states) if s not in boundary]
    if interior:
        a = np.eye(len(interior)) - fm.kernel[np.ix_(interior, interior)]
        # h is zero on the interior here, so this picks out P_IB @ boundary values
        b = fm.kernel[interior] @ h
        try:
            h_int = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise ValueError("interior system is singular") from exc
        h[interior] = h_int
        residual = float(np.max(np.abs((fm.kernel @ h - h)[interior])))
        if residual > 1e-12:
            raise ArithmeticError(f"harmonic residual {residual:.3e} exceeds 1e-12")
    return {s: float(h[i]) for i, s in enumerate(fm.states)}


def martingale_check(ens: PathEnsemble, h, min_visits: int = 100) -> CheckReport:
    """Test E[h(Z_{k+1}) | Z_k = x] = h(x), pooling transitions over all steps.

    Each visit to x yields an independent draw from the row p(x, .),
    whatever the step or path, so pooling is legitimate and sharpens the
    per-state standard errors.  For harmonic h every row should sit
    within threshold; a non-harmonic h is flagged by a large deviation.
    """
    if ens.n_steps < 1:
        raise ValueError("need n_steps >= 1: the ensemble has no transitions")
    vec = ens.as_vector(h)
    traj = ens.trajectories
    return _grouped_check(ens.states, traj[:, :-1], vec[traj[:, 1:]], vec, min_visits)


def doob_boundary_check(fm: FiniteMarkov, h, N: int, n_paths: int, seed: int) -> CheckReport:
    """Conservation of a bounded harmonic function: E_x[h(Z_N)] = h(x) per start.

    Each start state runs its own ensemble on a stream derived from
    (seed, state index), so the whole report is reproducible from seed.
    The ensemble from x is simulate(fm.with_start(x), N, n_paths, key)
    draw for draw: the sampler table is built once for all starts, and
    each start's point-mass CDF puts step 0 at x whatever its draw.
    """
    vec = fm.as_vector(h)
    if N < 0 or n_paths < 1:
        raise ValueError("need n_steps >= 0 and n_paths >= 1")
    cum, targets = _sparse_rows(fm.kernel)
    out = np.empty((n_paths, N + 1), dtype=np.int32)
    positions = np.arange(len(fm.states))
    rows = []
    for i, x in enumerate(fm.states):
        # the clamped CDF of the point mass at i: 0 before i, 1 from i on
        start_cum = (positions >= i).astype(np.float64)
        run_blocks(partial(_simulate_block, cum, targets, start_cum, N, derive_key(seed, i), out), n_paths)
        est, se = mean_se(vec[out[:, N]])
        rows.append(CheckRow(label=str(x), estimate=est, exact=float(vec[i]), se=se))
    return CheckReport(rows=tuple(rows))
