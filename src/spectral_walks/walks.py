"""Finite-state Markov chains and their simulated path ensembles.

The kernel may come from a weighted graph (p(x,y) = c(x,y)/c(x), whose
stationary measure is c(x)/sum c and which is reversible) or be supplied
directly.  Simulation is vectorized over paths and driven by the
counter-based generator in rng.py, so an ensemble is a pure function of
(kernel, mu0, n_steps, n_paths, seed): same inputs, same bytes, however
many worker threads run.

A chain's one storage is its arc table, the positive entries row by
row, built by every constructor: from a graph's edges, or by one
kernel > 0 pass over a dense array given to FiniteMarkov.  Every T g is a
fixed-order row sum over the arcs and every mu0 . g a fixed-order numpy
sum, with no BLAS call, and the reachability searches, the residual
checks and the sampler's running sums, built with the arc table, read
the same arcs; every walk over a chain runs through simulate.  The
stationary measure and harmonic extensions share one solve: an
independent set of states is eliminated by its Grassmann-Taksar-Heyman
pivots, and only the Schur complement on the other states goes to a
dense LU.  That LU (LAPACK) is the one exact-side step whose last bits
may still depend on the BLAS build or thread count.

Checks compare Monte Carlo estimates against exact kernel arithmetic and
report deviations in units of the standard error.  The package has one
estimator per shape of sample and one gate: the mean and standard error
of a column of samples come from `mean_se`, which refuses fewer than 2
samples, the conditional means grouped by state from `_grouped_check`,
which reads transition counts, and every verdict from `CheckRow.passed`,
which holds at most SIGMA_THRESHOLD = 5 SE and fails a NaN sigma.  The
covariance, Doob and grouped checks here and the solenoid and CLI checks
elsewhere all go through these.  covariance_mc serves both walks through
their ensembles' evaluate(f, step); as_vector refuses a state function
that is not finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import ClassVar

import numpy as np

from .graphs import WeightedGraph, _float_edges, _hop_counts, _pattern_arcs
from .rng import _mix_in_place, derive_key, path_keys, run_blocks, step_uniforms

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


def _checked_states(states):
    """(states, index): the labels as a tuple and each label's position; ValueError for none or a repeat."""
    states = tuple(states)
    if not states:
        raise ValueError("a chain needs at least one state")
    if len(set(states)) != len(states):
        raise ValueError("duplicate state labels")
    return states, {s: i for i, s in enumerate(states)}


def _arc_table(n: int, rows, cols, p):
    """The validated arc table (rows, cols, starts, p, cum) of the arcs rows[a] -> cols[a] with probability p[a].

    The arcs come in (row, column) order, each pair once.  p must be
    finite and nonnegative, and every row sum, 0 for a row with no arc,
    within 1e-12 of 1.  Arcs with p = 0 are then dropped, as the scan
    kernel > 0 drops them, so a chain's table does not depend on how its
    kernel was given.  state x's arcs are starts[x]:starts[x + 1].

    cum holds the sampler's running sums, one per arc: each row's
    entries added in column order, as np.cumsum adds a row, so each sum
    equals the dense np.cumsum(kernel[x]) at its column bit for bit (the
    dense sum only adds +0.0 in between, which leaves a sum >= 0
    unchanged).  The rows of one out-degree are summed as one block.
    Each row's last sum is clamped to 1.0, so no draw u < 1 falls past
    it onto a zero-probability column.
    """
    if not np.all(np.isfinite(p)):
        raise ValueError("kernel has a non-finite entry")
    if np.any(p < 0):
        raise ValueError("kernel has a negative entry")
    rowdev = np.max(np.abs(np.bincount(rows, p, n) - 1.0))
    if rowdev > 1e-12:
        raise ValueError(f"kernel rows are not stochastic (max deviation {rowdev:.3e})")
    positive = p > 0
    if not positive.all():
        rows, cols, p = rows[positive], cols[positive], p[positive]
    starts = np.searchsorted(rows, np.arange(n + 1))
    # every row has an arc (its entries sum to 1), so its last arc is starts[x + 1] - 1
    degree = np.diff(starts)
    cum = np.empty(len(p))
    for d in np.flatnonzero(np.bincount(degree)).tolist():
        arcs = starts[:-1][degree == d, None] + np.arange(d)
        cum[arcs] = np.cumsum(p[arcs], axis=1)
    cum[starts[1:] - 1] = 1.0
    return rows, cols, starts, p, cum


def _state_array(states, f) -> np.ndarray:
    """A state function, a dict keyed by states or an array in state order, as a float array in state order."""
    if isinstance(f, dict):
        if set(f) != set(states):
            raise ValueError("function does not match the state set")
        return np.array([float(f[s]) for s in states])
    arr = np.array(f, dtype=np.float64)
    if arr.shape != (len(states),):
        raise ValueError("function length does not match the state count")
    return arr


class FiniteMarkov:
    """States, a row-stochastic kernel, and an initial measure.

    kernel[i, j] = p(states[i] -> states[j]); every row must sum to 1
    within 1e-12 with finite nonnegative entries.  mu0 is normalized on
    input and must be finite too.  The chain's one storage is its arc
    table, the positive entries row by row, held from construction on:
    __init__ reads it off the dense array by one kernel > 0 pass,
    from_graph builds it from the graph's edges, and with_start shares
    it.  The exact arithmetic and the sampler read nothing else; the
    table holds the sampler's running sums, so with_start chains share
    those too.  kernel is a read-only dense view: the array given to
    __init__, or the arcs placed in an array of zeros on first read.
    Edit a chain by building a new one from a copy.
    """

    __slots__ = ("states", "mu0", "index", "_kernel", "_arc_table")

    def __init__(self, states, kernel, mu0):
        states, index = _checked_states(states)
        n = len(states)
        kernel = np.array(kernel, dtype=np.float64)
        if kernel.shape != (n, n):
            raise ValueError("kernel shape does not match the state count")
        # over the whole array: the scan kernel > 0 would pass over a NaN or a negative entry
        if not np.all(np.isfinite(kernel)):
            raise ValueError("kernel has a non-finite entry")
        if np.any(kernel < 0):
            raise ValueError("kernel has a negative entry")
        # kernel stays as the cache behind the kernel property, so a write into it would leave the table stale
        kernel.flags.writeable = False
        rows, cols, _ = _pattern_arcs(kernel > 0)
        self._init(states, index, _arc_table(n, rows, cols, kernel[rows, cols]), mu0, kernel)

    def _init(self, states, index, arcs, mu0, kernel=None) -> None:
        """Every constructor's one initializer: checked states and index, an arc table, and mu0, checked here.

        kernel is the dense cache, None until kernel is read.
        """
        mu0 = np.array(mu0, dtype=np.float64)
        if mu0.shape != (len(states),):
            raise ValueError("mu0 length does not match the state count")
        if not np.all(np.isfinite(mu0)):
            raise ValueError("mu0 has a non-finite entry")
        if np.any(mu0 < 0):
            raise ValueError("mu0 has a negative entry")
        total = float(mu0.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mu0 does not sum to 1 (got {total!r})")
        self.states, self.index, self.mu0 = states, index, mu0 / total
        self._arc_table, self._kernel = arcs, kernel

    @classmethod
    def from_graph(cls, g: WeightedGraph, mu0=None) -> "FiniteMarkov":
        """The conductance-driven walk on g; default start is c(x)/sum c.

        The arcs are the graph's edges in both directions, sorted by
        (row, column), with p(x, y) = float(c) / float(c(x)): the entries
        of the dense kernel, no S x S array built.
        """
        n = len(g.vertices)
        head, tail, c, total = _float_edges(g)
        rows = np.concatenate((head, tail))
        cols = np.concatenate((tail, head))
        order = np.argsort(rows * n + cols)
        rows, cols = rows[order], cols[order]
        p = np.concatenate((c, c))[order] / total[rows]
        mu0 = total / total.sum() if mu0 is None else _state_array(g.vertices, mu0)
        fm = cls.__new__(cls)
        fm._init(*_checked_states(g.vertices), _arc_table(n, rows, cols, p), mu0)
        return fm

    @property
    def kernel(self) -> np.ndarray:
        """The dense S x S kernel, read-only.

        The array given to __init__, or for any other chain the arcs
        placed in an array of zeros on first read, and then kept.
        """
        if self._kernel is None:
            rows, cols, _, p, _ = self._arc_table
            kernel = np.zeros((len(self.states), len(self.states)))
            kernel[rows, cols] = p
            kernel.flags.writeable = False
            self._kernel = kernel
        return self._kernel

    def as_vector(self, f) -> np.ndarray:
        """A state function (dict keyed by states, or array in state order) as an array; ValueError if not finite."""
        vec = _state_array(self.states, f)
        if not np.isfinite(vec).all():
            raise ValueError("state function has a non-finite value")
        return vec

    def with_start(self, x) -> "FiniteMarkov":
        """Same kernel, started deterministically at x; ValueError when x is not a state.

        The new chain shares this one's states, index and arc table, the
        sampler's running sums included.
        """
        if x not in self.index:
            raise ValueError(f"start state {x!r} is not a chain state")
        mu0 = np.zeros(len(self.states))
        mu0[self.index[x]] = 1.0
        fm = FiniteMarkov.__new__(FiniteMarkov)
        fm._init(self.states, self.index, self._arc_table, mu0)
        return fm

    def _arcs(self):
        """(rows, cols, starts, p, cum): the positive kernel entries, row by row in column order.

        Arc a runs rows[a] -> cols[a] with probability p[a] = kernel[rows[a], cols[a]] > 0, and
        state x's arcs are starts[x]:starts[x + 1]; cum[a] is the running sum of x's entries up
        to arc a, clamped to 1.0 at x's last arc.  Every constructor builds the table, and the
        walks layer reads the kernel through it only.
        """
        return self._arc_table

    def _apply(self, g: np.ndarray) -> np.ndarray:
        """(Pg)(x) = sum_y p(x,y) g(y) for a float array g: one row sum over each state's arcs.

        The sum over a row's arcs runs in a fixed order with no BLAS call, so the bits do not
        depend on the BLAS build or thread count.  Every row has an arc: its entries sum to 1.
        """
        _, cols, starts, p, _ = self._arcs()
        return np.add.reduceat(p * g.take(cols), starts[:-1])

    def transfer(self, f) -> np.ndarray:
        """(Tf)(x) = sum_y p(x,y) f(y) as an array in state order."""
        return self._apply(self.as_vector(f))

    def __len__(self):
        return len(self.states)


def is_irreducible(fm: FiniteMarkov) -> bool:
    """True when every state reaches every other along positive-probability arcs.

    State 0 must reach every state along the arcs and along the reversed
    arcs.  A symmetric pattern, as every graph walk's is, is its own
    reversal, so the second search runs only for a pattern that is not
    symmetric.  One sort of the reversed keys col * S + row decides that
    (they equal the forward keys row * S + col, which the table lists in
    order, exactly when the pattern is symmetric) and gives the reversed
    table: the arcs sorted by target, each target's sources ascending.
    """
    rows, cols, starts, _, _ = fm._arcs()
    if not (_hop_counts(cols, starts, 0) >= 0).all():
        return False
    n = len(fm)
    back = cols * n + rows
    order = np.argsort(back)
    if np.array_equal(back[order], rows * n + cols):
        return True
    back_starts = np.searchsorted(cols[order], np.arange(n + 1))
    return bool((_hop_counts(rows[order], back_starts, 0) >= 0).all())


def _period(fm: FiniteMarkov):
    """(period, level): the period of the component of state 0 and the breadth-first levels from state 0.

    The period is the gcd of level[i] + 1 - level[j] over all positive
    arcs i -> j inside the reached component, and level mod period names
    the cyclic class of each reached state.  Meaningful for irreducible
    kernels.
    """
    i, j, starts, _, _ = fm._arcs()
    level = _hop_counts(j, starts, 0)
    # every arc out of a reached state ends at a reached state
    inside = level[i] >= 0
    return int(np.gcd.reduce(np.abs(level[i[inside]] + 1 - level[j[inside]]))), level


def is_aperiodic(fm: FiniteMarkov) -> bool:
    """True when the period of the component of state 0 is 1; meaningful for irreducible kernels."""
    return _period(fm)[0] == 1


def _system(fm: FiniteMarkov, interior=None, h=None):
    """The sparse linear system A x = b of the stationary measure or of a harmonic extension.

    Returns (r, c, v, pivot, b) over the unknowns: A is the entries
    A[r, c] = v plus each unknown's GTH pivot on its diagonal, and b is the
    right side.  With interior None the unknowns are the
    states and A is I - P^T with its last row replaced by ones, b the last
    unit vector, so x = mu.  Otherwise the unknowns are the states where
    the bool mask interior holds, in state order, A is I - P on them, and
    b = P_IB h carries the boundary values h off the interior: the
    interior rows of I - P with identity rows on the boundary, once the
    identity rows are eliminated.
    The pivot of an unknown is the Grassmann-Taksar-Heyman out-mass
    sum_{j != k} p(k, j), which is 1 - p(k, k) as a sum of positive terms
    in place of the cancelling difference.  It is 0 where the unknown may
    not be eliminated: a state with no arc out, and the normalization
    row's state, whose diagonal 1 is listed with the entries instead.
    """
    rows, cols, starts, p, _ = fm._arcs()
    n = len(fm)
    loop = rows == cols
    out_mass = np.add.reduceat(np.where(loop, 0.0, p), starts[:-1])
    if interior is None:
        # column x of row y is -p(x, y); the last row is the normalization sum mu(x) = 1
        keep = ~loop & (cols != n - 1)
        r = np.concatenate((cols[keep], np.full(n, n - 1)))
        c = np.concatenate((rows[keep], np.arange(n)))
        v = np.concatenate((-p[keep], np.ones(n)))
        b = np.zeros(n)
        b[-1] = 1.0
        return r, c, v, np.append(out_mass[:-1], 0.0), b
    at = np.cumsum(interior) - 1
    inside = interior[rows]
    keep = inside & interior[cols] & ~loop
    edge = inside & ~interior[cols]
    b = np.bincount(at[rows[edge]], p[edge] * h.take(cols[edge]), int(at[-1]) + 1)
    return at[rows[keep]], at[cols[keep]], -p[keep], out_mass[interior], b


def _independent_set(r, c, eligible) -> np.ndarray:
    """A maximal independent set, as a bool mask, of the eligible unknowns in the symmetrized pattern of (r, c).

    Rounds of local minima: an undecided eligible unknown joins when its
    key is below every undecided neighbour's, and then its neighbours
    leave.  Keys order by degree, then by the SplitMix64 mix of the index:
    low degrees first keep the Schur complement sparse, and the mix breaks
    the ties of a path or cycle numbered in sequence, where the index alone
    would admit one state per round.  A path of n states loses about
    0.43 n of them.
    """
    m = len(eligible)
    # both directions of every entry: the degree counts entries in and out
    u, w = np.concatenate((r, c)), np.concatenate((c, r))
    key = np.empty(m, dtype=np.intp)
    key[np.lexsort((_mix_in_place(np.arange(m, dtype=np.uint64)), np.bincount(u, minlength=m)))] = np.arange(m)
    chosen = np.zeros(m, dtype=bool)
    undecided = eligible.copy()
    while undecided.any():
        low = np.full(m, m)
        np.minimum.at(low, u, np.where(undecided, key, m).take(w))
        join = undecided & (key < low)
        chosen |= join
        undecided &= ~join
        undecided[w[join[u]]] = False
    return chosen


def _solve(fm: FiniteMarkov, interior=None, h=None) -> np.ndarray:
    """x with A x = b for _system(fm, interior, h): eliminate an independent set, then a dense LU.

    E, an independent set of unknowns with positive pivots, is censored
    out (a Schur complement, as in Kron reduction and GTH elimination):
    for e in E, x_e = (b_e - sum_c A[e, c] x_c) / pivot_e, and each other
    row r gains -A[r, e] / pivot_e times row e.  E is independent, so row
    e reads no other unknown of E and the complement on the rest is exact
    fill: one entry per pair of an entry into e and an entry out of e.
    The complement goes into a dense matrix for np.linalg.solve, and E is
    back-substituted.  An unknown that stays keeps its pivot on the
    diagonal, 0 for an absorbing state, so a singular system still reaches
    LAPACK and raises LinAlgError.
    """
    r, c, v, pivot, b = _system(fm, interior, h)
    m = len(b)
    out = _independent_set(r, c, pivot > 0)
    keep = ~out
    at = np.cumsum(keep) - 1
    k = int(at[-1]) + 1
    into = keep[r] & out[c]  # A[r, e]: a kept row reads an eliminated unknown
    from_e = out[r]  # A[e, c]: row e reads kept unknowns only
    stays = keep[r] & keep[c]
    e = c[into]
    scale = v[into] / pivot.take(e)
    # the entries of the rows of E, grouped by row; pair each entry into e with every entry of row e
    order = np.argsort(r[from_e], kind="stable")
    row_e, col_e, val_e = r[from_e][order], c[from_e][order], v[from_e][order]
    count = np.bincount(row_e, minlength=m)
    reps = count.take(e)
    pair = np.repeat(np.arange(len(e)), reps)
    first = np.cumsum(reps) - reps
    slot = np.repeat((np.cumsum(count) - count).take(e) - first, reps) + np.arange(int(reps.sum()))
    # row-major flat positions in the k x k complement: its own entries first, then the fill in order
    flat = np.concatenate((at[r[stays]] * k + at[c[stays]], np.arange(k) * (k + 1),
                           at[r[into]].take(pair) * k + at.take(col_e.take(slot))))
    weights = np.concatenate((v[stays], pivot[keep], -scale.take(pair) * val_e.take(slot)))
    a = np.bincount(flat, weights, k * k).reshape(k, k)
    x = np.zeros(m)
    x[keep] = np.linalg.solve(a, b[keep] - np.bincount(at[r[into]], scale * b.take(e), k))
    x[out] = (b[out] - np.bincount(row_e, val_e * x.take(col_e), m)[out]) / pivot[out]
    return x


def stationary_measure(fm: FiniteMarkov) -> np.ndarray:
    """The unique probability row vector with mu P = mu.

    Solved by _solve on the sparse system I - P^T with a normalization
    row: an independent set of states is eliminated by its GTH pivots and
    the rest goes to a dense LU.  The chain must be irreducible, otherwise
    the measure is not unique and this raises instead of guessing.  The
    residual ||mu P - mu||_inf, summed over the arcs, is checked against
    1e-12.
    """
    if not is_irreducible(fm):
        raise ValueError("kernel is reducible: stationary measure is not unique")
    mu = _solve(fm)
    mu = mu / mu.sum()
    rows, cols, _, p, _ = fm._arcs()
    residual = float(np.max(np.abs(np.bincount(cols, mu.take(rows) * p, len(mu)) - mu)))
    if residual > 1e-12:
        raise ArithmeticError(f"stationary solve residual {residual:.3e} exceeds 1e-12")
    return mu


def ergodic_limit(fm: FiniteMarkov, f, max_steps: int = 100000) -> float:
    """Iterate T^n f until it flattens to the stationary mean, and return that mean.

    Verifies the averaging limit T^n f -> mu(f) * 1 by direct power
    iteration, to within _ERGODIC_TOL everywhere; raises for chains where
    the limit does not exist (reducible kernels, and periodic ones unless
    f has the same mu-mean on every cyclic class).  On a chain of period
    d, T^n f on one class tends to f's mu-mean on the class n steps
    ahead, so a class mean further than _ERGODIC_TOL from mu(f) raises
    at once instead of after max_steps products.
    """
    mu = stationary_measure(fm)
    vec = fm.as_vector(f)
    target = float(np.add.reduce(mu * vec))
    period, level = _period(fm)
    if period > 1:
        cls = level % period
        means = np.bincount(cls, mu * vec, period) / np.bincount(cls, mu, period)
        if float(np.max(np.abs(means - target))) > _ERGODIC_TOL:
            raise ArithmeticError(
                f"T^n f does not flatten: the chain has period {period} and f's class means differ")
    g = vec.astype(np.float64)
    for _ in range(max_steps):
        if float(np.max(np.abs(g - target))) <= _ERGODIC_TOL:
            return target
        g = fm._apply(g)
    raise ArithmeticError(f"T^n f did not flatten within {max_steps} steps")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated trajectories: row p, column k holds the state index of Z_k on path p.

    simulate stores one contiguous int32 row per step and passes its
    transpose, so trajectories is a (paths, steps + 1) view whose step
    columns, what evaluate and the checks read, are contiguous in memory.
    """

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
        return self.as_vector(f).take(self.trajectories[:, step])


def _simulate_block(cols, cum, row_first, row_last, halves, mu0_cum, n_steps, seed, out, first, count):
    """Paths first .. first + count - 1, written into columns of out, which holds one row per step."""
    keys = path_keys(seed, first, count)
    u = step_uniforms(keys, 0)
    state = np.searchsorted(mu0_cum, u, side="right")
    out[0, first : first + count] = state
    for k in range(n_steps):
        u = step_uniforms(keys, k + 1)
        pos, last = row_first.take(state), row_last.take(state)
        for half in halves:
            # pos never passes last, so only a probe half - 1 > 0 ahead can leave the row
            probe = np.minimum(pos + (half - 1), last) if half > 1 else pos
            pos += (cum.take(probe) <= u) * half
        state = cols.take(pos)
        out[k + 1, first : first + count] = state


def simulate(fm: FiniteMarkov, n_steps: int, n_paths: int, seed: int) -> PathEnsemble:
    """Draw n_paths independent trajectories Z_0 .. Z_{n_steps}.

    Z_0 ~ mu0 and each step draws from the kernel row of the current
    state by the inverse CDF over that row's positive entries, so a step
    costs O(log2 max out-degree) rather than O(states).  A step finds how
    many of the row's running sums, cum[starts[x]:starts[x + 1]] in the
    arc table, are <= its draw by a branchless binary search: log2(width)
    rounds, width the largest out-degree rounded up to a power of two,
    each of one `take` and one compare, with every probe clipped to the
    row's last arc.  The entries <= u always form a prefix of the row:
    the sums before the clamp are nondecreasing, and the clamped 1.0 at
    the last arc lies above every draw u < 1, so a clipped probe compares
    false and the search counts exactly the entries <= u.  The next state
    is the column of the arc that count lands on.  Path p consumes only
    the stream keyed by (seed, p), so the ensemble is bit-identical no
    matter how the work is chunked.
    """
    if n_steps < 0 or n_paths < 1:
        raise ValueError("need n_steps >= 0 and n_paths >= 1")
    _, cols, starts, _, cum = fm._arcs()
    width = 1 << (int(np.diff(starts).max()) - 1).bit_length()
    halves = [width >> r for r in range(1, width.bit_length())]
    mu0_cum = np.cumsum(fm.mu0)
    # clamp at the last positive entry: no start lands on a zero-mass state
    mu0_cum[np.flatnonzero(fm.mu0)[-1] :] = 1.0
    out = np.empty((n_steps + 1, n_paths), dtype=np.int32)
    block = partial(_simulate_block, cols, cum, starts[:-1], starts[1:] - 1, halves, mu0_cum, n_steps, seed, out)
    run_blocks(block, n_paths)
    return PathEnsemble(states=fm.states, seed=seed, trajectories=out.T)


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
        w = mask * fm._apply(w)
    return float(np.add.reduce(fm.mu0 * w))


def covariance_exact(fm: FiniteMarkov, f1, f2, n: int) -> float:
    """E[f1(Z_n) f2(Z_{n+1})] by kernel arithmetic: mu0 . T^n(f1 . T f2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    g = fm.as_vector(f1) * fm.transfer(f2)
    for _ in range(n):
        g = fm._apply(g)
    return float(np.add.reduce(fm.mu0 * g))


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


def _grouped_check(states, here, there, vec, exact, min_visits) -> CheckReport:
    """Test E[vec[there] | here = x] = exact[x] for every state x, from the transition counts.

    here and there are state indices of one shape: the samples are the
    transitions here -> there, and the sample for one is vec[there].  The
    counts N_xy of the distinct transitions hold every sample, so one
    sorted np.unique over the packed keys here * S + there (uint32 when
    S^2 <= 2^32, uint64 otherwise) replaces the samples.  Per state x with
    N_x = sum_y N_xy visits, shifted by f0 = vec[y0] at its most visited
    successor y0 (the shifted data of Chan, Golub and LeVeque, 1983):

        mean = f0 + sum_y N_xy (vec[y] - f0) / N_x
        se   = sqrt(sum_y N_xy (vec[y] - mean)^2 / (N_x - 1)) / sqrt(N_x)

    so a state whose successors share one value returns that value with
    se = 0, and the largest share of the samples adds no rounding.  The
    shifted sum is formed with one rounding by Rump's extraction (Rump,
    Ogita and Oishi, 2008): each term splits exactly into a multiple of
    ulp(sigma) / 2 for a power of two sigma, and those add exactly, and a
    small rest.  The mean is then within ulp(mean) + 2 eps times
    sum_y (N_xy / N_x) |vec[y] - f0| of the exact sample mean.  States
    with fewer than min_visits visits are reported in `skipped` rather
    than tested; min_visits below 2 is refused, as a single visit has no
    standard error.
    """
    if min_visits < 2:
        raise ValueError(f"min_visits must be at least 2 for a standard error, got {min_visits}")
    n = len(states)
    dtype = np.uint32 if n * n <= 1 << 32 else np.uint64
    keys = here.astype(dtype)
    keys *= n
    np.add(keys, there, out=keys, dtype=dtype, casting="unsafe")
    pairs, counts = np.unique(keys, return_counts=True)
    x = (pairs // n).astype(np.intp)
    f = vec.take((pairs % n).astype(np.intp))
    # the pairs are sorted by state, so each state's successors form one run
    new = np.concatenate(([True], x[1:] != x[:-1]))
    first = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    visits = np.add.reduceat(counts, first)
    # the shift: the value at each state's most visited successor, the first such on a tie
    most = np.flatnonzero(counts == np.maximum.reduceat(counts, first).take(group))
    f0 = f.take(most.take(np.searchsorted(most, first)))
    terms = counts * (f - f0.take(group))
    # sigma >= 2 * 2^ceil(log2 N_x) * 2^ceil(log2 max |term|), and N_x is at least the number of terms: the
    # high parts and all their partial sums are multiples of ulp(sigma) / 2 below sigma / 2, so they add exactly
    top = np.maximum.reduceat(np.abs(terms), first)
    sigma = np.ldexp(1.0, np.frexp(top)[1] + np.frexp(visits)[1] + 1).take(group)
    high = (sigma + terms) - sigma
    shifted = np.add.reduceat(high, first) + np.add.reduceat(terms - high, first)
    mean = f0 + shifted / visits
    dev = f - mean.take(group)
    square = np.add.reduceat(counts * (dev * dev), first)
    tested = visits >= min_visits
    se = np.sqrt(square[tested] / (visits[tested] - 1)) / np.sqrt(visits[tested])
    labels = x.take(first)
    rows = tuple(CheckRow(label=str(states[i]), estimate=est, exact=float(exact[i]), se=s)
                 for i, est, s in zip(labels[tested].tolist(), mean[tested].tolist(), se.tolist()))
    skipped = np.ones(n, dtype=bool)
    skipped[labels[tested]] = False
    return CheckReport(rows=rows, skipped=tuple(compress(states, skipped.tolist())))


def markov_check(ens: PathEnsemble, fm: FiniteMarkov, f, n: int, min_visits: int = 100) -> CheckReport:
    """Per-state test of E[f(Z_{n+1}) | Z_n = x] = (Tf)(x) at a fixed step n.

    States visited fewer than min_visits times at step n are reported in
    `skipped` rather than tested.
    """
    if n < 0 or n + 1 > ens.n_steps:
        raise ValueError("need 0 <= n <= n_steps - 1")
    vec = fm.as_vector(f)
    traj = ens.trajectories
    return _grouped_check(fm.states, traj[:, n], traj[:, n + 1], vec, fm._apply(vec), min_visits)


def harmonic_solve(fm: FiniteMarkov, boundary: dict) -> dict:
    """Extend boundary values to a function with Th = h off the boundary.

    Solves the linear system (I - P_II) h_I = P_IB b by _solve: an
    independent set of interior states is eliminated by its GTH pivots and
    the rest goes to a dense LU.  The interior residual max |Ph - h| is
    checked against 1e-12 times the largest |boundary value|: h is linear
    in the boundary values, so its rounding scales with them.  Below the
    smallest normal float rounding is absolute, so the bound stops
    shrinking there.  Raises when
    the interior block is singular (the boundary does not determine the
    extension), and for a boundary value that is not finite.
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
    interior = np.array([s not in boundary for s in fm.states])
    if interior.any():
        try:
            h[interior] = _solve(fm, interior, h)
        except np.linalg.LinAlgError as exc:
            raise ValueError("interior system is singular") from exc
        residual = float(np.max(np.abs((fm._apply(h) - h)[interior])))
        bound = 1e-12 * max(float(np.max(np.abs(h[~interior]))), sys.float_info.min)
        if residual > bound:
            raise ArithmeticError(f"harmonic residual {residual:.3e} exceeds {bound:.3e}")
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
    # step-major: one row per step, so the transitions out of steps 0 .. n - 1 are two contiguous blocks
    steps = ens.trajectories.T
    return _grouped_check(ens.states, steps[:-1], steps[1:], vec, vec, min_visits)


def doob_boundary_check(fm: FiniteMarkov, h, N: int, n_paths: int, seed: int) -> CheckReport:
    """Conservation of a bounded harmonic function: E_x[h(Z_N)] = h(x) per start.

    Each start state x runs its own ensemble, simulate(fm.with_start(x),
    N, n_paths, key) on a key derived from (seed, state index), so the
    whole report is reproducible from seed.  Every start shares the
    chain's arc table, the sampler's running sums included.
    """
    vec = fm.as_vector(h)
    rows = []
    for i, x in enumerate(fm.states):
        ens = simulate(fm.with_start(x), N, n_paths, derive_key(seed, i))
        est, se = mean_se(vec.take(ens.trajectories[:, N]))
        rows.append(CheckRow(label=str(x), estimate=est, exact=float(vec[i]), se=se))
    return CheckReport(rows=tuple(rows))
