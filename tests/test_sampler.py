"""Sparse-row transition sampling and the grouped estimator against dense and exact oracles.

The sampler's oracles are the formulations it replaces: the inverse CDF
over the whole cumulative row (clamped at its last column) and the
row-indexed step over unpadded sparse tables.  The sampler must pick the
dense oracle's state at every draw where that one takes a
positive-probability step and the row-indexed oracle's state at every
draw.  The checks' oracle reads every raw sample and keeps the mean and
sample variance of each state's samples as exact fractions; a report
must match its labels and skipped states exactly and its estimates and
standard errors within the stated rounding bounds.
"""

import contextlib
import hashlib
import io
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectral_walks import (DyadicAngle, FiniteMarkov, CheckReport, CheckRow, cli, load_graph, markov_check,
                            martingale_check, mean_se, simulate)
from spectral_walks import rng, walks
from spectral_walks.circle import four_tap_filter, solenoid_walk, w_from_filter
from spectral_walks.rng import block_plan, mix64, path_keys, step_uniforms, uniform

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

FOUR_TAP = w_from_filter(four_tap_filter())

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------- oracles

def dense_cum(kernel):
    cum = np.cumsum(kernel, axis=1)
    cum[:, -1] = 1.0
    return cum


def dense_next(kernel, state, u):
    """The dense inverse CDF: count the cumulative-row entries <= u."""
    return (dense_cum(kernel)[state] <= u[:, None]).sum(axis=1)


def row_tables(kernel):
    """(S, max out-degree) tables: the dense cumulative row at each positive column, and that column."""
    positive = kernel > 0
    degree = positive.sum(axis=1)
    cum = np.full((len(kernel), degree.max()), np.inf)
    targets = np.zeros(cum.shape, dtype=np.int32)
    for i, row in enumerate(np.cumsum(kernel, axis=1)):
        cols = np.flatnonzero(positive[i])
        cum[i, : len(cols)] = row[cols]
        cum[i, len(cols) - 1] = 1.0
        targets[i, : len(cols)] = cols
    return cum, targets


def row_indexed_walk(fm, n_steps, n_paths, seed):
    """Trajectories stepped by targets[state, (cum[state] <= u[:, None]).sum(axis=1)] on row_tables."""
    cum, targets = row_tables(fm.kernel)
    keys = path_keys(seed, 0, n_paths)
    mu0_cum = np.cumsum(fm.mu0)
    mu0_cum[np.flatnonzero(fm.mu0)[-1] :] = 1.0
    state = np.searchsorted(mu0_cum, step_uniforms(keys, 0), side="right")
    out = [state]
    for k in range(n_steps):
        u = step_uniforms(keys, k + 1)
        state = targets[state, (cum[state] <= u[:, None]).sum(axis=1)]
        out.append(state)
    return np.stack(out, axis=1)


def last_positive(kernel):
    return np.array([np.flatnonzero(row)[-1] for row in kernel])


def exact_oracle(states, here, nxt, vec, min_visits):
    """The grouped check's statistics from the raw samples vec[nxt], grouped by here, with no rounding.

    Returns (tested, skipped): tested lists (state index, visits, exact
    mean, exact sample variance, spread, distinct successors) for each
    state with at least min_visits samples, in state order, and skipped
    the other states.  The means and variances are Fractions: every
    sample is an integer multiple of the smallest power of two among the
    values of vec, so the sums are Python integers.  spread is the sample
    mean of |sample - vec[y0]| (a float), y0 the most visited successor
    (the smallest index on a tie), which bounds the rounding of a mean
    shifted by vec[y0].
    """
    here, nxt = np.ravel(here), np.ravel(nxt)
    ratios = [float(v).as_integer_ratio() for v in vec]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    order = np.argsort(here, kind="stable")
    bounds = np.searchsorted(here[order], np.arange(len(states) + 1)).tolist()
    tested, skipped = [], []
    for i, x in enumerate(states):
        succ = nxt[order[bounds[i] : bounds[i + 1]]]
        n = len(succ)
        if n < min_visits:
            skipped.append(x)
            continue
        ys, counts = np.unique(succ, return_counts=True)
        s1 = sum(c * ints[y] for y, c in zip(ys.tolist(), counts.tolist()))
        s2 = sum(c * ints[y] ** 2 for y, c in zip(ys.tolist(), counts.tolist()))
        mean = Fraction(s1, n * scale)
        var = Fraction(n * s2 - s1 * s1, n * (n - 1) * scale * scale)
        spread = float(np.sum(counts * np.abs(vec[ys] - vec[ys[np.argmax(counts)]]))) / n
        tested.append((i, n, mean, var, spread, len(ys)))
    return tested, tuple(skipped)


EPS = np.finfo(float).eps


def assert_matches_oracle(report, states, here, nxt, vec, exact, min_visits, ulps=None):
    """report against exact_oracle: labels, skipped and exact values equal; estimates and SEs within their bounds.

    The estimate must be within ulp(mean) + 2.01 eps * spread of the exact
    mean, the rounding of the shifted form, or within `ulps` ulp of it
    when ulps is given.  The SE must be within (k + 8) eps, relative, of
    the exact sample deviation about the reported estimate over sqrt(N),
    k the number of distinct successors, plus sqrt(smallest normal float)
    absolute for squares that round below the normal range.
    """
    tested, skipped = exact_oracle(states, here, nxt, vec, min_visits)
    assert report.skipped == skipped
    assert [r.label for r in report.rows] == [str(states[i]) for i, *_ in tested]
    for row, (i, n, mean, var, spread, k) in zip(report.rows, tested):
        assert row.exact == float(exact[i])
        err = abs(Fraction(row.estimate) - mean)
        if ulps is None:
            assert err <= Fraction(math.ulp(float(mean))) + Fraction(2.01 * EPS * spread), (row, float(mean))
        else:
            assert err <= ulps * Fraction(math.ulp(float(mean))), (row, float(mean))
        # the deviation about the estimate: var plus n (estimate - mean)^2 / (n - 1)
        about = var + n * (Fraction(row.estimate) - mean) ** 2 / (n - 1)
        want = math.sqrt(float(about / n))
        assert abs(row.se - want) <= (k + 8) * EPS * want + math.sqrt(sys.float_info.min), (row, want)


# ---------------------------------------------------------------- crafted draws

def _unxorshift(z, shift):
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def unmix64(z):
    """Inverse of the SplitMix64 finalizer, which is a bijection of 64-bit words."""
    z = _unxorshift(z, 31)
    z = z * pow(_M2, -1, 1 << 64) & _MASK
    z = _unxorshift(z, 27)
    z = z * pow(_M1, -1, 1 << 64) & _MASK
    return _unxorshift(z, 30)


def seed_for_draw(bits: int, step: int) -> int:
    """A seed whose path-0 draw at `step` is exactly bits * 2^-53."""
    key = (unmix64(bits << 11) - (step + 1) * _GOLDEN) & _MASK
    seed = (unmix64(key) - _GOLDEN) & _MASK
    assert uniform(seed, 0, step) == bits * 2.0**-53
    return seed


def test_unmix_inverts_mix():
    for z in (0, 1, _MASK, 0x0123456789ABCDEF, 1 << 63):
        assert mix64(unmix64(z)) == z and unmix64(mix64(z)) == z


# ---------------------------------------------------------------- random chains

@st.composite
def chains(draw):
    """Kernels with zero last columns, an absorbing row and a row of degree S - 1."""
    s = draw(st.integers(3, 9))
    weights = np.zeros((s, s), dtype=np.int64)
    skip = draw(st.integers(0, s - 1))
    for j in range(s):
        if j != skip:
            weights[0, j] = draw(st.integers(1, 59))
    weights[1, 1] = 1
    for i in range(2, s):
        top = s if draw(st.booleans()) else s - 1
        cols = draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=top, unique=True))
        for j in cols:
            weights[i, j] = draw(st.integers(1, 59))
    # p(x, y) = c(x, y) / c(x), as FiniteMarkov.from_graph builds it
    kernel = weights / weights.sum(axis=1, keepdims=True)
    mu_w = np.array(draw(st.lists(st.integers(0, 9), min_size=s, max_size=s)), dtype=np.float64)
    mu_w[draw(st.integers(0, s - 2))] += 1.0
    return FiniteMarkov(tuple(range(s)), kernel, mu_w / mu_w.sum())


@st.composite
def wide_chains(draw):
    """Kernels with out-degrees up to 24, so a search takes up to five rounds; some rows hold a 1e-300 entry."""
    s = draw(st.integers(10, 30))
    kernel = np.zeros((s, s))
    for i in range(s):
        wide = i == 0 or draw(st.booleans())
        degree = draw(st.integers(9, min(24, s)) if wide else st.integers(1, 8))
        cols = draw(st.lists(st.integers(0, s - 1), min_size=degree, max_size=degree, unique=True))
        weights = np.array(draw(st.lists(st.integers(1, 59), min_size=degree, max_size=degree)), dtype=np.float64)
        tiny = draw(st.integers(0, degree - 1)) if degree > 1 and draw(st.booleans()) else None
        if tiny is not None:
            weights[tiny] = 0.0
        kernel[i, cols] = weights / weights.sum()
        if tiny is not None:
            kernel[i, cols[tiny]] = 1e-300
    mu_w = np.array(draw(st.lists(st.integers(0, 9), min_size=s, max_size=s)), dtype=np.float64)
    mu_w[draw(st.integers(0, s - 1))] += 1.0
    return FiniteMarkov(tuple(range(s)), kernel, mu_w / mu_w.sum())


def arc_sums(fm):
    """row_tables(fm.kernel)'s running sums at each arc of fm, in arc order."""
    rows, _, starts, _, _ = fm._arcs()
    cum, _ = row_tables(fm.kernel)
    return cum[rows, np.arange(len(rows)) - starts[rows]]


def star(leaves):
    """A star graph: a hub 0 joined to each leaf 1 .. leaves with conductance 1."""
    return load_graph({"vertices": list(range(leaves + 1)), "origin": 0,
                       "edges": [{"u": 0, "v": v, "c": 1} for v in range(1, leaves + 1)]})


class TestRunningSums:
    """The arc table's running sums against row_tables bit for bit, and the search over them against row_indexed_walk."""

    @SETTINGS
    @given(fm=st.one_of(chains(), wide_chains()), seed=st.integers(0, _MASK), n_steps=st.integers(1, 12))
    def test_match_the_row_indexed_step(self, fm, seed, n_steps):
        assert fm._arcs()[4].tobytes() == arc_sums(fm).tobytes()
        traj = simulate(fm, n_steps, 300, seed).trajectories
        assert np.array_equal(traj, row_indexed_walk(fm, n_steps, 300, seed))

    def test_equal_on_the_golden_graph(self):
        fm = FiniteMarkov.from_graph(load_graph(dyadic_chords()))
        assert fm._arcs()[4].tobytes() == arc_sums(fm).tobytes()

    def test_arc_table_is_built_once(self):
        fm = FiniteMarkov.from_graph(load_graph(dyadic_chords()))
        table = fm._arcs()
        fm.transfer(np.ones(len(fm)))
        simulate(fm, 4, 100, 1)
        assert fm._arcs() is table
        rows, cols, starts, p, _ = table
        assert np.array_equal(rows, np.repeat(np.arange(len(fm)), np.diff(starts)))
        assert np.array_equal(p, fm.kernel[rows, cols]) and np.array_equal(p, fm.kernel[fm.kernel > 0])

    def test_star_walks_in_a_few_arc_tables(self):
        # padded to the hub's degree rounded up to 16384, each of two sampler tables would take 10001 * 16384 * 8
        # bytes, about 1.3 GB; the arc table is 5 arrays of at most 2 * 10^4 + 1 entries, 0.72 MB, and building
        # the chain plus a short walk peaked at 2.8 times that
        g = star(10**4)
        tracemalloc.start()
        try:
            fm = FiniteMarkov.from_graph(g)
            traj = simulate(fm, 8, 1000, 1).trajectories
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = sum(a.nbytes for a in fm._arcs())
        assert table < 1 << 20 and peak < 4 * table
        assert np.all((traj[:, :-1] == 0) != (traj[:, 1:] == 0))

    def test_star_matches_the_row_indexed_step(self):
        fm = FiniteMarkov.from_graph(star(2000))
        assert np.diff(fm._arcs()[2]).max() == 2000
        assert fm._arcs()[4].tobytes() == arc_sums(fm).tobytes()
        for seed in (0, 1, 2**63 + 5):
            assert np.array_equal(simulate(fm, 6, 300, seed).trajectories, row_indexed_walk(fm, 6, 300, seed))


def degree_chain(max_degree, s=40):
    """A chain on s states whose largest out-degree is exactly max_degree; other rows are narrower."""
    rs = np.random.default_rng(max_degree)
    kernel = np.zeros((s, s))
    for i in range(s):
        d = max_degree if i % 3 == 0 else int(rs.integers(1, max_degree + 1))
        cols = rs.choice(s, d, replace=False)
        w = rs.integers(1, 60, d).astype(np.float64)
        kernel[i, cols] = w / w.sum()
    return FiniteMarkov(tuple(range(s)), kernel, np.full(s, 1.0 / s))


def overshoot_chain():
    """Row 0 sums to 1 + 1e-13: its running sum passes 1.0 at column 1, before the clamp at column 2."""
    kernel = np.array([[0.6, 0.4 + 1e-13, 1e-300], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    return FiniteMarkov((0, 1, 2), kernel, np.full(3, 1 / 3))


class TestSearchEdges:
    """The binary-search step against the row-indexed one at the widths where a search gains a round."""

    @pytest.mark.parametrize("max_degree", [1, 8, 9, 16, 17, 32, 33])
    def test_max_out_degree(self, max_degree):
        fm = degree_chain(max_degree)
        assert np.diff(fm._arcs()[2]).max() == max_degree
        assert fm._arcs()[4].tobytes() == arc_sums(fm).tobytes()
        for seed in (0, 1, 2**63 + 5):
            traj = simulate(fm, 6, 2000, seed).trajectories
            assert np.array_equal(traj, row_indexed_walk(fm, 6, 2000, seed))

    def test_running_sum_past_one_before_the_clamp(self):
        fm = overshoot_chain()
        assert np.cumsum(fm.kernel[0])[1] > 1.0
        _, _, starts, _, cum = fm._arcs()
        assert cum[: starts[1]].tolist() == [0.6, np.cumsum(fm.kernel[0])[1], 1.0]
        for seed in (0, 1, 2**63 + 5):
            traj = simulate(fm, 8, 2000, seed).trajectories
            assert np.array_equal(traj, row_indexed_walk(fm, 8, 2000, seed))
        below = int(0.6 * 2.0**53)
        assert below * 2.0**-53 == 0.6
        for bits, want in ((below - 1, 0), (below, 1), ((1 << 53) - 1, 1)):
            assert simulate(fm.with_start(0), 1, 1, seed_for_draw(bits, 1)).trajectories.tolist() == [[0, want]]


class TestSparseSampler:
    @SETTINGS
    @given(fm=chains(), seed=st.integers(0, _MASK), n_steps=st.integers(1, 12))
    def test_matches_dense_oracle(self, fm, seed, n_steps):
        n_paths = 300
        traj = simulate(fm, n_steps, n_paths, seed).trajectories
        keys = path_keys(seed, 0, n_paths)
        mu0_cum = np.cumsum(fm.mu0)
        mu0_cum[-1] = 1.0
        start = np.searchsorted(mu0_cum, step_uniforms(keys, 0), side="right")
        ok = fm.mu0[start] > 0
        assert np.array_equal(traj[ok, 0], start[ok])
        last = last_positive(fm.kernel)
        for k in range(n_steps):
            here = traj[:, k]
            want = dense_next(fm.kernel, here, step_uniforms(keys, k + 1))
            ok = fm.kernel[here, want] > 0
            assert np.array_equal(traj[ok, k + 1], want[ok])
            assert np.array_equal(traj[~ok, k + 1], last[here[~ok]])
        assert np.all(fm.mu0[traj[:, 0]] > 0)
        assert np.all(fm.kernel[traj[:, :-1], traj[:, 1:]] > 0)

    @settings(max_examples=15, deadline=None)
    @given(fm=chains())
    def test_boundary_draws(self, fm):
        """Draws on and next to every cumulative value, and the extreme draws 0 and 1 - 2^-53."""
        cum = dense_cum(fm.kernel)
        bits = {0, (1 << 53) - 1}
        for c in cum[cum < 1.0]:
            b = int(c * 2.0**53)
            bits.update(x for x in (b - 1, b, b + 1) if 0 <= x < 1 << 53)
        last = last_positive(fm.kernel)
        for b in sorted(bits):
            seed = seed_for_draw(b, 1)
            u = np.array([b * 2.0**-53])
            for x in fm.states:
                got = simulate(fm.with_start(x), 1, 1, seed).trajectories[0, 1]
                want = int(dense_next(fm.kernel, np.array([x]), u)[0])
                assert got == (want if fm.kernel[x, want] > 0 else last[x])

    @settings(max_examples=10, deadline=None)
    @given(fm=chains(), seed=st.integers(0, _MASK), cuts=st.lists(st.integers(1, 2147), max_size=5))
    def test_threads_and_block_splits(self, fm, seed, cuts):
        n_paths = 2148
        edges = sorted({0, n_paths, *cuts})
        plan = [(first, last - first) for first, last in zip(edges[:-1], edges[1:])]

        def run_plan(block, n):
            for first, count in plan:
                block(first, count)

        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SPECTRAL_WALKS_THREADS", "1")
            base = simulate(fm, 6, n_paths, seed).trajectories
            mp.setenv("SPECTRAL_WALKS_THREADS", "2")
            mp.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            mp.setattr(rng, "BLOCK", 1000)
            workers, blocks = block_plan(n_paths)
            assert workers == 2 and len(blocks) == 4
            assert np.array_equal(simulate(fm, 6, n_paths, seed).trajectories, base)
            mp.setattr(walks, "run_blocks", run_plan)
            assert np.array_equal(simulate(fm, 6, n_paths, seed).trajectories, base)


def clamp_chain():
    # conductances 1, 4, 1 from state 0 sum in floats to 1 - 2^-53; state 4 is not adjacent to 0
    g = load_graph({
        "vertices": [0, 1, 2, 3, 4],
        "edges": [{"u": 0, "v": 1, "c": 1}, {"u": 0, "v": 2, "c": 4}, {"u": 0, "v": 3, "c": 1},
                  {"u": 3, "v": 4, "c": 2}],
        "origin": 0,
    })
    return FiniteMarkov.from_graph(g)


class TestClamp:
    def test_last_positive_entry_is_clamped(self):
        fm = clamp_chain()
        assert np.cumsum(fm.kernel[0])[3] == 1.0 - 2.0**-53 and fm.kernel[0, 4] == 0.0
        top = (1 << 53) - 1
        seed = seed_for_draw(top, 1)
        # the dense inverse CDF clamped at the last column steps along the non-edge 0 -> 4
        assert dense_next(fm.kernel, np.array([0]), np.array([top * 2.0**-53]))[0] == 4
        traj = simulate(fm.with_start(0), 1, 1, seed).trajectories
        assert traj.tolist() == [[0, 3]]

    def test_start_never_lands_on_zero_mass(self):
        base = clamp_chain()
        fm = FiniteMarkov(base.states, base.kernel, np.array([9.0, 18.0, 1.0, 0.0, 0.0]) / 28.0)
        assert np.cumsum(fm.mu0)[2] == 1.0 - 2.0**-53
        seed = seed_for_draw((1 << 53) - 1, 0)
        assert simulate(fm, 0, 1, seed).trajectories.tolist() == [[2]]


# ---------------------------------------------------------------- grouped estimator

class TestGroupedEstimator:
    """The counts route against exact_oracle, which reads every raw sample."""

    @SETTINGS
    @given(fm=chains(), seed=st.integers(0, _MASK), n=st.integers(0, 6), min_visits=st.integers(2, 60),
           f=st.lists(st.floats(-10, 10, allow_nan=False), min_size=9, max_size=9))
    def test_reports_match_the_exact_oracle(self, fm, seed, n, min_visits, f):
        ens = simulate(fm, 8, 500, seed)
        vec = np.array(f[: len(fm)])
        traj = ens.trajectories
        exact = fm.transfer(vec)
        # an oracle for the exact values that shares no code with them: the dense product, which may
        # round each row's sum of at most n terms differently, by up to n eps / 2 times max |f| each
        bound = len(fm) * np.finfo(float).eps * np.max(np.abs(vec))
        assert np.max(np.abs(exact - fm.kernel @ vec)) <= bound
        # signed values may cancel against the shift, so the bound is the shifted form's, not 2 ulp
        assert_matches_oracle(markov_check(ens, fm, vec, n, min_visits), fm.states, traj[:, n], traj[:, n + 1],
                              vec, exact, min_visits)
        assert_matches_oracle(martingale_check(ens, vec, min_visits), fm.states, traj[:, :-1], traj[:, 1:],
                              vec, vec, min_visits)

    @SETTINGS
    @given(fm=chains(), seed=st.integers(0, _MASK), n_steps=st.integers(1, 9), n_paths=st.integers(2, 400),
           min_visits=st.integers(2, 60), f=st.lists(st.floats(-10, 10, allow_nan=False), min_size=9, max_size=9))
    def test_martingale_reads_the_trajectory_views_as_raveled_copies(self, fm, seed, n_steps, n_paths, min_visits, f):
        # the check hands the step-major blocks to the estimator; raveled copies of the views are the 1-D reading
        ens = simulate(fm, n_steps, n_paths, seed)
        vec = np.array(f[: len(fm)])
        traj = ens.trajectories
        want = walks._grouped_check(fm.states, traj[:, :-1].ravel(), traj[:, 1:].ravel(), vec, vec, min_visits)
        assert martingale_check(ens, vec, min_visits) == want

    @pytest.mark.parametrize("n_states", [2, 255, 256, 257, 65536, 65537])
    def test_labels_at_the_narrow_type_edges(self, n_states):
        # labels run up to the largest state index, where a key one size too narrow would wrap: 65536^2 is
        # the last S^2 that fits uint32 keys, and 65537 states need uint64
        rs = np.random.default_rng(n_states)
        here = np.concatenate([rs.integers(max(0, n_states - 3), n_states, 3000), rs.integers(0, 2, 3000)])
        nxt = rs.integers(0, n_states, len(here))
        vec, exact = rs.random(n_states), rs.random(n_states)
        states = tuple(range(n_states))
        report = walks._grouped_check(states, here, nxt, vec, exact, 50)
        assert_matches_oracle(report, states, here, nxt, vec, exact, 50, ulps=2)

    @SETTINGS
    @given(seed=st.integers(0, _MASK), wide=st.booleans(), hot=st.integers(1, 8), min_visits=st.integers(2, 40))
    def test_packed_keys_match_the_exact_oracle(self, seed, wide, hot, min_visits):
        # 70000 states take 70000^2 > 2^32 keys, uint64; the narrow draws fit uint32
        rs = np.random.default_rng(seed)
        n_states, n = (70000, 1 << 16) if wide else (int(rs.integers(2, 300)), int(rs.integers(400, 3000)))
        assert (n_states**2 > 1 << 32) == wide
        # four fifths of the samples go round the hot labels, at least 40 each, and the rest spread
        # thin below the last label: some states are tested, some fall short of min_visits, and
        # the last is never visited
        hot_labels = rs.choice(n_states - 1, min(hot, n_states - 1), replace=False)
        many = 4 * n // 5
        here = np.concatenate([hot_labels[np.arange(many) % len(hot_labels)], rs.integers(0, n_states - 1, n - many)])
        here = rs.permutation(here).astype(np.int32)
        nxt = rs.integers(0, n_states, n).astype(np.int32)
        vec, exact = rs.random(n_states), rs.random(n_states)
        states = tuple(range(n_states))
        report = walks._grouped_check(states, here, nxt, vec, exact, min_visits)
        assert_matches_oracle(report, states, here, nxt, vec, exact, min_visits, ulps=2)
        assert report.rows and report.skipped[-1] == n_states - 1

    def test_more_than_65536_states_sort_wide_labels(self):
        rs = np.random.default_rng(7)
        here, nxt = rs.integers(0, 40, 3000), rs.integers(0, 40, 3000)
        vec, exact = rs.random(70000), rs.random(70000)
        narrow = walks._grouped_check(tuple(range(40)), here, nxt, vec, exact, 50)
        wide = walks._grouped_check(tuple(range(70000)), here, nxt, vec, exact, 50)
        assert wide.rows == narrow.rows and wide.skipped == narrow.skipped + tuple(range(40, 70000))
        # labels from 65500 up: keys past 2^32 would wrap in uint32 and land on low labels
        high = here + 65500
        report = walks._grouped_check(tuple(range(70000)), high, nxt, vec, exact, 50)
        assert_matches_oracle(report, tuple(range(70000)), high, nxt, vec, exact, 50, ulps=2)

    def test_successors_of_one_value_return_it_exactly(self):
        # state i moves only among states 10 i .. 10 i + 9, where vec is one value: N copies of it averaged
        # by summing would round (0.1 * 3 / 3 is not 0.1), the shifted mean adds nothing to it
        rs = np.random.default_rng(3)
        values = np.array([0.1, 1 / 3, -7.3, 2.0**-1074, 1e300])
        here = rs.integers(0, 5, 20000)
        nxt = 10 * here + rs.integers(0, 10, len(here))
        vec = np.repeat(values, 10)
        states = tuple(range(50))
        report = walks._grouped_check(states, here, nxt, vec, vec, 2)
        assert [r.label for r in report.rows] == ["0", "1", "2", "3", "4"]
        assert [r.estimate for r in report.rows] == values.tolist()
        assert all(r.se == 0.0 for r in report.rows)
        assert mean_se(np.full(3, 0.1))[0] != 0.1

    def test_an_estimate_four_ulp_off_fails_the_oracle(self):
        rs = np.random.default_rng(257)
        here = np.concatenate([rs.integers(254, 257, 3000), rs.integers(0, 2, 3000)])
        nxt = rs.integers(0, 257, len(here))
        vec, exact = rs.random(257), rs.random(257)
        states = tuple(range(257))
        report = walks._grouped_check(states, here, nxt, vec, exact, 50)
        assert_matches_oracle(report, states, here, nxt, vec, exact, 50, ulps=2)
        for k in range(len(report.rows)):
            row = report.rows[k]
            off = row.estimate
            for _ in range(4):
                off = float(np.nextafter(off, np.inf))
            mutant = CheckReport(rows=report.rows[:k] + (CheckRow(row.label, off, row.exact, row.se),)
                                 + report.rows[k + 1 :], skipped=report.skipped)
            with pytest.raises(AssertionError):
                assert_matches_oracle(mutant, states, here, nxt, vec, exact, 50, ulps=2)


# ---------------------------------------------------------------- block plan

class TestBlockPlan:
    def test_benchmark_sizes_run_on_one_block(self, monkeypatch):
        # a run of at most BLOCK paths stays on the calling thread, the benchmark's 5000 and 40000 among them
        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("SPECTRAL_WALKS_THREADS", "2")
        for n in (1, 4000, 5000, 20000, 40000, rng.BLOCK):
            assert block_plan(n) == (1, [(0, n)])
        half = rng.BLOCK // 2 + 1
        assert block_plan(rng.BLOCK + 1) == (2, [(0, half), (half, half - 1)])
        # 320000 paths need 5 blocks, rounded up to 6 so that neither worker runs an extra one
        assert block_plan(320000) == (2, [(0, 53334), (53334, 53334), (106668, 53333), (160001, 53333),
                                          (213334, 53333), (266667, 53333)])
        monkeypatch.setenv("SPECTRAL_WALKS_THREADS", "1")
        assert block_plan(10**6) == (1, [(i * 62500, 62500) for i in range(16)])
        monkeypatch.delenv("SPECTRAL_WALKS_THREADS")
        assert block_plan(40000) == (1, [(0, 40000)])

    def test_threads_capped_at_affinity(self, monkeypatch):
        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setenv("SPECTRAL_WALKS_THREADS", "1000000")
        workers, blocks = block_plan(10**6)
        assert (workers, len(blocks)) == (3, 18)
        assert sum(c for _, c in blocks) == 10**6

    @settings(max_examples=200, deadline=None)
    @given(n_paths=st.integers(0, 2 * 10**5), block=st.integers(2, 1 << 17), threads=st.integers(-2, 9),
           cpus=st.integers(1, 8))
    def test_blocks_at_most_block_size(self, n_paths, block, threads, cpus):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            mp.setattr(rng, "BLOCK", block)
            mp.setenv("SPECTRAL_WALKS_THREADS", str(threads))
            workers, blocks = block_plan(n_paths)
        sizes = [count for _, count in blocks]
        # contiguous from 0, covering [0, n_paths), near-equal and never above BLOCK
        assert [first for first, _ in blocks] == list(itertools.accumulate(sizes[:-1], initial=0))
        assert sum(sizes) == n_paths
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= block
        assert min(sizes) >= 1 or n_paths == 0
        needed = max(1, -(-n_paths // block))
        assert workers == min(max(1, threads), cpus, needed)
        # the fewest blocks that are a multiple of the workers and hold at most BLOCK paths each
        assert len(blocks) % workers == 0 and len(blocks) - workers < needed

    @settings(max_examples=20, deadline=None)
    @given(fm=chains(), n_paths=st.integers(1, 3000), block=st.integers(2, 3000), threads=st.integers(1, 3),
           seed=st.integers(0, _MASK))
    def test_any_plan_gives_equal_ensembles(self, fm, n_paths, block, threads, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SPECTRAL_WALKS_THREADS", "1")
            walk = solenoid_walk(FOUR_TAP, 6, n_paths, seed, start=3).numerators
            traj = simulate(fm, 6, n_paths, seed).trajectories
            mp.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
            mp.setattr(rng, "BLOCK", block)
            mp.setenv("SPECTRAL_WALKS_THREADS", str(threads))
            assert solenoid_walk(FOUR_TAP, 6, n_paths, seed, start=3).numerators.tobytes() == walk.tobytes()
            assert simulate(fm, 6, n_paths, seed).trajectories.tobytes() == traj.tobytes()

    # masked to 64 bits, each of these seeds would draw the streams of a seed in the range
    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1 << 70])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_seed_outside_the_range_raises(self, monkeypatch, seed, threads):
        monkeypatch.setenv("SPECTRAL_WALKS_THREADS", threads)
        cycle4 = Path(__file__).resolve().parents[1] / "examples_data" / "cycle4.json"
        fm = FiniteMarkov.from_graph(load_graph(str(cycle4)))
        for run in (lambda: simulate(fm, 3, 200000, seed), lambda: solenoid_walk(FOUR_TAP, 3, 200000, seed),
                    lambda: walks.doob_boundary_check(fm, {s: 1.0 for s in fm.states}, 3, 50, seed)):
            with pytest.raises(ValueError, match=rf"^seed {seed} is outside 0 <= seed < 2\^64$"):
                run()


# ---------------------------------------------------------------- golden output

def dyadic_chords(depth=8, chords=128):
    """A depth-8 dyadic tree (heap numbering) plus 128 chords, conductances 1..59."""
    n = (1 << (depth + 1)) - 1
    edges = [{"u": (v - 1) // 2, "v": v, "c": 1 + mix64(v) % 59} for v in range(1, n)]
    seen = {(e["u"], e["v"]) for e in edges}
    k = 0
    while len(edges) < n - 1 + chords:
        z = mix64(1_000_003 + k)
        k += 1
        a, b = sorted((z % n, (z >> 32) % n))
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            edges.append({"u": a, "v": b, "c": 1 + (z >> 16) % 59})
    return {"vertices": list(range(n)), "edges": edges, "origin": 0}


# sha256 of "<exit code>\n" + output bytes, recorded with the dense inverse-CDF sampler; the walk sim
# rows re-recorded when the stationary solve began eliminating an independent set before its LU, which
# moved the solve and deviation cells of states 0-3 by one ulp and nothing else
GOLDEN_CLI = [
    (["walk", "sim", "--graph", "cycle4.json", "--steps", "8", "--paths", "20000", "--seed", "1"],
     "d4362a266839cc17aac2eaa31726700001814558aa622114feb46cf097a4d7ce"),
    (["walk", "sim", "--graph", "cycle4.json", "--steps", "8", "--paths", "20000", "--seed", "2"],
     "1a2c603817ff5f819db5f4fc3b25bf52fed72eab5e1c01abe9ba57839ee9815b"),
    (["verify", "all", "--seed", "0"], "78aed7da91aca3171901b16102af34f2242fa1cad1a6e73c192ab16632de3c50"),
    (["verify", "all", "--seed", "1"], "05f358e418b2e70f2103b1dca2f9cc71503b030e25261df376bb870a38e0a8ef"),
]

# sha256 of the int32 trajectories of simulate(chain, 32, 5000, seed) on dyadic_chords(), by seed,
# recorded with the dense inverse-CDF sampler.  On a graph this size walk sim's exact side goes
# through LAPACK, whose last bits depend on the BLAS thread count, so the sampler is pinned here
GOLDEN_TRAJECTORIES = {
    1: "8ac550d7e1786472a496124e8f0462063982431e591149382a317557d04f9c92",
    2: "25fc33071c9cea328685b94111c2ef66329296200ed03fe23c7260a9722bf476",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_cli_output(threads, tmp_path, monkeypatch, split_blocks):
    monkeypatch.chdir(tmp_path)
    plans = split_blocks(threads)
    (tmp_path / "cycle4.json").write_text(
        (Path(__file__).resolve().parents[1] / "examples_data" / "cycle4.json").read_text())
    changed = []
    for argv, want in GOLDEN_CLI:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(argv + ["--output", "out.txt"])
        got = hashlib.sha256(f"{rc}\n".encode() + (tmp_path / "out.txt").read_bytes()).hexdigest()
        if got != want:
            changed.append(" ".join(argv))
    assert not changed
    assert plans.all_split() == (threads == "2")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_trajectories(threads, split_blocks):
    plans = split_blocks(threads)
    fm = FiniteMarkov.from_graph(load_graph(dyadic_chords()))
    for seed, want in GOLDEN_TRAJECTORIES.items():
        assert hashlib.sha256(simulate(fm, 32, 5000, seed).trajectories.tobytes()).hexdigest() == want
    assert plans.all_split() == (threads == "2")


# sha256 of each report's rows as (label, estimate.hex(), exact.hex(), se.hex()) plus its skipped
# tuple, on dyadic_chords() with an arbitrary state function; recorded with the take-and-popcount
# step and np.mean / np.std in mean_se, so the sampler and the estimator are pinned bit for bit.
# markov_check re-recorded when Tf became a row sum over the arc table: 56 of its 235 exact values
# moved, by at most 2 ulp, and no label, estimate, se or skipped state did.  Both grouped checks
# re-recorded when they began to read transition counts: estimates and se moved by rounding (the
# shifted mean against the pairwise one), and no label, exact value or skipped state moved
GOLDEN_REPORTS = {
    "markov_check": "7319784b6de421ad2824d7448ceab6a0d6b8ab8a91d8459479487a508fa2c768",
    "martingale_check": "84aff8332bea303e8156ad389a25a62fbaa3dbf8903fddec31cb8bf46ab7eeff",
    "doob_boundary_check": "d0f0a11c34f13841768f3521d7b4abb92d53017ffcb09efee774ec4bf18a62bd",
}


def report_digest(rep):
    h = hashlib.sha256()
    for r in rep.rows:
        h.update(repr((r.label, r.estimate.hex(), r.exact.hex(), r.se.hex())).encode())
    h.update(repr(rep.skipped).encode())
    return h.hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_reports(threads, split_blocks):
    plans = split_blocks(threads)
    fm = FiniteMarkov.from_graph(load_graph(dyadic_chords()))
    vec = (np.arange(len(fm)) * 40503 % 1009) / 1009.0
    ens = simulate(fm, 16, 5000, 7)
    got = {
        "markov_check": report_digest(markov_check(ens, fm, vec, 8, min_visits=10)),
        "martingale_check": report_digest(martingale_check(ens, vec)),
        # 2100 paths per start, so at two threads every start's ensemble splits into 1000-path blocks or smaller
        "doob_boundary_check": report_digest(walks.doob_boundary_check(fm, vec, 3, 2100, 7)),
    }
    assert got == GOLDEN_REPORTS
    assert plans.all_split() == (threads == "2")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_shorter_walks_are_prefixes(threads, split_blocks):
    # step k reads only the steps before it and the draws keyed by (path, k), so the walk of m steps is
    # the first m + 1 columns of the walk of n > m steps: a caller may stop at the last step it reads
    plans = split_blocks(threads)
    paths = 2500  # above the 1000-path BLOCK of the two-thread runs, so their blocks split
    fm = FiniteMarkov.from_graph(load_graph(dyadic_chords()))
    longest = simulate(fm, 12, paths, 3).trajectories
    for m in (0, 1, 2, 5, 11):
        assert np.array_equal(simulate(fm, m, paths, 3).trajectories, longest[:, : m + 1])
    # from 1/2 the four-tap walk spreads over 16 numerators, so its steps draw; level 6 starts on a grid
    for start in (DyadicAngle(1, 1), 6):
        longest = solenoid_walk(FOUR_TAP, 12, paths, 3, start=start).numerators
        for m in (0, 1, 3, 4, 11):
            assert np.array_equal(solenoid_walk(FOUR_TAP, m, paths, 3, start=start).numerators, longest[:, : m + 1])
    assert plans.all_split() == (threads == "2")
