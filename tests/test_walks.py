"""Finite chains, path sampling, and the statistical check machinery."""

import math
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_walks import walks
from spectral_walks.graphs import _pattern_arcs
from spectral_walks.rng import derive_key, mix64
from spectral_walks import (
    FiniteMarkov,
    CheckReport,
    CheckRow,
    is_irreducible,
    is_aperiodic,
    stationary_measure,
    ergodic_limit,
    simulate,
    cylinder_mass,
    covariance_exact,
    covariance_mc,
    mean_se,
    markov_check,
    harmonic_solve,
    martingale_check,
    doob_boundary_check,
    load_graph,
    tree_graph,
)


def cycle4():
    return load_graph(
        {
            "vertices": [0, 1, 2, 3],
            "edges": [{"u": k, "v": (k + 1) % 4, "c": k + 1} for k in range(4)],
            "origin": 0,
        }
    )


def tree_with_chords(depth, chords):
    """A dyadic tree (heap numbering) plus chords between distinct, not yet adjacent vertices, conductances 1..59."""
    n = (1 << (depth + 1)) - 1
    edges = {((v - 1) // 2, v): 1 + mix64(v) % 59 for v in range(1, n)}
    k = 0
    while len(edges) < n - 1 + chords:
        z = mix64(1_000_003 + k)
        k += 1
        a, b = sorted((z % n, (z >> 32) % n))
        if a != b and (a, b) not in edges:
            edges[(a, b)] = 1 + (z >> 16) % 59
    return load_graph({"vertices": list(range(n)), "origin": 0,
                       "edges": [{"u": a, "v": b, "c": c} for (a, b), c in edges.items()]})


def absorbing_ends():
    """The walk on tree_with_chords(8, 128) with the origin and the farthest vertex made absorbing, and that vertex."""
    g = tree_with_chords(8, 128)
    fm = FiniteMarkov.from_graph(g)
    far = max(g.vertices, key=lambda v: (g.distance[v], -v))
    kernel = fm.kernel.copy()
    for x in (0, far):
        kernel[x] = 0.0
        kernel[x, x] = 1.0
    return FiniteMarkov(fm.states, kernel, fm.mu0), far


def ruin_chain():
    k = np.zeros((5, 5))
    k[0, 0] = k[4, 4] = 1.0
    for s in (1, 2, 3):
        k[s, s - 1] = k[s, s + 1] = 0.5
    return FiniteMarkov(tuple(range(5)), k, np.full(5, 0.2))


class TestFiniteMarkov:
    def test_from_graph_kernel(self):
        fm = FiniteMarkov.from_graph(cycle4())
        # p(x, y) = c(x, y) / c(x); state 0 has edges of weight 1 and 4
        assert abs(fm.kernel[0, 1] - 1 / 5) < 1e-15
        assert abs(fm.kernel[0, 3] - 4 / 5) < 1e-15
        assert np.allclose(fm.kernel.sum(axis=1), 1.0, atol=1e-15)

    def test_kernel_is_read_only(self):
        # the arc table is cached from the kernel, so a write must raise rather than leave it stale
        fm = FiniteMarkov.from_graph(cycle4())
        fm.transfer(np.ones(len(fm)))
        with pytest.raises(ValueError, match="read-only"):
            fm.kernel[0, 1] = 0.5
        assert fm.with_start(fm.states[0]).kernel is not fm.kernel

    def test_default_start_is_conductance_measure(self):
        g = cycle4()
        fm = FiniteMarkov.from_graph(g)
        total = sum(g.total.values())
        for i, s in enumerate(fm.states):
            assert abs(fm.mu0[i] - g.total[s] / total) < 1e-15

    def test_detailed_balance(self):
        g = cycle4()
        fm = FiniteMarkov.from_graph(g)
        mu = stationary_measure(fm)
        for i in range(4):
            for j in range(4):
                assert abs(mu[i] * fm.kernel[i, j] - mu[j] * fm.kernel[j, i]) < 1e-14

    def test_validation(self):
        good = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            FiniteMarkov((0, 0), good, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            FiniteMarkov((0, 1), np.array([[0.5, 0.6], [0.5, 0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            FiniteMarkov((0, 1), np.array([[1.5, -0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            FiniteMarkov((0, 1), good, np.array([0.5, 0.1]))

    def test_non_finite_rejected(self):
        good = np.array([[0.5, 0.5], [0.5, 0.5]])
        for bad in (np.nan, np.inf):
            # rowdev > 1e-12 is False for a NaN row, so finiteness needs its own check
            with pytest.raises(ValueError, match="kernel has a non-finite"):
                FiniteMarkov((0, 1), np.array([[bad, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))
            with pytest.raises(ValueError, match="mu0 has a non-finite"):
                FiniteMarkov((0, 1), good, np.array([bad, 0.5]))

    def test_with_start(self):
        base = FiniteMarkov.from_graph(cycle4())
        fm = base.with_start(2)
        assert fm.mu0[2] == 1.0 and fm.mu0.sum() == 1.0
        assert fm._arcs() is base._arcs() and fm.kernel.tobytes() == base.kernel.tobytes()

    def test_one_sampler_table_per_chain(self, monkeypatch):
        # the sampler's running sums are the arc table's last field: with_start chains share them, and a walk
        # on any chain builds no table
        base = FiniteMarkov.from_graph(cycle4())
        built = []
        inner = walks._arc_table
        monkeypatch.setattr(walks, "_arc_table", lambda *table: built.append(table) or inner(*table))
        fm = base.with_start(2)
        assert fm._arcs() is base._arcs() and fm.with_start(1)._arcs() is base._arcs()
        assert fm._arcs()[4] is base._arcs()[4]
        simulate(fm, 5, 20, 3)
        simulate(base, 5, 20, 4)
        simulate(fm.with_start(0), 5, 20, 3)
        assert built == []

    def test_with_start_names_an_unknown_state(self):
        with pytest.raises(ValueError, match=r"^start state 9 is not a chain state$"):
            ruin_chain().with_start(9)

    def test_transfer(self):
        fm = FiniteMarkov.from_graph(cycle4())
        f = fm.as_vector({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0})
        tf = fm.transfer(f)
        assert np.allclose(tf, fm.kernel @ f)


CONDUCTANCES = st.one_of(st.integers(1, 9), st.fractions(Fraction(1, 50), 20).filter(lambda c: c > 0),
                         st.floats(0.01, 100.0))


@st.composite
def graphs(draw):
    """A valid graph: a random spanning tree on 2-8 vertices plus random chords."""
    n = draw(st.integers(2, 8))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    pairs += draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    edges = [{"u": i, "v": j, "c": draw(CONDUCTANCES)} for i, j in pairs]
    return load_graph({"vertices": list(range(n)), "edges": edges, "origin": 0})


MU0_FAULTS = ("nan", "inf", "-inf", "negative", "too_long", "too_short", "dict_keys", "sum")


class TestFromGraphProperties:
    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_kernel_is_conductance_over_total(self, g):
        fm = FiniteMarkov.from_graph(g)
        want = np.zeros((len(g.vertices), len(g.vertices)))
        for u, v, c in g.edges:
            want[u, v] = float(c) / float(g.total[u])
            want[v, u] = float(c) / float(g.total[v])
        assert fm.kernel.tobytes() == want.tobytes()
        assert fm.states == g.vertices

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_arc_table_is_the_dense_scan(self, g):
        # the arcs come from the edges; scanning the dense build for kernel > 0 gives the same table
        n = len(g.vertices)
        dense = np.zeros((n, n))
        for u, v, c in g.edges:
            dense[u, v] = float(c) / float(g.total[u])
            dense[v, u] = float(c) / float(g.total[v])
        rows, cols, starts = _pattern_arcs(dense > 0)
        fm = FiniteMarkov.from_graph(g)
        # both constructors hold the table on return, before anything reads it
        for chain in (fm, FiniteMarkov(g.vertices, dense, fm.mu0)):
            for got, want in zip(chain._arc_table, (rows, cols, starts, dense[rows, cols])):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert fm._kernel is None

    def test_an_edge_whose_probability_underflows_has_no_arc(self):
        # p(1, 2) = 5e-324 / 1e300 rounds to 0, so the walk never steps from 1 to 2
        g = load_graph({"vertices": [0, 1, 2], "origin": 0,
                        "edges": [{"u": 0, "v": 1, "c": 1e300}, {"u": 1, "v": 2, "c": 5e-324}]})
        fm = FiniteMarkov.from_graph(g)
        dense = FiniteMarkov(fm.states, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], fm.mu0)
        for got, want in zip(fm._arc_table, dense._arc_table):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert fm.kernel.tobytes() == dense.kernel.tobytes()
        assert fm._arcs()[1].tolist() == [1, 0, 1]
        assert not is_irreducible(fm)
        with pytest.raises(ValueError, match="reducible"):
            stationary_measure(fm)
        assert simulate(fm, 6, 50, 1).trajectories.tobytes() == simulate(dense, 6, 50, 1).trajectories.tobytes()
        assert fm.transfer([1.0, 2.0, 4.0]).tolist() == [2.0, 1.0, 2.0]

    def test_no_dense_array_on_a_large_graph(self):
        # on 4095 states one dense kernel is S^2 * 8 bytes = 134 MB; the arc table and the sampler need about 1 MB
        g = tree_with_chords(11, 1024)
        tracemalloc.start()
        try:
            fm = FiniteMarkov.from_graph(g)
            simulate(fm, 8, 1000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fm) == 4095 and peak < len(fm) ** 2 * 8 / 32

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_default_start_is_total_over_sum(self, g):
        fm = FiniteMarkov.from_graph(g)
        totals = [Fraction(g.total[x]) for x in g.vertices]
        n = len(totals)
        for got, t in zip(fm.mu0, totals):
            exact = t / sum(totals)
            # float(c(x)), an n-term sum, a division and the renormalization
            assert abs(Fraction(float(got)) - exact) <= (n + 3) * 2.0**-53 * exact
        assert abs(float(fm.mu0.sum()) - 1.0) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_default_start_bits_and_no_adjacency_dicts(self, g):
        fm = FiniteMarkov.from_graph(g)
        # the chain is read off the graph's edge arrays, not its adjacency view
        assert g._adjacency is None
        weights = np.array([float(g.total[x]) for x in g.vertices])
        want = weights / weights.sum()
        assert fm.mu0.tobytes() == (want / float(want.sum())).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.data())
    def test_a_valid_start_is_kept(self, g, data):
        weights = data.draw(st.lists(st.integers(0, 5), min_size=len(g.vertices), max_size=len(g.vertices))
                            .filter(lambda ws: sum(ws) > 0))
        mu0 = np.array(weights, dtype=np.float64) / sum(weights)
        assume(abs(float(mu0.sum()) - 1.0) <= 1e-12)
        as_dict = data.draw(st.booleans())
        fm = FiniteMarkov.from_graph(g, dict(zip(g.vertices, mu0)) if as_dict else mu0)
        assert fm.mu0.tobytes() == (mu0 / float(mu0.sum())).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.sampled_from(MU0_FAULTS), st.data())
    def test_a_bad_start_raises(self, g, fault, data):
        n = len(g.vertices)
        mu0 = [1.0 / n] * n
        at = data.draw(st.integers(0, n - 1))
        if fault in ("nan", "inf", "-inf"):
            mu0[at] = float(fault)
            want = "mu0 has a non-finite entry"
        elif fault == "negative":
            mu0[at] = -data.draw(st.floats(1e-300, 10.0))
            want = "mu0 has a negative entry"
        elif fault == "too_long":
            mu0.append(0.0)
            want = "function length does not match the state count"
        elif fault == "too_short":
            del mu0[at]
            want = "function length does not match the state count"
        elif fault == "dict_keys":
            mu0 = dict(zip(g.vertices, mu0))
            del mu0[g.vertices[at]]
            if data.draw(st.booleans()):
                mu0["ghost"] = 0.0
            want = "function does not match the state set"
        else:
            mu0[at] += data.draw(st.sampled_from([1e-9, -1e-9, 0.5, 7.0]))
            want = "mu0 does not sum to 1"
        if data.draw(st.booleans()) and not isinstance(mu0, dict):
            mu0 = np.array(mu0)
        with pytest.raises(ValueError, match=want):
            FiniteMarkov.from_graph(g, mu0)


def reach_by_rows(rows, start):
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in rows[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def irreducible_by_rows(kernel):
    """Depth-first search over per-row and per-column np.nonzero lists, both ways from state 0."""
    n = len(kernel)
    fwd = [np.nonzero(kernel[i] > 0)[0] for i in range(n)]
    bwd = [np.nonzero(kernel[:, i] > 0)[0] for i in range(n)]
    return len(reach_by_rows(fwd, 0)) == n and len(reach_by_rows(bwd, 0)) == n


def aperiodic_by_rows(kernel):
    """Breadth-first levels from state 0, then the gcd of level[i] + 1 - level[j] arc by arc."""
    level = {0: 0}
    order = [0]
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        for j in np.nonzero(kernel[i] > 0)[0]:
            j = int(j)
            if j not in level:
                level[j] = level[i] + 1
                order.append(j)
    g = 0
    for i in level:
        for j in np.nonzero(kernel[i] > 0)[0]:
            j = int(j)
            if j in level:
                g = math.gcd(g, abs(level[i] + 1 - level[j]))
    return g == 1


@st.composite
def sparse_kernels(draw):
    """Kernels on 1-12 states with random supports, arcs only from class c to class c + 1 mod d.

    With d > 1 every cycle has length a multiple of d, so the irreducible
    ones are periodic; random supports make many of them reducible.
    """
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, min(3, n)))
    cls = [k % d for k in draw(st.permutations(range(n)))]
    kernel = np.zeros((n, n))
    for i in range(n):
        allowed = [j for j in range(n) if cls[j] == (cls[i] + 1) % d]
        cols = draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=len(allowed), unique=True))
        weights = np.array(draw(st.lists(st.integers(1, 9), min_size=len(cols), max_size=len(cols))), dtype=np.float64)
        kernel[i, cols] = weights / weights.sum()
    return kernel


class TestStructure:
    @settings(max_examples=300, deadline=None)
    @given(sparse_kernels())
    def test_match_per_row_searches(self, kernel):
        n = len(kernel)
        fm = FiniteMarkov(tuple(range(n)), kernel, np.full(n, 1.0 / n))
        assert is_irreducible(fm) is irreducible_by_rows(kernel)
        assert is_aperiodic(fm) is aperiodic_by_rows(kernel)

    def test_irreducible(self):
        assert is_irreducible(FiniteMarkov.from_graph(cycle4()))
        assert not is_irreducible(ruin_chain())

    def test_reducible_chain_with_a_pattern_that_is_not_symmetric(self):
        # state 0 reaches 1 and 2, and nothing returns to 0: only the reversed search can see it
        kernel = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        fm = FiniteMarkov((0, 1, 2), kernel, np.full(3, 1 / 3))
        assert not is_irreducible(fm)
        with pytest.raises(ValueError, match="reducible"):
            stationary_measure(fm)
        assert is_irreducible(FiniteMarkov((0, 1, 2), np.roll(np.eye(3), 1, axis=1), np.full(3, 1 / 3)))

    def test_aperiodic(self):
        # the 4-cycle and every tree are bipartite: period 2
        assert not is_aperiodic(FiniteMarkov.from_graph(cycle4()))
        assert not is_aperiodic(FiniteMarkov.from_graph(tree_graph(2)))
        lazy = FiniteMarkov((0, 1), np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))
        assert is_aperiodic(lazy)

    def test_stationary_requires_irreducible(self):
        with pytest.raises(ValueError):
            stationary_measure(ruin_chain())

    def test_ergodic_limit(self):
        lazy = FiniteMarkov(
            (0, 1, 2),
            np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]),
            np.full(3, 1 / 3),
        )
        mu = stationary_measure(lazy)
        f = np.array([1.0, -2.0, 5.0])
        limit = ergodic_limit(lazy, f)
        assert np.max(np.abs(limit - float(mu @ f))) <= 1e-9

    def test_ergodic_limit_periodic_raises(self):
        fm = FiniteMarkov.from_graph(cycle4())
        f = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ArithmeticError):
            ergodic_limit(fm, f, max_steps=500)

    def test_ergodic_limit_on_a_tree_raises_at_once(self):
        # every tree walk has period 2; without the class-mean check this ran 100000 kernel products
        fm = FiniteMarkov.from_graph(tree_graph(8))
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="period 2"):
            ergodic_limit(fm, np.arange(len(fm.states), dtype=float))
        assert time.perf_counter() - start < 1.0

    def test_ergodic_limit_periodic_with_equal_class_means(self):
        # period 2 with classes {0, 2} and {1, 3}; mu = (5, 3, 5, 7) / 20 and f has mean 2.4 on each class
        fm = FiniteMarkov.from_graph(cycle4())
        f = np.array([1.4, 1.0, 3.4, 3.0])
        assert abs(ergodic_limit(fm, f) - 2.4) <= 1e-10


class TestSimulate:
    def test_trajectory_shape_and_support(self):
        fm = FiniteMarkov.from_graph(cycle4())
        ens = simulate(fm, 8, 500, 11)
        # n_steps counts transitions; trajectories carry n_steps + 1 states
        assert ens.trajectories.shape == (500, 9)
        assert ens.n_paths == 500 and ens.n_steps == 8
        assert ens.trajectories.min() >= 0 and ens.trajectories.max() <= 3

    def test_steps_follow_kernel_support(self):
        fm = FiniteMarkov.from_graph(cycle4())
        traj = simulate(fm, 16, 2000, 5).trajectories
        for a, b in zip(traj[:, :-1].ravel(), traj[:, 1:].ravel()):
            assert fm.kernel[a, b] > 0

    def test_seed_reproducibility(self):
        fm = FiniteMarkov.from_graph(cycle4())
        a = simulate(fm, 8, 1000, 99).trajectories
        b = simulate(fm, 8, 1000, 99).trajectories
        c = simulate(fm, 8, 1000, 100).trajectories
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_thread_count_does_not_change_samples(self, monkeypatch, split_blocks):
        fm = FiniteMarkov.from_graph(cycle4())
        monkeypatch.delenv("SPECTRAL_WALKS_THREADS", raising=False)
        base = simulate(fm, 10, 3333, 7).trajectories
        plans = split_blocks("5")
        threaded = simulate(fm, 10, 3333, 7).trajectories
        assert np.array_equal(base, threaded)
        assert plans.all_split()

    def test_marginal_matches_mu0(self):
        fm = FiniteMarkov.from_graph(cycle4())
        z0 = simulate(fm, 1, 40000, 123).trajectories[:, 0]
        counts = np.bincount(z0, minlength=4) / 40000
        for i in range(4):
            se = math.sqrt(fm.mu0[i] * (1 - fm.mu0[i]) / 40000)
            assert abs(counts[i] - fm.mu0[i]) <= 5 * se


class TestExactKernelArithmetic:
    def test_cylinder_mass_total(self):
        fm = FiniteMarkov.from_graph(cycle4())
        assert abs(cylinder_mass(fm, [list(range(4))] * 5) - 1.0) <= 1e-12

    def test_cylinder_mass_single_path(self):
        fm = FiniteMarkov.from_graph(cycle4())
        # mu0(0) p(0,1) p(1,2)
        want = fm.mu0[0] * fm.kernel[0, 1] * fm.kernel[1, 2]
        assert abs(cylinder_mass(fm, [[0], [1], [2]]) - want) <= 1e-15

    def test_cylinder_mass_names_an_unknown_state(self):
        with pytest.raises(ValueError, match=r"^state 9 of E_1 is not a chain state$"):
            cylinder_mass(ruin_chain(), [[0], [1, 9], [2]])

    def test_covariance_exact_is_stationary_invariant(self):
        fm = FiniteMarkov.from_graph(cycle4())
        f1 = {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}
        f2 = {0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0}
        vals = [covariance_exact(fm, f1, f2, n) for n in range(5)]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-14


@st.composite
def sample_arrays(draw):
    """float64 samples, 2 to 5000 of them, as numpy's mean and std see them in the wild.

    Magnitudes run from 1e-300 to 1e300, per array or mixed within one;
    some arrays are constant, some hold NaN or +-inf, and some are strided
    views: the .real of a complex array, or every third entry.
    """
    n = draw(st.integers(2, 5000))
    rs = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["scaled", "mixed", "constant"]))
    if kind == "constant":
        x = np.full(n, draw(st.floats(allow_nan=False, allow_infinity=False)))
    elif kind == "mixed":
        x = rs.standard_normal(n) * 10.0 ** rs.uniform(-300, 300, n)
    else:
        scale = 10.0 ** draw(st.integers(-300, 300))
        x = (rs.standard_normal(n) + draw(st.floats(-1e3, 1e3))) * scale
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        x[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    view = draw(st.sampled_from(["contiguous", "real", "every_third"]))
    if view == "real":
        z = np.empty(n, dtype=np.complex128)
        z.real, z.imag = x, rs.random(n)
        return z.real
    if view == "every_third":
        y = rs.random(3 * n)
        y[::3] = x
        return y[::3]
    return x


def same_bits(a, b):
    """Equal as IEEE doubles, the sign of a zero included; any NaN equals any NaN."""
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


class TestChecks:
    def test_sigma_rule(self):
        assert CheckRow("a", 1.0, 1.0, 0.0).sigmas == 0.0
        assert CheckRow("b", 2.0, 1.0, 0.0).sigmas == math.inf
        assert CheckRow("c", 2.0, 1.0, 0.5).sigmas == 2.0

    def test_row_gate(self):
        assert CheckRow("a", 1.0, 1.0, 0.0).passed
        assert CheckRow("b", 3.5, 1.0, 0.5).passed  # exactly 5 sigma
        assert not CheckRow("c", 3.5 + 1e-9, 1.0, 0.5).passed
        assert not CheckRow("d", 2.0, 1.0, 0.0).passed
        for row in (CheckRow("e", math.nan, 1.0, 0.5), CheckRow("f", 2.0, 1.0, math.nan)):
            assert math.isnan(row.sigmas) and not row.passed

    def test_report_gate_is_order_independent_and_fails_nan(self):
        nan_row, fine = CheckRow("n", math.nan, 0.0, 1.0), CheckRow("a", 1.0, 0.0, 1.0)
        for rows in ((nan_row, fine), (fine, nan_row)):
            rep = CheckReport(rows=rows)
            assert not rep.passed
            assert math.isnan(rep.max_sigmas)
        assert CheckReport(rows=(fine, CheckRow("b", 3.0, 0.0, 1.0))).max_sigmas == 3.0
        assert CheckReport(rows=()).passed and CheckReport(rows=()).max_sigmas == 0.0

    def test_threshold_is_the_package_constant(self):
        assert CheckReport(rows=()).threshold == walks.SIGMA_THRESHOLD == 5.0
        with pytest.raises(TypeError):
            CheckReport(rows=(), threshold=50.0)

    def test_mean_se(self):
        samples = np.array([1.0, 2.0, 4.0, 9.0])
        assert mean_se(samples) == (float(samples.mean()), float(samples.std(ddof=1) / 2.0))
        for few in (np.array([3.0]), np.array([])):
            with pytest.raises(ValueError, match="at least 2 samples"):
                mean_se(few)

    @settings(max_examples=200, deadline=None)
    @given(x=sample_arrays())
    def test_mean_se_bits_equal_numpy(self, x):
        with np.errstate(all="ignore"):
            got = mean_se(x)
            want = (float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x))))
        assert [same_bits(a, b) for a, b in zip(got, want)] == [True, True]

    def test_grouped_checks_refuse_fewer_than_two_visits(self):
        fm = FiniteMarkov.from_graph(cycle4())
        ens = simulate(fm, 4, 200, 8)
        f = {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}
        for min_visits in (1, 0):
            with pytest.raises(ValueError, match="min_visits"):
                markov_check(ens, fm, f, 1, min_visits=min_visits)
            with pytest.raises(ValueError, match="min_visits"):
                martingale_check(ens, f, min_visits=min_visits)

    def test_covariance_mc_within_5_se(self):
        fm = FiniteMarkov.from_graph(cycle4())
        ens = simulate(fm, 6, 50000, 2718)
        f1 = {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}
        f2 = {0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0}
        for n in (0, 1, 4):
            exact = covariance_exact(fm, f1, f2, n)
            est, se = covariance_mc(ens, f1, f2, n)
            assert abs(est - exact) <= 5 * se

    @settings(max_examples=60, deadline=None)
    @given(g=graphs(), seed=st.integers(0, (1 << 64) - 1), n=st.integers(0, 4), data=st.data())
    def test_covariance_mc_equals_the_gather_formula(self, g, seed, n, data):
        fm = FiniteMarkov.from_graph(g)
        ens = simulate(fm, 5, 200, seed)
        values = st.floats(-10, 10, allow_nan=False)
        f1, f2 = ({s: data.draw(values) for s in fm.states} for _ in range(2))
        v1, v2 = fm.as_vector(f1), fm.as_vector(f2)
        want = mean_se(v1[ens.trajectories[:, n]] * v2[ens.trajectories[:, n + 1]])
        assert [x.hex() for x in covariance_mc(ens, f1, f2, n)] == [x.hex() for x in want]

    def test_evaluate_refuses_steps_outside_the_walk(self):
        fm = FiniteMarkov.from_graph(cycle4())
        ens = simulate(fm, 3, 10, 1)
        f = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        for step in (-1, -4, 4):
            with pytest.raises(ValueError, match=rf"^step {step} is outside 0\.\.3$"):
                ens.evaluate(f, step)
        assert ens.evaluate(f, 3).tolist() == [f[s] for s in ens.trajectories[:, 3].tolist()]

    def test_covariance_mc_bounds(self):
        fm = FiniteMarkov.from_graph(cycle4())
        ens = simulate(fm, 3, 100, 1)
        f = {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}
        with pytest.raises(ValueError):
            covariance_mc(ens, f, f, 3)

    def test_markov_check_passes(self):
        fm = FiniteMarkov.from_graph(cycle4())
        ens = simulate(fm, 6, 30000, 314)
        f = {0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0}
        rep = markov_check(ens, fm, f, 2)
        assert rep.passed
        assert rep.max_sigmas <= 5.0

    @pytest.mark.parametrize("n", [-1, 6])
    def test_markov_check_refuses_a_step_outside_the_ensemble(self, n):
        # n = -1 would pair the last step with the first; n = n_steps has no next step
        fm = FiniteMarkov.from_graph(cycle4())
        ens = simulate(fm, 6, 200, 1)
        with pytest.raises(ValueError, match=r"^need 0 <= n <= n_steps - 1$"):
            markov_check(ens, fm, {0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0}, n)

    def test_markov_check_skips_rare_states(self):
        fm = FiniteMarkov.from_graph(cycle4()).with_start(0)
        ens = simulate(fm, 3, 150, 3)
        rep = markov_check(ens, fm, {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}, 1, min_visits=100)
        # from a point start only some states accumulate 100 visits by step 1
        assert rep.skipped


class TestHarmonic:
    def test_gambler_ruin_closed_form(self):
        h = harmonic_solve(ruin_chain(), {0: 0.0, 4: 1.0})
        for k in range(5):
            assert abs(h[k] - k / 4) <= 1e-12

    def test_solution_is_harmonic_on_interior(self):
        fm = FiniteMarkov.from_graph(tree_graph(2))
        leaves = {s: float(len(s) == 2) for s in fm.states if len(s) == 2}
        h = harmonic_solve(fm, leaves)
        hv = fm.as_vector(h)
        th = fm.kernel @ hv
        for i, s in enumerate(fm.states):
            if len(s) < 2:
                assert abs(th[i] - hv[i]) <= 1e-12

    def test_boundary_values_kept(self):
        h = harmonic_solve(ruin_chain(), {0: -2.0, 4: 6.0})
        assert h[0] == -2.0 and h[4] == 6.0

    def test_singular_interior_raises(self):
        # absorbing states outside the boundary make I - P_II singular
        for boundary in ({2: 1.0}, {0: 0.0}):
            with pytest.raises(ValueError, match="interior system is singular"):
                harmonic_solve(ruin_chain(), boundary)

    def test_unknown_boundary_state(self):
        with pytest.raises(ValueError):
            harmonic_solve(ruin_chain(), {9: 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_boundary_value(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            harmonic_solve(ruin_chain(), {0: 0.0, 4: bad})

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4, 1e6, 1e12])
    def test_residual_bound_scales_with_the_boundary_values(self, scale):
        # with a bound of 1e-12 absolute, 1e4 raised at 1.6e-12 and 1e6 at 1.7e-10 on this chain
        chain, far = absorbing_ends()
        h = harmonic_solve(chain, {0: 0.0, far: scale})
        hv = chain.as_vector(h)
        assert h[0] == 0.0 and h[far] == scale and np.all((hv >= 0.0) & (hv <= scale))
        interior = np.ones(len(chain), dtype=bool)
        interior[[0, far]] = False
        assert np.max(np.abs((chain.kernel @ hv - hv)[interior])) <= 1e-12 * scale

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_residual_check_catches_a_perturbed_state(self, scale, monkeypatch):
        chain, far = absorbing_ends()
        h = chain.as_vector(harmonic_solve(chain, {0: 0.0, far: scale}))
        at = int(np.argmax(np.where(np.isin(np.arange(len(chain)), [0, far]), -1.0, h)))
        solve = walks._solve

        def perturbed(fm, interior, values):
            x = solve(fm, interior, values)
            x[np.cumsum(interior)[at] - 1] *= 1.0 + 1e-9
            return x

        monkeypatch.setattr(walks, "_solve", perturbed)
        with pytest.raises(ArithmeticError, match="harmonic residual"):
            harmonic_solve(chain, {0: 0.0, far: scale})

    @pytest.mark.parametrize("value", [1e-300, 2.2e-313, 5e-324])
    def test_tiny_boundary_values_pass(self, value):
        # below the smallest normal float the residual's rounding is absolute, so the bound stops at 1e-12 of it
        h = harmonic_solve(ruin_chain(), {0: 0.0, 4: value})
        assert h[4] == value and all(0.0 <= h[k] <= value for k in range(5))

    def test_zero_boundary_values_give_zero_exactly(self):
        chain, far = absorbing_ends()
        assert set(harmonic_solve(chain, {0: 0.0, far: 0.0}).values()) == {0.0}


def _non_finite_entry_points():
    """Every public route by which a state function enters the walks layer, as (fm, ens, f) -> call."""
    return {
        "FiniteMarkov.as_vector": lambda fm, ens, f: fm.as_vector(f),
        "PathEnsemble.as_vector": lambda fm, ens, f: ens.as_vector(f),
        "PathEnsemble.evaluate": lambda fm, ens, f: ens.evaluate(f, 1),
        "transfer": lambda fm, ens, f: fm.transfer(f),
        "ergodic_limit": lambda fm, ens, f: ergodic_limit(fm, f),
        "covariance_exact": lambda fm, ens, f: covariance_exact(fm, fm.as_vector(np.ones(len(fm))), f, 1),
        "covariance_mc": lambda fm, ens, f: covariance_mc(ens, f, np.ones(len(fm)), 1),
        "markov_check": lambda fm, ens, f: markov_check(ens, fm, f, 1, min_visits=2),
        "martingale_check": lambda fm, ens, f: martingale_check(ens, f, min_visits=2),
        "doob_boundary_check": lambda fm, ens, f: doob_boundary_check(fm, f, 2, 10, 1),
    }


class TestNonFiniteStateFunctions:
    """A NaN or infinite value of a state function is refused where it enters, before any sampling or iteration.

    Without the check, tree_graph(6) with one NaN value ran ergodic_limit through 100000 kernel
    products before saying "did not flatten", and the covariances came back NaN.
    """

    @pytest.mark.parametrize("entry", sorted(_non_finite_entry_points()))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("form", ["dict", "array"])
    def test_refused(self, entry, bad, form):
        fm = FiniteMarkov.from_graph(tree_graph(6))
        ens = simulate(fm, 3, 50, 1)
        f = {x: float(len(x)) for x in fm.states}
        f[fm.states[40]] = bad
        if form == "array":
            f = np.array([f[x] for x in fm.states])
        with pytest.raises(ValueError, match="^state function has a non-finite value$"):
            _non_finite_entry_points()[entry](fm, ens, f)


class TestMartingale:
    def test_harmonic_passes(self):
        ens = simulate(ruin_chain(), 16, 40000, 77)
        rep = martingale_check(ens, {k: k / 4 for k in range(5)})
        assert rep.passed and rep.max_sigmas <= 5.0

    def test_non_harmonic_fails(self):
        ens = simulate(ruin_chain(), 16, 40000, 77)
        rep = martingale_check(ens, {k: float(k == 2) for k in range(5)})
        assert not rep.passed

    def test_ensemble_without_transitions_is_refused(self):
        # zero steps leave every state untested, and an empty report would pass a non-harmonic h
        ens = simulate(ruin_chain(), 0, 40000, 77)
        with pytest.raises(ValueError, match="no transitions"):
            martingale_check(ens, {k: float(k == 2) for k in range(5)})

    def test_doob_boundary(self):
        rep = doob_boundary_check(ruin_chain(), {k: k / 4 for k in range(5)}, 12, 3000, 55)
        assert rep.passed

    def test_doob_boundary_needs_two_paths(self):
        # one path per start has no standard error, and a NaN row must not pass a non-harmonic h
        with pytest.raises(ValueError, match="at least 2 samples"):
            doob_boundary_check(ruin_chain(), {k: float(k == 2) for k in range(5)}, 12, 1, 5)
        with pytest.raises(TypeError):
            doob_boundary_check(ruin_chain(), {k: k / 4 for k in range(5)}, 12, 100, 5, min_visits=2)

    def test_doob_boundary_matches_per_state_ensembles(self, monkeypatch):
        # reference: one simulate(fm.with_start(x), ...) per state, on the stream (seed, state index)
        fm = FiniteMarkov.from_graph(tree_graph(8))
        h = {x: float(len(x) % 3) - 0.5 for x in fm.states}
        n_steps, n_paths, seed = 4, 60, 91
        vec = fm.as_vector(h)
        want = []
        for i, x in enumerate(fm.states):
            ends = vec[simulate(fm.with_start(x), n_steps, n_paths, derive_key(seed, i)).trajectories[:, n_steps]]
            se = float(ends.std(ddof=1) / math.sqrt(n_paths))
            want.append((str(x), float(ends.mean()).hex(), float(vec[i]).hex(), se.hex()))
        # every start's chain shares fm's arc table, running sums included, so the check builds no table
        tables = []
        inner = walks._arc_table
        monkeypatch.setattr(walks, "_arc_table", lambda *table: tables.append(table) or inner(*table))
        rep = doob_boundary_check(fm, h, n_steps, n_paths, seed)
        assert [(r.label, r.estimate.hex(), r.exact.hex(), r.se.hex()) for r in rep.rows] == want
        assert tables == []


# ---------------------------------------------------------------- the elimination solve

@st.composite
def solve_chains(draw):
    """Irreducible kernels: random supports around a directed cycle, or paths and cycles numbered in sequence.

    Weights differ by direction, so most kernels are not reversible, and any state may hold a lazy self-loop.
    """
    kind = draw(st.sampled_from(["random", "path", "cycle"]))
    n = draw(st.integers(1, 14) if kind == "random" else st.integers(3, 60))
    weights = np.zeros((n, n))
    if kind == "random":
        # the cycle 0 -> 1 -> .. -> n-1 -> 0 keeps every support irreducible
        for i in range(n):
            weights[i, (i + 1) % n] = draw(st.integers(1, 9))
            for j in draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True)):
                weights[i, j] = draw(st.integers(1, 9))
    else:
        for i in range(n):
            for j in (i - 1, i + 1):
                if kind == "cycle" or 0 <= j < n:
                    weights[i, j % n] = draw(st.integers(1, 9))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)):
        weights[i, i] += draw(st.integers(1, 9))
    return FiniteMarkov(tuple(range(n)), weights / weights.sum(axis=1, keepdims=True), np.full(n, 1.0 / n))


def dense_stationary_system(fm):
    """I - P^T with its last row replaced by ones, and the last unit vector."""
    n = len(fm)
    a = np.eye(n) - fm.kernel.T
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return a, b


def dense_harmonic_system(fm, interior, h):
    """(I - P_II, P_IB h_B, _system's own P_IB h_B, the forming error) for the boundary values h off the interior.

    The right side here is a BLAS dot and _system's is a bincount of the same products in arc order.
    Row x of either is a sum of m terms p(x, y) h(y), m at most the boundary count, so each lies within
    gamma_m sum_y |p(x, y)| |h(y)| of the exact value, gamma_m = m u / (1 - m u) with u = eps / 2
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1; an FMA kernel rounds no more).
    The two therefore differ by at most 2 gamma_m times that sum, which N eps bounds for N, the state
    count, at least m + 1.  Where the terms cancel, that difference is the whole right side: one
    interior state with p(x, 5) = 2 p(x, 6), h = -2.5 at 5 and 5 at 6, has b = 0 exactly, which the
    bincount forms and the dot misses by 2.8e-17 or 5.6e-17.
    """
    inner = np.flatnonzero(interior)
    p_ib = fm.kernel[inner][:, ~interior]
    forming = len(h) * np.finfo(float).eps * np.max(np.abs(p_ib) @ np.abs(h[~interior]))
    a = np.eye(len(inner)) - fm.kernel[np.ix_(inner, inner)]
    return a, p_ib @ h[~interior], walks._system(fm, interior, h)[4], forming


def interiors(fm, draw):
    """A boundary of 1 to n - 1 states with values in [-5, 5], as (interior mask, h)."""
    n = len(fm)
    boundary = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    interior = np.ones(n, dtype=bool)
    interior[boundary] = False
    h = np.zeros(n)
    # no subnormals: they carry no relative precision for the solves to agree to
    h[boundary] = draw(st.lists(st.floats(-5, 5, allow_subnormal=False), min_size=len(boundary), max_size=len(boundary)))
    return interior, h


def assert_agrees_with_the_dense_solve(x, a, b, formed=None, forming=0.0):
    """x solves a x = b to n eps plus b's forming error, and is within 1e-12 relative of np.linalg.solve(a, formed).

    formed is the right side that _system formed and x solves (b when None: the stationary b is
    exact); it differs from b by at most forming (see dense_harmonic_system), so the residual against
    b may exceed the backward-error bound by that much.  The dense solve is given formed, the same
    right side, since where b's terms cancel to 0 one side may be 0 and the other not.  Both solves
    are backward stable, so they may differ by n eps times the condition number of a; a drifting
    path is that ill conditioned (its measure spans decades), and there the bound widens to that
    forward-error bound.  Against the rational solution, on 30 paths and cycles of 30-60 states, the
    elimination was off by at most 4.3e-12 relative and np.linalg.solve by 1.1e-11.
    """
    n, eps = len(b), np.finfo(float).eps
    scale = np.max(np.abs(x))
    bound = n * eps * (np.max(np.abs(a).sum(axis=1)) * scale + np.max(np.abs(b))) + forming
    assert np.max(np.abs(a @ x - b)) <= bound
    want = np.linalg.solve(a, b if formed is None else formed)
    assert np.max(np.abs(x - want)) <= max(1e-12, n * eps * np.linalg.cond(a, np.inf)) * np.max(np.abs(want))


class TestEliminationSolve:
    @settings(max_examples=150, deadline=None)
    @given(fm=solve_chains(), data=st.data())
    def test_agrees_with_the_dense_solve(self, fm, data):
        assert_agrees_with_the_dense_solve(walks._solve(fm), *dense_stationary_system(fm))
        if len(fm) > 1:
            interior, h = interiors(fm, data.draw)
            assume(np.any(h != 0.0))
            assert_agrees_with_the_dense_solve(walks._solve(fm, interior, h), *dense_harmonic_system(fm, interior, h))

    def test_right_side_that_cancels_to_zero(self):
        # b = p(2, 5) h(5) + p(2, 6) h(6) is exactly 0; the elimination forms 0, the dense dot a few 1e-17
        weights = np.eye(7, k=1) + np.eye(7, k=-6)
        weights[2] = [1, 0, 0, 3, 0, 2, 1]
        fm = FiniteMarkov(tuple(range(7)), weights / weights.sum(axis=1, keepdims=True), np.full(7, 1 / 7))
        interior = np.arange(7) == 2
        h = np.array([0, 0, 0, 0, 0, -2.5, 5.0])
        x = walks._solve(fm, interior, h)
        assert x.tolist() == [0.0]
        assert_agrees_with_the_dense_solve(x, *dense_harmonic_system(fm, interior, h))

    @settings(max_examples=150, deadline=None)
    @given(fm=solve_chains(), data=st.data())
    def test_eliminated_set_is_maximal_independent_with_positive_pivots(self, fm, data):
        systems = [walks._system(fm)]
        if len(fm) > 1:
            systems.append(walks._system(fm, *interiors(fm, data.draw)))
        for r, c, v, pivot, b in systems:
            out = walks._independent_set(r, c, pivot > 0)
            assert np.all(pivot[out] > 0)
            # independent: no entry joins two eliminated unknowns; maximal: each eligible one left has an eliminated neighbour
            assert not np.any(out[r] & out[c])
            touched = np.zeros(len(b), dtype=bool)
            touched[np.concatenate((r[out[c]], c[out[r]]))] = True
            assert np.all(out | touched | (pivot <= 0))
        # the normalization row's state is never eligible: its row is the sum of all unknowns, not its own balance
        assert systems[0][3][-1] == 0.0

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_sequential_numbering_still_loses_a_third(self, kind):
        n = 1000
        kernel = np.zeros((n, n))
        for i in range(n):
            ahead, back = (i + 1) % n, (i - 1) % n
            if kind == "path" and i in (0, n - 1):
                kernel[i, 1 if i == 0 else n - 2] = 1.0
            else:
                kernel[i, ahead], kernel[i, back] = 0.3, 0.7
        fm = FiniteMarkov(tuple(range(n)), kernel, np.full(n, 1.0 / n))
        interior = np.ones(n, dtype=bool)
        interior[[0, n // 2]] = False
        for system in (walks._system(fm), walks._system(fm, interior, np.where(interior, 0.0, 1.0))):
            r, c, _, pivot, b = system
            assert walks._independent_set(r, c, pivot > 0).sum() >= len(b) / 3
        mu = stationary_measure(fm)
        assert np.max(np.abs(mu - np.linalg.solve(*dense_stationary_system(fm)))) <= 1e-12 * np.max(mu)

    @settings(max_examples=150, deadline=None)
    @given(sparse_kernels())
    def test_reducible_chains_still_raise(self, kernel):
        n = len(kernel)
        fm = FiniteMarkov(tuple(range(n)), kernel, np.full(n, 1.0 / n))
        if irreducible_by_rows(kernel):
            mu = stationary_measure(fm)
            assert np.max(np.abs(mu @ kernel - mu)) <= 1e-12
        else:
            with pytest.raises(ValueError, match="reducible"):
                stationary_measure(fm)

    def test_singular_interior_reaches_lapack(self):
        # interior 1 <-> 2 swap with no way out: eliminating one leaves an exact zero pivot for the other
        kernel = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
        fm = FiniteMarkov(tuple(range(4)), kernel, np.full(4, 0.25))
        with pytest.raises(ValueError, match="interior system is singular"):
            harmonic_solve(fm, {0: 0.0, 3: 1.0})


# ---------------------------------------------------------------- rational oracle for the exact cells

def ulps(got, want):
    """|got - want| in units of the last place of float(want), the correctly rounded value."""
    return abs(got - float(want)) / math.ulp(float(want))


class TestRationalOracle:
    """covariance_exact and stationary_measure against the same quantities in Fraction arithmetic.

    The rational chain has p(x, y) = c(x, y) / c(x) and mu0 = c / sum c exactly; the float chain rounds
    both once, so each cell carries that input rounding as well as its own.  Measured maxima: 2.0 ulp
    for the covariance cells (lags 0-8 of walk sim's three pairs) on both graphs; for the stationary
    cells 1 ulp on cycle4 and 61 on the tree, where the leaves' small masses put the LU's absolute
    error of 29 ulp of the largest mass into many of their own ulps (the dense LU this solve
    replaced reached 129).
    """

    COVARIANCE_ULPS = 4
    STATIONARY_ULPS = 128

    @pytest.mark.parametrize("make", [cycle4, lambda: tree_with_chords(5, 16)], ids=["cycle4", "tree63"])
    def test_cells_within_the_stated_ulps(self, make):
        g = make()
        fm = FiniteMarkov.from_graph(g)
        rows = {x: [(y, Fraction(c, g.total[x])) for y, c in g.adjacency[x]] for x in g.vertices}
        total = sum(g.total.values())
        pi = {x: Fraction(g.total[x], total) for x in g.vertices}
        mu = stationary_measure(fm)
        assert max(ulps(mu[fm.index[x]], pi[x]) for x in g.vertices) <= self.STATIONARY_ULPS
        funcs = {"origin": {x: int(x == g.origin) for x in g.vertices}, "distance": dict(g.distance)}

        def transfer(f):
            return {x: sum(p * f[y] for y, p in rows[x]) for x in g.vertices}

        for a, b in (("origin", "origin"), ("origin", "distance"), ("distance", "distance")):
            tb = transfer(funcs[b])
            exact = {x: funcs[a][x] * tb[x] for x in g.vertices}
            for n in range(9):
                got = covariance_exact(fm, funcs[a], funcs[b], n)
                assert ulps(got, sum(pi[x] * exact[x] for x in g.vertices)) <= self.COVARIANCE_ULPS, (a, b, n)
                exact = transfer(exact)
