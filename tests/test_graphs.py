"""Weighted graph axioms and the exact operator identities."""

import math
from collections import deque
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_walks import graphs
from spectral_walks.tree import common_prefix_length, dipole_function, tree_graph
from spectral_walks.graphs import (
    GraphError,
    WeightedGraph,
    load_graph,
    laplacian_apply,
    transfer_apply,
    l2_inner,
    energy_inner,
    quadratic_form_l2,
    quadratic_form_energy,
    conductance_mean,
)


def square(c01=2, c12=3, c23=1, c30=5):
    return load_graph(
        {
            "vertices": [0, 1, 2, 3],
            "edges": [
                {"u": 0, "v": 1, "c": c01},
                {"u": 1, "v": 2, "c": c12},
                {"u": 2, "v": 3, "c": c23},
                {"u": 3, "v": 0, "c": c30},
            ],
            "origin": 0,
        }
    )


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            load_graph({"vertices": [0], "edges": [{"u": 0, "v": 0, "c": 1}], "origin": 0})

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            load_graph(
                {
                    "vertices": [0, 1, 2, 3],
                    "edges": [{"u": 0, "v": 1, "c": 1}, {"u": 2, "v": 3, "c": 1}],
                    "origin": 0,
                }
            )

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError):
            load_graph({"vertices": [0, 1, 2], "edges": [{"u": 0, "v": 1, "c": 1}], "origin": 0})

    def test_nonpositive_conductance_rejected(self):
        for bad in (0, -1, -0.5):
            with pytest.raises(GraphError, match="conductance"):
                load_graph({"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "c": bad}], "origin": 0})

    def test_nan_conductance_rejected(self):
        with pytest.raises(GraphError):
            load_graph({"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "c": float("nan")}], "origin": 0})

    def test_infinite_conductance_rejected(self, tmp_path):
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(GraphError, match="non-finite"):
                load_graph({"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "c": bad}], "origin": 0})
        # json parses the bare tokens Infinity and NaN into floats
        for token in ("Infinity", "NaN"):
            p = tmp_path / f"{token}.json"
            p.write_text('{"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "c": %s}], "origin": 0}' % token)
            with pytest.raises(GraphError, match="conductance"):
                load_graph(str(p))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            load_graph({"vertices": [0, 0, 1], "edges": [{"u": 0, "v": 1, "c": 1}], "origin": 0})

    def test_missing_origin_rejected(self):
        with pytest.raises(GraphError, match="origin"):
            load_graph({"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "c": 1}], "origin": 9})

    def test_edge_endpoint_missing(self):
        with pytest.raises(GraphError):
            load_graph({"vertices": [0, 1], "edges": [{"u": 0, "v": 7, "c": 1}], "origin": 0})

    def test_conflicting_duplicate_edge(self):
        with pytest.raises(GraphError, match="symmetry"):
            load_graph(
                {
                    "vertices": [0, 1],
                    "edges": [{"u": 0, "v": 1, "c": 1}, {"u": 1, "v": 0, "c": 2}],
                    "origin": 0,
                }
            )

    def test_document_shape(self):
        with pytest.raises(GraphError):
            load_graph({"vertices": [0, 1], "origin": 0})
        with pytest.raises(GraphError):
            load_graph([1, 2, 3])
        with pytest.raises(GraphError):
            load_graph({"vertices": [], "edges": [], "origin": 0})

    def test_malformed_edge_record(self):
        with pytest.raises(GraphError):
            load_graph({"vertices": [0, 1], "edges": [[0, 1, 1]], "origin": 0})

    def test_load_from_file(self, tmp_path):
        doc = '{"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "c": 2}], "origin": 0}'
        p = tmp_path / "g.json"
        p.write_text(doc)
        g = load_graph(str(p))
        assert g.total[0] == 2 and g.total[1] == 2


class TestOperators:
    """The Laplacian, the transfer operator, and their exact couplings."""

    def test_laplacian_definition(self):
        # Lf(x) = sum_y c(x,y) (f(x) - f(y)), checked entry by entry
        g = square()
        f = {0: 1, 1: 0, 2: 0, 3: 0}
        lap = laplacian_apply(g, f)
        assert lap[0] == 2 + 5  # both incident conductances
        assert lap[1] == -2
        assert lap[2] == 0
        assert lap[3] == -5

    def test_laplacian_factors_through_transfer(self):
        g = square()
        f = {0: 0, 1: Fraction(1, 3), 2: 2, 3: Fraction(-5, 7)}
        lap = laplacian_apply(g, f)
        tf = transfer_apply(g, f)
        for x in g.vertices:
            assert lap[x] == g.total[x] * (f[x] - tf[x])

    def test_transfer_rows_are_markov(self):
        g = square()
        ones = {x: 1 for x in g.vertices}
        assert transfer_apply(g, ones) == ones

    def test_transfer_preserves_conductance_mean(self):
        g = square()
        f = {0: 3, 1: Fraction(-1, 2), 2: 0, 3: 10}
        assert conductance_mean(g, transfer_apply(g, f)) == conductance_mean(g, f)

    def test_l2_self_adjointness_exact(self):
        g = square()
        u = {0: 1, 1: Fraction(-2, 5), 2: 0, 3: 4}
        v = {0: 0, 1: Fraction(1, 3), 2: 2, 3: Fraction(-5, 7)}
        assert l2_inner(g, u, laplacian_apply(g, v)) == l2_inner(g, laplacian_apply(g, u), v)

    def test_quadratic_forms_match_inner_product_routes(self):
        g = square()
        f = {0: 0, 1: Fraction(1, 3), 2: 2, 3: Fraction(-5, 7)}
        lap = laplacian_apply(g, f)
        assert quadratic_form_l2(g, f) == l2_inner(g, f, lap)
        assert quadratic_form_energy(g, f) == energy_inner(g, f, lap)

    def test_forms_nonnegative(self):
        g = square()
        for f in (
            {0: 1.0, 1: -2.0, 2: 0.25, 3: 0.0},
            {0: 0, 1: 1, 2: 1, 3: 1},
            {0: 1j, 1: -1j, 2: 1 + 1j, 3: 0},
        ):
            ql = quadratic_form_l2(g, f)
            qe = quadratic_form_energy(g, f)
            assert (ql.real if isinstance(ql, complex) else ql) >= -1e-12
            assert (qe.real if isinstance(qe, complex) else qe) >= -1e-12

    def test_dirac_energy_norm(self):
        # with the halved double-sum convention, ||delta_x||_E^2 = c(x)
        g = square()
        for x in g.vertices:
            d = {y: (1 if y == x else 0) for y in g.vertices}
            assert energy_inner(g, d, d) == g.total[x]

    def test_reproducing_against_increments(self):
        # <delta_x - delta_o at unit c> telescopes: <v, f>_E = f(x) - f(o)
        # is exercised in the tree tests; here check sesquilinearity instead
        g = square()
        u = {0: 1, 1: 2, 2: 0, 3: 1}
        v = {0: 0, 1: 1, 2: 1, 3: 0}
        w = {0: 2, 1: 0, 2: 1, 3: 1}
        assert energy_inner(g, u, {x: v[x] + w[x] for x in g.vertices}) == (
            energy_inner(g, u, v) + energy_inner(g, u, w)
        )
        assert energy_inner(g, u, {x: 3 * v[x] for x in g.vertices}) == 3 * energy_inner(g, u, v)

    def test_energy_inner_by_hand(self):
        g = square(c01=1, c12=1, c23=1, c30=1)
        f = {0: 0, 1: 1, 2: 3, 3: 2}
        # edges (0,1),(1,2),(2,3),(3,0): increments 1,2,-1,-2 against itself
        assert energy_inner(g, f, f) == 1 + 4 + 1 + 4

    def test_energy_inner_conjugates_first_argument(self):
        g = square()
        u = {0: 1j, 1: 0, 2: 0, 3: 0}
        v = {0: 1, 1: 0, 2: 0, 3: 0}
        lhs = energy_inner(g, u, v)
        rhs = energy_inner(g, v, u)
        assert lhs == complex(rhs).conjugate()

    def test_function_validation(self):
        g = square()
        with pytest.raises((GraphError, ValueError)):
            laplacian_apply(g, {0: 1})  # missing vertices
        with pytest.raises((GraphError, ValueError)):
            l2_inner(g, {0: 1, 1: 0, 2: 0, 3: 0, 9: 2}, {0: 0, 1: 0, 2: 0, 3: 0})


def test_graph_accessors():
    g = square()
    assert len(g) == 4
    assert set(dict(g.neighbors(0))) == {1, 3}
    assert g.total == {0: 7, 1: 5, 2: 4, 3: 6}
    assert "WeightedGraph" in repr(g)
    assert g.distance == {0: 0, 1: 1, 2: 2, 3: 1}


# ---------------------------------------------------------------- oracle for the summation rule

class Tally(int):
    """An int subclass: summed exactly, like int."""


def per_term_accumulate(terms):
    """Reference: the summation rule written as one isinstance test per term."""
    def exact(t):
        return isinstance(t, (int, Fraction)) and not isinstance(t, bool)

    if all(exact(t) for t in terms):
        return sum(terms)
    if any(isinstance(t, complex) for t in terms):
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return math.fsum(terms)


def edge_loop_energy(g, f1, f2):
    """Reference: the energy pairing as an explicit loop over edges."""
    terms = []
    for u, v, c in g.edges:
        d1 = f1[u] - f1[v]
        d2 = f2[u] - f2[v]
        terms.append(c * d1.conjugate() * d2)
    return per_term_accumulate(terms)


def value_bits(r):
    """A number's type plus its exact value or float bits."""
    if isinstance(r, complex):
        return (type(r), r.real.hex(), r.imag.hex())
    if isinstance(r, float):
        return (type(r), r.hex())
    return (type(r), r)


def outcome(fn, *args):
    """value_bits of the result, or the exception type raised."""
    try:
        r = fn(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return ("raises", type(exc))
    return value_bits(r)


NUMBERS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.integers(-100, 100).map(Tally),
    st.fractions(max_denominator=10**6),
    st.floats(),
    st.floats().map(np.float64),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
)
CONDUCTANCES = st.one_of(
    st.integers(1, 9),
    st.fractions(min_value=Fraction(1, 7), max_value=7).filter(lambda c: c > 0),
    st.floats(0.125, 8.0),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n), st.integers(0, n - 1))))
def test_dense_bfs_levels_match_a_queue_search(case):
    arcs, source = case
    want = [-1] * len(arcs)
    want[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y, arc in enumerate(arcs[x]):
            if arc and want[y] < 0:
                want[y] = want[x] + 1
                queue.append(y)
    assert graphs._bfs_levels(np.array(arcs), source).tolist() == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestSummationOracle:
    """The type-set summation rule agrees with the per-term rule in value, type and bits."""

    def test_empty_sum_is_int_zero(self):
        assert outcome(graphs._accumulate, []) == outcome(per_term_accumulate, []) == (int, 0)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(NUMBERS, max_size=8))
    def test_accumulate_matches_per_term_rule(self, terms):
        assert outcome(graphs._accumulate, terms) == outcome(per_term_accumulate, terms)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(CONDUCTANCES, min_size=4, max_size=4),
           st.lists(NUMBERS, min_size=4, max_size=4),
           st.lists(NUMBERS, min_size=4, max_size=4))
    def test_energy_inner_matches_edge_loop(self, cs, a, b):
        g = square(*cs)
        f1, f2 = dict(zip(g.vertices, a)), dict(zip(g.vertices, b))
        assert outcome(energy_inner, g, f1, f2) == outcome(edge_loop_energy, g, f1, f2)


# ---------------------------------------------------------------- the batched energy Gram

VALUES = st.one_of(
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6).map(np.float64),
    st.complex_numbers(max_magnitude=1e6),
)
# conductance 1 would hide the product order: 1 * x == x
NON_UNIT_CONDUCTANCES = CONDUCTANCES.filter(lambda c: c != 1)


@st.composite
def cyclic_graphs(draw, conductances=NON_UNIT_CONDUCTANCES):
    """A connected graph on 3-7 vertices with at least one cycle, in random vertex order."""
    n = draw(st.integers(3, 7))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    spanning = set(pairs)
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in spanning]
    pairs |= set(draw(st.lists(st.sampled_from(others), min_size=1, max_size=len(others), unique=True)))
    order = draw(st.permutations(range(n)))
    edges = [(u, v, draw(conductances)) for u, v in draw(st.permutations(sorted(pairs)))]
    return WeightedGraph(order, edges, order[0])


def pairwise_outcomes(g, fs):
    """Reference: energy_inner on every ordered pair, row-major; the first exception ends it."""
    rows = []
    for fj in fs:
        row = []
        for fk in fs:
            got = outcome(energy_inner, g, fj, fk)
            if got[0] == "raises":
                return got
            row.append(got)
        rows.append(row)
    return rows


def gram_outcomes(gram, g, fs):
    try:
        rows = gram(g, fs)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return ("raises", type(exc))
    return [[value_bits(r) for r in row] for row in rows]


def mirrored_gram(g, fs):
    """Mutant: the upper triangle conjugated into the lower one."""
    rows = [[None] * len(fs) for _ in fs]
    for j, fj in enumerate(fs):
        for k in range(j, len(fs)):
            rows[j][k] = energy_inner(g, fj, fs[k])
            rows[k][j] = rows[j][k].conjugate()
    return rows


def reversed_product_gram(g, fs):
    """Mutant: each term multiplied as (d2 * conj d1) * c."""
    return [[graphs._accumulate([(fk[u] - fk[v]) * (fj[u] - fj[v]).conjugate() * c for u, v, c in g.edges])
             for fk in fs] for fj in fs]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEnergyGram:
    """energy_gram entries equal energy_inner's in value, type and bits."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), g=cyclic_graphs(), n=st.integers(0, 4))
    def test_matches_energy_inner_pairwise(self, data, g, n):
        fs = [dict(zip(g.vertices, data.draw(st.lists(VALUES, min_size=len(g), max_size=len(g)))))
              for _ in range(n)]
        assert gram_outcomes(graphs.energy_gram, g, fs) == pairwise_outcomes(g, fs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), g=cyclic_graphs(), n=st.integers(1, 3))
    def test_non_finite_values_raise_like_energy_inner(self, data, g, n):
        wild = st.one_of(VALUES, st.floats(), st.complex_numbers())
        fs = [dict(zip(g.vertices, data.draw(st.lists(wild, min_size=len(g), max_size=len(g)))))
              for _ in range(n)]
        assert gram_outcomes(graphs.energy_gram, g, fs) == pairwise_outcomes(g, fs)

    def test_validates_every_function(self):
        g = square()
        ok = {x: 1 for x in g.vertices}
        with pytest.raises(ValueError, match="vertex set"):
            graphs.energy_gram(g, [ok, {0: 1}])
        assert graphs.energy_gram(g, []) == []

    @pytest.mark.parametrize("mutant", [mirrored_gram, reversed_product_gram])
    def test_oracle_catches_mutants(self, mutant):
        # complex values on non-unit float conductances: both mutants change some bit
        rnd = np.random.default_rng(5)
        caught = 0
        for _ in range(20):
            g = square(*rnd.uniform(0.2, 5.0, 4).tolist())
            fs = [{x: complex(*rnd.normal(size=2)) for x in g.vertices} for _ in range(3)]
            assert gram_outcomes(graphs.energy_gram, g, fs) == pairwise_outcomes(g, fs)
            caught += gram_outcomes(mutant, g, fs) != pairwise_outcomes(g, fs)
        assert caught > 0


# ---------------------------------------------------------------- loader axioms on random documents

def record_by_record(vertices, edges, origin):
    """Reference: the constructor as one pass over the records, checking each as it comes.

    This is the constructor the array checks replaced.  Returns (vertices,
    edges, adjacency, total, distance), with distance in breadth-first
    order, or raises GraphError naming the first broken rule.
    """
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise GraphError("duplicate vertex ids")
    if not vertices:
        raise GraphError("graph has no vertices")
    index = {v: i for i, v in enumerate(vertices)}
    if origin not in index:
        raise GraphError(f"origin {origin!r} is not a vertex")
    adjacency = {v: [] for v in vertices}
    seen = {}
    clean = []
    for record in edges:
        try:
            u, v, c = record
        except (TypeError, ValueError):
            raise GraphError(f"malformed edge record {record!r}") from None
        i = index.get(u)
        j = index.get(v)
        if i is None or j is None:
            raise GraphError(f"edge ({u!r}, {v!r}) has an endpoint that is not a vertex")
        if i == j:
            raise GraphError(f"self-loop at {u!r}")
        valid = (not isinstance(c, bool) and isinstance(c, (int, float, Fraction)) and c > 0
                 and (not isinstance(c, float) or math.isfinite(c)))
        if not valid:
            raise GraphError(f"edge ({u!r}, {v!r}) has a non-positive or non-finite conductance {c!r}")
        key = (i, j) if i < j else (j, i)
        if key in seen:
            if seen[key] != c:
                raise GraphError(
                    f"edge ({u!r}, {v!r}) recorded twice with conflicting "
                    f"conductances {seen[key]!r} and {c!r} (symmetry violation)"
                )
            raise GraphError(f"duplicate edge record for ({u!r}, {v!r})")
        seen[key] = c
        clean.append((u, v, c))
        adjacency[u].append((v, c))
        adjacency[v].append((u, c))
    distance = {origin: 0}
    frontier = deque([origin])
    while frontier:
        x = frontier.popleft()
        for y, _ in adjacency[x]:
            if y not in distance:
                distance[y] = distance[x] + 1
                frontier.append(y)
    if len(distance) != len(vertices):
        missing = next(v for v in vertices if v not in distance)
        raise GraphError(f"graph is not connected ({missing!r} unreachable from origin)")
    for v in vertices:
        if not adjacency[v]:
            raise GraphError(f"isolated vertex {v!r} (c(x) would be zero)")
    total = {v: per_term_accumulate([c for _, c in adjacency[v]]) for v in vertices}
    return vertices, tuple(clean), {v: tuple(a) for v, a in adjacency.items()}, total, distance


def reference_load(doc):
    """Reference: the loader's document rules, then record_by_record on the records in document order."""
    for key in ("vertices", "edges", "origin"):
        if key not in doc:
            raise GraphError(f"graph document missing {key!r}")
    records = []
    for rec in doc["edges"]:
        if not isinstance(rec, dict) or not {"u", "v", "c"} <= set(rec):
            raise GraphError(f"malformed edge record {rec!r}")
        records.append((rec["u"], rec["v"], rec["c"]))
    return record_by_record(doc["vertices"], records, doc["origin"])


def load_outcome(load, doc):
    """The loaded structure with conductances and totals as exact values or bits, or the message."""
    try:
        got = load(doc)
    except GraphError as exc:
        return ("GraphError", str(exc))
    if isinstance(got, WeightedGraph):
        got = (got.vertices, got.edges, got.adjacency, got.total, got.distance)
    vertices, edges, adjacency, total, distance = got
    return (vertices, [(u, v, value_bits(c)) for u, v, c in edges],
            {x: [(y, value_bits(c)) for y, c in a] for x, a in adjacency.items()},
            {x: value_bits(t) for x, t in total.items()}, distance)


JSON_CONDUCTANCES = st.one_of(st.integers(1, 9), st.floats(0.01, 100.0))
VERTEX_IDS = st.one_of(st.integers(-50, 50), st.text("abcxyz", min_size=1, max_size=3))


@st.composite
def graph_documents(draw):
    """A valid document: distinct ids in random order, a spanning tree plus chords, any origin."""
    ids = draw(st.lists(VERTEX_IDS, min_size=2, max_size=8, unique=True))
    n = len(ids)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    pairs += draw(st.lists(st.sampled_from(others), max_size=len(others), unique=True)) if others else []
    edges = []
    for i, j in draw(st.permutations(pairs)):
        u, v = (ids[i], ids[j]) if draw(st.booleans()) else (ids[j], ids[i])
        edges.append({"u": u, "v": v, "c": draw(JSON_CONDUCTANCES)})
    return {"vertices": ids, "edges": edges, "origin": draw(st.sampled_from(ids))}


BAD_CONDUCTANCES = [0, -1, -2.5, 0.0, float("nan"), float("inf"), -float("inf"), True, False, "1", None]
FAULTS = ("self_loop", "ghost_endpoint", "duplicate", "conflict", "bad_conductance",
          "disconnected", "isolated", "missing_origin", "origin_not_vertex")


def inject(draw, doc, fault):
    """doc with one fault of the given kind, placed at a random position."""
    doc = {"vertices": list(doc["vertices"]), "edges": [dict(e) for e in doc["edges"]], "origin": doc["origin"]}
    edges, ids = doc["edges"], doc["vertices"]
    ghost = "ghost"
    at = draw(st.integers(0, len(edges)))
    # an inserted record may break a later rule too, so the order of the checks shows
    any_c = st.one_of(JSON_CONDUCTANCES, st.sampled_from(BAD_CONDUCTANCES))
    if fault == "self_loop":
        x = draw(st.sampled_from(ids))
        edges.insert(at, {"u": x, "v": x, "c": draw(any_c)})
    elif fault == "ghost_endpoint":
        x = draw(st.sampled_from(ids))
        u, v = draw(st.sampled_from([(x, ghost), (ghost, x), (ghost, ghost)]))
        edges.insert(at, {"u": u, "v": v, "c": draw(any_c)})
    elif fault in ("duplicate", "conflict"):
        k = draw(st.integers(0, len(edges) - 1))
        rec = dict(edges[k])
        if draw(st.booleans()):
            rec["u"], rec["v"] = rec["v"], rec["u"]
        if fault == "conflict":
            rec["c"] = draw(JSON_CONDUCTANCES.filter(lambda c: c != rec["c"]))
        edges.insert(draw(st.integers(k + 1, len(edges))), rec)
    elif fault == "bad_conductance":
        edges[draw(st.integers(0, len(edges) - 1))]["c"] = draw(st.sampled_from(BAD_CONDUCTANCES))
    elif fault == "disconnected":
        # a second component of two vertices, placed anywhere in the vertex list
        ids.insert(draw(st.integers(0, len(ids))), ghost)
        ids.insert(draw(st.integers(0, len(ids))), ghost + "2")
        edges.insert(at, {"u": ghost, "v": ghost + "2", "c": draw(JSON_CONDUCTANCES)})
    elif fault == "isolated":
        ids.insert(draw(st.integers(0, len(ids))), ghost)
    elif fault == "missing_origin":
        del doc["origin"]
    elif fault == "origin_not_vertex":
        doc["origin"] = ghost
    return doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLoaderProperties:
    """load_graph agrees with the reference on random valid and faulty documents."""

    @settings(max_examples=200, deadline=None)
    @given(doc=graph_documents())
    def test_valid_documents_load_like_the_reference(self, doc):
        got = load_outcome(load_graph, doc)
        assert got[0] != "GraphError"
        assert got == load_outcome(reference_load, doc)
        assert load_graph(doc).index == {v: i for i, v in enumerate(doc["vertices"])}

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), doc=graph_documents(), fault=st.sampled_from(FAULTS))
    def test_one_fault_raises_the_reference_message(self, data, doc, fault):
        bad = inject(data.draw, doc, fault)
        want = load_outcome(reference_load, bad)
        assert want[0] == "GraphError"
        assert load_outcome(load_graph, bad) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), doc=graph_documents(),
           faults=st.lists(st.sampled_from(FAULTS[:5]), min_size=2, max_size=3))
    def test_first_offending_record_is_named(self, data, doc, faults):
        # several faulty records: the message names the first in document order
        for fault in faults:
            doc = inject(data.draw, doc, fault)
        want = load_outcome(reference_load, doc)
        assert want[0] == "GraphError"
        assert load_outcome(load_graph, doc) == want

    def test_single_vertex_is_isolated(self):
        with pytest.raises(GraphError, match=r"^isolated vertex 0 \(c\(x\) would be zero\)$"):
            load_graph({"vertices": [0], "edges": [], "origin": 0})


# ---------------------------------------------------------------- the array constructor against the record-by-record one

def graph_outcome(build, vertices, edges, origin):
    """Everything a graph shows, with key order and conductance types, or the GraphError message.

    distance is compared as a dict: the record-by-record construction lists
    it in breadth-first order, the array construction in vertex order.
    """
    try:
        got = build(vertices, edges, origin)
    except GraphError as exc:
        return ("GraphError", str(exc))
    if isinstance(got, WeightedGraph):
        assert all(type(view) is dict for view in (got.index, got.adjacency, got.total, got.distance))
        assert list(got.distance) == list(got.vertices)
        got = (got.vertices, got.edges, got.adjacency, got.total, got.distance)
    vertices, edges, adjacency, total, distance = got
    return (vertices, [(u, v, value_bits(c)) for u, v, c in edges],
            [(x, [(y, value_bits(c)) for y, c in a]) for x, a in adjacency.items()],
            [(x, value_bits(t)) for x, t in total.items()], distance)


# conductance kinds; the big ints sum past 2^63, where c(x) is summed in Python ints
CONDUCTANCE_KINDS = {
    "int": st.integers(1, 9),
    "big_int": st.one_of(st.integers(1, 9), st.integers(2**61, 2**70)),
    "fraction": st.fractions(Fraction(1, 50), 20).filter(lambda c: c > 0),
    "float": st.floats(0.01, 100.0),
}
CONDUCTANCE_KINDS["mixed"] = st.one_of(*CONDUCTANCE_KINDS.values())


@st.composite
def graph_args(draw, kind=None):
    """(vertices, records, origin) of a valid graph.

    Distinct ids in random order, a spanning tree plus chords, records in
    random order and direction, each a tuple or a list, with conductances
    of one drawn kind.
    """
    ids = draw(st.lists(VERTEX_IDS, min_size=2, max_size=9, unique=True))
    n = len(ids)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    pairs += draw(st.lists(st.sampled_from(others), max_size=len(others), unique=True)) if others else []
    conductances = CONDUCTANCE_KINDS[kind or draw(st.sampled_from(sorted(CONDUCTANCE_KINDS)))]
    records = []
    for i, j in draw(st.permutations(pairs)):
        u, v = (ids[i], ids[j]) if draw(st.booleans()) else (ids[j], ids[i])
        record = (u, v, draw(conductances))
        records.append(record if draw(st.booleans()) else list(record))
    return ids, records, draw(st.sampled_from(ids))


BAD_RECORD_CONDUCTANCES = [True, False, float("nan"), float("inf"), -float("inf"), 0, 0.0, -1, -2.5,
                           Fraction(-1, 3), "1", None, 1 + 0j, np.int64(3)]
RECORD_FAULTS = ("self_loop", "ghost_endpoint", "bad_conductance", "reversed_duplicate",
                 "conflicting_duplicate", "malformed", "isolated", "disconnected")


def inject_record(draw, args, fault, where):
    """args with one fault; a faulty record goes first, in the middle or last."""
    vertices, records, origin = list(args[0]), list(args[1]), args[2]
    at = {"first": 0, "middle": len(records) // 2, "last": len(records)}[where]
    # records of three items, for a fault built from an existing record
    whole = [k for k, r in enumerate(records) if isinstance(r, (tuple, list)) and len(r) == 3]
    x = draw(st.sampled_from(vertices))
    if fault == "self_loop":
        records.insert(at, (x, x, 1))
    elif fault == "ghost_endpoint":
        records.insert(at, draw(st.sampled_from([(x, "ghost", 1), ["ghost", x, 2.5], ("ghost", "ghost", 1)])))
    elif fault == "bad_conductance":
        k = whole[{"first": 0, "middle": len(whole) // 2, "last": -1}[where]]
        records[k] = (records[k][0], records[k][1], draw(st.sampled_from(BAD_RECORD_CONDUCTANCES)))
    elif fault in ("reversed_duplicate", "conflicting_duplicate"):
        u, v, c = records[draw(st.sampled_from(whole))]
        if fault == "conflicting_duplicate":
            c = draw(CONDUCTANCE_KINDS["mixed"].filter(lambda d: d != c))
        records.insert(at, (v, u, c) if fault == "reversed_duplicate" or draw(st.booleans()) else [u, v, c])
    elif fault == "malformed":
        records.insert(at, draw(st.sampled_from([(x, x), [x, x, 1, 1], 7, None, "ab"])))
    elif fault == "isolated":
        vertices.insert(draw(st.integers(0, len(vertices))), "ghost")
    elif fault == "disconnected":
        vertices.insert(draw(st.integers(0, len(vertices))), "ghost")
        vertices.insert(draw(st.integers(0, len(vertices))), "ghost2")
        records.insert(at, ("ghost", "ghost2", 1))
    return vertices, records, origin


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestArrayConstructor:
    """WeightedGraph's array checks and views against record_by_record."""

    @settings(max_examples=300, deadline=None)
    @given(args=graph_args(), one_shot=st.booleans())
    def test_valid_graphs_match_the_record_pass(self, args, one_shot):
        vertices, records, origin = args
        want = graph_outcome(record_by_record, vertices, records, origin)
        assert want[0] != "GraphError"
        given_records = iter(records) if one_shot else records
        assert graph_outcome(WeightedGraph, vertices, given_records, origin) == want

    @settings(max_examples=400, deadline=None)
    @given(args=graph_args(), fault=st.sampled_from(RECORD_FAULTS),
           where=st.sampled_from(("first", "middle", "last")), data=st.data())
    def test_one_fault_raises_the_record_pass_message(self, args, fault, where, data):
        bad = inject_record(data.draw, args, fault, where)
        want = graph_outcome(record_by_record, *bad)
        assert want[0] == "GraphError"
        assert graph_outcome(WeightedGraph, *bad) == want

    @settings(max_examples=150, deadline=None)
    @given(args=graph_args(), data=st.data(),
           faults=st.lists(st.sampled_from(RECORD_FAULTS[:6]), min_size=2, max_size=3))
    def test_first_of_several_faults_is_named(self, args, data, faults):
        for fault in faults:
            args = inject_record(data.draw, args, fault, data.draw(st.sampled_from(("first", "middle", "last"))))
        want = graph_outcome(record_by_record, *args)
        assert want[0] == "GraphError"
        assert graph_outcome(WeightedGraph, *args) == want

    def test_unhashable_endpoint_raises_like_the_record_pass(self):
        def raised(build, records):
            try:
                build([0, 1], records, 0)
            except (GraphError, TypeError) as exc:
                return type(exc), str(exc)

        # the TypeError of the unhashable endpoint, unless an earlier record breaks a rule
        for records in ([(0, 1, 1), ([0], 1, 1)], [(0, 0, 1), ([0], 1, 1)]):
            assert raised(WeightedGraph, records) == raised(record_by_record, records) is not None

    @settings(max_examples=200, deadline=None)
    @given(args=graph_args(), data=st.data())
    def test_edge_arrays_are_filled_at_construction(self, args, data):
        g = WeightedGraph(*args)
        arrays = g._edge_arrays
        cs = [c for _, _, c in g.edges]
        if not (set(map(type, cs)) <= {int} and sum(cs) < 2**63):
            assert arrays is None
            return
        head, tail, c, c_sum, c_max = arrays
        assert head.tolist() == [g.index[u] for u, _, _ in g.edges]
        assert tail.tolist() == [g.index[v] for _, v, _ in g.edges]
        assert c.dtype == np.int64 and c.tolist() == cs
        assert (type(c_sum), c_sum) == (int, sum(cs))
        assert (type(c_max), c_max) == (int, max(g.total.values()))
        # both routes give the dict route's values and types; small data takes the int route
        fs = [dict(zip(g.vertices, data.draw(st.lists(st.integers(-50, 50), min_size=len(g), max_size=len(g)))))
              for _ in range(2)]
        if c_sum < 2**40:
            assert int_laplacian_route(g, fs[0]) and int_gram_route(g, fs)
        assert form_outcomes(g, fs) == reference_outcomes(g, fs)

    def test_views_are_read_only_attributes(self):
        g = square()
        for name in ("edges", "adjacency", "total", "distance"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)

    @pytest.mark.parametrize("f", [[0, 1, 2, 3], (0, 1, 2, 3), {0, 1, 2, 3}, None, "0123"])
    def test_a_vertex_function_must_be_a_mapping(self, f):
        g = square()
        for form in (laplacian_apply, transfer_apply, quadratic_form_l2, conductance_mean):
            with pytest.raises(ValueError, match="^vertex function does not match the graph's vertex set$"):
                form(g, f)
        assert laplacian_apply(g, MappingProxyType({0: 1, 1: 0, 2: 0, 3: 0})) == {0: 7, 1: -2, 2: 0, 3: -5}


# ---------------------------------------------------------------- the int64 route of the forms

def dict_laplacian(g, f):
    """Reference: the dict route of laplacian_apply, one sum per vertex."""
    return {x: graphs._accumulate([c * (f[x] - f[y]) for y, c in g.adjacency[x]]) for x in g.vertices}


def dict_energy_gram(g, fs):
    """Reference: the dict route of energy_gram, one sum per entry."""
    left = [[c * (f[u] - f[v]).conjugate() for u, v, c in g.edges] for f in fs]
    right = [[f[u] - f[v] for u, v, _ in g.edges] for f in fs]
    return [[graphs._accumulate([a * b for a, b in zip(lj, rk)]) for rk in right] for lj in left]


def int_core_route(g, fs, core):
    """Whether the public form takes fs through the int64 core (the core returns None beyond its bound)."""
    values = graphs._vertex_array(g, fs)
    return values is not None and core(g, values) is not None


def int_laplacian_route(g, f):
    """Whether laplacian_apply takes f through the int64 core."""
    return int_core_route(g, (f,), graphs._laplacian_core)


def int_gram_route(g, fs):
    """Whether energy_gram takes fs through the int64 core."""
    return int_core_route(g, fs, lambda g, v: graphs._energy_core(g, v, v))


def laplacian_outcome(fn, g, f):
    """The vertex keys in order with value_bits of each value, or the exception type raised."""
    try:
        out = fn(g, f)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return ("raises", type(exc))
    return [(x, value_bits(v)) for x, v in out.items()]


def form_outcomes(g, fs):
    """The two forms with an int route on fs, as outcome records comparable across routes."""
    return [laplacian_outcome(laplacian_apply, g, f) for f in fs], gram_outcomes(graphs.energy_gram, g, fs)


def reference_outcomes(g, fs):
    return [laplacian_outcome(dict_laplacian, g, f) for f in fs], gram_outcomes(dict_energy_gram, g, fs)


def alternating(g, m):
    """+m and -m on the two colour classes of the bipartite square: every edge difference is 2m."""
    return {x: m if x % 2 == 0 else -m for x in g.vertices}


# values not of type int: each must keep the dict route and its result types
NON_INT_VALUES = st.one_of(
    st.booleans(),
    st.integers(-1000, 1000).map(np.int64),
    st.integers(-100, 100).map(Tally),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
    st.floats(-1e6, 1e6),
    st.complex_numbers(max_magnitude=1e6),
)


@st.composite
def int_functions(draw, g):
    """A vertex function of ints bounded by a drawn cap, so both sides of each bound occur."""
    cap = draw(st.sampled_from([1, 50, 10**6, 2**30, 2**61]))
    return dict(zip(g.vertices, draw(st.lists(st.integers(-cap, cap), min_size=len(g), max_size=len(g)))))


@st.composite
def mixed_functions(draw, g):
    """Ints with at least one value of another type mixed in."""
    f = draw(int_functions(g))
    for x in draw(st.lists(st.sampled_from(g.vertices), min_size=1, unique=True)):
        f[x] = draw(NON_INT_VALUES)
    return f


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestIntRoute:
    """laplacian_apply's and energy_gram's int64 route gives the dict route's values, types and key order.

    Every other input keeps the dict route.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), g=cyclic_graphs(st.one_of(st.integers(1, 60), st.integers(1, 2**40))),
           n=st.integers(0, 4))
    def test_int_data_matches_dict_route(self, data, g, n):
        fs = [data.draw(int_functions(g)) for _ in range(n)]
        assert form_outcomes(g, fs) == reference_outcomes(g, fs)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), g=cyclic_graphs(st.one_of(st.integers(1, 60), CONDUCTANCES)), n=st.integers(1, 3))
    def test_mixed_data_matches_dict_route(self, data, g, n):
        fs = [data.draw(st.one_of(int_functions(g), mixed_functions(g))) for _ in range(n)]
        assert form_outcomes(g, fs) == reference_outcomes(g, fs)

    def test_tree_dipoles_take_the_int_route(self):
        g = tree_graph(5)
        words = ("1", "01", "110", "00101", "0011")
        dips = [dipole_function(x, g) for x in words]
        assert int_laplacian_route(g, dips[0])
        assert int_gram_route(g, dips)
        assert form_outcomes(g, dips) == reference_outcomes(g, dips)
        assert graphs.energy_gram(g, dips) == [[common_prefix_length(x, y) for y in words] for x in words]

    def test_laplacian_bound(self):
        g = square()  # c(x) = 7, 5, 4, 6, so (Lf)(0) = 2 * M * 7 exactly for alternating f
        inside = (2**63 - 1) // 14
        for m, taken in ((inside, True), (inside + 1, False)):
            f = alternating(g, m)
            assert int_laplacian_route(g, f) == taken
            assert laplacian_outcome(laplacian_apply, g, f) == laplacian_outcome(dict_laplacian, g, f)
        assert laplacian_apply(g, alternating(g, inside + 1))[0] == 14 * (inside + 1) >= 2**63

    def test_energy_gram_bound(self):
        g = square()
        inside = math.isqrt((2**63 - 1) // 44)  # the diagonal entry of the largest function is 44 M^2
        for m, taken in ((inside, True), (inside + 1, False)):
            fs = [alternating(g, 5), alternating(g, m), {x: 0 for x in g.vertices}]
            assert int_gram_route(g, fs) == taken
            assert gram_outcomes(graphs.energy_gram, g, fs) == gram_outcomes(dict_energy_gram, g, fs)
            assert graphs.energy_gram(g, fs)[1][1] == 44 * m * m

    @pytest.mark.parametrize("value", [2**62, -2**63, 2**63, -2**63 - 1, 2**100])
    def test_values_near_the_int64_range_keep_the_dict_route(self, value):
        g = square()
        fs = [{0: value, 1: 0, 2: -1, 3: 2}]
        assert not int_laplacian_route(g, fs[0])
        assert not int_gram_route(g, fs)
        assert form_outcomes(g, fs) == reference_outcomes(g, fs)

    @pytest.mark.parametrize("value", [True, np.int64(3), Tally(3), Fraction(3), 3.0, 3 + 0j])
    def test_other_value_types_keep_the_dict_route(self, value):
        g = square()
        fs = [{0: value, 1: 0, 2: -1, 3: 2}, {0: 1, 1: 4, 2: -1, 3: 2}]
        assert not int_laplacian_route(g, fs[0])
        assert not int_gram_route(g, fs)
        assert form_outcomes(g, fs) == reference_outcomes(g, fs)

    @pytest.mark.parametrize("cs", [(2.0, 3, 1, 5), (Fraction(2), 3, 1, 5), (2**62, 2**62, 1, 1)])
    def test_other_conductances_keep_the_dict_route(self, cs):
        g = square(*cs)
        fs = [{0: 0, 1: 1, 2: -1, 3: 2}, {0: 1, 1: 4, 2: -1, 3: 2}]
        assert g._edge_arrays is None
        assert form_outcomes(g, fs) == reference_outcomes(g, fs)

    def test_empty_list(self):
        g = square()
        assert graphs.energy_gram(g, []) == dict_energy_gram(g, []) == []


# ---------------------------------------------------------------- the float cores of the forms

# float values that reach every branch of math.fsum: signed zeros, subnormals, the largest
# finite floats, whose terms overflow inside fsum, and inf and nan
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e154, -1e154, 1e308, -1e308, 1.7e308,
                  -1.7e308, math.inf, -math.inf, math.nan]
FLOAT_VALUES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(SPECIAL_FLOATS), st.floats())
# ints and Fractions round in float(c), as in c * x, which converts c by float() first
FLOAT_CORE_CONDUCTANCES = st.one_of(st.integers(2, 60), st.integers(2**53 + 1, 2**70), st.floats(0.125, 8.0),
                                    st.floats(5e-324, 1e300),
                                    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6))


def float_functions(g, values=FLOAT_VALUES):
    return st.lists(values, min_size=len(g), max_size=len(g)).map(lambda vs: dict(zip(g.vertices, vs)))


def cycle4(c=1):
    return WeightedGraph([0, 1, 2, 3], [(k, (k + 1) % 4, c) for k in range(4)], 0)


def float_rows(g, fs):
    """The float functions fs as the float64 rows that the cores take, in vertex order."""
    return np.array([[f[x] for x in g.vertices] for f in fs], dtype=np.float64).reshape(len(fs), len(g))


def float_conductances(g):
    return graphs._float_edges(g)[2]


def core_laplacian(g, f):
    """laplacian_apply's dict result, computed by the float64 core."""
    return dict(zip(g.vertices, graphs._laplacian_core(g, float_rows(g, [f]), float_conductances(g))[0].tolist()))


def core_energy_gram(g, fs):
    """energy_gram's rows, computed by the float64 core."""
    rows = float_rows(g, fs)
    return graphs._energy_core(g, rows, rows, float_conductances(g)).tolist()


def core_outcomes(g, fs):
    return [laplacian_outcome(core_laplacian, g, f) for f in fs], gram_outcomes(core_energy_gram, g, fs)


class TestFloatCores:
    """The float64 branch of the cores gives the dict loop's values, types and bits (.hex()) on float
    data, or raises the same exception, with numpy's float warnings failing the test as elsewhere.

    The public forms keep the dict loop for float data.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), g=cyclic_graphs(FLOAT_CORE_CONDUCTANCES), n=st.integers(1, 4))
    def test_float_data_matches_the_dict_loop(self, data, g, n):
        fs = [data.draw(float_functions(g)) for _ in range(n)]
        assert core_outcomes(g, fs) == reference_outcomes(g, fs)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), g=cyclic_graphs(FLOAT_CORE_CONDUCTANCES), n=st.integers(1, 3), m=st.integers(1, 3))
    def test_energy_core_pairs_two_lists_like_energy_inner(self, data, g, n, m):
        # the core pairs every function of one list with every one of another, as reciprocity_spectrum uses it
        left = [data.draw(float_functions(g)) for _ in range(n)]
        right = [data.draw(float_functions(g)) for _ in range(m)]
        want = [[outcome(energy_inner, g, fj, fk) for fk in right] for fj in left]
        try:
            got = graphs._energy_core(g, float_rows(g, left), float_rows(g, right), float_conductances(g)).tolist()
        except (ArithmeticError, ValueError) as exc:
            raised = ("raises", type(exc))
            assert raised == next(w for row in want for w in row if w[0] == "raises")
        else:
            assert [[value_bits(v) for v in row] for row in got] == want

    @pytest.mark.parametrize("f, error", [
        ({0: 1e308, 1: -7e307, 2: 0.0, 3: -7e307}, OverflowError),  # terms that overflow inside fsum at 0
        ({0: math.inf, 1: 0.0, 2: -math.inf, 3: 0.0}, ValueError),  # inf - inf at 1
    ])
    def test_laplacian_raises_like_the_dict_loop(self, f, error):
        for g in (cycle4(), cycle4(1.5)):
            assert laplacian_outcome(core_laplacian, g, f) == laplacian_outcome(dict_laplacian, g, f) == (
                "raises", error)

    def test_laplacian_sums_each_vertex_in_adjacency_order(self):
        # at 0 the terms are 1e308, 1e308, -1e308: fsum overflows in this order, not in the reverse one
        g = WeightedGraph([0, 1, 2, 3], [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1)], 0)
        f = {0: 0.0, 1: -1e308, 2: -1e308, 3: 1e308}
        assert laplacian_outcome(core_laplacian, g, f) == laplacian_outcome(dict_laplacian, g, f) == (
            "raises", OverflowError)

    @pytest.mark.parametrize("fs, error", [
        ([{0: 1e154, 1: 0.0, 2: 0.0, 3: 0.0}], OverflowError),  # two terms of 1e308
        ([{0: math.inf, 1: 0.0, 2: 0.0, 3: 0.0}, {0: 1.0, 1: 0.0, 2: 0.0, 3: 2.0}], ValueError),  # inf and -inf
    ])
    def test_energy_gram_raises_like_the_dict_loop(self, fs, error):
        for g in (cycle4(), cycle4(1.5)):
            assert gram_outcomes(core_energy_gram, g, fs) == gram_outcomes(dict_energy_gram, g, fs) == (
                "raises", error)

    def test_overflow_and_nan_stay_silent(self):
        # as in Python float arithmetic: f(3) - f(0) and 1.5 * f(0) overflow to inf, and inf - inf is nan
        g = cycle4(1.5)
        overflows = {0: 1.7e308, 1: 0.0, 2: 0.0, 3: -1.7e308}
        nans = {0: 0.0, 1: math.inf, 2: math.inf, 3: 0.0}
        for f in (overflows, nans):
            assert core_outcomes(g, [f]) == reference_outcomes(g, [f])
        assert core_laplacian(g, overflows)[0] == math.inf
        assert math.isnan(core_laplacian(g, nans)[1]) and math.isnan(core_energy_gram(g, [nans])[0][0])

    def test_signed_zeros_subnormals_and_nan_keep_their_bits(self):
        g = cycle4()
        f = {0: -0.0, 1: 5e-324, 2: math.nan, 3: -5e-324}
        assert core_outcomes(g, [f, f]) == reference_outcomes(g, [f, f])
        assert core_laplacian(g, {x: -0.0 for x in g.vertices})[0].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("cs", [(1, 1, 1, 1), (2.5, 3, 1, 5), (Fraction(1, 3), 0.5, 1, 5)])
    @pytest.mark.parametrize("value", [3.0, True, 3, np.float64(3.0), np.int64(3), Fraction(3), 3 + 0j])
    def test_public_forms_keep_the_dict_loop_for_non_int_data(self, cs, value):
        g = square(*cs)
        fs = [{0: value, 1: 0.5, 2: -1.0, 3: 2.0}, {0: 1.0, 1: 4.0, 2: -1.0, 3: 2.0}]
        assert graphs._vertex_array(g, fs[:1]) is None
        assert graphs._vertex_array(g, fs) is None
        assert form_outcomes(g, fs) == reference_outcomes(g, fs)
