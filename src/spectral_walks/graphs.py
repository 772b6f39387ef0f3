"""Finite weighted graphs with positive conductances.

A graph here is the discrete carrier for two operators and two inner
products: the conductance Laplacian, the one-step averaging (transfer)
operator, the pointwise l2 pairing, and the Dirichlet energy pairing,
with energy_gram for the energy pairings of every pair in a list of
functions at once.
Vertex functions are plain mappings ``{vertex: value}`` defined on every
vertex; values may be int, Fraction, float, or complex.  Integer and
Fraction inputs are carried exactly through every operation; float paths
accumulate with compensated summation.

A WeightedGraph is stored as arrays.  The constructor checks the edge
records together as endpoint-index arrays (packed pair keys for
duplicates, a type-set test for the conductances) and hands them to one
array core, WeightedGraph._build, which stores a table of the arcs
leaving each vertex, in record order, and sums c(x) in int64 when the
conductances are ints within a checked bound; the constructor then finds
hop distances by _hop_counts, one source of the package's one
breadth-first search _search, a queue over that table (walks searches
its chains' arc tables, and spectra labels the components of the table
_pattern_arcs reads from a boolean matrix in one pass of _search).
tree.tree_graph, whose records are valid by construction, calls the
core directly and reads hop counts off its level order.  The dict views
edges, adjacency, total and distance are built from the arrays on first
access: they equal the record-by-record construction in value, type
and per-vertex order, with distance listed in vertex order.  A failed
check names the first offending record, found by a record-by-record
search.

Each public form is one dict loop over the graph's dicts; energy_inner
and energy_gram share theirs.  The Laplacian and the energy pairing also
have one array core each, _laplacian_core and _energy_core, for callers
that hold vertex functions as arrays already (the int64 dipole tables of
tree, spectra and the CLI, and the float64 Rayleigh columns of spectra).
A core takes rows of an int64 or float64 array in vertex order and
nothing else.  int64 rows run under an overflow bound, checked in Python
ints first, under which no int64 partial sum can leave [-2^63, 2^63) in
any summation order: every partial sum is at most the sum of the
absolute values of its terms.  The int64 result is then the exact
integer; past the bound the core raises OverflowError.  float64 rows form
the dict loop's terms with float(c) for each conductance, converted once
per graph, and sum each vertex's or each pairing's terms with math.fsum
in the dict loop's order, so every value, NaN and exception is the dict
loop's.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from fractions import Fraction
from operator import mul

import numpy as np

__all__ = [
    "GraphError",
    "WeightedGraph",
    "load_graph",
    "laplacian_apply",
    "transfer_apply",
    "l2_inner",
    "energy_inner",
    "energy_gram",
    "quadratic_form_l2",
    "quadratic_form_energy",
    "conductance_mean",
]


class GraphError(ValueError):
    """A graph violated one of the load-time axioms."""


def _is_exact(value) -> bool:
    """True for numbers we keep in exact arithmetic (bool excluded)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


_EXACT_TYPES = frozenset((int, Fraction))
_FLOAT_TYPES = frozenset((float,))
_INT_TYPE = frozenset((int,))
# int64 holds every integer of absolute value below 2^63
_INT64_LIMIT = 1 << 63


def _accumulate(terms):
    """Sum a list of numbers: exact when every term is, compensated otherwise.

    The branch is decided once from the set of term types, which makes the
    same decision as testing every term with isinstance; the two common
    sets, only int/Fraction and only float, are matched first.
    """
    kinds = set(map(type, terms))
    if kinds <= _EXACT_TYPES:
        return sum(terms)
    if kinds <= _FLOAT_TYPES:
        return math.fsum(terms)
    if all(issubclass(k, (int, Fraction)) and not issubclass(k, bool) for k in kinds):
        return sum(terms)
    if any(issubclass(k, complex) for k in kinds):
        return complex(
            math.fsum(t.real for t in terms),
            math.fsum(t.imag for t in terms),
        )
    return math.fsum(terms)


def _real_part(value):
    """Collapse a (numerically) real result to its real component."""
    return value.real if isinstance(value, complex) else value


def _valid_conductance(c) -> bool:
    if isinstance(c, bool) or not isinstance(c, (int, float, Fraction)):
        return False
    # json parses Infinity and NaN into floats
    return c > 0 and (not isinstance(c, float) or math.isfinite(c))


class WeightedGraph:
    """Finite connected graph with symmetric positive edge conductances.

    Vertices are opaque hashable ids.  Each undirected edge carries one
    conductance value.  Construction enforces the standing axioms, and a
    violation raises :class:`GraphError` naming the broken rule:

    * no self-loops,
    * one conductance per unordered pair (no duplicate or conflicting
      edge records),
    * every conductance strictly positive and finite,
    * the graph is connected and every vertex meets at least one edge,
    * the distinguished origin is a vertex.

    The edge records are checked together, as index arrays; when a check
    fails, the records are searched in order and the message names the
    first offending one, as a record-by-record check would.  The graph
    stores its edges as arrays: the endpoint indices of each record and
    a table of the arcs leaving each vertex, in record order.  edges,
    adjacency, total and distance are built from them on first access
    and then kept; they are shared, so callers must not modify them.

    Attributes:
        vertices: tuple of vertex ids in a stable caller-given order.
        origin: the distinguished base vertex o.
        index: dict vertex -> its position in vertices.
        edges: tuple of (u, v, c) triples, one per undirected edge, in
            record order.
        adjacency: dict vertex -> tuple of (neighbor, conductance), in
            record order.
        total: dict vertex -> c(x), the sum of conductances at x.
        distance: dict vertex -> number of edges on a shortest path from
            the origin, in vertex order.
    """

    __slots__ = ("vertices", "origin", "index", "_records", "_ends", "_arcs", "_starts", "_totals", "_hops",
                 "_edge_arrays", "_float_arrays", "_edges", "_adjacency", "_total", "_distance")

    def __init__(self, vertices, edges, origin):
        vertices = tuple(vertices)
        n = len(vertices)
        index = dict(zip(vertices, range(n)))
        if len(index) != n:
            raise GraphError("duplicate vertex ids")
        if not vertices:
            raise GraphError("graph has no vertices")
        if origin not in index:
            raise GraphError(f"origin {origin!r} is not a vertex")

        given = list(edges)
        records = []
        try:
            # on a malformed record, extend keeps the records unpacked before it
            records.extend((u, v, c) for u, v, c in given)
        except (TypeError, ValueError):
            pass
        m = len(records)
        if m < len(given):
            raise GraphError(_first_fault(records, index) or f"malformed edge record {given[m]!r}")
        us, vs, cs = zip(*records) if records else ((), (), ())
        try:
            head = np.fromiter(map(index.get, us), np.intp, m)
            tail = np.fromiter(map(index.get, vs), np.intp, m)
        except TypeError:  # index.get gave None, or an endpoint is unhashable
            raise GraphError(_first_fault(records, index)) from None
        ints = set(map(type, cs)) <= _INT_TYPE
        if ((head == tail).any()
                or not (min(cs, default=1) > 0 if ints else all(map(_valid_conductance, cs)))
                or _has_repeats(np.minimum(head, tail) * n + np.maximum(head, tail))):
            raise GraphError(_first_fault(records, index))
        c_sum = sum(cs) if ints else None
        c = np.array(cs, dtype=np.int64) if c_sum is not None and c_sum < _INT64_LIMIT else None
        self._build(vertices, index, origin, records, head, tail, c, c_sum)
        self._hops = _hop_counts(self._ends[self._arcs ^ 1], self._starts, index[origin])
        if self._hops.min() < 0:
            missing = vertices[int(np.argmin(self._hops))]
            raise GraphError(f"graph is not connected ({missing!r} unreachable from origin)")
        if not records:  # connected, so only a lone vertex can be without an edge
            raise GraphError(f"isolated vertex {origin!r} (c(x) would be zero)")

    def _build(self, vertices, index, origin, records, head, tail, c, c_sum):
        """Store checked edge records as arrays: the core that every constructor runs.

        records are (u, v, c) triples whose endpoints are the vertices at
        head and tail (intp index arrays), with no self-loop, no repeated
        pair and valid conductances.  c is the int64 array of the
        conductances and c_sum their Python int sum when every conductance
        is an int and c_sum < 2^63, and c is None otherwise.  The caller
        sets _hops and checks connectivity; a vertex without arcs gets 0.
        """
        n = len(vertices)
        # arc 2k runs from u_k to v_k and arc 2k + 1 back; arcs lists them
        # grouped by the vertex they leave, each group in record order
        ends = np.empty(2 * len(records), dtype=np.intp)
        ends[0::2] = head
        ends[1::2] = tail
        arcs = np.argsort(ends, kind="stable")
        degree = np.bincount(ends, minlength=n)
        starts = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(degree, out=starts[1:])

        # _edge_arrays holds the int64 cores' data: (c, c_sum, c_max), the int64
        # conductances in record order, and as Python ints sum_e c_e and
        # max_x c(x) for the cores' bounds.  It is None unless every conductance
        # is an int and their sum is below 2^63; under that bound no partial sum
        # of positive terms leaves int64, so c(x) is summed in int64 too.
        if c is not None:
            # reduceat sums each start's arcs up to the next start, so only vertices with arcs are given one
            totals = np.zeros(n, dtype=np.int64)
            totals[degree > 0] = np.add.reduceat(c[arcs >> 1], starts[:-1][degree > 0])
            self._edge_arrays = (c, c_sum, int(totals.max()))
            totals = totals.tolist()
        else:
            self._edge_arrays = None
            _, _, cs = zip(*records)
            arc_cs = list(map(cs.__getitem__, (arcs >> 1).tolist()))
            bounds = starts.tolist()
            totals = [_accumulate(arc_cs[a:b]) for a, b in zip(bounds, bounds[1:])]

        self.vertices = vertices
        self.origin = origin
        self.index = index
        self._records = records
        self._ends = ends
        self._arcs = arcs
        self._starts = starts
        self._totals = totals
        self._float_arrays = None
        self._edges = self._adjacency = self._total = self._distance = None

    @property
    def edges(self):
        if self._edges is None:
            self._edges = tuple(self._records)
        return self._edges

    @property
    def adjacency(self):
        if self._adjacency is None:
            # (neighbor, c) of each arc, then in the grouped order of _arcs
            pairs = [None] * len(self._ends)
            pairs[0::2] = [(v, c) for _, v, c in self._records]
            pairs[1::2] = [(u, c) for u, _, c in self._records]
            pairs = list(map(pairs.__getitem__, self._arcs.tolist()))
            bounds = self._starts.tolist()
            self._adjacency = {x: tuple(pairs[a:b]) for x, a, b in zip(self.vertices, bounds, bounds[1:])}
        return self._adjacency

    @property
    def total(self):
        if self._total is None:
            self._total = dict(zip(self.vertices, self._totals))
        return self._total

    @property
    def distance(self):
        if self._distance is None:
            self._distance = dict(zip(self.vertices, self._hops.tolist()))
        return self._distance

    def neighbors(self, x):
        """Neighbors of x as a tuple of (vertex, conductance)."""
        return self.adjacency[x]

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return (
            f"WeightedGraph({len(self.vertices)} vertices, "
            f"{len(self._records)} edges, origin={self.origin!r})"
        )


def _first_fault(records, index):
    """The message for the first (u, v, c) record that breaks an edge rule, or None.

    The records are taken in order, each checked for its endpoints, a
    self-loop, its conductance, and then against the records before it
    for a duplicate.
    """
    seen = {}
    for u, v, c in records:
        i = index.get(u)
        j = index.get(v)
        if i is None or j is None:
            return f"edge ({u!r}, {v!r}) has an endpoint that is not a vertex"
        if i == j:
            return f"self-loop at {u!r}"
        if not _valid_conductance(c):
            return f"edge ({u!r}, {v!r}) has a non-positive or non-finite conductance {c!r}"
        key = (i, j) if i < j else (j, i)
        if key in seen:
            if seen[key] != c:
                return (
                    f"edge ({u!r}, {v!r}) recorded twice with conflicting "
                    f"conductances {seen[key]!r} and {c!r} (symmetry violation)"
                )
            return f"duplicate edge record for ({u!r}, {v!r})"
        seen[key] = c
    return None


def _search(targets, starts, sources):
    """Breadth-first searches over an arc table, one from each source that no earlier search reached.

    targets[starts[x]:starts[x + 1]] are the vertices one arc away from x.  Returns (hops, queues):
    hops[x] counts the arcs from the source whose search reached x, -1 where none did, and queues
    holds each search's visited vertices in visiting order.  All searches share the one hop list, so
    a vertex is read once however many searches run.  A queue is a list read while it grows.  A
    vertex's arcs are read through a memoryview of targets: slicing one costs no numpy call and no
    copy, and iterating it yields Python ints, so a search costs its component alone and no list of
    every arc is built (at |F| = 1022 a Gram pattern has about half a million arcs).
    """
    targets, starts = memoryview(targets), starts.tolist()
    hops = [-1] * (len(starts) - 1)
    queues = []
    for source in sources:
        if hops[source] >= 0:
            continue
        hops[source] = 0
        queue = [source]
        for x in queue:
            level = hops[x] + 1
            for y in targets[starts[x]:starts[x + 1]]:
                if hops[y] < 0:
                    hops[y] = level
                    queue.append(y)
        queues.append(queue)
    return hops, queues


def _hop_counts(targets, starts, source) -> np.ndarray:
    """Breadth-first hop counts from source over an arc table; -1 where unreached."""
    return np.array(_search(targets, starts, (source,))[0], dtype=np.intp)


def _pattern_arcs(mask):
    """The arc table (rows, cols, starts) of a square boolean array, as _hop_counts reads it.

    rows, cols is np.nonzero(mask) by a flat scan and a divmod, ten times faster on 511 x 511.
    """
    rows, cols = np.divmod(np.flatnonzero(mask), len(mask))
    return rows, cols, np.searchsorted(rows, np.arange(len(mask) + 1))


def _has_repeats(keys) -> bool:
    """Whether an int array holds some value twice (sorted, not hashed: faster on ints)."""
    keys = np.sort(keys)
    return bool((keys[1:] == keys[:-1]).any())


def load_graph(source) -> WeightedGraph:
    """Build a WeightedGraph from a JSON file path or an already-parsed dict.

    Expected shape: {"vertices": [id, ...], "edges": [{"u": id, "v": id,
    "c": number}, ...], "origin": id}.  Any axiom violation raises
    GraphError with a message naming the violated rule.
    """
    if isinstance(source, dict):
        data = source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        raise GraphError("graph source must be a mapping or a file path")
    if not isinstance(data, dict):
        raise GraphError("graph document must be a JSON object")
    for key in ("vertices", "edges", "origin"):
        if key not in data:
            raise GraphError(f"graph document missing {key!r}")
    edges = []
    for rec in data["edges"]:
        if not isinstance(rec, dict) or not {"u", "v", "c"} <= set(rec):
            raise GraphError(f"malformed edge record {rec!r}")
        edges.append((rec["u"], rec["v"], rec["c"]))
    return WeightedGraph(data["vertices"], edges, data["origin"])


def _check_function(g: WeightedGraph, f) -> None:
    if not isinstance(f, Mapping) or f.keys() != g.index.keys():
        raise ValueError("vertex function does not match the graph's vertex set")


def _float_edges(g: WeightedGraph):
    """(head, tail, c, total): the endpoint indices and the conductances in
    edges order, and c(x) in vertex order, each value converted by float().

    The conversion runs once per graph; its arrays are kept in
    g._float_arrays and shared, so callers must not modify them.
    """
    if g._float_arrays is None:
        g._float_arrays = (np.array([float(c) for _, _, c in g._records]), np.array([float(t) for t in g._totals]))
    return (g._ends[0::2], g._ends[1::2], *g._float_arrays)


def _int_edges(g: WeightedGraph):
    """g._edge_arrays, (c, c_sum, c_max); OverflowError when the conductances do not fit it."""
    if g._edge_arrays is None:
        raise OverflowError("the int64 cores need int conductances that sum below 2^63")
    return g._edge_arrays


def _max_abs(values) -> int:
    """max |v| over an int64 array as a Python int, 2^63 for -2^63; 0 when empty."""
    return max(int(values.max()), -int(values.min())) if values.size else 0


def _laplacian_core(g: WeightedGraph, values):
    """L applied to each row of values, a (k, |V|) int64 or float64 array.

    A row is one function in vertex order.  The arc from x to y adds
    c * (f(x) - f(y)) at x, and the arcs are taken grouped by x in
    adjacency order.  int64 rows sum in int64 when
    2 * M * max_x c(x) < 2^63 with M = max |f|: each term is at most
    2 * M * c in absolute value and the terms at x sum in absolute value
    to at most 2 * M * c(x), so no partial sum leaves int64 and the
    result is the exact integer.  Past the bound it raises OverflowError.
    float64 rows use float() of each conductance (_float_edges) and sum
    each vertex's terms with math.fsum in adjacency order, as the dict
    loop does: the same terms in the same order give the same bits, and
    fsum raises where the dict loop raises.  numpy's float warnings are
    off, as Python's float arithmetic gives inf and nan silently.
    """
    arcs = g._arcs
    src, dst, edge = g._ends[arcs], g._ends[arcs ^ 1], arcs >> 1
    if values.dtype == np.int64:
        c, _, c_max = _int_edges(g)
        if 2 * _max_abs(values) * c_max >= _INT64_LIMIT:
            raise OverflowError("int64 Laplacian past its bound 2 * max|f| * max c(x) < 2^63")
        return np.add.reduceat(c[edge] * (values.take(src, 1) - values.take(dst, 1)), g._starts[:-1], axis=1)
    c = _float_edges(g)[2]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = c[edge] * (values.take(src, 1) - values.take(dst, 1))
    bounds = g._starts.tolist()
    slices = list(map(slice, bounds, bounds[1:]))
    fsum = math.fsum
    rows = [[fsum(row[s]) for s in slices] for row in map(np.ndarray.tolist, terms)]
    return np.array(rows, dtype=np.float64).reshape(values.shape)


def laplacian_apply(g: WeightedGraph, f) -> dict:
    """Apply the conductance Laplacian: (Lf)(x) = sum_{y~x} c(x,y)(f(x) - f(y))."""
    _check_function(g, f)
    out = {}
    for x in g.vertices:
        fx = f[x]
        out[x] = _accumulate([c * (fx - f[y]) for y, c in g.adjacency[x]])
    return out


def transfer_apply(g: WeightedGraph, f) -> dict:
    """Apply the averaging operator: (Tf)(x) = sum_{y~x} c(x,y)/c(x) * f(y).

    Rows of the induced kernel are stochastic, so constants are fixed.
    When f and the conductances are int/Fraction the division is done in
    Fraction arithmetic and the result is exact.
    """
    _check_function(g, f)
    out = {}
    for x in g.vertices:
        num = _accumulate([c * f[y] for y, c in g.adjacency[x]])
        cx = g.total[x]
        if _is_exact(num) and _is_exact(cx):
            out[x] = Fraction(num) / Fraction(cx)
        else:
            out[x] = num / cx
    return out


def l2_inner(g: WeightedGraph, f1, f2):
    """Plain counting-measure pairing sum_x conj(f1(x)) f2(x)."""
    _check_function(g, f1)
    _check_function(g, f2)
    return _accumulate([f1[x].conjugate() * f2[x] for x in g.vertices])


def _energy_core(g: WeightedGraph, left, right):
    """pairs[j, k] = <left[j], right[k]>_E for two int64 or two float64 arrays of rows.

    Each edge (u, v, c) contributes (c * d1) * d2 with d = f(u) - f(v), in
    record order.  int64 data sums in int64 when
    4 * M^2 * sum_e c_e < 2^63 with M = max(1, max |f| over both arrays),
    which is 4 * M_j * M_k * sum_e c_e < 2^63 for every pair: each term
    and its first factor are at most 4 * M^2 * c_e in absolute value, and
    a partial sum is at most the sum of the absolute terms.  Past the
    bound it raises OverflowError.  The edge differences form matrices D
    and the pairings are (D_left * c) @ D_right.T; numpy multiplies
    integer matrices in its own loop, never through BLAS.  float64 data
    sums each pair's terms with math.fsum in record order, as the dict
    loop does, with c and numpy's float warnings as in _laplacian_core.
    """
    head, tail = g._ends[0::2], g._ends[1::2]
    if left.dtype == np.int64:
        c, c_sum, _ = _int_edges(g)
        bound = max(1, _max_abs(left), _max_abs(right))
        if 4 * bound * bound * c_sum >= _INT64_LIMIT:
            raise OverflowError("int64 energy pairing past its bound 4 * max(1, max|f|)^2 * sum c < 2^63")
        d_right = right.take(head, 1) - right.take(tail, 1)
        d_left = d_right if left is right else left.take(head, 1) - left.take(tail, 1)
        return (d_left * c) @ d_right.T
    c = _float_edges(g)[2]
    fsum = math.fsum
    with np.errstate(over="ignore", invalid="ignore"):
        d_right = right.take(head, 1) - right.take(tail, 1)
        d_left = d_right if left is right else left.take(head, 1) - left.take(tail, 1)
        rows = [list(map(fsum, (row * d_right).tolist())) for row in d_left * c]
    return np.array(rows, dtype=np.float64).reshape(len(left), len(right))


def _energy_pairs(g: WeightedGraph, lefts, rights) -> list:
    """rows[j][k] = <lefts[j], rights[k]>_E by the dict loop of the energy forms.

    Each edge (u, v, c) contributes (c * conj(d1)) * d2 with
    d = f(u) - f(v), in record order, and each entry sums its terms by
    _accumulate.  The factors of each function are formed once: the left
    c * conj(d), the right d.
    """
    left = [[c * (f[u] - f[v]).conjugate() for u, v, c in g.edges] for f in lefts]
    right = [[f[u] - f[v] for u, v, _ in g.edges] for f in rights]
    return [[_accumulate(list(map(mul, lj, rk))) for rk in right] for lj in left]


def energy_inner(g: WeightedGraph, f1, f2):
    """Dirichlet energy pairing.

    <f1, f2>_E = 1/2 sum_x sum_{y~x} c(x,y) conj(f1(x)-f1(y)) (f2(x)-f2(y)),
    evaluated as one term per undirected edge (the 1/2 cancels the double
    count).  Constants pair to zero with everything.
    """
    _check_function(g, f1)
    _check_function(g, f2)
    return _energy_pairs(g, (f1,), (f2,))[0][0]


def energy_gram(g: WeightedGraph, fs) -> list:
    """Energy pairings of every ordered pair: rows[j][k] == energy_inner(g, fs[j], fs[k]).

    Each function is validated once, and the entries come from
    energy_inner's loop, so each equals energy_inner's in value, type and
    bits.  All n^2 entries are summed: complex data is Hermitian only in
    exact arithmetic, so the lower triangle is not a mirror of the upper.
    """
    fs = list(fs)
    for f in fs:
        _check_function(g, f)
    return _energy_pairs(g, fs, fs)


def quadratic_form_l2(g: WeightedGraph, f):
    """The form <f, Lf>_l2 via its two-sum expansion.

    Returns sum_x c(x)|f(x)|^2 - sum_x sum_{y~x} c(x,y) conj(f(x)) f(y),
    which is an independent route to l2_inner(g, f, laplacian_apply(g, f))
    and is nonnegative for every f.
    """
    _check_function(g, f)
    diag = _accumulate([g.total[x] * f[x].conjugate() * f[x] for x in g.vertices])
    cross_terms = []
    for x in g.vertices:
        fx_bar = f[x].conjugate()
        for y, c in g.adjacency[x]:
            cross_terms.append(c * fx_bar * f[y])
    return _real_part(diag - _accumulate(cross_terms))


def quadratic_form_energy(g: WeightedGraph, f):
    """The form <f, Lf>_E via the image of the Laplacian.

    Returns sum_{x != o} |(Lf)(x)|^2 + |sum_{x != o} (Lf)(x)|^2.  Because
    the Laplacian image always sums to zero over all vertices, this equals
    energy_inner(g, f, laplacian_apply(g, f)) and is nonnegative.
    """
    lap = laplacian_apply(g, f)
    o = g.origin
    vals = [lap[x] for x in g.vertices if x != o]
    square = _accumulate([v.conjugate() * v for v in vals])
    tail = _accumulate(vals)
    return _real_part(square + tail.conjugate() * tail)


def conductance_mean(g: WeightedGraph, f):
    """Average of f against the conductance weights: sum_x c(x) f(x) / sum_x c(x).

    This is the mean under the stationary measure of the induced walk; it
    is exact for int/Fraction data.
    """
    _check_function(g, f)
    num = _accumulate([g.total[x] * f[x] for x in g.vertices])
    den = _accumulate([g.total[x] for x in g.vertices])
    if _is_exact(num) and _is_exact(den):
        return Fraction(num) / Fraction(den)
    return num / den
