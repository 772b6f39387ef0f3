"""Finite weighted graphs with positive conductances.

A graph here is the discrete carrier for two operators and two inner
products: the conductance Laplacian, the one-step averaging (transfer)
operator, the pointwise l2 pairing, and the Dirichlet energy pairing.
Vertex functions are plain mappings ``{vertex: value}`` defined on every
vertex; values may be int, Fraction, float, or complex.  Integer and
Fraction inputs are carried exactly through every operation; float paths
accumulate with compensated summation.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from fractions import Fraction

__all__ = [
    "GraphError",
    "WeightedGraph",
    "load_graph",
    "laplacian_apply",
    "transfer_apply",
    "l2_inner",
    "energy_inner",
    "quadratic_form_l2",
    "quadratic_form_energy",
    "conductance_mean",
]


class GraphError(ValueError):
    """A graph violated one of the load-time axioms."""


def _is_exact(value) -> bool:
    """True for numbers we keep in exact arithmetic (bool excluded)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _accumulate(terms):
    """Sum a list of numbers: exact when every term is, compensated otherwise."""
    if all(_is_exact(t) for t in terms):
        return sum(terms)
    if any(isinstance(t, complex) for t in terms):
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

    Attributes:
        vertices: tuple of vertex ids in a stable caller-given order.
        edges: tuple of (u, v, c) triples, one per undirected edge.
        origin: the distinguished base vertex o.
        adjacency: dict vertex -> tuple of (neighbor, conductance).
        total: dict vertex -> c(x), the sum of conductances at x.
        distance: dict vertex -> number of edges on a shortest path from the origin.
    """

    __slots__ = ("vertices", "edges", "origin", "adjacency", "total", "index", "distance")

    def __init__(self, vertices, edges, origin):
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
            if u not in index or v not in index:
                raise GraphError(f"edge ({u!r}, {v!r}) has an endpoint that is not a vertex")
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if not _valid_conductance(c):
                raise GraphError(f"edge ({u!r}, {v!r}) has a non-positive or non-finite conductance {c!r}")
            key = (min(index[u], index[v]), max(index[u], index[v]))
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

        # connectedness and hop distances by breadth-first search from the origin
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

        self.vertices = vertices
        self.edges = tuple(clean)
        self.origin = origin
        self.adjacency = {v: tuple(nbrs) for v, nbrs in adjacency.items()}
        self.total = {v: _accumulate([c for _, c in adjacency[v]]) for v in vertices}
        self.index = index
        self.distance = distance

    def neighbors(self, x):
        """Neighbors of x as a tuple of (vertex, conductance)."""
        return self.adjacency[x]

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return (
            f"WeightedGraph({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, origin={self.origin!r})"
        )


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
    if set(f) != set(g.vertices):
        raise ValueError("vertex function does not match the graph's vertex set")


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


def energy_inner(g: WeightedGraph, f1, f2):
    """Dirichlet energy pairing.

    <f1, f2>_E = 1/2 sum_x sum_{y~x} c(x,y) conj(f1(x)-f1(y)) (f2(x)-f2(y)),
    evaluated as one term per undirected edge (the 1/2 cancels the double
    count).  Constants pair to zero with everything.
    """
    _check_function(g, f1)
    _check_function(g, f2)
    terms = []
    for u, v, c in g.edges:
        d1 = f1[u] - f1[v]
        d2 = f2[u] - f2[v]
        terms.append(c * d1.conjugate() * d2)
    return _accumulate(terms)


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
