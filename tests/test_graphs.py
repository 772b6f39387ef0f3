"""Weighted graph axioms and the exact operator identities."""

from fractions import Fraction

import pytest

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
