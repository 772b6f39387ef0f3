"""Gram eigensystems, the reciprocity identities, and the KL apparatus."""

import contextlib
import hashlib
import io
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_walks import (
    WeightedGraph,
    cli,
    eigh,
    gram_matrix,
    gram_spectrum,
    kl_vectors,
    kl_gram_check,
    dipole_combination,
    rayleigh_energy,
    reciprocity_spectrum,
    r_function,
    spectral_growth,
    linear_independence_check,
    tree_graph,
    words_up_to,
    energy_inner,
    laplacian_apply,
)
from spectral_walks import spectra
from spectral_walks.rng import mix64
from spectral_walks.spectra import kl_value, kl_vertex_function
from spectral_walks.tree import common_prefix_length


class TestEigh:
    def test_diagonal(self):
        vals, vecs = eigh([[1.0, 0.0], [0.0, 3.0]])
        assert np.allclose(vals, [3.0, 1.0], atol=1e-14)
        assert np.allclose(np.abs(vecs), np.eye(2)[:, ::-1], atol=1e-14)

    def test_two_by_two_closed_form(self):
        for n in (2, 10, 100):
            vals, vecs = eigh([[1.0, 1.0], [1.0, float(n)]])
            root = math.sqrt((n + 1) ** 2 - 4 * (n - 1))
            assert abs(vals[0] - (n + 1 + root) / 2) <= 1e-9
            assert abs(vals[1] - (n + 1 - root) / 2) <= 1e-9

    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 8, 12):
            for _ in range(4):
                a = rng.normal(size=(n, n))
                a = (a + a.T) / 2
                vals, vecs = eigh(a)
                ref = np.sort(np.linalg.eigvalsh(a))[::-1]
                scale = max(float(np.linalg.norm(a)), 1.0)
                assert np.max(np.abs(vals - ref)) <= 1e-10 * scale
                assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-10 * scale
                assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-10

    def test_residual_and_orthonormality_on_grams(self):
        for words in (("1", "11", "111"), tuple(words_up_to(3))):
            gs = gram_spectrum(words)
            m = gs.matrix.astype(float)
            fro = float(np.linalg.norm(m))
            assert np.max(np.abs(m @ gs.eigenvectors - gs.eigenvectors * gs.eigenvalues)) <= 1e-10 * fro
            n = len(words)
            assert np.max(np.abs(gs.eigenvectors.T @ gs.eigenvectors - np.eye(n))) <= 1e-10
            assert all(gs.eigenvalues[i] >= gs.eigenvalues[i + 1] for i in range(n - 1))

    def test_deterministic_to_the_bit(self):
        a = np.random.default_rng(3).normal(size=(7, 7))
        a = a + a.T
        v1, w1 = eigh(a)
        v2, w2 = eigh(a)
        assert v1.tobytes() == v2.tobytes()
        assert w1.tobytes() == w2.tobytes()

    def test_sign_convention(self):
        _, vecs = eigh([[0.0, 1.0], [1.0, 0.0]])
        for j in range(2):
            lead = np.nonzero(np.abs(vecs[:, j]) > 1e-12)[0]
            assert vecs[lead[0], j] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigh([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigh([[1.0, 2.0, 3.0]])

    def test_one_by_one(self):
        vals, vecs = eigh([[4.0]])
        assert vals[0] == 4.0 and vecs[0, 0] == 1.0


class TestGram:
    def test_frozen_matrices(self):
        assert gram_matrix(("1", "11", "111")).tolist() == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]
        assert gram_matrix(("0", "111")).tolist() == [[1, 0], [0, 3]]
        assert gram_matrix(("10", "11")).tolist() == [[2, 1], [1, 2]]
        assert gram_matrix(("1", "1111111111")).tolist() == [[1, 1], [1, 10]]

    def test_rejects_origin_and_duplicates(self):
        with pytest.raises(ValueError):
            gram_matrix(("", "1"))
        with pytest.raises(ValueError):
            gram_matrix(("1", "1"))
        with pytest.raises(ValueError):
            gram_matrix(())

    def test_linear_independence(self):
        assert linear_independence_check(("1", "11", "10"))
        assert linear_independence_check(tuple(words_up_to(3)))


class TestReciprocity:
    def test_r_function_frozen_tables(self):
        rf = dict(r_function(gram_spectrum(("0", "111"))))
        assert abs(rf[3.0] - 2.0 / 3.0) <= 1e-10
        assert abs(rf[1.0] - 2.0) <= 1e-10
        rf = {round(lam, 9): r for lam, r in r_function(gram_spectrum(("10", "11")))}
        assert abs(rf[3.0] - 1.0) <= 1e-10
        assert abs(rf[1.0] - 1.0) <= 1e-10

    def test_routes_agree_per_eigenvector(self):
        for words in (("1", "11", "111"), ("10", "11"), tuple(words_up_to(3))):
            for lam, energy_route, coeff_route in reciprocity_spectrum(words):
                assert abs(energy_route - coeff_route) <= 1e-9

    def test_rayleigh_exact_for_rational_input(self):
        g = tree_graph(3)
        u = dipole_combination(g, ("1", "10"), (Fraction(1, 2), Fraction(-1, 3)))
        val = rayleigh_energy(g, u)
        assert isinstance(val, Fraction)
        # <u, Lu>_E = xi.xi + (sum xi)^2 over the dipole pairing, exactly
        xi = (Fraction(1, 2), Fraction(-1, 3))
        m = [[1, 1], [1, 2]]
        num = sum(a * a for a in xi) + sum(xi) ** 2
        den = sum(xi[i] * m[i][j] * xi[j] for i in range(2) for j in range(2))
        assert val == num / den

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), np.float64(math.nan)])
    def test_rayleigh_refuses_a_value_that_is_not_finite(self, value):
        g = tree_graph(3)
        u = {v: float(len(v)) for v in g.vertices}
        u["01"] = value
        with pytest.raises(ValueError, match="not finite"):
            rayleigh_energy(g, u)

    def test_rayleigh_refuses_an_energy_that_overflows(self):
        # both energies overflow to inf, whose quotient would be nan
        g = tree_graph(3)
        with pytest.raises(ArithmeticError, match="energy is not finite"):
            rayleigh_energy(g, {v: 1e300 * len(v) for v in g.vertices})

    def test_rayleigh_keeps_exact_values_of_any_size(self):
        g = tree_graph(3)
        u = {v: 10**400 * len(v) for v in g.vertices}
        assert rayleigh_energy(g, u) == rayleigh_energy(g, {v: len(v) for v in g.vertices})

    def test_zero_sum_reciprocity_exact(self):
        # with zero-sum coefficients the boundary term drops out entirely
        g = tree_graph(3)
        xi = (Fraction(1), Fraction(-1))
        u = dipole_combination(g, ("1", "10"), xi)
        val = rayleigh_energy(g, u)
        m = [[1, 1], [1, 2]]
        den = sum(xi[i] * m[i][j] * xi[j] for i in range(2) for j in range(2))
        assert val == Fraction(2) / den


class TestKL:
    def test_w_vectors_restrict_to_eigenvectors(self):
        words = ("1", "11", "111")
        gs = gram_spectrum(words)
        for vec in kl_vectors(gs):
            for i, y in enumerate(words):
                assert abs(kl_value(vec, y) - gs.eigenvectors[i, vec.index]) <= 1e-10

    def test_w_gram_is_inverse_spectrum(self):
        gs = gram_spectrum(("1", "11", "111"))
        got = kl_gram_check(gs)
        want = np.diag(1.0 / gs.eigenvalues)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_u_vectors_orthonormal(self):
        gs = gram_spectrum(("1", "11", "10", "00"))
        got = kl_gram_check(gs, normalized=True)
        assert np.max(np.abs(got - np.eye(4))) <= 1e-8

    def test_u_laplacian_pairing_formulas(self):
        words = ("1", "11", "10", "011")
        gs = gram_spectrum(words)
        g = tree_graph(3)
        vecs = kl_vectors(gs, normalized=True)
        fns = [kl_vertex_function(v, g) for v in vecs]
        laps = [laplacian_apply(g, f) for f in fns]
        sums = [gs.coefficient_sum(j) for j in range(len(words))]
        lams = gs.eigenvalues
        for j in range(len(words)):
            for k in range(len(words)):
                got = energy_inner(g, fns[j], laps[k])
                got = got.real if isinstance(got, complex) else float(got)
                if j == k:
                    want = (1.0 + sums[j] ** 2) / lams[j]
                else:
                    want = sums[j] * sums[k] / math.sqrt(lams[j] * lams[k])
                assert abs(got - want) <= 1e-8

    def test_diagonal_pairing_equals_r_function(self):
        gs = gram_spectrum(("1", "11", "111"))
        rf = r_function(gs)
        for j, (lam, r) in enumerate(rf):
            assert abs(r - (1.0 + gs.coefficient_sum(j) ** 2) / lam) <= 1e-12

    def test_reconstruction(self):
        gs = gram_spectrum(tuple(words_up_to(3)))
        n = len(gs.words)
        rebuilt = sum(
            gs.eigenvalues[j] * np.outer(gs.eigenvectors[:, j], gs.eigenvectors[:, j])
            for j in range(n)
        )
        fro = float(np.linalg.norm(gs.matrix.astype(float)))
        assert np.max(np.abs(rebuilt - gs.matrix)) <= 1e-9 * fro


def test_spectral_growth_matches_set_size():
    for d in range(1, 5):
        words = words_up_to(d)
        assert abs(spectral_growth(words) - len(words)) <= 1e-8


# ---------------------------------------------------------------- dipole kernel

def word_order_sum(vertices, words, coefficients):
    """The scalar loop in word order: sum_k coefficients[k] * common_prefix_length(words[k], y), from the int 0."""
    out = {}
    for y in vertices:
        acc = 0
        for xi, x in zip(coefficients, words):
            acc += xi * common_prefix_length(x, y)
        out[y] = acc
    return out


def dipole_oracle(vertices, words, coefficients):
    """The scalar loop in the prefix order of the dipole kernel.

    S(u) = c(u) (0 off the words) + S(u0) + S(u1) over the nonempty
    prefixes u of the words, children outside them skipped; the sum at y
    adds S(u) for u = y[:1], y[:2], ... while u is such a prefix, starting
    from the zero 0 + sum_k coefficients[k] * 0.
    """
    coef = dict(zip(words, coefficients))
    prefixes = {x[:k] for x in words for k in range(1, len(x) + 1)}

    def subtree(u):
        acc = 0 + coef.get(u, 0)
        for child in (u + "0", u + "1"):
            if child in prefixes:
                acc += subtree(child)
        return acc

    sums = {u: subtree(u) for u in prefixes}
    zero = sum(0 * c for c in coefficients)
    out = {}
    for y in vertices:
        acc = zero
        for k in range(1, len(y) + 1):
            if y[:k] not in sums:
                break
            acc += sums[y[:k]]
        out[y] = acc
    return out


def float_bits(f):
    return [float(v).hex() for v in f.values()]


@st.composite
def word_sets(draw, max_size=12):
    """Distinct words of length <= 6 in random order, and a tree at least as deep."""
    words = draw(st.lists(st.sampled_from(words_up_to(6)), min_size=1, max_size=max_size, unique=True))
    depth = max(map(len, words)) + draw(st.integers(0, 2))
    return tuple(words), tree_graph(depth)


floats_st = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


class TestDipoleKernel:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), case=word_sets())
    def test_float_coefficients_are_bit_identical(self, data, case):
        words, g = case
        xi = np.array(data.draw(st.lists(floats_st, min_size=len(words), max_size=len(words))), dtype=np.float64)
        got = dipole_combination(g, words, xi)
        want = dipole_oracle(g.vertices, words, xi)
        assert list(got) == list(g.vertices)
        assert float_bits(got) == float_bits(want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), case=word_sets())
    def test_exact_coefficients_stay_exact(self, data, case):
        # the prefix order changes no exact sum: values and types are those of the word-order loop
        words, g = case
        n = len(words)
        for coeff in (st.integers(-2 ** 70, 2 ** 70), st.fractions(max_denominator=60)):
            xi = data.draw(st.lists(coeff, min_size=n, max_size=n))
            got = dipole_combination(g, words, xi)
            want = word_order_sum(g.vertices, words, xi)
            assert got == want
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), case=word_sets())
    def test_sums_at_the_words_are_the_gram_product(self, data, case):
        # M[x, y] = v_y(x), so the kernel read at the words is M xi, exactly for int xi
        words, _ = case
        xi = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(words), max_size=len(words)))
        got = spectra._dipole_sums(words, words, xi)
        assert got.tolist() == (gram_matrix(words) @ np.array(xi, dtype=np.int64)).tolist()

    @pytest.mark.parametrize("coefficients", [np.array([-0.5, -1.5]), [-0.5, -1.5]])
    def test_all_negative_coefficients_keep_a_positive_zero(self, coefficients):
        # the root shares no prefix with any word: its sum is the zero it starts from, +0.0
        root = dipole_combination(tree_graph(3), ["1", "01"], coefficients)[""]
        assert root == 0.0 and math.copysign(1.0, root) == 1.0

    def test_fraction_columns_sum_exactly(self):
        # a row of coefficients per word gives a column per vector, each exact and of its own type
        got = spectra._dipole_sums(("1", "011"), ("10", "0111"), [[Fraction(1, 3), 1], [Fraction(-1, 7), 2]])
        assert got.tolist() == [[Fraction(1, 3), 1], [Fraction(-3, 7), 6]]
        assert [type(v) for v in got[1]] == [Fraction, int]

    def test_no_int64_wrap(self):
        got = dipole_combination(tree_graph(3), ("11", "111"), [2 ** 62, 2 ** 62])["111"]
        assert got == 5 * 2 ** 62 and type(got) is int

    @settings(max_examples=30, deadline=None)
    @given(case=word_sets(max_size=8), normalized=st.booleans())
    def test_kl_vectors_are_scaled_oracle(self, case, normalized):
        words, g = case
        for vec in kl_vectors(gram_spectrum(words), normalized=normalized):
            want = {y: vec.scale * v for y, v in dipole_oracle(g.vertices, words, vec.coefficients).items()}
            assert float_bits(kl_vertex_function(vec, g)) == float_bits(want)
            assert [float(kl_value(vec, y)).hex() for y in g.vertices] == float_bits(want)

    def test_validation(self):
        with pytest.raises(TypeError):
            dipole_combination(WeightedGraph([0, 1], [(0, 1, 1)], 0), ("1",), [1])
        with pytest.raises(ValueError):
            dipole_combination(WeightedGraph(["", "2"], [("", "2", 1)], ""), ("1",), [1])
        with pytest.raises(ValueError):
            dipole_combination(tree_graph(2), ("1", "10"), [1])
        with pytest.raises(ValueError):
            dipole_combination(tree_graph(2), ("", "1"), [1, 1])
        # refused where it enters, before 0 * inf forms a nan or a numpy warning
        for bad, k in (([math.nan, 1.0], 0), ([math.inf, 1.0], 0), (np.array([1.0, -math.inf]), 1),
                       ([1, Fraction(1, 2), complex(1.0, math.nan)], 2)):
            with pytest.raises(ValueError, match=f"^coefficient {k} is not finite$"):
                dipole_combination(tree_graph(2), ("1", "10", "0")[:len(bad)], bad)

    @pytest.mark.parametrize("vertices", [["", "1", "12"], ["12", "1", ""], ["1", "x", "", "2"], ["1", 0, ""]])
    def test_bad_vertex_raises_like_the_per_entry_table(self, vertices):
        # reference: common_prefix_length on every (vertex, word) entry in row order
        g = WeightedGraph(vertices, list(zip(vertices, vertices[1:], [1] * len(vertices))), vertices[-1])
        words = ("1", "01")
        with pytest.raises((TypeError, ValueError)) as want:
            [[common_prefix_length(x, y) for x in words] for y in vertices]
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            dipole_combination(g, words, [1, 2])

    @pytest.mark.parametrize("depth", [None, 6])
    def test_one_kernel_pass_per_call(self, depth, monkeypatch):
        # the first vertex validates the words through common_prefix_length; no prefix-length table is built
        calls = {"checked": 0, "kernel": 0, "table": 0}

        def counting(kind, inner):
            def counted(*args):
                calls[kind] += 1
                return inner(*args)
            return counted

        monkeypatch.setattr(spectra, "common_prefix_length", counting("checked", spectra.common_prefix_length))
        words = tuple(words_up_to(4))
        gs = gram_spectrum(words)
        monkeypatch.setattr(spectra, "_dipole_sums", counting("kernel", spectra._dipole_sums))
        monkeypatch.setattr(spectra, "_prefix_lengths", counting("table", spectra._prefix_lengths))
        spectra.reciprocity_spectrum(gs, depth)
        assert calls == {"checked": len(words), "kernel": 1, "table": 0}
        calls.update(checked=0, kernel=0)
        kl_gram_check(gs, depth)
        assert calls == {"checked": len(words), "kernel": 1, "table": 0}

    def test_builds_no_vertex_by_word_table(self):
        # such a table would take 8191 x 2046 int64 = 134 MB; the prefix tree of the words has 2047 nodes
        g = tree_graph(12)
        words = words_up_to(10)
        xi = np.linspace(-1.0, 1.0, len(words))
        tracemalloc.start()
        try:
            dipole_combination(g, words, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------- the pair loops behind energy_gram

def kl_gram_loop(gs, g, normalized):
    """Reference: the KL Gram matrix as an upper-triangle loop of energy_inner calls."""
    sampled = [{y: vec.scale * v for y, v in dipole_oracle(g.vertices, gs.words, vec.coefficients).items()}
               for vec in kl_vectors(gs, normalized=normalized)]
    n = len(sampled)
    out = np.zeros((n, n))
    for j in range(n):
        for k in range(j, n):
            out[j, k] = out[k, j] = float(energy_inner(g, sampled[j], sampled[k]))
    return out


def dipole_gram_loop(words, g):
    """Reference: the dipole Gram matrix as an upper-triangle loop of energy_inner calls."""
    dipoles = [{y: common_prefix_length(x, y) for y in g.vertices} for x in words]
    n = len(words)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = float(energy_inner(g, dipoles[i], dipoles[j]))
    return m


def reciprocity_loop(words, g):
    """Reference: reciprocity_spectrum with one scalar dipole sum per eigenvector, read at the words for M xi."""
    gs = gram_spectrum(words)
    rows = []
    for j in range(len(words)):
        xi = gs.eigenvectors[:, j].copy()
        xi -= np.mean(xi)
        if float(np.linalg.norm(xi)) <= 1e-12:
            continue
        u = dipole_oracle(g.vertices, words, xi)
        m_xi = np.array([u[x] for x in words])
        rows.append((float(gs.eigenvalues[j]), float(rayleigh_energy(g, u)),
                     float(np.add.reduce(xi * xi)) / float(np.add.reduce(xi * m_xi))))
    return rows


def depth_of(g):
    return max(map(len, g.vertices))


@contextlib.contextmanager
def eigh_inputs():
    """Record every matrix spectra.eigh receives inside the block."""
    seen = []
    inner = spectra.eigh

    def recording(matrix):
        seen.append(np.array(matrix))
        return inner(matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "eigh", recording)
        yield seen


class TestPairLoopOracles:
    """One energy_gram pass and one batched dipole sum give the bits of the per-pair loops."""

    @settings(max_examples=30, deadline=None)
    @given(case=word_sets(max_size=10), normalized=st.booleans())
    def test_kl_gram_check(self, case, normalized):
        words, g = case
        gs = gram_spectrum(words)
        got = kl_gram_check(gs, depth_of(g), normalized=normalized)
        assert got.dtype == np.float64
        assert got.tobytes() == kl_gram_loop(gs, g, normalized).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=word_sets(max_size=10))
    def test_linear_independence_check(self, case):
        words, g = case
        with eigh_inputs() as seen:
            linear_independence_check(words, depth_of(g))
        assert len(seen) == 1
        assert seen[0].dtype == np.float64
        assert seen[0].tobytes() == dipole_gram_loop(words, g).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=word_sets(max_size=10))
    def test_reciprocity_spectrum(self, case):
        words, g = case
        assert reciprocity_spectrum(words, depth_of(g)) == reciprocity_loop(words, g)

    @settings(max_examples=20, deadline=None)
    @given(case=word_sets(max_size=10))
    def test_reciprocity_spectrum_takes_the_spectrum(self, case):
        words, g = case
        gs = gram_spectrum(words)
        want = reciprocity_loop(words, g)
        with eigh_inputs() as seen:
            assert reciprocity_spectrum(gs, depth_of(g)) == want
        assert seen == []

    def test_gram_command_diagonalizes_once(self, capsys):
        with eigh_inputs() as seen:
            assert cli.run(["spectra", "gram", "--words", "1,11,0,101", "--depth", "4"]) == 0
        capsys.readouterr()
        assert [m.shape for m in seen] == [(4, 4)]

    def test_complete_sets(self):
        for depth in range(1, 5):
            words = tuple(words_up_to(depth))
            g = tree_graph(depth)
            gs = gram_spectrum(words)
            for normalized in (False, True):
                assert kl_gram_check(gs, normalized=normalized).tobytes() == kl_gram_loop(gs, g, normalized).tobytes()
            with eigh_inputs() as seen:
                linear_independence_check(words)
            assert seen[0].tobytes() == dipole_gram_loop(words, g).tobytes()
            assert reciprocity_spectrum(words) == reciprocity_loop(words, g)


def forty_words(salt):
    """40 distinct words of length <= 6 in a fixed pseudo-random order."""
    return sorted(words_up_to(6), key=lambda w: mix64(salt << 32 | int("1" + w, 2)))[:40]


# sha256 of "<exit code>\n" + output bytes, recorded with the per-vertex dipole loops
# (spectra gram re-recorded when dipole sums moved to the prefix-tree order and M xi off BLAS: only
# the reciprocity table's energy_route, coefficient_route and gap cells moved, by at most 4e-15 relative)
GOLDEN_CLI = [
    (["spectra", "gram", "--words", ",".join(forty_words(1))],
     "ed3593c6370f5a49d4aec460d9ec54e661be77d507cd935207db699749d59613"),
    (["spectra", "gram", "--words", ",".join(forty_words(1)), "--out", "json"],
     "7341026192449668514f0efe94e96c6b7b73c255d9ba110e76058f5157f9f5ef"),
    (["spectra", "gram", "--words", ",".join(forty_words(2)), "--depth", "8"],
     "973b898ae740953141455f7f75a2879dce3041d9be300ada64b9415f95e030a8"),
    (["spectra", "gram", "--words", ",".join(forty_words(2)), "--depth", "8", "--out", "json"],
     "bec8d5afe208e817147f561b981823f9daa7df6f961d71ef6d34c10bb5e90092"),
    (["spectra", "gram", "--words", ",".join(words_up_to(5))],
     "3755da40b3224716b6f27d4d5989f3fcf4005290e2270e2984ea757822dd6ca6"),
    (["spectra", "gram", "--words", ",".join(words_up_to(5)), "--out", "json"],
     "7271738a9e3ecf3a4442494d87a6c81361e55c75829339ac0f13b7ea940979ac"),
    (["tree", "dipole", "--x", "101101", "--depth", "9", "--out", "json"],
     "d64f073f0ab605183f0bb8e040fd5fc4a6d470d10c491cd5ce6451404ca9d3dc"),
    (["tree", "dipole", "--x", "101101", "--depth", "12"],
     "778175bda7821a15b071563399f251dc0de15d4d87345826aaa6e6b47ecfad37"),
    (["verify", "all", "--seed", "0"],
     "78aed7da91aca3171901b16102af34f2242fa1cad1a6e73c192ab16632de3c50"),
    (["tree", "encode", "--word", "0110101"],
     "cc49ee8105cbc323ddbe4e58cb2c248cf349a92ef2fea5aa0b49413479b904a1"),
    (["verify", "all", "--quick"],
     "fa3edfdf27056a579402528bd266ec79e539696f23b3613f02e398a32496b251"),
    (["verify", "all", "--seed", "1", "--out", "json"],
     "b404984ffd08209fa52728e4366e5a0387c1aaced47a9ac18c77ee80d4a612e1"),
    (["spectra", "gram", "--words", ",".join(words_up_to(6))],
     "b2a46ec32f68bec7f27a73996e0f7983b8310c8c30ed567640b4f01f23751bac"),
    # 254 words: the float Rayleigh quotients at a size beyond the 62-word sets above
    (["spectra", "gram", "--words", ",".join(words_up_to(7)), "--depth", "7"],
     "4cf9e621fe3fb9375978d03e48e591b548a5b1fd2dc12c7d748ca821db9c116c"),
]


def golden_digest(argv, path):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run(argv + ["--output", str(path)])
    return hashlib.sha256(f"{rc}\n".encode() + path.read_bytes()).hexdigest()


def test_golden_dipole_cli_output(tmp_path):
    changed = [" ".join(argv[:2] + argv[4:]) for argv, want in GOLDEN_CLI
               if golden_digest(argv, tmp_path / "out.txt") != want]
    assert not changed


def exact_forms_inputs(seed):
    """The benchmark's exact_forms inputs at a seed: a 6-letter word and 40 distinct words of length <= 6."""
    rng = random.Random(seed)
    w6 = "".join(rng.choice("01") for _ in range(6))
    return w6, rng.sample(words_up_to(6), 40)


# sha256 of "<exit code>\n" + output bytes, recorded with the per-cell prefix loops, by seed of the inputs
# (spectra gram re-recorded as GOLDEN_CLI's, for the same reason)
GOLDEN_TABLE_CLI = {
    1: ("59be23c4a6af4cd8f5b46212543ed541fd2aa411f92ce53d7b492b1e0ec2ee2d",
        "21b131bdd16d686950e3e02f7c9f7fb051e2d853485e65f8169758e35aab8d02",
        "1ef1909e0132626847bd8ce4741b05b52ea3497d0b1aa67815be3295ccb44143",
        "de7d8b02ce5651e9ab2cea83b494c4c60b656fed0637e9e52337a0aab190166c"),
    2: ("64217612f8cb1457261cc66d753c570a7e9595f108a000418528f64c3301c605",
        "200c0d8ed0fd239b28b9ab7fb5ea0f4d6a4384a028e01ef0ccd6da49f0cc3704",
        "04cabe417c35346d13fc633a72c36de9573dfd6930f476f38d6052690c2340d2",
        "4148eea5a0adf8d04bb2d323427ad0c16f8421b0feda4e118b0d6805d1c5a51a"),
    3: ("9d2dc8287767ecdc44a9293edec0c0a2e3dc4305280542a56000d0573d740de1",
        "5a385280612302376c8a8f0fc4daaf9dbab1e75cbe4ca15587de942e644fc702",
        "df66a4888195bf2fb1029e6978c14af1bfe112b867fc58f6df0623d5b4e69961",
        "ed1c7358294366f82826f74f433ca504101af64d8e66779376527cea2fa26cc0"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_prefix_table_cli_output(threads, tmp_path, split_blocks):
    # tree dipole --depth 12, spectra gram on 40 words with --depth 6, and verify all: every table reader
    plans = split_blocks(threads)
    changed = []
    for seed, wants in GOLDEN_TABLE_CLI.items():
        w6, f40 = exact_forms_inputs(seed)
        gram = ["spectra", "gram", "--words", ",".join(f40), "--depth", "6"]
        argvs = (["tree", "dipole", "--x", w6, "--depth", "12", "--out", "json"], gram, gram + ["--out", "json"],
                 ["verify", "all", "--seed", str(seed + 1)])
        changed += [f"{seed}: " + " ".join(argv[:2]) for argv, want in zip(argvs, wants)
                    if golden_digest(argv, tmp_path / "out.txt") != want]
    assert not changed
    assert plans.all_split() == (threads == "2")
