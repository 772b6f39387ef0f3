"""Gram eigensystems, the reciprocity identities, and the KL apparatus."""

import contextlib
import hashlib
import io
import math
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

def dipole_oracle(vertices, words, coefficients):
    """The scalar loop: sum_k coefficients[k] * common_prefix_length(words[k], y), from the int 0."""
    out = {}
    for y in vertices:
        acc = 0
        for xi, x in zip(coefficients, words):
            acc += xi * common_prefix_length(x, y)
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
        words, g = case
        n = len(words)
        for coeff in (st.integers(-2 ** 70, 2 ** 70), st.fractions(max_denominator=60)):
            xi = data.draw(st.lists(coeff, min_size=n, max_size=n))
            got = dipole_combination(g, words, xi)
            want = dipole_oracle(g.vertices, words, xi)
            assert got == want
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]

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

    @pytest.mark.parametrize("depth", [None, 6])
    def test_one_table_per_call(self, depth, monkeypatch):
        calls = [0]
        inner = spectra.common_prefix_length

        def counted(x, y):
            calls[0] += 1
            return inner(x, y)

        monkeypatch.setattr(spectra, "common_prefix_length", counted)
        words = tuple(words_up_to(4))
        size = len(tree_graph(depth or 4)) * len(words)
        spectra.reciprocity_spectrum(words, depth)
        assert calls[0] == size
        calls[0] = 0
        kl_gram_check(gram_spectrum(words), depth)
        assert calls[0] == size


def forty_words(salt):
    """40 distinct words of length <= 6 in a fixed pseudo-random order."""
    return sorted(words_up_to(6), key=lambda w: mix64(salt << 32 | int("1" + w, 2)))[:40]


# sha256 of "<exit code>\n" + output bytes, recorded with the per-vertex dipole loops
GOLDEN_CLI = [
    (["spectra", "gram", "--words", ",".join(forty_words(1))],
     "bbdbfdc127bb81ae9bab7dc8595454d8a0e626e95a94a4a5b87783b8541176c3"),
    (["spectra", "gram", "--words", ",".join(forty_words(1)), "--out", "json"],
     "a02d8cdd1b49dfca36071b00546bf79f959c497a2b84cf74095147d482444bfc"),
    (["spectra", "gram", "--words", ",".join(forty_words(2)), "--depth", "8"],
     "3b80409ed68ec2cc83e252420c0ce5f1b7b893991e1dc896499655d68b3e0e48"),
    (["spectra", "gram", "--words", ",".join(forty_words(2)), "--depth", "8", "--out", "json"],
     "82bc1240ab1a219e50dd2d827c453f6f6c365cfdf3b64536ff1fb4ba7a9e56ea"),
    (["spectra", "gram", "--words", ",".join(words_up_to(5))],
     "fcfae8e28823e0f97b77cf23bedc2555a6d2c05482c7768ac3a7c8944919cd4b"),
    (["spectra", "gram", "--words", ",".join(words_up_to(5)), "--out", "json"],
     "36eba50b21177f020f3d69fcedf88277b0d3c834c15619c8eec1de4d7ee0f673"),
    (["tree", "dipole", "--x", "101101", "--depth", "9", "--out", "json"],
     "d64f073f0ab605183f0bb8e040fd5fc4a6d470d10c491cd5ce6451404ca9d3dc"),
]


def golden_digest(argv, path):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run(argv + ["--output", str(path)])
    return hashlib.sha256(f"{rc}\n".encode() + path.read_bytes()).hexdigest()


def test_golden_dipole_cli_output(tmp_path):
    changed = [" ".join(argv[:2] + argv[4:]) for argv, want in GOLDEN_CLI
               if golden_digest(argv, tmp_path / "out.txt") != want]
    assert not changed
