"""The Householder + QL eigensolver against exact integer structure and LAPACK.

For a prefix-closed word set F (every nonempty prefix of a word in F is
in F) the dipole Gram matrix factors as M = B B^T, with B[x, v] = 1 when v
is a nonempty prefix of x.  B is unitriangular under a parent-first order,
so det M = 1, and B^-1 = I - P with P[x, parent(x)] = 1, which makes
M^-1 = (I - P)^T (I - P) an exact integer matrix.  That inverse checks the
small eigenvalues to relative accuracy, where a residual against M alone
sees only absolute error.  On complete sets the digit swap 0 <-> 1 is an
automorphism of M with no fixed word, so every multiplicity is even.
"""

import functools
import hashlib
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_walks import eigh, gram_matrix, spectra, words_up_to
from spectral_walks.spectra import _QL_ITERATIONS
from spectral_walks.tree import common_prefix_length

try:
    from numpy._core._multiarray_umath import __cpu_features__ as _cpu_features
except ImportError:  # a numpy that does not expose its CPU dispatch table
    _cpu_features = {}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

words_st = st.text(alphabet="01", min_size=1, max_size=12)


def scalar_gram(words):
    return np.array([[common_prefix_length(x, y) for y in words] for x in words], dtype=np.int64)


def prefix_closure(words):
    return sorted({w[:k] for w in words for k in range(1, len(w) + 1)}, key=lambda w: (len(w), w))


def integer_inverse(words):
    """(I - P)^T (I - P) for a prefix-closed word set."""
    index = {w: i for i, w in enumerate(words)}
    b_inv = np.eye(len(words), dtype=np.int64)
    for w in words:
        if len(w) > 1:
            b_inv[index[w], index[w[:-1]]] = -1
    return b_inv.T @ b_inv


@functools.lru_cache(maxsize=None)
def complete_spectrum(depth):
    words = tuple(words_up_to(depth))
    m = gram_matrix(words)
    return words, m, *eigh(m)


def check_against_lapack(m, vals, vecs):
    a = m.astype(float)
    n = a.shape[0]
    fro = float(np.linalg.norm(a))
    assert np.max(np.abs(vals - np.linalg.eigvalsh(a)[::-1])) <= 1e-12 * fro
    assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-12 * fro
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-12


def check_exact_structure(words, m, vals, vecs):
    n = len(words)
    m_inv = integer_inverse(words)
    assert np.array_equal(m_inv @ m, np.eye(n, dtype=np.int64))
    assert abs(float(np.sum(np.log(vals)))) <= n * 1e-13
    # lambda_j M^-1 v_j = v_j, each column to relative accuracy
    assert np.max(np.abs((m_inv @ vecs) * vals - vecs)) <= 1e-12


class TestGramBuild:
    @settings(max_examples=200, deadline=None)
    @given(st.sets(words_st, min_size=1, max_size=40).map(sorted), st.randoms(use_true_random=False))
    def test_equals_scalar_prefix_counts(self, words, rnd):
        rnd.shuffle(words)
        got = gram_matrix(words)
        assert got.dtype == np.int64
        assert np.array_equal(got, scalar_gram(words))


class TestPrefixClosedOracle:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_complete_sets(self, depth):
        words, m, vals, vecs = complete_spectrum(depth)
        check_exact_structure(words, m, vals, vecs)
        check_against_lapack(m, vals, vecs)
        fro = float(np.linalg.norm(m.astype(float)))
        assert np.max(np.abs(vals[0::2] - vals[1::2])) <= 1e-12 * fro

    @settings(max_examples=40, deadline=None)
    @given(st.lists(words_st, min_size=1, max_size=25), st.randoms(use_true_random=False))
    def test_random_prefix_closed_sets(self, leaves, rnd):
        words = prefix_closure(leaves)
        rnd.shuffle(words)  # the inverse does not need a parent-first order
        m = gram_matrix(words)
        vals, vecs = eigh(m)
        check_exact_structure(words, m, vals, vecs)
        check_against_lapack(m, vals, vecs)


def test_eigenvectors_vanish_off_their_subtree():
    # words under different first digits share no prefix, so M splits into two blocks
    words = ("1", "10", "0", "01", "011", "11", "110")
    vals, vecs = eigh(gram_matrix(words))
    under_zero = np.array([w[0] == "0" for w in words])
    for j in range(len(words)):
        assert not vecs[under_zero, j].any() or not vecs[~under_zero, j].any()
    check_against_lapack(gram_matrix(words), vals, vecs)


class TestBitStability:
    def test_unaligned_storage(self):
        _, m, vals, vecs = complete_spectrum(6)
        n = m.shape[0]
        buf = np.zeros(n * n + 1)
        shifted = buf[1:].reshape(n, n)
        shifted[...] = m
        assert shifted.ctypes.data == buf.ctypes.data + 8
        got_vals, got_vecs = eigh(shifted)
        assert got_vals.tobytes() == vals.tobytes()
        assert got_vecs.tobytes() == vecs.tobytes()

    def test_cli_bytes_do_not_depend_on_thread_counts(self):
        argv = [sys.executable, "-m", "spectral_walks.cli", "spectra", "gram",
                "--words", ",".join(words_up_to(7))]
        procs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, SPECTRAL_WALKS_THREADS=threads,
                       PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
            procs.append(subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        digests = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert out.count(b"\n") > 254
            digests.append(hashlib.sha256(out).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64") or not _cpu_features.get("AVX2"),
                        reason="OpenBLAS's Prescott and Haswell kernels need an x86-64 CPU with AVX2")
    def test_gram_bytes_do_not_depend_on_openblas_settings(self, tmp_path):
        # spectra gram makes no BLAS call, so no OpenBLAS thread count or kernel choice moves a byte
        argv = [sys.executable, "-m", "spectral_walks.cli", "spectra", "gram", "--words", ",".join(words_up_to(8))]
        digests = set()
        for setting in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                        {"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"}):
            env = dict(os.environ, **setting, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
            out = tmp_path / "out.txt"
            rc = subprocess.run(argv + ["--output", str(out)], env=env, capture_output=True, timeout=300).returncode
            digests.add(hashlib.sha256(f"{rc}\n".encode() + out.read_bytes()).hexdigest())
        assert len(digests) == 1


class TestFailures:
    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "_QL_ITERATIONS", 0)
        with pytest.raises(RuntimeError, match="QL iteration did not converge"):
            eigh([[1.0, 1.0], [1.0, 2.0]])

    def test_diagonal_needs_no_sweep(self, monkeypatch):
        monkeypatch.setattr(spectra, "_QL_ITERATIONS", 0)
        vals, vecs = eigh(np.diag([1.0, 3.0, 2.0]))
        assert vals.tolist() == [3.0, 2.0, 1.0]
        assert vecs.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            eigh([[1.0, bad], [bad, 1.0]])

    def test_zero_matrix(self):
        vals, vecs = eigh(np.zeros((4, 4)))
        assert vals.tolist() == [0.0] * 4
        assert np.array_equal(vecs, np.eye(4))

    @pytest.mark.parametrize("m", [
        [[0.0, 1e308], [1e308, 0.0]],  # eigenvalues +-1e308, but the deflation tolerance overflows
        [[1e308, 1e308], [1e308, 1e308]],
        np.full((3, 3), 0.8e308),  # the Householder scale overflows
        [[0.0, 0.89e308, 0.3e308], [0.89e308, 0.0, 0.3e308], [0.3e308, 0.3e308, 0.0]],  # an eigenvalue overflows
    ])
    def test_overflow_raises(self, m):
        # a RuntimeWarning would fail the test too: the overflow raises and warns of nothing
        with pytest.raises(ArithmeticError, match="overflow"):
            eigh(m)

    def test_infinite_deflation_tolerance_raises(self):
        # |d_0| + |e_0| = 2e308: an infinite tolerance would deflate at once and keep the diagonal
        with pytest.raises(ArithmeticError, match="overflow"):
            spectra._implicit_ql([1e308, 1e308], [1e308, 0.0], np.eye(2))

    @pytest.mark.parametrize("m, want", [
        ([[1e308, 0.0], [0.0, 1.0]], [1e308, 1.0]),
        (np.diag([1e308, 1e308]), [1e308, 1e308]),
    ])
    def test_entries_past_half_the_limit_in_a_symmetric_matrix(self, m, want):
        # (a + a^T) / 2 would overflow here; an exactly symmetric matrix is solved as it is
        vals, vecs = eigh(m)
        assert vals.tolist() == want
        assert vecs.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_signed_zeros_facing_each_other_are_averaged(self):
        # -0.0 opposite +0.0 is symmetric but not bit-symmetric: the mean is +0.0, and solving the
        # matrix as it is would change bits of this eigensystem
        m = np.array([[2.0, -2.0, 2.0, 2.0], [-2.0, -2.0, 2.0, -1.0], [2.0, 2.0, -2.0, 0.0], [2.0, -1.0, -0.0, 1.0]])
        vals, vecs = eigh(m)
        want_vals, want_vecs = eigh(m + 0.0)  # -0.0 + 0.0 is +0.0
        assert vals.tobytes() == want_vals.tobytes()
        assert vecs.tobytes() == want_vecs.tobytes()

    def test_large_entries_below_the_limit(self):
        vals, vecs = eigh([[1e300, 1e300], [1e300, 1e300]])
        assert vals.tolist() == pytest.approx([2e300, 0.0], rel=1e-15, abs=1e285)
        check_against_lapack(np.array([[1.0, 1.0], [1.0, 1.0]]), vals / 1e300, vecs)

    def test_opposite_signs_near_the_limit_are_not_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eigh([[0.0, 1e308], [-1e308, 0.0]])

    @pytest.mark.parametrize("i, j, v, raises", [(299, 5, 5e-13, False), (5, 299, 1e-12, True),
                                                 (257, 129, 1e308, True)])
    def test_asymmetry_anywhere_in_the_matrix(self, i, j, v, raises):
        # v facing -v differs by 2v: 1e-12 at the tolerance passes, 2e-12 is refused, and near the
        # float limit 2v overflows to inf without a warning and is refused
        m = np.eye(300)
        m[i, j], m[j, i] = v, -v
        if raises:
            with pytest.raises(ValueError, match="not symmetric"):
                eigh(m)
        else:
            assert eigh(m)[0].size == 300

    @pytest.mark.parametrize("m", [np.array([[1, 1j], [-1j, 1]]), [[1, 1j], [-1j, 1]], np.eye(2, dtype=complex)])
    def test_rejects_complex(self, m):
        # the cast to float64 would drop the imaginary parts: [[1, i], [-i, 1]] has eigenvalues 0 and 2, not 1 and 1
        with pytest.raises(TypeError, match="real matrix"):
            eigh(m)


def blocks_by_repeated_search(a):
    """One hop-count search per component, each from the lowest index not yet in a component."""
    from spectral_walks.graphs import _hop_counts, _pattern_arcs

    _, cols, starts = _pattern_arcs(a != 0.0)
    unseen = np.ones(len(a), dtype=bool)
    blocks = []
    while unseen.any():
        members = _hop_counts(cols, starts, int(np.argmax(unseen))) >= 0
        unseen &= ~members
        blocks.append(np.flatnonzero(members))
    return blocks


@st.composite
def permuted_block_matrices(draw):
    """Symmetric matrices on 1-40 indices: random blocks, sparse inside, in a random index order."""
    n = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = draw(st.sampled_from([0.0, 1.0, 2.5]))
        for j in range(i):
            if labels[i] == labels[j] and draw(st.integers(0, 3)) == 0:
                a[i, j] = a[j, i] = draw(st.sampled_from([-1.0, 0.5, 3.0]))
    return a


class TestComponents:
    @settings(max_examples=200, deadline=None)
    @given(permuted_block_matrices())
    def test_one_pass_equals_repeated_searches(self, a):
        got, want = spectra._blocks(a), blocks_by_repeated_search(a)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_diagonal_matrix_is_one_block_per_index(self):
        a = np.diag(np.arange(1.0, 1023.0))
        assert [b.tolist() for b in spectra._blocks(a)] == [[i] for i in range(1022)]
        vals, vecs = eigh(a)
        assert vals.tolist() == list(np.arange(1022.0, 0.0, -1.0)) and np.array_equal(vecs, np.eye(1022)[:, ::-1])

    @pytest.mark.parametrize("m, want_vals, want_vecs", [
        # a -0.0 entry comes back +0.0: the QL loop adds its zero shift to every eigenvalue
        (np.diag([-0.0, 3.0, -0.0]), [3.0, 0.0, 0.0], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        (np.diag([2.0, 2.0]), [2.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]),
        (gram_matrix(("0", "111")), [3.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]),
    ])
    def test_one_element_blocks_are_pinned(self, m, want_vals, want_vecs):
        vals, vecs = eigh(m)
        assert vals.tobytes() == np.array(want_vals).tobytes()
        assert vecs.tobytes() == np.array(want_vecs).tobytes()


def reference_ql(d, e, z):
    """Implicit QL with each rotation applied to its pair of rows of z at once, as a carry.

    The recurrence of spectra._implicit_ql, with the eigenvector update of
    EISPACK tql2: one rotation at a time, row i+1 of z held as the carry.
    """
    n = len(d)
    shift = 0.0
    tst1 = 0.0
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        tol = 2.0 ** -52 * tst1
        m = l
        while m < n - 1 and abs(e[m]) > tol:
            m += 1
        sweeps = 0
        while m > l and abs(e[l]) > tol:
            assert sweeps < _QL_ITERATIONS
            sweeps += 1
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * e[l])
            r = math.hypot(p, 1.0)
            if p < 0.0:
                r = -r
            d[l] = e[l] / (p + r)
            d[l + 1] = e[l] * (p + r)
            dl1 = d[l + 1]
            h = g - d[l]
            for i in range(l + 2, n):
                d[i] -= h
            shift += h
            p = d[m]
            c = c2 = c3 = 1.0
            el1 = e[l + 1]
            s = s2 = 0.0
            carry = z[m].copy()
            for i in range(m - 1, l - 1, -1):
                c3 = c2
                c2 = c
                s2 = s
                g = c * e[i]
                h = c * p
                r = math.hypot(p, e[i])
                e[i + 1] = s * r
                s = e[i] / r
                c = p / r
                p = c * d[i] - s * g
                d[i + 1] = h + s * (c * g + s * d[i])
                zi = z[i]
                z[i + 1] = s * zi + c * carry
                carry = c * zi - s * carry
            z[l] = carry
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l] = s * p
            d[l] = c * p
        d[l] += shift
        e[l] = 0.0


@st.composite
def symmetric_blocks(draw):
    """Symmetric matrices of size 1-40: dense, sparse, banded, integer, with repeated eigenvalues or nearly diagonal.

    Some zero entries are -0.0, placed symmetrically.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dense", "sparse", "banded", "integer", "twin", "constant", "diagonal"]))
    a = rng.standard_normal((n, n))
    if kind == "sparse":
        a *= rng.random((n, n)) < 0.15
    elif kind == "banded":
        width = draw(st.integers(1, 3))
        a = np.triu(np.tril(a, width), -width)
    elif kind == "integer":
        a = np.round(2.0 * a)
    elif kind == "twin":
        # two copies of one block, so each of its eigenvalues is double (and a zero row when n is odd)
        half = n // 2
        twin = np.kron(np.eye(2), a[:half, :half])
        a = np.zeros((n, n))
        a[:2 * half, :2 * half] = twin
    elif kind == "constant":
        a = np.full((n, n), 1.5)  # eigenvalue 0 with multiplicity n - 1
    elif kind == "diagonal":
        # tridiagonal with most off-diagonals zero, so QL deflates at once
        a = np.diag(np.diag(a)) + np.diag(np.diag(a, 1) * (rng.random(n - 1) < 0.2), 1)
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    zeros = (a == 0.0) & (rng.random((n, n)) < 0.5)
    zeros &= zeros.T
    a[zeros] = -0.0
    return a


class TestRotationSchedule:
    """The level-by-level rotations of _implicit_ql give the bits of one rotation at a time."""

    @settings(max_examples=300, deadline=None)
    @given(symmetric_blocks())
    def test_levels_equal_one_rotation_at_a_time(self, a):
        d, e, z = spectra._tridiagonalize(a)
        want_d, want_e, want_z = list(d), list(e), z.copy()
        reference_ql(want_d, want_e, want_z)
        spectra._implicit_ql(d, e, z)
        assert np.array(d).tobytes() == np.array(want_d).tobytes()
        assert z.tobytes() == want_z.tobytes()


def count_solves(monkeypatch):
    """Count the _tridiagonalize calls, one per block that eigh solves."""
    calls = []
    tridiagonalize = spectra._tridiagonalize

    def counted(a):
        calls.append(a.shape[0])
        return tridiagonalize(a)

    monkeypatch.setattr(spectra, "_tridiagonalize", counted)
    return calls


def path_block(corner):
    """A connected 3 x 3 block whose corner entries, zero, are the given zero."""
    return np.array([[1.0, 1.0, corner], [1.0, 2.0, 1.0], [corner, 1.0, 3.0]])


def two_blocks(first, second):
    a = np.zeros((6, 6))
    a[:3, :3] = first
    a[3:, 3:] = second
    return a


class TestBlockReuse:
    @pytest.mark.parametrize("depth", range(2, 8))
    def test_complete_sets_solve_one_block(self, monkeypatch, depth):
        m = gram_matrix(words_up_to(depth)).astype(float)
        blocks = [b for b in spectra._blocks(m) if b.size > 1]
        assert len(blocks) == 2 and len({m[np.ix_(b, b)].tobytes() for b in blocks}) == 1
        calls = count_solves(monkeypatch)
        eigh(m)
        assert calls == [blocks[0].size]

    @pytest.mark.parametrize("second", [
        path_block(-0.0),
        path_block(0.0) + np.diag([0.0, 0.0, np.spacing(3.0)]),  # one ulp at the last diagonal entry
    ])
    def test_blocks_that_differ_in_any_bit_are_solved_apart(self, monkeypatch, second):
        calls = count_solves(monkeypatch)
        eigh(two_blocks(path_block(0.0), second))
        assert calls == [3, 3]
        calls.clear()
        eigh(two_blocks(path_block(0.0), path_block(0.0)))
        assert calls == [3]

    @pytest.mark.parametrize("depth", [3, 6])
    def test_reused_block_equals_its_own_solve(self, depth):
        a = gram_matrix(words_up_to(depth)).astype(float)
        vals, rows = spectra._solve_blocks(a)
        start = 0
        for block in spectra._blocks(a):
            d, e, z = spectra._tridiagonalize(a[np.ix_(block, block)])
            spectra._implicit_ql(d, e, z)
            stop = start + block.size
            assert vals[start:stop].tobytes() == np.array(d).tobytes()
            assert rows[start:stop, block].tobytes() == z.tobytes()
            assert not np.delete(rows[start:stop], block, axis=1).any()
            start = stop
        assert start == len(a)


# sha256 of eigh's eigenvalue bytes then eigenvector bytes for words_up_to(8), recorded with
# the solver that applied one rotation at a time to each block
PINNED_EIGH_SHA256_DEPTH_8 = "2f5ad7d629d6e2b3f15e27c727b05880bbe599dd84869e91a18308d9d4271202"


def test_complete_set_eigensystem_is_pinned():
    _, m, vals, vecs = complete_spectrum(8)
    digest = hashlib.sha256(vals.tobytes() + vecs.tobytes()).hexdigest()
    assert digest == PINNED_EIGH_SHA256_DEPTH_8
