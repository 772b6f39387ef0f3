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
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_walks import eigh, gram_matrix, spectra, words_up_to
from spectral_walks.tree import common_prefix_length

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
