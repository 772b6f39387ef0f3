"""Gram matrices of tree dipoles and their spectral decomposition.

For a finite set F of nonempty words the Gram matrix M has entries
M[x, y] = dipole_value(x, y), exact integers.  Its eigensystem drives
three constructions checked against each other throughout:

* the Karhunen-Loeve vectors w_k = (1/lambda_k) sum_x xi_k(x) v_x and
  their unit-energy rescalings u_k = sqrt(lambda_k) w_k,
* the reciprocity pairing between Rayleigh quotients of the Laplacian in
  energy space and inverse Rayleigh quotients of M,
* the growth law sum_j <xi_j>^2 = |F| with <xi> the coefficient sum.

The eigensolver is Householder tridiagonalization followed by
implicit-shift QL, written with element-wise numpy operations and
reductions only (no BLAS or LAPACK call), so repeated runs are
bit-stable whatever the BLAS build or thread count.  The Gram matrix
and every vertex x word table of prefix lengths come from tree's one
int64 prefix-length kernel, exactly.  Every dipole sum sum_x c(x) v_x on
tree vertices reads one such table, built once per call with each word
and each vertex validated once; float64 c sums in float64, int and
Fraction c exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import WeightedGraph, _bfs_levels, _energy_core, _float_edges, _laplacian_core, energy_inner, laplacian_apply
from .tree import _prefix_lengths, check_words, common_prefix_length, tree_graph

__all__ = [
    "GramSpectrum",
    "KLVector",
    "eigh",
    "gram_matrix",
    "gram_spectrum",
    "kl_vectors",
    "kl_value",
    "kl_vertex_function",
    "kl_gram_check",
    "dipole_combination",
    "rayleigh_energy",
    "reciprocity_spectrum",
    "r_function",
    "spectral_growth",
    "linear_independence_check",
]


# sweeps allowed per eigenvalue, as in EISPACK tql2
_QL_ITERATIONS = 30


def eigh(matrix):
    """Eigendecomposition of a real symmetric matrix by Householder + implicit QL.

    Returns (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors as orthonormal columns.  The matrix is split into the
    connected components of its nonzero pattern, so an eigenvector is
    exactly zero off its component.  Each component is reduced to
    tridiagonal form by Householder reflections, and the tridiagonal
    matrix is diagonalized by implicit-shift QL sweeps with the rotations
    accumulated into the eigenvectors (the EISPACK tred2/tql2 scheme).  An
    off-diagonal entry counts as zero once it is at most 2^-52 times the
    largest |d_k| + |e_k| met so far.  Every step is an element-wise numpy
    operation or a numpy reduction in a fixed order, with no BLAS or
    LAPACK call, so the result is reproducible to the bit whatever the
    BLAS build or thread count.  Each eigenvector's sign is pinned by
    making its first component of magnitude > 1e-12 positive.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigh needs a square matrix")
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    a = (a + a.T) / 2.0
    vals = np.empty(n)
    rows = np.zeros((n, n))  # row j is the eigenvector for vals[j]
    start = 0
    for block in _blocks(a):
        d, e, z = _tridiagonalize(a[np.ix_(block, block)])
        _implicit_ql(d, e, z)
        stop = start + block.size
        vals[start:stop] = d
        rows[start:stop, block] = z
        start = stop
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = rows[order].T.copy()
    for j in range(n):
        col = vecs[:, j]
        lead = np.nonzero(np.abs(col) > 1e-12)[0]
        if lead.size and col[lead[0]] < 0.0:
            vecs[:, j] = -col
    return vals, vecs


def _blocks(a):
    """Index sets of the connected components of a's nonzero pattern, ascending.

    a is block diagonal up to a permutation along these sets, so each
    block is solved on its own and its eigenvectors vanish exactly off it.
    """
    linked = a != 0.0
    unseen = np.ones(a.shape[0], dtype=bool)
    blocks = []
    while unseen.any():
        members = _bfs_levels(linked, int(np.argmax(unseen))) >= 0
        unseen &= ~members
        blocks.append(np.flatnonzero(members))
    return blocks


def _tridiagonalize(a):
    """Householder reduction of the symmetric matrix a, overwritten, to Q^T a Q.

    Returns the diagonal d and the off-diagonal e (e[i] couples i and
    i+1, e[n-1] = 0) as lists, and z = Q^T: row j of z is column j of Q.
    """
    n = a.shape[0]
    e = [0.0] * n
    reflections = []
    for i in range(n - 1, 0, -1):
        # zero row i left of the subdiagonal with P = I - u u^T / h on the leading i x i block
        row = a[i, :i]
        scale = float(np.abs(row).sum())
        if i == 1 or scale == 0.0:
            e[i - 1] = float(row[-1])
            continue
        u = row / scale
        h = float((u * u).sum())
        f = float(u[-1])
        g = -math.copysign(math.sqrt(h), f)
        e[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        block = a[:i, :i]
        p = (block * u).sum(axis=1) / h
        q = p - (float((u * p).sum()) / (h + h)) * u
        block -= np.multiply.outer(u, q)
        block -= np.multiply.outer(q, u)
        reflections.append((i, u, h))
    d = np.diag(a).tolist()
    # Q = P_{n-1} ... P_2; each P_i touches only the leading i rows and columns
    z = np.eye(n)
    for i, u, h in reversed(reflections):
        block = z[:i, :i]
        block -= np.multiply.outer((block * u).sum(axis=1), u / h)
    return d, e, z


def _implicit_ql(d, e, z):
    """Diagonalize the tridiagonal (d, e) in place by implicit-shift QL.

    On return d holds the eigenvalues, unsorted, and each rotation has
    been applied to a pair of rows of z, so row j of z is the eigenvector
    for d[j].  Raises RuntimeError when an eigenvalue needs more than
    _QL_ITERATIONS sweeps.
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
            if sweeps == _QL_ITERATIONS:
                raise RuntimeError(f"QL iteration did not converge in {_QL_ITERATIONS} sweeps")
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
            # carry is row i+1 of z as rotated so far; row i+1 is final once rotation i is applied
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


def _check_words(words):
    words = tuple(check_words(words))
    if not words:
        raise ValueError("the word set is empty")
    if "" in words:
        raise ValueError("the origin carries no dipole and cannot enter F")
    if len(set(words)) != len(words):
        raise ValueError("duplicate words in F")
    return words


def gram_matrix(words) -> np.ndarray:
    """Exact integer Gram matrix of the dipoles {v_x : x in F} in energy form."""
    words = _check_words(words)
    return _prefix_lengths(words, words)


@dataclass(frozen=True, eq=False)
class GramSpectrum:
    """A word set F with its dipole Gram matrix and eigensystem.

    eigenvalues are descending; eigenvectors[:, j] is the unit eigenvector
    for eigenvalues[j].
    """

    words: tuple
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def coefficient_sum(self, j: int) -> float:
        """<xi_j> = sum over F of the j-th eigenvector's components."""
        return float(np.sum(self.eigenvectors[:, j]))


def gram_spectrum(words) -> GramSpectrum:
    words = _check_words(words)
    m = gram_matrix(words)
    vals, vecs = eigh(m)
    return GramSpectrum(words=words, matrix=m, eigenvalues=vals, eigenvectors=vecs)


@dataclass(frozen=True)
class KLVector:
    """One Karhunen-Loeve vector: coefficients over F and its eigenvalue.

    With normalized=False this is w_k, scaled 1/lambda_k, which restricts
    to xi_k on F.  With normalized=True it is u_k = sqrt(lambda_k) w_k,
    which has unit energy norm.
    """

    index: int
    eigenvalue: float
    words: tuple
    coefficients: np.ndarray
    normalized: bool

    @property
    def scale(self) -> float:
        if self.normalized:
            return 1.0 / math.sqrt(self.eigenvalue)
        return 1.0 / self.eigenvalue


def kl_vectors(gs: GramSpectrum, normalized: bool = False) -> list:
    return [
        KLVector(
            index=j,
            eigenvalue=float(gs.eigenvalues[j]),
            words=gs.words,
            coefficients=gs.eigenvectors[:, j].copy(),
            normalized=normalized,
        )
        for j in range(len(gs.words))
    ]


def _prefix_table(words, vertices) -> np.ndarray:
    """table[i, k] = v_{words[k]}(vertices[i]).

    The first row comes from common_prefix_length, which validates every
    word; the later vertices are validated in one pass, and the
    prefix-length kernel fills the other rows without validating the
    words again.
    """
    first, *rest = vertices
    table = np.empty((len(vertices), len(words)), dtype=np.int64)
    table[0] = [common_prefix_length(x, first) for x in words]
    table[1:] = _prefix_lengths(check_words(rest), words)
    return table


def _combine(table, coefficients) -> np.ndarray:
    """Row-wise sum_k table[:, k] * coefficients[k], added in word order from the int 0.

    coefficients[k] is one number per word, for one vector, or one row per
    word, for one column per vector; every element gets the same products
    and additions either way.  A float64 array sums in float64; other
    coefficients sum as Python objects, so int and Fraction sums stay
    exact at any magnitude.
    """
    if not (isinstance(coefficients, np.ndarray) and coefficients.dtype == np.float64):
        table = table.astype(object)
    acc = term = None
    for xi, column in zip(coefficients, table.T):
        if acc is None:
            term = np.multiply.outer(column, xi)
            # zeros of the term's dtype: 0 + (-0.0) is +0.0, as from the int 0
            acc = np.zeros_like(term)
        else:
            np.multiply.outer(column, xi, out=term)
        acc += term
    return acc


def kl_value(vec: KLVector, y: str) -> float:
    """Evaluate the KL vector at a tree vertex."""
    return vec.scale * _combine(_prefix_table(vec.words, (y,)), vec.coefficients)[0]


def kl_vertex_function(vec: KLVector, g: WeightedGraph) -> dict:
    """Sample a KL vector on the vertex set of a truncated tree."""
    values = vec.scale * _combine(_prefix_table(vec.words, g.vertices), vec.coefficients)
    return dict(zip(g.vertices, values.tolist()))


def dipole_combination(g: WeightedGraph, words, coefficients) -> dict:
    """The vertex function sum_i coefficients[i] * v_{words[i]} on g."""
    words = _check_words(words)
    if len(words) != len(coefficients):
        raise ValueError("one coefficient per word required")
    return dict(zip(g.vertices, _combine(_prefix_table(words, g.vertices), coefficients).tolist()))


def _tree_for(words, depth=None) -> WeightedGraph:
    need = max(len(w) for w in words)
    if depth is None:
        depth = need
    if depth < need:
        raise ValueError(f"truncation depth {depth} is below the longest word ({need})")
    return tree_graph(depth)


def kl_gram_check(gs: GramSpectrum, depth: int | None = None, normalized: bool = False) -> np.ndarray:
    """Energy Gram matrix of the KL vectors, computed on a truncated tree.

    Every inner product goes through the energy form of graphs (its
    array core, as energy_gram does), a route that never touches the
    eigendecomposition; the contract is diag(1/lambda_k) for the w_k and
    the identity matrix for the u_k.
    """
    g = _tree_for(gs.words, depth)
    vecs = kl_vectors(gs, normalized=normalized)
    columns = _combine(_prefix_table(gs.words, g.vertices), gs.eigenvectors).T
    sampled = np.array([v.scale * col for v, col in zip(vecs, columns)]).reshape(columns.shape)
    return _energy_core(g, sampled, sampled, _float_edges(g)[2])


def _is_finite(value) -> bool:
    # int and Fraction are finite at any magnitude, where math.isfinite would overflow
    return isinstance(value, (int, Fraction)) or math.isfinite(value.real) and math.isfinite(value.imag)


def _quotient(num, den):
    """num / den for the energies <u, Lu>_E and <u, u>_E, after their real parts are taken.

    A float energy that is not finite raises ArithmeticError, and den <= 0
    raises ValueError.
    """
    num = num.real if isinstance(num, complex) else num
    den = den.real if isinstance(den, complex) else den
    if not (_is_finite(num) and _is_finite(den)):
        raise ArithmeticError(f"energy is not finite (<u, Lu>_E = {num!r}, <u, u>_E = {den!r})")
    if den <= 0:
        raise ValueError("zero energy norm")
    if isinstance(num, float) or isinstance(den, float):
        return float(num) / float(den)
    return Fraction(num) / Fraction(den)


def rayleigh_energy(g: WeightedGraph, u):
    """Energy-form Rayleigh quotient <u, Lu>_E / <u, u>_E.

    Exact (a Fraction) when u and the conductances are rational.  A value
    of u that is not finite raises ValueError, and an energy that is not
    finite (a float overflow) raises ArithmeticError.
    """
    den = energy_inner(g, u, u)  # validates u
    if not all(map(_is_finite, u.values())):
        raise ValueError("u has a value that is not finite")
    return _quotient(energy_inner(g, u, laplacian_apply(g, u)), den)


def reciprocity_spectrum(words, depth: int | None = None):
    """Two independent routes to the Laplacian Rayleigh quotient, per eigenvector.

    For each eigenvector xi of M with the mean projected out (the identity
    needs zero-sum charges), form u = sum xi'(x) v_x and emit the triple
    (lambda, <u,Lu>_E/<u,u>_E on a truncated tree, |xi'|^2/<xi',M xi'>).
    The last two agree; eigenvectors that are essentially constant (the
    projection leaves nothing) are skipped.  words is the word set F, or
    its GramSpectrum when the caller has one already, so M is not
    diagonalized twice.
    """
    gs = words if isinstance(words, GramSpectrum) else gram_spectrum(words)
    words = gs.words
    g = _tree_for(words, depth)
    table = _prefix_table(words, g.vertices)
    matrix = gs.matrix.astype(float)  # one cast, not one per eigenvector
    n = len(words)
    kept = []
    for j in range(n):
        # the mean of each contiguous copy: a column mean of the matrix sums in another order
        xi = gs.eigenvectors[:, j].copy()
        xi -= np.mean(xi)
        if float(np.linalg.norm(xi)) > 1e-12:
            kept.append((j, xi))
    coefficients = np.array([xi for _, xi in kept]).reshape(len(kept), n).T  # a column per kept vector
    columns = _combine(table, coefficients).T
    # rayleigh_energy on each column, through the float cores: the same sums, to the bit
    c = _float_edges(g)[2]
    images = _laplacian_core(g, columns, c)
    rows = []
    for (j, xi), col, image in zip(kept, columns, images):
        den, num = _energy_core(g, col[None], np.array([col, image]), c)[0].tolist()
        energy_route = _quotient(num, den)
        coeff_route = float(xi @ xi) / float(xi @ (matrix @ xi))
        rows.append((float(gs.eigenvalues[j]), energy_route, coeff_route))
    return rows


def r_function(gs: GramSpectrum) -> list:
    """The reciprocity function on the spectrum of M.

    Returns [(lambda_j, R(lambda_j))] with R(lambda) = (1/lambda)(1 + <xi>^2),
    the energy form <u_j, L u_j>_E of the unit-energy KL vector expressed
    through Gram data alone.
    """
    out = []
    for j in range(len(gs.words)):
        lam = float(gs.eigenvalues[j])
        s = gs.coefficient_sum(j)
        out.append((lam, (1.0 + s * s) / lam))
    return out


def spectral_growth(words) -> float:
    """sum_j <xi_j>^2 over the Gram eigenbasis; equals |F| by Parseval."""
    gs = gram_spectrum(words)
    return float(sum(gs.coefficient_sum(j) ** 2 for j in range(len(gs.words))))


def linear_independence_check(words, depth: int | None = None) -> bool:
    """Whether the dipoles {v_x : x in F} are linearly independent in energy.

    The Gram matrix is recomputed through the energy form on a truncated
    tree (energy_gram's int64 core, not the word combinatorics) and
    passes iff its smallest eigenvalue exceeds 1e-10 times its Frobenius
    norm.
    """
    words = _check_words(words)
    g = _tree_for(words, depth)
    dipoles = _prefix_lengths(g.vertices, words).T
    m = _energy_core(g, dipoles, dipoles).astype(float)
    vals, _ = eigh(m)
    return bool(vals[-1] > 1e-10 * float(np.linalg.norm(m)))
