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
comes from tree's int64 prefix-length kernel, exactly.  Every dipole sum
sum_x c(x) v_x, M xi among them, is two passes over the prefix tree of F
in _dipole_sums, with no BLAS call and no vertex x word table.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (WeightedGraph, _energy_core, _laplacian_core, _pattern_arcs, _search, energy_inner,
                     laplacian_apply)
from .tree import ORIGIN, _prefix_lengths, check_words, common_prefix_length, tree_graph

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
    exactly zero off its component, and blocks with the same bytes (the
    two subtrees of a complete word set) are solved once.  Each block is
    reduced to tridiagonal form by Householder reflections, and the
    tridiagonal matrix is diagonalized by implicit-shift QL sweeps (the
    EISPACK tred2/tql2 scheme); the sweeps' rotations are recorded and
    then applied to the eigenvectors one wavefront level at a time.  An
    off-diagonal entry counts as zero once it is at most 2^-52 times the
    largest |d_k| + |e_k| met so far.  Every step is an element-wise numpy
    operation or a numpy reduction in a fixed order, with no BLAS or
    LAPACK call, so the result is reproducible to the bit whatever the
    BLAS build or thread count.  Each eigenvector's sign is pinned by
    making its first component of magnitude > 1e-12 positive.  A matrix
    that is not exactly symmetric, or has a -0.0 entry, is replaced by
    (a + a^T) / 2 first.  A float64 overflow, there or in the solve, raises
    ArithmeticError.  A complex matrix raises TypeError.
    """
    if np.iscomplexobj(matrix):
        raise TypeError("eigh needs a real matrix; the cast to float64 would drop the imaginary parts")
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigh needs a square matrix")
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    with np.errstate(over="ignore"):  # entries of opposite sign near the float limit are not symmetric
        asymmetry = float(np.max(np.abs(a - a.T)))
    if asymmetry > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    try:
        with np.errstate(over="raise"):
            # on an exactly symmetric a with no -0.0 (+0.0 facing -0.0 would become +0.0), (a + a^T) / 2
            # gives back a bit for bit or overflows past half the float limit: skip it
            if asymmetry != 0.0 or (np.signbit(a) & (a == 0.0)).any():
                a = (a + a.T) / 2.0
            vals, rows = _solve_blocks(a)
    except FloatingPointError as exc:
        raise ArithmeticError(f"eigh: float64 overflow ({exc})") from None
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    rows = rows[order]
    # negate each eigenvector whose first component of magnitude > 1e-12 is negative
    big = np.abs(rows) > 1e-12
    flip = big.any(axis=1) & (rows[np.arange(n), big.argmax(axis=1)] < 0.0)
    rows[flip] = -rows[flip]
    return vals, rows.T.copy()


def _solve_blocks(a):
    """Eigenvalues and eigenvector rows of the symmetric a, block by block, unsorted.

    Row j of rows is the eigenvector for vals[j].  Blocks with the same
    bytes are solved once.  An eigenvalue that is not finite raises
    ArithmeticError.
    """
    n = a.shape[0]
    vals = np.empty(n)
    rows = np.zeros((n, n))
    solved = {}  # block bytes -> (eigenvalues, eigenvector rows)
    start = 0
    for block in _blocks(a):
        sub = a[np.ix_(block, block)]
        key = sub.tobytes()
        if key not in solved:
            d, e, z = _tridiagonalize(sub)
            _implicit_ql(d, e, z)
            solved[key] = d, z
        d, z = solved[key]
        stop = start + block.size
        vals[start:stop] = d
        rows[start:stop, block] = z
        start = stop
    if not np.isfinite(vals).all():
        raise ArithmeticError("eigh: an eigenvalue overflows float64")
    return vals, rows


def _blocks(a):
    """Index sets of the connected components of a's nonzero pattern, ascending.

    a is block diagonal up to a permutation along these sets, so each
    block is solved on its own and its eigenvectors vanish exactly off it.
    One pass of searches labels every component: each starts at the lowest
    index no earlier search reached.
    """
    _, cols, starts = _pattern_arcs(a != 0.0)
    return [np.sort(np.array(queue, dtype=np.intp)) for queue in _search(cols, starts, range(len(a)))[1]]


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

    On return d holds the eigenvalues, unsorted, and row j of z is the
    eigenvector for d[j].  The scalar (d, e) recurrence never reads z, so
    each rotation is only recorded, as its row i, c, s and a level, and
    _rotate_levels applies them all at the end.  A rotation's level is one
    more than the level of the last rotation that wrote row i or row i+1,
    so the rotations of one level touch disjoint row pairs and every row
    meets its rotations in recording order.  Raises RuntimeError when an
    eigenvalue needs more than _QL_ITERATIONS sweeps, and ArithmeticError
    when the deflation tolerance overflows.
    """
    n = len(d)
    rows, cs, ss, levels = array("i"), array("d"), array("d"), array("i")
    last = [0] * n  # level of the last rotation that wrote each row
    shift = 0.0
    tst1 = 0.0
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        if tst1 == math.inf:  # the deflation tolerance would be infinite
            raise ArithmeticError("eigh: |d_k| + |e_k| overflows float64")
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
            # rotation i mixes rows i and i+1, where row i+1 holds what rotation i+1 carried down
            level = last[m]
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
                if last[i] > level:
                    level = last[i]
                level += 1
                last[i + 1] = level
                rows.append(i)
                cs.append(c)
                ss.append(s)
                levels.append(level)
            last[l] = level
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l] = s * p
            d[l] = c * p
        d[l] += shift
        e[l] = 0.0
    _rotate_levels(z, rows, cs, ss, levels)


def _rotate_levels(z, rows, cs, ss, levels):
    """Apply the recorded rotations to z in place, one level at a time.

    Rotation k replaces rows i = rows[k] and i+1 of z by c z_i - s z_{i+1}
    and s z_i + c z_{i+1}, with c = cs[k] and s = ss[k].  A level is one
    gather of the rows [i; i; i+1; i+1], one product with [c; s; -s; c],
    one sum of the two halves and one scatter to [i; i+1]: each row gets
    the products and the sum of a rotation applied on its own, to the bit.
    """
    if not rows:
        return
    levels = np.frombuffer(levels, dtype=np.intc)
    counts = np.bincount(levels)[1:]  # levels start at 1
    ends = np.cumsum(counts)
    # the level of k rotations that starts at rotation f gathers 4k rows from 4f; its p-th rotation
    # sits at 4f + p + (0, 1, 2, 3) k, and the middle half, [i; i+1], is where its rows go back
    order = np.argsort(levels, kind="stable")
    at = np.empty(len(levels), dtype=np.intp)
    at[order] = np.repeat(3 * (ends - counts), counts) + np.arange(len(levels))
    del order  # the plan's temporaries go as soon as they are used: at n = 511 each is 85,481 long
    k = counts[levels - 1]
    i = np.frombuffer(rows, dtype=np.intc)
    c = np.frombuffer(cs)
    s = np.frombuffer(ss)
    gather = np.empty(4 * len(levels), dtype=np.intp)
    coef = np.empty((4 * len(levels), 1))
    below = i + 1
    for row, x in ((i, c), (i, s), (below, -s), (below, c)):
        gather[at] = row
        coef[at, 0] = x
        at += k
    del k, at, below
    buf = np.empty((4 * int(counts.max()), z.shape[1]))
    start = 0
    for stop in ends.tolist():
        k = stop - start
        g = gather[4 * start:4 * stop]
        # mode="clip" changes nothing for indices in range, and spares take the copy it makes of out= to raise
        pair = z.take(g, axis=0, out=buf[:4 * k], mode="clip")
        np.multiply(pair, coef[4 * start:4 * stop], out=pair)
        np.add(pair[:2 * k], pair[2 * k:], out=pair[:2 * k])
        z[g[k:3 * k]] = pair[:2 * k]
        start = stop


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


def _dipole_sums(words, vertices, coefficients) -> np.ndarray:
    """sums[i] = sum_k coefficients[k] * v_{words[k]}(vertices[i]), by two passes over the words' prefix tree.

    v_x(y) counts the nonempty prefixes x and y share, so the sum at y is
    P(u) = sum_{w <= u} S(w), u the deepest prefix of y among the words'
    prefixes and S(w) the sum of the coefficients of the words below w.  Up,
    deepest level first: S(w) = c(w) + S(w0) + S(w1), c = 0 off the words
    and absent children skipped.  Down: P(w) = P(parent) + S(w) from
    P(root) = 0.  This order, which the word order does not enter, is the
    bit contract of every float sum.  coefficients is a number, or a row for
    one column per vector, per word: a float64 array sums in float64, others
    as Python objects, so int and Fraction sums are exact, of the type of
    0 + sum_k coefficients[k] * 0.  A coefficient that is not finite raises
    ValueError naming its index.
    """
    for x in words:  # validates the words, and the first vertex; the later vertices in one pass
        common_prefix_length(x, vertices[0])
    check_words(vertices[1:])
    exact = not (isinstance(coefficients, np.ndarray) and coefficients.dtype == np.float64)
    c = np.array(list(coefficients), dtype=object) if exact else coefficients
    rows = c.reshape(len(c), -1)
    finite = [all(map(_is_finite, row)) for row in rows] if exact else np.isfinite(rows).all(axis=1).tolist()
    if not all(finite):
        raise ValueError(f"coefficient {finite.index(False)} is not finite")
    # the closure, root first and then level by level, sorted: u0 comes right before u1
    nodes, levels = [ORIGIN], []
    for k in range(1, max(map(len, words)) + 1):
        level = sorted({x[:k] for x in words if len(x) >= k})
        levels.append((len(nodes), len(nodes) + len(level)))
        nodes += level
    index = dict(zip(nodes, range(len(nodes))))
    parent = np.array([0] + [index[u[:-1]] for u in nodes[1:]], dtype=np.intp)
    s = np.zeros((len(nodes), *c.shape[1:]), dtype=c.dtype)
    np.add.at(s, [index[x] for x in words], c)
    for start, stop in reversed(levels):
        np.add.at(s, parent[start:stop], s[start:stop])  # unbuffered, in node order: S(u0) first
    p = np.full_like(s, sum(0 * c))  # P(root): +0.0 in float64, else the zero of the exact sum's type
    for start, stop in levels:
        p[start:stop] = p[parent[start:stop]] + s[start:stop]
    at = []
    for y in vertices:
        k = min(len(y), len(levels))
        while y[:k] not in index:
            k -= 1
        at.append(index[y[:k]])
    return p[at]


def kl_value(vec: KLVector, y: str) -> float:
    """Evaluate the KL vector at a tree vertex."""
    return vec.scale * _dipole_sums(vec.words, (y,), vec.coefficients)[0]


def kl_vertex_function(vec: KLVector, g: WeightedGraph) -> dict:
    """Sample a KL vector on the vertex set of a truncated tree."""
    values = vec.scale * _dipole_sums(vec.words, g.vertices, vec.coefficients)
    return dict(zip(g.vertices, values.tolist()))


def dipole_combination(g: WeightedGraph, words, coefficients) -> dict:
    """The vertex function sum_i coefficients[i] * v_{words[i]} on g."""
    words = _check_words(words)
    if len(words) != len(coefficients):
        raise ValueError("one coefficient per word required")
    return dict(zip(g.vertices, _dipole_sums(words, g.vertices, coefficients).tolist()))


def _tree_for(words, depth=None) -> WeightedGraph:
    need = max(map(len, words))
    if depth is not None and depth < need:
        raise ValueError(f"truncation depth {depth} is below the longest word ({need})")
    return tree_graph(need if depth is None else depth)


def kl_gram_check(gs: GramSpectrum, depth: int | None = None, normalized: bool = False) -> np.ndarray:
    """Energy Gram matrix of the KL vectors, computed on a truncated tree.

    Every inner product goes through the float64 core of the energy form
    of graphs, a route that never touches the eigendecomposition; the
    contract is diag(1/lambda_k) for the w_k and the identity matrix for
    the u_k.
    """
    g = _tree_for(gs.words, depth)
    columns = _dipole_sums(gs.words, g.vertices, gs.eigenvectors).T
    sampled = np.array([v.scale * col for v, col in zip(kl_vectors(gs, normalized), columns)]).reshape(columns.shape)
    return _energy_core(g, sampled, sampled)


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
    # the mean of each eigenvector's contiguous copy: a column mean of the matrix sums in another order
    kept = [(j, xi - np.mean(xi)) for j, xi in enumerate(gs.eigenvectors.T.copy())]
    kept = [(j, xi) for j, xi in kept if float(np.linalg.norm(xi)) > 1e-12]
    coefficients = np.array([xi for _, xi in kept]).reshape(len(kept), len(words)).T  # a column per kept vector
    columns = _dipole_sums(words, g.vertices, coefficients).T
    # M[x, y] = v_y(x) and every word is a vertex of g, so M xi is the dipole sum read at the words
    at_words = [g.index[x] for x in words]
    # rayleigh_energy on each column, through the float cores: the same sums, to the bit
    images = _laplacian_core(g, columns)
    rows = []
    for (j, xi), col, image in zip(kept, columns, images):
        den, num = _energy_core(g, col[None], np.array([col, image]))[0].tolist()
        coeff_route = float(np.add.reduce(xi * xi)) / float(np.add.reduce(xi * col[at_words]))
        rows.append((float(gs.eigenvalues[j]), _quotient(num, den), coeff_route))
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
    tree (the int64 core of the energy form, not the word combinatorics) and
    passes iff its smallest eigenvalue exceeds 1e-10 times its Frobenius
    norm.
    """
    words = _check_words(words)
    g = _tree_for(words, depth)
    dipoles = _prefix_lengths(g.vertices, words).T
    m = _energy_core(g, dipoles, dipoles).astype(float)
    vals, _ = eigh(m)
    return bool(vals[-1] > 1e-10 * float(np.linalg.norm(m)))
