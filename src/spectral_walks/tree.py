"""The binary word tree, its dipole kernel, and digit encodings.

Vertices of the infinite rooted tree are finite strings over {0, 1}; the
empty word is the root and serves as the graph origin.  Words are read
little-endian: the leftmost character is the 2^0 digit.  All conductances
on the tree are 1, so the Laplacian at an interior vertex is
(degree) * f(x) - sum of neighbor values, with integer output on integer
input.

The dipole at a vertex x is the function v_x(y) = length of the common
prefix of x and y.  It reproduces point evaluations against the energy
form and its Laplacian is delta_x plus a charge at the root.  Every table
of these lengths (a dipole column, the Gram matrix) comes from one int64
kernel over the words' character codes; spectra sums dipoles without one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, repeat

import numpy as np

from .graphs import WeightedGraph, _laplacian_core

__all__ = [
    "ORIGIN",
    "check_word",
    "check_words",
    "parent",
    "path_edges",
    "common_prefix_length",
    "dipole_value",
    "tree_graph",
    "words_up_to",
    "dipole_function",
    "dipole_defect",
    "encode_nat",
    "decode_nat",
    "sigma_maps",
    "prepend_digit",
    "encode_int",
    "decode_int",
    "encode_nadic",
    "cantor_encode",
]

ORIGIN = ""

# The deepest truncation words_up_to and tree_graph build: a level of at
# most 2^16 words, so the binary tree of depth 16 with 2^17 - 1 vertices.
# A deeper request is refused before any word is made.
MAX_DEPTH = 16


def _check_depth(depth: int) -> None:
    """Refuse a truncation depth beyond the cap, before anything is allocated."""
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} is beyond the cap of {MAX_DEPTH}")


def check_word(w: str) -> str:
    """Validate a binary word; returns it unchanged."""
    if not isinstance(w, str):
        raise TypeError(f"word must be a string, got {type(w).__name__}")
    if w.strip("01"):
        raise ValueError(f"word {w!r} contains a character outside 0/1")
    return w


def check_words(words) -> list:
    """Validate binary words in one pass over their join; on a failure check_word names the first bad one."""
    words = list(words)
    try:
        # deleting "0" and "1" from ASCII bytes is ~10x faster than str.strip("01")
        if not "".join(words).encode("ascii").translate(None, b"01"):
            return words
    except (TypeError, UnicodeEncodeError):  # a word that is not a string, or not ASCII
        pass
    return [check_word(w) for w in words]


def parent(w: str) -> str:
    """Drop the last (highest) digit; the root has no parent."""
    check_word(w)
    if w == ORIGIN:
        raise ValueError("the root has no parent")
    return w[:-1]


def path_edges(w: str):
    """Edges of the geodesic from the root to w, nearest-root first.

    Each edge is a (parent, child) pair; the list has l(w) entries.
    """
    check_word(w)
    return [(w[:k], w[: k + 1]) for k in range(len(w))]


def common_prefix_length(x: str, y: str) -> int:
    """Number of shared leading characters, i.e. edges common to both root paths."""
    check_word(x)
    check_word(y)
    n = 0
    for a, b in zip(x, y):
        if a != b:
            break
        n += 1
    return n


def _prefix_lengths(rows, columns) -> np.ndarray:
    """table[i, k] = common_prefix_length(rows[i], columns[k]), int64, for validated words.

    Each word becomes a row of ASCII codes, rows padded with "2" and columns
    with "3", so a pair agrees at a position only while both words last and
    match there; each position adds the pairs that have agreed at every
    position so far.
    """
    width = max(map(len, [*rows, *columns]), default=0)
    padded = [w.ljust(width, "2") for w in rows] + [w.ljust(width, "3") for w in columns]
    codes = np.frombuffer("".join(padded).encode("ascii"), dtype=np.uint8).reshape(len(padded), width)
    a, b = codes[: len(rows)], codes[len(rows) :]
    table = np.zeros((len(rows), len(columns)), dtype=np.int64)
    agree = np.ones(table.shape, dtype=bool)
    for k in range(width):
        agree &= a[:, k, None] == b[:, k]
        table += agree
    return table


def dipole_value(x: str, y: str) -> int:
    """v_x(y), the dipole at x evaluated at y.

    Equals the number of edges shared by the root paths of x and y.  The
    root itself carries no dipole (v_o would be identically zero), so
    x must be a nonempty word.
    """
    check_word(x)
    if x == ORIGIN:
        raise ValueError("no dipole is attached to the root")
    return common_prefix_length(x, y)


def words_up_to(depth: int):
    """All nonempty words of length <= depth, shortest first, lexicographic within a length.

    A depth beyond MAX_DEPTH raises ValueError before any word is made.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _check_depth(depth)
    out = []
    level = [ORIGIN]
    for _ in range(depth):
        level = [w + d for w in level for d in "01"]
        out.extend(level)
    return out


def tree_graph(depth: int) -> WeightedGraph:
    """The tree truncated at the given depth, all conductances 1.

    Vertices are ordered by length, lexicographic within each length, with
    the root first; the root is the origin.  depth is capped as in
    words_up_to.
    """
    if depth < 1:
        raise ValueError("a truncated tree needs depth >= 1")
    vertices = (ORIGIN, *words_up_to(depth))
    # in level order the parent of vertex k is vertex (k - 1) >> 1, so the
    # parents run through the vertices twice each; the records are valid by
    # construction and go straight to the graph's array core
    parents = chain.from_iterable(zip(vertices, vertices))
    records = list(zip(parents, islice(vertices, 1, None), repeat(1)))
    m = len(records)
    tail = np.arange(1, m + 1, dtype=np.intp)
    g = WeightedGraph.__new__(WeightedGraph)
    g._build(vertices, dict(zip(vertices, range(m + 1))), ORIGIN, records, (tail - 1) >> 1, tail,
             np.ones(m, dtype=np.int64), m)
    g._hops = np.repeat(np.arange(depth + 1), 1 << np.arange(depth + 1))
    return g


def dipole_function(x: str, g: WeightedGraph) -> dict:
    """The dipole v_x sampled on the vertex set of a truncated tree.

    x is validated once and the vertices in one pass.
    """
    return dict(zip(g.vertices, _dipole_column(x, g)[:, 0].tolist()))


def _dipole_column(x: str, g: WeightedGraph) -> np.ndarray:
    """v_x at every vertex of a truncated tree, in vertex order, as a (|V|, 1) int64 table."""
    check_word(x)
    if x == ORIGIN:
        raise ValueError("no dipole is attached to the root")
    return _prefix_lengths(check_words(g.vertices), (x,))


def dipole_defect(x: str, depth: int) -> dict:
    """Pointwise residual of L v_x = delta_x - delta_o on a depth-cut tree.

    Returns {vertex: L v_x(vertex) - (delta_x - delta_o)(vertex)}, which is
    identically zero whenever depth >= l(x): the dipole is constant along
    every branch below x's path, so cutting the tree does not disturb the
    identity, leaves included.
    """
    check_word(x)
    if x == ORIGIN:
        raise ValueError("no dipole is attached to the root")
    if len(x) > depth:
        raise ValueError(f"word {x!r} lies below the depth-{depth} cut")
    g = tree_graph(depth)
    return dict(zip(g.vertices, _dipole_defect(g, (x,), _dipole_column(x, g))[0].tolist()))


def _dipole_defect(g: WeightedGraph, words, table) -> np.ndarray:
    """dipole_defect of each word on a tree g that reaches it, one int64 row per word in vertex order.

    table[:, k] is v_{words[k]} at every vertex (a prefix-length table);
    the Laplacians come from the int64 core of graphs, and each row then
    has delta_x - delta_o taken off.
    """
    defect = _laplacian_core(g, table.T)
    defect[np.arange(len(words)), [g.index[x] for x in words]] -= 1
    defect[:, g.index[ORIGIN]] += 1
    return defect


def encode_nat(w: str) -> int:
    """Read a word as a nonnegative integer, leftmost character the 2^0 digit."""
    check_word(w)
    # base 2 is exempt from sys.int_max_str_digits, so any length converts
    return int(w[::-1], 2) if w else 0


def decode_nat(n: int) -> str:
    """Canonical word for a nonnegative integer: shortest, so no high zero digit.

    decode_nat(0) is the root; encode_nat(decode_nat(n)) == n always, and
    decode_nat(encode_nat(w)) strips trailing zeros from w.
    """
    if n < 0:
        raise ValueError("decode_nat takes a nonnegative integer")
    return bin(n)[:1:-1] if n else ""


def sigma_maps(n: int, bit: int) -> int:
    """The two inverse branches of doubling on integers: n -> 2n + bit."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return 2 * n + bit


def prepend_digit(w: str, bit: int) -> str:
    """Realize sigma on words: prepend the new low digit on the left.

    encode_nat(prepend_digit(w, b)) == 2 * encode_nat(w) + b.
    """
    check_word(w)
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return str(bit) + w


def encode_int(w: str) -> int:
    """Read a nonempty word as a signed integer.

    With p = l(w) - 1 the value is -2^p + sum_{k<=p} x_k 2^k, i.e. the
    plain binary value shifted down by 2^p.  This folds both signs into
    one alphabet: "1" -> 0, "0" -> -1, "111" -> 3.
    """
    check_word(w)
    if w == ORIGIN:
        raise ValueError("encode_int needs a nonempty word")
    return int(w[::-1], 2) - (1 << (len(w) - 1))


def decode_int(n: int) -> str:
    """Shortest word whose encode_int is n.

    Picks the least p with 0 <= n + 2^p < 2^(p+1) and writes n + 2^p in
    p + 1 binary digits, low digit first: bin() of n + 2^p + 2^(p+1)
    has exactly those digits below its leading 1, which the slice drops.
    """
    if n >= 0:
        p = n.bit_length()
    else:
        p = (-n - 1).bit_length()
    return bin(n + (3 << p))[:2:-1]


def encode_nadic(w: str, base: int, residues) -> int:
    """Read a base-N word through a complete residue system.

    residues[d] is the integer substituted for digit d; the residues must
    hit every class mod base exactly once (so the induced encoding of the
    N-ary tree is a bijection onto the integers it reaches).  The word is
    little-endian: value = sum residues[digit_k] * base^k.  With base 2
    and residues [0, 1] this is encode_nat.
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    residues = list(residues)
    if len(residues) != base or sorted(r % base for r in residues) != list(range(base)):
        raise ValueError("residues are not a complete residue system for the base")
    if not isinstance(w, str):
        raise TypeError("word must be a string")
    total = 0
    power = 1
    for ch in w:
        # ASCII digits only: str.isdigit and int() also take other scripts' digits and superscripts
        digit = "0123456789".find(ch)
        if not 0 <= digit < base:
            raise ValueError(f"digit {ch!r} outside the base-{base} alphabet")
        total += residues[digit] * power
        power *= base
    return total


def cantor_encode(int_digits: str, frac_digits: str = "") -> Fraction:
    """Exact rational value of a two-sided ternary string with digits in {0, 2}.

    int_digits is little-endian (3^0 first); frac_digits lists the
    3^-1, 3^-2, ... digits in order.  The image is the arithmetic span of
    the middle-thirds set intersected with the rationals this finite
    truncation can reach.
    """
    value = Fraction(0)
    power = Fraction(1)
    for ch in int_digits:
        if ch not in "02":
            raise ValueError(f"digit {ch!r} outside the allowed set 0/2")
        value += int(ch) * power
        power *= 3
    scale = Fraction(1, 3)
    for ch in frac_digits:
        if ch not in "02":
            raise ValueError(f"digit {ch!r} outside the allowed set 0/2")
        value += int(ch) * scale
        scale /= 3
    return value
