"""Binary tree dipoles and the word/integer encodings."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spectral_walks import (
    tree_graph,
    words_up_to,
    dipole_value,
    dipole_function,
    dipole_defect,
    energy_inner,
    laplacian_apply,
    encode_nat,
    decode_nat,
    encode_int,
    decode_int,
    sigma_maps,
    prepend_digit,
    encode_nadic,
    cantor_encode,
)
from spectral_walks.graphs import WeightedGraph
from spectral_walks.tree import (
    MAX_DEPTH,
    _prefix_lengths,
    check_word,
    check_words,
    common_prefix_length,
    parent,
    path_edges,
)


# each id reads <depth>-<branching>; the tree is binary
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 40, 10**9], ids=lambda depth: f"{depth}-2")
def test_depth_beyond_the_cap_is_refused(depth):
    # the binary tree stops at depth 16
    assert MAX_DEPTH == 16
    for build in (words_up_to, tree_graph):
        with pytest.raises(ValueError, match=f"^depth {depth} is beyond the cap"):
            build(depth)


def test_tree_graph_shape():
    g = tree_graph(3)
    assert len(g.vertices) == 15
    assert len(g.edges) == 14
    assert g.origin == ""
    assert g.vertices[0] == ""
    # unit conductances: degree counts the neighbors
    assert g.total[""] == 2
    assert g.total["0"] == 3
    assert g.total["000"] == 1


def test_words_up_to_counts():
    for d in range(1, 7):
        assert len(words_up_to(d)) == 2 ** (d + 1) - 2


def test_word_helpers():
    assert parent("101") == "10"
    assert path_edges("10") == [("", "1"), ("1", "10")]
    assert common_prefix_length("1011", "101") == 3
    assert common_prefix_length("0", "1") == 0
    with pytest.raises(ValueError):
        check_word("102")
    with pytest.raises(TypeError):
        check_word(b"10")


def test_dipole_values():
    # v_x(y) counts shared initial path edges
    assert dipole_value("10", "10") == 2
    assert dipole_value("10", "101") == 2
    assert dipole_value("10", "11") == 1
    assert dipole_value("10", "0") == 0
    assert dipole_value("10", "") == 0


def test_dipole_defect_vanishes_everywhere():
    for depth in (2, 3, 4):
        for x in words_up_to(depth):
            assert all(val == 0 for val in dipole_defect(x, depth).values())


def test_dipole_defect_vanishes_above_its_word():
    # deeper cuts change nothing: the dipole is constant below x's path
    assert all(val == 0 for val in dipole_defect("1", 5).values())


def test_dipole_defect_word_below_cut():
    with pytest.raises(ValueError):
        dipole_defect("1010", 3)
    with pytest.raises(ValueError):
        dipole_defect("", 3)


@pytest.mark.parametrize("vertices", [["", "1", "12"], ["12", "1", ""], ["1", "x", "", "2"], ["1", 0, ""]])
def test_dipole_function_rejects_a_bad_vertex_like_common_prefix_length(vertices):
    g = WeightedGraph(vertices, list(zip(vertices, vertices[1:], [1] * len(vertices))), vertices[-1])
    with pytest.raises((TypeError, ValueError)) as want:
        [common_prefix_length("10", y) for y in vertices]
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        dipole_function("10", g)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.text("01", max_size=4), st.text("01x2 ", max_size=3), st.integers(0, 9),
                          st.text(max_size=2), st.binary(max_size=2), st.none()), max_size=6))
@example(["01", "0x", "2"])  # the first bad word is named
@example(["1", b"0", "2"])
@example(["1", "0\u00e9", "2"])  # not ASCII
@example([])
def test_one_pass_word_check_matches_check_word_per_word(words):
    try:
        want = [check_word(w) for w in words]
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            check_words(words)
    else:
        assert check_words(iter(words)) == want


WORDS16 = st.lists(st.text("01", max_size=16), max_size=8)


@settings(max_examples=300, deadline=None)
@given(WORDS16, WORDS16)
@example([""], ["0110", "1"])            # a root-only side has width 0
@example(["", ""], [""])
@example(["0" * 16, "1" * 16], ["0" * 16, "01", ""])
@example([], ["1"])
def test_prefix_length_kernel_matches_the_scalar_loop(rows, columns):
    table = _prefix_lengths(rows, columns)
    assert table.dtype == np.int64 and table.shape == (len(rows), len(columns))
    assert table.tolist() == [[common_prefix_length(x, y) for y in columns] for x in rows]


def test_dipole_energy_norm_is_word_length():
    g = tree_graph(4)
    for x in words_up_to(3):
        v = dipole_function(x, g)
        assert energy_inner(g, v, v) == len(x)


def test_dipole_laplacian_pairing_exact():
    # <v_x, L v_y>_E = delta_{xy} + 1 in integer arithmetic
    g = tree_graph(4)
    words = words_up_to(3)
    laps = {y: laplacian_apply(g, dipole_function(y, g)) for y in words}
    for x in words:
        vx = dipole_function(x, g)
        for y in words:
            assert energy_inner(g, vx, laps[y]) == (1 if x == y else 0) + 1


def test_gram_is_common_prefix_length():
    g = tree_graph(4)
    words = words_up_to(3)
    dips = {x: dipole_function(x, g) for x in words}
    for x in words:
        for y in words:
            assert energy_inner(g, dips[x], dips[y]) == dipole_value(x, y)


class TestEncodings:
    def test_nat_frozen_values(self):
        # leftmost character carries 2^0
        assert encode_nat("101") == 5
        assert encode_nat("") == 0
        assert encode_nat("1") == 1
        assert encode_nat("0") == 0
        assert encode_nat("011") == 6

    def test_nat_round_trip_canonical(self):
        for n in range(4096):
            assert encode_nat(decode_nat(n)) == n
        assert decode_nat(0) == ""
        assert decode_nat(5) == "101"
        # non-canonical spellings collapse
        assert decode_nat(encode_nat("1010")) == "101"

    def test_nat_rejects_negative(self):
        with pytest.raises(ValueError):
            decode_nat(-1)

    def test_sigma_compatibility(self):
        # prepending a digit on the left is n -> 2n + digit
        for w in words_up_to(8):
            for b in (0, 1):
                assert encode_nat(prepend_digit(w, b)) == sigma_maps(encode_nat(w), b)
        assert sigma_maps(5, 1) == 11
        assert prepend_digit("01", 1) == "101"

    def test_int_frozen_values(self):
        assert encode_int("111") == 3
        assert encode_int("1") == 0
        assert encode_int("0") == -1
        assert encode_int("11") == 1
        assert encode_int("01") == 0

    def test_int_round_trip_minimal(self):
        for n in range(-2048, 2048):
            w = decode_int(n)
            assert encode_int(w) == n
            # one digit shorter must no longer reach n
            if len(w) > 1:
                lo, hi = -(1 << (len(w) - 2)), (1 << (len(w) - 2)) - 1
                assert not lo <= n <= hi
        assert decode_int(5) == "1011"
        assert decode_int(-5) == "1100"
        assert decode_int(-4) == "000"
        assert decode_int(0) == "1"

    def test_int_rejects_origin(self):
        with pytest.raises(ValueError):
            encode_int("")

    def test_nadic_standard_residues(self):
        assert encode_nadic("21", 3, [0, 1, 2]) == 5
        assert encode_nadic("", 3, [0, 1, 2]) == 0

    def test_nadic_signed_residues(self):
        # {0, 1, -1} is a complete residue system mod 3
        assert encode_nadic("2", 3, [0, 1, -1]) == -1
        assert encode_nadic("22", 3, [0, 1, -1]) == -4

    def test_nadic_validation(self):
        with pytest.raises(ValueError):
            encode_nadic("1", 3, [0, 1, 3])  # 3 = 0 mod 3, not complete
        with pytest.raises(ValueError):
            encode_nadic("3", 3, [0, 1, 2])  # digit out of range
        with pytest.raises(ValueError):
            encode_nadic("1", 3, [0, 1])  # wrong length

    def test_cantor_encode_exact(self):
        assert cantor_encode("", "22") == Fraction(8, 9)
        assert cantor_encode("2", "") == 2
        assert cantor_encode("02", "0202") == Fraction(6) + Fraction(2, 9) + Fraction(2, 81)

    def test_cantor_rejects_middle_digit(self):
        with pytest.raises(ValueError):
            cantor_encode("1", "")
        with pytest.raises(ValueError):
            cantor_encode("", "12")


class TestCodecProperties:
    """Round trips of the base-2 codecs far beyond the 64-bit range."""

    BOUND = 1 << 4096

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, BOUND))
    def test_nat_round_trip(self, n):
        w = decode_nat(n)
        assert encode_nat(w) == n
        assert not w.endswith("0")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-BOUND, BOUND))
    def test_int_round_trip(self, n):
        w = decode_int(n)
        assert encode_int(w) == n
        # shortest: p is the least with 0 <= n + 2^p < 2^(p+1)
        p = len(w) - 1
        assert p == 0 or not 0 <= n + (1 << (p - 1)) < (1 << p)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01", max_size=4200))
    def test_nat_canonical_word(self, w):
        assert decode_nat(encode_nat(w)) == w.rstrip("0")

    @pytest.mark.parametrize("w", ["1_0", " 10", "10\n", "\uff11"])
    def test_rejects_what_int_accepts(self, w):
        int(w, 2)  # the builtin parser takes these spellings
        message = f"word {w!r} contains a character outside 0/1"
        for codec in (check_word, encode_nat, encode_int):
            with pytest.raises(ValueError) as exc:
                codec(w)
            assert str(exc.value) == message
