"""The solenoid walk's layout, its evaluation counts, and the filter-file loader.

The walk stores its numerators step-major, sets the high-branch bit with
an OR, evaluates W once per integer of the occupied numerator range and
draws nothing on a step whose branches are all certain; the CLI
evaluates the real part of each (f, step) pair once.  None of this may
move a drawn value or an output byte, so the oracles below are the
path-major np.where walk, direct evaluation, solenoid_covariance_mc and
sha256 pins recorded before any of it, compared bit for bit.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spectral_walks import (
    DyadicAngle,
    TrigPoly,
    cli,
    four_tap_filter,
    haar_filter,
    solenoid_covariance_mc,
    solenoid_walk,
    w_from_filter,
)
from spectral_walks import circle, spectra, tree
from spectral_walks.circle import _at_dyadics
from spectral_walks.rng import block_plan, path_keys, step_bits, step_uniforms

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

HALF = TrigPoly.constant(Fraction(1, 2))
HAAR = w_from_filter(haar_filter())
FOUR_TAP = w_from_filter(four_tap_filter())
COS1 = TrigPoly({1: Fraction(1, 2), -1: Fraction(1, 2)})
COS2 = TrigPoly({2: Fraction(1, 2), -2: Fraction(1, 2)})


def path_major_walk(w, n_steps, n_paths, seed, start_level, start_num):
    """The walk as one (n_paths, n_steps + 1) block: column stores, np.where branch, direct W."""
    keys = path_keys(seed, 0, n_paths)
    if start_num is None:
        bits = step_bits(keys, 0)
        nums = bits >> np.uint64(64 - start_level) if start_level else np.zeros(n_paths, dtype=np.uint64)
    else:
        nums = np.full(n_paths, start_num, dtype=np.uint64)
    out = np.empty((n_paths, n_steps + 1), dtype=np.uint64)
    out[:, 0] = nums
    for k in range(n_steps):
        level = start_level + k
        p_low = w.real_part(nums.astype(np.float64) / float(1 << (level + 1)))
        go_high = step_uniforms(keys, k + 1) >= p_low
        nums = np.where(go_high, nums + np.uint64(1 << level), nums)
        out[:, k + 1] = nums
    return out


# W = 1/2 + a cos(2 pi t) + b cos(6 pi t): odd frequencies cancel across the two
# branches, so the partition holds, and |a| + |b| <= 1/2 keeps W >= 0
weights = st.builds(
    lambda a, b: TrigPoly({0: 0.5, 1: a / 2, -1: a / 2, 3: b / 2, -3: b / 2}),
    st.floats(-0.5, 0.5),
    st.floats(-0.5, 0.5),
).filter(lambda w: abs(w.coefficient(1)) + abs(w.coefficient(3)) <= 0.25)

# weights whose branch is certain at 0: Haar's W(0) = 1 (every path stays at 0),
# 1/2 - cos(2 pi t)/2 is 0 there (every draw goes high), and the float four-tap's
# W(0) = 1 - 2^-52 leaves the draw in play
ANTI_HAAR = TrigPoly({0: Fraction(1, 2), 1: Fraction(-1, 4), -1: Fraction(-1, 4)})
certain_at_zero = st.sampled_from([HAAR, ANTI_HAAR, FOUR_TAP])


# ---------------------------------------------------------------- layout and branch step

class TestStepMajorWalk:
    @SETTINGS
    @given(st.one_of(weights, certain_at_zero), st.integers(0, 12), st.integers(0, 20), st.integers(1, 3000),
           st.integers(0, (1 << 64) - 1), st.sampled_from(["1", "2"]), st.sampled_from(["uniform", "point", "zero"]))
    def test_bits_equal_the_path_major_walk(self, w, n_steps, start_level, n_paths, seed, threads, start_kind):
        if start_kind == "uniform":
            start = start_level
        elif start_kind == "point":
            start = DyadicAngle(seed % (1 << start_level), start_level)
        else:
            start, start_level = DyadicAngle(0, 0), 0
        want = path_major_walk(w, n_steps, n_paths, seed, start_level,
                               None if start_kind == "uniform" else start.numerator)
        old = os.environ.get("SPECTRAL_WALKS_THREADS")
        os.environ["SPECTRAL_WALKS_THREADS"] = threads
        try:
            ens = solenoid_walk(w, n_steps, n_paths, seed, start=start)
        finally:
            if old is None:
                del os.environ["SPECTRAL_WALKS_THREADS"]
            else:
                os.environ["SPECTRAL_WALKS_THREADS"] = old
        assert ens.numerators.shape == (n_paths, n_steps + 1)
        assert ens.numerators.dtype == np.uint64
        assert ens.numerators.tobytes() == want.tobytes()

    def test_numerators_are_a_view_of_step_rows(self):
        ens = solenoid_walk(HALF, 7, 3000, 5, start=4)
        assert ens.numerators.shape == (3000, 8)
        assert ens.numerators.T.flags.c_contiguous
        for k in range(8):
            assert ens.numerators[:, k].flags.c_contiguous
            want = ens.numerators[:, k].astype(np.float64) / float(1 << (4 + k))
            assert ens.angles(k).tobytes() == want.tobytes()

    @SETTINGS
    @given(st.dictionaries(st.integers(-6, 6), st.floats(-4, 4), max_size=6),
           st.integers(0, 14), st.integers(1, 4000), st.integers(0, 2**32))
    def test_grid_evaluation_is_bitwise_direct(self, coeffs, level, size, seed):
        # numerators spread over the whole level grid: the range route is taken whenever it is the smaller
        f = TrigPoly(coeffs)
        nums = np.random.default_rng(seed).integers(0, 1 << level, size).astype(np.uint64)
        direct = nums.astype(np.float64) / float(1 << level)
        assert _at_dyadics(f, nums, level).tobytes() == f(direct).tobytes()
        assert _at_dyadics(f.real_part, nums, level + 1).tobytes() == f.real_part(direct / 2.0).tobytes()

    @SETTINGS
    @given(st.dictionaries(st.integers(-6, 6), st.complex_numbers(max_magnitude=4, allow_nan=False), max_size=5),
           st.integers(0, 62), st.integers(1, 3000), st.sampled_from(["equal", "low", "high"]),
           st.integers(1, 1 << 62), st.integers(0, 2**32))
    @example({1: 0.5, -1: 0.5, 3: 0.25}, 62, 3000, "high", 1400, 0)
    @example({1: 0.5, -1: 0.5, 3: 0.25}, 58, 3000, "high", 700, 1)
    @example({2: 1.0}, 55, 2000, "low", 900, 2)
    def test_range_grid_is_bitwise_direct(self, coeffs, level, size, cluster, width, seed):
        # clustered numerators: one value, a band at 0, a band just below 2^level;
        # above level 53 neighbouring integers share a float, so only an integer grid matches
        f = TrigPoly(coeffs)
        rng = np.random.default_rng(seed)
        width = min(width, 1 << level)
        if cluster == "equal":
            nums = np.full(size, int(rng.integers(0, 1 << level, dtype=np.uint64)), dtype=np.uint64)
        else:
            offsets = rng.integers(0, width, size, dtype=np.uint64)
            nums = offsets if cluster == "low" else np.uint64((1 << level) - 1) - offsets
        direct = nums.astype(np.float64) / float(1 << level)
        lo, hi = int(nums.min()), int(nums.max())
        for fn, want in ((f, f(direct)), (f.real_part, f.real_part(direct))):
            sizes = []

            def counted(t):
                sizes.append(np.size(t))
                return fn(t)

            assert _at_dyadics(counted, nums, level).tobytes() == want.tobytes()
            assert sizes == [hi - lo + 1 if hi - lo < size // 2 else size]

    def test_evaluate_matches_angles_at_every_step(self):
        for start in (2, DyadicAngle(0, 0), DyadicAngle(3, 5)):
            ens = solenoid_walk(FOUR_TAP, 16, 5000, 3, start=start)
            for k in range(17):
                for f in (COS1, COS2, FOUR_TAP):
                    assert ens.evaluate(f, k).tobytes() == f(ens.angles(k)).tobytes()
                    assert ens.evaluate(f.real_part, k).tobytes() == f.real_part(ens.angles(k)).tobytes()


class TestCertainSteps:
    """A step where every path goes low for certain draws no uniforms; the others draw once per block."""

    def drawn_steps(self, monkeypatch, w, n_steps, start=DyadicAngle(0, 0)):
        steps = []
        inner = circle.step_uniforms

        def counted(keys, step):
            steps.append(step)
            return inner(keys, step)

        monkeypatch.setattr(circle, "step_uniforms", counted)
        monkeypatch.setenv("SPECTRAL_WALKS_THREADS", "1")
        ens = solenoid_walk(w, n_steps, 3000, 1, start=start)
        return steps, ens

    def test_haar_from_zero_draws_nothing(self, monkeypatch):
        steps, ens = self.drawn_steps(monkeypatch, HAAR, 40)
        assert steps == []
        assert not ens.numerators.any()

    def test_four_tap_from_zero_draws_every_step(self, monkeypatch):
        # W(0) = 1 - 2^-52 < 1: a draw of 1 - 2^-52 or above would still go high
        assert FOUR_TAP.real_part(0.0) == 1.0 - 2.0**-52
        steps, _ = self.drawn_steps(monkeypatch, FOUR_TAP, 40)
        assert steps == list(range(1, 41))

    def test_each_block_draws_once_per_uncertain_step(self, monkeypatch):
        steps, _ = self.drawn_steps(monkeypatch, HALF, 5, start=3)
        assert steps == list(range(1, 6))
        monkeypatch.setenv("SPECTRAL_WALKS_THREADS", "2")
        steps.clear()
        solenoid_walk(HAAR, 5, 3000, 1)
        solenoid_walk(HALF, 5, 3000, 1, start=3)
        assert sorted(steps) == sorted(list(range(1, 6)) * len(block_plan(3000)))


class TestNonFiniteWeights:
    def test_nan_off_the_partition_grid_is_caught_in_the_walk(self):
        class NanOffGrid(TrigPoly):
            """1/2 on multiples of 1/2048, NaN elsewhere; the partition check reads only coefficients."""

            def real_part(self, t):
                t = np.asarray(t, dtype=np.float64)
                return np.where((t * 2048.0) % 1.0 == 0.0, 0.5, np.nan)

        w = NanOffGrid({0: Fraction(1, 2)})
        assert solenoid_walk(w, 3, 100, 1, start=8).n_steps == 3
        with pytest.raises(ValueError, match="negative W"):
            solenoid_walk(w, 3, 100, 1, start=12)

    def test_nan_partition_deviation_is_rejected(self):
        w = TrigPoly({0: float("nan")})
        with pytest.raises(ValueError, match="do not sum to 1"):
            solenoid_walk(w, 3, 100, 1)


# ---------------------------------------------------------------- one evaluation per (f, step)

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def four_tap_file(tmp_path):
    p = tmp_path / "four_tap.json"
    p.write_text(json.dumps({"a": list(four_tap_filter().taps), "degree": 2}))
    return str(p)


class TestCovarianceTable:
    @pytest.mark.parametrize("w_arg", ["half", "file"])
    def test_twelve_evaluations_for_three_lags(self, w_arg, four_tap_file, monkeypatch):
        calls, complex_calls = [], []
        inner_real, inner_call = TrigPoly.real_part, TrigPoly.__call__

        def counted_real(self, t):
            if self in (COS1, COS2):  # the walk reads W through real_part too
                calls.append(np.size(t))
            return inner_real(self, t)

        def counted_call(self, t):
            complex_calls.append(np.size(t))
            return inner_call(self, t)

        monkeypatch.setattr(TrigPoly, "real_part", counted_real)
        monkeypatch.setattr(TrigPoly, "__call__", counted_call)
        w = four_tap_file if w_arg == "file" else "half"
        rc, out, _ = run_cli(["solenoid", "walk", "--w", w, "--steps", "8", "--paths", "3000",
                              "--start-level", "12", "--seed", "4"])
        assert rc in (0, 1)
        # lags 0, 4, 7: the real parts of cos1 and cos2 at steps n and n + 1 each, once
        assert len(calls) == 12
        assert complex_calls == []
        assert sum(1 for line in out.splitlines() if line.startswith("cos")) == 9

    @pytest.mark.parametrize("start", [0, 10, 40, 53, 55, 59])
    def test_cos_polys_have_a_positive_zero_imaginary_part(self, start):
        # the -k and k terms add -c sin and c sin: x + (-x) is +0.0, so the real
        # part alone carries every bit of (v1 * v2).real
        n_steps = 62 - start
        for w in (FOUR_TAP, HALF):
            ens = solenoid_walk(w, n_steps, 2000, 5, start=start)
            for k in range(n_steps + 1):
                for freq in (1, 2):
                    f = cli._cos_poly(freq)
                    values = f(ens.angles(k))
                    assert (values.imag == 0.0).all() and not np.signbit(values.imag).any()
                    assert values.real.tobytes() == f.real_part(ens.angles(k)).tobytes()

    @pytest.mark.parametrize("w_arg", ["haar", "half"])
    def test_one_exact_value_per_pair(self, w_arg, monkeypatch):
        calls = []
        inner = circle.solenoid_covariance_exact

        def counted(*args):
            calls.append(args[1:3])
            return inner(*args)

        monkeypatch.setattr(circle, "solenoid_covariance_exact", counted)
        rc, out, _ = run_cli(["solenoid", "walk", "--w", w_arg, "--steps", "8", "--paths", "3000", "--seed", "4"])
        assert rc in (0, 1)
        assert calls == [(COS1, COS1), (COS1, COS2), (COS2, COS2)]
        assert sum(1 for line in out.splitlines() if line.startswith("cos")) == 9

    @pytest.mark.parametrize("level", ["0", "1"])
    def test_half_from_a_coarse_level_gates_on_the_true_lag_zero_values(self, level):
        # from the level-0 point, (cos1, cos2) and (cos2, cos2) at lag 0 are 1 on every path;
        # from level 1, (cos1, cos2) is; the Lebesgue integrals are 1/2 and 0
        rc, out, _ = run_cli(["solenoid", "walk", "--w", "half", "--steps", "8", "--paths", "3000",
                              "--start-level", level, "--seed", "1"])
        assert rc == 0
        rows = {tuple(line.split(",")[:3]): line.split(",")[3:] for line in out.splitlines()
                if line.startswith("cos")}
        assert rows["cos1", "cos2", "0"] == ["1", "1", "0", "0"]
        if level == "0":
            assert rows["cos2", "cos2", "0"] == ["1", "1", "0", "0"]

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_half_passes_from_every_coarse_level(self, level, seed):
        rc, _, _ = run_cli(["solenoid", "walk", "--w", "half", "--start-level", str(level), "--seed", str(seed)])
        assert rc == 0

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("start", [None, "0", "10"])
    def test_rows_equal_covariance_mc_bit_for_bit(self, threads, start, four_tap_file, monkeypatch):
        monkeypatch.setenv("SPECTRAL_WALKS_THREADS", threads)
        argv = ["solenoid", "walk", "--w", four_tap_file, "--steps", "12", "--paths", "4096",
                "--seed", "9", "--out", "json"]
        if start is not None:
            argv += ["--start-level", start]
        rc, out, _ = run_cli(argv)
        assert rc == 0
        rows = json.loads(out)["tables"]["covariance"]["rows"]
        w = w_from_filter(four_tap_filter())
        ens = solenoid_walk(w, 12, 4096, 9, start=DyadicAngle(0, 0) if start is None else int(start))
        polys = {"cos1": COS1, "cos2": COS2}
        want = [(n1, n2, n) for n1, n2 in (("cos1", "cos1"), ("cos1", "cos2"), ("cos2", "cos2"))
                for n in (0, 6, 11)]
        assert [tuple(r[:3]) for r in rows] == want
        for n1, n2, n, est, _, se, _ in rows:
            e, s = solenoid_covariance_mc(ens, polys[n1], polys[n2], n)
            assert (float(est).hex(), float(se).hex()) == (e.hex(), s.hex())


# sha256 of "<exit code>\n" + output bytes of the solenoid_fir benchmark's three
# invocations (40 steps, 40000 paths, seed 1, default starts), recorded before the
# walk evaluated W on the occupied range, skipped certain draws and the CLI took
# real parts; the four-tap and haar walks start at DyadicAngle(0, 0), where every
# path stays
GOLDEN_SOLENOID_FIR = {
    "four_tap.json": "a3e413fe53293d45d81ecbc2de000f090946f5f006e6d328b8488549b4a09c31",
    "haar": "f5756a0423adc165cdd4a3702cc9593d5210e4cbff99defaec30cee257d0fe33",
    "half": "59f3ac247e3db2d645c664f9791520beb16806111f681267c1fcc0c9fc80712c",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_solenoid_fir(threads, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SPECTRAL_WALKS_THREADS", threads)
    (tmp_path / "four_tap.json").write_text(json.dumps({"a": list(four_tap_filter().taps), "degree": 2}))
    changed = []
    for w_arg, want in GOLDEN_SOLENOID_FIR.items():
        argv = ["solenoid", "walk", "--w", w_arg, "--steps", "40", "--paths", "40000", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(argv + ["--output", "out.txt"])
        got = hashlib.sha256(f"{rc}\n".encode() + (tmp_path / "out.txt").read_bytes()).hexdigest()
        if got != want:
            changed.append(w_arg)
    assert not changed


# ---------------------------------------------------------------- the filter-file loader

def write_doc(doc) -> str:
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        # allow_nan writes the NaN and Infinity tokens that json.load accepts
        json.dump(doc, fh, allow_nan=True)
    return path


taps = st.lists(
    st.one_of(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), st.integers(-1000, 1000)),
    min_size=1,
    max_size=8,
)


def walk_argv(path):
    return ["solenoid", "walk", "--w", path, "--steps", "2", "--paths", "64"]


class TestFilterLoader:
    @settings(max_examples=100, deadline=None)
    @given(taps, st.booleans())
    def test_valid_documents_load_to_w_from_filter(self, a, with_degree):
        doc = {"a": a, "degree": 2} if with_degree else {"a": a}
        path = write_doc(doc)
        try:
            got = cli._load_filter(path)
        finally:
            os.unlink(path)
        want = w_from_filter(tuple(a))
        assert got == want
        assert repr(got) == repr(want)

    @settings(max_examples=100, deadline=None)
    @given(taps, st.data())
    def test_one_injected_fault_exits_two(self, a, data):
        fault = data.draw(st.sampled_from(
            ["nan", "inf", "-inf", "missing", "not_list", "empty", "not_number",
             "degree_value", "degree_float", "degree_type"]))
        doc = {"a": list(a), "degree": 2}
        where = data.draw(st.integers(0, len(a) - 1))
        if fault in ("nan", "inf", "-inf"):
            doc["a"][where] = float(fault)
            want = f"filter tap a[{where}] is not finite"
        elif fault == "missing":
            del doc["a"]
            want = 'JSON object with an "a" array'
        elif fault == "not_list":
            doc["a"] = data.draw(st.one_of(st.floats(-1, 1), st.text(max_size=3), st.none(),
                                           st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)))
            want = 'filter taps "a" must be an array'
        elif fault == "empty":
            doc["a"] = []
            want = 'filter taps "a" are empty'
        elif fault == "not_number":
            doc["a"][where] = data.draw(st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                                                  st.lists(st.integers(), max_size=2)))
            want = f"filter tap a[{where}] is not a number"
        elif fault == "degree_value":
            doc["degree"] = data.draw(st.integers(-5, 9).filter(lambda d: d != 2))
            want = "the filter degree must be 2"
        elif fault == "degree_float":
            doc["degree"] = data.draw(st.sampled_from([2.0, 2.9, 1.5, float("nan"), float("inf")]))
            want = "filter degree must be an integer"
        else:
            doc["degree"] = data.draw(st.sampled_from(["2", True, None, [2]]))
            want = "filter degree must be an integer"
        path = write_doc(doc)
        try:
            rc, out, err = run_cli(walk_argv(path))
        finally:
            os.unlink(path)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and want in err

    def test_overflowing_weight_exits_two(self, tmp_path):
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"a": [0.5, 0.5, 1e308, -1e308], "degree": 2}))
        rc, out, err = run_cli(walk_argv(str(p)))
        assert rc == 2 and out == ""
        # T_W 1 sums products like 1e308 * 1e308, so the coefficient deviation is inf
        assert err.startswith("error: W branches do not sum to 1 (deviation inf)")

    def test_not_an_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text(json.dumps([0.5, 0.5]))
        rc, _, err = run_cli(walk_argv(str(p)))
        assert rc == 2 and 'JSON object with an "a" array' in err


# ---------------------------------------------------------------- shared dipole work

class TestDipoleReuse:
    def test_defect_helper_matches_the_public_route(self):
        # one word's column and the whole prefix table give each word's public defect, row by row
        for depth in (1, 3, 5):
            g = tree.tree_graph(depth)
            words = tree.words_up_to(depth)
            table = tree._dipole_defect(g, words, tree._prefix_lengths(g.vertices, words))
            assert table.dtype == np.int64 and table.shape == (len(words), len(g))
            for x, row in zip(words, table.tolist()):
                got = tree._dipole_defect(g, (x,), tree._dipole_column(x, g))[0].tolist()
                want = tree.dipole_defect(x, depth)
                assert got == row == list(want.values())
                assert list(want) == list(g.vertices)

    def test_verify_builds_the_dipole_tree_once(self, monkeypatch):
        built = []
        inner = tree.tree_graph

        def counted(depth):
            built.append(depth)
            return inner(depth)

        monkeypatch.setattr(tree, "tree_graph", counted)
        checks = cli._verify_checks(quick=True, seed=0)
        assert dict((name, ok) for name, ok, _ in checks)["dipole_defect_identically_zero"]
        assert built == [4]

    def test_tree_dipole_reads_each_prefix_length_once(self, monkeypatch):
        # one kernel call fills the whole dipole column, one cell per vertex
        calls = []
        inner = tree._prefix_lengths

        def counted(rows, columns):
            calls.append((list(rows), list(columns)))
            return inner(rows, columns)

        monkeypatch.setattr(tree, "_prefix_lengths", counted)
        rc, out, _ = run_cli(["tree", "dipole", "--x", "101", "--depth", "5"])
        assert rc == 0
        assert calls == [(list(tree.tree_graph(5).vertices), ["101"])]


class TestCombineAccumulator:
    @pytest.mark.parametrize("coefficients", [np.array([-0.5, -1.5]), [-0.5, -1.5]])
    def test_all_negative_coefficients_keep_a_positive_zero(self, coefficients):
        # the root shares no prefix with any word: every product is -0.0, the sum from 0 is +0.0
        g = tree.tree_graph(3)
        root = spectra.dipole_combination(g, ["1", "01"], coefficients)[""]
        assert root == 0.0 and math.copysign(1.0, root) == 1.0

    def test_fraction_columns_sum_exactly(self):
        table = np.array([[1, 2], [0, 3]], dtype=np.int64)
        got = spectra._combine(table, [[Fraction(1, 3), 1], [Fraction(-1, 7), 2]])
        assert got.tolist() == [[Fraction(1, 3) - Fraction(2, 7), 5], [Fraction(-3, 7), 6]]
        assert type(got[1, 1]) is int
