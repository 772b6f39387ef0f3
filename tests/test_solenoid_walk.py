"""The solenoid walk's layout, its evaluation counts, and the filter-file loader.

The walk stores its numerators step-major, sets the high-branch bit with
an OR, evaluates W once per integer of the occupied numerator range and
draws nothing on a step whose branches are all certain; the CLI
evaluates the real part of each (f, step) pair once.  A block or column
on one numerator, as every step of the Haar and four-tap walks from the
default DyadicAngle(0, 0) is, evaluates W or f on that one point, and a
flat W is evaluated once per block: the walk compares its raw draws with
one integer threshold, and SolenoidEnsemble.evaluate fills the column
with np.full.  None of this
may move a drawn value or an output byte, so the oracles below are the
path-major np.where walk, direct evaluation, walks.covariance_mc and
sha256 pins recorded before any of it, compared bit for bit.  The
one-value case serves the default fixed-point starts; if the default
moves to a level start, it is re-measured with the range grid and its
tests go with it if no workload still gains.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spectral_walks import (
    DyadicAngle,
    TrigPoly,
    cli,
    covariance_mc,
    four_tap_filter,
    haar_filter,
    mean_se,
    solenoid_walk,
    w_from_filter,
)
from spectral_walks import circle, rng, tree
from spectral_walks.circle import _at_dyadics, _dyadic_values
from spectral_walks.rng import path_keys, step_bits, step_uniforms

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

HALF = TrigPoly.constant(Fraction(1, 2))
HAAR = w_from_filter(haar_filter())
FOUR_TAP = w_from_filter(four_tap_filter())
COS1 = TrigPoly({1: Fraction(1, 2), -1: Fraction(1, 2)})
COS2 = TrigPoly({2: Fraction(1, 2), -2: Fraction(1, 2)})
# not flat, so the walk reads it where it goes, yet 1/2 + 2e-30 cos(2 pi t) rounds to 1/2 at
# every angle; the odd frequency cancels across the branches, so T_W 1 = 1 holds
NEAR_HALF = TrigPoly({0: Fraction(1, 2), 1: 1e-30, -1: 1e-30})


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
    @example(HALF, 9, 4, 2500, 3, "2", "uniform")  # the flat W, read once per block, over several blocks
    def test_bits_equal_the_path_major_walk(self, w, n_steps, start_level, n_paths, seed, threads, start_kind):
        if start_kind == "uniform":
            start = start_level
        elif start_kind == "point":
            start = DyadicAngle(seed % (1 << start_level), start_level)
        else:
            start, start_level = DyadicAngle(0, 0), 0
        want = path_major_walk(w, n_steps, n_paths, seed, start_level,
                               None if start_kind == "uniform" else start.numerator)
        with pytest.MonkeyPatch.context() as mp:
            # 1000-path blocks, so runs above 1000 paths split into several blocks at both thread counts
            mp.setattr(rng, "BLOCK", 1000)
            mp.setenv("SPECTRAL_WALKS_THREADS", threads)
            ens = solenoid_walk(w, n_steps, n_paths, seed, start=start)
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

    def test_steps_outside_the_walk_are_refused(self):
        # from level 3, step -1 once read the last step's numerators over 2^2 and step 5 raised IndexError
        ens = solenoid_walk(HALF, 4, 3, 8, start=3)
        reads = (ens.level, ens.angles, partial(ens.evaluate, COS1), partial(ens.angle, 0))
        for step in (-1, -5, 5, 6):
            for read in reads:
                with pytest.raises(ValueError, match=rf"^step {step} is outside 0\.\.4$"):
                    read(step)
        assert (ens.level(0), ens.level(4), ens.angle(2, 4).level) == (3, 7, 7)
        assert ens.angles(4).tobytes() == (ens.numerators[:, 4].astype(np.float64) / 128.0).tobytes()


# TrigPolys with complex, float and Fraction coefficients
complex_polys = st.dictionaries(
    st.integers(-6, 6),
    st.one_of(st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
              st.floats(-4, 4), st.fractions(-4, 4, max_denominator=16)),
    max_size=5,
).map(TrigPoly)


class TestOneCovarianceEstimator:
    """walks.covariance_mc on a solenoid ensemble is the estimator it replaced, bit for bit."""

    @SETTINGS
    @given(f1=complex_polys, f2=complex_polys, start=st.integers(0, 20), n=st.integers(0, 4),
           seed=st.integers(0, (1 << 64) - 1))
    def test_equals_the_complex_product_of_values_at_the_angles(self, f1, f2, start, n, seed):
        ens = solenoid_walk(FOUR_TAP, 5, 300, seed, start=start)
        got = covariance_mc(ens, f1, f2, n)
        # the removed circle estimator, and the same product read off angles directly
        removed = mean_se((ens.evaluate(f1, n) * ens.evaluate(f2, n + 1)).real)
        direct = mean_se((f1(ens.angles(n)) * f2(ens.angles(n + 1))).real)
        assert [x.hex() for x in got] == [x.hex() for x in removed] == [x.hex() for x in direct]

class TestCertainSteps:
    """A step where every path goes low for certain draws nothing; the others draw once per block."""

    def drawn_steps(self, monkeypatch, w, n_steps, start=DyadicAngle(0, 0)):
        """The step index of every draw the walk makes, raw words (step_bits) and uniforms alike."""
        steps = []
        for name in ("step_bits", "step_uniforms"):
            inner = getattr(circle, name)
            monkeypatch.setattr(circle, name, lambda keys, step, inner=inner: steps.append(step) or inner(keys, step))
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

    def test_each_block_draws_once_per_uncertain_step(self, monkeypatch, split_blocks):
        # step 0 is the uniform start's draw
        steps, _ = self.drawn_steps(monkeypatch, HALF, 5, start=3)
        assert steps == list(range(6))
        plans = split_blocks()
        steps.clear()
        solenoid_walk(HAAR, 5, 3000, 1)
        solenoid_walk(HALF, 5, 3000, 1, start=3)
        assert plans.all_split()
        assert sorted(steps) == sorted(list(range(6)) * len(plans[-1][1]))


def counting(w):
    """W with the same coefficients, and the list its real_part appends the size of every argument to."""
    sizes = []

    class Counted(TrigPoly):
        def real_part(self, t):
            sizes.append(np.size(t))
            return super().real_part(t)

    return Counted(w.coeffs), sizes


def rule_sizes(ens, blocks, w):
    """The size of each W evaluation the walk makes.

    A flat W is evaluated at one point once per block; any other W at one
    point, the occupied range or the block, per block and step.
    """
    if w.coeffs.keys() <= {0}:
        return [1] * len(blocks)
    sizes = []
    for first, count in blocks:
        for k in range(ens.n_steps):
            col = ens.numerators[first : first + count, k]
            lo, hi = int(col.min()), int(col.max())
            sizes.append(1 if lo == hi else hi - lo + 1 if hi - lo < count // 2 else count)
    return sorted(sizes)


class TestOneValueSteps:
    """A block on one numerator, or under a flat W, evaluates W at one point, and its numerators keep their bits.

    record_comparisons notes what each step's draws are compared with:
    ((), "u") is one integer threshold against raw words, ((count,), "f")
    a per-path p_low against uniforms.
    """

    # ANTI_HAAR sends every path from 0 to 1/2, where W(1/4) is about 1/2: one numerator for two steps only
    @pytest.mark.parametrize("w, n_steps", [(HAAR, 40), (FOUR_TAP, 40), (ANTI_HAAR, 2)], ids=["haar", "four_tap", "anti_haar"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_fixed_point_walks_evaluate_one_point_per_step_and_block(self, w, n_steps, threads, split_blocks,
                                                                     monkeypatch):
        compared = self.record_comparisons(monkeypatch)
        counted, sizes = counting(w)
        plans = split_blocks(threads)
        ens = solenoid_walk(counted, n_steps, 3000, 7)
        (_, blocks), = plans
        assert sizes == [1] * (n_steps * len(blocks))
        # Haar draws nothing; the others compare every block's raw words with one integer
        assert compared == [((), "u")] * (0 if w is HAAR else n_steps * len(blocks))
        assert ens.numerators.tobytes() == path_major_walk(w, n_steps, 3000, 7, 0, 0).tobytes()

    @staticmethod
    def record_comparisons(monkeypatch):
        """Make the walk's draws record the shape and dtype kind of what they are compared with; return that list."""
        compared = []

        class Draws(np.ndarray):
            def __ge__(self, other):
                compared.append((np.shape(other), np.asarray(other).dtype.kind))
                return np.asarray(self) >= other

        for name in ("step_bits", "step_uniforms"):
            inner = getattr(circle, name)
            monkeypatch.setattr(circle, name, lambda keys, step, inner=inner: inner(keys, step).view(Draws))
        return compared

    def test_haar_default_size_builds_no_per_path_weights(self, monkeypatch):
        monkeypatch.delenv("SPECTRAL_WALKS_THREADS", raising=False)
        counted, sizes = counting(HAAR)
        ens = solenoid_walk(counted, 40, 40000, 1)
        assert sizes == [1] * 40
        assert not ens.numerators.any()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_half_leaves_one_numerator_after_its_first_step(self, threads, split_blocks, monkeypatch):
        compared = self.record_comparisons(monkeypatch)
        want = path_major_walk(HALF, 6, 3000, 11, 5, 3).tobytes()
        # the flat W is evaluated once per block and every step compares one integer
        counted, sizes = counting(HALF)
        plans = split_blocks(threads)
        ens = solenoid_walk(counted, 6, 3000, 11, start=DyadicAngle(3, 5))
        (_, blocks), = plans
        assert sizes == rule_sizes(ens, blocks, HALF) == [1] * len(blocks)
        assert compared == [((), "u")] * (6 * len(blocks))
        assert ens.numerators.tobytes() == want
        # NEAR_HALF is not flat but reads 1/2 everywhere: the one-numerator rule holds at step 0
        # only, since from step 1 on 3 and 3 + 32 are both occupied
        compared.clear()
        counted, sizes = counting(NEAR_HALF)
        plans = split_blocks(threads)
        ens = solenoid_walk(counted, 6, 3000, 11, start=DyadicAngle(3, 5))
        (_, blocks), = plans
        assert sorted(sizes) == rule_sizes(ens, blocks, NEAR_HALF)
        assert sizes.count(1) == len(blocks)
        assert sorted(compared) == sorted([((), "u")] * len(blocks) + [((count,), "f") for _, count in blocks] * 5)
        assert ens.numerators.tobytes() == want

    @SETTINGS
    @given(weights, st.integers(1, 12), st.integers(0, 20), st.integers(1, 3000), st.integers(0, (1 << 64) - 1),
           st.sampled_from(["1", "2"]))
    def test_weights_from_a_point_follow_the_rule(self, w, n_steps, level, n_paths, seed, threads):
        start = DyadicAngle(seed % (1 << level), level)
        counted, sizes = counting(w)
        plans = []
        plan = rng.block_plan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "block_plan", lambda n: plans.append(plan(n)) or plans[-1])
            mp.setattr(rng, "BLOCK", 1000)
            mp.setenv("SPECTRAL_WALKS_THREADS", threads)
            ens = solenoid_walk(counted, n_steps, n_paths, seed, start=start)
        (_, blocks), = plans
        assert sorted(sizes) == rule_sizes(ens, blocks, w)
        assert sizes.count(1) >= len(blocks)  # every block starts on one numerator
        want = path_major_walk(w, n_steps, n_paths, seed, level, start.numerator)
        assert ens.numerators.tobytes() == want.tobytes()


class TestOneValueColumns:
    """SolenoidEnsemble.evaluate calls f once, on one point, for a column on one numerator."""

    @SETTINGS
    @given(st.dictionaries(st.integers(-6, 6), st.complex_numbers(max_magnitude=4, allow_nan=False), max_size=5),
           st.integers(0, 62), st.integers(1, 3000), st.integers(0, 2**32))
    def test_one_numerator_gives_one_scalar(self, coeffs, level, size, seed):
        f = TrigPoly(coeffs)
        n = int(np.random.default_rng(seed).integers(0, 1 << level, dtype=np.uint64))
        nums = np.full(size, n, dtype=np.uint64)
        for fn in (f, f.real_part):
            one = _dyadic_values(fn, nums, level)
            want = fn(nums.astype(np.float64) / float(1 << level))
            assert np.ndim(one) == 0
            assert np.full(size, one).tobytes() == want.tobytes()

    @pytest.mark.parametrize("start, steps", [(DyadicAngle(0, 0), range(13)), (DyadicAngle(5, 4), [0]),
                                              (DyadicAngle((1 << 60) - 1, 60), [0, 1, 2])])
    @pytest.mark.parametrize("g", [COS1, FOUR_TAP, TrigPoly({-2: 1.5 - 0.25j, 3: -0.5, 1: 2j})],
                             ids=["cos1", "four_tap", "complex"])
    def test_one_numerator_columns_are_the_direct_values(self, start, steps, g):
        # Haar from 0 stays at 0; from the other points every path shares step 0 only, and from
        # (2^60 - 1) / 2^60 Haar's W is 0 at the low branch, so every path goes high for certain
        ens = solenoid_walk(HAAR, 2 if start.level == 60 else 12, 3000, 5, start=start)
        for k in steps:
            assert len(set(ens.numerators[:, k].tolist())) == 1
            for f in (g, g.real_part):
                sizes = []

                def counted(t):
                    sizes.append(np.size(t))
                    return f(t)

                got = ens.evaluate(counted, k)
                want = f(ens.angles(k))
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
                assert got.tobytes() == want.tobytes()
                assert sizes == [1]


class TestStartLevel:
    """A start level is read through operator.index, as DyadicAngle reads its fields."""

    @pytest.mark.parametrize("start", [2.7, 2.0, Fraction(5, 2), Fraction(4, 2), True, False, "3", None])
    def test_a_level_that_is_not_an_integer_is_refused(self, start):
        with pytest.raises(TypeError):
            solenoid_walk(HALF, 3, 4, 0, start=start)
        with pytest.raises(TypeError):
            circle.solenoid_covariance_exact(HALF, COS1, COS1, start, [0, 1])

    def test_a_negative_level_is_refused(self):
        with pytest.raises(ValueError, match="start level must be nonnegative"):
            solenoid_walk(HALF, 3, 4, 0, start=np.int64(-1))
        with pytest.raises(ValueError, match="start level must be nonnegative"):
            circle.solenoid_covariance_exact(HALF, COS1, COS1, -1, [0])

    @pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint64])
    def test_a_numpy_integer_reads_as_the_int(self, kind):
        for w in (HALF, FOUR_TAP):
            got = solenoid_walk(w, 5, 300, 7, start=kind(3))
            want = solenoid_walk(w, 5, 300, 7, start=3)
            assert type(got.start_level) is int and got.start_level == 3
            assert got.numerators.tobytes() == want.numerators.tobytes()
            exact = circle.solenoid_covariance_exact(w, COS1, COS2, kind(3), [0, 2])
            assert [v.hex() for v in exact] == [v.hex() for v in circle.solenoid_covariance_exact(w, COS1, COS2, 3, [0, 2])]


class TestNonFiniteWeights:
    def test_nan_off_the_partition_grid_is_caught_in_the_walk(self):
        class NanOffGrid(TrigPoly):
            """1/2 on multiples of 1/2048, NaN elsewhere; the partition check reads only coefficients."""

            def real_part(self, t):
                t = np.asarray(t, dtype=np.float64)
                return np.where((t * 2048.0) % 1.0 == 0.0, 0.5, np.nan)

        # the coefficients of NEAR_HALF, not of the flat HALF: the walk reads a flat W at one
        # point only, so only a W that is not flat is read where the walk goes
        w = NanOffGrid(NEAR_HALF.coeffs)
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
    def test_rows_equal_covariance_mc_bit_for_bit(self, threads, start, four_tap_file, split_blocks):
        plans = split_blocks(threads)
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
            e, s = covariance_mc(ens, polys[n1], polys[n2], n)
            assert (float(est).hex(), float(se).hex()) == (e.hex(), s.hex())
        assert plans.all_split() == (threads == "2")


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
def test_golden_solenoid_fir(threads, tmp_path, monkeypatch, split_blocks):
    monkeypatch.chdir(tmp_path)
    plans = split_blocks(threads)
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
    assert plans.all_split() == (threads == "2")


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
