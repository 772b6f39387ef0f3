"""Trig polynomial calculus, filters, cascades, and solenoid walks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_walks import (
    TrigPoly,
    WaveletFilter,
    haar_filter,
    four_tap_filter,
    cantor_filter,
    modulation,
    qmf_check,
    w_from_filter,
    circle_transfer_apply,
    lowpass_check,
    cascade_phihat,
    tightness_defect,
    pt_cylinder_mass,
    strong_invariance_check,
    v_adjoint_check,
    DyadicAngle,
    solenoid_walk,
    solenoid_covariance_exact,
    covariance_mc,
)
from spectral_walks.circle import _phihat_grid

STRETCHED = (Fraction(1, 2), 0, Fraction(1, 2))  # doubles the Haar frequencies
EXACT = st.fractions(-1000, 1000, max_denominator=60)


def _qmf_taps(c, s):
    """The rational QMF ((1+c+s)/4, (1+s-c)/4, (1-c-s)/4, (1-s+c)/4) of a Pythagorean pair c^2 + s^2 = 1."""
    return ((1 + c + s) / 4, (1 + s - c) / 4, (1 - c - s) / 4, (1 - s + c) / 4)


def enumerated_covariance(w, f1, f2, start, n):
    """E[f1(Z_n) f2(Z_{n+1})] summed over every path, each weighted by the product of float W at its branches."""
    if isinstance(start, DyadicAngle):
        level, nums = start.level, np.array([start.numerator])
    else:
        level, nums = start, np.arange(1 << start)
    prob = np.full(nums.size, 1.0 / nums.size)
    for k in range(n + 1):
        if k == n:
            head = np.tile(f1.real_part(nums / 2.0**level), 2)
        nums = np.concatenate([nums, nums + (1 << level)])  # the low branches, then the high ones
        level += 1
        prob = np.tile(prob, 2) * w.real_part(nums / 2.0**level)
    return float(np.sum(prob * head * f2.real_part(nums / 2.0**level)))


class TestTrigPoly:
    def test_product_is_convolution(self):
        f = TrigPoly({0: 1, 1: 2})
        g = TrigPoly({-1: 3, 1: 1})
        h = f * g
        assert h.coeffs == {-1: 3, 0: 6, 1: 1, 2: 2}

    def test_pointwise_evaluation(self):
        f = TrigPoly({2: 1.5, -1: 2j})
        for t in (0.0, 0.3, 0.77):
            direct = 1.5 * np.exp(-2j * np.pi * 2 * t) + 2j * np.exp(2j * np.pi * t)
            assert abs(f(t) - direct) <= 1e-14

    def test_conjugate(self):
        f = TrigPoly({1: 1 + 2j, -3: 4})
        fc = f.conjugate()
        for t in (0.1, 0.9):
            assert abs(fc(t) - complex(f(t)).conjugate()) <= 1e-14

    def test_compose_scale(self):
        f = TrigPoly({1: 1, -2: 3})
        g = f.compose_scale(3)
        for t in (0.05, 0.4):
            assert abs(g(t) - f(3 * t % 1.0)) <= 1e-12

    def test_integral_and_inner(self):
        f = TrigPoly({0: Fraction(5, 2), 3: 1})
        assert f.integral() == Fraction(5, 2)
        g = TrigPoly({3: 2, 1: 7})
        # orthonormal characters: only matching frequencies pair up
        assert f.inner(g) == 2

    def test_zero_coefficients_dropped(self):
        f = TrigPoly({0: 1, 5: 0, 2: 0.0})
        assert set(f.coeffs) == {0}

    def test_frequency_validation(self):
        with pytest.raises((TypeError, ValueError)):
            TrigPoly({0.5: 1})
        with pytest.raises((TypeError, ValueError)):
            TrigPoly({True: 1})

    def test_is_real(self):
        assert TrigPoly({1: Fraction(1, 4), -1: Fraction(1, 4), 0: Fraction(1, 2)}).is_real()
        assert not TrigPoly({1: 1}).is_real()

    def test_vectorized_call(self):
        f = TrigPoly({1: 1.0})
        ts = np.linspace(0, 1, 7)
        vals = f(ts)
        assert vals.shape == (7,)
        assert abs(vals[0] - 1.0) <= 1e-15


class TestFilters:
    def test_haar_qmf_exact(self):
        rep = qmf_check(haar_filter())
        assert rep.passed
        assert rep.normalization == 0
        assert all(r == 0 for r in rep.orthogonality.values())

    def test_four_tap_constraints_by_hand(self):
        a = four_tap_filter().taps
        s3 = math.sqrt(3)
        want = ((1 + s3) / 8, (3 + s3) / 8, (3 - s3) / 8, (1 - s3) / 8)
        assert all(abs(x - y) <= 1e-15 for x, y in zip(a, want))
        # sum 1, shift-2 orthogonality, squared-sum 1/2
        assert abs(sum(a) - 1.0) <= 1e-10
        assert abs(a[0] * a[2] + a[1] * a[3]) <= 1e-10
        assert abs(sum(x * x for x in a) - 0.5) <= 1e-10
        assert qmf_check(a).passed

    def test_non_qmf_fails(self):
        rep = qmf_check((0.3, 0.4))
        assert not rep.passed

    def test_w_from_filter_haar(self):
        w = w_from_filter(haar_filter())
        assert w.coeffs == {0: Fraction(1, 2), 1: Fraction(1, 4), -1: Fraction(1, 4)}
        for t in (0.0, 0.2, 0.5, 0.83):
            assert abs(w(t).real - math.cos(math.pi * t) ** 2) <= 1e-14

    def test_filter_record(self):
        f = WaveletFilter((0.5, 0.5))
        assert f.tap_sum() == 1.0
        # the filter calculus is dyadic only, so a filter takes no scaling degree
        with pytest.raises(TypeError):
            WaveletFilter((0.5, 0.5), degree=3)
        with pytest.raises(ValueError):
            WaveletFilter(())


class TestTransfer:
    def test_coefficient_rule_by_hand(self):
        w = w_from_filter(haar_filter())
        tf = circle_transfer_apply(w, TrigPoly.basis(1), 2)
        assert tf.coeffs == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_branch_sum_agreement_on_grid(self):
        # (T_W f)(t) = sum over branch points y of W(y) f(y), sigma(y) = t
        w = w_from_filter(haar_filter())
        f = TrigPoly({0: 0.3, 1: 1.2, -2: 0.5j, 3: -0.7})
        tf = circle_transfer_apply(w, f, 2)
        ts = np.arange(512) / 512.0
        lhs = tf(ts)
        rhs = w(ts / 2) * f(ts / 2) + w(ts / 2 + 0.5) * f(ts / 2 + 0.5)
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-12

    def test_degree_three_branches(self):
        w = cantor_filter()
        f = TrigPoly({1: 1.0, -1: 1.0})
        tf = circle_transfer_apply(w, f, 3)
        ts = np.arange(243) / 243.0
        rhs = sum(w(ts / 3 + k / 3) * f(ts / 3 + k / 3) for k in range(3))
        assert float(np.max(np.abs(tf(ts) - rhs))) <= 1e-12

    def test_fixes_constants_exactly(self):
        one = TrigPoly.constant(1)
        assert circle_transfer_apply(cantor_filter(), one, 3) == one

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(st.integers(-6, 6), st.floats(-1e3, 1e3) | st.integers(-3, 3) | EXACT, max_size=7),
        st.dictionaries(st.integers(-9, 9), st.floats(-1e3, 1e3) | st.integers(-3, 3) | EXACT, max_size=7),
        st.integers(2, 4),
    )
    def test_same_coefficients_as_the_full_product(self, wc, fc, degree):
        # every coefficient in the same order with the same bits and type as restricting w * f,
        # for float, int, Fraction and mixed operands
        full = TrigPoly(wc) * TrigPoly(fc)
        want = TrigPoly({k // degree: degree * c for k, c in full.coeffs.items() if k % degree == 0})
        got = circle_transfer_apply(TrigPoly(wc), TrigPoly(fc), degree)
        assert [(k, repr(c)) for k, c in got.coeffs.items()] == [(k, repr(c)) for k, c in want.coeffs.items()]

    def test_strong_invariance_identically_zero(self):
        for k in range(-6, 7):
            for d in (2, 3, 5):
                assert strong_invariance_check(TrigPoly.basis(k), d) == 0.0

    def test_adjoint_identity(self):
        rng = np.random.default_rng(42)

        def rand_poly(span=8):
            ks = rng.integers(-span, span + 1, size=6)
            return TrigPoly({int(k): complex(rng.normal(), rng.normal()) for k in ks})

        m = modulation(four_tap_filter())
        for _ in range(25):
            assert v_adjoint_check(m, rand_poly(), rand_poly()) <= 1e-12

    def test_adjoint_identity_rational_exact(self):
        m = TrigPoly({0: Fraction(1, 2), 1: Fraction(1, 2)})
        f = TrigPoly({1: Fraction(2), -1: Fraction(1, 3)})
        g = TrigPoly({2: Fraction(1, 7), 3: Fraction(5)})
        assert v_adjoint_check(m, f, g) == 0.0


class TestLowpass:
    def test_haar_is_lowpass(self):
        assert lowpass_check(w_from_filter(haar_filter()), 2)

    def test_cantor_is_not(self):
        w = cantor_filter()
        assert not lowpass_check(w, 3)
        assert abs(w(0.0).real - 2.0 / 3.0) <= 1e-15

    def test_stretched_haar_is_not(self):
        # W(t) = cos^2(2 pi t) keeps W(1/2) = 1
        w = w_from_filter(STRETCHED)
        assert abs(w(0.5).real - 1.0) <= 1e-15
        assert not lowpass_check(w, 2)

    def test_requires_real_weight(self):
        with pytest.raises(ValueError):
            lowpass_check(TrigPoly({1: 1.0}), 2)


class TestCascade:
    def test_two_scale_bit_exact(self):
        a = four_tap_filter()
        m = modulation(a)
        for t in (0.3, 0.123456789, 0.9):
            for depth in (5, 13, 21):
                lhs = cascade_phihat(a, t, depth)
                rhs = complex(m(t / 2.0)) * cascade_phihat(a, t / 2.0, depth - 1)
                assert lhs == rhs

    def test_haar_truncated_product_closed_form(self):
        # the finite product telescopes through the half-angle identity
        for t in (0.3, 0.71, 2.25):
            for depth in (10, 20, 24):
                got = cascade_phihat(haar_filter(), t, depth)
                scale = 2.0 ** depth
                want = (
                    np.exp(-1j * np.pi * t * (1.0 - 1.0 / scale))
                    * math.sin(math.pi * t)
                    / (scale * math.sin(math.pi * t / scale))
                )
                assert abs(got - want) <= 1e-12

    def test_haar_limit(self):
        for t in (0.3, -0.4, 1.7):
            want = complex(np.exp(-1j * np.pi * t) * np.sinc(t))
            assert abs(cascade_phihat(haar_filter(), t, 28) - want) <= 1e-8

    def test_value_at_zero(self):
        assert cascade_phihat(haar_filter(), 0.0, 20) == 1.0
        assert cascade_phihat(four_tap_filter(), 0.0, 20) == pytest.approx(1.0, abs=1e-12)

    def test_grid_matches_scalar(self):
        # the vectorized route may differ from the scalar one by ulps
        # (numpy and CPython complex multiplies round independently)
        ts = np.array([0.1, 0.25, 0.7])
        grid = _phihat_grid([0.5, 0.5], ts, 12)
        for i, t in enumerate(ts):
            want = cascade_phihat(haar_filter(), float(t), 12)
            assert abs(complex(grid[i]) - want) < 1e-13

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 1023))
    def test_ldexp_is_the_division(self, t, j):
        # t / 2^j is taken by ldexp, with the bits of the division wherever 2^j is a float
        want = (t / float(1 << j)).hex()
        assert math.ldexp(t, -j).hex() == want
        assert float(np.ldexp(np.array([t]), -j)[0]).hex() == want

    def test_depth_past_the_float_range(self):
        # float(1 << j) overflows from j = 1024; every factor beyond j of about 1074 is m(0)
        for t in (0.3, -0.4, 1.7):
            want = complex(np.exp(-1j * np.pi * t) * np.sinc(t))
            assert abs(cascade_phihat(haar_filter(), t, 1100) - want) <= 1e-12
            assert abs(pt_cylinder_mass(haar_filter(), t, "1", depth=1500) - abs(want) ** 2) <= 1e-12
        assert abs(tightness_defect(haar_filter(), 0.3, 512, 1100) - tightness_defect(haar_filter(), 0.3, 512, 80)) <= 1e-15

    def test_depth_and_width_caps(self):
        assert cascade_phihat(haar_filter(), 0.3, 2100) == cascade_phihat(haar_filter(), 0.3, 1100)
        assert tightness_defect(haar_filter(), 0.3, 4096, 20) >= -1e-6
        for call in (lambda: cascade_phihat(haar_filter(), 0.3, 2101),
                     lambda: pt_cylinder_mass(haar_filter(), 0.3, "1", depth=2101),
                     lambda: tightness_defect(haar_filter(), 0.3, 512, 2101)):
            with pytest.raises(ValueError, match="cascade depth 2101 is outside 1 .. 2100"):
                call()
        with pytest.raises(ValueError, match="K = 4097 is outside 1 .. 4096"):
            tightness_defect(haar_filter(), 0.3, 4097, 20)


class TestTightness:
    def test_haar_defect_small(self):
        for t in (0.1, 0.3, 0.5, 0.9):
            d = tightness_defect(haar_filter(), t, 512, 20)
            assert -1e-6 <= d <= 1e-3

    def test_stretched_haar_defect_is_one(self):
        # m(t/2) vanishes at every integer translate of 1/2
        assert abs(tightness_defect(STRETCHED, 0.5, 64, 20) - 1.0) <= 1e-12

    def test_four_tap_defect_small(self):
        assert abs(tightness_defect(four_tap_filter(), 0.3, 512, 20)) <= 1e-3

    def test_bessel_lower_bound(self):
        for taps in (haar_filter().taps, STRETCHED, four_tap_filter().taps):
            assert tightness_defect(taps, 0.37, 256, 18) >= -1e-6

    def test_pt_cylinder_mass(self):
        t = 0.3
        # the single-letter word "1" encodes the integer 0
        got = pt_cylinder_mass(haar_filter(), t, "1")
        assert abs(got - abs(cascade_phihat(haar_filter(), t, 20)) ** 2) <= 1e-15
        # "0" encodes -1
        got0 = pt_cylinder_mass(haar_filter(), t, "0")
        assert abs(got0 - abs(cascade_phihat(haar_filter(), t - 1.0, 20)) ** 2) <= 1e-15
        with pytest.raises(ValueError):
            pt_cylinder_mass(haar_filter(), t, "")


class TestSolenoid:
    def test_dyadic_angle(self):
        a = DyadicAngle(3, 3)
        assert a.value == 0.375
        assert a.as_fraction() == Fraction(3, 8)
        with pytest.raises(ValueError):
            DyadicAngle(8, 3)  # numerator out of range
        with pytest.raises(ValueError):
            DyadicAngle(-1, 2)

    @pytest.mark.parametrize("numerator, level", [(0.5, 1), (1.0, 1), (Fraction(1), 1), (1, True), (True, 1),
                                                  (0, 0.0), (np.float64(1), 1)],
                             ids=["half", "float_one", "fraction_one", "bool_level", "bool_numerator",
                                  "float_level", "numpy_float"])
    def test_dyadic_angle_refuses_non_integers(self, numerator, level):
        # 0.5 / 2^1 would read 0.25 as a value, yet walk from numerator 0 and fail as_fraction
        with pytest.raises(TypeError):
            DyadicAngle(numerator, level)

    def test_dyadic_angle_stores_numpy_integers_as_int(self):
        a = DyadicAngle(np.int64(5), np.uint8(4))
        assert (a.numerator, a.level) == (5, 4)
        assert type(a.numerator) is int and type(a.level) is int
        assert a.as_fraction() == Fraction(5, 16)
        assert not np.any(solenoid_walk(w_from_filter(haar_filter()), 0, 3, 1, start=a).numerators - 5)

    def test_haar_from_origin_is_frozen(self):
        w = w_from_filter(haar_filter())
        ens = solenoid_walk(w, 8, 200, 5)
        assert not np.any(ens.numerators)

    def test_angles_halve_along_paths(self):
        w = TrigPoly.constant(Fraction(1, 2))
        ens = solenoid_walk(w, 6, 500, 21, start=4)
        for step in range(6):
            t = ens.angles(step)
            s = ens.angles(step + 1)
            # sigma(next) = prev: doubling s mod 1 returns t
            assert float(np.max(np.abs((2 * s) % 1.0 - t))) <= 1e-12

    def test_uniform_start_marginal(self):
        w = TrigPoly.constant(Fraction(1, 2))
        ens = solenoid_walk(w, 1, 40000, 13, start=3)
        counts = np.bincount(ens.numerators[:, 0].astype(int), minlength=8) / 40000
        se = math.sqrt((1 / 8) * (7 / 8) / 40000)
        assert float(np.max(np.abs(counts - 1 / 8))) <= 5 * se

    def test_covariance_against_lebesgue(self):
        # from level 10 the product's coefficients at nonzero multiples of 2^10 vanish,
        # so the level-10 value is the Lebesgue integral of f1 T_W f2 at every lag
        w = TrigPoly.constant(Fraction(1, 2))
        ens = solenoid_walk(w, 10, 60000, 97, start=10)
        c1 = TrigPoly({1: Fraction(1, 2), -1: Fraction(1, 2)})
        c2 = TrigPoly({2: Fraction(1, 2), -2: Fraction(1, 2)})
        for f1, f2, lag in ((c1, c1, 0), (c1, c2, 3), (c2, c2, 5)):
            est, se = covariance_mc(ens, f1, f2, lag)
            (exact,) = solenoid_covariance_exact(w, f1, f2, 10, [lag])
            assert exact == float((f1 * circle_transfer_apply(w, f2, 2)).integral())
            assert abs(est - exact) <= 5 * max(se, 1e-12)

    def test_point_mass_route(self):
        w = w_from_filter(haar_filter())
        c2 = TrigPoly({2: Fraction(1, 2), -2: Fraction(1, 2)})
        exact = solenoid_covariance_exact(w, c2, c2, DyadicAngle(0, 0), [1, 0, 1])
        ens = solenoid_walk(w, 4, 50, 9)
        est, se = covariance_mc(ens, c2, c2, 1)
        assert se == 0.0 and exact == [est] * 3 == [1.0] * 3

    @pytest.mark.parametrize("name", ["half", "haar"])
    def test_exact_route_matches_every_path(self, name):
        # L + n + 1 <= 12: at most 4096 paths, each weighted by float W at its branches
        w = TrigPoly.constant(Fraction(1, 2)) if name == "half" else w_from_filter(haar_filter())
        cos = {j: TrigPoly({j: Fraction(1, 2), -j: Fraction(1, 2)}) for j in (1, 2, 3)}
        for level in range(12):
            lags = list(range(12 - level))[::-1]
            for start in (level, DyadicAngle((1 << level) // 3, level)):
                for f1, f2 in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
                    got = solenoid_covariance_exact(w, cos[f1], cos[f2], start, lags)
                    want = [enumerated_covariance(w, cos[f1], cos[f2], start, n) for n in lags]
                    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (level, start, f1, f2)

    @pytest.mark.parametrize("name", ["haar", "half", "qmf", "four_tap"])
    @pytest.mark.parametrize("start", [DyadicAngle(0, 0), DyadicAngle(5, 4), 0, 10], ids=repr)
    def test_chain_has_the_bits_of_one_transfer_apply_per_step(self, name, start):
        # the reference chain: f1 * T_W f2 as TrigPoly arithmetic, then one transfer_apply per
        # lag, read by the same start law; the values must agree to the last bit at lags 0-61
        w = {"haar": w_from_filter(haar_filter()), "half": TrigPoly.constant(Fraction(1, 2)),
             "qmf": w_from_filter(_qmf_taps(Fraction(3, 5), Fraction(4, 5))),
             "four_tap": w_from_filter(four_tap_filter())}[name]
        if isinstance(start, DyadicAngle):
            law = lambda g: g.real_part(start.numerator / (1 << start.level))
        else:
            law = lambda g: complex(sum(c for k, c in g.coeffs.items() if k % (1 << start) == 0)).real
        cos = {j: TrigPoly({j: Fraction(1, 2), -j: Fraction(1, 2)}) for j in (1, 2)}
        lags = list(range(61, -1, -1))
        for f1, f2 in ((1, 1), (1, 2), (2, 2)):
            chain = [cos[f1] * circle_transfer_apply(w, cos[f2], 2)]
            for _ in range(61):
                chain.append(circle_transfer_apply(w, chain[-1], 2))
            want = [law(chain[n]).hex() for n in lags]
            got = [v.hex() for v in solenoid_covariance_exact(w, cos[f1], cos[f2], start, lags)]
            assert got == want, (f1, f2)

    def test_negative_lag_is_refused(self):
        w, e1 = TrigPoly.constant(Fraction(1, 2)), TrigPoly.basis(1)
        with pytest.raises(ValueError, match="nonnegative"):
            solenoid_covariance_exact(w, e1, e1, 3, [2, -1])

    def test_partition_precondition(self):
        with pytest.raises(ValueError, match="sum to 1"):
            solenoid_walk(w_from_filter(STRETCHED), 4, 100, 1)

    def test_partition_is_checked_between_grid_points(self):
        # the branches sum to 11/10 - cos(2 pi 1024 t) / 10: 1 at every multiple of 1/1024, 1.2 at 1/2048
        w = TrigPoly({0: Fraction(11, 20), 2048: Fraction(-1, 40), -2048: Fraction(-1, 40)})
        with pytest.raises(ValueError, match=r"do not sum to 1 \(deviation 2\.000e-01\)"):
            solenoid_walk(w, 4, 100, 1)

    def test_negative_weight_caught_during_walk(self):
        # W = 1/2 + cos(2 pi t) satisfies the branch partition but dips below 0
        w = TrigPoly({0: Fraction(1, 2), 1: Fraction(1, 2), -1: Fraction(1, 2)})
        with pytest.raises(ValueError, match="negative W"):
            solenoid_walk(w, 6, 2000, 3, start=4)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_negative_weight_caught_on_a_one_value_step(self, threads, split_blocks):
        # the same W has W(0) = 3/2: from the fixed point every path of a block sits on
        # numerator 0, so the first step's one value already fails the bound
        w = TrigPoly({0: Fraction(1, 2), 1: Fraction(1, 2), -1: Fraction(1, 2)})
        assert w.real_part(0.0) == 1.5
        split_blocks(threads)
        for start in (4, DyadicAngle(0, 0)):
            with pytest.raises(ValueError, match="^negative W sample along the walk$"):
                solenoid_walk(w, 6, 3000, 3, start=start)

    def test_level_cap(self):
        w = TrigPoly.constant(Fraction(1, 2))
        with pytest.raises(ValueError):
            solenoid_walk(w, 60, 10, 1, start=10)

    def test_thread_invariance(self, monkeypatch, split_blocks):
        w = TrigPoly.constant(Fraction(1, 2))
        monkeypatch.delenv("SPECTRAL_WALKS_THREADS", raising=False)
        a = solenoid_walk(w, 8, 2222, 31, start=6).numerators
        plans = split_blocks("3")
        b = solenoid_walk(w, 8, 2222, 31, start=6).numerators
        assert np.array_equal(a, b)
        assert plans.all_split()

    def test_reproducible(self):
        w = TrigPoly.constant(Fraction(1, 2))
        a = solenoid_walk(w, 8, 500, 77, start=5)
        b = solenoid_walk(w, 8, 500, 77, start=5)
        assert np.array_equal(a.numerators, b.numerators)
        assert a.angle(3, 2) == b.angle(3, 2)
