"""TrigPoly evaluation against the complex-exp loop, ring laws, and solenoid pins.

The oracle below is the sum TrigPoly.__call__ computes: one complex
exponential per stored frequency, summed in sorted-k order, so __call__
must return its values bit for bit.  The fast evaluator real_part takes
one cosine per distinct |k| (and a sine only for a complex coefficient),
and must return the oracle's real part bit for bit whenever the
coefficients are real (int, Fraction or float); for complex coefficients
it may differ by rounding only.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectral_walks import TrigPoly, cli, four_tap_filter, haar_filter, solenoid_walk, w_from_filter
from spectral_walks.rng import path_keys, step_uniforms

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def complex_exp_oracle(poly, t):
    """The replaced evaluation loop: out += c_k * exp(-2 pi i k t) per stored k."""
    arr = np.asarray(t, dtype=np.float64)
    out = np.zeros(arr.shape, dtype=np.complex128)
    for k in sorted(poly.coeffs):
        out += complex(poly.coeffs[k]) * np.exp((-2j * np.pi * k) * arr)
    if arr.ndim == 0:
        return complex(out)
    return out


def bits(x):
    return np.atleast_1d(np.asarray(x, dtype=np.complex128)).view(np.uint64)


# ---------------------------------------------------------------- strategies

frequencies = st.integers(-12, 12)
ints = st.integers(-50, 50)
fractions = st.fractions(min_value=-8, max_value=8, max_denominator=64)
floats = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
complexes = st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False)
real_coefficients = st.one_of(
    st.dictionaries(frequencies, ints, max_size=8),
    st.dictionaries(frequencies, fractions, max_size=8),
    st.dictionaries(frequencies, floats, max_size=8),
    st.dictionaries(frequencies, st.one_of(ints, fractions, floats), max_size=8),
)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, 1e4, -1e4]
positions = st.one_of(
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL),
    st.builds(lambda j, m: j / float(1 << m), st.integers(-(1 << 20), 1 << 20), st.integers(0, 52)),
)
grids = st.builds(
    lambda xs, m: np.concatenate([SPECIAL, xs, np.arange(-(1 << m), 1 << m) / float(1 << m)]),
    st.lists(st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False), max_size=40),
    st.integers(0, 9),
)


# ---------------------------------------------------------------- evaluator vs oracle

class TestAgainstComplexExp:
    @SETTINGS
    @given(real_coefficients, positions)
    def test_real_coefficients_bitwise_at_scalars(self, coeffs, t):
        p = TrigPoly(coeffs)
        want = complex_exp_oracle(p, t)
        got = p(t)
        assert type(got) is complex
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(p.real_part(t)), bits(want.real))

    @SETTINGS
    @given(real_coefficients, grids)
    def test_real_coefficients_bitwise_on_arrays(self, coeffs, ts):
        p = TrigPoly(coeffs)
        want = complex_exp_oracle(p, ts)
        got = p(ts)
        assert got.dtype == np.complex128 and got.shape == ts.shape
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(p.real_part(ts).view(np.uint64), want.real.view(np.uint64))

    @SETTINGS
    @given(st.dictionaries(frequencies, st.one_of(complexes, floats, fractions), max_size=8), grids)
    def test_complex_coefficients_within_rounding(self, coeffs, ts):
        p = TrigPoly(coeffs)
        want = complex_exp_oracle(p, ts)
        tol = 1e-12 * sum(abs(complex(c)) for c in p.coeffs.values())
        assert np.array_equal(bits(p(ts)), bits(want))
        assert float(np.max(np.abs(p.real_part(ts) - want.real), initial=0.0)) <= tol

    def test_shapes(self):
        p = TrigPoly({-2: 1, 0: Fraction(1, 3), 5: 0.25})
        ts = np.linspace(-1, 1, 12).reshape(3, 4)
        assert p(ts).shape == (3, 4) and p.real_part(ts).shape == (3, 4)
        assert type(p.real_part(0.3)) is float
        assert p(np.array([])).shape == (0,)
        assert TrigPoly({})(0.7) == 0j and TrigPoly({}).real_part(ts).shape == (3, 4)


class TestOneWavePerFrequency:
    def count_calls(self, monkeypatch):
        calls = {"cos": 0, "sin": 0}
        for name in calls:
            fn = getattr(np, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        return calls

    def test_real_part_takes_no_sine_for_real_coefficients(self, monkeypatch):
        w = w_from_filter(four_tap_filter())
        assert sorted(w.coeffs) == [-3, -2, -1, 0, 1, 2, 3]
        calls = self.count_calls(monkeypatch)
        w.real_part(np.linspace(0, 1, 64))
        assert calls == {"cos": 3, "sin": 0}

    def test_real_part_takes_sines_a_complex_term_needs(self, monkeypatch):
        p = TrigPoly({-2: 1.0, 1: 0.5j, 2: 3})
        calls = self.count_calls(monkeypatch)
        p.real_part(np.linspace(0, 1, 64))
        assert calls == {"cos": 2, "sin": 1}


# ---------------------------------------------------------------- ring laws

polys = st.dictionaries(st.integers(-6, 6), st.fractions(max_denominator=12), max_size=5).map(TrigPoly)


class TestRingLaws:
    @settings(max_examples=100, deadline=None)
    @given(polys, polys, polys)
    def test_commutative_ring(self, f, g, h):
        zero, one = TrigPoly({}), TrigPoly.constant(1)
        assert f + g == g + f and f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + zero == f and f * one == f and f * zero == zero
        assert f + (-f) == zero and f - g == f + (-g)

    @settings(max_examples=100, deadline=None)
    @given(polys, polys, st.integers(1, 4), st.fractions(max_denominator=12))
    def test_conjugate_scale_and_scalars(self, f, g, d, c):
        assert f.conjugate().conjugate() == f
        assert (f * g).conjugate() == f.conjugate() * g.conjugate()
        assert (f * g).compose_scale(d) == f.compose_scale(d) * g.compose_scale(d)
        assert (f + g).compose_scale(d) == f.compose_scale(d) + g.compose_scale(d)
        assert c * f == f * c == f * TrigPoly.constant(c)
        assert (f * g).integral() == f.conjugate().inner(g)


# ---------------------------------------------------------------- solenoid start cells

HALF = TrigPoly.constant(Fraction(1, 2))


def start_cells(level, n_paths, seed):
    return solenoid_walk(HALF, 0, n_paths, seed, start=level).numerators[:, 0]


class TestStartCells:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 53), st.integers(0, (1 << 64) - 1))
    def test_float_route_up_to_level_53(self, level, seed):
        u = step_uniforms(path_keys(seed, 0, 300), 0)
        cells = np.floor(u * float(1 << level))
        old = np.minimum(cells, float((1 << level) - 1)).astype(np.uint64)
        assert np.array_equal(start_cells(level, 300, seed), old)

    def test_cells_refine_level_by_level(self):
        prev = start_cells(0, 500, 11)
        assert not prev.any()
        for level in range(1, 63):
            cells = start_cells(level, 500, 11)
            assert int(cells.max()) < 1 << level
            assert np.array_equal(cells >> np.uint64(1), prev)
            prev = cells

    @pytest.mark.parametrize("level", [60, 62])
    def test_cells_above_level_53_use_every_bit(self, level):
        cells = start_cells(level, 2000, 5)
        low = cells & np.uint64((1 << (level - 53)) - 1)
        # the float route reached only multiples of 2^(level - 53)
        assert np.any(low != 0)
        assert len(np.unique(low)) > (1 << (level - 53)) // 2


# ---------------------------------------------------------------- golden output

# sha256 of "<exit code>\n" + output bytes, recorded with the complex-exp evaluator
# and the float start-cell route.  From DyadicAngle(0, 0) the four-tap and haar walks
# never leave 0 (W(0) = 1 makes delta_0 invariant), so they start at level 10 here
GOLDEN_SOLENOID_CLI = [
    (["--w", "four_tap.json", "--start-level", "10"], "7f560e3540d66914a7c11b9b809f65094132e8e5861ce24121d86d56b639ce35"),
    (["--w", "haar", "--start-level", "10"], "0222f13c82b8e937f790162fcd48aafd66031a12cc87774d53b04a97cdcc284f"),
    (["--w", "half"], "73f091d915f9b8ac923562f576ce3d0522af4bfa28ef8be2f7a728850f261912"),
]

# sha256 of solenoid_walk(W, steps, 5000, 7, start=level).numerators, by (W, level, steps)
GOLDEN_NUMERATORS = {
    ("four_tap", 0, 24): "d29751f2649b32ff572b5e0a9f541ea660a50f94ff0beedfb0b692b924cc8025",
    ("four_tap", 3, 24): "7c63924e5342b000af2648108a0a6c1fa46e621ee89903daba409f2e460bde7c",
    ("four_tap", 10, 24): "4793470c1db57331ccc9889239fbd85c128f70880750ecb5f8fa8b0b5895a015",
    ("four_tap", 20, 24): "4ae5e96856825c0ecfa9a8be4609871b311e1e9a679e36e8a30d8470fedbccb1",
    ("four_tap", 53, 9): "73c35fa0363f5d8a42db4506dbf40cd44a8cca4f528f5b4da340231bb54fc0fe",
    ("haar", 3, 24): "31a0e3d56ee71c194dc87c1be5a5e8d3bc89bcaa2d80871200a363364d3926fd",
    ("haar", 10, 24): "e686965e7ac97862c5200e4129291b7ed4d0ca162efd18ae5a0ddfef385b4f9e",
    ("haar", 20, 24): "24e538af7cd6e979a7ba5d22a5cd107ff9331f90f07c04e42916769ef9352d3c",
    ("half", 10, 24): "c4b518c65d5f7ad13e61ee5df8249232f2b5d9ea0eabdd18bfaa6ee2ed5fc2f6",
    ("half", 53, 9): "cc512d0174511f0b5ef56ed644b75da97b01920f179725ab22e0ceba1dd1d086",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_solenoid_cli(threads, tmp_path, monkeypatch, split_blocks):
    monkeypatch.chdir(tmp_path)
    plans = split_blocks(threads)
    (tmp_path / "four_tap.json").write_text(json.dumps({"a": list(four_tap_filter().taps), "degree": 2}))
    changed = []
    for w_args, want in GOLDEN_SOLENOID_CLI:
        argv = ["solenoid", "walk"] + w_args + ["--steps", "24", "--paths", "5000", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(argv + ["--output", "out.txt"])
        got = hashlib.sha256(f"{rc}\n".encode() + (tmp_path / "out.txt").read_bytes()).hexdigest()
        if got != want:
            changed.append(" ".join(w_args))
    assert not changed
    assert plans.all_split() == (threads == "2")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_numerators(threads, split_blocks):
    plans = split_blocks(threads)
    weights = {"four_tap": w_from_filter(four_tap_filter()), "haar": w_from_filter(haar_filter()), "half": HALF}
    changed = []
    for (name, level, steps), want in GOLDEN_NUMERATORS.items():
        ens = solenoid_walk(weights[name], steps, 5000, 7, start=level)
        if hashlib.sha256(ens.numerators.tobytes()).hexdigest() != want:
            changed.append((name, level))
    assert not changed
    assert plans.all_split() == (threads == "2")
