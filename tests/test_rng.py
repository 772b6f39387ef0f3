"""Counter-based generator: reference vectors and vector/scalar agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_walks.rng import _bits_threshold, derive_key, mix64, path_keys, step_bits, step_uniforms, uniform

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_stream(seed, count):
    # independent transcription of the SplitMix64 reference: advance the
    # state by the golden gamma, then apply the two-multiply finalizer
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_known_answer_vector():
    # first outputs from seed 0, as published with the reference code
    assert reference_stream(0, 3) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_derive_key_is_splitmix_stream():
    for seed in (0, 1, 0xDEADBEEF, MASK):
        assert [derive_key(seed, i) for i in range(16)] == reference_stream(seed, 16)


def test_mix64_range_and_determinism():
    xs = [mix64(k) for k in range(64)]
    assert all(0 <= x <= MASK for x in xs)
    assert len(set(xs)) == 64
    assert mix64(12345) == mix64(12345)


def test_path_keys_match_scalar():
    ks = path_keys(987654321, 0, 100)
    assert ks.dtype == np.uint64
    assert all(int(ks[i]) == derive_key(987654321, i) for i in range(100))


def test_path_keys_chunk_invariance():
    whole = path_keys(7, 0, 60)
    assert int(path_keys(7, 50, 10)[0]) == int(whole[50])
    assert np.array_equal(path_keys(7, 20, 40), whole[20:])


def test_step_uniforms_match_scalar():
    ks = path_keys(31337, 0, 16)
    before = ks.copy()
    for step in (0, 1, 17):
        us = step_uniforms(ks, step)
        assert all(float(us[i]) == uniform(31337, i, step) for i in range(16))
        # the draws are mixed in place in arrays of their own, never in the caller's keys
        assert np.array_equal(ks, before)
        step_bits(ks, step)
        assert np.array_equal(ks, before)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, MASK), st.integers(0, 1 << 40), st.integers(1, 40), st.integers(0, 1 << 20))
def test_vector_routes_match_scalar(seed, first, count, step):
    keys = path_keys(seed, first, count)
    bits = step_bits(keys, step)
    us = step_uniforms(keys, step)
    assert bits.dtype == np.uint64 and us.dtype == np.float64
    for i in range(count):
        assert int(bits[i]) == mix64(derive_key(seed, first + i) + (step + 1) * 0x9E3779B97F4A7C15)
        assert float(us[i]) == uniform(seed, first + i, step) == (int(bits[i]) >> 11) * 2.0**-53


def unmix64(z):
    """The input whose SplitMix64 finalizer is z: each xorshift and odd multiply undone in reverse order."""

    def unshift(z, s):
        x = z
        for _ in range(64 // s + 1):  # x = z ^ (x >> s) gains s correct top bits per round
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK
    z = unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK
    return unshift(z, 30)


# the bounds the walk admits (-1e-12), both zeros, the least subnormal, one draw step,
# and the float four-tap's W(0) = 1 - 2^-52 and the largest float below 1
EDGE_P = [-1e-12, -0.0, 0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(EDGE_P), st.floats(-1.0, 1.0, exclude_max=True)),
       st.lists(st.integers(0, MASK), max_size=16), st.integers(0, 1 << 20))
def test_bits_threshold_splits_the_words_as_step_uniforms_splits_the_draws(p, words, step):
    t = _bits_threshold(p)
    assert isinstance(t, np.uint64)
    words = words + [w for w in (int(t) - 1, int(t), int(t) + 1) if 0 <= w <= MASK]
    # keys whose step_bits at this step are exactly the chosen words
    keys = np.array([(unmix64(w) - (step + 1) * GOLDEN) & MASK for w in words], dtype=np.uint64)
    bits = step_bits(keys, step)
    assert bits.tolist() == words
    assert np.array_equal(bits >= t, step_uniforms(keys, step) >= p)


def test_uniform_range():
    us = step_uniforms(path_keys(5, 0, 10000), 3)
    assert float(us.min()) >= 0.0
    assert float(us.max()) < 1.0
    # 53-bit mantissa: mean near 1/2 at this sample size
    assert abs(float(us.mean()) - 0.5) < 0.02


def test_distinct_steps_decorrelate():
    ks = path_keys(11, 0, 4096)
    a = step_uniforms(ks, 0)
    b = step_uniforms(ks, 1)
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.05


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1 << 70])
def test_seed_outside_the_range_raises(seed):
    # masked to 64 bits, these would alias the keys of seeds 2^64 - 1, 0 and 0
    for draw in (lambda: path_keys(seed, 0, 4), lambda: derive_key(seed, 0), lambda: uniform(seed, 0, 0)):
        with pytest.raises(ValueError, match=f"seed {seed} is outside"):
            draw()


def test_largest_seed_is_in_the_range():
    assert int(path_keys(MASK, 0, 1)[0]) == derive_key(MASK, 0) == reference_stream(MASK, 1)[0]
