"""Generator correctness: frozen vectors, ranges, and stream independence."""

import math

from hypothesis import given, strategies as st

from sasmot.rng import MASK64, SplitMix64


def _reference_step(state):
    # Independent transcription of the SplitMix64 finalizer, kept separate
    # from the implementation on purpose.
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, (z ^ (z >> 31)) & MASK64


def test_seed_zero_first_output_matches_published_vector():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_seed_zero_first_three_outputs():
    rng = SplitMix64(0)
    got = [rng.next_u64() for _ in range(3)]
    state, expected = 0, []
    for _ in range(3):
        state, value = _reference_step(state)
        expected.append(value)
    assert got == expected


@given(st.integers(min_value=0, max_value=MASK64))
def test_next_matches_reference_step(seed):
    state, expected = _reference_step(seed)
    rng = SplitMix64(seed)
    assert rng.next_u64() == expected
    assert rng.state == state


@given(st.integers(min_value=0, max_value=MASK64))
def test_outputs_stay_in_64_bit_range(seed):
    rng = SplitMix64(seed)
    for _ in range(8):
        assert 0 <= rng.next_u64() <= MASK64


@given(st.integers(min_value=0, max_value=MASK64))
def test_uniform_in_unit_interval(seed):
    rng = SplitMix64(seed)
    for _ in range(16):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


@given(st.integers(min_value=0, max_value=MASK64))
def test_gauss_is_finite(seed):
    rng = SplitMix64(seed)
    for _ in range(16):
        assert math.isfinite(rng.gauss())


def test_gauss_consumes_two_uniforms_per_variate():
    a, b = SplitMix64(99), SplitMix64(99)
    a.gauss()
    b.next_u64()
    b.next_u64()
    assert a.state == b.state


def test_same_seed_same_stream():
    a, b = SplitMix64(1234), SplitMix64(1234)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_uniform_mean_is_roughly_centered():
    rng = SplitMix64(7)
    n = 20_000
    mean = sum(rng.uniform() for _ in range(n)) / n
    # Standard error is ~0.002; 0.01 leaves wide slack for a fixed seed.
    assert abs(mean - 0.5) < 0.01


def test_gauss_moments_are_roughly_standard():
    rng = SplitMix64(11)
    n = 20_000
    xs = [rng.gauss() for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05
