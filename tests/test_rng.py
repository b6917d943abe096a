"""Generator correctness: frozen vectors, ranges, and stream independence."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sasmot.rng import _CHUNK, MASK64, SplitMix64, box_muller

# The first output of this seed is 2**64 - 1: its first uniform() is exactly
# 1.0 and its first gauss() takes the value + 1 = 2**64 path, where the
# uint64 sum in box_muller wraps to 0.
TOP_SEED = 0x31628AF67B2131AB


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
        assert 0.0 <= u <= 1.0


def test_uniform_reaches_one_at_the_top_output():
    rng = SplitMix64(TOP_SEED)
    assert rng.next_u64() == MASK64
    assert SplitMix64(TOP_SEED).uniform() == 1.0


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


class _ReferenceStream:
    """Scalar transcription of the documented draws on top of _reference_step."""

    def __init__(self, seed):
        self.state = seed

    def next_u64(self):
        self.state, value = _reference_step(self.state)
        return value

    def uniform(self):
        return self.next_u64() / 2.0**64

    def gauss(self):
        u1 = (self.next_u64() + 1) / 2.0**64
        u2 = self.next_u64() / 2.0**64
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gauss_block(self, n):
        return [self.gauss() for _ in range(n)]

    def raw_block(self, k):
        return [self.next_u64() for _ in range(k)]


def _draw(stream, method, arg):
    """One pattern call. ``box_muller`` is the vector transform over a raw
    block, and its scalar reference is ``gauss_block``."""
    if method == "box_muller":
        if isinstance(stream, _ReferenceStream):
            return stream.gauss_block(arg)
        return box_muller(stream.raw_block(2 * arg)).tolist()
    got = getattr(stream, method)(*(() if arg is None else (arg,)))
    return got.tolist() if isinstance(got, np.ndarray) else got


# (method, argument) calls in a fixed order, placed by output count: the
# first big block ends two outputs short of the first chunk, so the next
# block straddles the refill; the second does the same to the second chunk;
# then a block larger than a chunk, a next_u64 at its exact end and a fourth
# refill follow. The vector transform then does the same: a block ending
# four outputs short of the fourth chunk's end, one straddling the refill,
# one larger than a chunk, and a raw block at its exact end.
_PATTERN = [
    ("next_u64", None),
    ("uniform", None),
    ("gauss", None),
    ("gauss_block", 0),
    ("gauss_block", 3),
    ("gauss_block", (_CHUNK - 12) // 2),
    ("gauss_block", 3),
    ("next_u64", None),
    ("gauss", None),
    ("gauss_block", (_CHUNK - 12) // 2),
    ("uniform", None),
    ("gauss_block", 5),
    ("gauss_block", _CHUNK),
    ("next_u64", None),
    ("gauss", None),
    ("uniform", None),
    ("gauss_block", 17),
    ("raw_block", 0),
    ("box_muller", (_CHUNK - 42) // 2),
    ("raw_block", 3),
    ("box_muller", 4),
    ("box_muller", _CHUNK),
    ("raw_block", 1),
    ("box_muller", 0),
    ("next_u64", None),
    ("raw_block", 5),
]


@pytest.mark.parametrize("seed", [0, 1, MASK64, TOP_SEED])
def test_interleaved_draws_equal_the_scalar_reference(seed):
    rng, ref = SplitMix64(seed), _ReferenceStream(seed)
    for method, arg in _PATTERN:
        assert _draw(rng, method, arg) == _draw(ref, method, arg), (method, arg)
        assert rng.state == ref.state, (method, arg)


def test_top_seed_first_gauss_takes_the_closed_end():
    # u1 = (2**64 - 1 + 1) / 2**64 = 1.0, so the variate is exactly zero.
    assert SplitMix64(TOP_SEED).gauss() == 0.0
    assert SplitMix64(TOP_SEED).gauss_block(1) == [0.0]
    raw = SplitMix64(TOP_SEED).raw_block(2)
    assert raw[0] == MASK64
    assert box_muller(raw).tolist() == [0.0]


@pytest.mark.parametrize("method, count", [("gauss_block", -1), ("raw_block", -3)])
def test_negative_count_is_refused_and_leaves_the_stream(method, count):
    rng = SplitMix64(0)
    rng.uniform()
    rng.uniform()
    state = rng.state
    with pytest.raises(ValueError, match=f"{method} count must be >= 0, got {count}"):
        getattr(rng, method)(count)
    assert rng.state == state
    # Before the check, gauss_block(-1) rewound the stream to its seed, and
    # the next uniform() repeated the first output.
    assert rng.uniform() == _ReferenceStream(state).uniform()
