"""Memory semantics: accumulation, commit timing, selection, fusion, eviction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasmot.geometry import Box2D
from sasmot.memory import MemoryConfig, MemoryPolicy, TrackMemory
from sasmot.rng import SplitMix64


def _box(cx, cy, w=0.1, h=0.1):
    return Box2D(cx, cy, w, h)


def _emb(dim, value=1.0):
    e = np.zeros(dim)
    e[0] = value
    return e


def _walk(memory, positions, dim=4, overlaps=None, start_frame=0):
    committed = []
    for i, (cx, cy) in enumerate(positions):
        ov = overlaps[i] if overlaps is not None else 0.0
        if memory.observe(_box(cx, cy), _emb(dim, float(i + 1)), ov, start_frame + i):
            committed.append(start_frame + i)
    return committed


def test_stationary_object_never_commits():
    mem = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.SPARSE)
    commits = _walk(mem, [(0.5, 0.5)] * 200)
    assert commits == []
    assert len(mem.entries) == 0


def test_first_commit_at_frame_three_for_crossing_threshold():
    # First observation at frame 0 seeds the center; 0.04 per frame after
    # that gives accumulated distance 0.04, 0.08, 0.12 at frames 1..3 and
    # 0.12 > 0.1 is the first strict crossing.
    mem = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.SPARSE)
    positions = [(0.1 + 0.04 * i, 0.5) for i in range(6)]
    commits = _walk(mem, positions)
    assert commits[0] == 3


def test_accumulator_resets_after_commit():
    mem = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.SPARSE)
    positions = [(0.1 + 0.04 * i, 0.5) for i in range(12)]
    commits = _walk(mem, positions)
    # After the frame-3 commit the accumulator restarts from zero, so the
    # next crossing needs three more 0.04 steps.
    assert commits == [3, 6, 9]


def test_exact_threshold_does_not_commit():
    mem = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.SPARSE)
    commits = _walk(mem, [(0.1, 0.5), (0.15, 0.5), (0.2, 0.5)])
    assert commits == []
    assert mem.accumulator == pytest.approx(0.1)


def test_infinite_epsilon_never_commits():
    mem = TrackMemory(
        MemoryConfig(epsilon=float("inf")), MemoryPolicy.SPARSE
    )
    positions = [(0.01 * i, 0.5) for i in range(80)]
    assert _walk(mem, positions) == []


def test_none_policy_stores_nothing():
    mem = TrackMemory(MemoryConfig(), MemoryPolicy.NONE)
    _walk(mem, [(0.1 * i, 0.5) for i in range(9)])
    assert len(mem.entries) == 0
    cur = _emb(4, 5.0)
    assert np.array_equal(mem.fused_query(cur), cur)


def test_dense_commits_every_frame_including_birth():
    mem = TrackMemory(MemoryConfig(m_max=100), MemoryPolicy.DENSE)
    commits = _walk(mem, [(0.5, 0.5)] * 7)
    assert commits == [0, 1, 2, 3, 4, 5, 6]
    assert len(mem.entries) == 7


def test_ofs_stores_minimum_overlap_frame_in_window():
    # Steps of 0.04 put the strict threshold crossing at frame 8, but the
    # frame-7 snapshot (overlap 0.1) is the cleanest in the window and
    # must be the one stored.
    mem = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.SPARSE_OFS)
    mem.observe(_box(0.10, 0.5), _emb(4, 1.0), 0.3, 5)
    mem.observe(_box(0.14, 0.5), _emb(4, 2.0), 0.2, 6)
    mem.observe(_box(0.18, 0.5), _emb(4, 3.0), 0.1, 7)
    committed = mem.observe(_box(0.22, 0.5), _emb(4, 4.0), 0.6, 8)
    assert committed
    entry = mem.entries[-1]
    assert entry.frame_idx == 7
    assert entry.overlap_at_store == pytest.approx(0.1)
    assert entry.embedding[0] == pytest.approx(3.0)


def test_ofs_tie_keeps_earlier_frame():
    mem = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.SPARSE_OFS)
    mem.observe(_box(0.10, 0.5), _emb(4, 1.0), 0.0, 0)
    mem.observe(_box(0.18, 0.5), _emb(4, 2.0), 0.0, 1)
    committed = mem.observe(_box(0.26, 0.5), _emb(4, 3.0), 0.0, 2)
    assert committed
    assert mem.entries[-1].frame_idx == 0


def test_plain_sparse_stores_commit_frame():
    mem = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.SPARSE)
    mem.observe(_box(0.10, 0.5), _emb(4, 1.0), 0.0, 0)
    mem.observe(_box(0.18, 0.5), _emb(4, 2.0), 0.9, 1)
    committed = mem.observe(_box(0.26, 0.5), _emb(4, 3.0), 0.7, 2)
    assert committed
    assert mem.entries[-1].frame_idx == 2
    assert mem.entries[-1].overlap_at_store == pytest.approx(0.7)


def test_delaying_waits_for_low_overlap():
    cfg = MemoryConfig(epsilon=0.1, delay_overlap_threshold=0.2)
    mem = TrackMemory(cfg, MemoryPolicy.DELAYING)
    mem.observe(_box(0.10, 0.5), _emb(4, 1.0), 0.0, 0)
    # Threshold crossed here, but the object is still overlapped.
    assert not mem.observe(_box(0.22, 0.5), _emb(4, 2.0), 0.5, 1)
    assert not mem.observe(_box(0.34, 0.5), _emb(4, 3.0), 0.3, 2)
    # First sufficiently clean frame commits.
    assert mem.observe(_box(0.46, 0.5), _emb(4, 4.0), 0.2, 3)
    assert mem.entries[-1].frame_idx == 3


def test_capacity_evicts_oldest():
    cfg = MemoryConfig(epsilon=0.05, m_max=3)
    mem = TrackMemory(cfg, MemoryPolicy.SPARSE)
    commits = _walk(mem, [(0.06 * i, 0.5) for i in range(12)])
    assert len(commits) > 3
    assert len(mem.entries) == 3
    stored = [e.frame_idx for e in mem.entries]
    assert stored == commits[-3:]


def test_fused_query_analytic_half_alpha():
    cfg = MemoryConfig(epsilon=0.01, m_max=10, alpha=0.5)
    mem = TrackMemory(cfg, MemoryPolicy.SPARSE)
    mem.observe(_box(0.1, 0.5), np.array([0.0, 2.0]), 0.0, 0)
    mem.observe(_box(0.2, 0.5), np.array([0.0, 2.0]), 0.0, 1)  # commits (0, 2)
    mem.observe(_box(0.3, 0.5), np.array([0.0, 0.0]), 0.0, 2)  # commits (0, 0)
    assert [e.frame_idx for e in mem.entries] == [1, 2]
    q = mem.fused_query(np.array([1.0, 0.0]))
    assert np.allclose(q, [0.5, 0.5])


def test_fused_query_alpha_one_is_identity():
    cfg = MemoryConfig(epsilon=0.01, alpha=1.0)
    mem = TrackMemory(cfg, MemoryPolicy.SPARSE)
    _walk(mem, [(0.05 * i, 0.5) for i in range(10)], dim=3)
    assert len(mem.entries) > 0
    cur = np.array([0.3, -0.4, 0.5])
    assert np.allclose(mem.fused_query(cur), cur)


def test_fused_query_empty_memory_is_identity_exactly():
    mem = TrackMemory(MemoryConfig(), MemoryPolicy.SPARSE)
    cur = np.array([0.3, -0.4, 0.5])
    out = mem.fused_query(cur)
    assert np.array_equal(out, cur)


def test_fused_query_fixed_point():
    # If every stored entry equals the current embedding, fusion returns it.
    cfg = MemoryConfig(epsilon=0.01, alpha=0.5)
    mem = TrackMemory(cfg, MemoryPolicy.SPARSE)
    e = np.array([0.6, 0.0, 0.8])
    for i in range(6):
        mem.observe(_box(0.1 * i, 0.5), e.copy(), 0.0, i)
    assert len(mem.entries) >= 2
    assert np.allclose(mem.fused_query(e), e, atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_fused_query_order_invariance(seed):
    rng = SplitMix64(seed)
    dim = 5
    entries = [np.array([rng.gauss() for _ in range(dim)]) for _ in range(6)]
    cur = np.array([rng.gauss() for _ in range(dim)])

    def fuse(order):
        cfg = MemoryConfig(epsilon=0.01, m_max=10)
        mem = TrackMemory(cfg, MemoryPolicy.SPARSE)
        mem.observe(_box(0.0, 0.5), np.zeros(dim), 0.0, 0)
        for i, e in enumerate(order):
            mem.observe(_box(0.1 * (i + 1), 0.5), e, 0.0, i + 1)
        assert len(mem.entries) == len(order)
        return mem.fused_query(cur)

    a = fuse(entries)
    b = fuse(entries[::-1])
    assert np.allclose(a, b, atol=1e-9)


@pytest.mark.parametrize("policy", [p for p in MemoryPolicy if p is not MemoryPolicy.NONE])
def test_fused_query_equals_loop_over_entries_exactly(policy):
    """The cached sum must equal the sum over the current entries, in entry
    order, bit for bit, through commits and evictions."""
    rng = SplitMix64(11)
    cfg = MemoryConfig(epsilon=0.05, m_max=3)
    mem = TrackMemory(cfg, policy)
    x = 0.2
    for frame in range(80):
        x += 0.04 * rng.uniform()
        emb = np.array([rng.gauss() for _ in range(6)])
        mem.observe(_box(x, 0.5), emb, round(rng.uniform(), 2), frame)
        cur = np.array([rng.gauss() for _ in range(6)])
        if not mem.entries:
            continue
        total = np.zeros(6)
        for entry in mem.entries:
            total = total + entry.embedding
        a = cfg.alpha
        want = a * cur + ((1.0 - a) / len(mem.entries)) * total
        assert np.array_equal(mem.fused_query(cur), want)
    assert len(mem.entries) == cfg.m_max


def ofs_oracle_stream(seed, n_frames=60):
    """Drive one random stream and check every commit against a brute-force
    argmin over the frames observed since the previous commit."""
    rng = SplitMix64(seed)
    cfg = MemoryConfig(epsilon=0.1, m_max=8)
    mem = TrackMemory(cfg, MemoryPolicy.SPARSE_OFS)
    x = 0.5
    window = []
    for frame in range(n_frames):
        x += 0.02 + 0.03 * rng.uniform()
        emb = np.array([rng.gauss(), rng.gauss(), rng.gauss()])
        ov = round(rng.uniform(), 2) if rng.uniform() < 0.5 else 0.0
        window.append((ov, frame, emb))
        if mem.observe(_box(x, 0.5), emb, ov, frame):
            best = min(window, key=lambda t: (t[0], t[1]))
            entry = mem.entries[-1]
            assert entry.frame_idx == best[1]
            assert np.array_equal(entry.embedding, best[2])
            assert entry.overlap_at_store == best[0]
            window = []


def test_ofs_matches_bruteforce_argmin_on_random_streams():
    for seed in range(100):
        ofs_oracle_stream(seed)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_sparse_commits_at_most_dense(seed):
    rng = SplitMix64(seed)
    positions = []
    x, y = 0.5, 0.5
    for _ in range(50):
        x += (rng.uniform() - 0.5) * 0.08
        y += (rng.uniform() - 0.5) * 0.08
        positions.append((x, y))
    sparse = TrackMemory(MemoryConfig(m_max=1000), MemoryPolicy.SPARSE)
    dense = TrackMemory(MemoryConfig(m_max=1000), MemoryPolicy.DENSE)
    ns = len(_walk(sparse, positions))
    nd = len(_walk(dense, positions))
    assert ns < nd
    assert nd == len(positions)
    assert sparse.accumulator >= 0.0


def test_observe_validation():
    mem = TrackMemory(MemoryConfig(), MemoryPolicy.SPARSE)
    mem.observe(_box(0.1, 0.5), _emb(4), 0.0, 3)
    with pytest.raises(ValueError):
        mem.observe(_box(0.1, 0.5), _emb(3), 0.0, 4)  # wrong dim
    with pytest.raises(ValueError):
        mem.observe(_box(0.1, 0.5), _emb(4), 1.5, 4)  # overlap out of range
    with pytest.raises(ValueError):
        mem.observe(_box(0.1, 0.5), _emb(4), 0.0, 3)  # frame not advancing
    with pytest.raises(ValueError, match="1-D"):
        mem.observe(_box(0.1, 0.5), _emb(4).reshape(2, 2), 0.0, 4)


def test_commit_store_requires_candidate():
    mem = TrackMemory(MemoryConfig(), MemoryPolicy.SPARSE)
    with pytest.raises(ValueError):
        mem.commit_store()


def test_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        MemoryConfig(epsilon=float("nan"))
    with pytest.raises(ValueError):
        MemoryConfig(m_max=0)
    with pytest.raises(ValueError):
        MemoryConfig(alpha=1.5)
    with pytest.raises(ValueError, match="delay_overlap_threshold must be in"):
        MemoryConfig(delay_overlap_threshold=1.5)
