"""Memory semantics: accumulation, commit timing, selection, fusion, eviction."""

import tracemalloc

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
    assert mem.memory_term is None


def test_policy_and_memory_term_are_read_only():
    # observe reads flags set from the policy at construction, so neither
    # the policy nor the term fused_query adds may be reassigned after it.
    mem = TrackMemory(MemoryConfig(), MemoryPolicy.NONE)
    with pytest.raises(AttributeError):
        mem.policy = MemoryPolicy.DENSE
    with pytest.raises(AttributeError):
        mem.memory_term = _emb(4, 1.0)
    assert mem.policy is MemoryPolicy.NONE


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


def _ring_rows(rng, dim, n):
    """Rows that stress a sum's order: -0.0 entries, a row followed by its
    negation (exact cancellation), and rows scaled by 1e-150 or 1e150."""
    rows = []
    while len(rows) < n:
        e = rng.standard_normal(dim) * rng.choice([1e-150, 1.0, 1e150])
        e[rng.random(dim) < 0.2] = -0.0
        rows.append(e)
        if rng.random() < 0.25:
            rows.append(-e)
    return rows[:n]


@pytest.mark.parametrize("dim", [1, 2, 16, 33, 128])
@pytest.mark.parametrize("m_max", [1, 3, 8, 10, 12])
def test_memory_term_equals_the_left_fold_of_sum_exactly(dim, m_max):
    """The ring's sum must keep Python ``sum``'s left fold from int 0, bit
    for bit, through commits and evictions; numpy's pairwise reduction,
    which it uses from 8 rows down a contiguous axis, does not."""
    rng = np.random.default_rng(1000 * dim + m_max)
    cfg = MemoryConfig(m_max=m_max, alpha=0.3)
    mem = TrackMemory(cfg, MemoryPolicy.DENSE)
    for frame, e in enumerate(_ring_rows(rng, dim, 3 * m_max + 40)):
        assert mem.observe(_box(0.5, 0.5), e, 0.0, frame)
        want = ((1.0 - cfg.alpha) / len(mem.entries)) * sum(
            entry.embedding for entry in mem.entries
        )
        assert mem.memory_term.tobytes() == want.tobytes()
    assert len(mem.entries) == m_max


def _memory_term_of_sum(mem, cfg):
    """``((1 - alpha) / m) * sum(entries)``, None with no entries."""
    if not mem.entries:
        return None
    return ((1.0 - cfg.alpha) / len(mem.entries)) * sum(entry.embedding for entry in mem.entries)


@given(
    st.sampled_from(list(MemoryPolicy)),
    st.sampled_from([1, 2, 3, 10]),
    st.sampled_from([1, 16, 33]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32),
    # Per frame: a step along x, an overlap, and whether to commit directly.
    st.lists(st.tuples(st.sampled_from([0.0, 0.03, 0.2]), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                       st.booleans()), min_size=1, max_size=40),
)
@settings(max_examples=120, deadline=None)
def test_memory_term_is_the_term_of_sum_through_every_commit(policy, m_max, dim, alpha, seed,
                                                            frames):
    """Whatever commits a memory makes, by its policy, through eviction or
    by a direct ``commit_store``, its term has the bits of ``sum``'s."""
    cfg = MemoryConfig(epsilon=0.1, m_max=m_max, alpha=alpha)
    mem = TrackMemory(cfg, policy)
    rows = _ring_rows(np.random.default_rng(seed), dim, len(frames))
    x, stored = 0.1, 0
    for frame, ((dx, overlap, direct), e) in enumerate(zip(frames, rows)):
        x += dx
        committed = mem.observe(_box(x, 0.5), e, overlap, frame)
        # A candidate is pending after any observation that stored nothing.
        if direct and policy is not MemoryPolicy.NONE and not committed:
            mem.commit_store()
            committed = True
        stored += committed
        want = _memory_term_of_sum(mem, cfg)
        if want is None:
            assert mem.memory_term is None
        else:
            assert mem.memory_term.tobytes() == want.tobytes()
    assert len(mem.entries) == min(stored, m_max)
    if policy is MemoryPolicy.NONE:
        assert stored == 0 and mem.memory_term is None


def test_a_full_dense_memory_commits_without_refolding():
    """Once the ring is full, a commit allocates its entry and its term,
    not a new ring or a refold of the rows: below ``m_max * D * 8`` bytes."""
    m_max, dim = 10, 64
    mem = TrackMemory(MemoryConfig(m_max=m_max), MemoryPolicy.DENSE)
    rows = np.random.default_rng(5).standard_normal((3 * m_max, dim))
    for frame, e in enumerate(rows[:m_max]):
        mem.observe(_box(0.5, 0.5), e, 0.0, frame)
    tracemalloc.start()
    try:
        for frame, e in enumerate(rows[m_max:], start=m_max):
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert mem.observe(_box(0.5, 0.5), e, 0.0, frame)
            assert tracemalloc.get_traced_memory()[1] - held < m_max * dim * 8
    finally:
        tracemalloc.stop()
    assert len(mem.entries) == m_max


@pytest.mark.parametrize("m_max", [16, 17, 40, 100])
def test_memory_term_holds_while_the_folds_grow(m_max):
    """The folds have room for 16 rows at the first commit and double while
    the ring fills; the term keeps ``sum``'s bits through every growth and
    the evictions after it."""
    cfg = MemoryConfig(m_max=m_max, alpha=0.3)
    mem = TrackMemory(cfg, MemoryPolicy.DENSE)
    for frame, e in enumerate(_ring_rows(np.random.default_rng(m_max), 3, 2 * m_max + 5)):
        assert mem.observe(_box(0.5, 0.5), e, 0.0, frame)
        assert mem.memory_term.tobytes() == _memory_term_of_sum(mem, cfg).tobytes()
    assert len(mem.entries) == m_max


def test_a_large_capacity_costs_nothing_until_its_entries_come():
    """A memory of capacity 10**6 holds room for 16 rows, not 10**6."""
    tracemalloc.start()
    try:
        mem = TrackMemory(MemoryConfig(m_max=10**6), MemoryPolicy.DENSE)
        for frame in range(3):
            mem.observe(_box(0.5, 0.5), np.ones(16), 0.0, frame)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mem.entries) == 3 and held < 64 * 16 * 8


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
