"""Release gate: one test per shipping criterion, each printing a verdict.

Run ``pytest tests/test_acceptance.py -v -s`` to get a ``criterion N (...):
PASS`` line per criterion next to pytest's own report. Oracles are imported
from the per-module suites so the gate and the unit tests check the same
independent reference implementations. The heavyweight 20-seed policy suite
is computed once and shared by the two directional criteria.
"""

import math
import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

from test_memory import ofs_oracle_stream
from test_metrics import hota_oracle, idf1_oracle, random_small_pair

from sasmot.cli import main
from sasmot.experiments import (
    EPSILON_GRID,
    MEMORY_GRID,
    mean,
    paired_sign_test,
    run_policy_suite,
)
from sasmot.geometry import Box2D
from sasmot.memory import MemoryConfig, MemoryPolicy, TrackMemory
from sasmot.metrics import SequencePair, evaluate, hota, idf1
from sasmot.rng import SplitMix64
from sasmot.simulator import ScenarioConfig, generate_scenario
from sasmot.tracker import TrackerConfig, hungarian_assign


@contextmanager
def _verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({label}): FAIL")
        raise
    print(f"\ncriterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def policy_suite():
    """20 rotation-heavy scenarios, all five policies on identical inputs."""
    cfg = ScenarioConfig(
        n_objects=8, n_frames=500, rotation_event_prob=0.01, occlusion_blend=0.6
    )
    seeds = list(range(1, 21))
    t0 = time.perf_counter()
    suite = run_policy_suite(cfg, TrackerConfig(), list(MemoryPolicy), seeds)
    return suite, time.perf_counter() - t0


def test_criterion_1_equations_and_storage_choice_oracle():
    with _verdict(1, "fusion equations and least-overlap storage oracle"):
        t0 = time.perf_counter()

        # Accumulated displacement is the summed center-to-center distance.
        mem = TrackMemory(MemoryConfig(epsilon=math.inf), MemoryPolicy.SPARSE)
        points = [(0.10, 0.20), (0.15, 0.26), (0.40, 0.10), (0.42, 0.12)]
        for frame, (x, y) in enumerate(points):
            mem.observe(x, y, np.array([1.0, 0.0]), 0.0, frame)
        expected = sum(
            math.hypot(x1 - x0, y1 - y0)
            for (x0, y0), (x1, y1) in zip(points, points[1:])
        )
        assert mem.accumulator == pytest.approx(expected, abs=1e-12)

        # Fusion: alpha=1 keeps the current embedding untouched.
        mem = TrackMemory(MemoryConfig(epsilon=0.01, alpha=1.0))
        mem.observe(0.1, 0.5, np.array([1.0, 0.0]), 0.0, 0)
        mem.observe(0.3, 0.5, np.array([0.0, 1.0]), 0.0, 1)
        assert len(mem.entries) == 1
        cur = np.array([0.25, 0.75])
        assert np.array_equal(mem.fused_query(cur), cur)

        # Fusion: empty memory is the identity for any alpha.
        empty = TrackMemory(MemoryConfig())
        assert np.array_equal(empty.fused_query(cur), cur)

        # Fusion: a memory holding exactly the current embedding is a fixed
        # point at alpha=0.5 (both halves are exact binary fractions).
        v = np.array([0.375, -2.0])
        mem = TrackMemory(MemoryConfig(epsilon=0.01, alpha=0.5))
        mem.observe(0.1, 0.5, v, 0.0, 0)
        mem.observe(0.3, 0.5, v, 0.0, 1)
        assert np.array_equal(mem.fused_query(v), v)

        # Fusion: analytic two-entry case at alpha=0.5.
        mem = TrackMemory(MemoryConfig(epsilon=0.01, alpha=0.5))
        mem.observe(0.1, 0.5, np.array([1.0, 0.0]), 0.0, 0)
        mem.observe(0.3, 0.5, np.array([1.0, 0.0]), 0.0, 1)
        mem.observe(0.5, 0.5, np.array([0.0, 1.0]), 0.0, 2)
        assert len(mem.entries) == 2
        fused = mem.fused_query(np.array([2.0, 2.0]))
        assert np.array_equal(fused, np.array([1.25, 1.25]))

        # Every commit stores the least-overlapped frame of its window,
        # checked against a brute-force argmin on 1000 seeded streams.
        for seed in range(1000):
            ofs_oracle_stream(seed)

        assert time.perf_counter() - t0 < 10.0


def test_criterion_2_accumulation_semantics():
    with _verdict(2, "motion-gated commit semantics"):
        # A stationary object never commits, no matter how long it sits.
        mem = TrackMemory(MemoryConfig(), MemoryPolicy.SPARSE)
        for frame in range(200):
            stored = mem.observe(0.4, 0.6, np.array([1.0, 0.0]), 0.0, frame)
            assert not stored
        assert len(mem.entries) == 0

        # Steps of 0.04 against a 0.1 gate: 0.12 of travel at frame 3.
        mem = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.SPARSE)
        commits = [
            frame
            for frame in range(6)
            if mem.observe(0.1 + 0.04 * frame, 0.5, np.array([1.0, 0.0]), 0.0, frame)
        ]
        assert commits[0] == 3

        # On slow-moving generated scenarios the sparse gate always stores
        # strictly fewer features than frame-by-frame storage.
        cases = [
            (50, 0.05, 11), (50, 0.05, 12), (80, 0.01, 13),
            (120, 0.03, 14), (200, 0.05, 15), (500, 0.012, 16),
        ]
        for n_frames, speed, seed in cases:
            scenario = generate_scenario(
                ScenarioConfig(n_objects=6, n_frames=n_frames, speed=speed, seed=seed)
            )
            for obj in range(6):
                sparse = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.SPARSE)
                dense = TrackMemory(MemoryConfig(epsilon=0.1), MemoryPolicy.DENSE)
                n_sparse = n_dense = 0
                for frame, entries in enumerate(scenario.gt):
                    box = entries[obj][1]
                    emb = scenario.true_appearance[frame][obj]
                    n_sparse += sparse.observe(box.cx, box.cy, emb, 0.0, frame)
                    n_dense += dense.observe(box.cx, box.cy, emb, 0.0, frame)
                assert n_dense == n_frames
                assert n_sparse < n_dense, (n_frames, speed, seed, obj)


def test_criterion_3_assignment_matches_exhaustive_search():
    with _verdict(3, "assignment equals exhaustive permutation optimum"):
        t0 = time.perf_counter()

        def canonical_total(cost, pairs):
            # Row-ordered sequential sum so both sides round identically.
            return sum(float(cost[r, c]) for r, c in sorted(pairs))

        rng = SplitMix64(777)
        for case in range(500):
            rows = 1 + rng.next_u64() % 7
            cols = 1 + rng.next_u64() % 7
            cost = np.array([[rng.uniform() for _ in range(cols)] for _ in range(rows)])
            got = canonical_total(cost, hungarian_assign(cost).tolist())
            if rows <= cols:
                best = min(
                    canonical_total(cost, [(i, p[i]) for i in range(rows)])
                    for p in permutations(range(cols), rows)
                )
            else:
                best = min(
                    canonical_total(cost, [(p[j], j) for j in range(cols)])
                    for p in permutations(range(rows), cols)
                )
            assert got == best, case

        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_metric_oracles():
    with _verdict(4, "metric values against exhaustive oracles"):
        box_a = Box2D(0.25, 0.25, 0.2, 0.2)
        box_b = Box2D(0.75, 0.75, 0.2, 0.2)

        # Perfect tracking scores 1.0 on every metric.
        frames = [[(1, box_a), (2, box_b)] for _ in range(10)]
        perfect = evaluate(SequencePair(gt=[list(f) for f in frames],
                                        pred=[list(f) for f in frames]))
        assert perfect.hota == 1.0 and perfect.deta == 1.0 and perfect.assa == 1.0
        assert perfect.mota == 1.0 and perfect.idf1 == 1.0 and perfect.idsw == 0

        # Two objects, ids replaced at the sequence midpoint.
        gt = [[(1, box_a), (2, box_b)] for _ in range(10)]
        pred = [[(1, box_a), (2, box_b)] for _ in range(5)]
        pred += [[(3, box_a), (4, box_b)] for _ in range(5)]
        swapped = evaluate(SequencePair(gt=gt, pred=pred))
        assert swapped.mota == pytest.approx(0.9, abs=1e-12)
        assert swapped.idf1 == pytest.approx(0.5, abs=1e-12)
        assert swapped.deta == 1.0

        # Association scores equal exhaustive-search oracles on random
        # short sequences with up to 3 ids per side.
        for seed in range(200):
            gt, pred = random_small_pair(seed)
            pair = SequencePair(gt, pred)
            assert idf1(pair) == pytest.approx(idf1_oracle(gt, pred), abs=1e-12), seed
            got = hota(pair)
            want = hota_oracle(gt, pred)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9), seed


def test_criterion_5_ablation_direction(policy_suite):
    with _verdict(5, "memory then selector each lift association scores"):
        suite, elapsed = policy_suite
        for metric in ("assa", "idf1"):
            base = [getattr(r, metric) for r in suite[MemoryPolicy.NONE]]
            sasm = [getattr(r, metric) for r in suite[MemoryPolicy.SPARSE]]
            full = [getattr(r, metric) for r in suite[MemoryPolicy.SPARSE_OFS]]
            assert mean(base) < mean(sasm) < mean(full), metric
            for lo, hi in ((base, sasm), (sasm, full)):
                wins, n, p = paired_sign_test(lo, hi)
                assert p < 0.05, (metric, wins, n, p)
        assert elapsed < 300.0


def test_criterion_6_design_direction(policy_suite):
    with _verdict(6, "sparse beats dense, best-frame choice beats delaying"):
        suite, elapsed = policy_suite
        dense = [r.hota for r in suite[MemoryPolicy.DENSE]]
        sparse = [r.hota for r in suite[MemoryPolicy.SPARSE]]
        delaying = [r.hota for r in suite[MemoryPolicy.DELAYING]]
        ofs = [r.hota for r in suite[MemoryPolicy.SPARSE_OFS]]

        assert mean(sparse) > mean(dense)
        wins, n, p = paired_sign_test(dense, sparse)
        assert p < 0.05, (wins, n, p)

        # The non-strict leg: mean ordering plus a non-losing paired record.
        assert mean(ofs) >= mean(delaying)
        wins, n, _ = paired_sign_test(delaying, ofs)
        assert wins >= n - wins, (wins, n)

        assert elapsed < 300.0


def test_criterion_7_sweep_grid_is_deterministic(tmp_path):
    with _verdict(7, "hyperparameter sweep emits the full grid deterministically"):
        assert EPSILON_GRID == (0.05, 0.1, 0.2, 0.3, 0.4)
        assert MEMORY_GRID == (5, 10, 15, 20)
        argv_for = lambda d: [
            "sweep", "--out", str(d),
            "--n-objects", "3", "--n-frames", "60", "--seed", "1", "--n-seeds", "2",
        ]
        assert main(argv_for(tmp_path / "a")) == 0
        assert main(argv_for(tmp_path / "b")) == 0
        for name in ("sweep.md", "sweep.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        rows = (tmp_path / "a" / "sweep.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == len(EPSILON_GRID) + len(MEMORY_GRID)
        swept = [tuple(r.split(",")[:3]) for r in rows]
        assert [s for s, _, _ in swept] == ["epsilon"] * 5 + ["memory_len"] * 4
        assert [float(e) for s, e, _ in swept if s == "epsilon"] == list(EPSILON_GRID)
        assert [int(m) for s, _, m in swept if s == "memory_len"] == list(MEMORY_GRID)


def test_criterion_8_memoryless_reduction_is_byte_identical(tmp_path):
    with _verdict(8, "alpha=1 with an infinite gate reduces to the no-memory tracker"):
        for seed in range(1, 6):
            run = tmp_path / f"seed{seed}"
            assert main([
                "simulate", "--out", str(run),
                "--n-objects", "4", "--n-frames", "100", "--seed", str(seed),
            ]) == 0
            common = [
                "track", "--det", str(run / "det.txt"), "--emb", str(run / "embeddings.csv"),
            ]
            assert main(common + [
                "--out", str(run / "reduced.txt"),
                "--policy", "sparse+ofs", "--alpha", "1.0", "--epsilon", "inf",
            ]) == 0
            assert main(common + [
                "--out", str(run / "baseline.txt"), "--policy", "none",
            ]) == 0
            reduced = (run / "reduced.txt").read_bytes()
            baseline = (run / "baseline.txt").read_bytes()
            assert reduced == baseline, seed


def test_criterion_9_cli_is_byte_deterministic(tmp_path):
    with _verdict(9, "repeated runs give identical bytes"):
        # simulate twice
        for name in ("s1", "s2"):
            assert main([
                "simulate", "--out", str(tmp_path / name),
                "--n-objects", "4", "--n-frames", "60", "--seed", "9",
            ]) == 0
        for f in ("gt.txt", "det.txt", "embeddings.csv"):
            assert (tmp_path / "s1" / f).read_bytes() == (tmp_path / "s2" / f).read_bytes()

        # track twice, then eval twice
        run = tmp_path / "s1"
        for name in ("p1.txt", "p2.txt"):
            assert main([
                "track", "--det", str(run / "det.txt"),
                "--emb", str(run / "embeddings.csv"), "--out", str(run / name),
            ]) == 0
        assert (run / "p1.txt").read_bytes() == (run / "p2.txt").read_bytes()
        for name in ("r1.csv", "r2.csv"):
            assert main([
                "eval", "--gt", str(run / "gt.txt"), "--pred", str(run / "p1.txt"),
                "--out", str(run / name),
            ]) == 0
        assert (run / "r1.csv").read_bytes() == (run / "r2.csv").read_bytes()

        # The multi-seed tables must not depend on repetition.
        outputs = []
        for directory in ("t1", "t1b"):
            assert main([
                "ablate", "--out", str(tmp_path / directory),
                "--n-objects", "3", "--n-frames", "50", "--seed", "1", "--n-seeds", "3",
            ]) == 0
            outputs.append({
                f: (tmp_path / directory / f).read_bytes()
                for f in ("ablation.md", "ablation.csv")
            })
        assert outputs[0] == outputs[1]
