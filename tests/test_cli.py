"""End-to-end checks of the command line interface via ``main(argv)``."""

import codecs
import hashlib
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sasmot.cli import (
    RunConfig,
    apply_flat_config,
    build_parser,
    main,
    parse_flat_config,
    _resolve_run,
)
from sasmot.experiments import mean, paired_sign_test, render_table_csv, render_table_markdown
from sasmot.memory import MemoryPolicy
from test_tracker import NORM_INF_ROW

ROOT = Path(__file__).resolve().parents[1]


def _read_all(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _simulate(out_dir: Path, **flags) -> None:
    argv = ["simulate", "--out", str(out_dir)]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0


def test_simulate_writes_three_files(tmp_path, capsys):
    _simulate(tmp_path / "run", n_objects=3, n_frames=10, seed=4)
    out = capsys.readouterr().out
    names = {p.name for p in (tmp_path / "run").iterdir()}
    assert names == {"gt.txt", "det.txt", "embeddings.csv"}
    assert out.count("wrote ") == 3


def test_simulate_is_byte_deterministic(tmp_path):
    _simulate(tmp_path / "a", n_objects=3, n_frames=20, seed=7)
    _simulate(tmp_path / "b", n_objects=3, n_frames=20, seed=7)
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")


def test_simulate_seed_changes_output(tmp_path):
    _simulate(tmp_path / "a", n_objects=3, n_frames=20, seed=7)
    _simulate(tmp_path / "b", n_objects=3, n_frames=20, seed=8)
    assert _read_all(tmp_path / "a") != _read_all(tmp_path / "b")


def test_simulate_image_size_header(tmp_path):
    _simulate(tmp_path / "run", n_objects=2, n_frames=5, seed=1, image_size="100x100")
    text = (tmp_path / "run" / "gt.txt").read_text()
    assert text.startswith("# image_size=100x100\n")


def test_track_then_eval_pipeline(tmp_path, capsys):
    run = tmp_path / "run"
    _simulate(run, n_objects=3, n_frames=40, seed=3)
    assert main([
        "track",
        "--det", str(run / "det.txt"),
        "--emb", str(run / "embeddings.csv"),
        "--out", str(run / "pred.txt"),
        "--policy", "sparse+ofs",
    ]) == 0
    assert (run / "pred.txt").exists()

    capsys.readouterr()
    assert main([
        "eval",
        "--gt", str(run / "gt.txt"),
        "--pred", str(run / "pred.txt"),
        "--out", str(run / "report.csv"),
    ]) == 0
    out = capsys.readouterr().out
    assert "HOTA" in out
    header, values = (run / "report.csv").read_text().splitlines()
    assert header == "hota,deta,assa,mota,idf1,idsw"
    assert len(values.split(",")) == 6


def test_eval_scores_the_pred_file_that_track_writes_with_empty_frames(tmp_path, capsys):
    # One object over frames 1-10, detected above min_score only at frames 1
    # and 10: pred.txt has two rows, so its last frame is five times its row
    # count, and frames 2-9 are empty, as the format allows.
    run = tmp_path / "run"
    run.mkdir()
    boxes = [f"{10 + f},10,20,20" for f in range(1, 11)]
    scores = [0.9] + [0.1] * 8 + [0.9]
    (run / "det.txt").write_text("# image_size=100x100\n" + "".join(
        f"{f},-1,{box},{score},-1,-1,-1\n" for f, (box, score) in enumerate(zip(boxes, scores), 1)))
    (run / "embeddings.csv").write_text("".join(f"{f},0,0.6,0.8\n" for f in range(1, 11)))
    (run / "gt.txt").write_text("# image_size=100x100\n" + "".join(
        f"{f},1,{box},1,-1,-1,-1\n" for f, box in enumerate(boxes, 1)))
    assert _track(run) == 0, capsys.readouterr().err
    pred_rows = (run / "pred.txt").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in pred_rows] == ["1", "10"]
    assert main(["eval", "--gt", str(run / "gt.txt"), "--pred", str(run / "pred.txt"),
                 "--out", str(run / "report.csv")]) == 0, capsys.readouterr().err
    # Two exact matches of ten gt rows, one id throughout: DetA = AssA =
    # MOTA = 2/10, HOTA = sqrt(0.2 * 0.2), IDF1 = 4/12.
    assert (run / "report.csv").read_text() == (
        "hota,deta,assa,mota,idf1,idsw\n0.200000,0.200000,0.200000,0.200000,0.333333,0\n"
    )


def test_eval_of_ground_truth_against_itself_is_perfect(tmp_path):
    run = tmp_path / "run"
    _simulate(run, n_objects=3, n_frames=15, seed=5)
    assert main([
        "eval",
        "--gt", str(run / "gt.txt"),
        "--pred", str(run / "gt.txt"),
        "--out", str(run / "report.csv"),
    ]) == 0
    assert (run / "report.csv").read_text() == (
        "hota,deta,assa,mota,idf1,idsw\n1.000000,1.000000,1.000000,1.000000,1.000000,0\n"
    )


def test_track_is_byte_deterministic(tmp_path):
    run = tmp_path / "run"
    _simulate(run, n_objects=4, n_frames=30, seed=11)
    for name in ("p1.txt", "p2.txt"):
        assert main([
            "track",
            "--det", str(run / "det.txt"),
            "--emb", str(run / "embeddings.csv"),
            "--out", str(run / name),
        ]) == 0
    assert (run / "p1.txt").read_bytes() == (run / "p2.txt").read_bytes()


def test_missing_input_file_exits_nonzero(tmp_path, capsys):
    code = main([
        "track",
        "--det", str(tmp_path / "absent.txt"),
        "--emb", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "out.txt"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_error_names_the_bad_file(tmp_path, capsys):
    run = tmp_path / "run"
    _simulate(run, n_objects=3, n_frames=10, seed=5)
    lines = (run / "gt.txt").read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:8])
    bad = tmp_path / "bad_gt.txt"
    bad.write_text("\n".join(lines) + "\n")
    code = main([
        "eval", "--gt", str(bad), "--pred", str(run / "gt.txt"),
        "--out", str(run / "report.csv"),
    ])
    assert code == 1
    assert f"error: {bad}: line 3: expected 9 or 10 fields, got 8" in capsys.readouterr().err


def test_eval_rejects_an_id_repeated_within_a_frame(tmp_path, capsys):
    # A repeated id would be counted twice against one gt box (IDF1 > 1).
    row = "1,1,10,10,20,20,1,-1,-1,-1\n"
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    gt.write_text("# image_size=100x100\n" + row)
    pred.write_text("# image_size=100x100\n" + row + row)
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 1
    captured = capsys.readouterr()
    assert "error: pred frame 1: id 1 appears twice" in captured.err
    assert captured.out == ""


def test_eval_names_the_side_and_frame_of_a_non_positive_id(tmp_path, capsys):
    # Detection rows carry id -1, so passing det.txt as --pred must fail loudly.
    gt, pred = tmp_path / "gt.txt", tmp_path / "det.txt"
    gt.write_text("# image_size=100x100\n1,1,10,10,20,20,1,-1,-1,-1\n")
    pred.write_text("# image_size=100x100\n2,-1,10,10,20,20,0.9,-1,-1,-1\n")
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 1
    assert "error: pred frame 2: ids must be positive, got -1" in capsys.readouterr().err


def _track(run: Path) -> int:
    return main([
        "track",
        "--det", str(run / "det.txt"),
        "--emb", str(run / "embeddings.csv"),
        "--out", str(run / "pred.txt"),
    ])


def test_track_reads_embedding_size_from_sidecar(tmp_path):
    run = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario.embedding_dim = 32\n")
    _simulate(run, n_objects=3, n_frames=20, seed=2, config=cfg)
    assert len((run / "embeddings.csv").read_text().splitlines()[0].split(",")) == 2 + 32
    assert _track(run) == 0
    assert (run / "pred.txt").read_text().count("\n") > 1


def test_track_rejects_zero_norm_sidecar_row_with_its_line(tmp_path, capsys):
    run = tmp_path / "run"
    _simulate(run, n_objects=3, n_frames=10, seed=2)
    lines = (run / "embeddings.csv").read_text().splitlines()
    frame, det_index, *values = lines[4].split(",")
    lines[4] = ",".join([frame, det_index] + ["0"] * len(values))
    (run / "embeddings.csv").write_text("\n".join(lines) + "\n")
    assert _track(run) == 1
    assert "embeddings.csv: line 5: zero-norm embedding" in capsys.readouterr().err


def test_track_names_the_sidecar_line_whose_norm_overflows(tmp_path, capsys):
    # Each row passes a finiteness check, but its norm overflows: the distance
    # would be inf/inf and the solver would stop on an unnamed NaN. The second
    # row's norm is inf where np.vdot's sum stops short of it; accepted, its
    # distance to itself would be 1.0.
    run = tmp_path / "run"
    run.mkdir()
    (run / "det.txt").write_text(
        "# image_size=100x100\n1,-1,10,10,20,20,0.9,-1,-1,-1\n2,-1,11,10,20,20,0.9,-1,-1,-1\n"
    )
    for values in ("1e300,-1e300", ",".join(map(repr, NORM_INF_ROW))):
        (run / "embeddings.csv").write_text(f"1,0,{values}\n2,0,{values}\n")
        assert _track(run) == 1
        err = capsys.readouterr().err
        assert f"{run / 'embeddings.csv'}: line 1: embedding squared norm overflows to inf" in err


def test_track_rejects_sidecar_row_without_detection(tmp_path, capsys):
    run = tmp_path / "run"
    _simulate(run, n_objects=3, n_frames=10, seed=2)
    first = (run / "embeddings.csv").read_text().splitlines()[0]
    with open(run / "embeddings.csv", "a") as fh:
        fh.write("999,0," + first.split(",", 2)[2] + "\n")
    assert _track(run) == 1
    assert "frame 999 detection 0 matches no detection" in capsys.readouterr().err


# Hand-written inputs of track, eval and simulate --config, as bytes.
_HAND = {
    "det.txt": (b"# image_size=100x100\n1,-1,10,10,20,20,0.9,-1,-1,-1\n"
                b"2,-1,11,10,20,20,0.9,-1,-1,-1\n"),
    "embeddings.csv": b"1,0,0.6,0.8\n2,0,0.8,0.6\n",
    "gt.txt": b"# image_size=100x100\n1,1,10,10,20,20,1,-1,-1,-1\n2,1,11,10,20,20,1,-1,-1,-1\n",
    "run.cfg": b"seed = 3\nscenario.n_frames = 5\n",
}


def _hand_run(directory: Path, files: dict) -> Path:
    """A run directory of the hand-written inputs, ``files`` replacing some,
    with an empty ``out`` directory for the outputs."""
    (directory / "out").mkdir(parents=True)
    for name, data in {**_HAND, **files}.items():
        (directory / name).write_bytes(data)
    return directory


def _argv(run: Path, name: str) -> list:
    """The command that reads the input ``name`` of a hand-written run."""
    if name == "run.cfg":
        return ["simulate", "--config", str(run / name), "--out", str(run / "out")]
    if name == "gt.txt":
        return ["eval", "--gt", str(run / name), "--pred", str(run / name),
                "--out", str(run / "out" / "report.csv")]
    return ["track", "--det", str(run / "det.txt"), "--emb", str(run / "embeddings.csv"),
            "--out", str(run / "out" / "pred.txt")]


@pytest.mark.parametrize("name, data, line, byte", [
    ("det.txt", _HAND["det.txt"].replace(b",11,", b",1\xff,"), 3, 0xFF),
    ("embeddings.csv", b"1,0,0.6,0.8\n\n2,0,0.8,\xfe0.6\n", 3, 0xFE),
    # After a byte-order mark, which is not a line's text.
    ("gt.txt", codecs.BOM_UTF8 + _HAND["gt.txt"].replace(b"2,1,", b"2,1\xc3,"), 3, 0xC3),
    ("run.cfg", b"seed = 3\n# caf\xe9 au lait\n", 2, 0xE9),
], ids=["det.txt", "embeddings.csv", "gt.txt after a mark", "run.cfg"])
def test_a_byte_that_is_not_utf8_is_named_with_its_file_and_line(tmp_path, capsys, name, data,
                                                                  line, byte):
    run = _hand_run(tmp_path, {name: data})
    assert main(_argv(run, name)) == 1
    message = f"line {line}: byte 0x{byte:02x} is not UTF-8"
    assert capsys.readouterr().err == f"error: {run / name}: {message}\n"


@pytest.mark.parametrize("name", sorted(_HAND))
def test_a_utf8_byte_order_mark_is_not_read_as_text(tmp_path, capsys, name):
    # Windows editors write one; read as text it would turn a MOT header
    # into a data row, and make a key of the config file's first.
    outputs = []
    for mark in (b"", codecs.BOM_UTF8):
        run = _hand_run(tmp_path / f"mark{len(mark)}", {name: mark + _HAND[name]})
        assert main(_argv(run, name)) == 0, capsys.readouterr().err
        outputs.append((capsys.readouterr().out.replace(str(run), "<run>"), _read_all(run / "out")))
    assert outputs[0] == outputs[1]


def test_config_file_errors_name_the_file_and_flag_errors_do_not(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    run = _hand_run(tmp_path, {"run.cfg": b"seed = 3\nbogus line\n"})
    assert main(_argv(run, "run.cfg")) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 2: expected key = value, got 'bogus line'\n"
    )
    cfg.write_bytes(_HAND["run.cfg"])
    assert main([*_argv(run, "run.cfg"), "--n-objects", "0"]) == 1
    assert capsys.readouterr().err == "error: n_objects must be >= 1, got 0\n"


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_knob = 3\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_missing_output_dir_exits_nonzero(tmp_path, capsys):
    assert main(["simulate"]) == 1
    assert "output directory" in capsys.readouterr().err
    # Without --out, the config file's output_dir is used.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output_dir = {tmp_path / 'run'}\nscenario.n_frames = 5\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "det.txt", "embeddings.csv", "gt.txt",
    ]
    # With --out, the flag replaces the file's output_dir.
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flag", "run", "run.cfg"]


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "policy = dense\nmemory.epsilon = 0.3\nscenario.n_objects = 5\nseed = 2\n"
    )
    args = build_parser().parse_args([
        "ablate", "--config", str(cfg), "--epsilon", "0.05", "--seed", "9",
    ])
    run = _resolve_run(args)
    assert run.policy is MemoryPolicy.DENSE
    assert run.tracker.memory.epsilon == 0.05
    assert run.scenario.n_objects == 5
    assert run.scenario.seed == 9


def test_flag_replaces_a_file_value_before_it_is_checked(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario.n_objects = 0\n")
    argv = ["simulate", "--config", str(cfg), "--n-frames", "5", "--out", str(tmp_path / "d")]
    assert main(argv + ["--n-objects", "3"]) == 0
    # A file value that no flag replaces is still checked.
    cfg.write_text("scenario.n_objects = 0\nmemory.epsilon = -1\n")
    assert main(argv + ["--n-objects", "3"]) == 1
    assert "error: epsilon must be >= 0, got -1.0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "ablate"])
def test_empty_out_flag_is_the_empty_output_dir_key(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--out", "", "--n-frames", "5"]) == 1
    assert "error: output_dir: empty path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_writes_deterministic_tables(tmp_path):
    argv_for = lambda d: [
        "sweep", "--out", str(d),
        "--n-objects", "2", "--n-frames", "25", "--seed", "3", "--n-seeds", "2",
    ]
    assert main(argv_for(tmp_path / "a")) == 0
    assert main(argv_for(tmp_path / "b")) == 0
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    text = (tmp_path / "a" / "sweep.csv").read_text()
    # 5 epsilon rows plus 4 capacity rows under the header.
    assert len(text.strip().splitlines()) == 1 + 9
    assert (tmp_path / "a" / "sweep.md").exists()


def _sign_test_pairs(markdown: str, n: int) -> list:
    """The `<base> -> <treatment> on <metric>` heads of the last n lines,
    each of which must be a complete sign-test line."""
    tail = markdown.rstrip("\n").splitlines()[-n:]
    pattern = r"(.+ -> .+ on \w+): wins \d+/\d+, one-sided sign test p = \S+"
    matches = [re.fullmatch(pattern, line) for line in tail]
    assert all(matches), tail
    return [m.group(1) for m in matches]


def test_ablate_reports_sign_tests(tmp_path, capsys):
    assert main([
        "ablate", "--out", str(tmp_path),
        "--n-objects", "3", "--n-frames", "40", "--seed", "1", "--n-seeds", "2",
    ]) == 0
    md = (tmp_path / "ablation.md").read_text()
    assert "baseline" in md and "+sasm+ofs" in md
    assert _sign_test_pairs(md, 4) == [
        "baseline -> +sasm on assa", "baseline -> +sasm on idf1",
        "+sasm -> +sasm+ofs on assa", "+sasm -> +sasm+ofs on idf1",
    ]
    csv_text = (tmp_path / "ablation.csv").read_text()
    assert csv_text.splitlines()[0].startswith("variant,")
    assert len(csv_text.strip().splitlines()) == 1 + 3
    assert paired_sign_test([0.5, 0.7], [0.5, 0.7]) == (0, 0, 1.0)  # all ties
    with pytest.raises(ValueError, match="equal length"):
        paired_sign_test([0.5], [0.5, 0.7])
    with pytest.raises(ValueError, match="empty"):
        mean([])
    assert render_table_markdown([]) == render_table_csv([]) == ""


def test_design_reports_four_rows(tmp_path):
    assert main([
        "design", "--out", str(tmp_path),
        "--n-objects", "3", "--n-frames", "40", "--seed", "1", "--n-seeds", "2",
    ]) == 0
    csv_text = (tmp_path / "design.csv").read_text()
    rows = csv_text.strip().splitlines()
    assert len(rows) == 1 + 4
    assert {r.split(",")[0] for r in rows[1:]} == {"dense", "sparse", "delaying", "sparse+ofs"}
    assert _sign_test_pairs((tmp_path / "design.md").read_text(), 2) == [
        "dense -> sparse on hota", "delaying -> sparse+ofs on hota",
    ]


def test_bad_policy_flag_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["track", "--det", "x", "--emb", "y", "--out", "z", "--policy", "magic"])
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ablate", "design"])
def test_fixed_row_tables_reject_policy_flag(tmp_path, capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--out", str(tmp_path), "--policy", "none"])
    assert "unrecognized arguments: --policy none" in capsys.readouterr().err


def test_every_config_flag_lands_in_its_field():
    args = build_parser().parse_args([
        "sweep",
        "--seed", "9", "--n-objects", "3", "--n-frames", "40", "--n-seeds", "4",
        "--policy", "dense", "--epsilon", "0.25", "--memory-len", "7", "--alpha", "0.3",
        "--match-threshold", "0.55", "--iou-gate", "0.1", "--min-score", "0.2",
        "--max-misses", "12", "--cost-blend", "0.45", "--out", "runs/x",
    ])
    run = _resolve_run(args)
    memory, tracker = run.tracker.memory, run.tracker
    assert (run.scenario.seed, run.scenario.n_objects, run.scenario.n_frames) == (9, 3, 40)
    assert run.n_seeds == 4
    assert run.policy is MemoryPolicy.DENSE
    assert (memory.epsilon, memory.m_max, memory.alpha) == (0.25, 7, 0.3)
    assert tracker.match_threshold == 0.55
    assert tracker.iou_gate == 0.1
    assert tracker.min_score == 0.2
    assert tracker.max_misses == 12
    assert tracker.cost_blend == 0.45
    assert run.output_dir == Path("runs/x")


def test_simulate_rejects_bad_image_size(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path / "run"), "--image-size", "640by480"])
    assert code == 1
    assert "'640by480'" in capsys.readouterr().err


def _replace_field(path: Path, line_index: int, field_index: int, value: str) -> None:
    lines = path.read_text().splitlines()
    parts = lines[line_index].split(",")
    parts[field_index] = value
    lines[line_index] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def test_track_rejects_non_finite_embedding_with_its_line(tmp_path, capsys):
    run = tmp_path / "run"
    _simulate(run, n_objects=3, n_frames=10, seed=2)
    _replace_field(run / "embeddings.csv", 4, 3, "nan")
    assert _track(run) == 1
    assert f"{run / 'embeddings.csv'}: line 5: non-finite" in capsys.readouterr().err


def test_track_and_eval_reject_non_finite_box_field_with_file_and_line(tmp_path, capsys):
    run = tmp_path / "run"
    _simulate(run, n_objects=3, n_frames=10, seed=2)
    _replace_field(run / "det.txt", 2, 2, "nan")
    assert _track(run) == 1
    assert f"{run / 'det.txt'}: line 3: non-finite field" in capsys.readouterr().err
    _replace_field(run / "gt.txt", 2, 3, "inf")
    assert main(["eval", "--gt", str(run / "gt.txt"), "--pred", str(run / "gt.txt")]) == 1
    assert f"{run / 'gt.txt'}: line 3: non-finite field" in capsys.readouterr().err


def test_track_names_the_detection_with_a_bad_score(tmp_path, capsys):
    run = tmp_path / "run"
    _simulate(run, n_objects=3, n_frames=10, seed=2)
    frame = (run / "det.txt").read_text().splitlines()[1].split(",")[0]
    _replace_field(run / "det.txt", 1, 6, "1.5")
    assert _track(run) == 1
    err = capsys.readouterr().err
    assert f"{run / 'det.txt'}: frame {frame} detection 0: score must be in [0, 1]" in err


def test_nan_match_threshold_in_config_names_the_key(tmp_path, capsys):
    # NaN fails every comparison, so a `< 0` check would let it switch the cost gate off.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tracker.match_threshold = nan\n")
    argv = ["ablate", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--n-objects", "2", "--n-frames", "10", "--n-seeds", "1"]
    assert main(argv) == 1
    assert "match_threshold must be >= 0, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("scenario.size_jitter = 1000", "size_jitter must be at most 75.3542, got 1000.0"),
    ("scenario.noise_sigma = 1e160",
     "noise_sigma must be at most 1.7793e+152 for embedding_dim 16, got 1e+160"),
])
def test_overflowing_scenario_values_exit_before_any_file_is_written(tmp_path, capsys, line,
                                                                       message):
    # A size factor exp(size_jitter * g) or a noisy embedding's squared norm
    # that could overflow is a config error, not a traceback or a sidecar
    # of zero embeddings that `track` refuses.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\nscenario.n_frames = 40\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["n_seeds", "seed"])
def test_bad_integer_in_config_names_the_key(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = abc\n")
    assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {key}: invalid literal" in capsys.readouterr().err


def test_parse_flat_config():
    text = """
# a comment
policy = sparse+ofs
memory.epsilon = 0.2   # trailing comment
scenario.n_objects = 4
n_seeds = 3
output_dir = runs/#1	# a '#' inside a value is kept
"""
    items = parse_flat_config(text)
    assert items["policy"] == "sparse+ofs"
    assert items["memory.epsilon"] == "0.2"
    assert items["output_dir"] == "runs/#1"
    assert items["scenario.n_objects"] == "4"
    with pytest.raises(ValueError, match="line 2"):
        parse_flat_config("\nnot a key value pair\n")


def test_apply_flat_config_builds_run_config():
    items = {
        "policy": "dense",
        "memory.epsilon": "0.25",
        "memory.m_max": "7",
        "memory.alpha": "0.8",
        "tracker.match_threshold": "0.5",
        "scenario.n_objects": "3",
        "scenario.n_frames": "77",
        "seed": "9",
        "n_seeds": "4",
        "output_dir": "runs/x",
    }
    run = apply_flat_config(RunConfig(), items)
    assert run.policy is MemoryPolicy.DENSE
    assert run.tracker.memory.epsilon == 0.25
    assert run.tracker.memory.m_max == 7
    assert run.tracker.memory.alpha == 0.8
    assert run.tracker.match_threshold == 0.5
    assert run.scenario.n_objects == 3
    assert run.scenario.n_frames == 77
    assert run.scenario.seed == 9
    assert run.n_seeds == 4
    assert str(run.output_dir) == "runs/x"


def test_apply_flat_config_supports_infinity():
    run = apply_flat_config(RunConfig(), {"memory.epsilon": "inf", "memory.alpha": "1"})
    assert math.isinf(run.tracker.memory.epsilon)
    assert run.tracker.memory.alpha == 1.0


def test_apply_flat_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        apply_flat_config(RunConfig(), {"memory.bogus": "1"})
    with pytest.raises(ValueError, match="unknown config key"):
        apply_flat_config(RunConfig(), {"nonsense": "1"})
    with pytest.raises(ValueError, match="policy"):
        apply_flat_config(RunConfig(), {"policy": "magic"})
    # `seed` is the one key for the scenario seed.
    with pytest.raises(ValueError, match="via seed"):
        apply_flat_config(RunConfig(), {"scenario.seed": "7", "seed": "3"})
    with pytest.raises(ValueError, match=r"via memory\.<field>"):
        apply_flat_config(RunConfig(), {"tracker.memory": "0.1"})


def test_apply_flat_config_validates_values():
    with pytest.raises(ValueError):
        apply_flat_config(RunConfig(), {"memory.alpha": "2.0"})
    with pytest.raises(ValueError):
        apply_flat_config(RunConfig(), {"scenario.n_objects": "0"})
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        apply_flat_config(RunConfig(), {"n_seeds": "0"})


def test_config_is_checked_after_the_whole_file_is_read():
    lines = ["scenario.size_min = 0.2", "scenario.size_max = 0.3"]
    forward = apply_flat_config(RunConfig(), parse_flat_config("\n".join(lines)))
    backward = apply_flat_config(RunConfig(), parse_flat_config("\n".join(lines[::-1])))
    assert forward == backward
    assert (forward.scenario.size_min, forward.scenario.size_max) == (0.2, 0.3)
    invalid = ["scenario.size_min = 0.3", "scenario.size_max = 0.2"]
    for text in ("\n".join(invalid), "\n".join(invalid[::-1])):
        with pytest.raises(ValueError, match="need 0 < size_min <= size_max < 1"):
            apply_flat_config(RunConfig(), parse_flat_config(text))


def test_empty_output_dir_in_config_exits_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output_dir =\nscenario.n_frames = 5\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "output_dir:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_table_command_checks_out_dir_before_computing(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("sasmot.cli.ablation_table", lambda *a, **k: calls.append(a))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["ablate", "--out", str(taken)]) == 1
    assert str(taken) in capsys.readouterr().err
    assert calls == []


def _readme_block(section: str, language: str) -> str:
    body = (ROOT / "README.md").read_text().split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.DOTALL).group(1)


def test_readme_command_line_pipeline_runs(tmp_path):
    # The simulate -> track -> eval lines; the 20-seed table lines take minutes.
    block = _readme_block("Command line", "bash").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    pipeline = [
        [arg.replace("runs/demo", str(tmp_path)) for arg in argv[1:]]
        for argv in commands
        if argv and "--n-seeds" not in argv
    ]
    assert [argv[0] for argv in pipeline] == ["simulate", "track", "eval"]
    for argv in pipeline:
        assert main(argv) == 0, argv
    assert (tmp_path / "report.csv").read_text().startswith("hota,deta,assa,mota,idf1,idsw")


def test_readme_config_files_apply():
    # experiment.cfg under "Command line", cell.cfg under "Where the selector helps".
    experiment = apply_flat_config(
        RunConfig(), parse_flat_config(_readme_block("Command line", "ini")))
    assert experiment.policy is MemoryPolicy.SPARSE_OFS
    assert (experiment.scenario.n_objects, experiment.scenario.n_frames) == (8, 500)
    assert (experiment.scenario.seed, experiment.n_seeds) == (1, 20)
    assert experiment.tracker.match_threshold == 0.4
    assert experiment.output_dir == Path("runs/tables")
    cell = apply_flat_config(
        RunConfig(), parse_flat_config(_readme_block("Where the selector helps", "ini")))
    assert (cell.scenario.occlusion_blend, cell.scenario.drift_rate) == (0.6, 3.1416)


def test_readme_library_snippet_runs():
    snippet = _readme_block("Library", "python")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("MetricsReport(")



def test_a_run_loads_no_scipy_module_but_the_compiled_solver(tmp_path):
    # The start-up contract: simulate, track and eval in one fresh
    # interpreter import nothing of scipy but its compiled assignment solver.
    # All of ``scipy.optimize`` would add about 570 modules to every command.
    run = tmp_path / "run"
    code = f"""
import sys
from sasmot.cli import main
run = {str(run)!r}
assert main(["simulate", "--out", run, "--n-objects", "3", "--n-frames", "20"]) == 0
assert main(["track", "--det", run + "/det.txt", "--emb", run + "/embeddings.csv",
             "--out", run + "/pred.txt"]) == 0
assert main(["eval", "--gt", run + "/gt.txt", "--pred", run + "/pred.txt"]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "['scipy.optimize._lsap']"


# The bytes of every CLI output file, recorded before the file writers and
# the sidecar reader were rewritten for speed. An I/O speed-up must keep
# them; a change that means to move them must say so and update them here.
OUTPUT_DIGESTS = {
    16: {
        "gt.txt": "6e888def848e93992df300e19010850bf3a0ee2be5167df7f28234027e92d09f",
        "det.txt": "a5b36c52e5d9c52e42789f48284e92c1a54402d036edfcb71d203a248de2b0e0",
        "embeddings.csv": "0851780cbc402082f06e640be393af43c2005bea5bad9a6061449a2d2f145ac4",
        "pred.txt": "d436b28474c50726209ff10cdf1658b54cb9b3ea7f771ea6581e81cbaf8f1206",
        "report.csv": "6e969bdbb602dfd5817142211215c2fd8f7999501cf9c51f5301f42f1613d93c",
    },
    33: {
        "gt.txt": "885ae6a5c2df39e1ae01d78a9f84e2e18b724698aeb194664b17cd3d3024a1ea",
        "det.txt": "892619973efed6d2eac906a5c73125620d8cbaf163ff567c99f2fa4eb9bbe53b",
        "embeddings.csv": "f4ee9cc53a54be5f10748e4327169c4fe8e7dc160374042f0a799a3f37b43085",
        "pred.txt": "e8e6233cda6615a7bade262c43202cf4de6567240bb587d19a73ba4e532ad669",
        "report.csv": "add55f3f37acf41f3fe44e41575eb750e369a5d986cfdb45a0bed55e14a92d00",
    },
}


@pytest.mark.parametrize("dim", sorted(OUTPUT_DIGESTS))
def test_cli_output_bytes_are_pinned(tmp_path, dim):
    run = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario.embedding_dim = {dim}\n")
    _simulate(run, n_objects=5, n_frames=80, seed=3, config=cfg)
    assert _track(run) == 0
    assert main([
        "eval", "--gt", str(run / "gt.txt"), "--pred", str(run / "pred.txt"),
        "--out", str(run / "report.csv"),
    ]) == 0
    got = {name: hashlib.sha256((run / name).read_bytes()).hexdigest()
           for name in OUTPUT_DIGESTS[dim]}
    assert got == OUTPUT_DIGESTS[dim]
