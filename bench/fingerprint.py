"""Behaviour fingerprint: sha256 digests of what the program writes.

* ``pred/<seed>/<policy>``: the ``pred.txt`` bytes ``write_mot_file``
  writes for the tracker's output on the default scene of seeds 1-3, under
  each of the five policies;
* ``ablation.csv`` and ``design.csv``: the CSV tables ``sasmot ablate`` and
  ``sasmot design`` write for a suite of seeds 1-2;
* ``all``: one digest over every entry above.

A change that keeps every digest keeps the program's observable output
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Dict

import program  # noqa: F401  (the checkout's src/ on sys.path)
from sasmot import experiments, mot_io, simulator
from sasmot.simulator import ScenarioConfig
from workloads import POLICIES

PRED_SEEDS = (1, 2, 3)
TABLE_SEEDS = (1, 2)
IMAGE_SIZE = (1920, 1080)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute(n_frames: int) -> Dict[str, str]:
    """Digests for scenes of ``n_frames`` frames."""
    program.OUT.mkdir(parents=True, exist_ok=True)
    out: Dict[str, str] = {}
    with tempfile.TemporaryDirectory(dir=program.OUT) as workdir:
        _pred_digests(Path(workdir) / "pred.txt", n_frames, out)
    base = ScenarioConfig(n_frames=n_frames)
    for name, build in (("ablation", experiments.ablation_table),
                        ("design", experiments.design_table)):
        table, _ = build(base, None, list(TABLE_SEEDS))
        out[f"{name}.csv"] = _sha((experiments.render_table_csv(table) + "\n").encode())
    out["all"] = _sha(json.dumps(out, sort_keys=True).encode())
    return out


def _pred_digests(path: Path, n_frames: int, out: Dict[str, str]) -> None:
    for seed in PRED_SEEDS:
        scenario = simulator.generate_scenario(ScenarioConfig(n_frames=n_frames, seed=seed))
        for policy in POLICIES:
            results = experiments.track_scenario(scenario, None, policy)
            mot_io.write_mot_file(path, mot_io.results_to_rows(results, IMAGE_SIZE), IMAGE_SIZE)
            out[f"pred/{seed}/{policy.value}"] = _sha(path.read_bytes())
