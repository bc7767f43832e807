"""Seed invariance: two workload seeds rename generators and reorder the
operations, and every pinned exit code, status, coverage count and output
hash still holds.

Run from anywhere:  python3 -m pytest perfbench/test_seeds.py
(about a minute; each run makes one untraced round of a workload).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SEEDS = (1, 2)


def _run(workload: str, seed: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    detail_path = ROOT / ".perfbench_work" / workload / f"result-seed{seed}-trace0.json"
    return result, json.loads(detail_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_two_seeds_keep_every_pin(workload):
    runs = [_run(workload, seed) for seed in SEEDS]
    for result, detail in runs:
        assert result["failed"] == 0, detail["failures"]
        assert result["correct"]
        assert result["attempted"] == len(wl.WORKLOADS[workload])
    (_, first), (_, second) = runs
    assert first["names"] != second["names"]
    assert first["op_order"] != second["op_order"]
    assert sorted(first["op_order"]) == sorted(second["op_order"])


def test_renaming_round_trips():
    names = wl.renaming(7)
    assert sorted(names) == wl.canonical_names()
    assert len(set(names.values())) == len(names)
    text = json.dumps({"w": f"{names['x']}^-1 {names['y']}^2", "tail": f"{names['a1']}~{names['x2']}"})
    assert json.loads(wl.canonical_text(text, names, ".json")) == {"w": "x^-1 y^2", "tail": "a1~x2"}
