"""The benchmark's own test.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

It runs every workload at `--size tiny`, so it takes about a minute.  The
file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(Path(__file__).resolve().parent))
from layers import DETERMINISTIC  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int, seed: int = 7):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@lru_cache(maxsize=None)
def _result(workload: str, trace: int, attempt: int = 0) -> dict:
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_end_to_end_metric(workload):
    result = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_for_one_seed(workload):
    first, second = _result(workload, 1, 0), _result(workload, 1, 1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        name = m["name"]
        assert first["metrics"][name]["unit"] == m["unit"]
        if name in DETERMINISTIC:
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["hartogs.potential_evals"]["value"] > 0


def test_numeric_workload_makes_no_jet_calls():
    metrics = _result("numeric-l2", 1, 0)["metrics"]
    for name, entry in metrics.items():
        if name.startswith("jets."):
            assert entry["value"] == 0, name
    assert metrics["numerics.det_jet_calls"]["value"] == 0


def test_jet_workloads_exercise_the_layers_they_target():
    tg = _result("tg-slices", 1, 0)["metrics"]
    geo = _result("geodesics", 1, 0)["metrics"]
    assert tg["metric.tg_residual_calls"]["value"] > 0
    assert tg["numerics.det_jet_calls"]["value"] > 0
    assert geo["metric.tg_residual_calls"]["value"] == 0
    assert geo["metric.accepted_steps"]["value"] > 0
    assert geo["l2embed.embed_calls"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
