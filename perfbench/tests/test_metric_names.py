"""Metric names do not depend on the seed, and the benchmark refuses to
run without the program.

These run the benchmark itself with one-second runs (about two minutes
in all).  Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, root: Path = ROOT
        ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def result(workload: str, seed: int, trace: int) -> dict:
    done = run(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_two_seeds_give_the_same_end_to_end_names(workload):
    first, second = result(workload, 1, 0), result(workload, 2, 0)
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(first["metrics"]) == set(second["metrics"]) == names
    assert first["correct"] and second["correct"]
    assert all(m["value"] > 0 for m in first["metrics"].values())


def test_two_seeds_give_the_same_per_layer_names():
    first, second = result("solve-mix", 1, 1), result("solve-mix", 2, 1)
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == set(second["metrics"]) == names


def test_layer_document_covers_every_per_layer_metric():
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    assert list(layers["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("solve-mix", 1, 0, root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
