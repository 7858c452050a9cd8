"""Smoke test of the benchmark at its shortest length (about two minutes).

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced with ``--seconds 1``,
which still runs one whole round. The last output line must carry every
metric BENCHMARK.json names for that mode, each with its declared unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args, results):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args,
         "--results", str(results)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), results=tmp_path / "r.jsonl")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    record = json.loads((tmp_path / "r.jsonl").read_text().splitlines()[-1])
    env = record["environment"]
    for key in ("nproc", "python", "numpy", "blas", "blas_version",
                "blas_threads", "git_commit", "seed", "epochs_per_certification"):
        assert key in env


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "verify-sweep", "--seed", "1",
               "--seconds", "1", "--trace", "0", results=tmp_path / "r.jsonl")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
