import argparse
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import monoplane
from monoplane.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
SRC = Path(monoplane.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def artifact_hashes():
    spec = importlib.util.spec_from_file_location(
        "artifact_hashes", REPO / "scripts" / "artifact_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def epoch_ab(parent_src, change_src):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "epoch_ab.py"),
         str(parent_src), str(change_src), "--rounds", "2", "--problem", "parity2"],
        capture_output=True, text=True)


def test_epoch_ab_on_one_tree_finds_no_difference():
    """The same tree on both sides: one row of timings, exit 0."""
    run = epoch_ab(SRC, SRC)
    assert run.returncode == 0, run.stdout + run.stderr
    rows = run.stdout.splitlines()
    assert len(rows) == 2 and rows[1].split()[:2] == ["parity2", "9206"]
    assert rows[1].endswith("/2")


def test_epoch_ab_exits_1_when_the_weights_differ(tmp_path):
    """A copy of the tree whose anneal returns -w is reported, exit 1."""
    shutil.copytree(SRC / "monoplane", tmp_path / "monoplane",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "monoplane" / "perceptron.py", "a") as fh:
        fh.write("\n_anneal = minimerror_train\n\n\n"
                 "def minimerror_train(patterns, config):\n"
                 "    w, trace = _anneal(patterns, config)\n"
                 "    return WeightVector(-w.w), trace\n")
    run = epoch_ab(SRC, tmp_path)
    assert run.returncode == 1
    assert "parity2: round 0: the trees differ in w" in run.stdout


def test_artifact_hashes_compare_names_every_difference(artifact_hashes,
                                                        tmp_path, capsys):
    """compare exits 0 on equal files; a differing key, and a key in one
    file only, are each named, and it exits 1."""
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps({"a/exit": "0", "b/stdout": "1", "c/exit": "2"}))
    change.write_text(json.dumps({"a/exit": "0", "b/stdout": "1", "c/exit": "2"}))
    assert artifact_hashes.compare(parent, change) == 0
    assert capsys.readouterr().out == "0 of 3 items differ\n"
    change.write_text(json.dumps({"a/exit": "0", "b/stdout": "9", "d/exit": "3"}))
    assert artifact_hashes.compare(parent, change) == 1
    assert capsys.readouterr().out == (
        "b/stdout: differs\n"
        f"c/exit: only in {parent}\n"
        f"d/exit: only in {change}\n"
        "3 of 4 items differ\n")


def test_artifact_hashes_run_names_are_unique(artifact_hashes):
    """Each run's items are keyed by its name, so no two runs share one."""
    names = [name for name, _ in artifact_hashes.run_matrix()]
    assert len(set(names)) == len(names)


def test_artifact_hashes_pass_every_cli_option(artifact_hashes):
    """Every option of every subcommand appears in at least one run of the
    matrix, so the hashes pin each option's behaviour."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    runs = artifact_hashes.run_matrix()
    missing = [(command, option)
               for command, parser in subparsers.choices.items()
               for action in parser._actions if action.option_strings
               and not isinstance(action, argparse._HelpAction)
               for option in action.option_strings
               if not any(argv[0] == command and option in argv
                          for _, argv in runs)]
    assert missing == []


def test_artifact_hashes_any_range_run_succeeds(artifact_hashes, tmp_path,
                                                monkeypatch):
    """The matrix's successful --any-range run exits 0 and its manifest
    records ``"any_range": true``, so the option's success path is hashed."""
    name = "train-random-labels-any-range"
    argv = dict(artifact_hashes.run_matrix())[name]
    artifact_hashes.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert json.loads((tmp_path / name / "manifest.json").read_text())["any_range"] is True


@pytest.mark.parametrize("name, message", [
    ("train-config-diverged", "non-finite state at epoch 1"),
    ("train-config-dir", "bad --config: dir.cfg: Is a directory"),
], ids=["diverged", "config-dir"])
def test_artifact_hashes_failing_train_runs(artifact_hashes, tmp_path,
                                            monkeypatch, capsys, name, message):
    """The matrix hashes a diverged anneal and a directory given as
    --config: each exits 2 with its one-line error and writes nothing."""
    argv = dict(artifact_hashes.run_matrix())[name]
    artifact_hashes.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / name).exists()


def test_perfbench_verify_sweep_reads_the_report(tmp_path, monkeypatch):
    """The benchmark's verify-sweep check passes on this tree: its first
    operation matches the bundled split's reference report and the next two
    random splits' W_Sonar counts, so a change to the report's shape that
    the benchmark reads fails here and not only in a benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)

    class Clock:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.seconds = 0.0
    sweep = workloads.VerifySweep(REPO, 1, tmp_path)
    for index in range(3):
        res = sweep.op("verify", index, Clock())
        assert (res.reached, res.failure) == (True, None)
