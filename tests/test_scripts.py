import shutil
import subprocess
import sys
from pathlib import Path

import monoplane

REPO = Path(__file__).resolve().parent.parent
SRC = Path(monoplane.__file__).resolve().parent.parent


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
