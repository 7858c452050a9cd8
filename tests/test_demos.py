"""The quick demos run to completion as scripts, on the bundled data, and
print what is pinned."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


def run_demo(name, monkeypatch, capsys):
    """The stdout of demo ``name`` run as a script on the bundled data."""
    monkeypatch.setattr(sys, "argv", [name])
    try:
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ["01_annealed_perceptron.py",
                                  "02_constructive_growth.py",
                                  "03_sonar_separability.py",
                                  "04_published_tables.py"])
def test_demo_exits_0(name, monkeypatch, capsys):
    """Each demo exits 0 and prints its story byte for byte as pinned in
    ``data/<demo>.out``."""
    pinned = Path(__file__).parent / "data" / f"{Path(name).stem}.out"
    assert run_demo(name, monkeypatch, capsys) == pinned.read_text()

