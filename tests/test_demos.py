"""The quick demos run to completion as scripts, on the bundled data."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_annealed_perceptron.py",
                                  "02_constructive_growth.py",
                                  "03_sonar_separability.py",
                                  "04_published_tables.py"])
def test_demo_exits_0(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name])
    monkeypatch.delenv("MONOPLANE_DATA", raising=False)
    try:
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out
