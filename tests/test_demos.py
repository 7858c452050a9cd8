"""The quick demos run to completion as scripts, on the bundled data, and
print what is pinned."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


_STDOUT = {}


def run_demo(name, monkeypatch, capsys):
    """The stdout of demo ``name`` run as a script on the bundled data; a demo
    that has already run in this session is not run again."""
    if name in _STDOUT:
        return _STDOUT[name]
    monkeypatch.setattr(sys, "argv", [name])
    try:
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    _STDOUT[name] = capsys.readouterr().out
    return _STDOUT[name]


@pytest.mark.parametrize("name", ["01_annealed_perceptron.py",
                                  "02_constructive_growth.py",
                                  "03_sonar_separability.py",
                                  "04_published_tables.py"])
def test_demo_exits_0(name, monkeypatch, capsys):
    """Each demo exits 0 and prints its story byte for byte as pinned in
    ``data/<demo>.out``."""
    pinned = Path(__file__).parent / "data" / f"{Path(name).stem}.out"
    assert run_demo(name, monkeypatch, capsys) == pinned.read_text()


def test_published_tables_demo_output_is_pinned(monkeypatch, capsys):
    """Demo 04 prints the verification story byte for byte as pinned in
    ``data/04_published_tables.out``."""
    pinned = Path(__file__).parent / "data" / "04_published_tables.out"
    assert run_demo("04_published_tables.py", monkeypatch, capsys) == pinned.read_text()
