"""Every demo runs to completion from a copy, and demo 03 writes the SVGs
committed under ``demos/out``."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path, capsys):
    shutil.copy(DEMOS / script, tmp_path / script)
    runpy.run_path(str(tmp_path / script), run_name="__main__")
    assert capsys.readouterr().out
    written = {p.name: p.read_bytes() for p in tmp_path.glob("out/*.svg")}
    if script.startswith("03_"):
        committed = {p.name: p.read_bytes() for p in DEMOS.glob("out/*.svg")}
        assert sorted(written) == ["five_crossings.svg", "rhombus.svg"]
        assert written == committed
    else:
        assert written == {}
