import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_certification_demo_shows_the_wandering_witness(capsys):
    runpy.run_path(str(DEMO_DIR / "03_multiplicity_certification.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "wandering subspace generates: True" in out
    assert "random generator trials used: 0" in out
