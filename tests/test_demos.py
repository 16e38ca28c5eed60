"""Every demo script runs to completion and prints its recorded output."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def _without_timings(text):
    """Demo 06 prints its wall time as "(N.NNs)"; that one value may differ."""
    return re.sub(r"\(\d+\.\d\ds\)", "(ELAPSED)", text)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    golden = (GOLDEN / f"{script.stem}.txt").read_text()
    assert _without_timings(capsys.readouterr().out) == _without_timings(golden)


def test_demos_exist():
    assert len(DEMOS) == 6
