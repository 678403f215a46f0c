"""The narrative demos that README lists run to the end."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "chords_and_weights.py", "integrate_knot.py", "linking_demo.py", "skein_walkthrough.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
