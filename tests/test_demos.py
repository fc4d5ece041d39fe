"""Every demo runs to completion against this mbethe."""

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS  # an empty parameter list would skip test_demo_runs silently


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, run_script):
    done = run_script(demo.read_text())
    assert done.returncode == 0, done.stderr
