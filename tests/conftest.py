"""Shared fixtures."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mbethe


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail any test after which a multiprocessing child is still alive:
    every sum that forks must join its children before it returns."""
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.terminate()
        child.join()
    if alive:
        pytest.fail(f"multiprocessing children left running: {alive}")


@pytest.fixture
def run_script(tmp_path):
    """Run source text as a script in a fresh interpreter that imports this
    mbethe, and return the finished process.

    The timeout turns a hung child process into a failure instead of a hang.
    """
    def run(source: str, timeout: float = 120):
        script = tmp_path / "script.py"
        script.write_text(source)
        src = str(Path(mbethe.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [x for x in env.get("PYTHONPATH", "").split(os.pathsep) if x])
        return subprocess.run([sys.executable, str(script)], env=env,
                              timeout=timeout, capture_output=True, text=True)
    return run
