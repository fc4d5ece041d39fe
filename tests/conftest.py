"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mbethe


@pytest.fixture
def run_script(tmp_path):
    """Run source text as a script in a fresh interpreter that imports this
    mbethe, and return the finished process.

    The timeout turns a hung process pool into a failure instead of a hang.
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
