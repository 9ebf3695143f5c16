import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture
def run_fresh(tmp_path):
    """A function that runs the interpreter with its args in a fresh process,
    in tmp_path, importing numrange from src/, and returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*args) -> str:
        proc = subprocess.run([sys.executable, *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
