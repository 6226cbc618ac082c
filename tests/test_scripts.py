"""Each experiment script runs to completion on a small side.

The scripts are not part of the package, so nothing else imports them; this
runs each one as a user would, in its own process with the package on
``PYTHONPATH``, writing only into a temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), "--side", "16"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
