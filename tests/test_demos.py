"""The demo scripts run to completion against the public API.

Each script runs in a fresh interpreter with its working directory and
``TMPDIR`` inside ``tmp_path``; the scripts ``mkdtemp`` their output
directories and keep them, so ``TMPDIR`` keeps those inside ``tmp_path`` too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagonal_gibbs

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the directory the package was imported from, for the child's import path
PACKAGE_ROOT = str(Path(diagonal_gibbs.__file__).resolve().parents[1])


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
