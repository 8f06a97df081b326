"""Smoke test: the scripts under ``scripts/`` run on the current APIs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("modelcheck_bounds.py", ["--max-domains", "1", "--max-assets", "1", "--depth", "1"]),
        ("liveness_sweep.py", ["--requests", "20", "--seeds", "1"]),
    ],
)
def test_script_runs(script, args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
