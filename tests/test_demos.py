"""Every demo script runs to completion as a standalone program."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
SLOW = {"06_density_and_minimum_seeds.py"}  # about 90 s


@pytest.mark.parametrize(
    "script",
    [pytest.param(p, marks=pytest.mark.paper) if p.name in SLOW else p for p in DEMOS],
    ids=[p.stem for p in DEMOS],
)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
