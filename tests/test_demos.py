"""Smoke test: the fast demos run to completion against the current package.

Demos 01, 02 and 04 each take well under a second. Demos 03 (about 11 s) and
05 (about 5.5 s) are left out to keep the suite's wall time down; they run
the same Monte Carlo paths that ``test_analysis`` and ``test_acceptance``
cover.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["01_teleportation_basics.py", "02_honest_protocol_run.py", "04_swap_attack_timing.py"]
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
