"""The benchmark harness still runs against the current sources."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """weylbench/selftest.py runs the timed and traced paths on tiny inputs;
    the tracer rebinds names in weylred modules, so a renamed or bypassed
    function fails here."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "weylbench" / "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
