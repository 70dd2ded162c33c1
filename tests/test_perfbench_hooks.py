"""The benchmark patches named library entry points (perfbench/tracing.py)
and asserts exact call-count identities between them; its tiny-size
self-test fails when a refactor drops or bypasses one of those hooks."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
