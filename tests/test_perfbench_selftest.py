"""The benchmark harness's own self-test, run as a tier-1 test.

perfbench/ drives the library through its public functions and traces some
of them by name, so a signature change that breaks the harness fails here.
It takes about 30 s.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout
