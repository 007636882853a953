"""The benchmark's self-test passes against this checkout.

``perfbench/test_tracer.py`` pins exact counts of the program's work
(calls, query sizes, files read and written), so a program change that
moves one of them without the matching benchmark change fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
