"""Every demo runs to completion against the package in ``src``.

Each ``demos/*.py`` runs in its own interpreter, so a renamed or
deleted public name that a demo still uses fails here, and a demo that
leaves an ``mvsweep_*`` entry in its temp directory fails too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    leftovers = sorted(path.name for path in tmp_path.glob("mvsweep_*"))
    assert not leftovers, f"{demo.name} left {leftovers} in its temp directory"
