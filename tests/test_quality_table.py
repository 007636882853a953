"""Held-out quality table: depth and cloud quality per scene, against floors.

Each row runs ``synth -> depth -> fuse -> eval`` in-process: 7 views at
64x48, photometric features and the passthrough regularizer, ``depth
--num-depths 32``, ``fuse --phi 0.0`` and ``eval --threshold 5.0``, on the
plane and the photometric sphere at scene seeds 200 and 201, which no
other test, benchmark floor or fit uses.  A row reports:

* ``within_one_bin``: the share of ground-truth pixels whose estimated
  depth lies within one depth bin of the truth (the benchmark's
  ``depth_inlier_frac``; a missing estimate counts as a miss);
* ``f_score``: ``eval``'s f-score of the fused cloud;
* ``reach_phi``: the share of ground-truth pixels whose confidence is at
  least ``PHI``, and ``precision_at_phi``, the within-one-bin share among
  them (``None`` when no pixel reaches ``PHI``).

A change that moves quality by design updates ``FLOORS`` in the same
commit and records each row's before and after in CHANGES.md.  Floors
only go up.  ``PYTHONPATH=src python tests/test_quality_table.py --print``
prints the table.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mvsweep import cli, formats, geometry

SCENES = ("plane", "sphere")
SEEDS = (200, 201)
NUM_DEPTHS = 32
PHI = 0.4

# The lowest accepted figures of each (scene, seed) row, set just below
# the measured table.  No pixel reaches PHI yet, so precision_at_phi has
# no floor.
FLOORS = {
    ("plane", 200): {"within_one_bin": 0.90, "f_score": 0.92, "reach_phi": 0.0},
    ("plane", 201): {"within_one_bin": 0.91, "f_score": 0.92, "reach_phi": 0.0},
    ("sphere", 200): {"within_one_bin": 0.48, "f_score": 0.55, "reach_phi": 0.0},
    ("sphere", 201): {"within_one_bin": 0.47, "f_score": 0.53, "reach_phi": 0.0},
}


def run_row(root: Path, scene: str, seed: int) -> dict:
    """Run one chain into ``root`` and score it."""
    steps = [
        ["synth", "--out", root, "--scene", scene, "--views", "7", "--size", "64x48",
         "--seed", seed],
        ["depth", "--in", root, "--num-depths", NUM_DEPTHS],
        ["fuse", "--in", root, "--phi", "0.0"],
        ["eval", "--recon", root / "cloud.ply", "--gt", root / "gt.ply",
         "--threshold", "5.0", "--json", root / "eval.json"],
    ]
    for argv in steps:
        argv = [str(arg) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{scene} seed {seed}: mvsweep {argv[0]} exited {code}")
    layout = formats.ProjectLayout(root)
    near, sure = [], []
    for view in range(layout.view_count()):
        _, depth_range = formats.read_cam(layout.cam(view))
        space = geometry.HypothesisSpace(depth_range.d_min, depth_range.d_max, NUM_DEPTHS)
        truth = formats.read_pfm(layout.gt_depth(view)).astype(np.float64)
        valid = np.isfinite(truth)
        got = formats.read_pfm(layout.depth(view)).astype(np.float64)[valid]
        with np.errstate(invalid="ignore"):
            near.append(np.abs(space.bin_coordinate(got)
                               - space.bin_coordinate(truth[valid])) <= 1.0)
        sure.append(np.nan_to_num(formats.read_pfm(layout.confidence(view))[valid]) >= PHI)
    near, sure = np.concatenate(near), np.concatenate(sure)
    return {
        "within_one_bin": float(near.mean()),
        "f_score": json.loads((root / "eval.json").read_text())["f_score"],
        "reach_phi": float(sure.mean()),
        "precision_at_phi": float(near[sure].mean()) if sure.any() else None,
    }


ROWS = [(scene, seed) for scene in SCENES for seed in SEEDS]


def table(base: Path) -> dict:
    """Every row of the table, keyed like ``FLOORS``."""
    return {(scene, seed): run_row(base / f"{scene}-{seed}", scene, seed)
            for scene, seed in ROWS}


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    return table(tmp_path_factory.mktemp("quality"))


@pytest.mark.parametrize("scene, seed", ROWS, ids=str)
def test_row_meets_its_floors(rows, scene, seed):
    row = rows[scene, seed]
    low = {name: row[name] for name, floor in FLOORS[scene, seed].items() if row[name] < floor}
    assert not low, f"{scene} seed {seed}: {low} below {FLOORS[scene, seed]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--print"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --print")
    with tempfile.TemporaryDirectory() as tmp:
        measured = table(Path(tmp))
    print("| scene | seed | within 1 bin | f-score | reach φ=0.4 | precision at φ |")
    print("| --- | --- | --- | --- | --- | --- |")
    for (scene, seed), row in measured.items():
        precision = row["precision_at_phi"]
        print(f"| {scene} | {seed} | {row['within_one_bin']:.3f} | {row['f_score']:.3f} "
              f"| {row['reach_phi']:.3f} | {'—' if precision is None else f'{precision:.3f}'} |")
