"""Byte identity of every CLI output, pinned by sha256 sums in ``output_manifest.json``.

Three reduced chains, one per benchmark workload, run ``synth -> depth ->
fuse -> eval`` in-process with ``MVSWEEP_JOBS=1`` and ``3``; the test names
each written file whose sum differs from the manifest.  The manifest
records the numpy, scipy and BLAS builds it was written with, since
float32 products and libm's ``exp`` may round differently on another.
A change that alters outputs by design regenerates the sums, and says so
in CHANGES.md: ``PYTHONPATH=src python tests/test_output_manifest.py --write``
prints each entry it adds, removes or changes against the manifest on
disk before it overwrites the file.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from mvsweep import cli, features, formats, regularizer

MANIFEST = Path(__file__).with_name("output_manifest.json")

# name: (synth, depth, fuse, eval --threshold); "{root}" is the chain's
# project and "{base}" the directory of all chains.
CHAINS = {
    "plane": (["--scene", "plane", "--views", "4", "--size", "48x36"],
              ["--num-depths", "16"], ["--phi", "0"], "5.0"),
    "networks": (["--scene", "sphere", "--views", "3", "--size", "64x48"],
                 ["--num-depths", "8", "--features", "drenet", "--regularizer", "hulstm",
                  "--weights", "{base}/weights.bin"],
                 ["--phi", "0", "--tau", "0"], "5.0"),
    # Fusion reads the noisy stored depths; two views are estimated aside.
    "noisy-sphere": (["--scene", "sphere", "--views", "6", "--size", "64x48",
                      "--noise-sigma", "0.5", "--outlier-frac", "0.1"],
                     ["--num-depths", "8", "--views", "2", "--out", "{root}/estimates"],
                     [], "2.0"),
}


def versions() -> dict:
    """The numerical libraries whose rounding the sums depend on."""
    blas = [config(mode="dicts")["Build Dependencies"]["blas"]
            for config in (np.show_config, scipy.show_config)]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": [f"{dep['name']} {dep['version']}" for dep in blas]}


def write_weights(path: Path) -> None:
    """Seeded weights for both networks with every 1-d tensor (biases, group
    norm scales and shifts) drawn too; untrained ones are all 0 or 1."""
    rng = np.random.default_rng(0)
    tensors = {**features.random_drenet_weights(0).to_tensors(),
               **regularizer.random_hulstm_weights(0).to_tensors()}
    formats.save_tensors(path, {
        name: t + rng.normal(scale=0.1, size=t.shape) if t.ndim == 1 else t
        for name, t in tensors.items()})


def run_chains(base: Path) -> dict[str, str]:
    """Run every chain under ``base``; sha256 of each file written, by path."""
    base.mkdir(parents=True, exist_ok=True)
    write_weights(base / "weights.bin")
    for name, (synth, depth, fuse, threshold) in CHAINS.items():
        root = base / name
        steps = [
            ["synth", "--out", root, "--seed", "0", *synth],
            ["depth", "--in", root, *depth],
            ["fuse", "--in", root, *fuse],
            ["eval", "--recon", root / "cloud.ply", "--gt", root / "gt.ply",
             "--threshold", threshold, "--json", root / "eval.json"],
        ]
        for argv in steps:
            argv = [str(arg).format(root=root, base=base) for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"chain {name}: mvsweep {argv[0]} exited {code}")
    return {path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(base.rglob("*")) if path.is_file()}


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per entry that ``new`` adds, removes or changes against ``old``."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            lines.append(f"added   {name} {new[name]}")
        elif name not in new:
            lines.append(f"removed {name} {old[name]}")
        elif old[name] != new[name]:
            lines.append(f"changed {name} {old[name]} -> {new[name]}")
    return lines


def test_changes_names_each_kind_of_entry():
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "b": "4", "d": "5"}
    assert changes(old, new) == ["changed b 2 -> 4", "removed c 3", "added   d 5"]


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_outputs_match_manifest(jobs, tmp_path, monkeypatch):
    monkeypatch.setenv("MVSWEEP_JOBS", jobs)
    manifest = json.loads(MANIFEST.read_text())
    got, want = run_chains(tmp_path), manifest["sha256"]
    wrong = changes(want, got)
    assert not wrong, (f"{len(wrong)} output(s) differ from {MANIFEST.name}: {wrong}; "
                       f"written with {manifest['versions']}, running {versions()}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        sums = run_chains(Path(tmp))
    old = json.loads(MANIFEST.read_text())["sha256"] if MANIFEST.exists() else {}
    for line in changes(old, sums):
        print(line)
    MANIFEST.write_text(json.dumps({"versions": versions(), "sha256": sums},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(sums)} sums to {MANIFEST}")
