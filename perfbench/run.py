"""mvsweep benchmark: the public CLI, in-process, on generated projects.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-plane --seed 0 --seconds 40 --trace 0

Each pass calls ``mvsweep.cli.main`` for ``synth -> depth -> fuse -> eval``
on a project generated from ``--seed``.  With ``--trace 0`` untraced
passes repeat for ``--seconds`` and the end-to-end metrics are printed; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are printed.  Every line before the last is a report
for people; the last is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    """Stage arguments and checks of one workload."""

    synth: tuple[str, ...]
    num_depths: int
    depth: tuple[str, ...]
    fuse: tuple[str, ...]
    threshold: float
    # synth, fuse and eval calls per pass: short stages are sampled
    # several times so their medians settle.
    repeats: int
    # Lowest f_score and depth_inlier_frac accepted on any seed.
    floors: dict[str, float]
    # Depth writes into a side project that fusion does not read.
    side_depth: bool = False
    # Synth seed used whatever --seed says (see README.md).
    scene_seed: int | None = None


WORKLOADS = {
    "sweep-plane": Workload(
        synth=("--scene", "plane", "--views", "7", "--size", "96x72"),
        num_depths=32, depth=(), fuse=("--phi", "0.0"), threshold=5.0,
        repeats=5, floors={"f_score": 0.92, "depth_inlier_frac": 0.89}),
    "hulstm-sphere": Workload(
        synth=("--scene", "sphere", "--views", "3", "--size", "64x48"),
        num_depths=24, depth=("--features", "drenet", "--regularizer", "hulstm"),
        fuse=("--phi", "0.0", "--tau", "0.0"), threshold=5.0,
        repeats=9, floors={"f_score": 0.06, "depth_inlier_frac": 0.07},
        scene_seed=0),
    "fuse-sphere": Workload(
        synth=("--scene", "sphere", "--views", "16", "--size", "256x192",
               "--noise-sigma", "0.5", "--outlier-frac", "0.1"),
        num_depths=8, depth=("--views", "2"), fuse=(), threshold=2.0,
        repeats=1, floors={"f_score": 0.99, "depth_inlier_frac": 0.92},
        side_depth=True),
}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "depth_s": ("s", "lower"),
    "fuse_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "f_score": ("frac", "higher"),
    "depth_inlier_frac": ("frac", "higher"),
}
TRACE_COST = {
    "trace.overhead_s": ("s", "lower"),
    "trace.untraced_total_s": ("s", "lower"),
}


class CallFailed(Exception):
    pass


class Cli:
    """Times ``mvsweep.cli.main`` calls and counts the failed ones."""

    def __init__(self, main) -> None:
        self.main = main
        self.attempted = 0
        self.failed = 0
        # Set during a traced pass: each call becomes a ``cli.<stage>`` span.
        self.tracer = None

    def __call__(self, *args) -> tuple[float, str]:
        argv = [str(a) for a in args]
        self.attempted += 1
        captured = io.StringIO()
        stage = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                 else contextlib.nullcontext())
        start = time.perf_counter()
        with stage, contextlib.redirect_stdout(captured):
            code = self.main(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise CallFailed(f"mvsweep {' '.join(argv)} exited {code}")
        return elapsed, captured.getvalue()


class Project:
    """One generated project directory and the paths a pass uses."""

    def __init__(self, root: Path, workload: Workload) -> None:
        self.root = root
        self.wl = workload
        self.estimates = root / "est" if workload.side_depth else root

    def synth(self, cli: Cli, seed: int) -> float:
        shutil.rmtree(self.root, ignore_errors=True)
        scene_seed = seed if self.wl.scene_seed is None else self.wl.scene_seed
        seconds, _ = cli("synth", "--out", self.root, "--seed", scene_seed, *self.wl.synth)
        return seconds

    def pipeline(self, cli: Cli, repeats: int) -> dict:
        """One ``depth -> fuse -> eval`` pass, then ``repeats - 1`` more
        fuse/eval pairs as extra samples of those stages."""
        out = ("--out", self.estimates) if self.wl.side_depth else ()
        depth_s, _ = cli("depth", "--in", self.root, *out,
                         "--num-depths", self.wl.num_depths, *self.wl.depth)
        fuse_s, eval_s, points = [], [], []
        for _ in range(repeats):
            seconds, printed = cli("fuse", "--in", self.root, *self.wl.fuse)
            fuse_s.append(seconds)
            points.append(int(printed.split("points=")[1]))
            seconds, _ = cli("eval", "--recon", self.root / "cloud.ply",
                             "--gt", self.root / "gt.ply",
                             "--threshold", self.wl.threshold,
                             "--json", self.root / "eval.json")
            eval_s.append(seconds)
        return {"depth_s": depth_s, "fuse_s": fuse_s, "eval_s": eval_s,
                "total_s": depth_s + fuse_s[0] + eval_s[0], "points": points}

    def quality(self) -> dict[str, float]:
        from mvsweep import formats, geometry
        import numpy as np

        f_score = json.loads((self.root / "eval.json").read_text())["f_score"]
        layout = formats.ProjectLayout(self.root)
        est = formats.ProjectLayout(self.estimates)
        hits = total = 0
        for view in range(layout.view_count()):
            if not est.depth(view).exists():
                continue
            _, rng = formats.read_cam(layout.cam(view))
            space = geometry.HypothesisSpace(rng.d_min, rng.d_max, self.wl.num_depths)
            gt = formats.read_pfm(layout.gt_depth(view)).astype(np.float64)
            got = formats.read_pfm(est.depth(view)).astype(np.float64)
            valid = np.isfinite(gt)
            with np.errstate(invalid="ignore"):
                bins = np.abs(space.bin_coordinate(got[valid])
                              - space.bin_coordinate(gt[valid]))
            hits += int((bins <= 1.0).sum())
            total += int(valid.sum())
        return {"f_score": f_score, "depth_inlier_frac": hits / total}

    def digest(self) -> dict[str, str]:
        return {str(p.relative_to(self.root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.root.rglob("*")) if p.is_file()}


def check_pass(wl: Workload, result: dict, quality: dict, problems: list[str]) -> None:
    if min(result["points"]) == 0:
        problems.append("fuse wrote an empty cloud")
    for key, floor in wl.floors.items():
        if not quality[key] >= floor:
            problems.append(f"{key} {quality[key]:.4f} is below its floor {floor}")


def run_untraced(cli: Cli, wl: Workload, seed: int, seconds: float,
                 problems: list[str]) -> dict[str, float]:
    project = Project(WORK / "project", wl)
    setup, passes, qualities = [], [], []
    start = time.perf_counter()
    while True:
        setup.extend(project.synth(cli, seed) for _ in range(wl.repeats))
        passes.append(project.pipeline(cli, wl.repeats))
        qualities.append(project.quality())
        last = passes[-1]
        print(f"pass {len(passes)}: setup_s {_seconds(setup[-wl.repeats:])}"
              f"  depth_s {last['depth_s']:.4f}  fuse_s {_seconds(last['fuse_s'])}"
              f"  eval_s {_seconds(last['eval_s'])}")
        check_pass(wl, passes[-1], qualities[-1], problems)
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            break
    if any(q != qualities[0] for q in qualities):
        problems.append("quality differs between passes on one project")
    print(f"{len(passes)} passes; {wl.repeats} synth, fuse and eval calls per pass")
    return {
        "setup_s": statistics.median(setup),
        "depth_s": statistics.median(p["depth_s"] for p in passes),
        "fuse_s": statistics.median(s for p in passes for s in p["fuse_s"]),
        "eval_s": statistics.median(s for p in passes for s in p["eval_s"]),
        "total_s": statistics.median(p["total_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **qualities[0],
    }


def _seconds(samples: list[float]) -> str:
    return " ".join(f"{s:.4f}" for s in samples)


def traced_pass(cli: Cli, layers, project: Project, seed: int) -> dict:
    """synth and one pipeline pass under a root ``pass`` span."""
    tracer = layers.tracer
    layers.install()
    cli.tracer = tracer
    try:
        with tracer.span("pass"):
            project.synth(cli, seed)
            return project.pipeline(cli, 1)
    finally:
        cli.tracer = None
        tracer.restore()


def run_traced(cli: Cli, wl: Workload, seed: int, seconds: float,
               problems: list[str], spans_path: Path) -> dict[str, float]:
    from layers import Layers
    from tracer import Tracer

    tracer = Tracer()
    layers = Layers(tracer)
    plain = Project(WORK / "plain", wl)
    traced = Project(WORK / "traced", wl)
    passes = []
    start = time.perf_counter()
    while True:
        plain.synth(cli, seed)
        base = plain.pipeline(cli, 1)
        quality = plain.quality()
        check_pass(wl, base, quality, problems)

        tracer.run = len(passes)
        result = traced_pass(cli, layers, traced, seed)
        if plain.digest() != traced.digest():
            problems.append("a traced pass wrote other bytes than an untraced one")
        passes.append({
            **layers.layer_metrics(tracer.run),
            "trace.overhead_s": result["total_s"] - base["total_s"],
            "trace.untraced_total_s": base["total_s"],
        })
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            break
    tracer.dump(spans_path)
    # Counts repeat exactly from pass to pass; times take the median.
    values = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    print(f"{len(passes)} untraced/traced pass pairs; spans in {spans_path}")
    print(f"tracing overhead {values['trace.overhead_s']:.4f} s on an untraced "
          f"total_s of {values['trace.untraced_total_s']:.4f} s")
    return values


def use_checkout_src() -> None:
    """Import mvsweep from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mvsweep" / "__init__.py").is_file():
        raise SystemExit(f"error: no mvsweep sources under {SRC}")
    sys.path.insert(0, str(SRC))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_src()
    from mvsweep.cli import main as cli_main

    os.environ["MVSWEEP_JOBS"] = "1"
    wl = WORKLOADS[args.workload]
    cli = Cli(cli_main)
    problems: list[str] = []
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values = run_traced(cli, wl, args.seed, args.seconds, problems, spans)
            from layers import PER_LAYER
            units = {**PER_LAYER, **TRACE_COST}
        else:
            values = run_untraced(cli, wl, args.seed, args.seconds, problems)
            units = END_TO_END
    except CallFailed as exc:
        problems.append(str(exc))
        values, units = {}, {}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for name, value in values.items():
        print(f"  {name:42s} {value:>16.6g} {units[name][0]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and cli.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": cli.attempted,
        "failed": cli.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
