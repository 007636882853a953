"""Self-test of the benchmark's tracer: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
from pathlib import Path

import run

run.use_checkout_src()

from mvsweep import (costvol, estimator, features, formats, fusion, geometry,  # noqa: E402
                     metrics, regularizer, synth)
from mvsweep.cli import main as cli_main  # noqa: E402

from layers import PER_LAYER, Layers  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = (costvol, estimator, features, formats, fusion, geometry, metrics,
           regularizer, synth)
VIEWS, WIDTH, HEIGHT, DEPTHS = 3, 16, 12, 4
SOURCES = VIEWS - 1  # synth pairs each view with every other one


def tiny(*depth_args: str) -> run.Workload:
    return run.Workload(
        synth=("--scene", "plane", "--views", str(VIEWS), "--size", f"{WIDTH}x{HEIGHT}"),
        num_depths=DEPTHS, depth=depth_args, fuse=("--phi", "0.0", "--tau", "0.0"),
        threshold=5.0, repeats=1, floors={})


def traced(tmp_path: Path, workload: run.Workload):
    tracer = Tracer()
    layers = Layers(tracer)
    project = run.Project(tmp_path / "traced", workload)
    result = run.traced_pass(run.Cli(cli_main), layers, project, seed=0)
    return tracer, layers, project, result


def test_every_patched_attribute_is_restored(tmp_path):
    before = [dict(vars(m)) for m in MODULES]
    tracer, _, _, _ = traced(tmp_path, tiny())
    assert tracer.spans
    for module, saved in zip(MODULES, before):
        now = vars(module)
        assert now.keys() == saved.keys()
        for name, value in saved.items():
            if not name.startswith("__"):
                assert now[name] is value, f"{module.__name__}.{name} not restored"


def test_install_patches_the_lookups_the_pipeline_uses():
    tracer = Tracer()
    originals = (costvol.warp_grid, fusion.reproject_chain_map, metrics.nearest_distance)
    Layers(tracer).install()
    try:
        assert costvol.warp_grid is not originals[0]
        assert fusion.reproject_chain_map is geometry.reproject_chain_map
        assert fusion.reproject_chain_map is not originals[1]
        assert metrics.nearest_distance is not originals[2]
    finally:
        tracer.restore()
    assert (costvol.warp_grid, fusion.reproject_chain_map,
            metrics.nearest_distance) == originals


def test_spans_nest_and_self_times_sum_to_the_root(tmp_path):
    tracer, _, _, _ = traced(tmp_path, tiny("--features", "drenet",
                                            "--regularizer", "hulstm"))
    spans = tracer.spans
    roots = [sp for sp in spans if sp.parent is None]
    assert [sp.name for sp in roots] == ["pass"]
    for sp in spans:
        assert sp.self_s >= -1e-12, sp.name
        if sp.parent is not None:
            parent = spans[sp.parent]
            assert parent.start <= sp.start <= sp.end <= parent.end, sp.name
    assert math.isclose(sum(sp.self_s for sp in spans), roots[0].duration,
                        rel_tol=0, abs_tol=1e-9)

    def parent(sp):
        return spans[sp.parent].name

    chain = {"geometry.warp_grid": "costvol", "costvol.bilinear_sample": "costvol",
             "costvol": "regularizer", "regularizer.cell": "regularizer",
             "regularizer": "estimator", "estimator": "cli.depth",
             "synth.render": "cli.synth", "fusion.filter": "cli.fuse",
             "metrics.nearest_distance": "cli.eval"}
    for sp in spans:
        if sp.name in chain:
            assert parent(sp) == chain[sp.name], sp.name
    views = {sp.view for sp in spans if sp.name == "geometry.warp_grid"}
    assert views == set(range(VIEWS))


def test_counts_match_hand_derived_values(tmp_path):
    tracer, layers, project, result = traced(tmp_path, tiny())
    got = layers.layer_metrics(tracer.run)
    assert set(got) == set(PER_LAYER)

    sweeps = VIEWS * SOURCES * DEPTHS
    pixels = WIDTH * HEIGHT
    assert got["geometry.warp_grid.calls"] == sweeps
    assert got["costvol.bilinear_sample.calls"] == sweeps
    assert got["costvol.bilinear_sample.bytes_computed"] == sweeps * pixels * 32 * 8
    assert got["costvol.slices"] == VIEWS * DEPTHS
    assert got["regularizer.slices"] == VIEWS * DEPTHS
    assert got["estimator.slices"] == VIEWS * DEPTHS
    assert got["regularizer.cell.calls"] == 0
    assert got["features.calls"] == VIEWS
    assert 0.0 < got["costvol.valid_view_frac"] <= 1.0
    assert got["costvol.stream_peak_bytes"] > 0

    points = result["points"][0]
    assert got["fusion.points"] == points > 0
    filter_reprojections = [sp for sp in tracer.spans if sp.name == "geometry.reproject"
                            and tracer.spans[sp.parent].name == "fusion.filter"]
    assert len(filter_reprojections) == VIEWS * SOURCES
    assert all(sp.counts["pixels"] == pixels for sp in filter_reprojections)
    # Fusion reprojects each emitted point into every other view.
    assert got["geometry.reproject.pixels"] == VIEWS * SOURCES * pixels + SOURCES * points

    truth = len(formats.read_ply(project.root / "gt.ply"))
    assert got["metrics.nearest_distance.calls"] == 4
    assert got["metrics.nearest_distance.query_points"] == 2 * (points + truth)

    # depth: a cam and an image per view; fuse: cam, depth, confidence and
    # image per view; eval: two clouds.
    assert got["formats.read.calls"] == 2 * VIEWS + 4 * VIEWS + 2
    # synth: image, cam, gt depth, depth, confidence per view plus gt.ply;
    # depth: depth and confidence per view; fuse: the cloud.
    assert got["formats.write.calls"] == 5 * VIEWS + 1 + 2 * VIEWS + 1
    assert 0.0 < got["fusion.kept_frac"] <= 1.0


def test_hulstm_cells_per_slice(tmp_path):
    tracer, layers, _, _ = traced(tmp_path, tiny("--features", "drenet",
                                                 "--regularizer", "hulstm"))
    got = layers.layer_metrics(tracer.run)
    assert got["regularizer.cell.calls"] == 5 * VIEWS * DEPTHS
    assert got["regularizer.slices"] == VIEWS * DEPTHS


def test_tracing_does_not_change_outputs(tmp_path):
    workload = tiny()
    plain = run.Project(tmp_path / "plain", workload)
    cli = run.Cli(cli_main)
    plain.synth(cli, seed=0)
    plain.pipeline(cli, 1)
    _, _, project, _ = traced(tmp_path, workload)
    assert plain.digest() == project.digest()


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER) + list(run.TRACE_COST)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        unit, better = {**run.END_TO_END, **PER_LAYER, **run.TRACE_COST}[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
