"""Command line driver: project generation, depth, fusion, eval, check.

Commands run in-process through main(argv) so exit codes and stdout are
asserted directly; only the ``python -O`` check runs in a subprocess.  A
small 5-view plane project is generated once per module and reused.
Byte identity of every output across reruns and ``MVSWEEP_JOBS``
settings is checked by ``test_output_manifest.py``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from mvsweep import cli, costvol, estimator, features, formats, fusion, geometry, metrics
from mvsweep import regularizer, synth
from mvsweep.depthmap import DepthMap
from mvsweep.fusion import PointCloud


@pytest.fixture(scope="module")
def synth_proj(tmp_path_factory):
    root = tmp_path_factory.mktemp("proj") / "scene"
    code = cli.main([
        "synth", "--out", str(root), "--views", "5", "--size", "32x24",
        "--seed", "0",
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def depth_proj(synth_proj, tmp_path_factory):
    out = tmp_path_factory.mktemp("depth_out")
    code = cli.main([
        "depth", "--in", str(synth_proj), "--out", str(out),
        "--num-depths", "12",
    ])
    assert code == 0
    return out


class TestSynth:
    """Project generation."""

    def test_layout_complete(self, synth_proj):
        layout = formats.ProjectLayout(synth_proj)
        assert layout.view_count() == 5
        for i in range(5):
            assert layout.image(i).exists()
            assert layout.cam(i).exists()
            assert layout.depth(i).exists()
            assert layout.confidence(i).exists()
            assert layout.gt_depth(i).exists()
        assert layout.pair.exists()
        assert layout.gt_cloud.exists()

    def test_pair_file_counts_views(self, synth_proj):
        lines = (synth_proj / "pair.txt").read_text().splitlines()
        assert lines[0] == "5"
        # Ring neighbors first: view 0 prefers 1 and 4.
        assert lines[1].split()[:3] == ["0", "1", "4"]

    def test_cam_depth_range_brackets_gt(self, synth_proj):
        layout = formats.ProjectLayout(synth_proj)
        _, depth_range = formats.read_cam(layout.cam(0))
        gt = formats.read_pfm(layout.gt_depth(0))
        assert depth_range.d_min < np.nanmin(gt)
        assert depth_range.d_max > np.nanmax(gt)

    def test_gt_cloud_parses(self, synth_proj):
        cloud = formats.read_ply(synth_proj / "gt.ply")
        assert len(cloud) == 5 * 32 * 24  # plane fills every pixel

    def test_sphere_scene(self, tmp_path):
        root = tmp_path / "sphere"
        code = cli.main([
            "synth", "--out", str(root), "--scene", "sphere",
            "--views", "2", "--size", "32x24",
        ])
        assert code == 0
        gt = formats.read_pfm(formats.ProjectLayout(root).gt_depth(0))
        assert np.isnan(gt).any()  # background around the limb

    def test_bad_size_is_user_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "x"), "--size", "big"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--outlier-frac", "2"),
        ("--outlier-frac", "-0.1"),
        ("--outlier-frac", "nan"),
        ("--noise-sigma", "-1"),
        ("--noise-sigma", "nan"),
        ("--noise-sigma", "inf"),
    ])
    def test_noise_flags_are_range_checked(self, flag, value, tmp_path, capsys):
        out = tmp_path / "noisy"
        code = cli.main(["synth", "--out", str(out), "--views", "2",
                         "--size", "16x12", flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {flag} ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_outlier_corruption_applied(self, tmp_path):
        root = tmp_path / "noisy"
        code = cli.main([
            "synth", "--out", str(root), "--views", "2", "--size", "32x24",
            "--outlier-frac", "0.2",
        ])
        assert code == 0
        layout = formats.ProjectLayout(root)
        stored = formats.read_pfm(layout.depth(0))
        gt = formats.read_pfm(layout.gt_depth(0))
        changed = stored != gt
        assert changed.sum() == int(0.2 * 32 * 24)


class TestDepth:
    """Plane-sweep estimation over a project."""

    def test_writes_depth_and_confidence(self, depth_proj):
        layout = formats.ProjectLayout(depth_proj)
        for i in range(5):
            depth = formats.read_pfm(layout.depth(i))
            conf = formats.read_pfm(layout.confidence(i))
            assert depth.shape == (24, 32)
            assert np.isfinite(depth).all()
            assert np.nanmin(conf) >= 0.0 and np.nanmax(conf) <= 1.0 + 1e-6

    @pytest.mark.parametrize("views", [None, 2])
    def test_out_directory_can_be_fused(self, synth_proj, tmp_path, views):
        out = tmp_path / "estimates"
        limit = [] if views is None else ["--views", str(views)]
        assert cli.main(["depth", "--in", str(synth_proj), "--out", str(out),
                         "--num-depths", "4", *limit]) == 0
        count = 5 if views is None else views
        source, target = formats.ProjectLayout(synth_proj), formats.ProjectLayout(out)
        assert target.view_count() == count
        for i in range(count):
            assert target.image(i).read_bytes() == source.image(i).read_bytes()
            assert target.cam(i).read_bytes() == source.cam(i).read_bytes()
        # The sources of each estimated view, without views past --views.
        assert target.read_pairs() == {
            i: [j for j in source.read_pairs()[i] if j < count] for i in range(count)}
        assert cli.main(["fuse", "--in", str(out), "--phi", "0"]) == 0
        assert target.cloud.exists()

    def test_out_equal_to_in_keeps_the_pair_file(self, tmp_path):
        root = tmp_path / "scene"
        assert cli.main(["synth", "--out", str(root), "--views", "3",
                         "--size", "16x12"]) == 0
        pair = (root / "pair.txt").read_bytes()
        assert cli.main(["depth", "--in", str(root), "--out", str(root / "."),
                         "--views", "2", "--num-depths", "4"]) == 0
        assert (root / "pair.txt").read_bytes() == pair

    @pytest.mark.parametrize("value", ["x", "0", "-1", ""])
    def test_bad_job_count_is_user_error(self, synth_proj, tmp_path, monkeypatch,
                                         capsys, value):
        monkeypatch.setenv("MVSWEEP_JOBS", value)
        out = tmp_path / "jobs"
        code = cli.main([
            "depth", "--in", str(synth_proj), "--out", str(out),
            "--num-depths", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: MVSWEEP_JOBS must be a positive integer, got '{value}'" in err
        assert not out.exists()

    def test_estimates_track_ground_truth(self, synth_proj, depth_proj):
        # Textured plane, photometric features: the bulk of pixels land
        # within one bin of the truth even at this tiny resolution.
        layout_in = formats.ProjectLayout(synth_proj)
        layout_out = formats.ProjectLayout(depth_proj)
        _, depth_range = formats.read_cam(layout_in.cam(0))
        step = (depth_range.d_max - depth_range.d_min) / 11.0
        est = formats.read_pfm(layout_out.depth(0))
        gt = formats.read_pfm(layout_in.gt_depth(0))
        within = np.abs(est - gt) <= step
        assert within.mean() > 0.5

    def test_inverse_depth_mode_writes_inverse_samples(self, synth_proj, tmp_path):
        runs = {}
        for mode in ("uniform", "inverse"):
            out = tmp_path / mode
            assert cli.main(["depth", "--in", str(synth_proj), "--out", str(out),
                             "--num-depths", "12", "--depth-mode", mode]) == 0
            runs[mode] = formats.ProjectLayout(out)
        for view in range(5):
            _, depth_range = formats.read_cam(runs["inverse"].cam(view))
            space = geometry.HypothesisSpace(depth_range.d_min, depth_range.d_max, 12, "inverse")
            samples = geometry.sample_hypotheses(space).astype(np.float32)
            depth = formats.read_pfm(runs["inverse"].depth(view))
            written = depth[np.isfinite(depth)]
            assert written.size > 0 and np.isin(written, samples).all()
            # Both modes share only the endpoints, so the maps differ.
            assert not np.array_equal(depth, formats.read_pfm(runs["uniform"].depth(view)))

    def test_view_limit(self, synth_proj, tmp_path):
        out = tmp_path / "limited"
        code = cli.main([
            "depth", "--in", str(synth_proj), "--out", str(out),
            "--views", "2", "--num-depths", "8",
        ])
        assert code == 0
        layout = formats.ProjectLayout(out)
        assert layout.depth(1).exists()
        assert not layout.depth(2).exists()

    @pytest.mark.parametrize("views", ["0", "-2"])
    def test_nonpositive_view_count_is_user_error(self, synth_proj, tmp_path, capsys,
                                                  views):
        out = tmp_path / "none"
        code = cli.main([
            "depth", "--in", str(synth_proj), "--out", str(out),
            "--views", views, "--num-depths", "4",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --views ")
        assert not out.exists()

    def test_view_without_sources_claims_nothing(self, synth_proj, tmp_path, capsys):
        # With one view, pair.txt lists no source within --views: no view
        # can be estimated, so the run is an error that writes nothing.
        out = tmp_path / "alone"
        code = cli.main([
            "depth", "--in", str(synth_proj), "--out", str(out),
            "--views", "1", "--num-depths", "4",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no estimated view has a source view")
        assert "Traceback" not in err
        assert not out.exists()

    def test_only_the_view_without_sources_is_masked(self, synth_proj, tmp_path, caplog):
        # A hand-written pair.txt leaves view 0 without sources while
        # views 1 and 2 match each other: view 0 claims nothing, the
        # others are estimated.
        proj = tmp_path / "scene"
        shutil.copytree(synth_proj, proj)
        (proj / "pair.txt").write_text("3\n0\n1 2\n2 1\n")
        out = tmp_path / "partial"
        code = cli.main([
            "depth", "--in", str(proj), "--out", str(out),
            "--views", "3", "--num-depths", "4",
        ])
        assert code == 0
        layout = formats.ProjectLayout(out)
        assert layout.read_pairs() == {0: [], 1: [2], 2: [1]}
        depth = formats.read_pfm(layout.depth(0))
        conf = formats.read_pfm(layout.confidence(0))
        assert depth.shape == conf.shape == (24, 32)
        assert np.isnan(depth).all()
        assert np.all(conf == 0.0)
        assert "view 0 has no source views" in caplog.text
        for view in (1, 2):
            assert np.isfinite(formats.read_pfm(layout.depth(view))).any()
            assert f"view {view} has no source views" not in caplog.text

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_mismatched_source_writes_nothing(self, tmp_path, monkeypatch, capsys, jobs):
        # Views 0 and 1 match each other and could be estimated, but view
        # 3, the source of view 2, has another size: the run writes nothing.
        monkeypatch.setenv("MVSWEEP_JOBS", jobs)
        root = tmp_path / "scene"
        assert cli.main(["synth", "--out", str(root), "--views", "4",
                         "--size", "16x12"]) == 0
        layout = formats.ProjectLayout(root)
        layout.write_pairs({0: [1], 1: [0], 2: [3], 3: [2]})
        formats.write_image(layout.image(3), np.full((10, 12, 3), 0.5))
        out = tmp_path / "estimates"
        capsys.readouterr()
        code = cli.main(["depth", "--in", str(root), "--out", str(out),
                         "--num-depths", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: source view 3's features (10, 12,")
        assert "reference view 2's (12, 16," in err
        assert not out.exists()

    def test_untrained_network_path_runs(self, tmp_path):
        # drenet features + recurrent regularizer with seeded weights:
        # a plumbing check at minimal size, not a quality check.
        root = tmp_path / "tiny"
        assert cli.main([
            "synth", "--out", str(root), "--views", "2", "--size", "16x12",
        ]) == 0
        code = cli.main([
            "depth", "--in", str(root), "--num-depths", "5",
            "--features", "drenet", "--regularizer", "hulstm",
        ])
        assert code == 0
        assert formats.ProjectLayout(root).depth(1).exists()

    @pytest.mark.parametrize("network", ["DRENet", "HU-LSTM"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["seeded", "weights"])
    def test_untrained_network_is_named_in_a_warning(self, tmp_path, caplog, capsys,
                                                     network, weighted):
        root = tmp_path / "tiny"
        assert cli.main(["synth", "--out", str(root), "--views", "2", "--size", "16x12"]) == 0
        if network == "DRENet":
            flags, tensors = ["--features", "drenet"], features.random_drenet_weights(3)
        else:
            flags, tensors = ["--regularizer", "hulstm"], regularizer.random_hulstm_weights(3)
        if weighted:
            formats.save_tensors(tmp_path / "net.bin", tensors.to_tensors())
            flags += ["--weights", str(tmp_path / "net.bin")]
        capsys.readouterr()
        caplog.clear()
        assert cli.main(["depth", "--in", str(root), "--num-depths", "4", *flags]) == 0
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        want = f"no --weights given; using seeded untrained {network} weights"
        assert warned == ([] if weighted else [want])
        assert capsys.readouterr().out == ""

    def test_weights_container_is_used(self, tmp_path):
        from mvsweep import features

        root = tmp_path / "weighted"
        assert cli.main([
            "synth", "--out", str(root), "--views", "2", "--size", "16x12",
        ]) == 0
        weights_path = tmp_path / "net.bin"
        formats.save_tensors(
            weights_path, features.random_drenet_weights(seed=42).to_tensors()
        )
        code = cli.main([
            "depth", "--in", str(root), "--num-depths", "5",
            "--features", "drenet", "--weights", str(weights_path),
        ])
        assert code == 0

    def test_hulstm_weights_come_from_container(self, tmp_path):
        from mvsweep import features, regularizer

        root = tmp_path / "both"
        assert cli.main([
            "synth", "--out", str(root), "--views", "2", "--size", "16x12",
        ]) == 0
        weights_path = tmp_path / "net.bin"
        formats.save_tensors(weights_path, {
            **features.random_drenet_weights(seed=7).to_tensors(),
            **regularizer.random_hulstm_weights(seed=7).to_tensors(),
        })
        network = ["depth", "--in", str(root), "--num-depths", "5",
                   "--features", "drenet", "--regularizer", "hulstm"]
        loaded, seeded = tmp_path / "loaded", tmp_path / "seeded"
        assert cli.main([*network, "--out", str(loaded),
                         "--weights", str(weights_path)]) == 0
        assert cli.main([*network, "--out", str(seeded), "--seed", "7"]) == 0
        for view in range(2):
            for name in ("depth", "confidence"):
                got = getattr(formats.ProjectLayout(loaded), name)(view)
                want = getattr(formats.ProjectLayout(seeded), name)(view)
                assert got.read_bytes() == want.read_bytes()

    def test_hulstm_weights_missing_from_container(self, tmp_path, capsys):
        from mvsweep import features

        root = tmp_path / "drenet_only"
        assert cli.main([
            "synth", "--out", str(root), "--views", "2", "--size", "16x12",
        ]) == 0
        weights_path = tmp_path / "net.bin"
        formats.save_tensors(
            weights_path, features.random_drenet_weights(seed=7).to_tensors())
        out = tmp_path / "out"
        code = cli.main([
            "depth", "--in", str(root), "--num-depths", "5",
            "--features", "drenet", "--regularizer", "hulstm",
            "--weights", str(weights_path), "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: missing tensor ")
        assert not out.exists()

    def test_hulstm_weights_for_another_feature_width(self, tmp_path, capsys):
        # The first cell reads 16 feature channels; the photometric
        # features have 32.  The run fails before it writes anything.
        root = tmp_path / "scene"
        assert cli.main(["synth", "--out", str(root), "--views", "3", "--size", "16x12"]) == 0
        weights_path = tmp_path / "w.bin"
        formats.save_tensors(
            weights_path, regularizer.random_hulstm_weights(0, in_channels=16).to_tensors())
        out = tmp_path / "o"
        code = cli.main([
            "depth", "--in", str(root), "--out", str(out), "--num-depths", "4",
            "--regularizer", "hulstm", "--weights", str(weights_path),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: the HU-LSTM weights take 16-channel features, "
                       "but --features photometric gives 32\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["stem0.kernel", "cell_full_down.kernel"],
                             ids=["drenet", "hulstm"])
    def test_first_layer_kernel_of_wrong_rank(self, name, tmp_path, capsys):
        from mvsweep import features, regularizer

        root = tmp_path / "scene"
        assert cli.main([
            "synth", "--out", str(root), "--views", "2", "--size", "16x12",
        ]) == 0
        tensors = {**features.random_drenet_weights(seed=7).to_tensors(),
                   **regularizer.random_hulstm_weights(seed=7).to_tensors()}
        tensors[name] = np.zeros(16)
        weights_path = tmp_path / "bad.bin"
        formats.save_tensors(weights_path, tensors)
        out = tmp_path / "out"
        code = cli.main([
            "depth", "--in", str(root), "--num-depths", "5",
            "--features", "drenet", "--regularizer", "hulstm",
            "--weights", str(weights_path), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {name.split('.')[0]}: ")
        assert "Traceback" not in err
        assert not out.exists()


@pytest.fixture(scope="module")
def band_projs(tmp_path_factory):
    """A plane and a sphere project of 4 views at 32x24."""
    base = tmp_path_factory.mktemp("bands")
    for scene in ("plane", "sphere"):
        assert cli.main(["synth", "--out", str(base / scene), "--scene", scene,
                         "--views", "4", "--size", "32x24", "--seed", "3"]) == 0
    return base


def _estimate(root: Path, out: Path, *extra: str) -> dict[str, bytes]:
    assert cli.main(["depth", "--in", str(root), "--out", str(out),
                     "--num-depths", "8", *extra]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.rglob("*.pfm"))}


def _sweep_rows(monkeypatch) -> list[tuple[int, int]]:
    """Record the row range of every cost stream that ``depth`` opens."""
    stream = costvol.cost_volume_stream
    rows = []

    def recorded(*args):
        rows.append(args[5])
        return stream(*args)

    monkeypatch.setattr(costvol, "cost_volume_stream", recorded)
    return rows


class TestBandedSweep:
    """``depth`` sweeps the passthrough cost in bands of at most
    ``BAND_PIXELS`` reference pixels and writes the one-band bits."""

    # 24 rows of 32 pixels: one band; bands of 5 rows and a last of 4;
    # of 7 rows and a last of 3; and of one row each.
    @pytest.mark.parametrize("budget, step", [(32 * 24, 24), (5 * 32, 5), (7 * 32 + 31, 7),
                                              (1, 1)])
    @pytest.mark.parametrize("jobs", ["1", "3"])
    @pytest.mark.parametrize("scene", ["plane", "sphere"])
    def test_bands_write_the_one_band_bits(self, band_projs, tmp_path, monkeypatch, scene,
                                           jobs, budget, step):
        root = band_projs / scene
        monkeypatch.setenv("MVSWEEP_JOBS", "1")
        monkeypatch.setattr(cli, "BAND_PIXELS", 10**9)
        whole = _estimate(root, tmp_path / "whole")
        monkeypatch.setenv("MVSWEEP_JOBS", jobs)
        monkeypatch.setattr(cli, "BAND_PIXELS", budget)
        rows = _sweep_rows(monkeypatch)
        banded = _estimate(root, tmp_path / "banded")
        assert len(whole) == 8
        assert banded == whole
        bands = [(first, min(first + step, 24)) for first in range(0, 24, step)]
        assert sorted(rows) == sorted(bands * 4)

    def test_hulstm_sweeps_the_whole_image(self, band_projs, tmp_path, monkeypatch):
        monkeypatch.setenv("MVSWEEP_JOBS", "1")
        monkeypatch.setattr(cli, "BAND_PIXELS", 1)
        rows = _sweep_rows(monkeypatch)
        _estimate(band_projs / "plane", tmp_path / "hulstm", "--features", "drenet",
                  "--regularizer", "hulstm")
        assert rows == [(0, 24)] * 4


def _traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Neither ``depth`` nor ``synth`` holds a whole-image or all-view buffer
    beyond its inputs and outputs."""

    def test_passthrough_depth_grows_by_less_than_one_band(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MVSWEEP_JOBS", "1")
        monkeypatch.setattr(cli, "BAND_PIXELS", 8192)
        channels = 32
        excess = {}
        for height in (96, 384):
            root = tmp_path / f"h{height}"
            assert cli.main(["synth", "--out", str(root), "--views", "2",
                             "--size", f"128x{height}"]) == 0
            peak = _traced_peak(lambda: cli.main([
                "depth", "--in", str(root), "--num-depths", "2"]))
            # Both views' float64 features and images stay alive throughout.
            inputs = 2 * 128 * height * (channels + 3) * 8
            excess[height] = peak - inputs
        # One band's running sums and one sample are 3 * 8192 * 32 * 8
        # bytes.  A sweep whose buffers span the image grows by about
        # 1 kB per added pixel here, 36 MB over the 36,864 added pixels.
        band_bytes = 3 * cli.BAND_PIXELS * channels * 8
        assert 0 < excess[384] - excess[96] < band_bytes

    def test_synth_holds_one_rendered_image_at_a_time(self, tmp_path, monkeypatch):
        render = synth.render_scene
        images = []

        def tracked(scene, cams, width, height):
            assert len(cams) == 1
            assert all(ref() is None for ref in images), "an earlier image is alive"
            out = render(scene, cams, width, height)
            images.extend(weakref.ref(image) for image, _ in out)
            return out

        monkeypatch.setattr(synth, "render_scene", tracked)
        assert cli.main(["synth", "--out", str(tmp_path / "s"), "--views", "4",
                         "--size", "16x12"]) == 0
        assert len(images) == 4

    def test_view_without_surface_is_named_by_its_index(self, tmp_path, monkeypatch, capsys):
        ring = synth.make_camera_ring

        def one_looks_away(spec):
            cams = ring(spec)
            # Turned half a revolution about its x axis, view 2 faces away.
            flip = np.diag([1.0, -1.0, -1.0])
            cams[2] = geometry.Camera(cams[2].intrinsic, flip @ cams[2].rotation,
                                      flip @ cams[2].translation)
            return cams

        monkeypatch.setattr(synth, "make_camera_ring", one_looks_away)
        code = cli.main(["synth", "--out", str(tmp_path / "s"), "--views", "4",
                         "--size", "16x12"])
        assert code == 1
        assert capsys.readouterr().err == "error: view 2 sees no surface\n"


class TestFuse:
    """Filtering plus fusion into a cloud file."""

    def test_dynamic_fuse_reports_points(self, synth_proj, capsys, tmp_path):
        out = tmp_path / "cloud.ply"
        code = cli.main(["fuse", "--in", str(synth_proj), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("points=")
        count = int(stdout.strip().split("=")[1])
        cloud = formats.read_ply(out)
        assert len(cloud) == count > 0
        assert cloud.rgb is not None

    def test_ascii_output(self, synth_proj, tmp_path):
        out = tmp_path / "cloud.ply"
        code = cli.main(["fuse", "--in", str(synth_proj), "--out", str(out), "--ascii"])
        assert code == 0
        assert b"format ascii 1.0" in out.read_bytes()

    def test_fixed_filter_variant(self, synth_proj, tmp_path, capsys):
        out = tmp_path / "cloud.ply"
        code = cli.main([
            "fuse", "--in", str(synth_proj), "--out", str(out),
            "--filter", "fixed", "--min-views", "2",
        ])
        assert code == 0
        assert len(formats.read_ply(out)) > 0

    @pytest.mark.parametrize("kind", ["dynamic", "fixed"])
    def test_gates_each_view_once(self, synth_proj, tmp_path, monkeypatch, kind):
        gate = fusion.probability_filter
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return gate(*args, **kwargs)

        monkeypatch.setattr(fusion, "probability_filter", counted)
        assert cli.main(["fuse", "--in", str(synth_proj), "--out",
                         str(tmp_path / "cloud.ply"), "--filter", kind]) == 0
        assert len(calls) == 5

    def test_filters_and_fusion_read_the_pair_file(self, synth_proj, tmp_path,
                                                   monkeypatch):
        # An asymmetric hand-written list, out of view order on line 2 and
        # empty for view 4; --tau 0 keeps every pixel, so each view fuses.
        proj = tmp_path / "scene"
        shutil.copytree(synth_proj, proj)
        (proj / "pair.txt").write_text("5\n0 1\n1 2 0\n2 1\n3 0 4\n4\n")
        pairs = {0: [1], 1: [2, 0], 2: [1], 3: [0, 4], 4: []}
        cams, trips, stage = {}, [], ["filter"]
        read_cam, chain, fuse = formats.read_cam, fusion.reproject_chain_map, fusion.fuse_point_cloud

        def numbered(path):
            cam, depth_range = read_cam(path)
            cams[id(cam)] = len(cams)
            return cam, depth_range

        def recorded(ref_cam, src_cam, *args):
            trips.append((stage[0], cams[id(ref_cam)], cams[id(src_cam)]))
            return chain(ref_cam, src_cam, *args)

        def fusing(*args, **kwargs):
            stage[0] = "fuse"
            return fuse(*args, **kwargs)

        monkeypatch.setattr(formats, "read_cam", numbered)
        monkeypatch.setattr(fusion, "reproject_chain_map", recorded)
        monkeypatch.setattr(fusion, "fuse_point_cloud", fusing)
        assert cli.main(["fuse", "--in", str(proj), "--out", str(tmp_path / "cloud.ply"),
                         "--tau", "0"]) == 0
        assert [t[1:] for t in trips if t[0] == "filter"] == [
            (i, j) for i in range(5) for j in pairs[i]]
        assert [t[1:] for t in trips if t[0] == "fuse"] == [
            (i, j) for i in range(5) for j in sorted(pairs[i])]

    def test_default_output_path(self, synth_proj):
        code = cli.main(["fuse", "--in", str(synth_proj)])
        assert code == 0
        assert (synth_proj / "cloud.ply").exists()

    def test_empty_cloud_warns(self, synth_proj, tmp_path, capsys):
        def warnings():
            return [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]

        out = tmp_path / "cloud.ply"
        capsys.readouterr()
        assert cli.main(["fuse", "--in", str(synth_proj), "--out", str(out)]) == 0
        assert warnings() == []
        # No pixel can reach a summed score of 100 over 4 sources.
        code = cli.main(["fuse", "--in", str(synth_proj), "--out", str(out),
                         "--tau", "100"])
        assert code == 0
        layout = formats.ProjectLayout(synth_proj)
        depths = [formats.read_pfm(layout.depth(i)) for i in range(5)]
        confident = sum(int(np.isfinite(d).sum()) for d in depths)
        assert warnings() == [
            f"warning: fused cloud is empty (φ gate kept {confident}/{5 * 32 * 24} "
            "pixels, consistency gate kept 0)"]
        assert len(formats.read_ply(out)) == 0

    @pytest.mark.parametrize("kind", ["confidence", "image"])
    def test_view_file_of_another_size_writes_nothing(self, synth_proj, tmp_path, capsys,
                                                      kind):
        proj = tmp_path / "scene"
        shutil.copytree(synth_proj, proj)
        layout = formats.ProjectLayout(proj)
        if kind == "confidence":
            formats.write_pfm(layout.confidence(1), np.ones((5, 5)))
        else:
            formats.write_image(layout.image(1), np.zeros((5, 5, 3)))
        out = tmp_path / "cloud.ply"
        assert cli.main(["fuse", "--in", str(proj), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: view 1: {kind} is (5, 5) but the depth map is (24, 32)")
        assert "Traceback" not in err
        assert not out.exists()

    def test_parser_defaults_are_fusion_params(self):
        args = cli.build_parser().parse_args(["fuse", "--in", "x"])
        want = dataclasses.asdict(fusion.FusionParams())
        assert {name: getattr(args, name) for name in want} == want

    @pytest.mark.parametrize("command", ["depth", "fuse"])
    def test_malformed_pair_file_is_user_error(self, synth_proj, tmp_path, capsys,
                                               command):
        proj = tmp_path / "scene"
        shutil.copytree(synth_proj, proj)
        (proj / "pair.txt").write_text("5\n0 1 x\n")
        code = cli.main([command, "--in", str(proj), "--num-depths", "4"]
                        if command == "depth" else [command, "--in", str(proj)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "pair.txt" in err and "(line 2)" in err


class TestEval:
    """Cloud-versus-cloud scoring."""

    def test_report_printed(self, synth_proj, tmp_path, capsys):
        cloud = tmp_path / "cloud.ply"
        assert cli.main(["fuse", "--in", str(synth_proj), "--out", str(cloud)]) == 0
        capsys.readouterr()
        code = cli.main([
            "eval", "--recon", str(cloud), "--gt", str(synth_proj / "gt.ply"),
            "--threshold", "10.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split("=") for line in out.strip().splitlines())
        assert set(lines) >= {"accuracy", "completeness", "precision", "recall", "f_score"}
        # Ground-truth depths fused back should sit on the truth surface.
        assert float(lines["f_score"]) > 0.9

    def test_json_output(self, synth_proj, tmp_path, capsys):
        cloud = tmp_path / "cloud.ply"
        assert cli.main(["fuse", "--in", str(synth_proj), "--out", str(cloud)]) == 0
        report_path = tmp_path / "report.json"
        code = cli.main([
            "eval", "--recon", str(cloud), "--gt", str(synth_proj / "gt.ply"),
            "--threshold", "10.0", "--json", str(report_path),
        ])
        assert code == 0
        parsed = json.loads(report_path.read_text())
        assert 0.0 <= parsed["f_score"] <= 1.0

    def test_zero_threshold_needs_max_dist(self, synth_proj, capsys):
        clouds = ["--recon", str(synth_proj / "gt.ply"), "--gt", str(synth_proj / "gt.ply")]
        assert cli.main(["eval", *clouds, "--threshold", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: threshold 0") and "--max-dist" in err
        assert cli.main(["eval", *clouds, "--threshold", "0", "--max-dist", "1"]) == 0
        assert "f_score=1.000000" in capsys.readouterr().out

    def test_missing_file_is_reported(self, tmp_path, capsys):
        code = cli.main([
            "eval", "--recon", str(tmp_path / "nope.ply"),
            "--gt", str(tmp_path / "also_nope.ply"), "--threshold", "1.0",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def _after(change):
    """A mutation that passes the patched function's result through ``change``."""
    return lambda fn: lambda *args, **kwargs: change(fn(*args, **kwargs))


# Every row of ``mvsweep check`` in its order: (row, owner, attribute the
# row checks, mutation, other rows that call it).
MUTATIONS = [
    ("camera_round_trip", geometry, "back_project_grid", _after(lambda p: p + 1e-6), ()),
    ("hypothesis_sampling", geometry, "sample_hypotheses",
     _after(lambda d: np.concatenate([d[:1], d[1:-1] * (1 + 1e-9), d[-1:]])), ()),
    ("reprojection_chain", geometry, "reproject_chain_map",
     _after(lambda r: (r[0], r[1] + 1e-6, *r[2:])), ()),
    ("depth_lookup", DepthMap, "depth_grid",
     lambda fn: lambda self, xs, ys: fn(self, np.asarray(xs) - 1e-9, ys), ()),
    ("conv_oracle", features, "conv3x3",
     lambda fn: lambda x, kernel, bias=None, dilation=1: fn(x, kernel, None, dilation), ()),
    ("upsample_phases", regularizer, "_upsample_conv",
     lambda fn: lambda x, kernel, bias, out_hw: fn(x, kernel, 0 * bias, out_hw), ()),
    ("bilinear_sample", costvol, "bilinear_sample", _after(lambda r: (r[0] + 1e-9, r[1])),
     ("cost_slice",)),
    ("cost_slice", costvol, "_sweep_slice",
     _after(lambda sl: dataclasses.replace(sl, cost=sl.cost + 1e-9)), ()),
    ("texture_oracle", synth, "_noise_fields", _after(lambda v: v + 1e-9), ()),
    ("streaming_softmax", estimator, "online_softmax_wta",
     _after(lambda r: (r[0], r[1] * 1.001)), ()),
    ("consistency_values", fusion, "_scores", _after(lambda c: c * 1.001), ()),
    # A landing pixel that drifts by 2e4 ulps: 2.4e-3 px in float32.
    ("float32_round_trip", fusion, "_round_trips",
     _after(lambda r: (r[0] + 2e4 * np.finfo(r[0].dtype).eps, *r[1:])), ()),
    ("nearest_distance", metrics, "nearest_distance", _after(lambda d: d + 1e-9), ()),
    ("formats_round_trip", formats, "read_ply", _after(lambda c: PointCloud(c.xyz)), ()),
]
ROWS = [row for row, *_ in MUTATIONS]


def _count_calls(monkeypatch, owner, name) -> list[int]:
    """Wrap ``owner.name`` with a call counter, under every name that the
    package's modules bind it to, and return the one-element count."""
    original = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    namespaces = [owner] + [module for key, module in sys.modules.items()
                            if key == "mvsweep" or key.startswith("mvsweep.")]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if value is original:
                monkeypatch.setattr(namespace, attr, counted)
    return calls


class TestCheck:
    """The reference battery of ``mvsweep.oracles``."""

    def test_all_ok(self, capsys):
        assert cli.main(["check"]) == 0
        assert capsys.readouterr().out.splitlines() == [f"{row}: ok" for row in ROWS]

    @pytest.mark.parametrize("row, owner, name, mutate, also", MUTATIONS,
                             ids=[m[0] for m in MUTATIONS])
    def test_mutation_fails_its_row(self, row, owner, name, mutate, also,
                                    monkeypatch, capsys):
        # A small drift in the checked function fails its row, and only
        # the rows that call that function.
        monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
        code = cli.main(["check"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line.split(": ")[0] for line in lines] == ROWS
        failed = [line.split(": ")[0] for line in lines if line.endswith(": FAIL")]
        assert failed == [r for r in ROWS if r in (row, *also)]

    def test_every_row_checks_code_the_cli_runs(self, tmp_path, monkeypatch):
        # Each function a row checks runs in a CLI chain that goes through
        # both networks, fusion and eval.
        calls = {f"{owner.__name__}.{name}": _count_calls(monkeypatch, owner, name)
                 for _, owner, name, _, _ in MUTATIONS}
        root = tmp_path / "scene"
        assert cli.main(["synth", "--out", str(root), "--views", "3", "--size", "16x12"]) == 0
        assert cli.main(["depth", "--in", str(root), "--num-depths", "4",
                         "--features", "drenet", "--regularizer", "hulstm"]) == 0
        # Untrained networks: no gate, so that fusion and eval see points.
        assert cli.main(["fuse", "--in", str(root), "--phi", "0", "--tau", "0"]) == 0
        assert cli.main(["eval", "--recon", str(root / "cloud.ply"),
                         "--gt", str(root / "gt.ply"), "--threshold", "1"]) == 0
        assert [name for name, count in calls.items() if count[0] == 0] == []

    @pytest.mark.parametrize("shifted", [False, True])
    def test_optimized_interpreter_still_checks(self, shifted, tmp_path):
        # ``python -O`` strips asserts, so the rows must fail by raising.
        shift = ("nearest_distance = metrics.nearest_distance\n"
                 "metrics.nearest_distance = lambda q, r: nearest_distance(q, r) + 1.0\n")
        script = ("import sys\n"
                  "from mvsweep import cli, metrics\n"
                  "if not sys.flags.optimize:\n"
                  "    sys.exit('not optimized')\n"
                  + (shift if shifted else "")
                  + "sys.exit(cli.main(['check']))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-O", "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        want = [f"{r}: {'FAIL' if shifted and r == 'nearest_distance' else 'ok'}"
                for r in ROWS]
        assert done.stdout.splitlines() == want, done.stderr[-2000:]
        assert done.returncode == (1 if shifted else 0)


class TestOutOfRangeArguments:
    """Values the parser accepts but the pipeline cannot use are user errors."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--size", "0x0"],
        ["synth", "--views", "0"],
        ["synth", "--seed", "-1"],
        ["depth", "--features", "drenet", "--seed", "-2"],
        ["depth", "--regularizer", "hulstm", "--seed", "-2"],
        ["depth", "--num-depths", "1"],
        ["fuse", "--phi", "2"],
        ["fuse", "--filter", "fixed", "--min-views", "0"],
        ["fuse", "--tau", "nan"],
        ["fuse", "--lambda", "nan"],
        ["fuse", "--tau", "inf"],
        ["fuse", "--lambda", "inf"],
        ["eval", "--threshold", "0"],
        ["eval", "--threshold", "-1"],
        ["eval", "--threshold", "nan"],
        ["eval", "--threshold", "inf"],
        ["eval", "--threshold", "1", "--max-dist", "nan"],
    ], ids=" ".join)
    def test_reported_without_traceback(self, argv, synth_proj, tmp_path, capsys):
        command, *rest = argv
        paths = {
            "synth": ["--out", str(tmp_path / "scene")],
            "depth": ["--in", str(synth_proj), "--out", str(tmp_path / "est")],
            "fuse": ["--in", str(synth_proj), "--out", str(tmp_path / "cloud.ply")],
            "eval": ["--recon", str(synth_proj / "gt.ply"),
                     "--gt", str(synth_proj / "gt.ply")],
        }
        code = cli.main([command, *paths[command], *rest])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        if command in ("synth", "depth"):
            assert not Path(paths[command][-1]).exists()


def _set_cam_token(path, line, column, value):
    lines = path.read_text().splitlines()
    parts = lines[line - 1].split()
    parts[column] = value
    lines[line - 1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")


class TestMalformedInput:
    """A malformed input file is one `error:` line and exit 1, never a traceback."""

    @pytest.mark.parametrize("command, corrupt", [
        ("depth", lambda proj: (proj / "images" / "00000000.ppm").write_bytes(
            b"P5\n-2 -3\n255\n" + bytes(6))),
        ("fuse", lambda proj: (proj / "pair.txt").write_bytes(b"\xff\xfe5\n")),
        ("depth", lambda proj: _set_cam_token(
            proj / "cams" / "00000000_cam.txt", 12, 2, "inf")),
        ("depth", lambda proj: _set_cam_token(
            proj / "cams" / "00000000_cam.txt", 2, 0, "nan")),
        ("eval", None),
    ], ids=["negative-pgm-dims", "non-ascii-pair", "inf-depth-count", "nan-rotation",
            "recon-is-directory"])
    def test_reported_without_traceback(self, synth_proj, tmp_path, capsys, command,
                                        corrupt):
        proj = tmp_path / "scene"
        shutil.copytree(synth_proj, proj)
        if corrupt is not None:
            corrupt(proj)
        argv = {
            "depth": ["depth", "--in", str(proj), "--out", str(tmp_path / "est"),
                      "--num-depths", "4"],
            "fuse": ["fuse", "--in", str(proj), "--out", str(tmp_path / "cloud.ply")],
            "eval": ["eval", "--recon", str(proj), "--gt", str(proj / "gt.ply"),
                     "--threshold", "1.0"],
        }[command]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(proj) in errors[0]
        assert "Traceback" not in err


class TestUsage:
    """Argument errors surface as exit code 2, not tracebacks."""

    def test_no_command(self):
        assert cli.main([]) == 2

    def test_unknown_command(self):
        assert cli.main(["render"]) == 2

    def test_missing_required(self):
        assert cli.main(["depth"]) == 2

    def test_fuse_rejects_bad_filter(self):
        assert cli.main(["fuse", "--in", "x", "--filter", "median"]) == 2
