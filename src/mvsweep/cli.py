"""Command-line pipeline: synth -> depth -> fuse -> eval, plus check.

Subcommands operate on a project directory laid out per
:class:`~mvsweep.formats.ProjectLayout`.  ``synth`` fabricates a ground
truth scene, ``depth`` estimates per-view depth maps by plane sweep,
``fuse`` filters and merges them into a point cloud, ``eval`` scores a
cloud against a reference, and ``check`` runs a quick built-in oracle
battery.

Reference views in ``depth`` are independent; set ``MVSWEEP_JOBS`` to
process several concurrently (results are identical regardless).
"""

from __future__ import annotations

import argparse
import itertools
import logging
import math
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import costvol, estimator, features, formats, fusion, geometry, metrics
from . import regularizer, synth
from .depthmap import DepthMap
from .errors import InvalidArgumentError, MvsweepError, ParseError

log = logging.getLogger("mvsweep")

DEFAULT_VIEWS = 7
DEFAULT_DEPTHS = 64


def _add_synth(sub) -> None:
    p = sub.add_parser("synth", help="generate a synthetic scene project")
    p.add_argument("--out", required=True, help="project directory to create")
    p.add_argument("--scene", choices=("plane", "sphere"), default="plane")
    p.add_argument("--views", type=int, default=DEFAULT_VIEWS)
    p.add_argument("--size", default="64x48", help="image size WIDTHxHEIGHT")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="gaussian depth noise added to the stored maps")
    p.add_argument("--outlier-frac", type=float, default=0.0,
                   help="fraction of stored depths replaced by outliers")
    p.add_argument("--ring-radius", type=float, default=250.0)
    p.add_argument("--standoff", type=float, default=600.0)


def _add_depth(sub) -> None:
    p = sub.add_parser("depth", help="estimate depth maps by plane sweep")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", help="output project directory (default: --in); the "
                   "estimated views' images and cams and their pair.txt are copied there")
    p.add_argument("--views", type=int, help="number of views (default: all)")
    p.add_argument("--num-depths", type=int, default=DEFAULT_DEPTHS)
    p.add_argument("--depth-mode", choices=("uniform", "inverse"), default="uniform")
    p.add_argument("--features", choices=("photometric", "drenet"),
                   default="photometric")
    p.add_argument("--regularizer", choices=("passthrough", "hulstm"),
                   default="passthrough")
    p.add_argument("--weights", help="tensor container with network weights")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for untrained weights when none are given")


def _add_fuse(sub) -> None:
    p = sub.add_parser("fuse", help="filter depth maps and fuse a point cloud")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", help="output PLY path (default: <in>/cloud.ply)")
    p.add_argument("--filter", choices=("dynamic", "fixed"), default="dynamic")
    p.add_argument("--lambda", dest="lam", type=float, default=200.0,
                   help="depth-error weight inside the matching score")
    p.add_argument("--tau", type=float, default=1.8,
                   help="dynamic consistency floor")
    p.add_argument("--phi", type=float, default=0.4,
                   help="minimum estimator confidence")
    p.add_argument("--tau1", type=float, default=1.0,
                   help="fixed filter: max pixel reprojection error")
    p.add_argument("--tau2", type=float, default=0.01,
                   help="fixed filter: max relative depth error")
    p.add_argument("--min-views", type=int, default=3,
                   help="fixed filter: required supporting views")
    p.add_argument("--ascii", action="store_true", help="write ascii PLY")


def _add_eval(sub) -> None:
    p = sub.add_parser("eval", help="score a cloud against a reference cloud")
    p.add_argument("--recon", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--threshold", type=float, required=True,
                   help="distance threshold for precision/recall")
    p.add_argument("--max-dist", type=float,
                   help="truncation for accuracy/completeness (default 20x threshold)")
    p.add_argument("--json", dest="json_out", help="also write the report as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvsweep",
        description="plane-sweep multi-view stereo reconstruction toolkit")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_depth(sub)
    _add_fuse(sub)
    _add_eval(sub)
    sub.add_parser("check", help="run the built-in oracle battery")
    return parser


# ---------------------------------------------------------------------------
# synth


def _ring_pairs(n: int) -> dict[int, list[int]]:
    """Source ordering by ring distance: +-1, +-2, ... around each view."""
    pairs = {}
    for i in range(n):
        order = []
        for step in range(1, n // 2 + 1):
            order.append((i + step) % n)
            if (i - step) % n not in order:
                order.append((i - step) % n)
        pairs[i] = order
    return pairs


def cmd_synth(args) -> int:
    try:
        width, height = (int(v) for v in args.size.lower().split("x"))
    except ValueError:
        raise MvsweepError(f"--size must look like 64x48, got {args.size!r}")
    if width < 1 or height < 1:
        raise InvalidArgumentError(f"--size must be positive, got {args.size!r}")
    if args.views < 1:
        raise InvalidArgumentError(f"--views must be positive, got {args.views}")
    # Written as "not in range" so NaN is rejected too.
    if not 0.0 <= args.noise_sigma < np.inf:
        raise InvalidArgumentError(
            f"--noise-sigma must be non-negative and finite, got {args.noise_sigma}")
    if not 0.0 <= args.outlier_frac <= 1.0:
        raise InvalidArgumentError(
            f"--outlier-frac must lie in [0, 1], got {args.outlier_frac}")
    if args.scene == "plane":
        surface = synth.Plane()
    else:
        surface = synth.Sphere(radius=100.0)
    rig = synth.CameraRigSpec(
        n_views=args.views, radius=args.ring_radius, standoff=args.standoff,
        focal=2.2 * width, width=width, height=height)
    cams = synth.make_camera_ring(rig)
    scene = synth.SceneSpec(surface=surface, texture_seed=args.seed)
    rendered = synth.render_scene(scene, cams, width, height)

    layout = formats.ProjectLayout(Path(args.out))
    layout.make_dirs(with_gt=True)
    d_lo = min(float(np.nanmin(d.data)) for _, d in rendered)
    d_hi = max(float(np.nanmax(d.data)) for _, d in rendered)
    d_min, d_max = 0.9 * d_lo, 1.1 * d_hi
    depth_range = formats.DepthRange(
        d_min, (d_max - d_min) / (DEFAULT_DEPTHS - 1), DEFAULT_DEPTHS, d_max)

    gt_points = []
    for index, (cam, (image, depth)) in enumerate(zip(cams, rendered)):
        formats.write_image(layout.image(index), image)
        formats.write_cam(layout.cam(index), cam, depth_range)
        formats.write_pfm(layout.gt_depth(index), depth.data, depth.mask)
        stored = synth.perturb_depths(
            depth, sigma=args.noise_sigma, outlier_frac=args.outlier_frac,
            outlier_range=(d_min, d_max), seed=args.seed + index)
        formats.write_pfm(layout.depth(index), stored.data, stored.mask)
        formats.write_pfm(layout.confidence(index),
                          np.ones(depth.data.shape), depth.mask)
        ys, xs = np.nonzero(depth.mask)
        gt_points.append(geometry.back_project_grid(
            cam, xs.astype(float), ys.astype(float), depth.data[ys, xs]))
    layout.write_pairs(_ring_pairs(args.views))
    formats.write_ply(layout.gt_cloud, fusion.PointCloud._adopt(np.concatenate(gt_points)))
    log.info("wrote %d views to %s (depth range %.1f..%.1f)",
             args.views, args.out, d_lo, d_hi)
    return 0


# ---------------------------------------------------------------------------
# depth


def _load_project(layout: formats.ProjectLayout, n_views: int | None):
    count = layout.view_count()
    if count == 0:
        raise MvsweepError(f"no images under {layout.root}")
    if n_views is not None:
        count = min(count, n_views)
    views = []
    for i in range(count):
        cam, depth_range = formats.read_cam(layout.cam(i))
        image = formats.read_image(layout.image(i))
        views.append((cam, depth_range, image))
    return views, _source_views(layout, count)


def _source_views(layout: formats.ProjectLayout, count: int) -> dict[int, list[int]]:
    """Sources of the first ``count`` views from ``pair.txt`` (default:
    every other view), without the indices at or past ``count``."""
    try:
        pairs = layout.read_pairs()
    except FileNotFoundError:
        pairs = {i: [j for j in range(count) if j != i] for i in range(count)}
    return {i: [j for j in pairs.get(i, []) if j < count] for i in range(count)}


def _feature_extractor(args, tensors):
    if args.features == "photometric":
        return features.photometric_features
    if tensors is not None:
        weights = features.DrenetWeights.from_tensors(tensors)
    else:
        log.warning("no --weights given; using seeded untrained weights")
        weights = features.random_drenet_weights(args.seed)
    return lambda img: features.drenet_forward(img, weights)


def _regularizer(args, tensors):
    if args.regularizer == "passthrough":
        return regularizer.passthrough_regularizer
    # One container may hold both networks: their tensor names differ.
    if tensors is not None:
        weights = regularizer.HuLstmWeights.from_tensors(tensors)
    else:
        weights = regularizer.random_hulstm_weights(args.seed)
    return lambda stream: regularizer.regularize_stream(stream, weights)


def _jobs() -> int:
    """Worker threads for ``depth``, from ``MVSWEEP_JOBS`` (default 1)."""
    raw = os.environ.get("MVSWEEP_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise MvsweepError(f"MVSWEEP_JOBS must be a positive integer, got {raw!r}")
    return jobs


def _hypothesis_space(depth_range: formats.DepthRange, args) -> geometry.HypothesisSpace:
    """The swept depths of one view: its cam's range, ``--num-depths`` samples."""
    d_max = depth_range.d_max
    if d_max is None:
        count = depth_range.count or DEFAULT_DEPTHS
        d_max = depth_range.d_min + depth_range.d_interval * (count - 1)
    return geometry.HypothesisSpace(
        depth_range.d_min, d_max, args.num_depths, args.depth_mode)


def cmd_depth(args) -> int:
    jobs = _jobs()
    if args.views is not None and args.views < 1:
        raise InvalidArgumentError(f"--views must be positive, got {args.views}")
    layout = formats.ProjectLayout(Path(args.input))
    out_layout = formats.ProjectLayout(Path(args.out)) if args.out else layout
    tensors = formats.load_tensors(args.weights) if args.weights else None
    extract = _feature_extractor(args, tensors)
    regularize = _regularizer(args, tensors)
    views, pairs = _load_project(layout, args.views)
    # Everything that can reject the views runs before anything is written.
    spaces = [_hypothesis_space(depth_range, args) for _, depth_range, _ in views]
    if not any(pairs.values()):
        raise MvsweepError(
            f"no estimated view has a source view among the {len(views)} "
            "view(s) estimated; depth needs a reference and at least one source")
    feats = [extract(image) for _, _, image in views]
    out_layout.make_dirs()
    if out_layout.root.resolve() != layout.root.resolve():
        # The estimated views' inputs go along unchanged, so that the
        # output directory is a project that ``fuse`` can read.
        for i in range(len(views)):
            shutil.copyfile(layout.image(i), out_layout.image(i))
            shutil.copyfile(layout.cam(i), out_layout.cam(i))
        out_layout.write_pairs(pairs)

    def run_view(ref: int) -> None:
        src_ids = pairs[ref]
        if not src_ids:
            log.warning("view %d has no source views; its depth map is fully masked",
                        ref)
            shape = feats[ref].shape[:2]
            formats.write_pfm(out_layout.depth(ref), np.zeros(shape),
                              np.zeros(shape, dtype=bool))
            formats.write_pfm(out_layout.confidence(ref), np.zeros(shape))
            return
        stream = costvol.cost_volume_stream(
            feats[ref], [feats[j] for j in src_ids], views[ref][0],
            [views[j][0] for j in src_ids], spaces[ref])
        scores = regularize(stream)
        depth, confidence = estimator.online_softmax_wta(scores, spaces[ref])
        formats.write_pfm(out_layout.depth(ref), depth.data, depth.mask)
        formats.write_pfm(out_layout.confidence(ref), confidence)
        log.info("view %d: depth map done", ref)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run_view, range(len(views))))
    else:
        for ref in range(len(views)):
            run_view(ref)
    return 0


# ---------------------------------------------------------------------------
# fuse


def _load_estimates(layout: formats.ProjectLayout) -> list[fusion.ViewEstimate]:
    count = layout.view_count()
    if count == 0:
        raise MvsweepError(f"no images under {layout.root}")
    estimates = []
    for i in range(count):
        cam, _ = formats.read_cam(layout.cam(i))
        depth_arr = formats.read_pfm(layout.depth(i)).astype(np.float64)
        conf = np.nan_to_num(
            formats.read_pfm(layout.confidence(i)).astype(np.float64))
        image = formats.read_image(layout.image(i))
        estimates.append(fusion.ViewEstimate(
            camera=cam, depth=DepthMap(depth_arr), confidence=conf, image=image))
    return estimates


def cmd_fuse(args) -> int:
    layout = formats.ProjectLayout(Path(args.input))
    params = fusion.FusionParams(
        lam=args.lam, tau=args.tau, phi=args.phi,
        tau1=args.tau1, tau2=args.tau2, min_views=args.min_views)
    estimates = _load_estimates(layout)
    pairs = _source_views(layout, len(estimates))
    # Confidence gating first, so weak pixels neither survive nor vouch.
    gated = [fusion.probability_filter(v, params.phi) for v in estimates]
    filtered = []
    for i, view in enumerate(gated):
        srcs = [gated[j] for j in pairs[i]]
        if args.filter == "dynamic":
            filtered.append(fusion.dynamic_filter(view, srcs, params))
        else:
            filtered.append(fusion.fixed_threshold_filter(view, srcs, params))
    cloud = fusion.fuse_point_cloud(filtered, lam=params.lam)
    out = Path(args.out) if args.out else layout.cloud
    formats.write_ply(out, cloud, mode="ascii" if args.ascii else "binary")
    kept = sum(v.depth.valid_count for v in filtered)
    total = sum(v.depth.data.size for v in filtered)
    log.info("%s filter kept %d/%d pixels; %d points -> %s",
             args.filter, kept, total, len(cloud), out)
    if len(cloud) == 0:
        confident = sum(v.depth.valid_count for v in gated)
        print(f"warning: fused cloud is empty (φ gate kept {confident}/{total} "
              f"pixels, consistency gate kept {kept})", file=sys.stderr)
    print(f"points={len(cloud)}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    recon = formats.read_ply(args.recon)
    truth = formats.read_ply(args.gt)
    report = metrics.evaluate_clouds(recon, truth, args.threshold, args.max_dist)
    print(report.to_text())
    if args.json_out:
        Path(args.json_out).write_text(report.to_json() + "\n")
    return 0


# ---------------------------------------------------------------------------
# check


def _battery() -> list[tuple[str, bool]]:
    results = []

    def run(name, fn):
        try:
            fn()
            results.append((name, True))
        except Exception:  # deliberate: any failure marks the check
            log.exception("check %s failed", name)
            results.append((name, False))

    def check_camera_round_trip():
        rng = np.random.default_rng(1)
        rig = synth.CameraRigSpec(n_views=5)
        for cam in synth.make_camera_ring(rig):
            point = rng.uniform(-50, 50, 3)
            pixel, depth = geometry.project(cam, point)
            back = geometry.back_project(cam, pixel, depth)
            assert np.max(np.abs(back - point)) < 1e-8

    def check_hypothesis_sampling():
        space = geometry.HypothesisSpace(425.0, 745.0, 128)
        depths = geometry.sample_hypotheses(space)
        assert depths[0] == 425.0 and depths[-1] == 745.0
        assert abs(np.diff(depths).max() - 320.0 / 127.0) < 1e-12

    def check_reprojection_chain():
        rig = synth.CameraRigSpec(n_views=3, width=32, height=24, focal=70.0)
        cams = synth.make_camera_ring(rig)
        surface = synth.Plane()
        sampler = synth.AnalyticDepth(cams[1], surface, 32, 24)
        own = synth.AnalyticDepth(cams[0], surface, 32, 24)
        pixel = (15.0, 11.0)
        depth = own.depth_at(*pixel)
        result = geometry.reproject(cams[0], cams[1], pixel, depth, sampler)
        assert result is not None
        xi_p, xi_d = geometry.reprojection_errors(pixel, result[0], depth, result[1])
        assert xi_p < 1e-9 and xi_d < 1e-12
        # The closed-form chain against lift-then-project per pixel, at
        # depths off the surface so that the trip back does not close.
        def move(cam_from, cam_to, x, y, d):
            point = cam_from.proj_m_inv @ (d * np.array([x, y, 1.0]) - cam_from.proj_t)
            w = cam_to.proj_m @ point + cam_to.proj_t
            return w[0] / w[2], w[1] / w[2], w[2]

        ys, xs = np.mgrid[0:24, 0:32].astype(np.float64)
        scale = np.random.default_rng(6).uniform(0.8, 1.25, xs.shape)
        depths = own.depth_grid(xs, ys) * scale
        _, p2, d2, valid = geometry.reproject_chain_map(
            cams[0], cams[1], xs, ys, depths, sampler)
        assert valid.any() and not valid.all()
        for idx in np.ndindex(xs.shape):
            qx, qy, d_fwd = move(cams[0], cams[1], xs[idx], ys[idx], depths[idx])
            d_src = sampler.depth_at(qx, qy) if d_fwd > 0 else math.nan
            x2, y2, back = move(cams[1], cams[0], qx, qy, d_src)
            assert valid[idx] == (0.0 < d_src < math.inf and back > 0)
            if valid[idx]:
                assert max(abs(p2[idx][0] - x2), abs(p2[idx][1] - y2)) < 1e-9
                assert abs(d2[idx] - back) < 1e-9 * back

    def check_depth_lookup():
        # The nearest-pixel gather against a plain loop on a non-square
        # map, so that a swapped width and height reads the wrong pixel.
        rng = np.random.default_rng(7)
        h, w = 5, 8
        data = rng.uniform(1.0, 9.0, (h, w))
        mask = rng.random((h, w)) > 0.25
        dm = DepthMap(data, mask)
        xs = np.concatenate([rng.uniform(-1.0, w, 80),
                             [0.0, w - 1.0, 2.5, -0.0, w - 0.5, np.nan, np.inf]])
        ys = np.concatenate([rng.uniform(-1.0, h, 80),
                             [h - 1.0, 0.0, 3.5, 1.5, 1.0, 1.0, -np.inf]])
        got = dm.depth_grid(xs, ys)
        for x, y, value in zip(xs.tolist(), ys.tolist(), got.tolist()):
            want = math.nan
            if 0.0 <= x <= w - 1.0 and 0.0 <= y <= h - 1.0:
                ix, iy = math.floor(x + 0.5), math.floor(y + 0.5)
                if mask[iy, ix]:
                    want = float(data[iy, ix])
            assert value == want or (math.isnan(value) and math.isnan(want))
        # Every pixel center, as an (h, 1) column against a (w,) row.
        grid = dm.depth_grid(np.arange(w, dtype=float), np.arange(h, dtype=float)[:, None])
        assert np.array_equal(grid, np.where(mask, data, np.nan), equal_nan=True)

    def check_conv_oracle():
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 6, 3))
        x32 = x.astype(np.float32)
        # One map, the same map as two channel blocks, a one-output-channel
        # kernel (a score head), and the map in float32, whose products run
        # in single precision and are held to float32 rounding.
        for blocks, out_ch in ((x, 2), ((x[:, :, :1], x[:, :, 1:]), 2), (x, 1),
                               (x32, 2), (x32, 1)):
            kernel = rng.normal(size=(out_ch, 3, 3, 3))
            bias = rng.normal(size=out_ch)
            for dilation in (1, 2, 3):
                got = features.conv3x3(blocks, kernel, bias, dilation=dilation)
                want = np.zeros((5, 6, out_ch))
                for y in range(5):
                    for xx in range(6):
                        for o in range(out_ch):
                            acc = bias[o]
                            for ky in range(3):
                                for kx in range(3):
                                    yy = y + (ky - 1) * dilation
                                    xc = xx + (kx - 1) * dilation
                                    if 0 <= yy < 5 and 0 <= xc < 6:
                                        acc += kernel[o, :, ky, kx] @ x[yy, xc]
                            want[y, xx, o] = acc
                single = blocks is x32
                assert got.dtype == (np.float32 if single else np.float64)
                bound = 1e-5 * np.max(np.abs(want)) if single else 1e-9
                assert np.max(np.abs(got - want)) < bound

    def check_upsample_phases():
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 5, 3))
        kernel = rng.normal(size=(2, 3, 3, 3))
        bias = rng.normal(size=2)
        stuffed = np.zeros((8, 10, 3))
        stuffed[::2, ::2] = x
        full = features.conv3x3(stuffed, kernel, bias)
        for out_hw in ((8, 10), (7, 9)):
            got = regularizer._upsample_conv(x, kernel, bias, out_hw)
            want = full[:out_hw[0], :out_hw[1]]
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-9
            got = regularizer._upsample_conv(x.astype(np.float32), kernel, bias, out_hw)
            assert got.dtype == np.float32
            assert np.max(np.abs(got - want)) < 1e-5 * np.max(np.abs(want))

    def check_bilinear_sample():
        def bilinear(values, x, y):
            h, w, _ = values.shape
            x0, y0 = min(int(x), max(w - 2, 0)), min(int(y), max(h - 2, 0))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = x - x0, y - y0
            return ((1 - fy) * ((1 - fx) * values[y0, x0] + fx * values[y0, x1])
                    + fy * ((1 - fx) * values[y1, x0] + fx * values[y1, x1]))

        def agrees(values, xs, ys, want_valid):
            sampled, valid = costvol.bilinear_sample(values, np.stack([xs, ys], axis=-1))
            assert valid.tolist() == want_valid
            assert np.array_equal(sampled[~valid], np.zeros((len(xs) - valid.sum(), 4)))
            for x, y, got in zip(xs[valid], ys[valid], sampled[valid]):
                assert np.max(np.abs(got - bilinear(values, x, y))) < 1e-12

        rng = np.random.default_rng(5)
        values = rng.normal(size=(5, 7, 4))
        values[0, 0] = np.inf  # the sampler must never read it for an invalid query
        xs = np.concatenate([rng.uniform(0.0, 6.0, 40), [6.0, 0.0, -0.5, 7.5, np.nan]])
        ys = np.concatenate([rng.uniform(1.0, 4.0, 40), [4.0, 2.5, 1.0, 1.0, 1.0]])
        agrees(values, xs, ys, [True] * 42 + [False] * 3)
        # A one-pixel-tall map, queried up to and onto its far end.
        row = rng.normal(size=(1, 6, 4))
        xs = np.concatenate([rng.uniform(0.0, 5.0, 20), [5.0, 0.0, 5.5]])
        agrees(row, xs, np.zeros(23), [True] * 22 + [False])
        # A one-pixel-wide map: every query sits on x = width - 1, so its
        # right tap must stay on its own pixel.  One step right in the
        # flat map is the next row, and only such a step reaches the inf.
        column = rng.normal(size=(6, 1, 4))
        column[5] = np.inf
        ys = np.concatenate([rng.uniform(0.0, 4.0, 20), [3.5, 0.0, 6.0]])
        agrees(column, np.zeros(23), ys, [True] * 22 + [False])
        # A batch with no valid query is an empty sparse matrix.
        xs = np.array([-1.0, 7.0, np.inf, np.nan, 3.0])
        ys = np.array([2.0, 2.0, 2.0, 2.0, -np.inf])
        agrees(values, xs, ys, [False] * 5)

    def check_cost_slice():
        # The streamed variance against a population variance written out
        # in Python over the reference and the source sample, where the
        # point at the swept depth lands inside the source; the rotated
        # source leaves some reference pixels uncovered.
        h, w, depth = 4, 6, 8.0
        k = np.array([[6.0, 0.0, 2.5], [0.0, 6.0, 1.5], [0.0, 0.0, 1.0]])
        c, s = math.cos(0.1), math.sin(0.1)
        rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        ref_cam = geometry.Camera(k, np.eye(3), np.zeros(3))
        src_cam = geometry.Camera(k, rot, np.array([-2.0, 0.3, 0.0]))
        rng = np.random.default_rng(9)
        ref, src = rng.normal(size=(2, h, w, 2))
        sl = costvol.build_cost_slice(ref, [src], ref_cam, [src_cam], depth)
        uncovered = 0
        for y, x in itertools.product(range(h), range(w)):
            point = geometry.back_project(ref_cam, (x, y), depth)
            (sx, sy), _ = geometry.project(src_cam, point)
            samples = [ref[y, x].tolist()]
            if 0.0 <= sx <= w - 1.0 and 0.0 <= sy <= h - 1.0:
                x0, y0 = min(int(sx), w - 2), min(int(sy), h - 2)
                fx, fy = sx - x0, sy - y0
                samples.append([
                    (1 - fy) * ((1 - fx) * src[y0, x0, ch] + fx * src[y0, x0 + 1, ch])
                    + fy * ((1 - fx) * src[y0 + 1, x0, ch] + fx * src[y0 + 1, x0 + 1, ch])
                    for ch in range(2)])
            else:
                uncovered += 1
            assert sl.valid_views[y, x] == len(samples)
            for ch in range(2):
                column = [sample[ch] for sample in samples]
                mean = sum(column) / len(column)
                want = sum((v - mean) ** 2 for v in column) / len(column)
                assert abs(sl.cost[y, x, ch] - want) < 1e-12
        assert 0 < uncovered < h * w

    def check_texture_oracle():
        # The shared-lattice noise routine against a per-point formula:
        # the hash in Python integers and an eight-corner weighted sum.
        def lattice(ix, iy, iz, seed):
            h = (ix * 0x8DA6B343 ^ iy * 0xD8163841 ^ iz * 0xCB1AB31F
                 ^ seed * 0x9E3779B9) & 0xFFFFFFFF
            h ^= h >> 13
            h = (h * 0x85EBCA6B) & 0xFFFFFFFF
            return (h ^ h >> 16) / 4294967296.0

        def noise(point, seed, scale, octaves):
            total = norm = 0.0
            amp, cell = 1.0, scale
            for octave in range(octaves):
                base = [math.floor(c / cell) for c in point]
                frac = [c / cell - b for c, b in zip(point, base)]
                t = [f * f * (3.0 - 2.0 * f) for f in frac]
                value = 0.0
                for offset in itertools.product((0, 1), repeat=3):
                    weight = math.prod(w if o else 1.0 - w for o, w in zip(offset, t))
                    value += weight * lattice(*(b + o for b, o in zip(base, offset)),
                                              seed + 7919 * octave)
                total += amp * value
                norm += amp
                amp *= 0.5
                cell *= 0.5
            return total / norm

        points = np.random.default_rng(8).uniform(-300.0, 300.0, (6, 3))
        points[-1] = (-4.1e10, 7.3e10, -2.2e10)  # lattice products wrap
        seeds = (0, 131, 262)
        for scale, octaves in ((60.0, 2), (17.0, 3)):
            got = synth._noise_fields(points, seeds, scale, octaves)
            assert got.shape == (len(points), len(seeds))
            for point, row in zip(points.tolist(), got):
                for seed, value in zip(seeds, row):
                    assert abs(value - noise(point, seed, scale, octaves)) < 1e-12

    def check_streaming_softmax():
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(16, 4, 5))
        space = geometry.HypothesisSpace(1.0, 2.0, 16)
        stream = (regularizer.ScoreSlice(index=i, score=scores[i])
                  for i in range(16))
        depth, conf = estimator.online_softmax_wta(stream, space)
        prob = estimator.softmax_volume(scores)
        argmax = scores.argmax(axis=0)
        depths = geometry.sample_hypotheses(space)
        assert np.array_equal(depth.data, depths[argmax])
        # Confidence is the probability mass of the winner and the
        # neighbors on either side that exist.
        taps = argmax + np.arange(-1, 2)[:, None, None]
        inside = (taps >= 0) & (taps < 16)
        picked = np.take_along_axis(prob, np.clip(taps, 0, 15), axis=0)
        assert np.allclose(conf, np.where(inside, picked, 0.0).sum(axis=0),
                           rtol=1e-9, atol=0.0)

    def check_consistency_values():
        assert abs(fusion.consistency_from_errors(1.0, 0.01, 200.0)
                   - np.exp(-3.0)) < 1e-12

    def check_nearest_distance():
        # The tree-ordered query against a pairwise scan, in the caller's
        # order.  Repeated rows in both clouds, and queries that sit on
        # reference points, make ties and zero distances.
        rng = np.random.default_rng(10)
        ref = rng.normal(size=(200, 3))
        ref[150:] = ref[:50]
        query = rng.normal(size=(200, 3))
        query[100:120] = query[:20]
        query[120:140] = ref[:20]
        got = metrics.nearest_distance(fusion.PointCloud(query), fusion.PointCloud(ref))
        assert got.shape == (200,)
        for point, value in zip(query.tolist(), got.tolist()):
            want = min(math.dist(point, other) for other in ref.tolist())
            assert abs(value - want) < 1e-12

    def check_formats_round_trip():
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            rig = synth.CameraRigSpec(n_views=1)
            cam = synth.make_camera_ring(rig)[0]
            formats.write_cam(tmp / "c.txt", cam, formats.DepthRange(1.0, 0.5, 4, 2.5))
            cam2, dr = formats.read_cam(tmp / "c.txt")
            assert np.max(np.abs(cam2.rotation - cam.rotation)) < 1e-9
            assert dr.count == 4
            data = np.array([[1.5, np.nan], [0.25, 8.0]], dtype=np.float32)
            formats.write_pfm(tmp / "d.pfm", data)
            back = formats.read_pfm(tmp / "d.pfm")
            assert np.array_equal(back, data, equal_nan=True)
            cloud = fusion.PointCloud(np.array([[1.0, 2.0, 3.0]]),
                                      np.array([[9, 8, 7]], dtype=np.uint8))
            formats.write_ply(tmp / "p.ply", cloud)
            back_cloud = formats.read_ply(tmp / "p.ply")
            assert np.allclose(back_cloud.xyz, cloud.xyz)

    run("camera_round_trip", check_camera_round_trip)
    run("hypothesis_sampling", check_hypothesis_sampling)
    run("reprojection_chain", check_reprojection_chain)
    run("depth_lookup", check_depth_lookup)
    run("conv_oracle", check_conv_oracle)
    run("upsample_phases", check_upsample_phases)
    run("bilinear_sample", check_bilinear_sample)
    run("cost_slice", check_cost_slice)
    run("texture_oracle", check_texture_oracle)
    run("streaming_softmax", check_streaming_softmax)
    run("consistency_values", check_consistency_values)
    run("nearest_distance", check_nearest_distance)
    run("formats_round_trip", check_formats_round_trip)
    return results


def cmd_check(args) -> int:
    results = _battery()
    for name, ok in results:
        print(f"{name}: {'ok' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in results) else 1


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    handlers = {
        "synth": cmd_synth,
        "depth": cmd_depth,
        "fuse": cmd_fuse,
        "eval": cmd_eval,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (MvsweepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
