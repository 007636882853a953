"""Command-line pipeline: synth -> depth -> fuse -> eval, plus check.

Subcommands operate on a project directory laid out per
:class:`~mvsweep.formats.ProjectLayout`.  ``synth`` fabricates a ground
truth scene, ``depth`` estimates per-view depth maps by plane sweep,
``fuse`` filters and merges them into a point cloud, ``eval`` scores a
cloud against a reference, and ``check`` runs the reference battery
of :mod:`mvsweep.oracles`.

Reference views in ``depth`` are independent; set ``MVSWEEP_JOBS`` to
process several concurrently (results are identical regardless).  It
sets only those view threads: BLAS chooses its own, and ``eval``'s
nearest-distance queries run on every CPU.
"""

from __future__ import annotations

import argparse
import logging
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import costvol, estimator, features, formats, fusion, geometry, metrics
from . import oracles, regularizer, synth
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


def cmd_check(args) -> int:
    results = oracles.battery()
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
