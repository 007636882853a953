"""Dynamic versus fixed consistency filtering, end to end.

Builds per-view depth estimates on a textured plane, corrupts one view
with 10% outliers, then filters with (a) the dynamic rule, which sums
soft matching scores exp(-(xi_p + lambda * xi_d)) over all sources and
thresholds the total, and (b) the classical fixed rule, which counts
sources passing hard xi_p/xi_d cutoffs. The dynamic sum lets many
good-but-imperfect sources vouch for a pixel that the hard count drops,
while outliers fail both. The surviving views are fused into one
deduplicated cloud and scored against the ground-truth surface.

Run:  python3 demos/04_fusion_filters.py
"""

import numpy as np

from mvsweep import (
    costvol,
    estimator,
    features,
    fusion,
    geometry,
    metrics,
    regularizer,
    synth,
)

WIDTH, HEIGHT, DEPTHS = 48, 36, 24


def estimate_views(cams, rendered, space):
    feats = [features.photometric_features(image) for image, _ in rendered]
    views = []
    for i in range(len(cams)):
        others = [j for j in range(len(cams)) if j != i]
        stream = costvol.cost_volume_stream(
            feats[i], [feats[j] for j in others],
            cams[i], [cams[j] for j in others], space)
        depth, _ = estimator.online_softmax_wta(
            regularizer.passthrough_regularizer(stream), space)
        views.append(fusion.ViewEstimate(camera=cams[i], depth=depth))
    return views


def main() -> None:
    rig = synth.CameraRigSpec(
        n_views=5, width=WIDTH, height=HEIGHT,
        focal=1900.0, radius=110.0, standoff=600.0)
    cams = synth.make_camera_ring(rig)
    scene = synth.SceneSpec(surface=synth.Plane(), texture_seed=3,
                            noise_scale=2.0, noise_octaves=2)
    rendered = synth.render_scene(scene, cams, WIDTH, HEIGHT)
    gt = [depth for _, depth in rendered]

    lo = min(float(np.nanmin(d.data)) for d in gt)
    hi = max(float(np.nanmax(d.data)) for d in gt)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    space = geometry.HypothesisSpace(mid - 2.5 * half, mid + 2.5 * half, DEPTHS)
    step = (space.d_max - space.d_min) / (DEPTHS - 1)

    views = estimate_views(cams, rendered, space)
    views[2] = fusion.ViewEstimate(
        camera=views[2].camera,
        depth=synth.perturb_depths(views[2].depth, outlier_frac=0.10,
                                   outlier_range=(space.d_min, space.d_max),
                                   seed=9))
    print(f"estimated {len(views)} views; view 2 carries 10% outliers")

    # The weight-free confidence is nearly uniform, so the views skip the
    # probability gate (fusion.probability_filter) and consistency alone
    # decides.
    params = fusion.FusionParams()
    print()
    print("view   dynamic kept (correct/wrong)   fixed kept (correct/wrong)")
    # Each view's sources are all the others; the filters and fusion
    # read the same lists.
    sources = [[j for j in range(len(views)) if j != i] for i in range(len(views))]
    dyn_views = []
    for i, view in enumerate(views):
        others = [views[j] for j in sources[i]]
        dyn = fusion.dynamic_filter(view, others, params)
        fix = fusion.fixed_threshold_filter(view, others, params)
        dyn_views.append(dyn)
        within = np.abs(view.depth.data - gt[i].data) <= step
        row = []
        for kept in (dyn.depth.mask, fix.depth.mask):
            row.append(f"{int((kept & within).sum()):5d}/{int((kept & ~within).sum()):3d}")
        print(f"  {i}        {row[0]:>12s}              {row[1]:>12s}")

    cloud = fusion.fuse_point_cloud(dyn_views, sources, lam=params.lam)
    ys, xs = np.mgrid[0:HEIGHT, 0:WIDTH].astype(np.float64)
    gt_points = np.concatenate([
        geometry.back_project_grid(cam, xs, ys, d.data)[d.mask]
        for cam, d in zip(cams, gt)
    ])
    report = metrics.evaluate_clouds(cloud, fusion.PointCloud(gt_points),
                                     threshold=step)
    print()
    print(f"fused cloud: {len(cloud)} points (duplicates merged across views)")
    print(f"f-score vs ground truth at one bin spacing: {report.f_score:.3f}")
    print(f"accuracy {report.accuracy:.2f} / completeness {report.completeness:.2f} "
          f"(mean distances, units of the scene)")


if __name__ == "__main__":
    main()
