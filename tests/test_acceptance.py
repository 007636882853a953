"""Shipping acceptance battery: one test per release criterion.

Each test prints a single ``[acceptance] criterion N: PASS/FAIL`` line
(run with ``pytest -s`` to see them live) and then asserts, so a failing
run still reports every criterion's verdict.  The quantitative checks
use desk-scale synthetic scenes with frozen seeds.  Their references
(the ConvLSTM cell, the two-pass softmax) live in ``mvsweep.oracles``,
shared with ``mvsweep check`` and the unit tests, and never call the code
they check.  Every CLI output's sha256 is pinned in ``output_manifest.json``;
a change that alters outputs by design regenerates it with ``PYTHONPATH=src
python tests/test_output_manifest.py --write`` and says so in CHANGES.md.
"""

import gc
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from mvsweep import (
    costvol,
    estimator,
    features,
    formats,
    fusion,
    geometry,
    metrics,
    oracles,
    regularizer,
    synth,
)
from mvsweep.depthmap import DepthMap
from test_regularizer import _random_cell


def _verdict(number: int, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number}: {status}")
    assert not failures, f"criterion {number}: {failures}"


# ---------------------------------------------------------------------------
# Criterion 1: geometry round-trip oracle on a synthetic sphere ring


def test_criterion_1_geometry_oracle():
    start = time.perf_counter()
    rig = synth.CameraRigSpec(n_views=7)
    cams = synth.make_camera_ring(rig)
    surface = synth.Sphere()
    samplers = [
        synth.AnalyticDepth(cam, surface, rig.width, rig.height) for cam in cams
    ]
    ys, xs = np.mgrid[0:rig.height, 0:rig.width].astype(np.float64)

    failures = []
    covisible_total = 0
    for i in range(7):
        depth_i = samplers[i].depth_grid(xs, ys)
        hit = np.isfinite(depth_i)
        depth_i = np.where(hit, depth_i, np.nan)
        for j in range(7):
            if j == i:
                continue
            # Co-visibility: the forward landing in view j must see the
            # same surface point, i.e. the first intersection along j's
            # ray equals the forward depth (otherwise the point is
            # occluded by the near side of the sphere or off-frame).
            points = geometry.back_project_grid(cams[i], xs, ys, depth_i)
            q, d_fwd = geometry.project_points(cams[j], points)
            with np.errstate(invalid="ignore"):
                first = samplers[j].depth_grid(q[..., 0], q[..., 1])
                covis = (
                    hit & (d_fwd > 0) & np.isfinite(first)
                    & (np.abs(first - d_fwd) < 1e-6 * d_fwd)
                )
            if not covis.any():
                failures.append(f"pair ({i},{j}) has no co-visible pixels")
                continue
            covisible_total += int(covis.sum())
            _, p2, d2 = geometry.reproject_chain_map(
                cams[i], cams[j], xs, ys, depth_i, samplers[j])
            if not np.isfinite(d2[covis]).all():
                failures.append(f"pair ({i},{j}) round trip lost pixels")
                continue
            with np.errstate(invalid="ignore"):
                xi_p, xi_d = geometry.reprojection_errors_map(
                    xs, ys, p2, depth_i, d2)
            if not (xi_p[covis] < 1e-5).all():
                failures.append(f"pair ({i},{j}) xi_p max {xi_p[covis].max():.3g}")
            if not (xi_d[covis] < 1e-7).all():
                failures.append(f"pair ({i},{j}) xi_d max {xi_d[covis].max():.3g}")
    elapsed = time.perf_counter() - start

    if covisible_total < 1000:
        failures.append(f"only {covisible_total} co-visible pixels overall")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _verdict(1, failures)


# ---------------------------------------------------------------------------
# Criterion 2: matching-score values and the two-good-views case


def _fronto_camera(center_x: float) -> geometry.Camera:
    k = np.array([[64.0, 0.0, 32.0], [0.0, 64.0, 24.0], [0.0, 0.0, 1.0]])
    rotation = np.eye(3)
    translation = -np.array([center_x, 0.0, 0.0])
    return geometry.Camera(k, rotation, translation)


def _constant_view(center_x: float, width=64, height=48,
                   depth=512.0) -> fusion.ViewEstimate:
    data = np.full((height, width), depth)
    return fusion.ViewEstimate(
        camera=_fronto_camera(center_x),
        depth=DepthMap(data),
    )


def test_criterion_2_consistency_values():
    failures = []

    score = float(fusion._scores(np.array([1.0]), np.array([0.01]), 200.0)[0])
    if abs(score - math.exp(-3.0)) >= 1e-9:
        failures.append(f"c(1, 0.01) = {score!r}, expected e^-3")

    # Fronto-parallel cameras at power-of-two baselines over a constant
    # depth-512 plane: every reprojection is exact in binary floating
    # point, so six perfect sources must sum to exactly 6.0.
    ref = _constant_view(0.0)
    srcs = [_constant_view(8.0 * j) for j in range(1, 7)]
    total = fusion.dynamic_consistency_map(ref, srcs, lam=200.0)
    interior = total[:, 6:]  # columns whose warps stay in every source
    if not (interior == 6.0).all():
        failures.append(f"perfect-source sum ranges {interior.min()}..{interior.max()}")

    # Two perfect views: the summed score 2.0 clears tau=1.8 while the
    # fixed filter's min_views=3 support count cannot be met.
    two = srcs[:2]
    params = fusion.FusionParams()  # lam=200, tau=1.8, min_views=3
    kept_dyn = fusion.dynamic_filter(ref, two, params).depth.mask
    kept_fix = fusion.fixed_threshold_filter(ref, two, params).depth.mask
    probe = (24, 32)
    if not kept_dyn[probe]:
        failures.append("dynamic filter dropped a two-perfect-view pixel")
    if kept_fix.any():
        failures.append("fixed filter kept pixels with only 2 supporting views")
    _verdict(2, failures)


# ---------------------------------------------------------------------------
# Criterion 3: ConvLSTM cell versus gate-by-gate reference


def test_criterion_3_convlstm_oracle():
    failures = []
    rng = np.random.default_rng(7)
    in_ch, hidden = 3, 4
    weights = _random_cell(rng, in_ch, hidden)
    x = rng.standard_normal((5, 5, in_ch))
    h_prev = rng.uniform(-1.0, 1.0, (5, 5, hidden))
    c_prev = rng.uniform(-2.0, 2.0, (5, 5, hidden))

    h_got, (_, c_got) = regularizer.conv_lstm_cell(x, (h_prev, c_prev), weights)

    h_ref, c_ref = oracles.conv_lstm_cell(x, h_prev, c_prev, weights.kernel, weights.bias)

    h_diff = np.abs(h_got - h_ref).max()
    c_diff = np.abs(c_got - c_ref).max()
    if h_diff >= 1e-6:
        failures.append(f"hidden diff {h_diff:.3g}")
    if c_diff >= 1e-6:
        failures.append(f"cell diff {c_diff:.3g}")

    # Range invariants under adversarial inputs: the output is a
    # sigmoid-gated tanh so |h| <= 1, and |c'| <= |c| + 1 elementwise.
    for trial in range(10_000):
        w = _random_cell(rng, 2, 2, scale=2.0)
        x = rng.standard_normal((2, 2, 2)) * 3.0
        h0 = rng.uniform(-1.0, 1.0, (2, 2, 2))
        c0 = rng.uniform(-5.0, 5.0, (2, 2, 2))
        h1, (_, c1) = regularizer.conv_lstm_cell(x, (h0, c0), w)
        if not np.isfinite(h1).all() or np.abs(h1).max() > 1.0:
            failures.append(f"trial {trial}: hidden escaped [-1, 1]")
            break
        if (np.abs(c1) > np.abs(c0) + 1.0 + 1e-12).any():
            failures.append(f"trial {trial}: cell grew faster than forget+input allow")
            break
    _verdict(3, failures)


# ---------------------------------------------------------------------------
# Criterion 4: streaming selection equals the two-pass reference


def test_criterion_4_streaming_equivalence():
    failures = []
    depth_count, height, width = 32, 9, 7
    space = geometry.HypothesisSpace(100.0, 400.0, depth_count)
    depths = geometry.sample_hypotheses(space)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        volume = rng.standard_normal((depth_count, height, width)) * 3.0
        if seed == 3:  # stress the running renormalization
            volume = volume * 100.0 + 500.0
        slices = [regularizer.ScoreSlice(score=score) for score in volume]
        est_depth, est_conf = estimator.online_softmax_wta(iter(slices), space)
        winner, conf = oracles.softmax_wta(volume)
        if not (est_depth.data == depths[winner]).all():
            failures.append(f"seed {seed}: argmax mismatch")
        diff = np.abs(est_conf - conf).max()
        if diff >= 1e-6:
            failures.append(f"seed {seed}: probability diff {diff:.3g}")
    _verdict(4, failures)


# ---------------------------------------------------------------------------
# Criterion 5: recurrent regularization memory is depth-count independent


def _stream_peak(depth_count: int, weights) -> tuple[int, int]:
    """Peak traced bytes of one HU-LSTM sweep and most score slices alive at once."""
    rng = np.random.default_rng(11)
    refs = []
    most_alive = 0

    def cost_slices():
        for _ in range(depth_count):
            yield costvol.CostSlice(
                cost=rng.standard_normal((6, 8, 32)),
                valid_views=np.ones((6, 8), dtype=np.int64))

    def sweep():
        nonlocal most_alive
        for score in regularizer.regularize_stream(cost_slices(), weights):
            refs.append(weakref.ref(score))
            most_alive = max(most_alive, sum(ref() is not None for ref in refs))

    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sweep()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return peak, most_alive


def test_criterion_5_memory_scaling():
    weights = regularizer.random_hulstm_weights(seed=0, in_channels=32)
    _stream_peak(1, weights)  # warm-up: first-call allocations stay out of the peaks
    small, _ = _stream_peak(16, weights)
    large, most_alive = _stream_peak(256, weights)
    failures = []
    # One float32 recurrent state is ~31 kB here, so keeping the 240 extra
    # states adds ~7.5 MB; interpreter free lists account for ~0.2 MB of growth.
    if large - small > 1_000_000:
        failures.append(f"peak {small} B at D=16 grew to {large} B at D=256")
    # Score slices are too small at 6x8 to show in the bytes, so count
    # them exactly: only the one being consumed may be alive.
    if most_alive > 1:
        failures.append(f"{most_alive} score slices alive at once")
    _verdict(5, failures)


# ---------------------------------------------------------------------------
# Criterion 6: cross-entropy value and analytic gradient


def test_criterion_6_loss_and_gradient():
    failures = []
    space = geometry.HypothesisSpace(10.0, 16.0, 4)
    samples = geometry.sample_hypotheses(space)

    uniform = np.full((4, 1, 1), 0.25)
    gt_single = DepthMap(np.full((1, 1), samples[1]))
    loss = estimator.cross_entropy_loss(uniform, gt_single, space)
    if abs(loss - math.log(4.0)) >= 1e-9:
        failures.append(f"uniform loss {loss!r} != ln 4")

    rng = np.random.default_rng(21)
    scores = rng.standard_normal((4, 3, 3))
    bins = rng.integers(0, 4, (3, 3))
    depths = samples[bins]
    depths[2, 2] = np.nan  # gradient must be zeroed where truth is missing
    gt = DepthMap(depths)

    analytic = estimator.loss_gradient_logits(scores, gt, space)
    step = 1e-5
    numeric = np.zeros_like(scores)
    for d in range(4):
        for y in range(3):
            for x in range(3):
                plus = scores.copy()
                plus[d, y, x] += step
                minus = scores.copy()
                minus[d, y, x] -= step
                loss_plus = estimator.cross_entropy_loss(
                    estimator.softmax_volume(plus), gt, space)
                loss_minus = estimator.cross_entropy_loss(
                    estimator.softmax_volume(minus), gt, space)
                numeric[d, y, x] = (loss_plus - loss_minus) / (2.0 * step)
    rel = np.abs(analytic - numeric).max() / np.abs(numeric).max()
    if rel >= 1e-4:
        failures.append(f"gradient relative error {rel:.3g}")
    if analytic[:, 2, 2].any():
        failures.append("gradient not zeroed on masked pixel")
    _verdict(6, failures)


# ---------------------------------------------------------------------------
# Criteria 7 and 8: weight-free end-to-end reconstruction on a textured
# plane, shared between the recovery and filter-comparison checks.


WIDTH, HEIGHT, DEPTH_COUNT = 64, 48, 32


@pytest.fixture(scope="module")
def plane_pipeline():
    start = time.perf_counter()
    rig = synth.CameraRigSpec(
        n_views=7, width=WIDTH, height=HEIGHT,
        focal=2600.0, radius=123.0, standoff=600.0)
    cams = synth.make_camera_ring(rig)
    scene = synth.SceneSpec(
        surface=synth.Plane(), texture_seed=0, noise_scale=2.0, noise_octaves=2)
    rendered = synth.render_scene(scene, cams, WIDTH, HEIGHT)
    gt_maps = [depth for _, depth in rendered]

    lo = min(float(np.nanmin(d.data)) for d in gt_maps)
    hi = max(float(np.nanmax(d.data)) for d in gt_maps)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    space = geometry.HypothesisSpace(
        mid - half * 2.7, mid + half * 2.7, DEPTH_COUNT)

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

    # Corrupt one view with 10% uniform outliers across the swept range.
    noisy = synth.perturb_depths(
        views[3].depth, outlier_frac=0.10,
        outlier_range=(space.d_min, space.d_max), seed=13)
    views[3] = fusion.ViewEstimate(camera=views[3].camera, depth=noisy)
    elapsed = time.perf_counter() - start
    return {
        "cams": cams, "gt": gt_maps, "space": space, "views": views,
        "elapsed": elapsed,
    }


def _bin_spacing(space: geometry.HypothesisSpace) -> float:
    return (space.d_max - space.d_min) / (space.count - 1)


def _kept_counts(kept: np.ndarray, view, gt, spacing: float) -> tuple[int, int]:
    within = np.abs(view.depth.data - gt.data) <= spacing
    correct = int((kept & within).sum())
    wrong = int((kept & ~within).sum())
    return correct, wrong


def test_criterion_7_weight_free_reconstruction(plane_pipeline):
    start = time.perf_counter()
    failures = []
    views = plane_pipeline["views"]
    gt_maps = plane_pipeline["gt"]
    cams = plane_pipeline["cams"]
    space = plane_pipeline["space"]
    spacing = _bin_spacing(space)

    # The passthrough confidence is nearly uniform (~1/D per tap), so
    # the views are not gated at φ and consistency does the work.
    params = fusion.FusionParams()
    filtered = []
    survivors = correct = 0
    for i, view in enumerate(views):
        others = [views[j] for j in range(len(views)) if j != i]
        kept_view = fusion.dynamic_filter(view, others, params)
        filtered.append(kept_view)
        kept = kept_view.depth.mask
        good, bad = _kept_counts(kept, view, gt_maps[i], spacing)
        survivors += good + bad
        correct += good
    if survivors == 0:
        failures.append("no pixels survived the dynamic filter")
    else:
        fraction = correct / survivors
        if fraction < 0.90:
            failures.append(f"only {fraction:.3f} of survivors within 1 bin")

    cloud = fusion.fuse_point_cloud(filtered, lam=params.lam)
    ys, xs = np.mgrid[0:HEIGHT, 0:WIDTH].astype(np.float64)
    gt_points = np.concatenate([
        geometry.back_project_grid(cam, xs, ys, gt.data)[gt.mask]
        for cam, gt in zip(cams, gt_maps)
    ])
    report = metrics.evaluate_clouds(
        cloud, fusion.PointCloud(gt_points), threshold=spacing)
    if report.f_score < 0.90:
        failures.append(f"f-score {report.f_score:.3f}")

    total_runtime = plane_pipeline["elapsed"] + (time.perf_counter() - start)
    if total_runtime >= 60.0:
        failures.append(f"runtime {total_runtime:.1f}s exceeds 60s")
    _verdict(7, failures)


def test_criterion_8_dynamic_beats_fixed(plane_pipeline):
    failures = []
    views = plane_pipeline["views"]
    gt_maps = plane_pipeline["gt"]
    spacing = _bin_spacing(plane_pipeline["space"])
    params = fusion.FusionParams()  # lam=200, tau=1.8, tau1=1, tau2=0.01

    dyn_correct = dyn_wrong = fix_correct = fix_wrong = 0
    for i, view in enumerate(views):
        others = [views[j] for j in range(len(views)) if j != i]
        kept_dyn = fusion.dynamic_filter(view, others, params).depth.mask
        kept_fix = fusion.fixed_threshold_filter(view, others, params).depth.mask
        good, bad = _kept_counts(kept_dyn, view, gt_maps[i], spacing)
        dyn_correct += good
        dyn_wrong += bad
        good, bad = _kept_counts(kept_fix, view, gt_maps[i], spacing)
        fix_correct += good
        fix_wrong += bad

    if dyn_correct < fix_correct:
        failures.append(f"dynamic kept {dyn_correct} correct vs fixed {fix_correct}")
    if dyn_wrong > fix_wrong:
        failures.append(f"dynamic kept {dyn_wrong} wrong vs fixed {fix_wrong}")
    if fix_correct == 0:
        failures.append("fixed filter kept nothing; comparison is vacuous")
    _verdict(8, failures)


# ---------------------------------------------------------------------------
# Criterion 9: format fidelity on seeded fixtures


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_criterion_9_format_fidelity(tmp_path):
    failures = []
    for seed in range(100):
        rng = np.random.default_rng(seed)

        # Depth-map payloads are float32 with occasional non-finite
        # values; the round trip must preserve the exact bytes.
        height = int(rng.integers(1, 9))
        width = int(rng.integers(1, 9))
        data = (rng.standard_normal((height, width))
                * 10.0 ** rng.integers(-3, 4)).astype("<f4")
        if seed % 7 == 0:
            data.flat[0] = np.nan
            if data.size > 2:
                data.flat[1] = np.inf
                data.flat[2] = -np.inf
        pfm_path = tmp_path / f"{seed}.pfm"
        formats.write_pfm(pfm_path, data)
        back = np.asarray(formats.read_pfm(pfm_path), dtype="<f4")
        if back.tobytes() != data.tobytes():
            failures.append(f"pfm seed {seed} not bit-exact")
            break

        cam = geometry.Camera(
            intrinsic=np.array([
                [rng.uniform(50, 2000), 0.0, rng.uniform(10, 100)],
                [0.0, rng.uniform(50, 2000), rng.uniform(10, 100)],
                [0.0, 0.0, 1.0],
            ]),
            rotation=_random_rotation(rng),
            translation=rng.uniform(-500, 500, 3),
        )
        d_min = rng.uniform(0.5, 800.0)
        interval = rng.uniform(0.01, 5.0)
        count = int(rng.integers(32, 512))
        depth_range = formats.DepthRange(
            d_min, interval, count=count,
            d_max=d_min + interval * (count - 1))
        cam_path = tmp_path / f"{seed}_cam.txt"
        formats.write_cam(cam_path, cam, depth_range)
        cam2, range2 = formats.read_cam(cam_path)
        same = (
            np.allclose(cam2.intrinsic, cam.intrinsic, rtol=1e-6, atol=1e-6)
            and np.allclose(cam2.rotation, cam.rotation, rtol=1e-6, atol=1e-6)
            and np.allclose(cam2.translation, cam.translation, rtol=1e-6, atol=1e-6)
            and math.isclose(range2.d_min, d_min, rel_tol=1e-6)
            and math.isclose(range2.d_interval, interval, rel_tol=1e-6)
            and range2.count == count
        )
        if not same:
            failures.append(f"cam seed {seed} drifted past 1e-6")
            break

    # Point-cloud files: write -> read -> write must reproduce the file
    # byte for byte in both encodings.
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 60))
        xyz = rng.standard_normal((n, 3)) * 100.0
        rgb = rng.integers(0, 256, (n, 3)).astype(np.uint8) if seed % 2 else None
        cloud = fusion.PointCloud(xyz, rgb)
        for mode in ("ascii", "binary"):
            first = tmp_path / f"{seed}_{mode}.ply"
            again = tmp_path / f"{seed}_{mode}_again.ply"
            formats.write_ply(first, cloud, mode=mode)
            formats.write_ply(again, formats.read_ply(first), mode=mode)
            if first.read_bytes() != again.read_bytes():
                failures.append(f"ply seed {seed} {mode} not byte-stable")
    _verdict(9, failures)
