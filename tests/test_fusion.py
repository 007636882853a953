"""Consistency scoring, depth-map filtering, and point cloud fusion.

All fixtures use axis-aligned cameras with power-of-two focal lengths,
baselines, and depths, so reprojection round trips and the resulting
matching scores are exact in floating point: a camera 8 units to the
right at focal 64 shifts a depth-512 pixel by exactly 64*8/512 = 1 px.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from mvsweep import fusion, geometry, oracles, synth
from mvsweep.depthmap import DepthMap
from mvsweep.errors import SizeMismatchError

F = 64.0
D0 = 512.0
W, H = 64, 48


def _cam(center_x: float) -> geometry.Camera:
    k = np.array([[F, 0.0, 32.0], [0.0, F, 24.0], [0.0, 0.0, 1.0]])
    return geometry.Camera(k, np.eye(3), np.array([-center_x, 0.0, 0.0]))


def _trip_errors(ref, src, pixel, depth):
    """``(xi_p, xi_d)`` of a round trip on the scalar references, or None."""
    out = oracles.reproject(ref.camera, src.camera, pixel, depth,
                            partial(oracles.nearest_depth, src.depth))
    return None if out is None else oracles.reprojection_errors(pixel, out[0], depth, out[1])


def _pairwise_score(ref, src, pixel, lam):
    """Oracle for one pixel's entry of ``dynamic_consistency_map`` against
    one source, on the scalar references."""
    depth = oracles.nearest_depth(ref.depth, *pixel)
    errors = _trip_errors(ref, src, pixel, depth) if 0.0 < depth < np.inf else None
    return 0.0 if errors is None else math.exp(-(errors[0] + lam * errors[1]))


def _view(center_x: float, depth_value: float = D0,
          mask=None, image=None) -> fusion.ViewEstimate:
    """A constant-depth view, NaN where ``mask`` is given and False."""
    data = np.full((H, W), depth_value)
    if mask is not None:
        data[~mask] = np.nan
    return fusion.ViewEstimate(
        camera=_cam(center_x),
        depth=DepthMap(data),
        image=image,
    )


def _gated(view, confidence, phi):
    """``view`` with its depth map through the φ gate."""
    return replace(view, depth=fusion.probability_filter(view.depth, confidence, phi))


def _assert_drops(out, view, kept):
    """``out``'s depth is NaN exactly off ``kept`` and ``view``'s bit for
    bit on it."""
    np.testing.assert_array_equal(np.isnan(out.depth.data), ~kept)
    assert out.depth.data[kept].tobytes() == view.depth.data[kept].tobytes()


def _scores(xi_p, xi_d, lam=200.0):
    """``fusion._scores`` of trips given as lists."""
    return fusion._scores(np.array(xi_p, dtype=float), np.array(xi_d, dtype=float), lam)


class TestConsistencyFromErrors:
    """Matching score exp(-(xi_p + lam * xi_d)) of each round trip."""

    def test_reference_value(self):
        # 1 + 200 * 0.01 = 3.
        assert _scores([1.0], [0.01])[0] == pytest.approx(np.exp(-3.0), abs=1e-9)

    def test_perfect_round_trip_scores_one(self):
        assert _scores([0.0], [0.0])[0] == 1.0

    def test_lambda_weighs_depth_error(self):
        assert _scores([0.0], [0.01], 100.0)[0] == pytest.approx(np.exp(-1.0))
        assert _scores([0.0], [0.01], 0.0)[0] == 1.0

    def test_broadcasts(self):
        # Each trip scores on its own; a failed trip has NaN errors and scores 0.
        out = _scores([0.0, 1.0, np.nan], [0.0, 0.0, np.nan])
        np.testing.assert_allclose(out, [1.0, np.exp(-1.0), 0.0], atol=1e-12)


class TestParamsAndContainers:
    """Validation in the dataclasses."""

    def test_confidence_shape_checked(self):
        with pytest.raises(SizeMismatchError):
            fusion.probability_filter(DepthMap(np.ones((4, 4))), np.ones((3, 4)))
        # So is the image's (height, width); its channels are free.
        with pytest.raises(SizeMismatchError):
            fusion.ViewEstimate(_cam(0.0), DepthMap(np.ones((4, 4))),
                                image=np.ones((4, 3, 3)))
        fusion.ViewEstimate(_cam(0.0), DepthMap(np.ones((4, 4))),
                            image=np.ones((4, 4, 3)))

    def test_fusion_params_validation(self):
        with pytest.raises(ValueError):
            fusion.FusionParams(lam=-1.0)
        for field in ("lam", "tau", "phi", "tau1", "tau2"):
            with pytest.raises(ValueError):
                fusion.FusionParams(**{field: float("nan")})
        for field in ("lam", "tau", "phi"):
            with pytest.raises(ValueError):
                fusion.FusionParams(**{field: float("inf")})
        with pytest.raises(ValueError):
            fusion.FusionParams(phi=1.5)
        with pytest.raises(ValueError):
            fusion.FusionParams(tau2=0.0)
        with pytest.raises(ValueError):
            fusion.FusionParams(min_views=0)

    def test_point_cloud_shapes(self):
        pc = fusion.PointCloud(np.arange(6.0))
        assert pc.xyz.shape == (2, 3) and len(pc) == 2
        with pytest.raises(ValueError):
            fusion.PointCloud(np.zeros((2, 3)), rgb=np.zeros((3, 3), dtype=np.uint8))
        assert len(fusion.PointCloud.empty()) == 0
        assert fusion.PointCloud.empty(with_rgb=True).rgb.shape == (0, 3)


class TestProbabilityFilter:
    """Confidence gate keeps conf >= phi, data untouched."""

    def test_threshold_is_inclusive(self):
        view = _view(0.0)
        confidence = np.ones((H, W))
        confidence[10, 10] = 0.4
        confidence[10, 11] = 0.39999
        out = fusion.probability_filter(view.depth, confidence, phi=0.4)
        assert out.mask[10, 10]
        assert not out.mask[10, 11]

    def test_respects_existing_mask(self):
        mask = np.ones((H, W), dtype=bool)
        mask[0, 0] = False
        view = _view(0.0, mask=mask)
        out = fusion.probability_filter(view.depth, np.ones((H, W)), phi=0.0)
        assert not out.mask[0, 0]

    def test_dropped_pixels_are_nan(self):
        rng = np.random.default_rng(4)
        mask = rng.random((H, W)) < 0.9
        view = _view(0.0, mask=mask)
        view.depth.data[mask] = rng.uniform(100.0, 900.0, mask.sum())
        confidence = rng.random((H, W))
        out = _gated(view, confidence, phi=0.4)
        _assert_drops(out, view, mask & (confidence >= 0.4))


class TestPairwiseConsistency:
    """Single ref pixel against a single source view: one entry of the
    consistency map with that source alone."""

    def test_perfect_agreement_is_exactly_one(self):
        ref = _view(0.0)
        src = _view(8.0)  # landing pixel (x-1, y), stored depth agrees
        assert fusion.dynamic_consistency_map(ref, [src])[24, 32] == 1.0

    def test_failed_round_trip_is_zero(self):
        ref = _view(0.0)
        src = _view(8.0)
        # Pixel x = 0 lands at x' = -1, outside the source image.
        assert fusion.dynamic_consistency_map(ref, [src])[24, 0] == 0.0

    def test_invalid_ref_pixel_is_zero(self):
        mask = np.ones((H, W), dtype=bool)
        mask[24, 32] = False
        ref = _view(0.0, mask=mask)
        src = _view(8.0)
        assert fusion.dynamic_consistency_map(ref, [src])[24, 32] == 0.0

    def test_depth_disagreement_hand_value(self):
        # Source stores 640 where the hypothesis said 512.  The return
        # trip lands at u' = 32 - 2/514... no: back-project (31, 24, 640)
        # from the source gives X = (-2, 0, 640); projecting into the
        # reference yields u = 32 - 128/640 = 31.8, so xi_p = 0.2 and
        # xi_d = 128/512 = 0.25.
        ref = _view(0.0)
        src = _view(8.0, depth_value=640.0)
        got = fusion.dynamic_consistency_map(ref, [src], lam=200.0)[24, 32]
        assert got == pytest.approx(np.exp(-(0.2 + 200.0 * 0.25)), rel=1e-9)


class TestPairwiseConsistencyBounds:
    """NaN and non-positive reference depths score 0 instead of raising.

    Two ring cameras 32x24 look at a plane that every pixel of both sees.
    """

    @pytest.fixture()
    def pair(self):
        rig = synth.CameraRigSpec(n_views=3, width=32, height=24, focal=70.0)
        cams = synth.make_camera_ring(rig)[:2]
        rendered = synth.render_scene(synth.SceneSpec(surface=synth.Plane()),
                                      cams, 32, 24)
        return [fusion.ViewEstimate(cam, depth)
                for cam, (_, depth) in zip(cams, rendered)]

    def test_masked_pixel_is_zero(self, pair):
        ref, src = pair
        assert ref.depth.mask.all()
        data = ref.depth.data.copy()
        data[11, 15] = np.nan
        ref = fusion.ViewEstimate(ref.camera, DepthMap(data))
        total = fusion.dynamic_consistency_map(ref, [src])
        assert total[11, 15] == 0.0
        # Its neighbours still score.
        assert total[11, 14] > 0.0 and total[11, 16] > 0.0

    @pytest.mark.parametrize("depth", [-672.0, 0.0, -0.0, np.inf])
    def test_non_positive_depth_is_zero(self, pair, depth):
        ref, src = pair
        data = ref.depth.data.copy()
        data[11, 15] = depth
        ref = fusion.ViewEstimate(ref.camera, DepthMap(data))
        assert fusion.dynamic_consistency_map(ref, [src])[11, 15] == 0.0


class TestDynamicConsistency:
    """Summed matching scores and the soft filter."""

    def test_two_perfect_sources_sum_exactly_two(self):
        ref = _view(0.0)
        srcs = [_view(8.0), _view(-8.0)]
        total = fusion.dynamic_consistency_map(ref, srcs)
        assert total[24, 32] == 2.0
        # Border columns lose the source whose shift walks off-image.
        assert total[24, 0] == 1.0   # only the b = -8 source sees x = 0
        assert total[24, 63] == 1.0  # only the b = +8 source sees x = 63

    def test_masked_ref_pixel_scores_zero(self):
        mask = np.ones((H, W), dtype=bool)
        mask[24, 32] = False
        ref = _view(0.0, mask=mask)
        total = fusion.dynamic_consistency_map(ref, [_view(8.0)])
        assert total[24, 32] == 0.0

    def test_dynamic_filter_threshold(self):
        # C = 2.0 interior >= tau = 1.8 keeps; C = 1.0 at the borders
        # falls short.
        ref = _view(0.0)
        srcs = [_view(8.0), _view(-8.0)]
        out = fusion.dynamic_filter(ref, srcs, fusion.FusionParams(tau=1.8))
        assert out.depth.mask[24, 32]
        assert not out.depth.mask[24, 0]
        assert not out.depth.mask[24, 63]

    def test_dynamic_filter_applies_confidence_gate(self):
        # A pixel the φ gate dropped stays dropped through the filter.
        confidence = np.ones((H, W))
        confidence[24, 32] = 0.1
        ref = _gated(_view(0.0), confidence, phi=0.4)
        srcs = [_view(8.0), _view(-8.0)]
        out = fusion.dynamic_filter(ref, srcs, fusion.FusionParams(tau=1.8))
        assert not out.depth.mask[24, 32]
        assert out.depth.mask[24, 33]

    def test_data_is_preserved(self):
        # Column x = 0 walks off the one source and one pixel fails the
        # confidence gate; both are dropped to NaN, and every other pixel
        # keeps its depth bit for bit.
        ref = _view(0.0)
        confidence = np.ones((H, W))
        confidence[24, 32] = 0.1
        out = fusion.dynamic_filter(_gated(ref, confidence, phi=0.4), [_view(8.0)],
                                    fusion.FusionParams(tau=0.5))
        kept = np.ones((H, W), dtype=bool)
        kept[:, 0] = kept[24, 32] = False
        _assert_drops(out, ref, kept)


class TestFixedThresholdFilter:
    """Hard per-view thresholds with a minimum support count."""

    def test_support_count_boundary(self):
        ref = _view(0.0)
        three = [_view(8.0), _view(-8.0), _view(16.0)]
        kept3 = fusion.fixed_threshold_filter(ref, three).depth.mask
        assert kept3[24, 32]
        # Two perfect sources cannot reach min_views = 3.
        kept2 = fusion.fixed_threshold_filter(ref, three[:2]).depth.mask
        assert not kept2.any()

    def test_depth_threshold_is_strict(self):
        # Source depth 640 gives xi_d = 0.25 exactly (dyadic values), so
        # tau2 = 0.25 rejects and any larger tau2 accepts.
        ref = _view(0.0)
        src = [_view(8.0, depth_value=640.0)]
        at_limit = fusion.FusionParams(tau1=10.0, tau2=0.25, min_views=1)
        above = fusion.FusionParams(tau1=10.0, tau2=0.2500001, min_views=1)
        assert not fusion.fixed_threshold_filter(ref, src, at_limit).depth.mask[24, 32]
        assert fusion.fixed_threshold_filter(ref, src, above).depth.mask[24, 32]

    def test_no_confidence_gate(self):
        # The baseline counts views only; it reads no phi.
        ref = _view(0.0)
        srcs = [_view(8.0), _view(-8.0), _view(16.0)]
        out = fusion.fixed_threshold_filter(ref, srcs, fusion.FusionParams(phi=1.0))
        assert out.depth.mask[24, 32]


class TestFusePointCloud:
    """Weighted averaging and the consumed-pixel deduplication."""

    def test_empty_input(self):
        assert len(fusion.fuse_point_cloud([])) == 0

    def test_single_view_back_projects_all_pixels(self):
        view = _view(0.0)
        cloud = fusion.fuse_point_cloud([view])
        assert len(cloud) == H * W
        # Row-major order: pixel (x=32, y=24) is entry 24 * 64 + 32 and
        # back-projects onto the optical axis.
        np.testing.assert_allclose(cloud.xyz[24 * W + 32], [0.0, 0.0, D0], atol=1e-9)

    def test_two_views_deduplicate(self):
        # Every ref pixel x >= 1 consumes source pixel x - 1, so the
        # second view only emits its last column.
        views = [_view(0.0), _view(8.0)]
        cloud = fusion.fuse_point_cloud(views)
        assert len(cloud) == H * W + H
        # The extra points are the source's x = 63 column: world x of
        # (63 - 32) * 512 / 64 + 8 = 256.
        tail = cloud.xyz[H * W:]
        np.testing.assert_allclose(tail[:, 0], 256.0, atol=1e-9)
        np.testing.assert_allclose(tail[:, 2], D0, atol=1e-9)

    def test_matched_depths_average_with_weights(self):
        # Source stores 514 where the reference says 512.  The round
        # trip gives xi_p = 2/514, xi_d = 2/512 and reprojected depth
        # 514, so the fused depth is (512 + c*514) / (1 + c).
        views = [_view(0.0), _view(8.0, depth_value=514.0)]
        cloud = fusion.fuse_point_cloud(views, lam=200.0)
        c = np.exp(-(2.0 / 514.0 + 200.0 * 2.0 / 512.0))
        expected_depth = (512.0 + c * 514.0) / (1.0 + c)
        probe = cloud.xyz[24 * W + 32]
        assert probe[2] == pytest.approx(expected_depth, rel=1e-12)

    def test_weak_matches_are_not_merged(self):
        # Source depth 600: xi_d = 88/512 makes c ~ e^-34, far below the
        # e^-3 floor, so no pixel is consumed and both views emit fully.
        views = [_view(0.0), _view(8.0, depth_value=600.0)]
        cloud = fusion.fuse_point_cloud(views)
        assert len(cloud) == 2 * H * W
        assert cloud.xyz[24 * W + 32][2] == pytest.approx(D0)

    def test_rgb_requires_all_images(self):
        img = np.full((H, W, 3), 0.5)
        with_images = [_view(0.0, image=img), _view(8.0, image=img)]
        cloud = fusion.fuse_point_cloud(with_images)
        assert cloud.rgb is not None and len(cloud.rgb) == len(cloud)
        # rint(0.5 * 255) = 128.
        np.testing.assert_array_equal(cloud.rgb[0], [128, 128, 128])
        partial = [_view(0.0, image=img), _view(8.0)]
        assert fusion.fuse_point_cloud(partial).rgb is None

    def test_fully_masked_views_empty(self):
        mask = np.zeros((H, W), dtype=bool)
        cloud = fusion.fuse_point_cloud([_view(0.0, mask=mask)])
        assert len(cloud) == 0


class TestFloat32RoundTrips:
    """Fusion computes in the stored maps' float32; float64 is the reference."""

    def test_sphere_pair_agrees_with_float64(self):
        # Measured at 960 x 528: 305,100 trips, a landing gap of 2.2e-4 px,
        # 22 trips whose lookup read a neighbouring pixel and a score gap
        # of 1.9e-4 on all the others.
        trips, moved, dq, dc = oracles.float32_round_trip_gap(960, 528)
        assert trips > 300_000
        assert dq <= 1e-3
        assert dc <= 1e-3
        assert moved <= 5e-4 * trips

    def test_consumed_pixel_is_the_looked_up_pixel(self, monkeypatch):
        # Just below 0.5, float32 rounds x + 0.5 up to 1 and float64 does
        # not, so a consumed mark rounded in float64 would name pixel 0
        # where the float32 lookup read pixel 1.
        x = np.nextafter(np.float32(0.5), np.float32(0.0))
        assert np.floor(x + np.float32(0.5)) == 1.0 and np.floor(np.float64(x) + 0.5) == 0.0
        ref = fusion.ViewEstimate(_cam(0.0), DepthMap(np.full((1, 2), D0, dtype=np.float32)))
        src = fusion.ViewEstimate(_cam(8.0), DepthMap(np.array([[500.0, 520.0]], np.float32)))
        looked_up = []

        def land_at_x(ref_cam, src_cam, xs, ys, depths, src_depth):
            # Every trip lands at (x, 0) and closes exactly: it scores 1.
            q = np.zeros(xs.shape + (2,), dtype=xs.dtype)
            q[..., 0] = x
            looked_up.append(src_depth.depth_grid(q[..., 0], q[..., 1]))
            return q, np.stack([xs, ys], axis=-1), depths.copy()

        monkeypatch.setattr(fusion, "reproject_chain_map", land_at_x)
        cloud = fusion.fuse_point_cloud([ref, src])
        assert looked_up[0].tolist() == [520.0, 520.0]
        # Pixel 1 of the source is consumed, so it emits pixel 0 alone.
        assert len(cloud) == 3
        np.testing.assert_allclose(
            cloud.xyz[2], geometry.back_project_grid(src.camera, 0.0, 0.0, 500.0), atol=1e-9)


class TestSparsePathOracle:
    """Both filters against per-pixel round trips of the scalar geometry
    oracles on real geometry.

    Three ring cameras look at a sphere, so every pair is rotated.  The
    stored depths carry noise and outliers, and the reference also sets a
    random 30% of the pixels the sphere covers to NaN, so the filters'
    pixel list and its scatter back into the image are exercised on
    scores that are neither 0 nor 1.
    """

    @pytest.fixture(scope="class")
    def scene(self):
        rig = synth.CameraRigSpec(n_views=3, radius=150.0, width=40, height=30,
                                  focal=90.0)
        cams = synth.make_camera_ring(rig)
        rendered = synth.render_scene(
            synth.SceneSpec(surface=synth.Sphere(radius=100.0)), cams, 40, 30)
        views = []
        for i, (cam, (_, depth)) in enumerate(zip(cams, rendered)):
            noisy = synth.perturb_depths(depth, sigma=0.3, outlier_frac=0.15, seed=i)
            views.append(fusion.ViewEstimate(cam, noisy))
        keep = np.random.default_rng(5).random((30, 40)) < 0.7
        ref = views[0]
        ref = fusion.ViewEstimate(
            ref.camera, DepthMap(np.where(keep, ref.depth.data, np.nan)))
        return ref, views[1:]

    def test_dynamic_map_is_sum_of_pairwise_scores(self, scene):
        ref, srcs = scene
        total = fusion.dynamic_consistency_map(ref, srcs, lam=200.0)
        mask = ref.depth.mask
        assert 0 < mask.sum() < mask.size
        assert np.all(total[~mask] == 0.0)
        ys, xs = np.nonzero(mask)
        pixels = list(zip(xs.tolist(), ys.tolist()))
        want = np.array([sum(_pairwise_score(ref, src, p, 200.0) for src in srcs)
                         for p in pixels])
        np.testing.assert_allclose(total[ys, xs], want, rtol=1e-9, atol=1e-12)
        # Non-trivial scores: some partial, some above one, some failed.
        assert np.any((want > 0.0) & (want < 1.0)) and np.any(want > 1.0)
        assert np.any(want == 0.0)

    @pytest.mark.parametrize("min_views", [1, 2])
    def test_fixed_filter_support_matches_scalar(self, scene, min_views):
        ref, srcs = scene
        params = fusion.FusionParams(tau1=1.0, tau2=0.01, min_views=min_views)
        out = fusion.fixed_threshold_filter(ref, srcs, params)
        kept = out.depth.mask
        want = np.zeros_like(kept)
        for y, x in zip(*np.nonzero(ref.depth.mask)):
            trips = [_trip_errors(ref, src, (x, y), ref.depth.data[y, x]) for src in srcs]
            support = sum(e is not None and e[0] < params.tau1 and e[1] < params.tau2
                          for e in trips)
            want[y, x] = support >= min_views
        np.testing.assert_array_equal(kept, want)
        assert 0 < kept.sum() < ref.depth.mask.sum()
        _assert_drops(out, ref, want)


# Reference round trip in its plain form: a 2-d fancy gather per depth
# lookup, a stack per leg, np.where copies for every NaN fill, the
# reference pixels cast per source, np.nan_to_num for the score and
# boolean gathers in fusion.  The package must reproduce it bit for bit.


def _frozen_depth_grid(dm, xs, ys):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = ((xs >= 0.0) & (xs <= dm.width - 1.0)
              & (ys >= 0.0) & (ys <= dm.height - 1.0))
    ix = np.floor(np.where(inside, xs, 0.0) + 0.5).astype(np.intp)
    iy = np.floor(np.where(inside, ys, 0.0) + 0.5).astype(np.intp)
    return np.where(inside & dm.mask[iy, ix], dm.data[iy, ix], np.nan)


def _frozen_pair_map(ref, src, xs, ys, depths):
    a = src.proj_m @ ref.proj_m_inv
    b = src.proj_t - a @ ref.proj_t
    wx, wy, wz = ((xs * a[i, 0] + ys * a[i, 1] + a[i, 2]) * depths + b[i]
                  for i in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        pixels = np.stack([wx / wz, wy / wz], axis=-1)
    pixels[~(wz > 0)] = np.nan
    return pixels, wz


def _frozen_chain(ref, src, xs, ys, depths, src_depth):
    q, d_fwd = _frozen_pair_map(ref, src, xs, ys, depths)
    valid = d_fwd > 0
    qx = np.where(valid, q[..., 0], -1.0)
    qy = np.where(valid, q[..., 1], -1.0)
    d_src = _frozen_depth_grid(src_depth, qx, qy)
    valid &= np.isfinite(d_src) & (d_src > 0)
    d_safe = np.where(valid, d_src, 1.0)
    p2, d2 = _frozen_pair_map(src, ref, qx, qy, d_safe)
    valid &= d2 > 0
    p2 = np.where(valid[..., None], p2, np.nan)
    d2 = np.where(valid, d2, np.nan)
    return q, p2, d2, valid


def _frozen_round_trips(ref, src, xs, ys, lam):
    fx = xs.astype(np.float64)
    fy = ys.astype(np.float64)
    depths = ref.depth.data[ys, xs]
    q, p2, d2, valid = _frozen_chain(ref.camera, src.camera, fx, fy, depths, src.depth)
    with np.errstate(invalid="ignore"):
        xi_p = np.hypot(p2[..., 0] - fx, p2[..., 1] - fy)
        xi_d = np.abs(d2 - depths) / depths
        c = np.nan_to_num(np.exp(-(xi_p + lam * xi_d)))
    return q, d2, xi_p, xi_d, c, valid


def _frozen_dynamic_map(ref, srcs, lam):
    ys, xs = np.nonzero(ref.depth.mask)
    total = np.zeros(len(xs))
    for src in srcs:
        total += _frozen_round_trips(ref, src, xs, ys, lam)[4]
    out = np.zeros(ref.depth.data.shape)
    out[ys, xs] = total
    return out


def _frozen_fixed_kept(ref, srcs, params):
    ys, xs = np.nonzero(ref.depth.mask)
    support = np.zeros(len(xs), dtype=np.int64)
    for src in srcs:
        _, _, xi_p, xi_d, _, valid = _frozen_round_trips(ref, src, xs, ys, params.lam)
        support += valid & (xi_p < params.tau1) & (xi_d < params.tau2)
    kept = np.zeros(ref.depth.data.shape, dtype=bool)
    kept[ys, xs] = support >= params.min_views
    return kept


def _frozen_fuse(views, lam):
    consumed = [np.zeros(v.depth.data.shape, dtype=bool) for v in views]
    points, colors = [], []
    for i, ref in enumerate(views):
        active = ref.depth.mask & ~consumed[i]
        if not active.any():
            continue
        ys, xs = np.nonzero(active)
        weight = np.ones(len(xs))
        depth_acc = ref.depth.data[ys, xs]
        for j, src in enumerate(views):
            if j == i:
                continue
            q, d2, _, _, c, valid = _frozen_round_trips(ref, src, xs, ys, lam)
            matched = valid & (c > fusion.MATCH_SCORE_FLOOR)
            if matched.any():
                weight[matched] += c[matched]
                depth_acc[matched] += c[matched] * d2[matched]
                qx = np.floor(q[matched, 0] + 0.5).astype(np.intp)
                qy = np.floor(q[matched, 1] + 0.5).astype(np.intp)
                consumed[j][qy, qx] = True
        points.append(geometry.back_project_grid(ref.camera, xs, ys, depth_acc / weight))
        colors.append(np.clip(np.rint(ref.image[ys, xs] * 255.0), 0, 255).astype(np.uint8))
    return np.concatenate(points), np.concatenate(colors)


class TestRoundTripBitIdentity:
    """Filters and fusion equal the frozen round trip bit for bit.

    Five ring cameras sit wider apart (radius 700) than they stand off the
    sphere (600), so a ray's far outliers pass behind the opposite
    cameras.  Depths carry noise and outliers from near the cameras to far
    beyond the sphere, every view sets a random fifth of its pixels to
    NaN, and many trips leave the source image.
    """

    @pytest.fixture(scope="class")
    def views(self):
        rig = synth.CameraRigSpec(n_views=5, radius=700.0, width=40, height=30,
                                  focal=120.0)
        cams = synth.make_camera_ring(rig)
        rendered = synth.render_scene(
            synth.SceneSpec(surface=synth.Sphere(radius=100.0)), cams, 40, 30)
        rng = np.random.default_rng(12)
        views = []
        for i, (cam, (image, depth)) in enumerate(zip(cams, rendered)):
            noisy = synth.perturb_depths(depth, sigma=0.5, outlier_frac=0.2,
                                         outlier_range=(5.0, 20000.0), seed=i)
            keep = rng.random(noisy.data.shape) < 0.8
            views.append(fusion.ViewEstimate(cam, DepthMap(np.where(keep, noisy.data, np.nan)),
                                             image))
        return views

    def test_scene_reaches_every_branch(self, views):
        ref, src = views[0], views[2]
        ys, xs = np.nonzero(ref.depth.mask)
        q, _, _, _, c, valid = _frozen_round_trips(ref, src, xs, ys, 200.0)
        behind = np.isnan(q[:, 0])
        outside = ~behind & ((q[:, 0] < 0) | (q[:, 0] > 39) | (q[:, 1] < 0) | (q[:, 1] > 29))
        assert behind.any() and outside.any() and valid.any()
        assert np.any((c > 0.0) & (c < fusion.MATCH_SCORE_FLOOR))
        assert np.any(c > fusion.MATCH_SCORE_FLOOR)

    @pytest.mark.parametrize("lam", [0.0, 200.0])
    def test_dynamic_map(self, views, lam):
        for i, ref in enumerate(views):
            srcs = views[:i] + views[i + 1:]
            got = fusion.dynamic_consistency_map(ref, srcs, lam)
            assert got.tobytes() == _frozen_dynamic_map(ref, srcs, lam).tobytes()

    @pytest.mark.parametrize("lam", [0.0, 200.0])
    def test_fixed_filter(self, views, lam):
        params = fusion.FusionParams(lam=lam, tau1=2.0, tau2=0.02, min_views=2)
        for i, ref in enumerate(views):
            srcs = views[:i] + views[i + 1:]
            got = fusion.fixed_threshold_filter(ref, srcs, params).depth.mask
            np.testing.assert_array_equal(got, _frozen_fixed_kept(ref, srcs, params))

    @pytest.mark.parametrize("lam", [0.0, 200.0])
    def test_fuse_point_cloud(self, views, lam):
        cloud = fusion.fuse_point_cloud(views, lam)
        xyz, rgb = _frozen_fuse(views, lam)
        assert cloud.xyz.tobytes() == xyz.tobytes()
        assert cloud.rgb.tobytes() == rgb.tobytes()
