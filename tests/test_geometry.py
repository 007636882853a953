"""Pinhole camera model, reprojection round trips, and depth hypothesis sampling.

The projection chain is x_cam = R @ X + t, pixel = (K @ x_cam)[:2] / depth
with depth = x_cam[2].  Back-projection inverts it exactly, so hand-computed
fixtures below are checked to near machine precision.
"""

import contextlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvsweep import costvol, geometry, oracles
from mvsweep.depthmap import DepthMap
from mvsweep.errors import BehindCameraError, InvalidArgumentError


def _k(f: float = 100.0, cx: float = 32.0, cy: float = 24.0) -> np.ndarray:
    return np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])


def _identity_cam(f: float = 100.0) -> geometry.Camera:
    return geometry.Camera(_k(f), np.eye(3), np.zeros(3))


def _translated_cam(center, f: float = 100.0) -> geometry.Camera:
    """Axis-aligned camera whose optical center sits at ``center``."""
    return geometry.Camera(_k(f), np.eye(3), -np.asarray(center, dtype=np.float64))


def _rotation(axis: int, angle: float) -> np.ndarray:
    """Right-handed rotation by ``angle`` radians about coordinate ``axis``."""
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    c, s = np.cos(angle), np.sin(angle)
    r = np.eye(3)
    r[i, i] = r[j, j] = c
    r[i, j], r[j, i] = -s, s
    return r


class TestCameraValidation:
    """Constructor rejects malformed intrinsics and non-rigid rotations."""

    def test_accepts_valid_camera(self):
        cam = _identity_cam()
        assert cam.rotation.shape == (3, 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            geometry.Camera(np.eye(4), np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            geometry.Camera(_k(), np.eye(3), np.zeros(4))

    def test_rejects_lower_triangular_intrinsics(self):
        k = _k()
        k[1, 0] = 0.5
        with pytest.raises(ValueError):
            geometry.Camera(k, np.eye(3), np.zeros(3))

    def test_rejects_non_positive_focal(self):
        k = _k()
        k[0, 0] = 0.0
        with pytest.raises(ValueError):
            geometry.Camera(k, np.eye(3), np.zeros(3))

    def test_rejects_non_orthonormal_rotation(self):
        r = np.eye(3)
        r[0, 0] = 1.001
        with pytest.raises(ValueError):
            geometry.Camera(_k(), r, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])  # orthonormal but det = -1
        with pytest.raises(ValueError):
            geometry.Camera(_k(), r, np.zeros(3))

    @pytest.mark.parametrize("part, index", [
        ("intrinsic", (0, 0)), ("intrinsic", (0, 1)), ("intrinsic", (1, 0)),
        ("rotation", (0, 0)), ("rotation", (2, 1)), ("translation", (2,)),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, part, index, value):
        # NaN fails every comparison, so it passes the range checks above.
        args = {"intrinsic": _k(), "rotation": np.eye(3), "translation": np.zeros(3)}
        args[part][index] = value
        with pytest.raises(InvalidArgumentError, match="finite"):
            geometry.Camera(**args)

    def test_arrays_are_frozen(self):
        cam = _identity_cam()
        with pytest.raises(ValueError):
            cam.rotation[0, 0] = 2.0

    def test_center_is_minus_rt_t(self):
        # C = -R^T t; with R = I and t = (-10, 0, 0), C = (10, 0, 0).
        cam = _translated_cam([10.0, 0.0, 0.0])
        np.testing.assert_allclose(cam.center, [10.0, 0.0, 0.0], atol=1e-12)


class TestProjectBackProject:
    """Hand-computed projections and exact analytic inverses."""

    def test_principal_axis(self):
        cam = _identity_cam()
        pixel, depth = geometry.project_points(cam, [0.0, 0.0, 100.0])
        np.testing.assert_allclose(pixel, [32.0, 24.0], atol=1e-12)
        assert depth == pytest.approx(100.0)

    def test_offset_point(self):
        # u = f * X/Z + cx = 100 * 40/200 + 32 = 52.
        cam = _identity_cam()
        pixel, depth = geometry.project_points(cam, [40.0, 0.0, 200.0])
        np.testing.assert_allclose(pixel, [52.0, 24.0], atol=1e-12)
        assert depth == pytest.approx(200.0)

    def test_translated_camera(self):
        # Center (10,0,0): cam coords of origin-aligned point shift by -10.
        cam = _translated_cam([10.0, 0.0, 0.0])
        pixel, depth = geometry.project_points(cam, [0.0, 0.0, 100.0])
        np.testing.assert_allclose(pixel, [22.0, 24.0], atol=1e-12)
        assert depth == pytest.approx(100.0)

    def test_rotated_camera(self):
        # R maps world +x to camera +z (looking down the world x axis).
        r = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        cam = geometry.Camera(_k(), r, -r @ np.array([5.0, 0.0, 0.0]))
        # World (10, 2, 0) -> cam (0, 2, 5): u = 32, v = 100*2/5 + 24 = 64.
        pixel, depth = geometry.project_points(cam, [10.0, 2.0, 0.0])
        np.testing.assert_allclose(pixel, [32.0, 64.0], atol=1e-12)
        assert depth == pytest.approx(5.0)

    def test_back_project_inverts_project(self):
        cam = _identity_cam()
        point = geometry.back_project_grid(cam, 52.0, 24.0, 200.0)
        np.testing.assert_allclose(point, [40.0, 0.0, 200.0], atol=1e-10)

    def test_round_trip_random_cameras(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            # Random proper rotation via QR with positive diagonal fix-up.
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q *= np.sign(np.diag(r))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            cam = geometry.Camera(_k(), q.T, rng.normal(size=3))
            pixel = rng.uniform(0, 60, size=2)
            depth = rng.uniform(0.5, 50.0)
            point = geometry.back_project_grid(cam, pixel[0], pixel[1], depth)
            pixel2, depth2 = geometry.project_points(cam, point)
            np.testing.assert_allclose(pixel2, pixel, atol=1e-9)
            assert depth2 == pytest.approx(depth, rel=1e-12)

    @pytest.mark.parametrize("depth, error", [
        (np.nan, InvalidArgumentError), (np.inf, InvalidArgumentError),
        (-np.inf, InvalidArgumentError), (0.0, BehindCameraError), (-1.0, BehindCameraError),
    ])
    def test_depth_must_be_positive_and_finite(self, depth, error):
        # A NaN depth used to come back as a NaN warp.
        cam = _identity_cam()
        with pytest.raises(error):
            geometry.warp_grid(cam, cam, depth, 8, 8)

    def test_project_points_masks_behind(self):
        cam = _identity_cam()
        pts = np.array([[0.0, 0.0, 100.0], [0.0, 0.0, -100.0]])
        pixels, depths = geometry.project_points(cam, pts)
        np.testing.assert_allclose(pixels[0], [32.0, 24.0], atol=1e-12)
        assert np.all(np.isnan(pixels[1]))
        np.testing.assert_allclose(depths, [100.0, -100.0], atol=1e-12)

    def test_back_project_grid_matches_scalar(self):
        cam = _translated_cam([3.0, -2.0, 1.0])
        xs = np.array([[0.0, 10.5], [63.0, 31.25]])
        ys = np.array([[0.0, 5.5], [47.0, 23.75]])
        ds = np.array([[4.0, 8.0], [16.0, 32.0]])
        grid = geometry.back_project_grid(cam, xs, ys, ds)
        for i in range(2):
            for j in range(2):
                want = oracles.back_project(cam, [xs[i, j], ys[i, j]], ds[i, j])
                np.testing.assert_allclose(grid[i, j], want, atol=1e-12)


def _warp_grid_formula(ref, src, depth, width, height):
    """The separable closed form of ``warp_grid``, written out in full."""
    a = src.proj_m @ ref.proj_m_inv
    b = src.proj_t - a @ ref.proj_t
    rows = np.arange(height, dtype=np.float64)[:, None] * (depth * a[:, 1])
    rows += depth * a[:, 2] + b
    cols = np.arange(width, dtype=np.float64)[:, None] * (depth * a[:, 0])
    depths = rows[:, None, 2] + cols[None, :, 2]
    coords = rows[:, None, :2] + cols[None, :, :2]
    coords /= np.where(depths > 0, depths, np.nan)[..., None]
    return coords


def _rotated_pair(angle: float, shift: float):
    """Rotated, translated pair; at 1.4 rad the source looks almost sideways,
    so part of what the reference sees lies behind it."""
    ref = geometry.Camera(_k(), _rotation(0, 0.1) @ _rotation(1, -0.2),
                          np.array([0.5, -0.3, 1.0]))
    src = geometry.Camera(_k(), _rotation(1, angle) @ _rotation(0, 0.05),
                          np.array([shift, 0.4, 0.2]))
    return ref, src


class TestReproject:
    """Ref -> src -> ref round trips against stored source depths."""

    def _pair(self):
        ref = _identity_cam(f=64.0)
        src = _translated_cam([8.0, 0.0, 0.0], f=64.0)
        return ref, src

    def _trip(self, x, src_depth):
        """``(pixel', depth')`` of reference pixel ``(x, 24)`` at depth 512."""
        ref, src = self._pair()
        _, p2, d2 = geometry.reproject_chain_map(
            ref, src, np.array([x]), np.array([24.0]), np.array([512.0]), src_depth)
        return p2[0], d2[0]

    def test_perfect_agreement_zero_error(self):
        # Constant-depth plane seen by both cameras: pixel (x, y) at depth
        # 512 lands at (x - f*b/d, y) = (x - 1, y); the source stores 512
        # there, so the return trip is exact.
        pixel2, depth2 = self._trip(32.0, DepthMap(np.full((48, 64), 512.0)))
        np.testing.assert_allclose(pixel2, [32.0, 24.0], atol=1e-9)
        assert depth2 == pytest.approx(512.0, rel=1e-12)

    def test_landing_out_of_bounds_returns_none(self):
        # Pixel x = 0 lands at x' = -1, outside the source image: the trip
        # fails and its outputs are NaN.
        pixel2, depth2 = self._trip(0.0, DepthMap(np.full((48, 64), 512.0)))
        assert np.isnan(pixel2).all() and np.isnan(depth2)

    def test_masked_landing_returns_none(self):
        data = np.full((48, 64), 512.0)
        data[24, 31] = np.nan  # where pixel (32, 24) lands
        pixel2, depth2 = self._trip(32.0, DepthMap(data))
        assert np.isnan(pixel2).all() and np.isnan(depth2)

    def test_depth_disagreement_changes_depth(self):
        # Source claims 640 where the hypothesis said 512; the return trip
        # reports the source's geometry: depth' = 640 under pure
        # translation (depth is preserved across x-shifts).
        _, depth2 = self._trip(32.0, DepthMap(np.full((48, 64), 640.0)))
        assert depth2 == pytest.approx(640.0, rel=1e-12)

    def test_map_matches_scalar(self):
        ref, src = self._pair()
        rng = np.random.default_rng(11)
        src_depth = DepthMap(rng.uniform(400.0, 600.0, size=(48, 64)))
        xs, ys = np.meshgrid(np.arange(10.0, 20.0), np.arange(5.0, 15.0))
        depths = rng.uniform(450.0, 550.0, size=xs.shape)
        _, p2, d2 = geometry.reproject_chain_map(ref, src, xs, ys, depths, src_depth)
        for i in range(xs.shape[0]):
            for j in range(xs.shape[1]):
                pixel = [xs[i, j], ys[i, j]]
                want = oracles.reproject(ref, src, pixel, depths[i, j],
                                         partial(oracles.nearest_depth, src_depth))
                if want is None:
                    assert np.isnan(d2[i, j]) and np.isnan(p2[i, j]).all()
                else:
                    np.testing.assert_allclose(p2[i, j], want[0], atol=1e-9)
                    assert d2[i, j] == pytest.approx(want[1], rel=1e-12)

    @pytest.mark.parametrize("angle, shift", [(0.15, -1.0), (0.6, -5.0), (1.4, -9.8)])
    def test_closed_form_matches_composed_chain(self, angle, shift):
        ref, src = _rotated_pair(angle, shift)
        rng = np.random.default_rng(int(angle * 100))
        data = rng.uniform(3.0, 30.0, size=(48, 64))
        data[rng.random((48, 64)) <= 0.2] = np.nan
        src_depth = DepthMap(data)
        ys, xs = np.mgrid[0:48, 0:64].astype(float)
        depths = rng.uniform(4.0, 25.0, size=xs.shape)
        q, p2, d2 = geometry.reproject_chain_map(ref, src, xs, ys, depths, src_depth)
        valid = ~np.isnan(d2)
        # The chain composed per pixel: lift, project, look up, and back.
        want_q, want_p2 = np.full(q.shape, np.nan), np.full(p2.shape, np.nan)
        want_d2 = np.full(d2.shape, np.nan)
        for idx in np.ndindex(xs.shape):
            pixel = (xs[idx], ys[idx])
            with contextlib.suppress(BehindCameraError):
                want_q[idx] = oracles.project(src, oracles.back_project(ref, pixel, depths[idx]))[0]
            trip = oracles.reproject(ref, src, pixel, depths[idx],
                                     partial(oracles.nearest_depth, src_depth))
            if trip is not None:
                want_p2[idx], want_d2[idx] = trip
        np.testing.assert_array_equal(valid, ~np.isnan(want_d2))
        # NaN entries must coincide.  Pixels carry roundoff of the image
        # scale, so a landing near x = 0 agrees only absolutely; depths
        # agree relatively.
        np.testing.assert_allclose(q, want_q, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(p2, want_p2, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(d2, want_d2, rtol=1e-12, atol=0.0)
        # The pairs reach every branch: behind the source, out of bounds,
        # NaN in the source, and a trip that closes.
        in_front = ~np.isnan(q[..., 0])
        inside = (in_front & (q[..., 0] >= 0.0) & (q[..., 0] <= 63.0)
                  & (q[..., 1] >= 0.0) & (q[..., 1] <= 47.0))
        assert valid.any() and (inside & ~valid).any()
        if angle == 1.4:
            assert not in_front.all() and not inside[in_front].all()

    def test_chain_map_exposes_landing_pixel(self):
        ref, src = self._pair()
        src_depth = DepthMap(np.full((48, 64), 512.0))
        xs = np.array([[32.0]])
        ys = np.array([[24.0]])
        ds = np.array([[512.0]])
        q, _, d2 = geometry.reproject_chain_map(ref, src, xs, ys, ds, src_depth)
        assert np.isfinite(d2[0, 0])
        np.testing.assert_allclose(q[0, 0], [31.0, 24.0], atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_follow_the_input_dtype(self, dtype):
        ref, src = self._pair()
        src_depth = DepthMap(np.full((48, 64), 512.0, dtype=dtype))
        xs = np.array([32.0, 0.0], dtype=dtype)
        ys = np.full(2, 24.0, dtype=dtype)
        q, p2, d2 = geometry.reproject_chain_map(ref, src, xs, ys, np.full(2, 512.0, dtype),
                                                 src_depth)
        assert q.dtype == p2.dtype == d2.dtype == dtype
        # The first trip closes, the second leaves the source image.
        np.testing.assert_allclose(q[0], [31.0, 24.0], atol=1e-4)
        np.testing.assert_allclose(p2[0], [32.0, 24.0], atol=1e-4)
        assert np.isnan(p2[1]).all() and np.isnan(d2[1])
        xi_p, xi_d = geometry.reprojection_errors_map(xs, ys, p2, np.full(2, 512.0, dtype), d2)
        assert xi_p.dtype == xi_d.dtype == dtype

    def test_python_scalars_give_float64(self):
        # Even against a float32 map: a scalar becomes a float64 array.
        ref, src = self._pair()
        src_depth = DepthMap(np.full((48, 64), 512.0, dtype=np.float32))
        q, p2, d2 = geometry.reproject_chain_map(ref, src, 32.0, 24.0, 512.0, src_depth)
        assert q.dtype == p2.dtype == d2.dtype == np.float64
        np.testing.assert_allclose(p2, [32.0, 24.0], atol=1e-9)
        # Integer pixels too.
        q, _, _ = geometry.reproject_chain_map(ref, src, np.array([32]), np.array([24]),
                                               np.float32(512.0), src_depth)
        assert q.dtype == np.float64


class TestReprojectionErrors:
    """xi_p is the Euclidean pixel gap, xi_d the relative depth gap."""

    def test_hand_values(self):
        # 3-4-5 triangle; |2.2 - 2| / 2 = 0.1.
        xi_p, xi_d = geometry.reprojection_errors_map(10.0, 10.0, np.array([13.0, 14.0]),
                                                      2.0, 2.2)
        assert xi_p == pytest.approx(5.0)
        assert xi_d == pytest.approx(0.1)

    def test_zero_errors(self):
        xi_p, xi_d = geometry.reprojection_errors_map(5.0, 6.0, np.array([5.0, 6.0]),
                                                      3.0, 3.0)
        assert xi_p == 0.0
        assert xi_d == 0.0

    def test_map_variant(self):
        px = np.array([10.0, 0.0])
        py = np.array([10.0, 0.0])
        p2 = np.array([[13.0, 14.0], [0.0, 0.0]])
        d = np.array([2.0, 4.0])
        d2 = np.array([2.2, 4.0])
        xi_p, xi_d = geometry.reprojection_errors_map(px, py, p2, d, d2)
        np.testing.assert_allclose(xi_p, [5.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(xi_d, [0.1, 0.0], atol=1e-12)

    def test_nan_propagates(self):
        p2 = np.array([[np.nan, np.nan]])
        xi_p, xi_d = geometry.reprojection_errors_map(
            np.array([1.0]), np.array([1.0]), p2, np.array([2.0]), np.array([np.nan])
        )
        assert np.isnan(xi_p[0]) and np.isnan(xi_d[0])


class TestHypothesisSpace:
    """Depth sampling in uniform and reciprocal metrics."""

    def test_uniform_samples(self):
        space = geometry.HypothesisSpace(2.0, 4.0, 5)
        np.testing.assert_allclose(
            geometry.sample_hypotheses(space), [2.0, 2.5, 3.0, 3.5, 4.0], atol=1e-15
        )

    def test_inverse_samples(self):
        # 1/d uniform on [1/2, 1/4]: 1 / [0.5, 0.4375, 0.375, 0.3125, 0.25].
        space = geometry.HypothesisSpace(2.0, 4.0, 5, mode="inverse")
        expected = [2.0, 16.0 / 7.0, 8.0 / 3.0, 3.2, 4.0]
        np.testing.assert_allclose(geometry.sample_hypotheses(space), expected, rtol=1e-14)

    def test_endpoints_exact(self):
        for mode in ("uniform", "inverse"):
            space = geometry.HypothesisSpace(0.1, 97.3, 33, mode=mode)
            depths = geometry.sample_hypotheses(space)
            assert depths[0] == 0.1 and depths[-1] == 97.3
            assert np.all(np.diff(depths) > 0)

    def test_bin_coordinate_uniform(self):
        space = geometry.HypothesisSpace(2.0, 4.0, 5)
        # step 0.5: depth 3.1 sits at (3.1 - 2) / 0.5 = 2.2 bins.
        assert space.bin_coordinate(3.1) == pytest.approx(2.2)
        np.testing.assert_allclose(
            space.bin_coordinate(geometry.sample_hypotheses(space)),
            [0.0, 1.0, 2.0, 3.0, 4.0],
            atol=1e-12,
        )

    def test_bin_coordinate_inverse(self):
        space = geometry.HypothesisSpace(2.0, 4.0, 5, mode="inverse")
        np.testing.assert_allclose(
            space.bin_coordinate(geometry.sample_hypotheses(space)),
            [0.0, 1.0, 2.0, 3.0, 4.0],
            atol=1e-12,
        )
        # Reciprocal metric: d = 3.2 has 1/d = 0.3125, three steps of
        # 0.0625 below 0.5.
        assert space.bin_coordinate(3.2) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometry.HypothesisSpace(0.0, 4.0, 5)
        with pytest.raises(ValueError):
            geometry.HypothesisSpace(4.0, 2.0, 5)
        with pytest.raises(ValueError):
            geometry.HypothesisSpace(2.0, 4.0, 1)
        with pytest.raises(ValueError):
            geometry.HypothesisSpace(2.0, 4.0, 5, mode="log")


class TestWarpGrid:
    """Constant-depth sweep coordinates for a translated source camera."""

    def test_pure_translation_shift(self):
        # Baseline b = 1 along x at depth 5: u' = u - f*b/d = u - 20.
        ref = _identity_cam()
        src = _translated_cam([1.0, 0.0, 0.0])
        coords = geometry.warp_grid(ref, src, 5.0, width=64, height=48)
        assert coords.shape == (48, 64, 2)
        np.testing.assert_allclose(coords[10, 30], [10.0, 10.0], atol=1e-10)
        expected_rows = np.broadcast_to(np.arange(48.0)[:, None], (48, 64))
        np.testing.assert_allclose(coords[..., 1], expected_rows, atol=1e-10)
        # Inside the source's [0, 63] iff u >= 20.
        assert coords[0, 19, 0] < 0.0 <= coords[0, 20, 0] and coords[0, 63, 0] <= 63.0

    def test_identical_cameras_identity_warp(self):
        ref = _identity_cam()
        coords = geometry.warp_grid(ref, ref, 7.0, width=16, height=12)
        ys, xs = np.mgrid[0:12, 0:16].astype(float)
        np.testing.assert_allclose(coords[..., 0], xs, atol=1e-10)
        np.testing.assert_allclose(coords[..., 1], ys, atol=1e-10)

    def test_shift_shrinks_with_depth(self):
        # Disparity is inversely proportional to depth.
        ref = _identity_cam()
        src = _translated_cam([1.0, 0.0, 0.0])
        c5 = geometry.warp_grid(ref, src, 5.0, 64, 48)
        c10 = geometry.warp_grid(ref, src, 10.0, 64, 48)
        shift5 = 30.0 - c5[0, 30, 0]
        shift10 = 30.0 - c10[0, 30, 0]
        assert shift5 == pytest.approx(2.0 * shift10, rel=1e-12)

    def test_non_positive_depth_raises(self):
        ref = _identity_cam()
        with pytest.raises(BehindCameraError):
            geometry.warp_grid(ref, ref, 0.0, 8, 8)

    @pytest.mark.parametrize("angle, shift", [(0.15, -1.0), (0.6, -5.0), (1.4, -9.8)])
    @pytest.mark.parametrize("depth", [4.0, 10.0, 25.0])
    def test_matches_projection_chain(self, angle, shift, depth):
        ref, src = _rotated_pair(angle, shift)
        coords = geometry.warp_grid(ref, src, depth, width=64, height=48)
        ys, xs = np.mgrid[0:48, 0:64].astype(float)
        points = geometry.back_project_grid(ref, xs, ys, depth)
        want, _ = geometry.project_points(src, points)
        # NaN entries (behind the source) must coincide; near-singular
        # landings run to ~1e6 px, where only relative agreement is meaningful.
        np.testing.assert_allclose(coords, want, rtol=1e-12, atol=1e-9)
        # Bit for bit the separable formula written out above.
        want_coords = _warp_grid_formula(ref, src, depth, 64, 48)
        assert np.array_equal(coords, want_coords, equal_nan=True)

    @pytest.mark.parametrize("first_row, height", [(0, 48), (0, 1), (17, 9), (47, 1)])
    def test_band_of_rows_equals_those_rows_of_the_image(self, first_row, height):
        ref, src = _rotated_pair(1.4, -9.8)
        whole = geometry.warp_grid(ref, src, 10.0, 64, 48)
        band = geometry.warp_grid(ref, src, 10.0, 64, height, first_row)
        assert band.shape == (height, 64, 2)
        assert band.tobytes() == whole[first_row:first_row + height].tobytes()

    def test_behind_source_is_nan_and_invalid(self):
        ref = geometry.Camera(_k(), np.eye(3), np.zeros(3))
        src = geometry.Camera(_k(), _rotation(1, 1.4), np.array([-9.8, 0.0, 0.0]))
        coords = geometry.warp_grid(ref, src, 10.0, width=64, height=48)
        behind = np.isnan(coords[..., 0])
        assert np.isnan(coords[behind]).all()
        # The sampler rejects every NaN landing and keeps others.
        _, valid = costvol.bilinear_sample(np.zeros((48, 64, 1)), coords)
        assert behind.any() and valid.any()
        assert not valid[behind].any()


class TestDepthMap:
    """Nearest-pixel depth lookup with NaN holes and bounds handling."""

    def test_requires_2d_float(self):
        with pytest.raises(ValueError):
            DepthMap(np.zeros(5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_float_precision(self, dtype):
        dm = DepthMap(np.array([[1.5, np.inf], [np.nan, 2.25]], dtype=dtype))
        assert dm.data.dtype == dtype
        np.testing.assert_array_equal(dm.data, [[1.5, np.nan], [np.nan, 2.25]])
        got = dm.depth_grid(np.array([0.0, 1.0], dtype), np.array([0.0, 1.0], dtype))
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, [1.5, 2.25])

    @pytest.mark.parametrize("data", [[[1, 2], [3, 4]], [[1.0, 2.0], [3.0, 4.0]],
                                      np.array([[1, 2], [3, 4]], dtype=np.int32),
                                      np.array([[1, 2], [3, 4]], dtype=np.int64)])
    def test_lists_and_integers_become_float64(self, data):
        dm = DepthMap(data)
        assert dm.data.dtype == np.float64
        np.testing.assert_array_equal(dm.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_float32_lookup_beyond_2_24_pixels(self):
        # 4097 x 4098 = 16,789,506 pixels (67 MB in float32).  The last
        # pixel's flat index, 16,789,505, is odd and above 2**24, so a
        # float32 ``iy * width + ix`` would name a neighbour or run past
        # the end; the index is formed in intp instead.
        h, w = 4097, 4098
        data = np.ones((h, w), dtype=np.float32)
        data[-1, -2:] = 3.0, 7.0
        dm = DepthMap(data)
        del data
        xs = np.array([w - 1, w - 2, w - 1.4], dtype=np.float32)
        ys = np.full(3, h - 1, dtype=np.float32)
        np.testing.assert_array_equal(dm.depth_grid(xs, ys), [7.0, 3.0, 7.0])

    def test_default_mask_from_finiteness(self):
        # NaN, +inf and -inf are all stored as NaN, the one hole marker.
        data = np.array([[1.0, np.nan, -np.inf], [np.inf, 4.0, -2.0]])
        dm = DepthMap(data)
        assert dm.valid_count == 3
        np.testing.assert_array_equal(dm.mask, [[True, False, False], [False, True, True]])
        np.testing.assert_array_equal(dm.data, [[1.0, np.nan, np.nan], [np.nan, 4.0, -2.0]])
        got = dm.depth_grid([1.0, 2.0, 0.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(got, [np.nan, np.nan, np.nan, 4.0, -2.0])

    def test_nearest_rounding(self):
        data = np.arange(12.0).reshape(3, 4)
        dm = DepthMap(data)
        # floor(x + 0.5): 1.49 -> 1, 1.5 -> 2.
        got = dm.depth_grid([1.49, 1.5, 0.0], [0.0, 0.0, 1.5])
        np.testing.assert_array_equal(got, [1.0, 2.0, 8.0])

    def test_out_of_domain_nan(self):
        dm = DepthMap(np.ones((3, 4)))
        got = dm.depth_grid([-0.01, 3.01, 0.0], [0.0, 0.0, 2.5])
        assert np.isnan(got).all()
        # The domain edge itself is inside.
        assert dm.depth_grid(3.0, 2.0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_depth_grid_equals_oracle_everywhere(self, data):
        """Element by element, for any map and any query, broadcast ones too."""
        h = data.draw(st.integers(1, 6), label="height")
        w = data.draw(st.integers(1, 6), label="width")
        values = data.draw(arrays(np.float64, (h, w), elements=st.floats(-1e3, 1e3)),
                           label="depths")
        holes = data.draw(arrays(bool, (h, w)), label="holes")
        dm = DepthMap(np.where(holes, np.nan, values))

        def coords(size):
            special = st.sampled_from([
                np.nan, np.inf, -np.inf, -0.0, 0.0, size - 1.0, size - 0.5,
                float(np.nextafter(size - 1.0, np.inf)), float(np.nextafter(0.0, -1.0)),
                -0.5, 0.5])
            half = st.integers(-1, size).map(lambda k: k + 0.5)
            return st.one_of(special, half, st.floats(-2.0, size + 1.0))

        n = data.draw(st.integers(1, 6), label="queries")
        m = data.draw(st.integers(1, 6), label="rows")
        xs = np.array(data.draw(st.lists(coords(w), min_size=n, max_size=n), label="xs"))
        ys = np.array(data.draw(st.lists(coords(h), min_size=n, max_size=n), label="ys"))
        rows = np.array(data.draw(st.lists(coords(h), min_size=m, max_size=m),
                                  label="rows ys"))[:, None]

        want = np.array([oracles.nearest_depth(dm, x, y) for x, y in zip(xs, ys)])
        np.testing.assert_array_equal(dm.depth_grid(xs, ys), want)
        # An (m, 1) column of ys against a row of n xs gives an (m, n) grid.
        grid = dm.depth_grid(xs, rows)
        assert grid.shape == (m, n)
        want = np.array([[oracles.nearest_depth(dm, x, y) for x in xs] for y in rows[:, 0]])
        np.testing.assert_array_equal(grid, want)

    def test_depth_grid_matches_scalar(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(1.0, 9.0, size=(6, 7))
        data[rng.uniform(size=(6, 7)) <= 0.3] = np.nan
        dm = DepthMap(data)
        xs = rng.uniform(-1.0, 8.0, size=20)
        ys = rng.uniform(-1.0, 7.0, size=20)
        grid = dm.depth_grid(xs, ys)
        want = [oracles.nearest_depth(dm, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert np.isnan(want).any() and not np.isnan(want).all()
        np.testing.assert_array_equal(grid, want)
