"""Synthetic scenes: procedural texture, ray-traced surfaces, camera rings.

Ray intersections have closed forms (a unit ray from z = -600 hits the
z = 0 plane at t = 600, a radius-100 sphere at t = 500), so rendered
depth maps can be checked exactly.  The noise field is checked for its
contract: deterministic, seed-dependent, [0, 1], and continuous.
"""

import math

import numpy as np
import pytest

from mvsweep import geometry, synth
from mvsweep.errors import InvalidArgumentError, NoIntersectionError


class TestValueNoise:
    """Deterministic smooth lattice noise."""

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-100.0, 100.0, size=(50, 3))
        a = synth.value_noise(pts, seed=3, scale=20.0, octaves=2)
        b = synth.value_noise(pts, seed=3, scale=20.0, octaves=2)
        np.testing.assert_array_equal(a, b)

    def test_range(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-500.0, 500.0, size=(2000, 3))
        out = synth.value_noise(pts, seed=0)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.std() > 0.01  # actually textured, not constant

    def test_seed_changes_field(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-100.0, 100.0, size=(100, 3))
        a = synth.value_noise(pts, seed=0)
        b = synth.value_noise(pts, seed=1)
        assert np.abs(a - b).max() > 0.01

    def test_scale_and_octaves_change_field(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-100.0, 100.0, size=(100, 3))
        base = synth.value_noise(pts, seed=0, scale=25.0, octaves=2)
        coarse = synth.value_noise(pts, seed=0, scale=50.0, octaves=2)
        single = synth.value_noise(pts, seed=0, scale=25.0, octaves=1)
        assert np.abs(base - coarse).max() > 0.01
        assert np.abs(base - single).max() > 0.01

    def test_continuous_across_cells(self):
        # Smoothstep interpolation is C1; values straddling a lattice
        # boundary by +-1e-9 cells must agree to roundoff.
        eps = 1e-9
        lo = synth.value_noise(np.array([[25.0 - eps, 10.0, 5.0]]), seed=0, scale=25.0)
        hi = synth.value_noise(np.array([[25.0 + eps, 10.0, 5.0]]), seed=0, scale=25.0)
        assert abs(lo[0] - hi[0]) < 1e-6

    def test_locally_smooth(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-100.0, 100.0, size=(200, 3))
        nearby = pts + 0.01
        a = synth.value_noise(pts, seed=5, scale=25.0)
        b = synth.value_noise(nearby, seed=5, scale=25.0)
        assert np.abs(a - b).max() < 0.05


class TestSurfaces:
    """Closed-form ray intersections."""

    def test_plane_head_on(self):
        plane = synth.Plane()  # z = 0
        t = plane.intersect(np.array([0.0, 0.0, -600.0]), np.array([0.0, 0.0, 1.0]))
        assert t == pytest.approx(600.0)

    def test_plane_behind_is_miss(self):
        plane = synth.Plane()
        t = plane.intersect(np.array([0.0, 0.0, -600.0]), np.array([0.0, 0.0, -1.0]))
        assert np.isnan(t)

    def test_plane_parallel_is_miss(self):
        plane = synth.Plane()
        t = plane.intersect(np.array([0.0, 0.0, -5.0]), np.array([1.0, 0.0, 0.0]))
        assert np.isnan(t)

    def test_plane_offset_and_unnormalized_dir(self):
        # Ray parameter is in units of the direction vector.
        plane = synth.Plane(normal=(0.0, 0.0, 1.0), offset=10.0)
        t = plane.intersect(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0]))
        assert t == pytest.approx(5.0)

    def test_sphere_first_hit(self):
        sphere = synth.Sphere(radius=100.0)
        t = sphere.intersect(np.array([0.0, 0.0, -600.0]), np.array([0.0, 0.0, 1.0]))
        assert t == pytest.approx(500.0)  # near surface, not 700

    def test_sphere_from_inside(self):
        sphere = synth.Sphere(radius=100.0)
        t = sphere.intersect(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        assert t == pytest.approx(100.0)

    def test_sphere_tangent(self):
        sphere = synth.Sphere(radius=100.0)
        t = sphere.intersect(np.array([0.0, 100.0, -600.0]), np.array([0.0, 0.0, 1.0]))
        assert t == pytest.approx(600.0)

    def test_sphere_miss(self):
        sphere = synth.Sphere(radius=100.0)
        t = sphere.intersect(np.array([0.0, 0.0, -600.0]), np.array([0.0, 1.0, 0.0]))
        assert np.isnan(t)

    def test_vectorized_grid(self):
        sphere = synth.Sphere(radius=100.0)
        dirs = np.array([[[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]])
        t = sphere.intersect(np.array([0.0, 0.0, -600.0]), dirs)
        assert t.shape == (1, 2)
        assert t[0, 0] == pytest.approx(500.0) and np.isnan(t[0, 1])


class TestCameraRing:
    """Inward-looking ring construction."""

    def test_count_and_first_position(self):
        spec = synth.CameraRigSpec(n_views=5, radius=250.0, standoff=600.0)
        cams = synth.make_camera_ring(spec)
        assert len(cams) == 5
        # Angle 0: center = lookat + (radius, 0, -standoff).
        np.testing.assert_allclose(cams[0].center, [250.0, 0.0, -600.0], atol=1e-9)

    def test_principal_axes_meet_at_lookat(self):
        spec = synth.CameraRigSpec(n_views=7, lookat=(3.0, -2.0, 5.0))
        expected_depth = np.hypot(spec.radius, spec.standoff)
        for cam in synth.make_camera_ring(spec):
            pixel, depth = geometry.project_points(cam, spec.lookat)
            np.testing.assert_allclose(
                pixel, [(spec.width - 1) / 2.0, (spec.height - 1) / 2.0], atol=1e-9
            )
            assert depth == pytest.approx(expected_depth, rel=1e-12)

    def test_intrinsics(self):
        spec = synth.CameraRigSpec(focal=2600.0, width=64, height=48)
        k = spec.intrinsic()
        assert k[0, 0] == 2600.0 and k[1, 1] == 2600.0
        assert k[0, 2] == pytest.approx(31.5) and k[1, 2] == pytest.approx(23.5)

    def test_rotations_are_rigid(self):
        # Camera's own validation guarantees orthonormality; surviving
        # construction is the assertion.
        cams = synth.make_camera_ring(synth.CameraRigSpec(n_views=9))
        assert len({id(c) for c in cams}) == 9


class TestRenderScene:
    """Ray-traced images and exact depth maps."""

    def _scene(self):
        return synth.SceneSpec(surface=synth.Plane(), texture_seed=0,
                               noise_scale=40.0, noise_octaves=2)

    def test_depth_matches_analytic_sampler(self):
        spec = synth.CameraRigSpec(n_views=3, width=32, height=24)
        cams = synth.make_camera_ring(spec)
        rendered = synth.render_scene(self._scene(), cams, 32, 24)
        for cam, (_, depth) in zip(cams, rendered):
            sampler = synth.AnalyticDepth(cam, synth.Plane(), 32, 24)
            ys, xs = np.mgrid[0:24, 0:32].astype(np.float64)
            expected = sampler.depth_grid(xs, ys)
            np.testing.assert_allclose(depth.data, expected, rtol=1e-12)

    def test_image_shape_and_range(self):
        spec = synth.CameraRigSpec(n_views=2, width=32, height=24)
        cams = synth.make_camera_ring(spec)
        for image, depth in synth.render_scene(self._scene(), cams, 32, 24):
            assert image.shape == (24, 32, 3)
            assert image.min() >= 0.0 and image.max() <= 1.0
            assert depth.mask.all()  # the plane fills every view here

    def test_sphere_limb_is_masked(self):
        scene = synth.SceneSpec(surface=synth.Sphere(radius=100.0))
        spec = synth.CameraRigSpec(n_views=1, width=64, height=48)
        cams = synth.make_camera_ring(spec)
        _, depth = synth.render_scene(scene, cams, 64, 48)[0]
        assert depth.mask.any() and not depth.mask.all()

    def test_no_intersection_raises(self):
        # A plane behind the ring: every ray points away from it.
        scene = synth.SceneSpec(surface=synth.Plane(offset=-1200.0))
        cams = synth.make_camera_ring(synth.CameraRigSpec(n_views=1))
        with pytest.raises(NoIntersectionError):
            synth.render_scene(scene, cams, 32, 24)

    def test_deterministic(self):
        cams = synth.make_camera_ring(synth.CameraRigSpec(n_views=2))
        a = synth.render_scene(self._scene(), cams, 32, 24)
        b = synth.render_scene(self._scene(), cams, 32, 24)
        for (img_a, dep_a), (img_b, dep_b) in zip(a, b):
            np.testing.assert_array_equal(img_a, img_b)
            np.testing.assert_array_equal(dep_a.data, dep_b.data)


def _reference_hash_lattice(ix, iy, iz, seed):
    """The lattice hash as first written: one seed, every corner hashed whole."""
    seed_mix = np.uint32((seed * 0x9E3779B9) & 0xFFFFFFFF)
    h = (ix.astype(np.uint32) * np.uint32(0x8DA6B343)
         ^ iy.astype(np.uint32) * np.uint32(0xD8163841)
         ^ iz.astype(np.uint32) * np.uint32(0xCB1AB31F)
         ^ seed_mix)
    h ^= h >> np.uint32(13)
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(16)
    return h.astype(np.float64) / 4294967296.0


def _reference_value_noise(points, seed, scale, octaves):
    """Per-channel value noise as first written, one field per call."""
    pts = np.asarray(points, dtype=np.float64)
    total = np.zeros(pts.shape[:-1], dtype=np.float64)
    norm = 0.0
    amp = 1.0
    cell = float(scale)
    for octave in range(octaves):
        p = pts / cell
        base = np.floor(p)
        frac = p - base
        t = frac * frac * (3.0 - 2.0 * frac)
        base_i = base.astype(np.int64)
        corner = {}
        for cx in (0, 1):
            for cy in (0, 1):
                for cz in (0, 1):
                    corner[cx, cy, cz] = _reference_hash_lattice(
                        base_i[..., 0] + cx, base_i[..., 1] + cy,
                        base_i[..., 2] + cz, seed + 7919 * octave)
        x0 = corner[0, 0, 0] * (1 - t[..., 0]) + corner[1, 0, 0] * t[..., 0]
        x1 = corner[0, 1, 0] * (1 - t[..., 0]) + corner[1, 1, 0] * t[..., 0]
        x2 = corner[0, 0, 1] * (1 - t[..., 0]) + corner[1, 0, 1] * t[..., 0]
        x3 = corner[0, 1, 1] * (1 - t[..., 0]) + corner[1, 1, 1] * t[..., 0]
        y0 = x0 * (1 - t[..., 1]) + x1 * t[..., 1]
        y1 = x2 * (1 - t[..., 1]) + x3 * t[..., 1]
        total += amp * (y0 * (1 - t[..., 2]) + y1 * t[..., 2])
        norm += amp
        amp *= 0.5
        cell *= 0.5
    return total / norm


def _reference_render(scene, cams, width, height):
    """Images as first rendered: every pixel shaded, misses at t = 1, then masked."""
    images = []
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    for cam in cams:
        origin, dirs = cam.center, synth._ray_dirs(cam, xs, ys)
        t = scene.surface.intersect(origin[None, None, :], dirs)
        hit = np.isfinite(t)
        points = origin + np.where(hit, t, 1.0)[..., None] * dirs
        channels = [
            _reference_value_noise(points, scene.texture_seed + 131 * ch,
                                   scene.noise_scale, scene.noise_octaves)
            for ch in range(3)
        ]
        rgb = np.stack(channels, axis=-1)
        shaded = np.clip(0.5 + (rgb - 0.5) * (2.0 * scene.contrast), 0.0, 1.0)
        images.append(np.where(hit[..., None], shaded, 0.0))
    return images


class TestRendererOracle:
    """Shading hit points only, with one lattice pass for all three
    channels, gives the per-channel, every-pixel renderer's images bit
    for bit."""

    @pytest.mark.parametrize("surface", [synth.Plane(), synth.Sphere(radius=100.0)],
                             ids=["plane", "sphere"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_images_equal_reference(self, surface, seed):
        scene = synth.SceneSpec(surface=surface, texture_seed=seed)
        cams = synth.make_camera_ring(synth.CameraRigSpec(n_views=3))
        rendered = synth.render_scene(scene, cams, 64, 48)
        for (image, depth), want in zip(rendered, _reference_render(scene, cams, 64, 48)):
            assert image.dtype == want.dtype == np.float64
            assert np.array_equal(image, want)
            if isinstance(surface, synth.Sphere):
                assert depth.mask.any() and not depth.mask.all()
            assert np.all(image[~depth.mask] == 0.0)

    @pytest.mark.parametrize("octaves", [1, 2, 3])
    @pytest.mark.parametrize("scale", [25.0, 60.0])
    def test_value_noise_equals_reference(self, octaves, scale):
        rng = np.random.default_rng(7)
        # Negative cells and coordinates far enough out that the lattice
        # products wrap modulo 2**32.
        pts = np.concatenate([rng.uniform(-300.0, 300.0, size=(500, 3)),
                              rng.uniform(-1e11, 1e11, size=(50, 3))])
        for seed in (0, 5, -3):
            got = synth.value_noise(pts, seed=seed, scale=scale, octaves=octaves)
            want = _reference_value_noise(pts, seed, scale, octaves)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def _ray_depth(cam, surface, width, height, x, y):
    """Closed-form depth of the ray through pixel ``(x, y)``, in plain
    Python: the camera-frame direction ``K^-1 (x, y, 1)`` has z = 1, so
    the ray parameter of the nearest positive hit is the depth."""
    if not (0.0 <= x <= width - 1.0 and 0.0 <= y <= height - 1.0):
        return math.nan
    (fx, skew, cx), (_, fy, cy), _ = cam.intrinsic.tolist()
    v = (y - cy) / fy
    ray = ((x - cx - skew * v) / fx, v, 1.0)
    rot = cam.rotation.tolist()
    d = [sum(rot[r][i] * ray[r] for r in range(3)) for i in range(3)]  # R^T ray
    o = cam.center.tolist()
    if isinstance(surface, synth.Plane):
        denom = sum(n * di for n, di in zip(surface.normal, d))
        if denom == 0.0:
            return math.nan
        t = (surface.offset - sum(n * oi for n, oi in zip(surface.normal, o))) / denom
        return t if t > 0.0 else math.nan
    oc = [oi - ci for oi, ci in zip(o, surface.center)]
    a = sum(di * di for di in d)
    b = 2.0 * sum(p * di for p, di in zip(oc, d))
    c = sum(p * p for p in oc) - surface.radius ** 2
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return math.nan
    roots = ((-b - math.sqrt(disc)) / (2.0 * a), (-b + math.sqrt(disc)) / (2.0 * a))
    return next((t for t in roots if t > 0.0), math.nan)


class TestAnalyticDepth:
    """Continuous-pixel exact depth lookups."""

    def test_out_of_domain_nan(self):
        cams = synth.make_camera_ring(synth.CameraRigSpec(n_views=1))
        sampler = synth.AnalyticDepth(cams[0], synth.Plane(), 64, 48)
        got = sampler.depth_grid([-0.5, 10.0, 63.0], [10.0, 47.5, 47.0])
        assert np.isnan(got[:2]).all() and np.isfinite(got[2])

    def test_continuous_between_pixels(self):
        cams = synth.make_camera_ring(synth.CameraRigSpec(n_views=1))
        sampler = synth.AnalyticDepth(cams[0], synth.Plane(), 64, 48)
        d0, d_eps = sampler.depth_grid([30.0, 30.001], [20.0, 20.0])
        assert abs(d0 - d_eps) < 0.1
        # xs broadcast against ys, as DepthMap.depth_grid's do.
        assert np.array_equal(sampler.depth_grid([30.0, 30.001], 20.0), [d0, d_eps])

    def test_grid_matches_scalar(self):
        cams = synth.make_camera_ring(synth.CameraRigSpec(n_views=2))
        # Sphere hits and misses, the domain corners and two queries outside.
        xs = np.array([31.5, 10.25, 60.0, 0.0, 63.0, -0.5, 20.0])
        ys = np.array([23.5, 5.75, 40.0, 0.0, 47.0, 10.0, 47.5])
        tilted = synth.Plane(normal=(0.1, -0.2, 1.0), offset=15.0)
        for surface in (synth.Sphere(radius=100.0), tilted):
            for cam in cams:
                sampler = synth.AnalyticDepth(cam, surface, 64, 48)
                grid = sampler.depth_grid(xs, ys)
                want = [_ray_depth(cam, surface, 64, 48, x, y)
                        for x, y in zip(xs.tolist(), ys.tolist())]
                np.testing.assert_allclose(grid, want, rtol=1e-12, atol=0.0)
                # The plane fills the view; the sphere misses some queries.
                hits = np.isfinite(want)
                assert hits[0] and not hits[5:].any()
                assert hits[:5].all() == isinstance(surface, synth.Plane)


class TestPerturbDepths:
    """Controlled corruption for robustness experiments."""

    def _flat(self):
        from mvsweep.depthmap import DepthMap

        return DepthMap(np.full((20, 30), 500.0))

    def test_identity_when_disabled(self):
        depth = self._flat()
        out = synth.perturb_depths(depth, sigma=0.0, outlier_frac=0.0)
        np.testing.assert_array_equal(out.data, depth.data)
        np.testing.assert_array_equal(out.mask, depth.mask)

    def test_exact_outlier_count(self):
        depth = self._flat()  # 600 valid pixels
        out = synth.perturb_depths(
            depth, outlier_frac=0.1, outlier_range=(100.0, 400.0), seed=7
        )
        changed = out.data != depth.data
        assert changed.sum() == 60  # floor(0.1 * 600)
        assert out.data[changed].min() >= 100.0
        assert out.data[changed].max() <= 400.0

    def test_fraction_floor(self):
        from mvsweep.depthmap import DepthMap

        depth = DepthMap(np.full((1, 7), 500.0))
        out = synth.perturb_depths(depth, outlier_frac=0.25, outlier_range=(1.0, 2.0))
        assert (out.data != depth.data).sum() == 1  # floor(1.75)

    def test_default_range_spans_valid_values(self):
        from mvsweep.depthmap import DepthMap

        data = np.linspace(100.0, 200.0, 600).reshape(20, 30)
        out = synth.perturb_depths(DepthMap(data), outlier_frac=0.5, seed=3)
        assert out.data.min() >= 100.0 and out.data.max() <= 200.0

    def test_gaussian_touches_all_valid(self):
        depth = self._flat()
        out = synth.perturb_depths(depth, sigma=1.0, seed=11)
        assert (out.data != depth.data).all()
        # Unbiased noise: the mean moves much less than sigma.
        assert abs(out.data.mean() - 500.0) < 0.5

    def test_seed_determinism(self):
        depth = self._flat()
        a = synth.perturb_depths(depth, sigma=1.0, outlier_frac=0.2, seed=5)
        b = synth.perturb_depths(depth, sigma=1.0, outlier_frac=0.2, seed=5)
        c = synth.perturb_depths(depth, sigma=1.0, outlier_frac=0.2, seed=6)
        np.testing.assert_array_equal(a.data, b.data)
        assert np.abs(a.data - c.data).max() > 0.0

    def test_masked_pixels_untouched(self):
        from mvsweep.depthmap import DepthMap

        # NaN pixels stay NaN, and every other pixel keeps a depth.
        data = np.full((10, 10), 500.0)
        data[5:] = np.nan
        out = synth.perturb_depths(DepthMap(data), sigma=2.0, outlier_frac=0.3, seed=1)
        assert np.isnan(out.data[5:]).all() and np.isfinite(out.data[:5]).all()

    @pytest.mark.parametrize("kwargs", [
        {"sigma": -1.0},
        {"sigma": float("nan")},
        {"sigma": float("inf")},
        {"outlier_frac": 2.0},
        {"outlier_frac": -0.1},
        {"outlier_frac": float("nan")},
    ])
    def test_arguments_are_range_checked(self, kwargs):
        from mvsweep.depthmap import DepthMap

        with pytest.raises(InvalidArgumentError):
            synth.perturb_depths(self._flat(), **kwargs)
        # Checked before the early return for a map with nothing to perturb.
        empty = DepthMap(np.full((4, 4), np.nan))
        with pytest.raises(InvalidArgumentError):
            synth.perturb_depths(empty, **kwargs)

    def test_range_endpoints_are_accepted(self):
        depth = self._flat()
        out = synth.perturb_depths(depth, sigma=0.0, outlier_frac=1.0,
                                   outlier_range=(1.0, 2.0))
        assert (out.data != depth.data).all()
