"""Plane-sweep cost slices: bilinear warping and cross-view variance.

With axis-aligned cameras translated along x, the warp at depth d is a
pure shift u' = u - f*b/d, so expected warped features and variances can
be written down directly with numpy on shifted arrays.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from mvsweep import costvol, features, geometry, oracles
from mvsweep.errors import InvalidArgumentError, SizeMismatchError


def _cam(center_x: float = 0.0, f: float = 20.0) -> geometry.Camera:
    k = np.array([[f, 0.0, 8.0], [0.0, f, 6.0], [0.0, 0.0, 1.0]])
    return geometry.Camera(k, np.eye(3), np.array([-center_x, 0.0, 0.0]))


def _rotated_cam(rx: float, ry: float, translation) -> geometry.Camera:
    """Camera of :func:`_cam`'s intrinsics, rotated about x then y."""
    cx, sx, cy, sy = np.cos(rx), np.sin(rx), np.cos(ry), np.sin(ry)
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    rot_y = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    return geometry.Camera(_cam().intrinsic, rot_y @ rot_x, np.asarray(translation))


def _stack_sample(values: np.ndarray, coords: np.ndarray):
    """The sampler's body before it wrote its arrays in place, kept as an oracle.

    Corners are floored to intp and converted back to float for the
    fractions; weights and taps are each one ``np.stack`` of four int64
    or float64 columns and ``indptr`` a concatenated cumulative sum, so
    scipy converts the index arrays to int32 itself.
    """
    height, width, channels = values.shape
    xs = coords[..., 0].ravel()
    ys = coords[..., 1].ravel()
    valid = (xs >= 0.0) & (xs <= width - 1.0) & (ys >= 0.0) & (ys <= height - 1.0)
    rows = np.flatnonzero(valid)
    x = xs[rows]
    y = ys[rows]
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    fx = x - x0
    fy = y - y0
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    gx = 1.0 - fx
    gy = 1.0 - fy
    weights = np.stack([gx * gy, fx * gy, gx * fy, fx * fy], axis=1)
    taps = np.stack([y0 * width + x0, y0 * width + x1,
                     y1 * width + x0, y1 * width + x1], axis=1)
    indptr = np.concatenate(([0], 4 * np.cumsum(valid)))
    matrix = sparse.csr_array((weights.ravel(), taps.ravel(), indptr),
                              shape=(xs.size, height * width))
    sampled = matrix @ values.reshape(height * width, channels)
    shape = coords.shape[:-1]
    return sampled.reshape(*shape, channels), valid.reshape(shape)


def _slice_at(ref_feat, src_feats, ref_cam, src_cams, depth):
    """The cost slice at ``depth``: the first slice of a stream whose range
    starts there, which is exactly ``depth``."""
    space = geometry.HypothesisSpace(depth, depth + 1.0, 2)
    return next(costvol.cost_volume_stream(ref_feat, src_feats, ref_cam, src_cams, space))


def _zero_start_cost_slice(ref_feat, src_feats, ref_cam, src_cams, depth):
    """The cost slice with zero-filled running sums, kept as an oracle.

    This is the loop a slice ran before its sums started from the first
    source: S1 and S2 begin as zeros and every
    source adds into both.  Returns ``(cost, valid_views)``.
    """
    height, width, channels = ref_feat.shape
    ref = np.asarray(ref_feat, dtype=np.float64)
    s1 = np.zeros((height, width, channels))
    s2 = np.zeros((height, width, channels))
    count = np.ones((height, width), dtype=np.int64)
    for feat, cam in zip(src_feats, src_cams):
        coords = geometry.warp_grid(ref_cam, cam, depth, width, height)
        sampled, ok = costvol.bilinear_sample(feat, coords)
        sampled -= ref
        sampled[~ok] = 0.0
        s1 += sampled
        sampled *= sampled
        s2 += sampled
        count += ok
    n = count[..., None].astype(np.float64)
    s1 *= s1
    s1 /= n
    s2 -= s1
    s2 /= n
    return s2, count


def _oracle_queries(rng, height, width, queries, all_invalid):
    """Coordinates that hit every branch of the sampler.

    Uniform draws around the map, integer centres, the far edges
    ``x = width - 1`` and ``y = height - 1`` exactly and just past them,
    signed zeros and NaN / +-inf; with ``all_invalid`` every query falls outside.
    """
    xs = rng.uniform(-1.5, width + 0.5, queries)
    ys = rng.uniform(-1.5, height + 0.5, queries)
    specials = np.array([0.0, -0.0, -1e-12, np.nan, np.inf, -np.inf])
    for axis, extent in ((xs, width), (ys, height)):
        edge = rng.uniform(size=queries) < 0.3
        axis[edge] = extent - 1.0
        snap = rng.uniform(size=queries) < 0.2
        axis[snap] = rng.integers(0, extent, snap.sum())
        odd = rng.uniform(size=queries) < 0.15
        axis[odd] = rng.choice(np.append(specials, extent - 1.0 + 1e-12), odd.sum())
    if all_invalid:
        outside = rng.choice([-0.5, np.nan, np.inf, -np.inf, width + 0.25], queries)
        xs = np.where(rng.uniform(size=queries) < 0.5, outside, xs)
        ys = np.where(np.isnan(xs) | (xs < 0.0) | (xs > width - 1.0), ys, height)
    return np.stack([xs, ys], axis=-1)


class TestBilinearSample:
    """Interpolation weights and validity of the sampler."""

    @settings(max_examples=40, deadline=None)
    @given(height=st.integers(1, 6), width=st.integers(1, 700),
           channels=st.integers(1, 4), queries=st.integers(1, 1400),
           seed=st.integers(0, 2**32 - 1))
    @example(height=1, width=600, channels=2, queries=1300, seed=0)
    @example(height=5, width=1, channels=1, queries=700, seed=1)
    @example(height=1, width=1, channels=3, queries=20, seed=2)
    def test_matches_scalar_reference(self, height, width, channels, queries, seed):
        # Up to 1400 queries over maps up to 700 pixels wide, with a mix
        # of valid and invalid rows; one-pixel-wide and -tall maps included.
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(height, width, channels))
        coords = _oracle_queries(rng, height, width, queries, all_invalid=False)
        sampled, valid = costvol.bilinear_sample(values, coords)
        assert sampled.shape == (queries, channels)
        for i, (x, y) in enumerate(coords):
            want, ok = oracles.bilinear_sample(values, x, y)
            assert valid[i] == ok
            np.testing.assert_allclose(sampled[i], want, rtol=0, atol=1e-12)

    def test_invalid_queries_are_zero_on_non_finite_maps(self):
        # Invalid queries read nothing, so inf and NaN in the map, here at
        # the pixels around (0, 0), cannot reach them.
        values = np.ones((4, 5, 3))
        values[0, 0] = np.inf
        values[0, 1] = np.nan
        values[1, 0] = -np.inf
        values[1, 1] = np.nan
        coords = np.array([[-0.5, 0.0], [0.0, -1e-9], [np.nan, 1.0],
                           [1.0, np.inf], [4.5, 2.0], [3.0, 3.5]])
        sampled, valid = costvol.bilinear_sample(values, coords)
        assert not valid.any()
        assert np.array_equal(sampled, np.zeros((6, 3)))

    def test_exact_at_integer_coords(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(4, 5, 3))
        coords = np.array([[[2.0, 1.0], [4.0, 3.0]]])
        sampled, valid = costvol.bilinear_sample(values, coords)
        assert valid.all()
        np.testing.assert_allclose(sampled[0, 0], values[1, 2], atol=1e-14)
        np.testing.assert_allclose(sampled[0, 1], values[3, 4], atol=1e-14)

    def test_midpoint_averages(self):
        values = np.zeros((2, 2, 1))
        values[0, 0, 0] = 1.0
        values[0, 1, 0] = 3.0
        values[1, 0, 0] = 5.0
        values[1, 1, 0] = 7.0
        coords = np.array([[0.5, 0.5]])
        sampled, valid = costvol.bilinear_sample(values, coords)
        # Mean of the four corners: (1 + 3 + 5 + 7) / 4 = 4.
        assert valid[0]
        assert sampled[0, 0] == pytest.approx(4.0)

    def test_quarter_weights(self):
        values = np.zeros((2, 2, 1))
        values[0, 1, 0] = 1.0
        sampled, _ = costvol.bilinear_sample(values, np.array([[0.25, 0.0]]))
        assert sampled[0, 0] == pytest.approx(0.25)

    def test_outside_is_zero_and_invalid(self):
        values = np.ones((3, 3, 1))
        coords = np.array([[-0.01, 1.0], [1.0, 2.01], [3.0, 1.0]])
        sampled, valid = costvol.bilinear_sample(values, coords)
        assert not valid.any()
        np.testing.assert_array_equal(sampled, 0.0)

    def test_far_edge_is_exact(self):
        # x = width-1 sits on the last sample; the clamp keeps it valid
        # with full weight on the final column.
        values = np.arange(6.0).reshape(2, 3, 1)
        sampled, valid = costvol.bilinear_sample(values, np.array([[2.0, 1.0]]))
        assert valid[0]
        assert sampled[0, 0] == pytest.approx(5.0)

    def test_channels_interpolate_independently(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(3, 3, 4))
        coords = np.array([[1.25, 0.75]])
        sampled, _ = costvol.bilinear_sample(values, coords)
        for ch in range(4):
            single, _ = costvol.bilinear_sample(values[..., ch:ch + 1], coords)
            assert sampled[0, ch] == pytest.approx(single[0, 0])


class TestSamplerOracle:
    """The in-place sampler is bit-identical to its np.stack / intp body."""

    @settings(max_examples=80, deadline=None)
    @given(height=st.integers(1, 9), width=st.integers(1, 9),
           channels=st.integers(1, 4), queries=st.integers(0, 120),
           all_invalid=st.booleans(), grid=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(height=1, width=7, channels=2, queries=60, all_invalid=False,
             grid=False, seed=0)
    @example(height=7, width=1, channels=2, queries=60, all_invalid=False,
             grid=False, seed=1)
    @example(height=1, width=1, channels=1, queries=30, all_invalid=False,
             grid=True, seed=2)
    @example(height=4, width=6, channels=3, queries=50, all_invalid=True,
             grid=False, seed=3)
    def test_bit_identical_to_stack_body(self, height, width, channels, queries,
                                         all_invalid, grid, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(height, width, channels))
        # Non-finite and signed-zero entries: a zero weight on one of them
        # still shows in the output (0 * inf is NaN), so a tap that moved
        # by one pixel cannot hide behind a zero weight.
        odd = rng.uniform(size=values.shape) < 0.2
        values[odd] = rng.choice([np.inf, -np.inf, np.nan, -0.0], odd.sum())
        coords = _oracle_queries(rng, height, width, queries, all_invalid)
        if grid and queries % 2 == 0:
            coords = coords.reshape(2, queries // 2, 2)
        sampled, valid = costvol.bilinear_sample(values, coords)
        want, want_valid = _stack_sample(values, coords)
        assert sampled.dtype == want.dtype == np.float64
        assert sampled.shape == want.shape == (*coords.shape[:-1], channels)
        assert valid.dtype == want_valid.dtype == np.bool_
        assert np.array_equal(valid, want_valid)
        assert sampled.tobytes() == want.tobytes()
        if all_invalid:
            assert not valid.any()
            assert not sampled.any()

    @pytest.mark.parametrize("depth", [6.0, 10.0, 17.5, 40.0])
    def test_bit_identical_on_swept_grids(self, depth):
        # Swept grids of rotated, translated sources (6-86% of queries
        # valid), plus far-edge, corner and NaN queries, 32 channels.
        height, width = 12, 16
        ref_cam = _cam(0.0)
        rng = np.random.default_rng(int(depth * 10))
        values = rng.normal(size=(height, width, 32))
        edges = np.array([[15.0, 11.0], [15.0, 3.5], [2.25, 11.0], [0.0, 0.0],
                          [np.nan, 1.0], [-0.0, 5.5]])
        for cam in (_rotated_cam(0.0, 0.08, [-1.2, 0.1, 0.0]),
                    _rotated_cam(-0.1, -0.05, [0.9, -0.8, 0.3]),
                    _rotated_cam(0.3, -0.4, [4.0, 2.0, -3.0])):
            grid = geometry.warp_grid(ref_cam, cam, depth, width, height)
            for coords in (grid, edges):
                sampled, valid = costvol.bilinear_sample(values, coords)
                want, want_valid = _stack_sample(values, coords)
                assert sampled.shape == (*coords.shape[:-1], 32)
                assert np.array_equal(valid, want_valid)
                assert sampled.tobytes() == want.tobytes()

    def test_far_edges_keep_their_taps_on_the_corner(self):
        # Every query sits on x = width - 1 or y = height - 1 of a map
        # whose only finite pixels are the ones the clamped taps read.
        values = np.full((3, 4, 1), np.inf)
        values[1, 3] = 2.0
        values[2, 1:4, 0] = [5.0, 7.0, 11.0]
        coords = np.array([[3.0, 1.0], [1.5, 2.0], [3.0, 2.0], [3.0, 1.5]])
        sampled, valid = costvol.bilinear_sample(values, coords)
        want, _ = _stack_sample(values, coords)
        assert valid.all()
        assert sampled.tobytes() == want.tobytes()
        assert sampled[:, 0].tolist() == [2.0, 6.0, 11.0, 6.5]

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
    def test_one_pixel_wide_and_tall_maps(self, shape):
        height, width = shape
        values = np.arange(height * width * 2, dtype=np.float64).reshape(height, width, 2)
        xs = np.linspace(-0.5, width - 0.5, 9)
        ys = np.linspace(-0.5, height - 0.5, 9)
        coords = np.stack(np.meshgrid(xs, ys), axis=-1)
        sampled, valid = costvol.bilinear_sample(values, coords)
        want, want_valid = _stack_sample(values, coords)
        assert np.array_equal(valid, want_valid)
        assert sampled.tobytes() == want.tobytes()

    def test_every_query_invalid_is_an_empty_matrix(self):
        values = np.full((3, 4, 2), np.nan)
        coords = np.array([[np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0],
                           [4.0, 1.0], [1.0, -0.5]])
        sampled, valid = costvol.bilinear_sample(values, coords)
        assert not valid.any()
        assert sampled.tobytes() == np.zeros((5, 2)).tobytes()
        sampled, valid = costvol.bilinear_sample(values, np.zeros((0, 2)))
        assert sampled.shape == (0, 2) and valid.shape == (0,)


class TestBuildCostSlice:
    """Variance across {reference, valid warped sources}, one slice at a time."""

    def test_identical_views_zero_cost(self):
        rng = np.random.default_rng(2)
        feat = rng.normal(size=(12, 16, 2))
        cam = _cam(0.0)
        sl = _slice_at(feat, [feat, feat], cam, [cam, cam], depth=10.0)
        # Identity warp reproduces the reference exactly: variance 0.
        interior = sl.cost[1:-1, 1:-1]
        np.testing.assert_allclose(interior, 0.0, atol=1e-20)
        assert sl.valid_views.max() == 3

    def test_two_view_variance_formula(self):
        # Constant maps a and b: mean (a+b)/2, population variance over
        # two samples ((a-b)/2)^2 = 2.25 for a=1, b=4.
        ref_cam = _cam(0.0)
        src_cam = _cam(5.0)  # shift = 20*5/d; depth 10 -> 10 px
        a = np.full((12, 16, 1), 1.0)
        b = np.full((12, 16, 1), 4.0)
        sl = _slice_at(a, [b], ref_cam, [src_cam], depth=10.0)
        covered = sl.valid_views == 2
        assert covered.any()
        np.testing.assert_allclose(sl.cost[covered], 2.25, atol=1e-12)

    def test_uncovered_pixels_fall_back_to_reference(self):
        ref_cam = _cam(0.0)
        src_cam = _cam(5.0)
        a = np.full((12, 16, 1), 1.0)
        b = np.full((12, 16, 1), 4.0)
        sl = _slice_at(a, [b], ref_cam, [src_cam], depth=10.0)
        # Shift u' = u - 10: columns u < 10 land outside the source.
        alone = sl.valid_views == 1
        assert alone[:, :9].all()
        np.testing.assert_allclose(sl.cost[alone], 0.0, atol=1e-20)

    def test_matches_direct_variance(self):
        # Three axis-aligned views with integer-pixel shifts: the warped
        # source map is just a rolled array, so the expected variance is
        # np.var over the stacked values wherever all views cover.
        f, depth = 20.0, 10.0
        ref_cam = _cam(0.0)
        cams = [_cam(1.0), _cam(-1.5)]  # shifts of 2 and -3 px at d=10
        rng = np.random.default_rng(3)
        feats = [rng.normal(size=(10, 14, 3)) for _ in range(3)]
        sl = _slice_at(feats[0], feats[1:], ref_cam, cams, depth)
        shift1 = int(f * 1.0 / depth)   # +2 px
        shift2 = int(f * -1.5 / depth)  # -3 px
        # Stay one pixel inside every border: exact-boundary landings can
        # round either way and are checked elsewhere.
        for y in range(1, 9):
            for u in range(shift1 + 1, 13 + shift2):
                stack = np.stack(
                    [feats[0][y, u], feats[1][y, u - shift1], feats[2][y, u - shift2]]
                )
                assert sl.valid_views[y, u] == 3
                np.testing.assert_allclose(
                    sl.cost[y, u], stack.var(axis=0), atol=1e-12
                )

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_matches_np_var_with_rotated_views(self, offset):
        # Rotated, translated sources cover different parts of the
        # reference, so pixels see 1, 2 or 3 views.  The cost must be
        # np.var over the reference and the valid warped samples.  A
        # large common offset must not cost precision or go negative.
        depth, height, width = 10.0, 12, 16
        ref_cam = _cam(0.0)
        cams = [_rotated_cam(0.0, 0.08, [-1.2, 0.1, 0.0]),
                _rotated_cam(-0.1, -0.05, [0.9, -0.8, 0.3])]
        rng = np.random.default_rng(5)
        feats = [offset + rng.normal(size=(height, width, 3)) for _ in range(3)]
        sl = _slice_at(feats[0], feats[1:], ref_cam, cams, depth)
        warped = [
            costvol.bilinear_sample(feat, geometry.warp_grid(ref_cam, cam, depth, width, height))
            for feat, cam in zip(feats[1:], cams)
        ]
        assert set(np.unique(sl.valid_views)) == {1, 2, 3}
        for y, x in np.ndindex(height, width):
            stack = [feats[0][y, x]] + [s[y, x] for s, ok in warped if ok[y, x]]
            assert sl.valid_views[y, x] == len(stack)
            np.testing.assert_allclose(sl.cost[y, x], np.var(stack, axis=0), atol=1e-12)
        assert (sl.cost >= 0.0).all()

    def test_size_mismatch_raises(self):
        cam = _cam(0.0)
        with pytest.raises(SizeMismatchError):
            _slice_at(np.zeros((4, 4, 2)), [np.zeros((4, 5, 2))], cam, [cam], 5.0)

    def test_no_source_raises_before_the_first_slice(self):
        cam = _cam(0.0)
        stream = costvol.cost_volume_stream(
            np.zeros((4, 4, 2)), [], cam, [], geometry.HypothesisSpace(7.5, 8.5, 2))
        with pytest.raises(InvalidArgumentError):
            next(stream)

    def test_source_without_a_camera_raises_before_the_first_slice(self):
        cam = _cam(0.0)
        feat = np.zeros((12, 16, 2))
        stream = costvol.cost_volume_stream(
            feat, [feat, feat], cam, [cam], geometry.HypothesisSpace(7.5, 8.5, 2))
        with pytest.raises(InvalidArgumentError, match="2 source feature maps but 1 cameras"):
            next(stream)

    @pytest.mark.parametrize("rows", [(0, 0), (5, 5), (7, 3), (-1, 4), (0, 13), (12, 13)])
    def test_row_range_empty_or_outside_raises_before_the_first_slice(self, rows):
        cam = _cam(0.0)
        feat = np.zeros((12, 16, 2))
        stream = costvol.cost_volume_stream(
            feat, [feat], cam, [cam], geometry.HypothesisSpace(7.5, 8.5, 2), rows)
        with pytest.raises(InvalidArgumentError, match="row range"):
            next(stream)

    def test_row_range_keeps_the_full_map_size_check(self):
        # A source as tall as the band but not as the reference is still
        # a mismatch: the check compares whole maps.
        cam = _cam(0.0)
        stream = costvol.cost_volume_stream(
            np.zeros((12, 16, 2)), [np.zeros((4, 16, 2))], cam, [cam],
            geometry.HypothesisSpace(7.5, 8.5, 2), (0, 4))
        with pytest.raises(SizeMismatchError):
            next(stream)


# Six sources that each cover part of the reference at depth 10, so
# that some pixels see no source; _BLIND sees none of it.
_SOURCES = [
    _rotated_cam(0.0, 0.08, [-1.2, 0.1, 0.0]),
    _rotated_cam(-0.1, -0.05, [0.9, -0.8, 0.3]),
    _rotated_cam(0.06, 0.0, [0.4, 1.1, -0.2]),
    _cam(-1.5),
    _rotated_cam(-0.04, 0.11, [-0.3, -0.6, 0.5]),
    _rotated_cam(0.09, -0.07, [1.4, 0.2, -0.4]),
]
_BLIND = _cam(500.0)  # every landing is ~1000 px left of the source


def _images(count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, 1.0, size=(12, 16, 3)) for _ in range(count)]


class TestCostSliceOracle:
    """Sums that start from the first source are bit-identical to zero-filled ones."""

    @staticmethod
    def _assert_bit_identical(feats, cams, depth=10.0):
        got = _slice_at(feats[0], feats[1:], _cam(0.0), cams, depth)
        cost, count = _zero_start_cost_slice(feats[0], feats[1:], _cam(0.0), cams, depth)
        assert got.cost.dtype == cost.dtype == np.float64
        assert got.cost.shape == cost.shape
        assert got.cost.tobytes() == cost.tobytes()
        assert got.valid_views.dtype == count.dtype
        assert np.array_equal(got.valid_views, count)
        return got

    @pytest.mark.parametrize("sources", [1, 2, 6])
    def test_photometric_features(self, sources):
        feats = [features.photometric_features(img) for img in _images(sources + 1, 11)]
        got = self._assert_bit_identical(feats, _SOURCES[:sources])
        # Pixels that no source covers fall back to the reference.
        assert (got.valid_views == 1).any()
        assert got.valid_views.max() > 1

    @pytest.mark.parametrize("sources", [1, 2, 6])
    def test_float32_features_cast_as_the_stream_casts_them(self, sources):
        weights = features.random_drenet_weights(3)
        raw = [features.drenet_forward(img, weights) for img in _images(sources + 1, 12)]
        assert raw[0].dtype == np.float32
        feats = [np.asarray(feat, dtype=np.float64) for feat in raw]
        self._assert_bit_identical(feats, _SOURCES[:sources])

    @pytest.mark.parametrize("sources", [1, 3])
    def test_first_source_entirely_invalid(self, sources):
        feats = [features.photometric_features(img) for img in _images(sources + 1, 13)]
        cams = [_BLIND] + _SOURCES[:sources - 1]
        coords = geometry.warp_grid(_cam(0.0), _BLIND, 10.0, 16, 12)
        assert not costvol.bilinear_sample(feats[1], coords)[1].any()
        got = self._assert_bit_identical(feats, cams)
        assert (got.valid_views == 1).any()

    @pytest.mark.parametrize("sources", [1, 2, 6])
    def test_stream_slices_match_the_oracle(self, sources):
        # A stream sums every slice in one reused buffer and hands out
        # each cost in its last sample's buffer.  Slices collected before
        # any is compared must each still equal the oracle at its depth.
        feats = [features.photometric_features(img) for img in _images(sources + 1, 14)]
        cams = ([_BLIND] + _SOURCES)[:sources]
        space = geometry.HypothesisSpace(6.0, 40.0, 5)
        slices = list(costvol.cost_volume_stream(feats[0], feats[1:], _cam(0.0), cams, space))
        assert len(slices) == 5
        for sl, depth in zip(slices, geometry.sample_hypotheses(space)):
            cost, count = _zero_start_cost_slice(feats[0], feats[1:], _cam(0.0), cams, depth)
            assert sl.cost.tobytes() == cost.tobytes()
            assert np.array_equal(sl.valid_views, count)

    @pytest.mark.parametrize("rows", [(0, 12), (0, 1), (3, 8), (11, 12)])
    @pytest.mark.parametrize("sources", [1, 6])
    def test_band_slices_are_those_rows_of_the_whole_slices(self, rows, sources):
        # Sources are sampled from their full maps, so a band's landings
        # may fall in any source row; every pixel's cost is its own.
        feats = [features.photometric_features(img) for img in _images(sources + 1, 15)]
        cams = ([_BLIND] + _SOURCES)[:sources]
        space = geometry.HypothesisSpace(6.0, 40.0, 5)
        whole = list(costvol.cost_volume_stream(feats[0], feats[1:], _cam(0.0), cams, space))
        band = list(costvol.cost_volume_stream(
            feats[0], feats[1:], _cam(0.0), cams, space, rows))
        assert len(band) == len(whole) == 5
        first, stop = rows
        for got, want in zip(band, whole):
            assert got.cost.shape == (stop - first, 16, feats[0].shape[2])
            assert got.cost.tobytes() == want.cost[first:stop].tobytes()
            assert np.array_equal(got.valid_views, want.valid_views[first:stop])


def _peak_bytes(run) -> int:
    """Peak traced bytes allocated by ``run()`` above what was live before."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestCostVolumeStream:
    """Lazy slice production over a hypothesis space."""

    def test_is_lazy(self):
        cam = _cam(0.0)
        feat = np.zeros((32, 32, 32))
        space = geometry.HypothesisSpace(2.0, 4.0, 256)
        stream = costvol.cost_volume_stream(feat, [feat], cam, [cam], space)
        yielded = []
        first_peak = _peak_bytes(lambda: yielded.append(next(stream)))
        first = yielded.pop()
        slice_bytes = first.cost.nbytes + first.valid_views.nbytes
        # One slice, its running sums and one source's sampled product are
        # alive while it is built; the 256 slices of an eager stream would
        # be 20x that.
        assert first_peak <= 12 * slice_bytes
        # Draining the stream must not keep the slices already yielded.
        rest_peak = _peak_bytes(lambda: sum(1 for _ in stream))
        assert rest_peak <= 12 * slice_bytes
