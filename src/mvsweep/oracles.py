"""Plain references for the checked quantities, and the ``mvsweep check`` battery.

Each reference computes one quantity from its inputs with numpy and math
alone, per point, per pixel or per tap, and never calls the code it
checks.  The battery's rows compare the package with them on small
frozen inputs; the tests import the same references.
"""

from __future__ import annotations

import itertools
import logging
import math
import tempfile
from pathlib import Path

import numpy as np

from . import costvol, estimator, features, formats, fusion, geometry, metrics
from . import regularizer, synth
from .depthmap import DepthMap
from .errors import BehindCameraError

log = logging.getLogger("mvsweep")


# ---------------------------------------------------------------------------
# References


def back_project(cam, pixel, depth):
    """``X = M^-1 (d * (x, y, 1) - p_t)``; requires ``depth > 0``."""
    if depth <= 0:
        raise BehindCameraError(f"cannot back-project non-positive depth {depth}")
    ph = np.array([pixel[0], pixel[1], 1.0], dtype=np.float64)
    return cam.proj_m_inv @ (depth * ph - cam.proj_t)


def project(cam, point):
    """``(pixel, depth)`` of a world point; raises behind the camera."""
    w = cam.proj_m @ np.asarray(point, dtype=np.float64) + cam.proj_t
    depth = float(w[2])
    if depth <= 0:
        raise BehindCameraError(f"point projects behind the camera (depth {depth})")
    return w[:2] / depth, depth


def hypotheses(d_min, d_max, count, mode="uniform"):
    """The ``count`` swept depths, evenly spaced in depth or in 1/depth."""
    steps = [i / (count - 1) for i in range(count)]
    if mode == "uniform":
        return np.array([d_min + (d_max - d_min) * t for t in steps])
    return np.array([1.0 / (1.0 / d_min + (1.0 / d_max - 1.0 / d_min) * t) for t in steps])


def nearest_depth(dm, x, y):
    """Depth of the pixel nearest ``(x, y)`` (ties round up), NaN outside
    ``[0, w - 1] x [0, h - 1]`` or on a NaN pixel of the ``DepthMap``."""
    height, width = dm.data.shape
    if 0.0 <= x <= width - 1.0 and 0.0 <= y <= height - 1.0:
        ix, iy = math.floor(x + 0.5), math.floor(y + 0.5)
        if math.isfinite(dm.data[iy, ix]):
            return float(dm.data[iy, ix])
    return math.nan


def reproject(ref, src, pixel, depth, source_depth):
    """Round trip ref -> source depth -> ref as ``(pixel', depth')``, or None;
    ``source_depth(x, y)`` is the source's depth (NaN where it has none)."""
    point = back_project(ref, pixel, depth)
    try:
        q, _ = project(src, point)
    except BehindCameraError:
        return None
    d_src = source_depth(float(q[0]), float(q[1]))
    if not 0.0 < d_src < math.inf:
        return None
    try:
        return project(ref, back_project(src, q, d_src))
    except BehindCameraError:
        return None


def reprojection_errors(pixel, pixel2, depth, depth2):
    """``xi_p = ||p - p'||_2`` and ``xi_d = |d - d'| / d``."""
    xi_p = math.hypot(float(pixel2[0]) - float(pixel[0]), float(pixel2[1]) - float(pixel[1]))
    return xi_p, abs(float(depth2) - float(depth)) / float(depth)


def bilinear_sample(values, x, y):
    """One bilinear query of an ``(H, W, C)`` map as ``(sample, valid)``;
    valid inside ``[0, W - 1] x [0, H - 1]``, zeros elsewhere.  Corners
    are clamped to the map, so a one-pixel-wide map reads its own pixel."""
    height, width, channels = values.shape
    if not (0.0 <= x <= width - 1.0 and 0.0 <= y <= height - 1.0):
        return np.zeros(channels), False
    x0 = min(math.floor(x), max(width - 2, 0))
    y0 = min(math.floor(y), max(height - 2, 0))
    x1 = min(x0 + 1, width - 1)
    y1 = min(y0 + 1, height - 1)
    fx, fy = x - x0, y - y0
    top = values[y0, x0] * (1.0 - fx) + values[y0, x1] * fx
    bottom = values[y1, x0] * (1.0 - fx) + values[y1, x1] * fx
    return top * (1.0 - fy) + bottom * fy, True


def cost_slice(ref, srcs, ref_cam, src_cams, depth):
    """``(cost, valid_views)`` at one swept depth: per pixel and channel the
    population variance of the reference feature and the samples of the
    sources its point at ``depth`` lands inside, and their count."""
    height, width, _ = ref.shape
    cost = np.empty(ref.shape)
    count = np.empty((height, width), dtype=np.int64)
    for y, x in itertools.product(range(height), range(width)):
        point = back_project(ref_cam, (x, y), depth)
        samples = [ref[y, x]]
        for src, cam in zip(srcs, src_cams):
            try:
                (sx, sy), _ = project(cam, point)
            except BehindCameraError:
                continue
            sample, valid = bilinear_sample(src, sx, sy)
            if valid:
                samples.append(sample)
        cost[y, x] = np.var(samples, axis=0)
        count[y, x] = len(samples)
    return cost, count


def conv3x3(x, kernel, bias=None, dilation=1):
    """``out[y, x, o] = bias[o] + sum kernel[o, c, ky, kx] * in[y + (ky - 1) d,
    x + (kx - 1) d, c]``, zero outside the map, in float64, tap by tap."""
    x = np.asarray(x, dtype=np.float64)
    height, width, channels = x.shape
    d = dilation
    padded = np.zeros((height + 2 * d, width + 2 * d, channels))
    padded[d:d + height, d:d + width] = x
    out = np.zeros((height, width, kernel.shape[0]))
    if bias is not None:
        out += bias
    for ky, kx in itertools.product(range(3), range(3)):
        window = padded[ky * d:ky * d + height, kx * d:kx * d + width]
        out += window @ kernel[:, :, ky, kx].T
    return out


def stuff_zeros(x):
    """``x`` spread to twice its height and width, ``x[i, j]`` at ``(2i, 2j)``."""
    height, width, channels = x.shape
    stuffed = np.zeros((2 * height, 2 * width, channels), dtype=x.dtype)
    stuffed[::2, ::2] = x
    return stuffed


def stuffed_upsample(x, kernel, bias, out_hw):
    """Stride-2 transposed 3x3 convolution: a 3x3 convolution of the
    zero-stuffed map, cropped to ``out_hw``."""
    return conv3x3(stuff_zeros(x), kernel, bias)[:out_hw[0], :out_hw[1]]


def conv_lstm_cell(x, h_prev, c_prev, kernel, bias):
    """``(h, c)`` of one ConvLSTM step; the stacked kernel and bias hold the
    input, forget, output and candidate gates, each a conv of ``[x, h]``."""
    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = np.concatenate([x, h_prev], axis=2)
    gi, gf, go, gc = (conv3x3(z, k, b) for k, b in zip(np.split(kernel, 4), np.split(bias, 4)))
    c = sigmoid(gf) * c_prev + sigmoid(gi) * np.tanh(gc)
    return sigmoid(go) * np.tanh(c), c


def softmax(volume):
    """Per-pixel softmax over the leading depth axis, shifted by the maximum."""
    e = np.exp(volume - volume.max(axis=0))
    return e / e.sum(axis=0)


def softmax_wta(volume):
    """``(winner, confidence)`` of ``(D, H, W)`` scores: the first maximum and
    the probability of it and of each neighbour that exists."""
    prob = np.pad(softmax(volume), ((1, 1), (0, 0), (0, 0)))  # zero past either end
    winner = volume.argmax(axis=0)
    taps = [np.take_along_axis(prob, (winner + k)[None], axis=0)[0] for k in range(3)]
    return winner, taps[0] + taps[1] + taps[2]


def nearest_distance(query, reference):
    """Distance from each ``(N, 3)`` query row to its nearest reference row,
    by a pairwise scan."""
    return np.sqrt(np.square(query[:, None, :] - reference[None, :, :]).sum(axis=2)).min(axis=1)


def _lattice(ix, iy, iz, seed):
    """The lattice hash in Python integers, as a value in ``[0, 1)``."""
    h = (ix * 0x8DA6B343 ^ iy * 0xD8163841 ^ iz * 0xCB1AB31F
         ^ seed * 0x9E3779B9) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    return (h ^ h >> 16) / 4294967296.0


def value_noise(point, seed, scale, octaves):
    """Value noise at one point: per octave, the smoothstep-weighted sum of
    the eight lattice corners around it, halving cell and amplitude."""
    total = norm = 0.0
    amp, cell = 1.0, scale
    for octave in range(octaves):
        base = [math.floor(c / cell) for c in point]
        t = [f * f * (3.0 - 2.0 * f) for f in (c / cell - b for c, b in zip(point, base))]
        value = 0.0
        for offset in itertools.product((0, 1), repeat=3):
            weight = math.prod(w if o else 1.0 - w for o, w in zip(offset, t))
            value += weight * _lattice(*(b + o for b, o in zip(base, offset)),
                                       seed + 7919 * octave)
        total += amp * value
        norm += amp
        amp *= 0.5
        cell *= 0.5
    return total / norm


# ---------------------------------------------------------------------------
# The battery: one row per checked quantity, each on small frozen inputs.


def _check(ok) -> None:
    """Fail the row unless ``ok``; unlike ``assert``, it still checks
    under ``python -O``."""
    if not ok:
        raise AssertionError("check failed")


def _camera_round_trip():
    rng = np.random.default_rng(1)
    for cam in synth.make_camera_ring(synth.CameraRigSpec(n_views=5)):
        points = rng.uniform(-50, 50, (3, 3))
        pixels, depths = geometry.project_points(cam, points)
        for point, pixel, depth in zip(points, pixels, depths):
            want_pixel, want_depth = project(cam, point)
            _check(np.max(np.abs(pixel - want_pixel)) < 1e-9)
            _check(abs(depth - want_depth) < 1e-12 * want_depth)
            back = geometry.back_project_grid(cam, want_pixel[0], want_pixel[1], want_depth)
            _check(np.max(np.abs(back - back_project(cam, want_pixel, want_depth))) < 1e-9)


def _hypothesis_sampling():
    for mode in ("uniform", "inverse"):
        depths = geometry.sample_hypotheses(geometry.HypothesisSpace(425.0, 745.0, 128, mode))
        _check(depths[0] == 425.0 and depths[-1] == 745.0)
        _check(np.allclose(depths, hypotheses(425.0, 745.0, 128, mode), rtol=1e-12, atol=0.0))


def _reprojection_chain():
    rig = synth.CameraRigSpec(n_views=3, width=32, height=24, focal=70.0)
    ref, src = synth.make_camera_ring(rig)[:2]
    sampler = synth.AnalyticDepth(src, synth.Plane(), 32, 24)
    own = synth.AnalyticDepth(ref, synth.Plane(), 32, 24)
    # On the surface the trip closes.
    px, py = np.array([15.0]), np.array([11.0])
    depth = own.depth_grid(px, py)
    _, p2, d2 = geometry.reproject_chain_map(ref, src, px, py, depth, sampler)
    _check(np.isfinite(d2[0]))
    xi_p, xi_d = geometry.reprojection_errors_map(px, py, p2, depth, d2)
    _check(xi_p[0] < 1e-9 and xi_d[0] < 1e-12)
    # Off the surface it does not: the map against the trip per pixel.
    ys, xs = np.mgrid[0:24, 0:32].astype(np.float64)
    depths = own.depth_grid(xs, ys) * np.random.default_rng(6).uniform(0.8, 1.25, xs.shape)
    _, p2, d2 = geometry.reproject_chain_map(ref, src, xs, ys, depths, sampler)
    xi_p, xi_d = geometry.reprojection_errors_map(xs, ys, p2, depths, d2)
    valid = np.isfinite(d2)
    _check(valid.any() and not valid.all())
    for idx in np.ndindex(xs.shape):
        pixel = (xs[idx], ys[idx])
        want = reproject(ref, src, pixel, depths[idx],
                         lambda x, y: float(sampler.depth_grid(x, y)))
        _check(valid[idx] == (want is not None))
        if want is not None:
            _check(np.max(np.abs(p2[idx] - want[0])) < 1e-9)
            _check(abs(d2[idx] - want[1]) < 1e-9 * want[1])
            want_p, want_d = reprojection_errors(pixel, want[0], depths[idx], want[1])
            _check(abs(xi_p[idx] - want_p) < 1e-9 and abs(xi_d[idx] - want_d) < 1e-9)


def _depth_lookup():
    # A non-square map with NaN and ±inf holes, so that swapped axes read
    # the wrong pixel, queried on half-pixel ties, far edges and
    # non-finite coordinates.
    rng = np.random.default_rng(7)
    h, w = 5, 8
    data = rng.uniform(1.0, 9.0, (h, w))
    data[rng.random((h, w)) <= 0.25] = np.nan
    data[1, 2], data[3, 6] = np.inf, -np.inf
    dm = DepthMap(data)
    xs = np.concatenate([rng.uniform(-1.0, w, 80),
                         [0.0, w - 1.0, 2.5, -0.0, w - 0.5, np.nan, np.inf]])
    ys = np.concatenate([rng.uniform(-1.0, h, 80),
                         [h - 1.0, 0.0, 3.5, 1.5, 1.0, 1.0, -np.inf]])
    want = [nearest_depth(dm, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    _check(np.array_equal(dm.depth_grid(xs, ys), want, equal_nan=True))
    # Every pixel center, as an (h, 1) column against a (w,) row.
    grid = dm.depth_grid(np.arange(w, dtype=float), np.arange(h, dtype=float)[:, None])
    _check(np.array_equal(grid, np.where(np.isfinite(data), data, np.nan), equal_nan=True))


def _conv_oracle():
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
            want = conv3x3(x, kernel, bias, dilation)
            single = blocks is x32
            _check(got.dtype == (np.float32 if single else np.float64))
            bound = 1e-5 * np.max(np.abs(want)) if single else 1e-9
            _check(np.max(np.abs(got - want)) < bound)


def _upsample_phases():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 5, 3))
    kernel = rng.normal(size=(2, 3, 3, 3))
    bias = rng.normal(size=2)
    for out_hw in ((8, 10), (7, 9)):
        want = stuffed_upsample(x, kernel, bias, out_hw)
        for dtype, bound in ((np.float64, 1e-9), (np.float32, 1e-5 * np.max(np.abs(want)))):
            got = regularizer._upsample_conv(x.astype(dtype), kernel, bias, out_hw)
            _check(got.dtype == dtype and got.shape == want.shape)
            _check(np.max(np.abs(got - want)) < bound)


def _bilinear_sample():
    def agrees(values, xs, ys, want_valid):
        sampled, valid = costvol.bilinear_sample(values, np.stack([xs, ys], axis=-1))
        want = [bilinear_sample(values, x, y)[0] for x, y in zip(xs, ys)]
        _check(valid.tolist() == want_valid and np.max(np.abs(sampled - want)) < 1e-12)

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


def _cost_slice():
    # The rotated source leaves some reference pixels uncovered.
    k = np.array([[6.0, 0.0, 2.5], [0.0, 6.0, 1.5], [0.0, 0.0, 1.0]])
    c, s = math.cos(0.1), math.sin(0.1)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    ref_cam = geometry.Camera(k, np.eye(3), np.zeros(3))
    src_cam = geometry.Camera(k, rot, np.array([-2.0, 0.3, 0.0]))
    ref, src = np.random.default_rng(9).normal(size=(2, 4, 6, 2))
    # The first slice of a stream sweeps its d_min.
    space = geometry.HypothesisSpace(8.0, 9.0, 2)
    sl = next(costvol.cost_volume_stream(ref, [src], ref_cam, [src_cam], space))
    cost, count = cost_slice(ref, [src], ref_cam, [src_cam], 8.0)
    _check(np.array_equal(sl.valid_views, count))
    _check(1 in count and 2 in count)
    _check(np.max(np.abs(sl.cost - cost)) < 1e-12)


def _texture_oracle():
    points = np.random.default_rng(8).uniform(-300.0, 300.0, (6, 3))
    points[-1] = (-4.1e10, 7.3e10, -2.2e10)  # lattice products wrap
    seeds = (0, 131, 262)
    for scale, octaves in ((60.0, 2), (17.0, 3)):
        got = synth._noise_fields(points, seeds, scale, octaves)
        want = [[value_noise(p, seed, scale, octaves) for seed in seeds]
                for p in points.tolist()]
        _check(got.shape == (len(points), len(seeds)))
        _check(np.max(np.abs(got - want)) < 1e-12)


def _streaming_softmax():
    scores = np.random.default_rng(3).normal(size=(16, 4, 5))
    space = geometry.HypothesisSpace(1.0, 2.0, 16)
    # The second volume stresses the running renormalization.
    for volume in (scores, scores * 100.0 + 500.0):
        stream = (regularizer.ScoreSlice(score=s) for s in volume)
        depth, conf = estimator.online_softmax_wta(stream, space)
        winner, want = softmax_wta(volume)
        _check(np.allclose(depth.data, hypotheses(1.0, 2.0, 16)[winner], rtol=1e-12, atol=0.0))
        _check(np.allclose(conf, want, rtol=1e-9, atol=0.0))


def _consistency_values():
    # The last trip failed: its errors are NaN and it scores 0.
    xi_p = np.array([1.0, 0.0, 0.3, np.nan])
    xi_d = np.array([0.01, 0.0, 0.002, np.nan])
    for lam in (200.0, 50.0):
        want = [math.exp(-(p + lam * d)) for p, d in zip(xi_p[:3], xi_d[:3])] + [0.0]
        got = fusion._scores(xi_p.copy(), xi_d.copy(), lam)
        _check(np.max(np.abs(got - want)) < 1e-12)


def float32_round_trip_gap(width: int, height: int) -> tuple[int, int, float, float]:
    """How far fusion's float32 round trips stray from float64 ones.

    A noisy sphere pair as ``synth --scene sphere --noise-sigma 0.5
    --outlier-frac 0.1`` stores it, in float32, makes the round trips of
    every reference pixel with a depth once as stored and once upcast to
    float64, which is how fusion computed before it kept the maps'
    precision.  Returns ``(trips, moved, dq, dc)``: ``moved`` counts the
    trips whose nearest-pixel lookup read another pixel, ``dq`` is the
    largest gap of the landing pixels and ``dc`` that of the scores of
    the trips that did not move.
    """
    cams = synth.make_camera_ring(synth.CameraRigSpec(
        n_views=16, focal=2.2 * width, width=width, height=height))
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    stored = []
    for i in (0, 1):
        sphere = synth.AnalyticDepth(cams[i], synth.Sphere(radius=100.0), width, height)
        depth = synth.perturb_depths(DepthMap(sphere.depth_grid(xs, ys)), sigma=0.5,
                                     outlier_frac=0.1, seed=i)
        stored.append(depth.data.astype(np.float32))
    trips = []
    for dtype in (np.float32, np.float64):
        ref, src = (fusion.ViewEstimate(cam, DepthMap(data.astype(dtype)))
                    for cam, data in zip(cams, stored))
        _, _, pixels = fusion._reference_pixels(ref, ref.depth.mask)
        q, _, xi_p, xi_d = fusion._round_trips(ref, src, pixels)
        # Both maps hold the same values, so another looked-up value
        # means another pixel.
        looked_up = src.depth.depth_grid(q[:, 0], q[:, 1])
        trips.append((q, looked_up, fusion._scores(xi_p, xi_d, fusion.FusionParams.lam)))
    (q32, looked32, c32), (q64, looked64, c64) = trips
    _check(np.array_equal(np.isnan(q32), np.isnan(q64)))
    moved = ~((looked32 == looked64) | (np.isnan(looked32) & np.isnan(looked64)))
    dq = np.abs(q32 - q64)
    return (len(c64), int(moved.sum()), float(np.nanmax(dq, initial=0.0)),
            float(np.max(np.abs(c32 - c64)[~moved], initial=0.0)))


def _float32_round_trip():
    # The landing pixels agree to 1e-3 px; a trip's score moves by more
    # than 1e-3 only where its lookup reads a neighbouring pixel, which
    # fewer than 1 in 1,000 trips do.
    trips, moved, dq, dc = float32_round_trip_gap(128, 96)
    _check(trips > 0 and dq <= 1e-3 and dc <= 1e-3 and moved <= 1e-3 * trips)


def _nearest_distance():
    # Repeated rows in both clouds, and queries that sit on reference
    # points, make ties and zero distances.
    rng = np.random.default_rng(10)
    ref = rng.normal(size=(200, 3))
    ref[150:] = ref[:50]
    query = rng.normal(size=(200, 3))
    query[100:120] = query[:20]
    query[120:140] = ref[:20]
    got = metrics.nearest_distance(fusion.PointCloud(query), fusion.PointCloud(ref))
    _check(got.shape == (200,))
    _check(np.max(np.abs(got - nearest_distance(query, ref))) < 1e-12)


def _formats_round_trip():
    def text(v):  # a number as the camera file's text reads back
        return float(f"{v:.13g}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cam = synth.make_camera_ring(synth.CameraRigSpec(n_views=3))[1]
        depth_range = formats.DepthRange(425.0 / 3.0, math.pi / 7.0, 4, 2.0 ** 0.5 * 100.0)
        formats.write_cam(tmp / "c.txt", cam, depth_range)
        cam2, dr = formats.read_cam(tmp / "c.txt")
        for field in ("intrinsic", "rotation", "translation"):
            _check(np.array_equal(getattr(cam2, field), np.vectorize(text)(getattr(cam, field))))
        _check(dr == formats.DepthRange(text(depth_range.d_min), text(depth_range.d_interval),
                                        4, text(depth_range.d_max)))
        data = np.array([[1.5, np.nan], [0.25, 8.0]], dtype=np.float32)
        formats.write_pfm(tmp / "d.pfm", data)
        _check(np.array_equal(formats.read_pfm(tmp / "d.pfm"), data, equal_nan=True))
        xyz = np.array([[1.0, 2.0, 3.0], [0.1, -2.0 / 3.0, 1e3 / 7.0]])
        stored = xyz.astype(np.float32).astype(np.float64)  # a PLY holds float32
        rgb = np.array([[9, 8, 7], [255, 0, 128]], dtype=np.uint8)
        for mode in ("binary", "ascii"):
            formats.write_ply(tmp / "p.ply", fusion.PointCloud(xyz, rgb), mode=mode)
            back = formats.read_ply(tmp / "p.ply")
            _check(back.xyz.tobytes() == stored.tobytes())
            _check(back.rgb is not None and np.array_equal(back.rgb, rgb))


ROWS = (
    ("camera_round_trip", _camera_round_trip),
    ("hypothesis_sampling", _hypothesis_sampling),
    ("reprojection_chain", _reprojection_chain),
    ("depth_lookup", _depth_lookup),
    ("conv_oracle", _conv_oracle),
    ("upsample_phases", _upsample_phases),
    ("bilinear_sample", _bilinear_sample),
    ("cost_slice", _cost_slice),
    ("texture_oracle", _texture_oracle),
    ("streaming_softmax", _streaming_softmax),
    ("consistency_values", _consistency_values),
    ("float32_round_trip", _float32_round_trip),
    ("nearest_distance", _nearest_distance),
    ("formats_round_trip", _formats_round_trip),
)


def battery() -> list[tuple[str, bool]]:
    """``(name, ok)`` of every row; a row fails when it raises anything."""
    results = []
    for name, row in ROWS:
        try:
            row()
            results.append((name, True))
        except Exception:  # deliberate: any failure marks the row
            log.exception("check %s failed", name)
            results.append((name, False))
    return results
