"""Cross-view filtering of depth maps and fusion into a point cloud.

A depth estimate survives only if other views agree with it.  Agreement
between a reference pixel and one source view is scored by the round
trip reproject -> source depth lookup -> reproject back: the spatial
error ``xi_p`` (pixels) and relative depth error ``xi_d`` combine into
``c = exp(-(xi_p + lam * xi_d))``, a matching score in (0, 1] that is 0
when the round trip is invalid.  Summing ``c`` over all source views
gives a per-pixel consistency total that is thresholded dynamically:
many mediocre agreements or a few excellent ones both pass.  The
classical baseline, counting views whose errors beat fixed thresholds,
is provided for comparison.

Fusion walks the views in order, back-projecting surviving pixels at a
consistency-weighted average depth, and marks matched source pixels as
consumed so overlapping views do not duplicate the same surface sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .depthmap import DepthMap
from .errors import InvalidArgumentError
from .geometry import (
    Camera,
    back_project_grid,
    reproject_chain_map,
    reprojection_errors_map,
)

__all__ = [
    "FusionParams",
    "PointCloud",
    "ViewEstimate",
    "consistency_from_errors",
    "dynamic_consistency_map",
    "dynamic_filter",
    "fixed_threshold_filter",
    "fuse_point_cloud",
    "pairwise_consistency",
    "probability_filter",
]

# A source pixel is folded into a fused point when its matching score
# exceeds this; equivalent to xi_p + lam * xi_d < 3.
MATCH_SCORE_FLOOR = float(np.exp(-3.0))


@dataclass(eq=False)
class ViewEstimate:
    """One view's camera, estimated depth, confidence, and image."""

    camera: Camera
    depth: DepthMap
    confidence: np.ndarray
    image: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.confidence = np.asarray(self.confidence, dtype=np.float64)
        if self.confidence.shape != self.depth.data.shape:
            raise ValueError("confidence shape must match depth map")


@dataclass(frozen=True)
class FusionParams:
    """Thresholds for filtering and fusion.

    ``lam`` weighs relative depth error against pixel error inside the
    matching score; ``tau`` is the dynamic consistency floor; ``phi``
    the minimum estimator confidence; ``tau1``/``tau2``/``min_views``
    parameterize the fixed-threshold baseline.
    """

    lam: float = 200.0
    tau: float = 1.8
    phi: float = 0.4
    tau1: float = 1.0
    tau2: float = 0.01
    min_views: int = 3

    def __post_init__(self) -> None:
        # Written as "not in range" so NaN is rejected too.
        if not (0.0 <= self.lam < np.inf and 0.0 <= self.tau < np.inf
                and 0.0 <= self.phi <= 1.0):
            raise InvalidArgumentError(
                "lam and tau must be non-negative and finite, phi in [0, 1]")
        if not (self.tau1 > 0.0 and self.tau2 > 0.0 and self.min_views >= 1):
            raise InvalidArgumentError("tau1, tau2 must be positive and min_views >= 1")


def _read_only_rows(values, dtype, adopt: bool = False) -> np.ndarray:
    """``values`` as a read-only, C-contiguous ``(n, 3)`` array that no
    caller can write through.  It is copied where ``np.asarray`` would
    alias the input, unless ``adopt`` says that nobody else holds the
    input; then it is copied only to change its dtype or layout."""
    if adopt:
        rows = np.ascontiguousarray(values, dtype=dtype)
    else:
        rows = np.asarray(values, dtype=dtype)
        if rows is values or rows.base is not None:
            rows = rows.copy()
    rows = rows.reshape(-1, 3)
    # A view's base is the array that owns its memory, so locking both
    # leaves no writeable path to the rows.
    for array in (rows, rows.base):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Fused 3-d points with optional per-point colors.

    The coordinates and colors are read-only, so the k-d tree that
    :attr:`tree` builds on first use never goes stale.
    """

    xyz: np.ndarray
    rgb: np.ndarray | None = None

    def __post_init__(self) -> None:
        self._own(adopt=False)

    def _own(self, adopt: bool) -> None:
        object.__setattr__(self, "xyz", _read_only_rows(self.xyz, np.float64, adopt))
        if self.rgb is not None:
            object.__setattr__(self, "rgb", _read_only_rows(self.rgb, np.uint8, adopt))
            if len(self.rgb) != len(self.xyz):
                raise ValueError("rgb count must match point count")

    @classmethod
    def _adopt(cls, xyz: np.ndarray, rgb: np.ndarray | None = None) -> "PointCloud":
        """A cloud that takes arrays nobody else holds, such as a fresh
        ``np.concatenate`` result, and marks them read-only in place."""
        cloud = cls.__new__(cls)
        object.__setattr__(cloud, "xyz", xyz)
        object.__setattr__(cloud, "rgb", rgb)
        cloud._own(adopt=True)
        return cloud

    def __len__(self) -> int:
        return len(self.xyz)

    @cached_property
    def tree(self) -> cKDTree:
        """k-d tree over :attr:`xyz`, built once and shared by every query.

        Its cells split at the sliding midpoint, not the median, and hold
        up to 32 points.  On a 2-core machine, the trees of a 60k-point
        cloud and its 386k-point truth built in about 55% of the time
        that scipy's balanced, 16-point default took, and queried as
        fast.  A nearest distance does not depend on the tree's shape.
        """
        return cKDTree(self.xyz, leafsize=32, balanced_tree=False)

    @classmethod
    def empty(cls, with_rgb: bool = False) -> "PointCloud":
        rgb = np.zeros((0, 3), dtype=np.uint8) if with_rgb else None
        return cls(np.zeros((0, 3)), rgb)


def consistency_from_errors(xi_p, xi_d, lam: float = 200.0):
    """Matching score ``exp(-(xi_p + lam * xi_d))`` of a reprojection."""
    return np.exp(-(np.asarray(xi_p, dtype=np.float64) + lam * np.asarray(xi_d, dtype=np.float64)))


def probability_filter(view: ViewEstimate, phi: float = 0.4) -> ViewEstimate:
    """Mask out pixels whose estimator confidence is below ``phi``."""
    kept = view.depth.mask & (view.confidence >= phi)
    return replace(view, depth=DepthMap(view.depth.data, kept))


def pairwise_consistency(ref: ViewEstimate, src: ViewEstimate, pixel,
                         lam: float = 200.0) -> float:
    """Matching score of one reference pixel against one source view.

    One element of :func:`_round_trips` and :func:`_scores` at the
    reference depth ``ref.depth.depth_at(pixel)``.  Returns 0.0 when that
    lookup is off the image, masked or not a positive finite depth, or
    when the round trip through the source depth map fails.
    """
    x, y = float(pixel[0]), float(pixel[1])
    depth = ref.depth.depth_at(x, y)
    if not 0.0 < depth < np.inf:
        return 0.0
    _, _, xi_p, xi_d, valid = _round_trips(
        ref, src, (np.array([x]), np.array([y]), np.array([depth])))
    return float(_scores(xi_p, xi_d, valid, lam)[0])


def _reference_pixels(ref: ViewEstimate, active: np.ndarray):
    """Indices ``(ys, xs)`` of the ``active`` reference pixels and their
    float coordinates and depths ``(px, py, depths)``, which every round
    trip from this reference shares."""
    ys, xs = np.nonzero(active)
    return ys, xs, (xs.astype(np.float64), ys.astype(np.float64), ref.depth.data[ys, xs])


def _round_trips(ref: ViewEstimate, src: ViewEstimate, pixels):
    """Round trip of the reference ``pixels`` through ``src``.

    ``pixels`` is the ``(px, py, depths)`` triple of
    :func:`_reference_pixels`.  Returns ``(q, d2, xi_p, xi_d, valid)``:
    the landing pixel in the source, the depth after the trip back, both
    errors and the validity of the trip.  Failed trips have NaN ``d2``
    and errors.
    """
    px, py, depths = pixels
    q, p2, d2, valid = reproject_chain_map(
        ref.camera, src.camera, px, py, depths, src.depth)
    with np.errstate(invalid="ignore"):
        xi_p, xi_d = reprojection_errors_map(px, py, p2, depths, d2)
    return q, d2, xi_p, xi_d, valid


def _scores(xi_p: np.ndarray, xi_d: np.ndarray, valid: np.ndarray,
            lam: float) -> np.ndarray:
    """:func:`consistency_from_errors` of the trips, 0 where ``valid`` is
    False; the scores overwrite ``xi_d``."""
    c = np.multiply(lam, xi_d, out=xi_d)
    c += xi_p
    np.negative(c, out=c)
    np.exp(c, out=c)
    c[~valid] = 0.0
    return c


def dynamic_consistency_map(ref: ViewEstimate, srcs: Sequence[ViewEstimate],
                            lam: float = 200.0) -> np.ndarray:
    """Total matching score of each reference pixel over all sources.

    The reference itself never appears in the sum; invalid pixels and
    failed round trips contribute 0.
    """
    ys, xs, pixels = _reference_pixels(ref, ref.depth.mask)
    total = np.zeros(len(xs), dtype=np.float64)
    for src in srcs:
        _, _, xi_p, xi_d, valid = _round_trips(ref, src, pixels)
        total += _scores(xi_p, xi_d, valid, lam)
    out = np.zeros(ref.depth.data.shape, dtype=np.float64)
    out[ys, xs] = total
    return out


def dynamic_filter(ref: ViewEstimate, srcs: Sequence[ViewEstimate],
                   params: FusionParams = FusionParams()) -> ViewEstimate:
    """Keep pixels that pass both the confidence and consistency floors.

    A pixel survives when its confidence is at least ``params.phi`` and
    its summed matching score over the (unmodified) source views is at
    least ``params.tau``.  Sources are used as given; apply
    :func:`probability_filter` to them first if their low-confidence
    pixels should not vouch for anyone.
    """
    filtered = probability_filter(ref, params.phi)
    total = dynamic_consistency_map(filtered, srcs, params.lam)
    kept = filtered.depth.mask & (total >= params.tau)
    return replace(ref, depth=DepthMap(ref.depth.data, kept))


def fixed_threshold_filter(ref: ViewEstimate, srcs: Sequence[ViewEstimate],
                           params: FusionParams = FusionParams()) -> ViewEstimate:
    """Classical consistency baseline with hard per-view thresholds.

    A source view supports a pixel when its round trip succeeds with
    ``xi_p < tau1`` and ``xi_d < tau2`` (strict); a pixel is kept when
    at least ``min_views`` sources support it.
    """
    ys, xs, pixels = _reference_pixels(ref, ref.depth.mask)
    support = np.zeros(len(xs), dtype=np.int64)
    for src in srcs:
        _, _, xi_p, xi_d, valid = _round_trips(ref, src, pixels)
        support += valid & (xi_p < params.tau1) & (xi_d < params.tau2)
    kept = np.zeros(ref.depth.data.shape, dtype=bool)
    kept[ys, xs] = support >= params.min_views
    return replace(ref, depth=DepthMap(ref.depth.data, kept))


def fuse_point_cloud(views: Sequence[ViewEstimate], lam: float = 200.0,
                     ) -> PointCloud:
    """Merge filtered views into a single deduplicated point cloud.

    Views are processed in order.  Each still-unconsumed valid pixel of
    the current reference becomes one point at the consistency-weighted
    average of its own depth (weight 1) and the reprojected depths of
    matching sources (weight ``c``, counted only when ``c`` exceeds
    ``exp(-3)``); the matched source pixels are marked consumed so later
    views do not emit them again.  Colors come from the reference image
    when every view provides one.
    """
    if not views:
        return PointCloud.empty()
    consumed = [np.zeros(v.depth.data.shape, dtype=bool) for v in views]
    want_rgb = all(v.image is not None for v in views)
    points: list[np.ndarray] = []
    colors: list[np.ndarray] = []
    for i, ref in enumerate(views):
        active = ref.depth.mask & ~consumed[i]
        if not active.any():
            continue
        ys, xs, pixels = _reference_pixels(ref, active)
        weight = np.ones(len(xs), dtype=np.float64)
        depth_acc = pixels[2].copy()  # the trips below still read the depths
        for j, src in enumerate(views):
            if j == i:
                continue
            q, d2, xi_p, xi_d, valid = _round_trips(ref, src, pixels)
            c = _scores(xi_p, xi_d, valid, lam)
            # Failed trips score 0, below the floor.
            hit = np.flatnonzero(c > MATCH_SCORE_FLOOR)
            if hit.size:
                score = c[hit]
                weight[hit] += score
                depth_acc[hit] += score * d2[hit]
                # The matched source pixel is the same nearest pixel the
                # depth lookup used; mark it so view j never re-emits it.
                landing = q[hit]
                landing += 0.5
                qx, qy = np.floor(landing, out=landing).astype(np.intp).T
                consumed[j][qy, qx] = True
        fused_depth = depth_acc / weight
        points.append(back_project_grid(ref.camera, xs, ys, fused_depth))
        if want_rgb:
            img = ref.image
            if img.ndim == 2:
                img = np.stack([img] * 3, axis=2)
            vals = np.clip(np.rint(img[ys, xs] * 255.0), 0, 255).astype(np.uint8)
            colors.append(vals)
    if not points:
        return PointCloud.empty(want_rgb)
    xyz = np.concatenate(points)
    rgb = np.concatenate(colors) if want_rgb else None
    return PointCloud._adopt(xyz, rgb)
