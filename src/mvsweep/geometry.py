"""Pinhole cameras, projection chains, and depth-hypothesis sampling.

Conventions used throughout the package:

* Pixels are ``(x, y)`` with the origin at the top-left pixel center, so
  the valid continuous domain of a ``width x height`` image is
  ``[0, width - 1] x [0, height - 1]``.
* Extrinsics are world-to-camera: ``X_cam = R @ X_world + t``.
* Depth always means the camera-frame z coordinate, not ray length.
* The projection is ``d * (x, y, 1) = M @ X + p_t`` with ``M = K @ R``
  and ``p_t = K @ t``; all chains below are compositions of this map and
  its inverse.
* Lifting a pixel out of one view at depth ``d`` and projecting it into
  another collapses to one closed-form pair transform,
  ``w = d * A @ (x, y, 1) + b`` with ``A = M_src @ M_ref^-1`` and
  ``b = p_src - A @ p_ref``.  The plane-sweep warp (:func:`warp_grid`)
  and both legs of the consistency round trip
  (:func:`reproject_chain_map`) share it.
* NaN is the one marker of a missing value: coordinates behind a
  camera, a lookup without a stored depth and a failed round trip all
  read NaN.
* The consistency round trip (:func:`reproject_chain_map`,
  :func:`reprojection_errors_map`) computes in the precision of the
  arrays it is given, at least float32: fusion passes the stored
  float32 depth maps, so it runs in float32, and float64 callers are
  unchanged.  Everything else computes in float64.

Every function takes whole arrays of pixels, depths or points; a single
query is a one-element array.  :func:`reproject_chain_map` looks up
stored depth through any sampler object exposing
``depth_grid(xs, ys) -> ndarray`` that returns a new array, NaN for
out-of-bounds or missing depths, which it overwrites in place.
:class:`mvsweep.depthmap.DepthMap` implements the nearest-pixel lookup
used by the fusion pipeline; analytic samplers can be substituted when
exact surface depth is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import BehindCameraError, InvalidArgumentError

__all__ = [
    "Camera",
    "HypothesisSpace",
    "back_project_grid",
    "project_points",
    "reproject_chain_map",
    "reprojection_errors_map",
    "sample_hypotheses",
    "warp_grid",
]


@dataclass(frozen=True, eq=False)
class Camera:
    """Calibrated pinhole camera with world-to-camera extrinsics."""

    intrinsic: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        k = np.array(self.intrinsic, dtype=np.float64)
        r = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        if k.shape != (3, 3) or r.shape != (3, 3):
            raise InvalidArgumentError("intrinsic and rotation must be 3x3 matrices")
        if not (np.isfinite(k).all() and np.isfinite(r).all() and np.isfinite(t).all()):
            raise InvalidArgumentError("camera entries must be finite")
        if np.any(np.abs(k[np.tril_indices(3, -1)]) > 0) or np.any(np.diag(k) <= 0):
            raise InvalidArgumentError("intrinsic must be upper-triangular with positive diagonal")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
            raise InvalidArgumentError("rotation is not orthonormal")
        if np.linalg.det(r) < 0:
            raise InvalidArgumentError("rotation must be proper (determinant +1)")
        k.flags.writeable = False
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "intrinsic", k)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @cached_property
    def proj_m(self) -> np.ndarray:
        """Linear part ``K @ R`` of the projection."""
        return self.intrinsic @ self.rotation

    @cached_property
    def proj_t(self) -> np.ndarray:
        """Translation part ``K @ t`` of the projection."""
        return self.intrinsic @ self.translation

    @cached_property
    def proj_m_inv(self) -> np.ndarray:
        return np.linalg.inv(self.proj_m)

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates, ``-R^T @ t``."""
        return -self.rotation.T @ self.translation


def back_project_grid(cam: Camera, xs, ys, depths) -> np.ndarray:
    """World points of pixels ``(xs, ys)`` lifted to ``depths``,
    ``X = M^-1 (d * (x, y, 1) - p_t)``; broadcasts to shape ``(..., 3)``."""
    xs, ys, depths = np.broadcast_arrays(
        np.asarray(xs, dtype=np.float64),
        np.asarray(ys, dtype=np.float64),
        np.asarray(depths, dtype=np.float64),
    )
    ph = np.stack([xs, ys, np.ones_like(xs)], axis=-1)
    return (depths[..., None] * ph - cam.proj_t) @ cam.proj_m_inv.T


def project_points(cam: Camera, points) -> tuple[np.ndarray, np.ndarray]:
    """Projection of ``(..., 3)`` world points.

    Never raises; returns ``(pixels (..., 2), depths (...))`` where
    entries with non-positive depth hold NaN pixels.  Callers mask on
    ``depths > 0``.
    """
    w = np.asarray(points, dtype=np.float64) @ cam.proj_m.T + cam.proj_t
    depths = w[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        pixels = w[..., :2] / depths[..., None]
    pixels = np.where(depths[..., None] > 0, pixels, np.nan)
    return pixels, depths


def _pair_transform(ref: Camera, src: Camera) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of the pair transform taking ``ref`` pixels to ``src``."""
    a = src.proj_m @ ref.proj_m_inv
    return a, src.proj_t - a @ ref.proj_t


def _pair_map(ref: Camera, src: Camera, xs, ys, depths):
    """Source pixels ``(..., 2)`` and depths of ``(xs, ys)`` at ``depths``.

    Same contract as ``project_points(src, back_project_grid(ref, ...))``:
    pixels are NaN where the depth in ``src`` is not positive.  Each
    component ``(x * a0 + y * a1 + a2) * d + b`` is built in place in
    its own buffer and the two quotients are divided straight into the
    pixel array.  It computes in the result type of the three arrays,
    at least float32, to which ``(A, b)`` is cast.
    """
    dtype = np.result_type(xs, ys, depths, np.float32)
    a, b = (m.astype(dtype) for m in _pair_transform(ref, src))
    shape = np.broadcast_shapes(xs.shape, ys.shape, depths.shape)
    wx, wy, wz, term = (np.empty(shape, dtype) for _ in range(4))
    for i, w in enumerate((wx, wy, wz)):
        np.multiply(xs, a[i, 0], out=w)
        w += np.multiply(ys, a[i, 1], out=term)
        w += a[i, 2]
        w *= depths
        w += b[i]
    pixels = np.empty(shape + (2,), dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(wx, wz, out=pixels[..., 0])
        np.divide(wy, wz, out=pixels[..., 1])
    pixels[~(wz > 0)] = np.nan
    return pixels, wz


def reproject_chain_map(ref: Camera, src: Camera, xs, ys, depths, src_depth):
    """Round trip of reference pixels through a source view's depth and back.

    Returns ``(q (..., 2), pixels' (..., 2), depths' (...))`` where
    ``q`` is where each reference pixel lands in the source view (NaN
    when behind the source camera); ``pixels'`` and ``depths'`` are NaN
    where the trip failed, which is the only record of a failure.

    Both legs are the closed-form pair transform that :func:`warp_grid`
    sweeps with, ``w = d * A @ (x, y, 1) + b``: out with ``(ref, src)``
    applied to ``(x, y, depth)``, back with the roles swapped applied to
    ``(q, d_src)``.  The source depth comes from one
    ``src_depth.depth_grid`` call over every pixel; queries that landed
    behind the source ask at ``(-1, -1)``, outside every image.  A trip
    succeeds only while each step does (in front of the source, a
    positive finite lookup, in front of the reference again); the
    lookup of a failed trip is replaced by 1 before the trip back, and
    its outputs are filled with NaN in place.

    The outward leg computes in the result type of ``xs``, ``ys`` and
    ``depths`` after :func:`numpy.asarray`, at least float32, so Python
    scalars and integers give float64; the leg back follows the
    landing pixels and the looked-up depths.
    """
    xs, ys, depths = (np.asarray(v) for v in (xs, ys, depths))
    dtype = np.result_type(xs, ys, depths, np.float32)
    xs, ys, depths = (v.astype(dtype, copy=False) for v in (xs, ys, depths))
    q, d_fwd = _pair_map(ref, src, xs, ys, depths)
    valid = d_fwd > 0
    qx = np.where(valid, q[..., 0], -1.0)
    qy = np.where(valid, q[..., 1], -1.0)
    d_src = src_depth.depth_grid(qx, qy)
    valid &= d_src > 0
    valid &= np.isfinite(d_src)
    failed = ~valid
    d_src[failed] = 1.0
    p2, d2 = _pair_map(src, ref, qx, qy, d_src)
    valid &= d2 > 0
    failed = ~valid
    p2[failed] = np.nan
    d2[failed] = np.nan
    return q, p2, d2


def reprojection_errors_map(px, py, p2, depths, depths2):
    """Spatial and relative depth error of reprojection round trips.

    ``xi_p = ||p - p'||_2`` and ``xi_d = |d - d'| / d``, in the precision
    of the inputs; NaN inputs yield NaN.
    """
    xi_p = np.hypot(p2[..., 0] - px, p2[..., 1] - py)
    xi_d = np.abs(depths2 - depths) / depths
    return xi_p, xi_d


@dataclass(frozen=True)
class HypothesisSpace:
    """A swept depth range with a sample count and spacing mode.

    ``uniform`` spaces samples evenly in depth; ``inverse`` spaces them
    evenly in 1/depth (finer near the camera), which suits wide ranges.
    """

    d_min: float
    d_max: float
    count: int
    mode: Literal["uniform", "inverse"] = "uniform"

    def __post_init__(self) -> None:
        if not (0 < self.d_min < self.d_max):
            raise InvalidArgumentError(f"need 0 < d_min < d_max, got [{self.d_min}, {self.d_max}]")
        if self.count < 2:
            raise InvalidArgumentError(f"need at least 2 samples, got {self.count}")
        if self.mode not in ("uniform", "inverse"):
            raise InvalidArgumentError(f"unknown spacing mode {self.mode!r}")

    def bin_coordinate(self, depths):
        """Continuous bin index of each depth in the sampled metric.

        Sample ``i`` sits exactly at coordinate ``i``; the nearest sample
        of a depth is the rounded coordinate, clipped to the range.
        """
        d = np.asarray(depths, dtype=np.float64)
        if self.mode == "uniform":
            step = (self.d_max - self.d_min) / (self.count - 1)
            return (d - self.d_min) / step
        step = (1.0 / self.d_max - 1.0 / self.d_min) / (self.count - 1)
        return (1.0 / d - 1.0 / self.d_min) / step


def sample_hypotheses(space: HypothesisSpace) -> np.ndarray:
    """Strictly increasing depth samples covering ``[d_min, d_max]``."""
    if space.mode == "uniform":
        depths = np.linspace(space.d_min, space.d_max, space.count)
    else:
        depths = 1.0 / np.linspace(1.0 / space.d_min, 1.0 / space.d_max, space.count)
    # Endpoints are part of the contract; pin them against roundoff.
    depths[0] = space.d_min
    depths[-1] = space.d_max
    return depths


def warp_grid(ref: Camera, src: Camera, depth: float, width: int, height: int,
              first_row: int = 0):
    """Source-view coordinates of reference pixels swept to ``depth``.

    Fronto-parallel plane sweep: each reference pixel is lifted to the
    constant-depth plane and projected into the source view.  The pixels
    are the ``height`` rows of ``width`` pixels from reference row
    ``first_row`` on, so a band of rows warps exactly as those rows of
    the whole image do.  Returns ``coords (height, width, 2)``.  Pixels
    that land behind the source camera hold NaN coordinates, which every
    bounds test rejects; the image bounds are tested by
    :func:`mvsweep.costvol.bilinear_sample`.

    At one depth the pair transform ``w = d * A @ (x, y, 1) + b`` is
    separable: a ``(height, 3)`` row term plus a ``(width, 3)`` column
    term, so no per-pixel 3x3 product is formed.  ``x``, ``y`` and the
    landing depth are each built as one contiguous ``(height, width)``
    plane from those terms, and ``x`` and ``y`` are interleaved into
    ``coords`` once.
    """
    if not -np.inf < depth < np.inf:
        raise InvalidArgumentError(f"cannot sweep depth {depth}: not finite")
    if not depth > 0:
        raise BehindCameraError(f"cannot sweep non-positive depth {depth}")
    a, b = _pair_transform(ref, src)
    rows = np.arange(first_row, first_row + height, dtype=np.float64)[:, None] * (depth * a[:, 1])
    rows += depth * a[:, 2] + b
    cols = np.arange(width, dtype=np.float64)[:, None] * (depth * a[:, 0])
    (row_x, row_y, row_z), (col_x, col_y, col_z) = rows.T[:, :, None], cols.T
    z = row_z + col_z
    np.copyto(z, np.nan, where=~(z > 0))
    x = row_x + col_x
    x /= z
    y = row_y + col_y
    y /= z
    return np.stack((x, y), axis=-1)
