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

Functions that look up stored depth (:func:`reproject`,
:func:`reproject_chain_map`) accept any sampler object exposing
``depth_at(x, y) -> float`` and ``depth_grid(xs, ys) -> ndarray`` that
return NaN for out-of-bounds or invalid queries.
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
    "back_project",
    "back_project_grid",
    "project",
    "project_points",
    "reproject",
    "reproject_chain_map",
    "reprojection_errors",
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


def back_project(cam: Camera, pixel, depth: float) -> np.ndarray:
    """Lift a pixel at a given depth to a world point.

    ``X = M^-1 (d * (x, y, 1) - p_t)``; requires ``depth > 0``.
    """
    if depth <= 0:
        raise BehindCameraError(f"cannot back-project non-positive depth {depth}")
    ph = np.array([pixel[0], pixel[1], 1.0], dtype=np.float64)
    return cam.proj_m_inv @ (depth * ph - cam.proj_t)


def back_project_grid(cam: Camera, xs, ys, depths) -> np.ndarray:
    """Vectorized :func:`back_project`; broadcasts to shape ``(..., 3)``."""
    xs, ys, depths = np.broadcast_arrays(
        np.asarray(xs, dtype=np.float64),
        np.asarray(ys, dtype=np.float64),
        np.asarray(depths, dtype=np.float64),
    )
    ph = np.stack([xs, ys, np.ones_like(xs)], axis=-1)
    return (depths[..., None] * ph - cam.proj_t) @ cam.proj_m_inv.T


def project(cam: Camera, point) -> tuple[np.ndarray, float]:
    """Project a world point; returns ``(pixel, depth)``.

    Raises :class:`BehindCameraError` when the point has non-positive
    camera-frame depth.
    """
    w = cam.proj_m @ np.asarray(point, dtype=np.float64) + cam.proj_t
    depth = float(w[2])
    if depth <= 0:
        raise BehindCameraError(f"point projects behind the camera (depth {depth})")
    return w[:2] / depth, depth


def project_points(cam: Camera, points) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of ``(..., 3)`` points.

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


def reproject(ref: Camera, src: Camera, pixel, depth: float, src_depth):
    """Round-trip a reference pixel through a source view's depth.

    Lifts ``pixel`` at ``depth`` into the source view, looks up the
    source's stored depth at the landing point ``q`` via
    ``src_depth.depth_at``, and projects that source-side point back into
    the reference view.  Returns ``(pixel', depth')`` or ``None`` when
    any step is invalid (behind a camera, ``q`` out of bounds, or the
    lookup masked).
    """
    point = back_project(ref, pixel, depth)
    try:
        q, _ = project(src, point)
    except BehindCameraError:
        return None
    d_src = src_depth.depth_at(float(q[0]), float(q[1]))
    if not np.isfinite(d_src) or d_src <= 0:
        return None
    try:
        return project(ref, back_project(src, q, d_src))
    except BehindCameraError:
        return None


def _pair_transform(ref: Camera, src: Camera) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of the pair transform taking ``ref`` pixels to ``src``."""
    a = src.proj_m @ ref.proj_m_inv
    return a, src.proj_t - a @ ref.proj_t


def _pair_map(ref: Camera, src: Camera, xs, ys, depths):
    """Source pixels ``(..., 2)`` and depths of ``(xs, ys)`` at ``depths``.

    Same contract as ``project_points(src, back_project_grid(ref, ...))``:
    pixels are NaN where the depth in ``src`` is not positive.
    """
    a, b = _pair_transform(ref, src)
    wx, wy, wz = ((xs * a[i, 0] + ys * a[i, 1] + a[i, 2]) * depths + b[i]
                  for i in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        pixels = np.stack([wx / wz, wy / wz], axis=-1)
    pixels[~(wz > 0)] = np.nan
    return pixels, wz


def reproject_chain_map(ref: Camera, src: Camera, xs, ys, depths, src_depth):
    """Vectorized :func:`reproject` exposing the intermediate landing pixel.

    Returns ``(q (..., 2), pixels' (..., 2), depths' (...), valid (...))``
    where ``q`` is where each reference pixel lands in the source view
    (NaN when behind the source camera); ``pixels'`` and ``depths'`` are
    NaN where ``valid`` is False.

    Both legs are the closed-form pair transform that :func:`warp_grid`
    sweeps with, ``w = d * A @ (x, y, 1) + b``: out with ``(ref, src)``
    applied to ``(x, y, depth)``, back with the roles swapped applied to
    ``(q, d_src)``.  Each component is formed on its own, so no
    ``(..., 3)`` stack or per-pixel 3x3 product is built.
    """
    xs, ys, depths = (np.asarray(v, dtype=np.float64) for v in (xs, ys, depths))
    q, d_fwd = _pair_map(ref, src, xs, ys, depths)
    valid = d_fwd > 0
    qx = np.where(valid, q[..., 0], -1.0)
    qy = np.where(valid, q[..., 1], -1.0)
    d_src = src_depth.depth_grid(qx, qy)
    valid &= np.isfinite(d_src) & (d_src > 0)
    d_safe = np.where(valid, d_src, 1.0)
    p2, d2 = _pair_map(src, ref, qx, qy, d_safe)
    valid &= d2 > 0
    p2 = np.where(valid[..., None], p2, np.nan)
    d2 = np.where(valid, d2, np.nan)
    return q, p2, d2, valid


def reprojection_errors(pixel, pixel2, depth: float, depth2: float) -> tuple[float, float]:
    """Spatial and relative depth error of a reprojection round trip.

    ``xi_p = ||p - p'||_2`` and ``xi_d = |d - d'| / d``.
    """
    dx = float(pixel2[0]) - float(pixel[0])
    dy = float(pixel2[1]) - float(pixel[1])
    xi_p = float(np.hypot(dx, dy))
    xi_d = abs(float(depth2) - float(depth)) / float(depth)
    return xi_p, xi_d


def reprojection_errors_map(px, py, p2, depths, depths2):
    """Vectorized :func:`reprojection_errors`; NaN inputs yield NaN."""
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


def warp_grid(ref: Camera, src: Camera, depth: float, width: int, height: int):
    """Source-view coordinates of every reference pixel swept to ``depth``.

    Fronto-parallel plane sweep: each reference pixel is lifted to the
    constant-depth plane and projected into the source view.  Returns
    ``(coords (height, width, 2), valid (height, width))`` where a pixel
    is valid when it lands in front of the source camera and inside the
    source image bounds (images are assumed to share ``width x height``).
    Pixels that land behind the source camera hold NaN coordinates.

    At one depth the pair transform ``w = d * A @ (x, y, 1) + b`` is
    separable: a ``(height, 3)`` row term plus a ``(width, 3)`` column
    term, so no per-pixel 3x3 product is formed.
    """
    if depth <= 0:
        raise BehindCameraError(f"cannot sweep non-positive depth {depth}")
    a, b = _pair_transform(ref, src)
    rows = np.arange(height, dtype=np.float64)[:, None] * (depth * a[:, 1])
    rows += depth * a[:, 2] + b
    cols = np.arange(width, dtype=np.float64)[:, None] * (depth * a[:, 0])
    depths = rows[:, None, 2] + cols[None, :, 2]
    coords = rows[:, None, :2] + cols[None, :, :2]
    coords /= np.where(depths > 0, depths, np.nan)[..., None]
    # NaN fails every comparison, so points behind the source are invalid.
    valid = (
        (coords[..., 0] >= 0.0)
        & (coords[..., 0] <= width - 1.0)
        & (coords[..., 1] >= 0.0)
        & (coords[..., 1] <= height - 1.0)
    )
    return coords, valid
