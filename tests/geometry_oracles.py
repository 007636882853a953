"""Scalar geometry written out per point, as oracles for the map forms.

The package implements each geometric quantity once, as a map over
arrays, and its scalar functions are one-element calls of that map.  The
functions below are the scalar bodies on their own: 3x3 products on one
point and a nearest-pixel lookup in plain Python.  A test that compares a
map form with them does not compare the package with itself.
"""

import math

import numpy as np

from mvsweep.errors import BehindCameraError


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


def nearest_depth(dm, x, y):
    """Depth of the pixel nearest ``(x, y)`` in a ``DepthMap``; NaN when
    the query is outside ``[0, w - 1] x [0, h - 1]`` or the pixel is
    masked.  Ties round up: ``floor(x + 0.5)``."""
    height, width = dm.data.shape
    if 0.0 <= x <= width - 1.0 and 0.0 <= y <= height - 1.0:
        ix, iy = math.floor(x + 0.5), math.floor(y + 0.5)
        if dm.mask[iy, ix]:
            return float(dm.data[iy, ix])
    return math.nan


def reproject(ref, src, pixel, depth, src_depth):
    """Round trip ref -> ``src_depth`` (a ``DepthMap``) -> ref, or None."""
    point = back_project(ref, pixel, depth)
    try:
        q, _ = project(src, point)
    except BehindCameraError:
        return None
    d_src = nearest_depth(src_depth, float(q[0]), float(q[1]))
    if not np.isfinite(d_src) or d_src <= 0:
        return None
    try:
        return project(ref, back_project(src, q, d_src))
    except BehindCameraError:
        return None


def reprojection_errors(pixel, pixel2, depth, depth2):
    """``xi_p = ||p - p'||_2`` and ``xi_d = |d - d'| / d``."""
    dx = float(pixel2[0]) - float(pixel[0])
    dy = float(pixel2[1]) - float(pixel[1])
    return float(np.hypot(dx, dy)), abs(float(depth2) - float(depth)) / float(depth)
