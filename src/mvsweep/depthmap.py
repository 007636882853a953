"""Depth maps with NaN holes and nearest-pixel lookup."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DepthMap"]


@dataclass(eq=False)
class DepthMap:
    """A per-pixel depth image in which NaN marks a pixel without a depth.

    Any non-finite input depth, ±inf included, is stored as NaN, so
    ``data`` is the only record of which pixels hold a depth; ``mask``
    and ``valid_count`` are derived from it.  A float32 or float64 array
    keeps its precision, so the stored float32 maps are looked up in
    float32 and float64 callers are unchanged; any other input (a list,
    an integer array) becomes float64.  Lookup at continuous
    coordinates uses the nearest pixel.  A query is invalid (NaN result)
    when it falls outside the continuous image domain
    ``[0, width - 1] x [0, height - 1]`` or lands on a NaN pixel.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        if data.ndim != 2:
            raise ValueError(f"depth data must be 2-d, got shape {data.shape}")
        self.data = np.where(np.isfinite(data), data, np.nan)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def mask(self) -> np.ndarray:
        """True where the pixel holds a depth."""
        return np.isfinite(self.data)

    @property
    def valid_count(self) -> int:
        return int(self.mask.sum())

    def depth_grid(self, xs, ys) -> np.ndarray:
        """Nearest-pixel depth at each ``(xs, ys)``; NaN where invalid.

        ``xs`` and ``ys`` broadcast against each other and are rounded in
        their own precision (at least float32; integers as float64), so a
        caller that rounds the same float32 coordinates to a pixel names
        the pixel read here.  Each query becomes one flat index
        ``iy * width + ix`` of its nearest pixel, formed in ``intp``
        because a float32 product is inexact above 2**24 pixels, so the
        data is read by one 1-d gather; a query outside the image reads
        pixel 0 and is then set to NaN.
        """
        xs, ys = np.asarray(xs), np.asarray(ys)
        dtype = np.result_type(xs, ys, np.float32)
        xs, ys = xs.astype(dtype, copy=False), ys.astype(dtype, copy=False)
        inside = (xs >= 0.0) & (ys >= 0.0)
        inside &= xs <= self.width - 1.0
        inside &= ys <= self.height - 1.0
        row = np.where(inside, ys, 0.0)
        row += 0.5
        flat = np.floor(row, out=row).astype(np.intp)
        flat *= self.width
        col = np.where(inside, xs, 0.0)
        col += 0.5
        flat += np.floor(col, out=col).astype(np.intp)
        return np.where(inside, np.take(self.data.ravel(), flat), np.nan)
