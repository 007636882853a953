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
    and ``valid_count`` are derived from it.  Lookup at continuous
    coordinates uses the nearest pixel.  A query is invalid (NaN result)
    when it falls outside the continuous image domain
    ``[0, width - 1] x [0, height - 1]`` or lands on a NaN pixel.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
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

        ``xs`` and ``ys`` broadcast against each other.  Each query
        becomes one flat index ``iy * width + ix`` of its nearest pixel,
        so the data is read by one 1-d gather; a query outside the image
        reads pixel 0 and is then set to NaN.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        inside = (xs >= 0.0) & (ys >= 0.0)
        inside &= xs <= self.width - 1.0
        inside &= ys <= self.height - 1.0
        flat = np.where(inside, ys, 0.0)
        flat += 0.5
        np.floor(flat, out=flat)
        flat *= self.width
        col = np.where(inside, xs, 0.0)
        col += 0.5
        flat += np.floor(col, out=col)
        return np.where(inside, np.take(self.data.ravel(), flat.astype(np.intp)), np.nan)
