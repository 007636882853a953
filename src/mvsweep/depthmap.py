"""Depth maps with validity masks and nearest-pixel lookup."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DepthMap"]


@dataclass(eq=False)
class DepthMap:
    """A per-pixel depth image plus a boolean validity mask.

    Lookup at continuous coordinates uses the nearest pixel.  A query is
    invalid (NaN result) when it falls outside the continuous image
    domain ``[0, width - 1] x [0, height - 1]`` or lands on a masked
    pixel.
    """

    data: np.ndarray
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"depth data must be 2-d, got shape {self.data.shape}")
        if self.mask is None:
            self.mask = np.isfinite(self.data)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.data.shape:
                raise ValueError("mask shape must match depth data")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def valid_count(self) -> int:
        return int(self.mask.sum())

    def depth_grid(self, xs, ys) -> np.ndarray:
        """Nearest-pixel depth at each ``(xs, ys)``; NaN where invalid.

        ``xs`` and ``ys`` broadcast against each other.  Each query
        becomes one flat index ``iy * width + ix`` of its nearest pixel,
        so the data and the mask are each read by one 1-d gather; a
        query outside the image reads pixel 0 and is then set to NaN.
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
        index = flat.astype(np.intp)
        inside &= np.take(self.mask.ravel(), index)
        return np.where(inside, np.take(self.data.ravel(), index), np.nan)
