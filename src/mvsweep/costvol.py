"""Plane-sweep matching cost, one depth slice at a time.

For each depth hypothesis the reference view's feature map is compared
against every source view's features warped onto that depth plane.  The
per-pixel, per-channel cost is the population variance over the set
{reference, visible warped sources}; pixels seen by no source fall back
to the reference alone (zero variance).  A slice holds only that cost
and the view count; its place in the stream is its depth index.

Each slice costs, per source view, one closed-form warp
(:func:`~mvsweep.geometry.warp_grid`), one bilinear sample written as a
sparse product (a CSR matrix holding four corner weights per valid query
times the flattened feature map), and one update of the running sums of
``s - ref`` and ``(s - ref)^2``.  The warp builds each coordinate plane
contiguously; the sampler writes the weights and int32 taps of the valid
queries straight into the matrix's arrays, and invalid rows of a sample
are zeroed by flat row index.  The sums start as the first source's
shifted sample and its square, not as zero-filled arrays.  The variance
is computed in one pass from those sums; shifting every sample by the
reference value leaves it unchanged and keeps the sums well conditioned.

Slices are produced lazily by :func:`cost_volume_stream`, the one entry
point, so downstream consumers never hold the full depth dimension in
memory; one slice at a chosen depth is the first slice of a stream whose
range starts there.  A stream needs at least one source view.  It keeps
its running sums in one buffer from slice to slice and writes each
slice's cost into the last source's sample buffer, so that a slice
allocates no array beyond its samples (and its small view count).

A stream may cover a band of the reference's rows instead of all of
them.  Every step above is per pixel, and the sources are still sampled
from their full maps, so a band's slices equal those rows of the
whole-image slices bit for bit; only the warp, the samples and the sums
shrink to the band.  ``depth`` sweeps the passthrough cost band by band
to bound its working set by a pixel count instead of the image area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

from .errors import InvalidArgumentError, SizeMismatchError
from .geometry import Camera, HypothesisSpace, sample_hypotheses, warp_grid

__all__ = [
    "CostSlice",
    "bilinear_sample",
    "cost_volume_stream",
]

@dataclass(eq=False)
class CostSlice:
    """Matching cost at one swept depth.

    ``cost`` is ``(height, width, channels)`` variance, ``valid_views``
    the per-pixel count of views that contributed (reference included,
    so the minimum is 1).
    """

    cost: np.ndarray
    valid_views: np.ndarray


def bilinear_sample(values: np.ndarray, coords: np.ndarray):
    """Sample ``(height, width, channels)`` values at continuous coords.

    ``coords`` is ``(..., 2)`` as (x, y).  Returns ``(sampled, valid)``
    where queries outside ``[0, width-1] x [0, height-1]`` (NaN included)
    are exactly zero and flagged invalid.

    The four corner weights and taps of the valid queries are written
    straight into ``(valid queries, 4)`` arrays, the taps as int32 from
    each query's floored corner plus a 0/1 step right and a 0/width step
    down, and form a CSR matrix of shape ``(queries, height * width)``
    with four entries per valid row and none per invalid one.  One
    sparse product with the flattened ``(height * width, channels)`` map
    then sums each output as ``0 + w00 v00 + w10 v10 + w01 v01 + w11 v11``.
    The int32 taps and row offsets limit a map to ``2**31`` pixels and a
    call to ``2**29`` queries.
    """
    height, width, channels = values.shape
    xs = coords[..., 0].ravel()
    ys = coords[..., 1].ravel()
    valid = xs >= 0.0
    valid &= xs <= width - 1.0
    valid &= ys >= 0.0
    valid &= ys <= height - 1.0
    x = xs[valid]
    y = ys[valid]
    # Valid coordinates are not negative, so truncation floors them.
    x0 = x.astype(np.int32)
    y0 = y.astype(np.int32)
    fx = x - x0
    fy = y - y0
    gx = 1.0 - fx
    gy = 1.0 - fy
    weights = np.empty((x.size, 4))
    np.multiply(gx, gy, out=weights[:, 0])
    np.multiply(fx, gy, out=weights[:, 1])
    np.multiply(gx, fy, out=weights[:, 2])
    np.multiply(fx, fy, out=weights[:, 3])
    taps = np.empty((x.size, 4), dtype=np.int32)
    corner = np.multiply(y0, width, out=taps[:, 0])
    corner += x0
    # On the far edge x0 = width - 1 and fx = 0, so the right tap stays
    # on the corner with no weight; the same holds for the last row.
    right = x0 < width - 1
    down = np.less(y0, height - 1, out=y0)
    down *= width
    np.add(corner, right, out=taps[:, 1])
    np.add(corner, down, out=taps[:, 2])
    np.add(taps[:, 2], right, out=taps[:, 3])
    indptr = np.empty(xs.size + 1, dtype=np.int32)
    indptr[0] = 0
    np.cumsum(valid, out=indptr[1:])
    indptr *= 4
    matrix = sparse.csr_array((weights.ravel(), taps.ravel(), indptr),
                              shape=(xs.size, height * width))
    sampled = matrix @ values.reshape(height * width, channels)
    shape = coords.shape[:-1]
    return sampled.reshape(*shape, channels), valid.reshape(shape)


def _sweep_slice(ref, src_feats, ref_cam, src_cams, depth, sums, first_row) -> CostSlice:
    """Variance cost of one depth hypothesis across all views.

    ``ref`` is the band of reference features that starts at row
    ``first_row``.  The variance at a pixel runs over the reference
    value plus every source whose warped sample is valid there; the
    divisor is that per-pixel view count (population variance).  The
    running sums live in ``sums``, a caller-owned ``(2, rows, width,
    channels)`` buffer that a stream reuses from slice to slice.  The
    returned cost takes over the last source's sample buffer."""
    height, width, channels = ref.shape
    # Variance is shift-invariant, so accumulate s - ref: the reference
    # contributes exactly zero to S1 = sum(s - ref) and S2 = sum((s - ref)^2),
    # and since S1^2 <= (n - 1) * S2, S2 - S1^2 / n keeps a margin of S2 / n
    # over rounding and cannot go negative.
    s1, s2 = sums
    count = np.ones((height, width), dtype=np.int64)
    sampled = None
    for k, (feat, cam) in enumerate(zip(src_feats, src_cams)):
        # Freed before this source's warp, so its buffers take over the
        # previous sample's chunk instead of faulting in fresh pages.
        del sampled
        # Landings behind the source are NaN, so the sampler rejects them.
        coords = warp_grid(ref_cam, cam, depth, width, height, first_row)
        sampled, ok = bilinear_sample(feat, coords)
        del coords
        count += ok
        # The sums start as the first source's terms, written over the
        # previous slice's.  Adding them to zeros would give the same
        # bits: 0.0 + x == x for every x but -0.0, whose sign the
        # s1 *= s1 below erases, and S2 holds only squares.
        shifted = s1 if k == 0 else sampled
        np.subtract(sampled, ref, out=shifted)
        # Invalid samples contribute nothing: zero their rows after the shift.
        shifted.reshape(-1, channels)[np.flatnonzero(~ok)] = 0.0
        if k == 0:
            np.multiply(s1, s1, out=s2)
        else:
            s1 += sampled
            sampled *= sampled
            s2 += sampled
    n = count[..., None].astype(np.float64)
    s1 *= s1
    s1 /= n
    cost = np.subtract(s2, s1, out=sampled)
    cost /= n
    return CostSlice(cost=cost, valid_views=count)


def cost_volume_stream(
    ref_feat: np.ndarray,
    src_feats: Sequence[np.ndarray],
    ref_cam: Camera,
    src_cams: Sequence[Camera],
    space: HypothesisSpace,
    rows: tuple[int, int] | None = None,
) -> Iterator[CostSlice]:
    """Yield cost slices for every hypothesis in increasing depth order.

    All feature maps must share the reference's spatial size and channel
    count, and each source map needs one camera; a mismatch or an empty
    source list raises before any slice.

    ``rows`` is the half-open range ``(first, stop)`` of reference rows
    that the slices cover, all of them by default.  The maps are passed
    whole either way: the size checks compare full maps, and sources are
    sampled over their full extent.  A range that is empty or reaches
    outside the reference's rows raises before any slice.  The running
    sums, samples and slices span the band alone.

    The sweep runs in float64, so float32 features (DRENet's) are cast
    once here rather than once per slice: a fresh 64x48x32 float64 map
    per source and slice cost ~560 page faults and took sampling from
    0.7 to 2.4 ms per source (2-core x86-64).  For the same reason the
    running sums live in one buffer that every slice of the stream
    reuses: with fresh sums per slice a 7-view 96x72x32 ``depth`` run at
    D=32 took about 185k minor faults, against about 26k.
    """
    ref_feat = np.asarray(ref_feat, dtype=np.float64)
    src_feats = [np.asarray(feat, dtype=np.float64) for feat in src_feats]
    if not src_feats:
        raise InvalidArgumentError("a cost volume needs at least one source view")
    if len(src_feats) != len(src_cams):
        raise InvalidArgumentError(
            f"{len(src_feats)} source feature maps but {len(src_cams)} cameras")
    for feat in src_feats:
        if feat.shape != ref_feat.shape:
            raise SizeMismatchError(
                f"source features {feat.shape} do not match reference {ref_feat.shape}")
    height = ref_feat.shape[0]
    first, stop = (0, height) if rows is None else rows
    if not 0 <= first < stop <= height:
        raise InvalidArgumentError(
            f"row range [{first}, {stop}) is empty or outside the reference's "
            f"{height} rows")
    band = ref_feat[first:stop]
    sums = np.empty((2, *band.shape))
    for depth in sample_hypotheses(space):
        yield _sweep_slice(band, src_feats, ref_cam, src_cams, depth, sums, first)
