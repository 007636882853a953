"""Winner-take-all depth selection over streamed score slices.

The depth hypothesis with the highest regularized score wins each pixel.
Because slices arrive one at a time, the softmax normalizer and the
argmax are maintained online with the usual running-maximum rescaling;
no per-pixel history of all scores is kept.  The reported confidence is
the softmax probability mass of the winning bin and its two neighbors,
which tolerates mass split across adjacent hypotheses.

Training utilities treat depth selection as per-pixel classification
over the hypothesis bins: one-hot targets from ground-truth depth,
cross-entropy loss, and its analytic gradient with respect to the raw
scores.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .depthmap import DepthMap
from .errors import EmptyValidSetError, StreamLengthMismatchError
from .geometry import HypothesisSpace, sample_hypotheses

__all__ = [
    "cross_entropy_loss",
    "loss_gradient_logits",
    "one_hot_index_map",
    "online_softmax_wta",
    "softmax_volume",
]

LOG_CLAMP = 1e-12


def online_softmax_wta(slices: Iterable, space: HypothesisSpace,
                       ) -> tuple[DepthMap, np.ndarray]:
    """Single-pass argmax depth and 3-tap softmax confidence.

    ``slices`` must yield exactly ``space.count`` score slices in depth
    order.  Ties break toward the lower depth index (strict improvement
    is required to displace the running winner).  Returns the selected
    depth per pixel (none NaN) and a confidence map in [0, 1].
    """
    depths = sample_hypotheses(space)
    count = space.count
    seen = 0
    running_max = sum_exp = argmax = prev_score = None
    before_best = after_best = None
    for sl in slices:
        score = sl.score
        if seen >= count:
            seen += 1
            break
        if seen == 0:
            running_max = score.astype(np.float64).copy()
            sum_exp = np.ones_like(running_max)
            argmax = np.zeros(score.shape, dtype=np.intp)
            before_best = np.full_like(running_max, np.nan)
            after_best = np.full_like(running_max, np.nan)
        else:
            # The slice right after the current winner supplies the
            # "next neighbor" score; overwritten if the winner moves.
            takes_after = argmax == seen - 1
            after_best = np.where(takes_after, score, after_best)
            improved = score > running_max
            # exp(-|score - max|) rescales the running sum where the score
            # improves and is the added term where it does not; it never
            # overflows.
            e = np.exp(-np.abs(score - running_max))
            sum_exp = np.where(improved, sum_exp * e + 1.0, sum_exp + e)
            before_best = np.where(improved, prev_score, before_best)
            after_best = np.where(improved, np.nan, after_best)
            argmax = np.where(improved, seen, argmax)
            running_max = np.where(improved, score, running_max)
        prev_score = score
        seen += 1
    if seen != count:
        raise StreamLengthMismatchError(f"stream yielded {seen} slices, expected {count}")
    with np.errstate(invalid="ignore"):
        mass = np.ones_like(running_max)
        mass += np.where(argmax > 0, np.exp(before_best - running_max), 0.0)
        mass += np.where(argmax < count - 1, np.exp(after_best - running_max), 0.0)
    confidence = mass / sum_exp
    return DepthMap(depths[argmax]), confidence


def softmax_volume(scores: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the leading depth axis of ``(D, H, W)``."""
    shifted = scores - scores.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def one_hot_index_map(gt: DepthMap, space: HypothesisSpace):
    """Index of the hypothesis bin nearest to each ground-truth depth.

    Nearest is measured in the sampled metric (depth for uniform
    spacing, inverse depth otherwise).  Returns ``(indices, valid)``;
    NaN or non-positive depths, and depths outside the swept range by
    more than half a bin, have no target and are not ``valid``.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        coord = space.bin_coordinate(gt.data)
    valid = (gt.data > 0) & np.isfinite(coord) & (coord >= -0.5) & (coord <= space.count - 0.5)
    idx = np.floor(np.where(valid, coord, 0.0) + 0.5).astype(np.intp)
    idx = np.minimum(idx, space.count - 1)
    return idx, valid


def cross_entropy_loss(prob: np.ndarray, gt: DepthMap, space: HypothesisSpace) -> float:
    """Sum of per-pixel cross entropies against one-hot depth targets.

    ``prob`` is a ``(D, H, W)`` probability volume.  Pixels whose ground
    truth is NaN or falls outside the swept range are excluded; if no
    pixel remains the loss is undefined and raises.
    """
    idx, valid = one_hot_index_map(gt, space)
    if not valid.any():
        raise EmptyValidSetError("no valid pixel carries a depth target")
    ys, xs = np.nonzero(valid)
    picked = prob[idx[ys, xs], ys, xs]
    return float(-np.log(np.maximum(picked, LOG_CLAMP)).sum())


def loss_gradient_logits(scores: np.ndarray, gt: DepthMap,
                         space: HypothesisSpace) -> np.ndarray:
    """Gradient of :func:`cross_entropy_loss` w.r.t. raw scores.

    For softmax + cross entropy the per-pixel gradient is
    ``softmax(scores) - onehot``; pixels without a target contribute zero.
    """
    idx, valid = one_hot_index_map(gt, space)
    grad = softmax_volume(scores).copy()
    ys, xs = np.nonzero(valid)
    grad[idx[ys, xs], ys, xs] -= 1.0
    grad[:, ~valid] = 0.0
    return grad
