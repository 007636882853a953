"""Point-cloud quality metrics against a ground-truth cloud.

Two complementary families:

* distance-based: accuracy (mean reconstruction-to-truth nearest
  distance) and completeness (mean truth-to-reconstruction nearest
  distance), both truncated at a cap so single stray points cannot
  dominate, and their mean as a single overall number;
* threshold-based: precision/recall as the fraction of points within a
  distance threshold of the other cloud, combined into an f-score.

Every nearest distance comes from the sliding-midpoint k-d tree that
each :class:`~mvsweep.fusion.PointCloud` builds once, with 32-point
leaves, and each query runs on every CPU that ``os.cpu_count()``
reports.  The distances depend on neither the trees' shape nor how the
queries are split.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyCloudError, EmptyReferenceError, InvalidArgumentError
from .fusion import PointCloud

__all__ = [
    "EvalReport",
    "accuracy_completeness",
    "evaluate_clouds",
    "fscore",
    "nearest_distance",
]


def nearest_distance(query: PointCloud, reference: PointCloud) -> np.ndarray:
    """Distance from each query point to its nearest reference point.

    The query points descend ``reference.tree`` in the leaf order of the
    query cloud's own tree, so consecutive queries visit neighbouring
    leaves, and scipy splits them into one contiguous run per CPU that
    ``os.cpu_count()`` reports; the distances come back in the caller's
    order.  A nearest distance depends neither on that order, nor on the
    split, nor on the shape of either tree.
    """
    if len(reference) == 0:
        raise EmptyReferenceError("nearest-distance query against an empty cloud")
    if len(query) == 0:
        return np.zeros(0, dtype=np.float64)
    order = query.tree.indices
    found, _ = reference.tree.query(query.xyz[order], workers=-1)
    dists = np.empty(len(query), dtype=np.float64)
    dists[order] = found
    return dists


def _check_threshold(threshold: float) -> None:
    # Written as "not in range" so NaN is rejected too.
    if not 0.0 <= threshold < np.inf:
        raise InvalidArgumentError(
            f"threshold must be non-negative and finite, got {threshold}")


def _check_max_dist(max_dist: float) -> None:
    if not 0.0 < max_dist < np.inf:
        raise InvalidArgumentError(f"max_dist must be positive and finite, got {max_dist}")


def accuracy_completeness(recon: PointCloud, truth: PointCloud,
                          max_dist: float) -> tuple[float, float]:
    """Truncated mean nearest distances (reconstruction->truth, truth->reconstruction).

    Distances are clipped to ``max_dist`` before averaging, which must
    be positive and finite.  Both clouds must be non-empty.
    """
    if len(recon) == 0 or len(truth) == 0:
        raise EmptyCloudError("accuracy/completeness need non-empty clouds")
    _check_max_dist(max_dist)
    acc = float(np.minimum(nearest_distance(recon, truth), max_dist).mean())
    comp = float(np.minimum(nearest_distance(truth, recon), max_dist).mean())
    return acc, comp


def fscore(recon: PointCloud, truth: PointCloud, threshold: float,
           ) -> tuple[float, float, float]:
    """Precision, recall, and f-score at a distance threshold.

    Precision is the fraction of reconstructed points within
    ``threshold`` of the truth; recall the fraction of truth points
    within ``threshold`` of the reconstruction; the f-score is their
    harmonic mean (0 when both vanish).  ``threshold`` must be
    non-negative and finite.
    """
    if len(recon) == 0 or len(truth) == 0:
        raise EmptyCloudError("f-score needs non-empty clouds")
    _check_threshold(threshold)
    precision = float((nearest_distance(recon, truth) <= threshold).mean())
    recall = float((nearest_distance(truth, recon) <= threshold).mean())
    if precision + recall == 0.0:
        return 0.0, 0.0, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class EvalReport:
    """All metrics of one reconstruction/truth comparison."""

    accuracy: float
    completeness: float
    overall: float
    precision: float
    recall: float
    f_score: float
    threshold: float
    max_dist: float

    def to_text(self) -> str:
        """Line-oriented ``key=value`` rendering, one metric per line in
        field order."""
        return "\n".join(f"{key}={value:.6f}" for key, value in asdict(self).items())

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def evaluate_clouds(recon: PointCloud, truth: PointCloud, threshold: float,
                    max_dist: float | None = None) -> EvalReport:
    """Full report; ``max_dist`` defaults to 20x the f-score threshold.

    Both distances are checked before any nearest-distance query.
    """
    _check_threshold(threshold)
    if max_dist is None:
        if threshold == 0.0:
            raise InvalidArgumentError(
                "threshold 0 gives no default max_dist (20x threshold); "
                "a zero threshold needs an explicit max_dist (--max-dist)")
        max_dist = 20.0 * threshold
    _check_max_dist(max_dist)
    precision, recall, f = fscore(recon, truth, threshold)
    acc, comp = accuracy_completeness(recon, truth, max_dist)
    return EvalReport(
        accuracy=acc,
        completeness=comp,
        overall=0.5 * (acc + comp),
        precision=precision,
        recall=recall,
        f_score=f,
        threshold=threshold,
        max_dist=max_dist,
    )
