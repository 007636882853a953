"""Point cloud comparison: nearest distances, truncated means, f-score.

Hand geometries keep every expected number exact: unit grids, 3-4-5
triangles, and clouds built so each nearest neighbor is unambiguous.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from mvsweep import fusion, metrics, oracles
from mvsweep.errors import EmptyCloudError, EmptyReferenceError, InvalidArgumentError
from mvsweep.fusion import PointCloud


def _cloud(rows) -> PointCloud:
    return PointCloud(np.asarray(rows, dtype=np.float64))


class TestNearestDistance:
    """Query-to-reference nearest neighbor distances."""

    def test_hand_distances(self):
        query = _cloud([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        ref = _cloud([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        # Second point: 5 to the origin, sqrt(26) to (0,0,1) -> 5.
        np.testing.assert_allclose(
            metrics.nearest_distance(query, ref), [0.0, 5.0], atol=1e-12
        )

    def test_methods_agree(self):
        rng = np.random.default_rng(0)
        query = PointCloud(rng.normal(size=(700, 3)))
        ref = PointCloud(rng.normal(size=(400, 3)))
        kd = metrics.nearest_distance(query, ref)
        np.testing.assert_allclose(kd, oracles.nearest_distance(query.xyz, ref.xyz), atol=1e-10)

    def test_empty_query_allowed(self):
        out = metrics.nearest_distance(PointCloud.empty(), _cloud([[0, 0, 0]]))
        assert out.shape == (0,)

    def test_empty_reference_raises(self):
        with pytest.raises(EmptyReferenceError):
            metrics.nearest_distance(_cloud([[0, 0, 0]]), PointCloud.empty())

    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.normal(size=(50, 3)))
        np.testing.assert_array_equal(metrics.nearest_distance(cloud, cloud), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(queries=st.integers(1, 300), references=st.integers(1, 300),
           lattice=st.sampled_from([0, 1, 3]), same=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(queries=1, references=1, lattice=0, same=False, seed=0)
    @example(queries=200, references=1, lattice=1, same=False, seed=1)
    @example(queries=1, references=200, lattice=3, same=False, seed=2)
    @example(queries=1, references=120, lattice=1, same=True, seed=3)
    @example(queries=1, references=300, lattice=3, same=True, seed=4)
    def test_tree_order_matches_a_file_order_query(self, queries, references,
                                                   lattice, same, seed):
        # Points on a small integer lattice repeat, and queries on the
        # half-integer lattice sit at equal distances from several of them.
        rng = np.random.default_rng(seed)
        if lattice:
            ref_xyz = rng.integers(0, lattice + 1, (references, 3)).astype(np.float64)
            query_xyz = rng.integers(0, 2 * lattice + 1, (queries, 3)) / 2.0
        else:
            ref_xyz = rng.normal(size=(references, 3))
            query_xyz = rng.normal(size=(queries, 3))
        reference = PointCloud(ref_xyz)
        query = reference if same else PointCloud(query_xyz)
        want, _ = cKDTree(reference.xyz).query(query.xyz)
        got = metrics.nearest_distance(query, reference)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("same", [False, True])
    def test_split_query_matches_one_balanced_tree(self, same):
        # Enough points that the query is split across workers; lattice
        # points repeat, and half-lattice queries tie between neighbours.
        rng = np.random.default_rng(12)
        reference = PointCloud(rng.integers(0, 9, (24_000, 3)).astype(np.float64))
        query = reference if same else PointCloud(rng.integers(0, 17, (21_000, 3)) / 2.0)
        want, _ = cKDTree(reference.xyz).query(query.xyz)
        got = metrics.nearest_distance(query, reference)
        assert got.tobytes() == want.tobytes()

    def test_empty_clouds_checked_before_any_tree(self, monkeypatch):
        def no_tree(*args, **kwargs):
            raise AssertionError("k-d tree built for an empty comparison")

        monkeypatch.setattr(fusion, "cKDTree", no_tree)
        one = _cloud([[0.0, 0.0, 0.0]])
        assert metrics.nearest_distance(PointCloud.empty(), one).shape == (0,)
        with pytest.raises(EmptyReferenceError):
            metrics.nearest_distance(one, PointCloud.empty())
        with pytest.raises(EmptyCloudError):
            metrics.accuracy_completeness(PointCloud.empty(), one, 1.0)
        with pytest.raises(EmptyCloudError):
            metrics.fscore(one, PointCloud.empty(), 1.0)
        with pytest.raises(EmptyCloudError):
            metrics.evaluate_clouds(PointCloud.empty(), one, threshold=1.0)


class TestCloudIndex:
    """Each cloud owns one k-d tree over coordinates no one can change."""

    def test_evaluate_builds_one_tree_per_cloud(self, monkeypatch):
        built = []
        queried = []
        nearest_distance = metrics.nearest_distance

        def counting_tree(xyz, **kwargs):
            built.append(len(xyz))
            return cKDTree(xyz, **kwargs)

        def counting_query(query, reference):
            queried.append(len(query))
            return nearest_distance(query, reference)

        monkeypatch.setattr(fusion, "cKDTree", counting_tree)
        monkeypatch.setattr(metrics, "nearest_distance", counting_query)
        rng = np.random.default_rng(6)
        recon = PointCloud(rng.normal(size=(70, 3)))
        truth = PointCloud(rng.normal(size=(90, 3)))
        metrics.evaluate_clouds(recon, truth, threshold=0.3)
        assert sorted(built) == [70, 90]
        # Both directions, once for the f-score and once for the truncated means.
        assert sorted(queried) == [70, 70, 90, 90]

    def test_coordinates_are_read_only(self):
        rows = np.zeros((2, 3))
        colors = np.zeros((2, 3), dtype=np.uint8)
        cloud = PointCloud(rows, colors)
        with pytest.raises(ValueError):
            cloud.xyz[0, 0] = 1.0
        with pytest.raises(ValueError):
            cloud.rgb[0, 0] = 1
        with pytest.raises(ValueError):
            cloud.xyz.flags.writeable = True
        with pytest.raises(AttributeError):
            cloud.xyz = rows
        # The caller's arrays stay theirs: writing to them leaves the cloud alone.
        rows[0, 0] = 5.0
        colors[0, 0] = 5
        assert cloud.xyz[0, 0] == 0.0 and cloud.rgb[0, 0] == 0


    def test_caller_arrays_are_copied(self):
        rows = np.arange(12.0).reshape(4, 3)
        colors = np.arange(12, dtype=np.uint8).reshape(4, 3)
        for cloud in (PointCloud(rows, colors), PointCloud(rows[:, :], colors[:])):
            assert not np.shares_memory(cloud.xyz, rows)
            assert not np.shares_memory(cloud.rgb, colors)
        # The caller keeps writeable arrays.
        assert rows.flags.writeable and colors.flags.writeable

    def test_adopted_arrays_are_locked_without_a_copy(self):
        rows = np.ones((4, 3))
        colors = np.ones((4, 3), dtype=np.uint8)
        cloud = PointCloud._adopt(rows, colors)
        assert np.shares_memory(cloud.xyz, rows)
        assert np.shares_memory(cloud.rgb, colors)
        for array in (cloud.xyz, cloud.rgb):
            with pytest.raises(ValueError):
                array.flags.writeable = True
        # The adopted buffers themselves are marked read-only in place.
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        with pytest.raises(ValueError):
            colors[0, 0] = 1

    def test_adoption_copies_only_for_dtype_or_layout(self):
        table = np.arange(24.0).reshape(4, 6)
        strided = PointCloud._adopt(table[:, :3], table[:, 3:].astype(np.uint8))
        assert not np.shares_memory(strided.xyz, table)
        assert strided.xyz.flags.c_contiguous
        assert table.flags.writeable
        flat = np.arange(12.0)
        whole = PointCloud._adopt(flat.reshape(4, 3))
        assert np.shares_memory(whole.xyz, flat)
        # The owner of the viewed memory is locked too, so the view
        # cannot be made writeable again.
        with pytest.raises(ValueError):
            whole.xyz.flags.writeable = True
        assert not flat.flags.writeable
        single = PointCloud._adopt(np.arange(3, dtype=np.float32))
        assert single.xyz.dtype == np.float64 and single.xyz.shape == (1, 3)
        with pytest.raises(ValueError):
            PointCloud._adopt(np.zeros((2, 3)), np.zeros((3, 3), dtype=np.uint8))


class TestAccuracyCompleteness:
    """Truncated mean distances in both directions."""

    def test_truncation_hand_case(self):
        # Outlier at distance 10 is clipped to max_dist = 2:
        # accuracy = (0 + 2) / 2 = 1; completeness = 0 (truth covered).
        recon = _cloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        truth = _cloud([[0.0, 0.0, 0.0]])
        acc, comp = metrics.accuracy_completeness(recon, truth, max_dist=2.0)
        assert acc == pytest.approx(1.0)
        assert comp == pytest.approx(0.0)

    def test_directional_asymmetry(self):
        # Dense recon over sparse truth: perfect accuracy, poor
        # completeness when truth has an uncovered point.
        recon = _cloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        truth = _cloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        acc, comp = metrics.accuracy_completeness(recon, truth, max_dist=10.0)
        assert acc == pytest.approx(0.0)
        assert comp == pytest.approx(1.0)  # (0 + 0 + 3) / 3

    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.normal(size=(30, 3)))
        acc, comp = metrics.accuracy_completeness(cloud, cloud, max_dist=1.0)
        assert acc == 0.0 and comp == 0.0

    def test_validation(self):
        a = _cloud([[0, 0, 0]])
        with pytest.raises(EmptyCloudError):
            metrics.accuracy_completeness(PointCloud.empty(), a, 1.0)
        with pytest.raises(EmptyCloudError):
            metrics.accuracy_completeness(a, PointCloud.empty(), 1.0)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                metrics.accuracy_completeness(a, a, max_dist=bad)


class TestFscore:
    """Distance-thresholded precision/recall and their harmonic mean."""

    def test_half_and_half(self):
        # One recon point on the truth, one far away; one truth point
        # covered, one not: P = R = 1/2 and f = 1/2.
        recon = _cloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        truth = _cloud([[0.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        p, r, f = metrics.fscore(recon, truth, threshold=1.0)
        assert (p, r, f) == (0.5, 0.5, 0.5)

    def test_threshold_inclusive(self):
        recon = _cloud([[1.0, 0.0, 0.0]])
        truth = _cloud([[0.0, 0.0, 0.0]])
        p, _, _ = metrics.fscore(recon, truth, threshold=1.0)
        assert p == 1.0
        p, _, _ = metrics.fscore(recon, truth, threshold=0.999)
        assert p == 0.0

    def test_harmonic_mean(self):
        # P = 1, R = 1/2 -> f = 2 * 1 * 0.5 / 1.5 = 2/3.
        recon = _cloud([[0.0, 0.0, 0.0]])
        truth = _cloud([[0.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        p, r, f = metrics.fscore(recon, truth, threshold=1.0)
        assert p == 1.0 and r == 0.5
        assert f == pytest.approx(2.0 / 3.0)

    def test_degenerate_zero(self):
        recon = _cloud([[10.0, 0.0, 0.0]])
        truth = _cloud([[0.0, 0.0, 0.0]])
        assert metrics.fscore(recon, truth, threshold=1.0) == (0.0, 0.0, 0.0)

    def test_validation(self):
        a = _cloud([[0, 0, 0]])
        with pytest.raises(EmptyCloudError):
            metrics.fscore(a, PointCloud.empty(), 1.0)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                metrics.fscore(a, a, threshold=bad)


class TestEvalReport:
    """Rendering and the aggregate entry point."""

    def test_to_text_format(self):
        report = metrics.EvalReport(
            accuracy=0.125, completeness=0.25, overall=0.1875,
            precision=1.0, recall=0.5, f_score=2.0 / 3.0,
            threshold=0.5, max_dist=10.0,
        )
        lines = report.to_text().splitlines()
        assert lines[0] == "accuracy=0.125000"
        assert lines[1] == "completeness=0.250000"
        assert lines[2] == "overall=0.187500"
        assert lines[5] == "f_score=0.666667"
        assert lines[-1] == "max_dist=10.000000"

    def test_to_json_round_trips(self):
        report = metrics.EvalReport(
            accuracy=0.1, completeness=0.2, overall=0.15,
            precision=0.9, recall=0.8, f_score=0.846,
            threshold=0.5, max_dist=10.0,
        )
        parsed = json.loads(report.to_json())
        assert parsed["accuracy"] == pytest.approx(0.1)
        assert parsed["f_score"] == pytest.approx(0.846)
        assert set(parsed) == {
            "accuracy", "completeness", "overall", "precision",
            "recall", "f_score", "threshold", "max_dist",
        }

    def test_evaluate_clouds_aggregates(self):
        recon = _cloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        truth = _cloud([[0.0, 0.0, 0.0]])
        report = metrics.evaluate_clouds(recon, truth, threshold=1.0, max_dist=2.0)
        assert report.accuracy == pytest.approx(1.0)
        assert report.completeness == pytest.approx(0.0)
        assert report.overall == pytest.approx(0.5)
        assert report.precision == 0.5 and report.recall == 1.0

    @pytest.mark.parametrize("threshold, max_dist", [
        (0.0, None), (-1.0, None), (float("nan"), None), (float("inf"), 1.0),
        (1.0, 0.0), (1.0, float("nan")),
    ])
    def test_arguments_checked_before_any_query(self, threshold, max_dist, monkeypatch):
        def no_query(*args):
            raise AssertionError("nearest_distance called before the argument check")

        monkeypatch.setattr(metrics, "nearest_distance", no_query)
        a = _cloud([[0.0, 0.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            metrics.evaluate_clouds(a, a, threshold, max_dist)

    def test_default_max_dist(self):
        a = _cloud([[0.0, 0.0, 0.0]])
        report = metrics.evaluate_clouds(a, a, threshold=0.5)
        assert report.max_dist == pytest.approx(10.0)
