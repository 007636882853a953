"""Streaming winner-take-all selection and the classification-style loss.

online_softmax_wta must agree with the two-pass evaluation
``oracles.softmax_wta`` (materialize all scores, softmax, argmax, sum the
winner's 3-tap mass) on small volumes.  Loss oracles are
closed-form: uniform probabilities give ln D per pixel, and the softmax
cross-entropy gradient is probability minus one-hot.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvsweep import estimator, geometry, oracles
from mvsweep.depthmap import DepthMap
from mvsweep.errors import EmptyValidSetError, StreamLengthMismatchError
from mvsweep.regularizer import ScoreSlice


def _stream(volume):
    for score in volume:
        yield ScoreSlice(score=score)


def _wta_against_reference(volume, space, atol):
    """The streaming pass, checked against ``oracles.softmax_wta``."""
    depth, conf = estimator.online_softmax_wta(_stream(volume), space)
    winner, want_conf = oracles.softmax_wta(volume)
    np.testing.assert_array_equal(depth.data, geometry.sample_hypotheses(space)[winner])
    np.testing.assert_allclose(conf, want_conf, rtol=0.0, atol=atol)
    return depth, conf


class TestOnlineSoftmaxWta:
    """Streaming pass equals the materialized two-pass reference."""

    def test_matches_two_pass(self):
        rng = np.random.default_rng(0)
        space = geometry.HypothesisSpace(1.0, 4.0, 24)
        volume = rng.normal(size=(24, 3, 5))
        depth, _ = _wta_against_reference(volume, space, atol=1e-12)
        assert depth.mask.all()

    def test_large_magnitude_scores_stable(self):
        # The running-max rescaling must survive scores around +-1000,
        # where a naive exp would overflow.
        rng = np.random.default_rng(1)
        space = geometry.HypothesisSpace(1.0, 2.0, 16)
        volume = rng.normal(scale=1000.0, size=(16, 2, 3))
        _, conf = _wta_against_reference(volume, space, atol=1e-9)
        assert np.all(np.isfinite(conf))

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        space = geometry.HypothesisSpace(1.0, 2.0, 8)
        volume = rng.normal(size=(8, 4, 4))
        d1, c1 = estimator.online_softmax_wta(_stream(volume), space)
        d2, c2 = estimator.online_softmax_wta(_stream(volume + 37.5), space)
        np.testing.assert_array_equal(d1.data, d2.data)
        np.testing.assert_allclose(c1, c2, atol=1e-12)

    def test_ties_break_to_lower_index(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 3)
        volume = np.zeros((3, 1, 1))  # all scores equal
        depth, _ = estimator.online_softmax_wta(_stream(volume), space)
        assert depth.data[0, 0] == pytest.approx(1.0)  # bin 0 wins

    def test_confidence_at_edges_uses_two_taps(self):
        # Winner at bin 0 (or D-1) has only one neighbor; with a sharp
        # peak the confidence still approaches 1 but counts two taps.
        space = geometry.HypothesisSpace(1.0, 2.0, 5)
        volume = np.zeros((5, 1, 1))
        volume[0] = 10.0
        _, conf = estimator.online_softmax_wta(_stream(volume), space)
        prob = estimator.softmax_volume(volume)
        assert conf[0, 0] == pytest.approx(prob[0, 0, 0] + prob[1, 0, 0], abs=1e-12)

    def test_uniform_scores_confidence_is_3_over_d(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 10)
        volume = np.zeros((10, 2, 2))
        _, conf = estimator.online_softmax_wta(_stream(volume), space)
        # Winner bin 0 plus one neighbor: 2/10 (edge winner).
        np.testing.assert_allclose(conf, 0.2, atol=1e-12)

    def test_confidence_within_unit_interval(self):
        rng = np.random.default_rng(3)
        space = geometry.HypothesisSpace(1.0, 2.0, 12)
        volume = rng.normal(size=(12, 6, 7))
        _, conf = estimator.online_softmax_wta(_stream(volume), space)
        assert conf.min() > 0.0 and conf.max() <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(2, 12), height=st.integers(1, 4), width=st.integers(1, 4),
           ties=st.booleans(), offset=st.floats(-1e6, 1e6),
           seed=st.integers(0, 2**32 - 1))
    @example(count=2, height=1, width=1, ties=True, offset=1e6, seed=0)
    @example(count=12, height=3, width=4, ties=True, offset=-1e6, seed=1)
    @example(count=9, height=4, width=4, ties=False, offset=1e6, seed=2)
    def test_streaming_equals_batch(self, count, height, width, ties, offset, seed):
        # Scores from three levels tie often; the offset moves a volume up
        # to 1e6 away from zero.  Ties must go to the lower index, which
        # is what np.argmax picks.
        rng = np.random.default_rng(seed)
        space = geometry.HypothesisSpace(1.0, 2.0, count)
        shape = (count, height, width)
        if ties:
            volume = rng.integers(0, 3, size=shape) * 2.5
        else:
            volume = rng.normal(scale=10.0, size=shape)
        volume += offset
        _wta_against_reference(volume, space, atol=1e-12)

    def test_short_stream_raises(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 8)
        volume = np.zeros((5, 2, 2))
        with pytest.raises(StreamLengthMismatchError):
            estimator.online_softmax_wta(_stream(volume), space)

    def test_long_stream_raises(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 3)
        volume = np.zeros((5, 2, 2))
        with pytest.raises(StreamLengthMismatchError):
            estimator.online_softmax_wta(_stream(volume), space)


class TestSoftmaxVolume:
    """Normalization identities."""

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        prob = estimator.softmax_volume(rng.normal(size=(7, 3, 4)))
        np.testing.assert_allclose(prob.sum(axis=0), 1.0, atol=1e-12)
        assert prob.min() > 0.0

    def test_two_bin_hand_case(self):
        # softmax([0, ln 3]) = [1/4, 3/4].
        prob = estimator.softmax_volume(np.array([[[0.0]], [[np.log(3.0)]]]))
        np.testing.assert_allclose(prob[:, 0, 0], [0.25, 0.75], atol=1e-12)

    def test_matches_reference(self):
        # Scores near 1000, where an unshifted exp would overflow.
        volume = np.random.default_rng(5).normal(scale=10.0, size=(9, 3, 4)) + 1000.0
        np.testing.assert_allclose(estimator.softmax_volume(volume), oracles.softmax(volume),
                                   rtol=1e-12, atol=0.0)


def _one_hot(depths, space):
    """Target bin of each depth in a one-row map, None where it has none."""
    idx, valid = estimator.one_hot_index_map(DepthMap(np.array([depths], dtype=float)), space)
    return [int(i) if ok else None for i, ok in zip(idx[0], valid[0])]


class TestOneHotIndex:
    """Nearest-bin targets in the sampled metric."""

    def test_uniform_rounding(self):
        # Bins at 1.0, 1.25, ..., 2.0: depth 1.12 is 0.48 bins in (-> 0),
        # 1.13 is 0.52 bins in (-> 1).
        space = geometry.HypothesisSpace(1.0, 2.0, 5)
        assert _one_hot([1.12, 1.13, 2.0], space) == [0, 1, 4]

    def test_half_bin_margin(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 5)
        # 0.5 bins = 0.125 depth units beyond either end still snaps.
        assert _one_hot([0.88, 2.12, 0.87, 2.13], space) == [0, 4, None, None]

    def test_invalid_depths(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 5)
        assert _one_hot([np.nan, -1.0, 0.0], space) == [None, None, None]
        # Within half a bin of the first sample, but not in front of the camera.
        wide = geometry.HypothesisSpace(0.1, 10.1, 11)
        assert _one_hot([0.0, -0.3, 0.05], wide) == [None, None, 0]

    def test_inverse_metric_rounding(self):
        # Bins at 1/d uniform on [1, 1/2]: d = [1, 4/3, 2]; depth 1.25
        # has 1/d = 0.8, which is 0.8 bins from 1.0 at step 0.25 -> 1.
        space = geometry.HypothesisSpace(1.0, 2.0, 3, mode="inverse")
        assert _one_hot([1.25, 1.05], space) == [1, 0]


class TestCrossEntropyLoss:
    """Closed-form values and the analytic gradient."""

    def test_uniform_is_log_d(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 4)
        prob = np.full((4, 2, 3), 0.25)
        gt = DepthMap(np.full((2, 3), 1.5))
        # Six valid pixels, each -ln(1/4).
        assert estimator.cross_entropy_loss(prob, gt, space) == pytest.approx(
            6.0 * np.log(4.0), abs=1e-9
        )

    def test_perfect_prediction_zero_loss(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 4)
        prob = np.zeros((4, 1, 1))
        prob[2, 0, 0] = 1.0
        gt = DepthMap(np.array([[1.0 + 2.0 / 3.0]]))  # bin 2
        assert estimator.cross_entropy_loss(prob, gt, space) == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_clamped(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 2)
        prob = np.zeros((2, 1, 1))
        prob[0, 0, 0] = 1.0
        gt = DepthMap(np.array([[2.0]]))  # target bin 1, predicted mass 0
        loss = estimator.cross_entropy_loss(prob, gt, space)
        assert loss == pytest.approx(-np.log(estimator.LOG_CLAMP))

    def test_masked_pixels_excluded(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 4)
        prob = np.full((4, 1, 2), 0.25)
        data = np.array([[1.5, np.nan]])
        loss = estimator.cross_entropy_loss(prob, DepthMap(data), space)
        assert loss == pytest.approx(np.log(4.0))

    def test_empty_valid_set_raises(self):
        space = geometry.HypothesisSpace(1.0, 2.0, 4)
        gt = DepthMap(np.full((2, 2), np.nan))
        with pytest.raises(EmptyValidSetError):
            estimator.cross_entropy_loss(np.full((4, 2, 2), 0.25), gt, space)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(6)
        space = geometry.HypothesisSpace(1.0, 2.0, 5)
        scores = rng.normal(size=(5, 3, 3))
        gt = DepthMap(rng.uniform(1.0, 2.0, size=(3, 3)))
        grad = estimator.loss_gradient_logits(scores, gt, space)
        prob = estimator.softmax_volume(scores)
        idx, valid = estimator.one_hot_index_map(gt, space)
        for y in range(3):
            for x in range(3):
                onehot = np.zeros(5)
                onehot[idx[y, x]] = 1.0
                np.testing.assert_allclose(
                    grad[:, y, x], prob[:, y, x] - onehot, atol=1e-12
                )

    def test_gradient_zero_on_masked_pixels(self):
        rng = np.random.default_rng(7)
        space = geometry.HypothesisSpace(1.0, 2.0, 4)
        scores = rng.normal(size=(4, 2, 2))
        data = np.array([[1.5, np.nan], [np.nan, 1.5]])
        grad = estimator.loss_gradient_logits(scores, DepthMap(data), space)
        np.testing.assert_array_equal(grad[:, 0, 1], 0.0)
        np.testing.assert_array_equal(grad[:, 1, 0], 0.0)
        assert np.abs(grad[:, 0, 0]).sum() > 0.0

    def test_gradient_columns_sum_to_zero(self):
        # softmax minus one-hot sums to zero along the bin axis.
        rng = np.random.default_rng(8)
        space = geometry.HypothesisSpace(1.0, 2.0, 6)
        scores = rng.normal(size=(6, 4, 4))
        gt = DepthMap(rng.uniform(1.0, 2.0, size=(4, 4)))
        grad = estimator.loss_gradient_logits(scores, gt, space)
        np.testing.assert_allclose(grad.sum(axis=0), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        space = geometry.HypothesisSpace(1.0, 2.0, 4)
        scores = rng.normal(size=(4, 2, 2))
        gt = DepthMap(rng.uniform(1.0, 2.0, size=(2, 2)))
        grad = estimator.loss_gradient_logits(scores, gt, space)
        eps = 1e-6
        for d in range(4):
            for y in range(2):
                for x in range(2):
                    plus = scores.copy()
                    plus[d, y, x] += eps
                    minus = scores.copy()
                    minus[d, y, x] -= eps
                    fd = (
                        estimator.cross_entropy_loss(estimator.softmax_volume(plus), gt, space)
                        - estimator.cross_entropy_loss(estimator.softmax_volume(minus), gt, space)
                    ) / (2.0 * eps)
                    assert grad[d, y, x] == pytest.approx(fd, abs=1e-6)
