"""Recurrent cost regularization: ConvLSTM cell, pooling, and the U pipeline.

The ConvLSTM contract is checked against the gate-by-gate reference
``oracles.conv_lstm_cell``, plus the algebraic identities that hold regardless of weights (bounded
outputs, zero-forget amnesia, saturation limits).
"""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from mvsweep import costvol, oracles, regularizer
from mvsweep.errors import SizeMismatchError, WeightGraphMismatchError
from mvsweep.features import ConvLayerWeights, conv3x3


def _random_cell(rng, in_ch, hidden_ch, scale=0.5):
    """A stacked gate conv, drawn gate by gate (kernel, then bias) in gate order."""
    shape = (hidden_ch, in_ch + hidden_ch, 3, 3)
    kernels, biases = zip(*[(rng.normal(scale=scale, size=shape),
                             rng.normal(scale=scale, size=hidden_ch))
                            for _ in range(4)])
    return ConvLayerWeights(np.concatenate(kernels), np.concatenate(biases))


def _gates(w):
    """Per-gate (kernel, bias) views: input, forget, output, candidate."""
    return list(zip(np.split(w.kernel, 4), np.split(w.bias, 4)))


class TestConvLstmCell:
    """Update equations, state threading, and bounds."""

    def test_matches_gate_by_gate_reference(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            w = _random_cell(rng, in_ch=3, hidden_ch=2)
            x = rng.normal(size=(5, 5, 3))
            state = (rng.normal(size=(5, 5, 2)), rng.normal(size=(5, 5, 2)))
            h, (h2, c2) = regularizer.conv_lstm_cell(x, state, w)
            ref_h, ref_c = oracles.conv_lstm_cell(x, *state, w.kernel, w.bias)
            np.testing.assert_allclose(h, ref_h, atol=1e-12)
            np.testing.assert_allclose(c2, ref_c, atol=1e-12)
            assert h is h2
            # An up cell's input: the upsampled map and the skip as blocks.
            u, skip = x[:, :, :2], x[:, :, 2:]
            h_blocks, (_, c_blocks) = regularizer.conv_lstm_cell((u, skip), state, w)
            assert np.array_equal(h_blocks, h) and np.array_equal(c_blocks, c2)

    def test_gate_changed_after_a_call_is_used(self):
        rng = np.random.default_rng(5)
        w = _random_cell(rng, in_ch=3, hidden_ch=2)
        x = rng.normal(size=(5, 5, 3))
        state = (rng.normal(size=(5, 5, 2)), rng.normal(size=(5, 5, 2)))
        regularizer.conv_lstm_cell(x, state, w)
        (w_input, _), (_, b_forget), *_ = _gates(w)
        w_input[...] = 0.0
        b_forget[:] *= -1.0
        h, (_, c) = regularizer.conv_lstm_cell(x, state, w)
        ref_h, ref_c = oracles.conv_lstm_cell(x, *state, w.kernel, w.bias)
        np.testing.assert_allclose(h, ref_h, atol=1e-12)
        np.testing.assert_allclose(c, ref_c, atol=1e-12)

    def test_gate_count_must_be_four(self):
        rng = np.random.default_rng(7)
        w = ConvLayerWeights(rng.normal(size=(6, 4, 3, 3)), rng.normal(size=6))
        with pytest.raises(WeightGraphMismatchError, match="6 outputs"):
            regularizer.conv_lstm_cell(rng.normal(size=(3, 3, 1)), None, w)

    def test_none_state_is_zero_state(self):
        rng = np.random.default_rng(1)
        w = _random_cell(rng, in_ch=2, hidden_ch=2)
        x = rng.normal(size=(4, 4, 2))
        zeros = (np.zeros((4, 4, 2)), np.zeros((4, 4, 2)))
        h_none, _ = regularizer.conv_lstm_cell(x, None, w)
        h_zero, _ = regularizer.conv_lstm_cell(x, zeros, w)
        np.testing.assert_array_equal(h_none, h_zero)

    def test_output_bounded_by_one(self):
        # h = sigmoid * tanh, so |h| < 1 mathematically; saturated floats
        # round the product to exactly 1, hence the closed bound here.
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = _random_cell(rng, in_ch=1, hidden_ch=1, scale=5.0)
            x = rng.normal(scale=10.0, size=(3, 3, 1))
            state = (rng.normal(size=(3, 3, 1)), rng.normal(scale=10.0, size=(3, 3, 1)))
            h, _ = regularizer.conv_lstm_cell(x, state, w)
            assert np.abs(h).max() <= 1.0

    def test_saturated_forget_keeps_cell(self):
        # Huge forget bias (sigmoid -> 1) with a zero input gate carries
        # the cell state through unchanged.
        rng = np.random.default_rng(3)
        w = _random_cell(rng, in_ch=1, hidden_ch=1, scale=0.0)
        (_, b_input), (_, b_forget), *_ = _gates(w)
        b_forget[:] = 50.0
        b_input[:] = -50.0
        c_prev = rng.normal(size=(3, 3, 1))
        state = (np.zeros((3, 3, 1)), c_prev)
        _, (_, c_new) = regularizer.conv_lstm_cell(np.ones((3, 3, 1)), state, w)
        np.testing.assert_allclose(c_new, c_prev, atol=1e-12)

    def test_state_shape_mismatch_raises(self):
        rng = np.random.default_rng(4)
        w = _random_cell(rng, in_ch=1, hidden_ch=1)
        bad = (np.zeros((2, 2, 1)), np.zeros((2, 2, 1)))
        with pytest.raises(SizeMismatchError):
            regularizer.conv_lstm_cell(np.zeros((3, 3, 1)), bad, w)

    def test_cell_state_shape_mismatch_raises(self):
        # A one-channel cell state would broadcast across both hidden
        # channels into a wrong state instead of failing.
        rng = np.random.default_rng(4)
        w = _random_cell(rng, in_ch=1, hidden_ch=2)
        bad = (np.zeros((3, 3, 2)), np.zeros((3, 3, 1)))
        with pytest.raises(SizeMismatchError, match="cell state"):
            regularizer.conv_lstm_cell(np.zeros((3, 3, 1)), bad, w)

    def test_sigmoid_gates_match_expit(self):
        # A centre-tap delta kernel makes the input gate's pre-activation
        # the input itself; with a saturated candidate (tanh(50) == 1.0)
        # and a zero cell state, the new cell state is sigmoid(input).
        v = np.concatenate([np.linspace(-800.0, 800.0, 16001),
                            np.linspace(-40.0, 40.0, 16001)])
        w = _random_cell(np.random.default_rng(0), in_ch=1, hidden_ch=1, scale=0.0)
        (w_input, _), *_, (_, b_candidate) = _gates(w)
        w_input[0, 0, 1, 1] = 1.0
        b_candidate[:] = 50.0
        x = v.reshape(2, -1, 1)
        _, (_, c_new) = regularizer.conv_lstm_cell(x, None, w)
        gate = c_new.ravel()
        assert np.max(np.abs(gate - expit(v))) <= 1e-15
        assert gate.min() >= 0.0 and gate.max() <= 1.0
        assert gate[0] == 0.0 and gate[16000] == 1.0


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_runs_in_input_dtype(self, dtype):
        # The zero state is built in the input's dtype, so a float32 cell
        # never widens to float64, with or without a carried state.
        rng = np.random.default_rng(8)
        w = _random_cell(rng, in_ch=3, hidden_ch=2)
        x = rng.normal(size=(5, 5, 3)).astype(dtype)
        state = None
        for _ in range(2):
            h, state = regularizer.conv_lstm_cell(x, state, w)
            assert h.dtype == state[0].dtype == state[1].dtype == dtype


class TestMaxPool2:
    """Ceil-size 2x2 pooling with edge replication."""

    def test_even_input(self):
        x = np.array([[1.0, 2.0, 5.0, 0.0], [3.0, 4.0, -1.0, 6.0]])[..., None]
        out = regularizer.max_pool2(x)
        np.testing.assert_array_equal(out[..., 0], [[4.0, 6.0]])

    def test_odd_input_replicates_edges(self):
        # 3x3 -> 2x2; the ragged blocks reuse the last row/column, which
        # cannot introduce values absent from the input.
        x = np.arange(9.0).reshape(3, 3, 1)
        out = regularizer.max_pool2(x)
        np.testing.assert_array_equal(out[..., 0], [[4.0, 5.0], [7.0, 8.0]])

    def test_shape_rule(self):
        assert regularizer.max_pool2(np.zeros((5, 7, 2))).shape == (3, 4, 2)
        assert regularizer.max_pool2(np.zeros((4, 4, 1))).shape == (2, 2, 1)


class TestUpsampleConv:
    """Phase convolutions against the zero-stuffed convolution."""

    @pytest.mark.parametrize("in_hw, out_hw", [
        ((12, 16), (24, 32)), ((24, 32), (48, 64)),   # 64x48 input: even sizes
        ((12, 16), (23, 31)), ((10, 13), (19, 25)),   # odd crops
        ((19, 25), (38, 50)),
    ])
    def test_bit_identical_on_network_shapes(self, in_hw, out_hw):
        w = regularizer.random_hulstm_weights(seed=4)
        rng = np.random.default_rng(in_hw[0] + out_hw[1])
        x = rng.normal(size=in_hw + (regularizer.HIDDEN_CH,))
        bias = rng.normal(size=regularizer.HIDDEN_CH)
        got = regularizer._upsample_conv(x, w.up_full.kernel, bias, out_hw)
        # The phases leave out only all-zero terms of the full convolution.
        full = conv3x3(oracles.stuff_zeros(x), w.up_full.kernel, bias)
        assert np.array_equal(got, full[:out_hw[0], :out_hw[1]])

    @settings(max_examples=60, deadline=None)
    @given(height=st.integers(1, 7), width=st.integers(1, 7),
           in_ch=st.integers(1, 4), out_ch=st.integers(1, 4),
           crop=st.tuples(st.integers(0, 1), st.integers(0, 1)),
           seed=st.integers(0, 2**32 - 1))
    def test_within_rounding_of_stuffed_conv(self, height, width, in_ch, out_ch,
                                             crop, seed):
        # Small maps may take height-dependent BLAS kernels (see
        # test_features.TestConv3x3WindowOracle), so here the bound is
        # float64 rounding of the taps that read real input.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(height, width, in_ch))
        kernel = rng.normal(size=(out_ch, in_ch, 3, 3))
        bias = rng.normal(size=out_ch)
        out_hw = (2 * height - crop[0], 2 * width - crop[1])
        got = regularizer._upsample_conv(x, kernel, bias, out_hw)
        want = oracles.stuffed_upsample(x, kernel, bias, out_hw)
        assert got.shape == want.shape == out_hw + (out_ch,)
        terms = oracles.stuffed_upsample(np.abs(x), np.abs(kernel), np.abs(bias), out_hw)
        n = 4 * in_ch + 1
        assert np.all(np.abs(got - want) <= 2 * n * np.finfo(float).eps * terms)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_takes_input_dtype(self, dtype):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 5, 3)).astype(dtype)
        got = regularizer._upsample_conv(x, rng.normal(size=(2, 3, 3, 3)),
                                         rng.normal(size=2), (8, 9))
        assert got.dtype == dtype


class TestHuLstmWeights:
    """Container round trips and graph validation."""

    def test_tensor_round_trip(self):
        tensors = regularizer.random_hulstm_weights(seed=5).to_tensors()
        back = regularizer.HuLstmWeights.from_tensors(tensors).to_tensors()
        assert tensors.keys() == back.keys()
        for name in tensors:
            np.testing.assert_array_equal(tensors[name], back[name])

    def test_missing_tensor_raises(self):
        tensors = regularizer.random_hulstm_weights(seed=5).to_tensors()
        del tensors["head.kernel"]
        with pytest.raises(WeightGraphMismatchError):
            regularizer.HuLstmWeights.from_tensors(tensors)

    def test_wrong_gate_shape_raises(self):
        tensors = regularizer.random_hulstm_weights(seed=5).to_tensors()
        key = "cell_half_up.w_input"
        tensors[key] = np.zeros((32, 32, 3, 3))  # needs 64 + 32 input channels
        with pytest.raises(WeightGraphMismatchError):
            regularizer.HuLstmWeights.from_tensors(tensors)

    def test_first_cell_kernel_of_wrong_rank_raises(self):
        # The input width is read from the first cell's gate kernels, so
        # their rank is checked before that read.
        tensors = regularizer.random_hulstm_weights(seed=5).to_tensors()
        for gate in ("input", "forget", "output", "candidate"):
            tensors[f"cell_full_down.w_{gate}"] = np.zeros(16)
        with pytest.raises(WeightGraphMismatchError, match="cell_full_down"):
            regularizer.HuLstmWeights.from_tensors(tensors)

    def test_construction_validates(self):
        weights = regularizer.random_hulstm_weights(seed=5)
        with pytest.raises(WeightGraphMismatchError):
            dataclasses.replace(weights, cells=weights.cells[:4])


def _slice_stream(rng, count, shape=(6, 8, 4)):
    for _ in range(count):
        yield costvol.CostSlice(
            cost=np.abs(rng.normal(size=shape)),
            valid_views=np.full(shape[:2], 2, dtype=np.int64),
        )


class TestHuLstmStep:
    """Shape discipline and depth-order dependence of the U pipeline."""

    def test_score_shape_matches_input(self):
        rng = np.random.default_rng(6)
        w = regularizer.random_hulstm_weights(seed=0, in_channels=4)
        sl = next(_slice_stream(rng, 1, shape=(9, 13, 4)))
        score, state = regularizer.hu_lstm_step(sl, None, w)
        assert score.score.shape == (9, 13)
        assert len(state) == 5 and all(len(pair) == 2 for pair in state)
        # Full-res cells hold (9, 13); the quarter cell holds ceil sizes.
        assert state[0][0].shape == (9, 13, 32)
        assert state[2][0].shape == (3, 4, 32)

    def test_stream_threads_state(self):
        # Feeding the same slice twice must give different scores, since
        # the second step starts from the first step's state.
        rng = np.random.default_rng(7)
        w = regularizer.random_hulstm_weights(seed=1, in_channels=4)
        cost = np.abs(rng.normal(size=(6, 8, 4)))
        views = np.full((6, 8), 2, dtype=np.int64)
        twice = [costvol.CostSlice(cost, views), costvol.CostSlice(cost, views)]
        scores = [s.score for s in regularizer.regularize_stream(iter(twice), w)]
        assert np.abs(scores[0] - scores[1]).max() > 1e-9

    def test_stream_matches_manual_stepping(self):
        rng = np.random.default_rng(8)
        w = regularizer.random_hulstm_weights(seed=2, in_channels=4)
        slices = list(_slice_stream(rng, 3))
        streamed = [s.score for s in regularizer.regularize_stream(iter(slices), w)]
        state = None
        for i, sl in enumerate(slices):
            score, state = regularizer.hu_lstm_step(sl, state, w)
            np.testing.assert_array_equal(streamed[i], score.score)

    def test_deterministic(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        w = regularizer.random_hulstm_weights(seed=3, in_channels=4)
        out_a = [s.score for s in regularizer.regularize_stream(_slice_stream(rng_a, 2), w)]
        out_b = [s.score for s in regularizer.regularize_stream(_slice_stream(rng_b, 2), w)]
        for a, b in zip(out_a, out_b):
            np.testing.assert_array_equal(a, b)


    def test_float32_cost_stays_float32(self):
        rng = np.random.default_rng(13)
        w = regularizer.random_hulstm_weights(seed=4, in_channels=4)
        state = None
        for sl in _slice_stream(rng, 2, shape=(7, 9, 4)):
            sl.cost = sl.cost.astype(np.float32)
            score, state = regularizer.hu_lstm_step(sl, state, w)
            assert score.score.dtype == np.float32
            assert {t.dtype for pair in state for t in pair} == {np.dtype(np.float32)}

    def test_float32_tracks_float64(self):
        # Float64 slices run in float32 too: no float64 array may appear
        # in the returned state.  The reference evaluates the U in float64
        # from the same parts, over 24 chained 64x48 slices; the bound is
        # relative to the float64 maximum.
        rng = np.random.default_rng(14)
        w = regularizer.random_hulstm_weights(seed=5)
        state = None
        prev = [None] * 5
        for sl in _slice_stream(rng, 24, shape=(48, 64, 32)):
            score, state = regularizer.hu_lstm_step(sl, state, w)
            h0, s0 = regularizer.conv_lstm_cell(sl.cost, prev[0], w.cells[0])
            h1, s1 = regularizer.conv_lstm_cell(regularizer.max_pool2(h0), prev[1], w.cells[1])
            h2, s2 = regularizer.conv_lstm_cell(regularizer.max_pool2(h1), prev[2], w.cells[2])
            u2 = regularizer._upsample_conv(h2, w.up_mid.kernel, w.up_mid.bias, h1.shape[:2])
            h3, s3 = regularizer.conv_lstm_cell((u2, h1), prev[3], w.cells[3])
            u3 = regularizer._upsample_conv(h3, w.up_full.kernel, w.up_full.bias, h0.shape[:2])
            h4, s4 = regularizer.conv_lstm_cell((u3, h0), prev[4], w.cells[4])
            prev = [s0, s1, s2, s3, s4]
            want = conv3x3(h4, w.head.kernel, w.head.bias)[:, :, 0]
            for got, ref in [(score.score, want),
                             *((state[i][k], prev[i][k]) for i in range(5) for k in (0, 1))]:
                assert got.dtype == np.float32 and ref.dtype == np.float64
                assert np.abs(got - ref).max() <= 1e-4 * np.abs(ref).max()


class TestPassthroughRegularizer:
    """Weight-free scoring is the negated channel-mean cost."""

    def test_negated_mean(self):
        rng = np.random.default_rng(10)
        slices = list(_slice_stream(rng, 4))
        out = list(regularizer.passthrough_regularizer(iter(slices)))
        assert len(out) == 4
        for sl, sc in zip(slices, out):
            np.testing.assert_allclose(sc.score, -sl.cost.mean(axis=2), atol=1e-15)

    def test_zero_cost_is_best(self):
        # A perfectly photo-consistent pixel (zero variance) must score
        # at least as high as any other.
        cost = np.ones((3, 3, 2))
        cost[1, 1, :] = 0.0
        sl = costvol.CostSlice(cost, np.full((3, 3), 2, dtype=np.int64))
        out = next(regularizer.passthrough_regularizer(iter([sl])))
        assert out.score[1, 1] == out.score.max()


def _released_stream(count: int, channels: int):
    """Cost slices that check, before building each one, that the
    consumer no longer holds the previous slice's cost."""
    rng = np.random.default_rng(12)
    alive = []

    def make():
        cost = np.abs(rng.normal(size=(6, 8, channels)))
        alive.append(weakref.ref(cost))
        return costvol.CostSlice(cost, np.full((6, 8), 2, dtype=np.int64))

    for _ in range(count):
        assert all(ref() is None for ref in alive)
        yield make()


@pytest.mark.parametrize("regularize", [
    regularizer.passthrough_regularizer,
    lambda stream: regularizer.regularize_stream(
        stream, regularizer.random_hulstm_weights(seed=3, in_channels=4)),
], ids=["passthrough", "hulstm"])
def test_each_cost_slice_is_released_before_the_next(regularize):
    # A stream keeps at most one cost slice alive, however the scores
    # downstream are held.
    scores = list(regularize(_released_stream(4, 4)))
    assert len(scores) == 4
