"""Feature extraction: 3x3 convolutions, group norm, and the two extractors.

conv3x3 is cross-correlation with zero padding, out[y, x, o] =
bias[o] + sum kernel[o, c, ky, kx] * in[y + (ky-1)*d, x + (kx-1)*d, c].
The tests pin that contract with delta kernels and the tap-by-tap
reference ``oracles.conv3x3``, then cover the weight container plumbing and
the fixed photometric descriptor's channel layout.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvsweep import features, formats, oracles, regularizer
from mvsweep.errors import ChannelMismatchError, SizeMismatchError, WeightGraphMismatchError


def _conv_by_windows(x, kernel, bias=None, dilation=1):
    """The earlier conv3x3: pad, then multiply a reshaped copy of each
    tap's window, accumulating taps in ky, kx order."""
    height, width, in_ch = x.shape
    out_ch = kernel.shape[0]
    d = dilation
    padded = np.pad(x, ((d, d), (d, d), (0, 0)))
    out = np.zeros((height, width, out_ch), dtype=np.float64)
    flat = out.reshape(-1, out_ch)
    for ky in range(3):
        for kx in range(3):
            window = padded[ky * d:ky * d + height, kx * d:kx * d + width, :]
            flat += window.reshape(-1, in_ch) @ kernel[:, :, ky, kx].T
    if bias is not None:
        out += bias
    return out


class TestConv3x3:
    """Delta-kernel identities and a comparison with the reference."""

    def test_center_delta_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 6, 2))
        kernel = np.zeros((2, 2, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        kernel[1, 1, 1, 1] = 1.0
        np.testing.assert_allclose(features.conv3x3(x, kernel), x, atol=1e-14)

    def test_corner_delta_shifts(self):
        # Tap (ky=0, kx=0) reads in[y-1, x-1]; the first row/column read
        # the zero padding.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 1))
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 0, 0] = 1.0
        out = features.conv3x3(x, kernel)
        np.testing.assert_allclose(out[1:, 1:], x[:-1, :-1], atol=1e-14)
        assert np.all(out[0, :] == 0.0) and np.all(out[:, 0] == 0.0)

    def test_dilation_widens_reach(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 6, 1))
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 0, 0] = 1.0
        out = features.conv3x3(x, kernel, dilation=2)
        np.testing.assert_allclose(out[2:, 2:], x[:-2, :-2], atol=1e-14)
        assert np.all(out[:2, :] == 0.0)

    def test_bias_is_added(self):
        x = np.zeros((3, 3, 1))
        kernel = np.zeros((2, 1, 3, 3))
        out = features.conv3x3(x, kernel, bias=np.array([1.5, -2.0]))
        np.testing.assert_allclose(out[..., 0], 1.5, atol=1e-15)
        np.testing.assert_allclose(out[..., 1], -2.0, atol=1e-15)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        for dilation in (1, 2, 3):
            x = rng.normal(size=(5, 7, 3))
            kernel = rng.normal(size=(4, 3, 3, 3))
            bias = rng.normal(size=4)
            got = features.conv3x3(x, kernel, bias, dilation)
            want = oracles.conv3x3(x, kernel, bias, dilation)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatchError):
            features.conv3x3(np.zeros((4, 4, 2)), np.zeros((1, 3, 3, 3)))


class TestConv3x3Blocks:
    """A sequence of channel blocks is read as their concatenation."""

    @settings(max_examples=60, deadline=None)
    @given(height=st.integers(1, 7), width=st.integers(1, 7),
           in_ch=st.integers(1, 6), out_ch=st.integers(1, 5),
           dilation=st.integers(1, 4), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_concatenated_input(self, height, width, in_ch, out_ch,
                                       dilation, data, seed):
        cuts = data.draw(st.lists(st.integers(1, in_ch - 1), max_size=2, unique=True)
                         if in_ch > 1 else st.just([]))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(height, width, in_ch))
        kernel = rng.normal(size=(out_ch, in_ch, 3, 3))
        bias = rng.normal(size=out_ch)
        blocks = np.split(x, sorted(cuts), axis=2)
        got = features.conv3x3(blocks, kernel, bias, dilation)
        assert np.array_equal(got, features.conv3x3(x, kernel, bias, dilation))

    def test_blocks_of_different_size_raise(self):
        blocks = (np.zeros((4, 5, 2)), np.zeros((4, 6, 1)))
        with pytest.raises(SizeMismatchError):
            features.conv3x3(blocks, np.zeros((1, 3, 3, 3)))

    def test_total_width_must_match_kernel(self):
        blocks = (np.zeros((4, 5, 2)), np.zeros((4, 5, 2)))
        with pytest.raises(ChannelMismatchError):
            features.conv3x3(blocks, np.zeros((1, 3, 3, 3)))


class TestConv3x3WindowOracle:
    """The in-place tap runs against the earlier window-copy loop.

    Both sum the same products in the same tap order.  Each tap's dot
    products come from BLAS, which may order a dot product's terms by
    the matrix height (small-matrix and matrix-vector kernels), and the
    run layout multiplies taller matrices (``H * (W + 2d)`` rows against
    ``H * W``).  So on small maps the two may differ in the last bits,
    within float64 rounding of the sum; on the layer shapes the networks
    run, both layouts take the same kernel and agree bit for bit, which
    is what keeps the pipeline's output files unchanged.
    """

    @settings(max_examples=80, deadline=None)
    @given(height=st.integers(1, 9), width=st.integers(1, 9),
           in_ch=st.integers(1, 5), out_ch=st.integers(1, 5),
           dilation=st.integers(1, 4), with_bias=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(height=1, width=1, in_ch=1, out_ch=1, dilation=4, with_bias=False, seed=0)
    @example(height=1, width=7, in_ch=3, out_ch=1, dilation=2, with_bias=True, seed=1)
    @example(height=7, width=1, in_ch=1, out_ch=4, dilation=3, with_bias=True, seed=2)
    @example(height=2, width=3, in_ch=2, out_ch=2, dilation=4, with_bias=False, seed=3)
    def test_within_rounding_of_window_loop(self, height, width, in_ch, out_ch,
                                            dilation, with_bias, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(height, width, in_ch))
        kernel = rng.normal(size=(out_ch, in_ch, 3, 3))
        bias = rng.normal(size=out_ch) if with_bias else None
        got = features.conv3x3(x, kernel, bias, dilation)
        want = _conv_by_windows(x, kernel, bias, dilation)
        assert got.shape == want.shape
        # Each output sums 9 * in_ch products and the bias; either order
        # is within n * eps * sum(|terms|) of the exact value.
        terms = _conv_by_windows(np.abs(x), np.abs(kernel),
                                 None if bias is None else np.abs(bias), dilation)
        n = 9 * in_ch + 1
        assert np.all(np.abs(got - want) <= 2 * n * np.finfo(float).eps * terms)

    @pytest.mark.parametrize("height, width, in_ch, out_ch, dilation", [
        # DRENet at 64x48
        (48, 64, 3, 16, 1), (48, 64, 16, 16, 1), (48, 64, 16, 32, 2),
        (48, 64, 32, 32, 1), (48, 64, 32, 32, 3), (48, 64, 32, 32, 4),
        (48, 64, 96, 32, 1),
        # HU-LSTM gate convolutions at full, half and quarter size, and the head
        (48, 64, 64, 128, 1), (48, 64, 96, 128, 1), (24, 32, 64, 128, 1),
        (24, 32, 96, 128, 1), (12, 16, 64, 128, 1), (48, 64, 32, 1, 1),
    ])
    def test_bit_identical_on_network_layers(self, height, width, in_ch, out_ch,
                                             dilation):
        rng = np.random.default_rng(height * width + in_ch + out_ch + dilation)
        x = rng.normal(size=(height, width, in_ch))
        kernel = rng.normal(size=(out_ch, in_ch, 3, 3))
        bias = rng.normal(size=out_ch)
        got = features.conv3x3(x, kernel, bias, dilation)
        assert np.array_equal(got, _conv_by_windows(x, kernel, bias, dilation))


# Float32 against float64 on the network shapes, relative to the float64
# output's largest magnitude.  One convolution sums 9 * in_ch products,
# whose float32 rounding stays near sqrt(9 * in_ch) * 6e-8 (about 2e-7
# measured); a network chains nine layers or 24 recurrent steps.
CONV_F32_RTOL = 1e-5
NETWORK_F32_RTOL = 1e-4


def assert_close_to_float64(got, want, rtol):
    """``got`` is float32 and within ``rtol * max|want|`` of float64 ``want``."""
    assert got.dtype == np.float32 and want.dtype == np.float64
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestConv3x3Dtype:
    """The convolution runs in its input's dtype; weights are cast at use."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_takes_input_dtype(self, dtype):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 6, 3)).astype(dtype)
        kernel = rng.normal(size=(4, 3, 3, 3))
        for out_ch in (4, 1):  # a BLAS product and a score head's vector product
            out = features.conv3x3(x, kernel[:out_ch], rng.normal(size=out_ch))
            assert out.dtype == dtype
        layer = features._random_conv(rng, 3, 8, gn=True)
        assert features.conv2d(x, layer).dtype == dtype

    def test_mixed_blocks_take_their_result_type(self):
        x = np.ones((4, 5, 3))
        blocks = (x[:, :, :1].astype(np.float32), x[:, :, 1:])
        assert features.conv3x3(blocks, np.ones((2, 3, 3, 3))).dtype == np.float64

    @pytest.mark.parametrize("in_ch", [64, 96])
    def test_float32_tracks_float64_on_gate_convolutions(self, in_ch):
        # The HU-LSTM's full-resolution gate convolutions at 64x48.
        rng = np.random.default_rng(in_ch)
        x = rng.normal(size=(48, 64, in_ch))
        kernel = rng.uniform(-1.0, 1.0, (128, in_ch, 3, 3)) / np.sqrt(9 * in_ch)
        bias = rng.normal(size=128)
        assert_close_to_float64(features.conv3x3(x.astype(np.float32), kernel, bias),
                                features.conv3x3(x, kernel, bias), CONV_F32_RTOL)


class TestGroupNormRelu:
    """Per-group statistics over all pixels of one map, then ReLU."""

    def test_two_value_hand_case(self):
        # Values {1, 3}: mean 2, population variance 1, so the normalized
        # values are -/+ 1/sqrt(1 + eps).
        x = np.array([[[1.0], [3.0]]])
        out = features.group_norm_relu(x, np.array([2.0]), np.array([1.0]), groups=1)
        unit = 1.0 / np.sqrt(1.0 + features.GN_EPS)
        expected = np.maximum(np.array([[[1.0 - 2.0 * unit], [1.0 + 2.0 * unit]]]), 0.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert out[0, 0, 0] == 0.0  # ReLU clamps the negative side

    def test_groups_are_independent(self):
        # Channel pair (0, 1) is one group, (2, 3) the other; a constant
        # group normalizes to zero regardless of the other group's spread.
        rng = np.random.default_rng(4)
        x = np.concatenate(
            [np.full((3, 4, 2), 7.0), rng.normal(size=(3, 4, 2))], axis=2
        )
        out = features.group_norm_relu(
            x, np.ones(4), np.zeros(4), groups=2
        )
        np.testing.assert_allclose(out[..., :2], 0.0, atol=1e-12)
        assert out[..., 2:].std() > 0.1

    def test_statistics_match_numpy(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 5, 6))
        scale = rng.uniform(0.5, 1.5, size=6)
        shift = rng.normal(size=6)
        out = features.group_norm_relu(x, scale, shift, groups=3)
        ref = np.empty_like(x)
        for g in range(3):
            block = x[..., 2 * g:2 * g + 2]
            normed = (block - block.mean()) / np.sqrt(block.var() + features.GN_EPS)
            ref[..., 2 * g:2 * g + 2] = normed
        ref = np.maximum(ref * scale + shift, 0.0)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_indivisible_groups_raise(self):
        with pytest.raises(ChannelMismatchError):
            features.group_norm_relu(np.zeros((2, 2, 5)), np.ones(5), np.zeros(5), groups=2)


class TestDrenetWeights:
    """Weight container construction, serialization, and validation."""

    def test_random_weights_are_deterministic(self):
        a = features.random_drenet_weights(seed=9).to_tensors()
        b = features.random_drenet_weights(seed=9).to_tensors()
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_kernels_are_float32_representable_and_bounded(self):
        tensors = features.random_drenet_weights(seed=0).to_tensors()
        for name, value in tensors.items():
            if not name.endswith(".kernel"):
                continue
            np.testing.assert_array_equal(
                value, value.astype(np.float32).astype(np.float64)
            )
            bound = 1.0 / np.sqrt(value.shape[1] * 9.0)
            assert np.abs(value).max() <= bound + 1e-12, name

    def test_tensor_round_trip(self):
        tensors = features.random_drenet_weights(seed=3).to_tensors()
        back = features.DrenetWeights.from_tensors(tensors).to_tensors()
        assert tensors.keys() == back.keys()
        for name in tensors:
            np.testing.assert_array_equal(tensors[name], back[name])

    def test_missing_tensor_raises(self):
        tensors = features.random_drenet_weights(seed=3).to_tensors()
        del tensors["fuse.kernel"]
        with pytest.raises(WeightGraphMismatchError):
            features.DrenetWeights.from_tensors(tensors)

    def test_wrong_shape_raises(self):
        # The trunk layer's width is part of the fixed graph, so a fatter
        # kernel must be rejected (stem input width alone is flexible).
        tensors = features.random_drenet_weights(seed=3).to_tensors()
        tensors["grow.kernel"] = np.zeros((32, 32, 3, 3))
        with pytest.raises(WeightGraphMismatchError):
            features.DrenetWeights.from_tensors(tensors)

    def test_stem_kernel_of_wrong_rank_raises(self):
        # The stem's input width is read from its kernel, so the rank is
        # checked before that read.
        tensors = features.random_drenet_weights(seed=3).to_tensors()
        tensors["stem0.kernel"] = np.zeros(16)
        with pytest.raises(WeightGraphMismatchError, match="stem0"):
            features.DrenetWeights.from_tensors(tensors)

    def test_construction_validates(self):
        # Weights are checked once, when built, not on every forward pass.
        weights = features.random_drenet_weights(seed=3)
        with pytest.raises(WeightGraphMismatchError):
            dataclasses.replace(weights, grow=weights.stem1)


# sha256 of the save_tensors bytes of each seeded network, keyed by
# (network, seed, in_channels).  A change to the draw order, the float32
# rounding or the container layout changes these digests.
_SEEDED_CONTAINER_SHA256 = {
    ("drenet", 0, 3): "eca61e89dc715e2490e44a0b59f89eb9906027d8464188049a55f18bdb3341a4",
    ("drenet", 0, 32): "a178abd9b8286f302d80932e20637ad5871eb76ef8ce6ab4aa83a7635506b0b9",
    ("drenet", 1, 3): "d91a39e94a26b08ff5d1295b99d4253da9dbed26cb85ec53c6ff13b608051e17",
    ("drenet", 1, 32): "f5e21e86bac942f3e60bd532a24557064381c8c039a486e3ef6ea3655c747a65",
    ("hulstm", 0, 3): "09807268cae2ac5222dd44000c3e6a129bad293f948371b830afe05ddee2368a",
    ("hulstm", 0, 32): "bb19399988730308dfd9780799b4f6fd518595486d3d3f2c859821aeafda893b",
    ("hulstm", 1, 3): "f9f6ccffbbf2d84a033c6ddbf00beababcd3093c672b093395b872d2f3fbb7eb",
    ("hulstm", 1, 32): "e94504c65789ea2ff95b14498e7da41b76655cfd042564d0f2663c606f4253d6",
}


@pytest.mark.parametrize("network, seed, in_channels", sorted(_SEEDED_CONTAINER_SHA256))
def test_seeded_weights_container_is_pinned(network, seed, in_channels, tmp_path):
    make = {"drenet": features.random_drenet_weights,
            "hulstm": regularizer.random_hulstm_weights}[network]
    path = tmp_path / "weights.bin"
    formats.save_tensors(path, make(seed, in_channels).to_tensors())
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _SEEDED_CONTAINER_SHA256[network, seed, in_channels]


class TestDrenetForward:
    """Learned-extractor forward pass plumbing."""

    def test_output_shape(self):
        rng = np.random.default_rng(6)
        w = features.random_drenet_weights(seed=1)
        out = features.drenet_forward(rng.uniform(size=(10, 12, 3)), w)
        assert out.shape == (10, 12, 32)
        assert np.all(np.isfinite(out))

    def test_grayscale_replicates_channels(self):
        rng = np.random.default_rng(7)
        w = features.random_drenet_weights(seed=2)
        gray = rng.uniform(size=(6, 8))
        mono = features.drenet_forward(gray, w)
        tri = features.drenet_forward(np.repeat(gray[:, :, None], 3, axis=2), w)
        np.testing.assert_allclose(mono, tri, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        w = features.random_drenet_weights(seed=4)
        img = rng.uniform(size=(6, 6, 3))
        np.testing.assert_array_equal(
            features.drenet_forward(img, w), features.drenet_forward(img, w)
        )

    def test_float32_image_stays_float32(self):
        rng = np.random.default_rng(10)
        w = features.random_drenet_weights(seed=5)
        image = rng.uniform(size=(6, 7, 3)).astype(np.float32)
        assert features.drenet_forward(image, w).dtype == np.float32

    def test_float32_tracks_float64(self):
        # A float64 image runs in float32 too; the reference evaluates
        # the network's graph on it in float64, layer by layer.
        rng = np.random.default_rng(11)
        w = features.random_drenet_weights(seed=6)
        image = rng.uniform(size=(48, 64, 3))
        trunk = features.conv2d(features.conv2d(features.conv2d(image, w.stem0), w.stem1),
                                w.grow)
        branches = (features.conv2d(trunk, w.branch_a),
                    features.conv2d(features.conv2d(trunk, w.branch_b0), w.branch_b1),
                    features.conv2d(features.conv2d(trunk, w.branch_c0), w.branch_c1))
        want = features.conv2d(branches, w.fuse)
        assert_close_to_float64(features.drenet_forward(image, w), want, NETWORK_F32_RTOL)

    def test_rejects_two_channel_input(self):
        w = features.random_drenet_weights(seed=0)
        with pytest.raises(ChannelMismatchError):
            features.drenet_forward(np.zeros((4, 4, 2)), w)


class TestPhotometricFeatures:
    """Fixed descriptor: gray, mean-removed patch, central gradients."""

    def test_constant_image_only_gray(self):
        out = features.photometric_features(np.full((5, 6), 0.25))
        np.testing.assert_array_equal(out[..., 0], 0.25)
        # Edge replication makes patch and gradient channels exactly zero.
        np.testing.assert_array_equal(out[..., 1:], 0.0)

    def test_gray_coefficients(self):
        # Pure red/green/blue pixels weigh 0.299 / 0.587 / 0.114.
        img = np.zeros((1, 3, 3))
        img[0, 0, 0] = 1.0
        img[0, 1, 1] = 1.0
        img[0, 2, 2] = 1.0
        out = features.photometric_features(img)
        np.testing.assert_allclose(out[0, :, 0], [0.299, 0.587, 0.114], atol=1e-15)

    def test_ramp_gradients(self):
        # gray[y, x] = x: interior d/dx = 1, border d/dx = 1/2 under edge
        # replication; d/dy = 0 everywhere.
        gray = np.broadcast_to(np.arange(6.0), (4, 6)).copy()
        out = features.photometric_features(gray)
        np.testing.assert_allclose(out[:, 1:-1, 10], 1.0, atol=1e-14)
        np.testing.assert_allclose(out[:, 0, 10], 0.5, atol=1e-14)
        np.testing.assert_allclose(out[:, -1, 10], 0.5, atol=1e-14)
        np.testing.assert_allclose(out[..., 11], 0.0, atol=1e-14)

    def test_patch_channels_at_center(self):
        # 3x3 image 0..8: the center pixel's neighborhood is the whole
        # image, mean 4, so channels 1..9 hold [-4, -3, ..., 4].
        gray = np.arange(9.0).reshape(3, 3)
        out = features.photometric_features(gray)
        np.testing.assert_allclose(out[1, 1, 1:10], np.arange(9.0) - 4.0, atol=1e-14)

    def test_patch_mean_always_removed(self):
        rng = np.random.default_rng(9)
        out = features.photometric_features(rng.uniform(size=(7, 8)))
        np.testing.assert_allclose(out[..., 1:10].sum(axis=2), 0.0, atol=1e-12)

    def test_padding_channels_zero(self):
        rng = np.random.default_rng(10)
        out = features.photometric_features(rng.uniform(size=(5, 5, 3)))
        assert out.shape == (5, 5, 32)
        np.testing.assert_array_equal(out[..., 12:], 0.0)

    def test_rejects_bad_channel_counts(self):
        with pytest.raises(ChannelMismatchError):
            features.photometric_features(np.zeros((4, 4, 2)))
        with pytest.raises(ChannelMismatchError):
            features.photometric_features(np.zeros((2, 4, 4, 3)))
