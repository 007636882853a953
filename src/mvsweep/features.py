"""Dense per-pixel feature extraction.

Two extractors share one output contract, a ``(height, width, 32)``
feature map at input resolution:

* :func:`drenet_forward`, a learned dilated-convolution network whose
  parallel branches mix receptive-field sizes without downsampling, and
* :func:`photometric_features`, a fixed hand-built descriptor (grayscale,
  mean-removed 3x3 patch, image gradients) that needs no weights and is
  used by the self-contained pipeline.

All convolutions are 3x3, stride 1, zero-padded by their dilation so the
spatial size never changes.  Arrays are ``(height, width, channels)``;
kernels are ``(out_ch, in_ch, 3, 3)`` cross-correlation taps.  A
convolution computes in its input's dtype, float32 or float64: the
padded buffer, the packed taps and the accumulator take it, and the
weights (stored float64) are cast to it at use.  DRENet casts its image
to float32 once on entry, so the whole network runs in float32; the
photometric descriptor stays float64.

A convolution is nine matrix products, one per tap, summed in place in
one accumulator: each tap is one BLAS ``gemm`` (``sgemm`` for float32,
``dgemm`` for float64) that adds its product into the accumulator
(``beta = 1``), so no per-tap product is stored and read back.  On a
64x48, 64-to-128-channel gate convolution (2-core x86-64) that took a
float64 call from 20-21 ms to 9-11 ms.

Every large convolution product in the package (here and in the
regularizer's upsampling) goes through :func:`_gemm`, and so through
scipy's BLAS only.  numpy and scipy load separate OpenBLAS builds, each
with its own thread pool, and two pools that take turns on the same
cores can spin against each other: with ``conv3x3`` on scipy's BLAS and
the upsampling on numpy's, a 64x48 HU-LSTM step was once measured at
129-137 ms against 82 ms on one library, though on another 2-core
machine the split ran as fast as one library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.blas import dgemm, sgemm

from .errors import ChannelMismatchError, SizeMismatchError, WeightGraphMismatchError

__all__ = [
    "ConvLayerWeights",
    "DrenetWeights",
    "conv2d",
    "conv3x3",
    "drenet_forward",
    "group_norm_relu",
    "photometric_features",
    "random_drenet_weights",
]

GN_EPS = 1e-5
GROUP_SIZE = 8  # channels per group-norm group


def _gemm(a: np.ndarray, b: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, or ``acc + a @ b`` written into ``acc`` and returned.

    All three arrays are C-contiguous and share one dtype, so
    column-major BLAS (``sgemm`` for float32, ``dgemm`` for float64) sees
    their F-contiguous transposes (``acc.T = b.T @ a.T``, ``beta = 1`` to
    add) and f2py copies nothing.  Callers carry on the returned array,
    not ``acc``, so even a copy made by f2py could not drop a term.  A
    one-column ``b`` (a score head) keeps numpy's matrix-vector product,
    from which ``dgemm`` differs in the last bit.
    """
    if b.shape[1] == 1:
        product = a @ b
        if acc is None:
            return product
        acc += product
        return acc
    gemm = sgemm if a.dtype == np.float32 else dgemm
    first = acc is None
    return gemm(1.0, b.T, a.T, beta=0.0 if first else 1.0,
                c=None if first else acc.T, overwrite_c=True).T


def conv3x3(x: np.ndarray | Sequence[np.ndarray], kernel: np.ndarray,
            bias: np.ndarray | None = None, dilation: int = 1) -> np.ndarray:
    """Same-size 3x3 cross-correlation with zero padding of ``dilation``.

    ``out[y, x, o] = bias[o] + sum_{ky,kx,c} kernel[o, c, ky, kx] *
    x[y + (ky-1)*dilation, x + (kx-1)*dilation, c]`` with out-of-image
    taps reading zero.  ``x`` is one ``(H, W, C)`` map or a sequence of
    maps that share ``(H, W)``, read as their channel concatenation in
    order; each block is written straight into the padded buffer, so a
    caller never concatenates to feed a convolution.  The result has the
    blocks' result type, at least float32; the kernel and bias are cast
    to it.

    Every tap is read in place.  The input is zero-padded into one
    ``(H + 2d + 1, W + 2d, C)`` buffer whose padded row length is
    ``W + 2d``.  Flattened to ``((H + 2d + 1)(W + 2d), C)``, tap
    ``(ky, kx)`` over all output rows is the contiguous run of
    ``H * (W + 2d)`` pixels that starts at ``ky*d*(W + 2d) + kx*d``, so
    it multiplies the tap's kernel with no copy.  Each run also yields
    ``2d`` junk columns per row, which wrap into the next row's padding
    and are dropped at the end; the extra padded row keeps the last
    run inside the buffer.  The taps accumulate in ``ky, kx`` order in
    place through :func:`_gemm`.  Unless BLAS splits the channel axis
    into blocks, which it does not at the widths the networks use (the
    layer shapes are pinned bit for bit by the tests), it forms each
    tap's dot products whole and then adds them to the accumulator, one
    rounding per element: the same sums as a stored product added with
    ``+=``.  The bias is added in place, and the result is the
    accumulator without its junk columns (a view, not contiguous).
    """
    blocks = (x,) if isinstance(x, np.ndarray) else tuple(x)
    height, width = blocks[0].shape[:2]
    if any(block.shape[:2] != (height, width) for block in blocks):
        raise SizeMismatchError(
            f"channel blocks {[block.shape for block in blocks]} differ in size")
    in_ch = sum(block.shape[2] for block in blocks)
    out_ch = kernel.shape[0]
    if kernel.shape != (out_ch, in_ch, 3, 3):
        raise ChannelMismatchError(
            f"kernel {kernel.shape} does not accept {in_ch}-channel input")
    d = dilation
    row = width + 2 * d
    dtype = np.result_type(np.float32, *blocks)
    padded = np.zeros((height + 2 * d + 1, row, in_ch), dtype=dtype)
    col = 0
    for block in blocks:
        padded[d:d + height, d:d + width, col:col + block.shape[2]] = block
        col += block.shape[2]
    flat = padded.reshape(-1, in_ch)
    span = height * row
    # (ky, kx, in, out), packed per call so that a kernel changed in
    # place between calls is read afresh.
    taps = np.ascontiguousarray(kernel.transpose(2, 3, 1, 0), dtype=dtype)
    acc = None
    for ky in range(3):
        for kx in range(3):
            start = ky * d * row + kx * d
            acc = _gemm(flat[start:start + span], taps[ky, kx], acc)
    out = acc.reshape(height, row, out_ch)[:, :width]
    if bias is not None:
        out += bias.astype(dtype, copy=False)
    return out


def group_norm_relu(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                    groups: int, eps: float = GN_EPS) -> np.ndarray:
    """Group normalization over (H, W, group channels), then ReLU.

    Statistics are computed per group across all pixels of this single
    map; there is no batch dimension and no running average.
    """
    height, width, channels = x.shape
    if channels % groups != 0:
        raise ChannelMismatchError(f"{groups} groups do not divide {channels} channels")
    g = x.reshape(height, width, groups, channels // groups)
    mean = g.mean(axis=(0, 1, 3), keepdims=True)
    var = g.var(axis=(0, 1, 3), keepdims=True)
    normed = ((g - mean) / np.sqrt(var + eps)).reshape(height, width, channels)
    return np.maximum(normed * scale.astype(x.dtype, copy=False)
                      + shift.astype(x.dtype, copy=False), 0.0)


@dataclass(eq=False)
class ConvLayerWeights:
    """One 3x3 convolution, optionally followed by group norm + ReLU.

    ``gn_scale is None`` marks a bare convolution (used for network
    heads); otherwise the layer applies :func:`group_norm_relu` with one
    group per ``GROUP_SIZE`` output channels after the convolution.
    """

    kernel: np.ndarray
    bias: np.ndarray
    dilation: int = 1
    gn_scale: np.ndarray | None = None
    gn_shift: np.ndarray | None = None

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    def check(self, name: str, in_ch: int, out_ch: int, dilation: int = 1) -> None:
        if self.kernel.shape != (out_ch, in_ch, 3, 3):
            raise WeightGraphMismatchError(
                f"{name}: kernel {self.kernel.shape}, expected {(out_ch, in_ch, 3, 3)}")
        if self.bias.shape != (out_ch,):
            raise WeightGraphMismatchError(f"{name}: bias {self.bias.shape}")
        if self.dilation != dilation:
            raise WeightGraphMismatchError(
                f"{name}: dilation {self.dilation}, expected {dilation}")
        if self.gn_scale is not None and not (
                self.gn_scale.shape == self.gn_shift.shape == (out_ch,)):
            raise WeightGraphMismatchError(f"{name}: group-norm parameter shapes")


def conv2d(x: np.ndarray | Sequence[np.ndarray], layer: ConvLayerWeights) -> np.ndarray:
    """Apply one :class:`ConvLayerWeights` (conv, then optional GN+ReLU).

    ``x`` is one map or a sequence of channel blocks, as for :func:`conv3x3`.
    """
    out = conv3x3(x, layer.kernel, layer.bias, layer.dilation)
    if layer.gn_scale is not None:
        groups = max(layer.out_channels // GROUP_SIZE, 1)
        out = group_norm_relu(out, layer.gn_scale, layer.gn_shift, groups)
    return out


def _random_conv(rng: np.random.Generator, in_ch: int, out_ch: int,
                 dilation: int = 1, gn: bool = False) -> ConvLayerWeights:
    """Seeded untrained conv: a kernel uniform in ``±1/sqrt(9 in_ch)``,
    zero bias and, with ``gn``, an identity group norm.

    The kernel is rounded through float32 so container round trips are
    lossless.
    """
    bound = 1.0 / np.sqrt(in_ch * 9)
    kernel = rng.uniform(-bound, bound, (out_ch, in_ch, 3, 3))
    kernel = kernel.astype(np.float32).astype(np.float64)
    norm = (np.ones(out_ch), np.zeros(out_ch)) if gn else (None, None)
    return ConvLayerWeights(kernel, np.zeros(out_ch), dilation, *norm)


# Layer graph: (name, in_ch, out_ch, dilation).  Data flow:
# the stem chains, then three branches read the shared 32-channel trunk
# at dilations 1/3/4, and the head fuses their concatenation.  The
# stem's input width is free (None): the image's channel count.
_DRENET_LAYERS = (
    ("stem0", None, 16, 1),
    ("stem1", 16, 16, 1),
    ("grow", 16, 32, 2),
    ("branch_a", 32, 32, 1),
    ("branch_b0", 32, 32, 3),
    ("branch_b1", 32, 32, 1),
    ("branch_c0", 32, 32, 4),
    ("branch_c1", 32, 32, 1),
    ("fuse", 96, 32, 1),
)
# Container tensors of each layer, named ``<layer>.<part>``.
_DRENET_PARTS = ("kernel", "bias", "gn_scale", "gn_shift")


@dataclass(eq=False)
class DrenetWeights:
    """Parameters of the dilated feature network, one field per layer."""

    stem0: ConvLayerWeights
    stem1: ConvLayerWeights
    grow: ConvLayerWeights
    branch_a: ConvLayerWeights
    branch_b0: ConvLayerWeights
    branch_b1: ConvLayerWeights
    branch_c0: ConvLayerWeights
    branch_c1: ConvLayerWeights
    fuse: ConvLayerWeights

    def __post_init__(self) -> None:
        """Reject weights whose shapes do not fit the fixed graph."""
        # The stem's input width is free, so it is read from the kernel,
        # whose rank must be checked before that read.
        if self.stem0.kernel.ndim != 4:
            raise WeightGraphMismatchError(
                f"stem0: kernel {self.stem0.kernel.shape}, expected 4-d")
        for name, in_ch, out_ch, dilation in _DRENET_LAYERS:
            layer = getattr(self, name)
            layer.check(name, layer.in_channels if in_ch is None else in_ch, out_ch, dilation)

    def to_tensors(self) -> dict[str, np.ndarray]:
        return {f"{name}.{part}": getattr(getattr(self, name), part)
                for name, *_ in _DRENET_LAYERS for part in _DRENET_PARTS}

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "DrenetWeights":
        try:
            return cls(**{
                name: ConvLayerWeights(dilation=dilation, **{
                    part: tensors[f"{name}.{part}"] for part in _DRENET_PARTS})
                for name, _, _, dilation in _DRENET_LAYERS})
        except KeyError as exc:
            raise WeightGraphMismatchError(f"missing tensor {exc.args[0]}") from exc


def random_drenet_weights(seed: int = 0, in_channels: int = 3) -> DrenetWeights:
    """Seeded untrained weights; useful for shape and plumbing tests."""
    rng = np.random.default_rng(seed)
    return DrenetWeights(**{
        name: _random_conv(rng, in_channels if in_ch is None else in_ch, out_ch, dilation, gn=True)
        for name, in_ch, out_ch, dilation in _DRENET_LAYERS})


def drenet_forward(image: np.ndarray, weights: DrenetWeights) -> np.ndarray:
    """Run the dilated feature network on one image.

    ``image`` is ``(height, width)`` or ``(height, width, channels)``
    with values in [0, 1]; a single-channel input is replicated to the
    channel count the stem expects.  The image is cast to float32 here,
    and every layer runs in float32.  Output is ``(height, width, 32)``
    float32 at the input resolution.
    """
    if image.ndim == 2:
        image = image[:, :, None]
    want = weights.stem0.in_channels
    if image.shape[2] == 1 and want > 1:
        image = np.repeat(image, want, axis=2)
    if image.shape[2] != want:
        raise ChannelMismatchError(
            f"image has {image.shape[2]} channels, stem expects {want}")
    x = np.asarray(image, dtype=np.float32)
    x = conv2d(x, weights.stem0)
    x = conv2d(x, weights.stem1)
    trunk = conv2d(x, weights.grow)
    a = conv2d(trunk, weights.branch_a)
    b = conv2d(conv2d(trunk, weights.branch_b0), weights.branch_b1)
    c = conv2d(conv2d(trunk, weights.branch_c0), weights.branch_c1)
    return conv2d((a, b, c), weights.fuse)


_GRAY = np.array([0.299, 0.587, 0.114])


def photometric_features(image: np.ndarray) -> np.ndarray:
    """Fixed 32-channel descriptor, no learned weights.

    Channel layout: [0] grayscale; [1:10] the 3x3 neighborhood of each
    pixel minus its own mean (row-major offsets, edge-replicated at the
    border, so constant images yield exact zeros); [10] and [11] central
    x/y gradients; the rest zero padding up to the common width.
    """
    if image.ndim == 3:
        if image.shape[2] == 3:
            gray = np.asarray(image, dtype=np.float64) @ _GRAY
        elif image.shape[2] == 1:
            gray = np.asarray(image[:, :, 0], dtype=np.float64)
        else:
            raise ChannelMismatchError(f"expected 1 or 3 channels, got {image.shape[2]}")
    elif image.ndim == 2:
        gray = np.asarray(image, dtype=np.float64)
    else:
        raise ChannelMismatchError(f"expected 2-d or 3-d image, got shape {image.shape}")
    height, width = gray.shape
    out = np.zeros((height, width, 32), dtype=np.float64)
    out[:, :, 0] = gray
    padded = np.pad(gray, 1, mode="edge")
    patch = np.empty((height, width, 9), dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            patch[:, :, dy * 3 + dx] = padded[dy:dy + height, dx:dx + width]
    out[:, :, 1:10] = patch - patch.mean(axis=2, keepdims=True)
    out[:, :, 10] = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    out[:, :, 11] = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    return out
