"""Recurrent regularization of streamed cost slices.

A five-cell convolutional LSTM arranged as a U (full, half, quarter,
half, full resolution) consumes cost slices one depth at a time and
emits a single-channel score slice per depth.  Recurrence runs along
the depth axis: each cell keeps hidden/cell state from the previous
slice, so context accumulates across hypotheses while only one slice
is ever materialized.  Each cell is one 3x3 convolution over the
channel concatenation ``[x, h]`` whose outputs are its input, forget,
output and candidate gates stacked in that order, and weight containers
store it as that one convolution.  The U runs in float32:
:func:`hu_lstm_step` casts each cost slice to float32 on entry, and
every cell, pooling, upsampling and the score head keep that dtype, so
the carried state is float32 too (the cost volume and the depth
selection stay float64).

Downsampling between cells is 2x2 max pooling with ceil semantics (odd
edges are replicated before pooling); upsampling is a stride-2 3x3
transposed convolution, cropped top-left to the skip connection's size.
It is computed as four sub-pixel phase convolutions on the low-resolution
input, one per output row and column parity, which sum exactly the taps
of a 3x3 convolution over the zero-interleaved map that read input
values, in the same order; the skipped taps would only add exact zeros.
A skip connection joins the upsampled tensor and the same-resolution
downward cell output, upsampled part first: the up cell takes the two as
channel blocks, which its gate convolution writes straight into its
padded buffer, so the joined tensor is never built.

A weight-free :func:`passthrough_regularizer` (negated mean cost) keeps
the rest of the pipeline usable without any training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .costvol import CostSlice
from .errors import SizeMismatchError, WeightGraphMismatchError
from .features import ConvLayerWeights, _gemm, _random_conv, conv2d

__all__ = [
    "HuLstmWeights",
    "ScoreSlice",
    "conv_lstm_cell",
    "hu_lstm_step",
    "max_pool2",
    "passthrough_regularizer",
    "random_hulstm_weights",
    "regularize_stream",
]


@dataclass(eq=False)
class ScoreSlice:
    """Regularized matching score at one swept depth, ``(height, width)``;
    its place in the stream is its depth index."""

    score: np.ndarray


def conv_lstm_cell(x: np.ndarray | Sequence[np.ndarray],
                   state: tuple[np.ndarray, np.ndarray] | None,
                   weights: ConvLayerWeights) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One ConvLSTM update; returns ``(output, (hidden, cell))``.

    ``weights`` is the cell's one gate convolution over ``[x, h]``: its
    ``4 * hidden_ch`` outputs are the input, forget, output and
    candidate gates stacked in that order, so the kernel has shape
    ``(4 * hidden_ch, in_ch + hidden_ch, 3, 3)``.  Input/forget/output
    are sigmoids, the candidate is a tanh; the new cell state is
    ``forget * cell + input * candidate`` and the output is
    ``output_gate * tanh(cell')``.  ``x`` is one
    ``(H, W, C)`` map or a sequence of channel blocks, read as their
    concatenation; the gates convolve the blocks of ``x`` followed by
    the hidden state, with no concatenated copy.  ``state is None``
    starts from zeros: a read-only zero view in the input's dtype stands
    in for both tensors, so none is allocated.  The cell computes in the
    result type of ``x`` and the state (see
    :func:`~mvsweep.features.conv3x3`).
    """
    blocks = (x,) if isinstance(x, np.ndarray) else tuple(x)
    height, width = blocks[0].shape[:2]
    if weights.out_channels % 4:
        raise WeightGraphMismatchError(
            f"gate conv has {weights.out_channels} outputs, not 4 stacked gates")
    hidden_ch = weights.out_channels // 4
    if state is None:
        zero = np.zeros((), np.result_type(*blocks))
        h_prev = c_prev = np.broadcast_to(zero, (height, width, hidden_ch))
    else:
        h_prev, c_prev = state
        want = (height, width, hidden_ch)
        for name, tensor in (("hidden", h_prev), ("cell", c_prev)):
            if tensor.shape != want:
                raise SizeMismatchError(
                    f"{name} state {tensor.shape} does not match input {want}")
    gates = conv2d((*blocks, h_prev), weights)
    # One tanh pass over all four gates: the input, forget and output
    # gates take sigmoid(v) = tanh(v / 2) / 2 + 1/2, the candidate tanh(v).
    scale = np.repeat(np.array([0.5, 1.0], gates.dtype), [3 * hidden_ch, hidden_ch])
    gates *= scale
    np.tanh(gates, out=gates)
    gates *= scale
    gates += np.repeat(np.array([0.5, 0.0], gates.dtype), [3 * hidden_ch, hidden_ch])
    gate_in, gate_forget, gate_out, candidate = np.split(gates, 4, axis=2)
    c_new = gate_forget * c_prev + gate_in * candidate
    h_new = gate_out * np.tanh(c_new)
    return h_new, (h_new, c_new)


def max_pool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with ceil output size (odd edges replicated)."""
    height, width, channels = x.shape
    oh = -(-height // 2)
    ow = -(-width // 2)
    padded = np.pad(x, ((0, 2 * oh - height), (0, 2 * ow - width), (0, 0)), mode="edge")
    return padded.reshape(oh, 2, ow, 2, channels).max(axis=(1, 3))


def _upsample_conv(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                   out_hw: tuple[int, int]) -> np.ndarray:
    """Stride-2 transposed 3x3 convolution cropped to ``out_hw``.

    Equal to a 3x3 convolution of ``x`` zero-stuffed to ``2H x 2W``
    (``x[i, j]`` at ``(2i, 2j)``), computed as four phase convolutions
    on ``x`` itself.  Output row ``2i`` takes tap row 1 on ``x[i]``;
    row ``2i + 1`` takes tap row 0 on ``x[i]`` and tap row 2 on
    ``x[i + 1]``, zero past the edge; columns likewise.  Each tap reads
    a contiguous run of ``x`` zero-padded by one column and two rows
    (the second keeps the last run inside the buffer; see
    :func:`~mvsweep.features.conv3x3`), and the taps accumulate in
    ``ky, kx`` order, so the sums are the stuffed convolution's with
    its all-zero terms left out.  Each tap's product goes through the
    same BLAS call as ``conv3x3``'s (:func:`~mvsweep.features._gemm`),
    in ``x``'s dtype (at least float32), to which the kernel and bias
    are cast.
    """
    height, width, in_ch = x.shape
    out_ch = kernel.shape[0]
    row = width + 1
    dtype = np.result_type(np.float32, x)
    padded = np.zeros((height + 2, row, in_ch), dtype=dtype)
    padded[:height, :width] = x
    flat = padded.reshape(-1, in_ch)
    span = height * row
    # (i, output row parity, j, output column parity, channel)
    out = np.zeros((height, 2, row, 2, out_ch), dtype=dtype)
    taps = np.ascontiguousarray(kernel.transpose(2, 3, 1, 0), dtype=dtype)
    for ky in range(3):
        for kx in range(3):
            start = (ky // 2) * row + kx // 2
            tap = _gemm(flat[start:start + span], taps[ky, kx])
            out[:, 1 - ky % 2, :, 1 - kx % 2] += tap.reshape(height, row, out_ch)
    out = out.reshape(2 * height, 2 * row, out_ch)
    return out[:out_hw[0], :out_hw[1]] + bias.astype(dtype, copy=False)


HIDDEN_CH = 32
# Layer graph in container order: (name, in_ch, out_ch).  A cell is one
# gate conv over [x, h], so it reads its input plus the hidden channels
# and writes the four stacked gates; cells 3 and 4 read [upsampled
# deeper output, skip from the downward pass].  The first cell's input
# width is free (None): the features' width plus the hidden width.
_HU_LAYERS = (
    ("cell_full_down", None, 4 * HIDDEN_CH),
    ("cell_half_down", 2 * HIDDEN_CH, 4 * HIDDEN_CH),
    ("cell_quarter", 2 * HIDDEN_CH, 4 * HIDDEN_CH),
    ("cell_half_up", 3 * HIDDEN_CH, 4 * HIDDEN_CH),
    ("cell_full_up", 3 * HIDDEN_CH, 4 * HIDDEN_CH),
    ("up_mid", HIDDEN_CH, HIDDEN_CH),
    ("up_full", HIDDEN_CH, HIDDEN_CH),
    ("head", HIDDEN_CH, 1),
)


@dataclass(eq=False)
class HuLstmWeights:
    """Parameters of the U-shaped recurrent regularizer."""

    cells: tuple[ConvLayerWeights, ...]
    up_mid: ConvLayerWeights
    up_full: ConvLayerWeights
    head: ConvLayerWeights

    def __post_init__(self) -> None:
        """Reject weights whose shapes do not fit the fixed graph."""
        layers = (*self.cells, self.up_mid, self.up_full, self.head)
        if len(layers) != len(_HU_LAYERS):
            # The three rows after the cells are the named fields.
            raise WeightGraphMismatchError(
                f"expected {len(_HU_LAYERS) - 3} cells, got {len(self.cells)}")
        # The input width is free, so it is read from the first cell's
        # kernel, whose rank must be checked before that read.
        if self.cells[0].kernel.ndim != 4:
            raise WeightGraphMismatchError(
                f"cell_full_down: kernel {self.cells[0].kernel.shape}, expected 4-d")
        for layer, (name, in_ch, out_ch) in zip(layers, _HU_LAYERS):
            layer.check(name, layer.in_channels if in_ch is None else in_ch, out_ch)

    def to_tensors(self) -> dict[str, np.ndarray]:
        layers = (*self.cells, self.up_mid, self.up_full, self.head)
        return {f"{name}.{part}": getattr(layer, part)
                for layer, (name, *_) in zip(layers, _HU_LAYERS) for part in ("kernel", "bias")}

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "HuLstmWeights":
        try:
            *cells, up_mid, up_full, head = (
                ConvLayerWeights(tensors[f"{name}.kernel"], tensors[f"{name}.bias"])
                for name, *_ in _HU_LAYERS)
        except KeyError as exc:
            raise WeightGraphMismatchError(f"missing tensor {exc.args[0]}") from exc
        return cls(tuple(cells), up_mid, up_full, head)


def random_hulstm_weights(seed: int = 0, in_channels: int = 32) -> HuLstmWeights:
    """Seeded untrained weights; useful for shape and plumbing tests."""
    rng = np.random.default_rng(seed)
    *cells, up_mid, up_full, head = (
        _random_conv(rng, in_channels + HIDDEN_CH if in_ch is None else in_ch, out_ch)
        for _, in_ch, out_ch in _HU_LAYERS)
    return HuLstmWeights(tuple(cells), up_mid, up_full, head)


def hu_lstm_step(cost_slice: CostSlice, state: Sequence[tuple[np.ndarray, np.ndarray]] | None,
                 weights: HuLstmWeights) -> tuple[ScoreSlice, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Advance the recurrent U by one depth slice.

    ``state`` holds the five cells' ``(hidden, cell)`` pairs in cell
    order; ``None`` starts all cells from zeros.  Returns the score
    slice for this depth and the state to carry to the next one, both
    float32: the cost is cast to float32 here.
    """
    x = np.asarray(cost_slice.cost, dtype=np.float32)
    prev = (None,) * len(weights.cells) if state is None else state

    h0, s0 = conv_lstm_cell(x, prev[0], weights.cells[0])
    h1, s1 = conv_lstm_cell(max_pool2(h0), prev[1], weights.cells[1])
    h2, s2 = conv_lstm_cell(max_pool2(h1), prev[2], weights.cells[2])
    u2 = _upsample_conv(h2, weights.up_mid.kernel, weights.up_mid.bias, h1.shape[:2])
    h3, s3 = conv_lstm_cell((u2, h1), prev[3], weights.cells[3])
    u3 = _upsample_conv(h3, weights.up_full.kernel, weights.up_full.bias, h0.shape[:2])
    h4, s4 = conv_lstm_cell((u3, h0), prev[4], weights.cells[4])
    score = conv2d(h4, weights.head)[:, :, 0]
    return ScoreSlice(score=score), (s0, s1, s2, s3, s4)


def regularize_stream(slices: Iterable[CostSlice],
                      weights: HuLstmWeights) -> Iterator[ScoreSlice]:
    """Map a cost-slice stream to a score-slice stream, threading state.

    Each cost slice is released before its score is yielded, so the next
    slice is built while no earlier one is alive.
    """
    state = None
    for cost_slice in slices:
        score, state = hu_lstm_step(cost_slice, state, weights)
        del cost_slice
        yield score


def passthrough_regularizer(slices: Iterable[CostSlice]) -> Iterator[ScoreSlice]:
    """Weight-free fallback: score is the negated channel-mean cost.

    Low variance means high photo-consistency, so negation makes larger
    scores better, matching the learned head's orientation.  As in
    :func:`regularize_stream`, each cost slice is released before its
    score is yielded.
    """
    for cost_slice in slices:
        score = ScoreSlice(score=-cost_slice.cost.mean(axis=2))
        del cost_slice
        yield score
