"""Recurrent cost regularization in constant memory.

The hourglass ConvLSTM consumes cost slices one hypothesis at a time
and emits score slices of the same shape, threading its state from
slice to slice. Because nothing ever holds the whole volume, peak memory
is independent of the depth count. This demo runs the same spatial size
at D=16 and D=256 and prints the peak bytes traced by tracemalloc.

Run:  python3 demos/03_streaming_regularizer.py
"""

import tracemalloc

import numpy as np

from mvsweep import costvol, regularizer

HEIGHT, WIDTH, CHANNELS = 12, 16, 32


def sweep(depth_count: int, weights: regularizer.HuLstmWeights) -> tuple[int, float]:
    """Run one full sweep; return (peak traced bytes, mean |score|)."""
    rng = np.random.default_rng(5)

    def cost_slices():
        for _ in range(depth_count):
            yield costvol.CostSlice(
                cost=np.abs(rng.standard_normal((HEIGHT, WIDTH, CHANNELS))),
                valid_views=np.full((HEIGHT, WIDTH), 4))

    total = 0.0
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for score in regularizer.regularize_stream(cost_slices(), weights):
            total += float(np.abs(score.score).mean())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, total / depth_count


def main() -> None:
    print("== One ConvLSTM cell, by hand ==")
    cell = regularizer.random_hulstm_weights(seed=0, in_channels=32).cells[0]
    rng = np.random.default_rng(1)
    x = rng.standard_normal((HEIGHT, WIDTH, CHANNELS))
    h1, state = regularizer.conv_lstm_cell(x, None, cell)
    h2, state = regularizer.conv_lstm_cell(x, state, cell)
    print(f"hidden range after step 1: [{h1.min():+.3f}, {h1.max():+.3f}]")
    print(f"hidden range after step 2: [{h2.min():+.3f}, {h2.max():+.3f}]")
    print("sigmoid-gated tanh keeps every hidden value inside [-1, 1]")

    print()
    print("== Full hourglass over a hypothesis stream ==")
    weights = regularizer.random_hulstm_weights(seed=0, in_channels=CHANNELS)
    sweep(1, weights)  # warms up allocator and BLAS buffers outside the measurement
    peaks = {}
    for depth_count in (16, 256):
        peak, mean_score = sweep(depth_count, weights)
        peaks[depth_count] = peak
        print(f"D={depth_count:3d}: peak traced memory = {peak / 1e3:7.1f} kB, "
              f"mean |score| = {mean_score:.3f}")
    slice_bytes = HEIGHT * WIDTH * CHANNELS * 8
    growth = peaks[256] - peaks[16]
    # Keeping the 240 extra cost slices alone would add 240 slices' bytes.
    assert growth < 10 * slice_bytes, "streaming must not accumulate slices"
    print()
    print(f"16x more hypotheses, peak grows {growth / 1e3:.1f} kB; one cost slice is "
          f"{slice_bytes / 1e3:.1f} kB: memory is")
    print("bounded by the spatial size, not the depth resolution.")


if __name__ == "__main__":
    main()
