"""The mvsweep functions the traced run wraps, and its per-layer metrics.

Each layer is a module of the package.  Functions are wrapped where the
caller looks them up: ``costvol`` imported ``warp_grid`` by name, so the
sweep's warps are caught at ``costvol.warp_grid``; ``fusion`` imported
``reproject_chain_map`` by name, and ``geometry.reproject_map`` calls it
as a global, so both attributes are patched to one wrapper and every
reprojection is counted once.
"""

from __future__ import annotations

import contextlib
import os
import tracemalloc

import numpy as np

from mvsweep import (costvol, estimator, features, formats, fusion, geometry,
                     metrics, regularizer, synth)

from tracer import Tracer

# The CLI's default confidence gate; reported even where a workload
# fuses with another, so the share it would pass stays comparable.
DEFAULT_PHI = fusion.FusionParams().phi

READERS = ("read_cam", "read_pfm", "read_image", "read_ply", "load_tensors")
WRITERS = ("write_cam", "write_pfm", "write_image", "write_ply", "save_tensors")

# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "geometry.warp_grid.calls": ("count", "lower"),
    "geometry.warp_grid.busy_s": ("s", "lower"),
    "geometry.reproject.calls": ("count", "lower"),
    "geometry.reproject.pixels": ("count", "lower"),
    "geometry.reproject.busy_s": ("s", "lower"),
    "features.calls": ("count", "lower"),
    "features.busy_s": ("s", "lower"),
    "costvol.slices": ("count", "lower"),
    "costvol.busy_s": ("s", "lower"),
    "costvol.bilinear_sample.calls": ("count", "lower"),
    "costvol.bilinear_sample.busy_s": ("s", "lower"),
    "costvol.bilinear_sample.bytes_computed": ("B", "lower"),
    "costvol.valid_view_frac": ("frac", "higher"),
    "costvol.stream_peak_bytes": ("B", "lower"),
    "regularizer.slices": ("count", "lower"),
    "regularizer.busy_s": ("s", "lower"),
    "regularizer.cell.calls": ("count", "lower"),
    "regularizer.cell.busy_s": ("s", "lower"),
    "estimator.slices": ("count", "lower"),
    "estimator.busy_s": ("s", "lower"),
    "estimator.conf_p50": ("frac", "higher"),
    "estimator.conf_ge_phi_frac": ("frac", "higher"),
    "fusion.filter.busy_s": ("s", "lower"),
    "fusion.fuse.busy_s": ("s", "lower"),
    "fusion.kept_frac": ("frac", "higher"),
    "fusion.points": ("count", "higher"),
    "metrics.nearest_distance.calls": ("count", "lower"),
    "metrics.nearest_distance.query_points": ("count", "lower"),
    "metrics.nearest_distance.busy_s": ("s", "lower"),
    "formats.read.calls": ("count", "lower"),
    "formats.read.bytes": ("B", "lower"),
    "formats.read.busy_s": ("s", "lower"),
    "formats.write.calls": ("count", "lower"),
    "formats.write.bytes": ("B", "lower"),
    "formats.write.busy_s": ("s", "lower"),
    "synth.render.busy_s": ("s", "lower"),
}


class Layers:
    """Installs the wrappers on a tracer and turns its spans into metrics."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.confidence: dict[int, list[np.ndarray]] = {}
        self._views: dict[tuple[int, str], int] = {}

    def _next_view(self, layer: str) -> int:
        """Views are processed in index order, one call per view."""
        key = (self.tracer.run, layer)
        self._views[key] = self._views.get(key, -1) + 1
        return self._views[key]

    def install(self) -> None:
        t = self.tracer
        t.patch(costvol, "warp_grid", t.wrap(costvol.warp_grid, "geometry.warp_grid"))
        t.patch(costvol, "bilinear_sample", t.wrap(
            costvol.bilinear_sample, "costvol.bilinear_sample", after=_sampled))
        t.patch(costvol, "cost_volume_stream", t.wrap_stream(
            costvol.cost_volume_stream, "costvol", after=_cost_slice))

        reproject = t.wrap(geometry.reproject_chain_map, "geometry.reproject",
                           after=_reprojected)
        t.patch(geometry, "reproject_chain_map", reproject)
        t.patch(fusion, "reproject_chain_map", reproject)

        for attr in ("photometric_features", "drenet_forward"):
            t.patch(features, attr, t.wrap(getattr(features, attr), "features"))

        for attr in ("passthrough_regularizer", "regularize_stream"):
            t.patch(regularizer, attr, t.wrap_stream(
                getattr(regularizer, attr), "regularizer", after=_one_slice))
        t.patch(regularizer, "conv_lstm_cell",
                t.wrap(regularizer.conv_lstm_cell, "regularizer.cell"))
        t.patch(estimator, "online_softmax_wta",
                self._traced_wta(estimator.online_softmax_wta))

        for attr in ("dynamic_filter", "fixed_threshold_filter"):
            t.patch(fusion, attr, self._traced_filter(getattr(fusion, attr)))
        t.patch(fusion, "fuse_point_cloud", t.wrap(
            fusion.fuse_point_cloud, "fusion.fuse", after=_fused))

        t.patch(metrics, "nearest_distance", t.wrap(
            metrics.nearest_distance, "metrics.nearest_distance", after=_queried))

        for attr in READERS:
            t.patch(formats, attr, t.wrap(getattr(formats, attr), "formats.read",
                                          after=_file_bytes))
        for attr in WRITERS:
            t.patch(formats, attr, t.wrap(getattr(formats, attr), "formats.write",
                                          after=_file_bytes))
        t.patch(synth, "render_scene", t.wrap(synth.render_scene, "synth.render"))

    def _traced_wta(self, wta):
        """Estimator span; view 0 also records its tracemalloc peak.

        The whole sweep runs inside this call (slices are pulled lazily),
        so the peak is the memory the streamed volume needs.  Allocation
        tracing slows the sweep it watches, so it watches one view only.
        """
        def traced(slices, space, *args, **kwargs):
            view = self._next_view("estimator")
            memory = _peak_bytes() if view == 0 else contextlib.nullcontext({})
            with memory as peak, self.tracer.span("estimator", view=view) as sp:
                depth, confidence = wta(slices, space, *args, **kwargs)
            sp.counts.update(peak, slices=space.count)
            self.confidence.setdefault(self.tracer.run, []).append(confidence.ravel())
            return depth, confidence
        return traced

    def _traced_filter(self, filt):
        def traced(ref, srcs, *args, **kwargs):
            with self.tracer.span("fusion.filter", view=self._next_view("filter")) as sp:
                out = filt(ref, srcs, *args, **kwargs)
            sp.counts.update(kept=out.depth.valid_count, pixels=out.depth.data.size)
            return out
        return traced

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass; busy times are self times."""
        tot = self.tracer.totals(run)

        def get(name, key):
            return tot.get(name, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        conf = self.confidence.get(run, [])
        conf = np.concatenate(conf) if conf else np.zeros(0)
        return {
            "geometry.warp_grid.calls": get("geometry.warp_grid", "calls"),
            "geometry.warp_grid.busy_s": get("geometry.warp_grid", "self_s"),
            "geometry.reproject.calls": get("geometry.reproject", "calls"),
            "geometry.reproject.pixels": get("geometry.reproject", "pixels"),
            "geometry.reproject.busy_s": get("geometry.reproject", "self_s"),
            "features.calls": get("features", "calls"),
            "features.busy_s": get("features", "self_s"),
            "costvol.slices": get("costvol", "slices"),
            "costvol.busy_s": get("costvol", "self_s"),
            "costvol.bilinear_sample.calls": get("costvol.bilinear_sample", "calls"),
            "costvol.bilinear_sample.busy_s": get("costvol.bilinear_sample", "self_s"),
            "costvol.bilinear_sample.bytes_computed":
                get("costvol.bilinear_sample", "bytes"),
            "costvol.valid_view_frac": ratio(get("costvol", "samples_valid"),
                                             get("costvol", "samples")),
            "costvol.stream_peak_bytes": get("estimator", "stream_peak_bytes"),
            "regularizer.slices": get("regularizer", "slices"),
            "regularizer.busy_s": get("regularizer", "self_s"),
            "regularizer.cell.calls": get("regularizer.cell", "calls"),
            "regularizer.cell.busy_s": get("regularizer.cell", "self_s"),
            "estimator.slices": get("estimator", "slices"),
            "estimator.busy_s": get("estimator", "self_s"),
            "estimator.conf_p50": float(np.median(conf)) if conf.size else 0.0,
            "estimator.conf_ge_phi_frac": float(np.mean(conf >= DEFAULT_PHI))
                                          if conf.size else 0.0,
            "fusion.filter.busy_s": get("fusion.filter", "self_s"),
            "fusion.fuse.busy_s": get("fusion.fuse", "self_s"),
            "fusion.kept_frac": ratio(get("fusion.filter", "kept"),
                                      get("fusion.filter", "pixels")),
            "fusion.points": get("fusion.fuse", "points"),
            "metrics.nearest_distance.calls": get("metrics.nearest_distance", "calls"),
            "metrics.nearest_distance.query_points":
                get("metrics.nearest_distance", "query_points"),
            "metrics.nearest_distance.busy_s": get("metrics.nearest_distance", "self_s"),
            "formats.read.calls": get("formats.read", "calls"),
            "formats.read.bytes": get("formats.read", "bytes"),
            "formats.read.busy_s": get("formats.read", "self_s"),
            "formats.write.calls": get("formats.write", "calls"),
            "formats.write.bytes": get("formats.write", "bytes"),
            "formats.write.busy_s": get("formats.write", "self_s"),
            "synth.render.busy_s": get("synth.render", "self_s"),
        }


@contextlib.contextmanager
def _peak_bytes():
    """Yield a dict that holds ``stream_peak_bytes`` once the block ends."""
    peak = {}
    tracemalloc.start()
    try:
        yield peak
        peak["stream_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sampled(sp, result, values, coords):
    sp.counts["bytes"] = result[0].nbytes


def _cost_slice(sp, item, ref_feat, src_feats, *args, **kwargs):
    pixels = item.valid_views.size
    sp.counts.update(
        slices=1,
        samples=pixels * len(src_feats),
        samples_valid=int(item.valid_views.sum()) - pixels)


def _one_slice(sp, item, *args, **kwargs):
    sp.counts["slices"] = 1


def _reprojected(sp, result, ref, src, xs, ys, depths, src_depth):
    sp.counts["pixels"] = np.broadcast(xs, ys, depths).size


def _fused(sp, cloud, *args, **kwargs):
    sp.counts["points"] = len(cloud)


def _queried(sp, result, query, *args, **kwargs):
    sp.counts["query_points"] = len(query)


def _file_bytes(sp, result, path, *args, **kwargs):
    sp.counts["bytes"] = os.path.getsize(path)
