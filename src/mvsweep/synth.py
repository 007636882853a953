"""Synthetic scenes with exact geometry for oracle-grade testing.

Everything here is analytic: cameras on a ring all aimed at one look-at
point, a plane or sphere surface intersected in closed form, and a
procedural value-noise texture evaluated at the 3-d hit point.  Because
the texture lives on the surface (not in any image), every rendered
view is exactly photo-consistent, and ground-truth depth maps follow
from the ray intersection with no sampling error.

:class:`AnalyticDepth` exposes the same lookup interface as
:class:`~mvsweep.depthmap.DepthMap` but evaluates the true surface depth
at continuous coordinates, which makes reprojection round trips exact
up to floating-point roundoff; stored ground-truth maps quantize to the
pixel grid and are accurate only to the local depth variation.

The noise lattice uses fixed-width unsigned integer hashing only, so
identical seeds produce bit-identical scenes on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .depthmap import DepthMap
from .errors import InvalidArgumentError, NoIntersectionError
from .geometry import Camera, back_project_grid
from .fusion import ViewEstimate

__all__ = [
    "AnalyticDepth",
    "CameraRigSpec",
    "Plane",
    "SceneSpec",
    "Sphere",
    "make_camera_ring",
    "perturb_depths",
    "render_scene",
    "render_view_estimates",
    "value_noise",
]


# ---------------------------------------------------------------------------
# Procedural texture


def _hash_lattice(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray,
                  seed: int) -> np.ndarray:
    """Deterministic [0, 1) value per integer lattice point."""
    seed_mix = np.uint32((seed * 0x9E3779B9) & 0xFFFFFFFF)
    h = (ix.astype(np.uint32) * np.uint32(0x8DA6B343)
         ^ iy.astype(np.uint32) * np.uint32(0xD8163841)
         ^ iz.astype(np.uint32) * np.uint32(0xCB1AB31F)
         ^ seed_mix)
    h ^= h >> np.uint32(13)
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(16)
    return h.astype(np.float64) / 4294967296.0


def value_noise(points: np.ndarray, seed: int = 0, scale: float = 25.0,
                octaves: int = 2) -> np.ndarray:
    """Smooth [0, 1] noise over 3-d points, trilinear with smoothstep.

    ``scale`` is the base lattice cell size in world units; each octave
    halves the cell and the amplitude.  Identical inputs give identical
    outputs across platforms (integer-hash lattice).
    """
    pts = np.asarray(points, dtype=np.float64)
    total = np.zeros(pts.shape[:-1], dtype=np.float64)
    norm = 0.0
    amp = 1.0
    cell = float(scale)
    for octave in range(octaves):
        p = pts / cell
        base = np.floor(p)
        frac = p - base
        t = frac * frac * (3.0 - 2.0 * frac)
        base_i = base.astype(np.int64)
        corner = {}
        for cx in (0, 1):
            for cy in (0, 1):
                for cz in (0, 1):
                    corner[cx, cy, cz] = _hash_lattice(
                        base_i[..., 0] + cx, base_i[..., 1] + cy,
                        base_i[..., 2] + cz, seed + 7919 * octave)
        x0 = corner[0, 0, 0] * (1 - t[..., 0]) + corner[1, 0, 0] * t[..., 0]
        x1 = corner[0, 1, 0] * (1 - t[..., 0]) + corner[1, 1, 0] * t[..., 0]
        x2 = corner[0, 0, 1] * (1 - t[..., 0]) + corner[1, 0, 1] * t[..., 0]
        x3 = corner[0, 1, 1] * (1 - t[..., 0]) + corner[1, 1, 1] * t[..., 0]
        y0 = x0 * (1 - t[..., 1]) + x1 * t[..., 1]
        y1 = x2 * (1 - t[..., 1]) + x3 * t[..., 1]
        total += amp * (y0 * (1 - t[..., 2]) + y1 * t[..., 2])
        norm += amp
        amp *= 0.5
        cell *= 0.5
    return total / norm


# ---------------------------------------------------------------------------
# Surfaces


@dataclass(frozen=True)
class Plane:
    """Points X with ``normal . X = offset``."""

    normal: tuple[float, float, float] = (0.0, 0.0, 1.0)
    offset: float = 0.0

    def intersect(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray parameter of the hit, NaN where the ray misses.

        Rays are ``X = origin + t * dir``; only ``t > 0`` counts as a
        hit.
        """
        n = np.asarray(self.normal, dtype=np.float64)
        denom = dirs @ n
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (self.offset - origins @ n) / denom
        return np.where((np.abs(denom) > 1e-300) & (t > 0), t, np.nan)


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 100.0

    def intersect(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Smallest positive ray parameter of the hit, NaN on miss."""
        c = np.asarray(self.center, dtype=np.float64)
        oc = origins - c
        a = np.square(dirs).sum(axis=-1)
        b = 2.0 * (oc * dirs).sum(axis=-1)
        cc = np.square(oc).sum(axis=-1) - self.radius ** 2
        disc = b * b - 4.0 * a * cc
        with np.errstate(invalid="ignore"):
            root = np.sqrt(disc)
            t0 = (-b - root) / (2.0 * a)
            t1 = (-b + root) / (2.0 * a)
        t = np.where(t0 > 0, t0, t1)
        return np.where((disc >= 0) & (t > 0), t, np.nan)


# ---------------------------------------------------------------------------
# Rig and scene description


@dataclass(frozen=True)
class CameraRigSpec:
    """A ring of inward-looking cameras.

    Cameras sit at ``lookat + (radius cos a_k, radius sin a_k,
    -standoff)`` for ``n_views`` evenly spaced angles starting at 0, and
    every principal axis passes through ``lookat``.
    """

    n_views: int = 7
    radius: float = 250.0
    standoff: float = 600.0
    lookat: tuple[float, float, float] = (0.0, 0.0, 0.0)
    focal: float = 140.0
    width: int = 64
    height: int = 48

    def intrinsic(self) -> np.ndarray:
        return np.array([
            [self.focal, 0.0, (self.width - 1) / 2.0],
            [0.0, self.focal, (self.height - 1) / 2.0],
            [0.0, 0.0, 1.0],
        ])


def _look_at(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation with the principal axis through ``target``."""
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    up_hint = np.array([0.0, 1.0, 0.0])
    if abs(forward @ up_hint) > 0.99:
        up_hint = np.array([1.0, 0.0, 0.0])
    right = np.cross(up_hint, forward)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def make_camera_ring(spec: CameraRigSpec) -> list[Camera]:
    """Build the ring; the look-at point projects to the principal point."""
    lookat = np.asarray(spec.lookat, dtype=np.float64)
    cams = []
    for k in range(spec.n_views):
        angle = 2.0 * np.pi * k / spec.n_views
        center = lookat + np.array([
            spec.radius * np.cos(angle),
            spec.radius * np.sin(angle),
            -spec.standoff,
        ])
        rotation = _look_at(center, lookat)
        cams.append(Camera(
            intrinsic=spec.intrinsic(),
            rotation=rotation,
            translation=-rotation @ center,
        ))
    return cams


@dataclass(frozen=True)
class SceneSpec:
    """Surface plus texture parameters for rendering."""

    surface: Plane | Sphere = field(default_factory=Plane)
    texture_seed: int = 0
    noise_scale: float = 60.0
    noise_octaves: int = 2
    # Texture values are remapped to mid-gray +- contrast.
    contrast: float = 0.8


def _ray_grid(cam: Camera, width: int, height: int):
    """Per-pixel world rays ``X = origin + t * dir`` with t = depth."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    # Direction scaled so the ray parameter equals camera-frame depth:
    # X(t) = C + t * M^-1 p~, since M (X - C) = d p~.
    ph = np.stack([xs, ys, np.ones_like(xs)], axis=-1)
    dirs = ph @ cam.proj_m_inv.T
    origin = cam.center
    return origin, dirs


def _shade(points: np.ndarray, scene: SceneSpec) -> np.ndarray:
    """RGB albedo of surface points, channels from three noise fields."""
    channels = [
        value_noise(points, scene.texture_seed + 131 * ch,
                    scene.noise_scale, scene.noise_octaves)
        for ch in range(3)
    ]
    rgb = np.stack(channels, axis=-1)
    return np.clip(0.5 + (rgb - 0.5) * (2.0 * scene.contrast), 0.0, 1.0)


def render_scene(scene: SceneSpec, cams: Sequence[Camera], width: int,
                 height: int) -> list[tuple[np.ndarray, DepthMap]]:
    """Render ``(image, depth)`` for every camera.

    Images are ``(height, width, 3)`` in [0, 1]; depth maps carry the
    exact ray-intersection depth with misses masked.  A view that sees
    no surface at all raises :class:`NoIntersectionError`.
    """
    out = []
    for index, cam in enumerate(cams):
        origin, dirs = _ray_grid(cam, width, height)
        t = scene.surface.intersect(origin[None, None, :], dirs)
        hit = np.isfinite(t)
        if not hit.any():
            raise NoIntersectionError(f"view {index} sees no surface")
        points = origin + np.where(hit, t, 1.0)[..., None] * dirs
        image = np.where(hit[..., None], _shade(points, scene), 0.0)
        depth = DepthMap(np.where(hit, t, np.nan), hit)
        out.append((image, depth))
    return out


class AnalyticDepth:
    """Exact surface depth for one camera, queryable at continuous pixels.

    Implements the same ``depth_at`` / ``depth_grid`` interface as
    :class:`DepthMap`, returning the true ray-intersection depth instead
    of a stored nearest-pixel value.  Queries outside the image domain
    or missing the surface return NaN.
    """

    def __init__(self, cam: Camera, surface: Plane | Sphere, width: int,
                 height: int) -> None:
        self.cam = cam
        self.surface = surface
        self.width = width
        self.height = height

    def depth_grid(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        inside = (
            (xs >= 0.0) & (xs <= self.width - 1.0)
            & (ys >= 0.0) & (ys <= self.height - 1.0)
        )
        ph = np.stack([xs, ys, np.ones_like(xs)], axis=-1)
        dirs = ph @ self.cam.proj_m_inv.T
        t = self.surface.intersect(self.cam.center, dirs)
        return np.where(inside, t, np.nan)

    def depth_at(self, x: float, y: float) -> float:
        return float(self.depth_grid(np.float64(x), np.float64(y)))


def perturb_depths(depth: DepthMap, sigma: float = 0.0,
                   outlier_frac: float = 0.0,
                   outlier_range: tuple[float, float] | None = None,
                   seed: int = 0) -> DepthMap:
    """Corrupt a depth map with Gaussian noise and uniform outliers.

    Exactly ``floor(outlier_frac * valid_count)`` valid pixels are
    replaced by uniform draws from ``outlier_range`` (default: the map's
    own valid min/max).  Gaussian noise of standard deviation ``sigma``
    is added to all valid pixels first.  The mask is unchanged.  Raises
    :class:`InvalidArgumentError` for a negative ``sigma`` or an
    ``outlier_frac`` outside [0, 1], NaN included.
    """
    # Written as "not in range" so NaN is rejected too.
    if not sigma >= 0.0:
        raise InvalidArgumentError(f"sigma must be non-negative, got {sigma}")
    if not 0.0 <= outlier_frac <= 1.0:
        raise InvalidArgumentError(f"outlier_frac must lie in [0, 1], got {outlier_frac}")
    rng = np.random.default_rng(seed)
    data = depth.data.copy()
    mask = depth.mask.copy()
    ys, xs = np.nonzero(mask)
    if len(ys) == 0:
        return DepthMap(data, mask)
    if sigma > 0:
        data[ys, xs] += rng.normal(0.0, sigma, len(ys))
    n_out = int(np.floor(outlier_frac * len(ys)))
    if n_out > 0:
        if outlier_range is None:
            valid_vals = depth.data[ys, xs]
            outlier_range = (float(valid_vals.min()), float(valid_vals.max()))
        pick = rng.choice(len(ys), size=n_out, replace=False)
        data[ys[pick], xs[pick]] = rng.uniform(
            outlier_range[0], outlier_range[1], n_out)
    return DepthMap(data, mask)


def render_view_estimates(scene: SceneSpec, cams: Sequence[Camera],
                          width: int, height: int) -> list[ViewEstimate]:
    """Ground-truth views packaged for the fusion pipeline (confidence 1)."""
    rendered = render_scene(scene, cams, width, height)
    return [
        ViewEstimate(camera=cam, depth=depth,
                     confidence=np.ones(depth.data.shape), image=image)
        for cam, (image, depth) in zip(cams, rendered)
    ]
