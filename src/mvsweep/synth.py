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

The texture is evaluated only at the hit points of each view; pixels
whose ray misses the surface stay 0.  The three colour channels are
three seeds of one noise field and share a single lattice pass: the
cell, the smoothstep weights and the seed-free corner keys are computed
once, and only the seeded hash finish and the blend run per channel.
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

__all__ = [
    "AnalyticDepth",
    "CameraRigSpec",
    "Plane",
    "SceneSpec",
    "Sphere",
    "make_camera_ring",
    "perturb_depths",
    "render_scene",
    "value_noise",
]


# ---------------------------------------------------------------------------
# Procedural texture


def _lattice_keys(base: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seed-free key terms of each cell's lower and upper lattice planes.

    ``base`` holds the integer lower corners as ``(3, n)``.  Per axis
    the result is ``(i * m, (i + 1) * m)`` modulo 2**32 for the axis
    multipliers ``m`` 0x8DA6B343, 0xD8163841 and 0xCB1AB31F; a corner's
    key is the xor of its three terms.  The upper term is the lower one
    plus ``m``, which wraps exactly like the product of ``i + 1``.
    """
    terms = []
    for coord, mult in zip(base, (0x8DA6B343, 0xD8163841, 0xCB1AB31F)):
        lo = coord.astype(np.uint32) * np.uint32(mult)
        terms.append((lo, lo + np.uint32(mult)))
    return terms


def _hash_seeds(key: np.ndarray, seed_mix: np.ndarray) -> np.ndarray:
    """Deterministic [0, 1) value per lattice key, one row per seed.

    ``seed_mix`` holds each seed times 0x9E3779B9 modulo 2**32 as an
    ``(S, 1)`` column; ``key`` is ``(n,)`` and the result ``(S, n)``.
    """
    h = key ^ seed_mix
    h ^= h >> np.uint32(13)
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(16)
    return h / 4294967296.0


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``a * (1 - t) + b * t``, overwriting ``a`` and ``b``."""
    a *= 1 - t
    b *= t
    a += b
    return a


def _noise_fields(points: np.ndarray, seeds: Sequence[int], scale: float,
                  octaves: int) -> np.ndarray:
    """One :func:`value_noise` field per seed, stacked on a last axis.

    Each octave finds the cell, the smoothstep weights and the corner
    keys once for all seeds; only the hash finish and the trilinear
    blend run per seed.
    """
    pts = np.asarray(points, dtype=np.float64)
    # Coordinate-major, so each axis is one contiguous run.
    xyz = pts.reshape(-1, pts.shape[-1]).T.copy()
    total = np.zeros((len(seeds), xyz.shape[1]), dtype=np.float64)
    norm = 0.0
    amp = 1.0
    cell = float(scale)
    for octave in range(octaves):
        p = xyz / cell
        base = np.floor(p)
        frac = p - base
        tx, ty, tz = frac * frac * (3.0 - 2.0 * frac)
        kx, ky, kz = _lattice_keys(base.astype(np.int64))
        seed_mix = np.array(
            [((seed + 7919 * octave) * 0x9E3779B9) & 0xFFFFFFFF for seed in seeds],
            dtype=np.uint32)[:, None]

        def corner(cx, cy, cz):
            return _hash_seeds(kx[cx] ^ ky[cy] ^ kz[cz], seed_mix)

        x0 = _lerp(corner(0, 0, 0), corner(1, 0, 0), tx)
        x1 = _lerp(corner(0, 1, 0), corner(1, 1, 0), tx)
        x2 = _lerp(corner(0, 0, 1), corner(1, 0, 1), tx)
        x3 = _lerp(corner(0, 1, 1), corner(1, 1, 1), tx)
        y0 = _lerp(x0, x1, ty)
        y1 = _lerp(x2, x3, ty)
        total += amp * _lerp(y0, y1, tz)
        norm += amp
        amp *= 0.5
        cell *= 0.5
    return (total / norm).T.reshape(pts.shape[:-1] + (len(seeds),))


def value_noise(points: np.ndarray, seed: int = 0, scale: float = 25.0,
                octaves: int = 2) -> np.ndarray:
    """Smooth [0, 1] noise over 3-d points, trilinear with smoothstep.

    ``scale`` is the base lattice cell size in world units; each octave
    halves the cell and the amplitude.  Identical inputs give identical
    outputs across platforms (integer-hash lattice).  This is the
    one-seed case of the routine that shades all three colour channels
    in one lattice pass, so it equals each of their fields bit for bit.
    """
    return _noise_fields(points, (seed,), scale, octaves)[..., 0]


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


def _ray_dirs(cam: Camera, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """World directions of the rays ``X = cam.center + t * dir`` through
    pixels ``(xs, ys)``, scaled so that t is the camera-frame depth:
    ``X(t) = C + t * M^-1 p~``, since ``M (X - C) = d p~``."""
    return np.stack([xs, ys, np.ones_like(xs)], axis=-1) @ cam.proj_m_inv.T


def _shade(points: np.ndarray, scene: SceneSpec) -> np.ndarray:
    """RGB albedo of surface points, channels from three noise fields."""
    rgb = _noise_fields(points, [scene.texture_seed + 131 * ch for ch in range(3)],
                        scene.noise_scale, scene.noise_octaves)
    return np.clip(0.5 + (rgb - 0.5) * (2.0 * scene.contrast), 0.0, 1.0)


def render_scene(scene: SceneSpec, cams: Sequence[Camera], width: int,
                 height: int) -> list[tuple[np.ndarray, DepthMap]]:
    """Render ``(image, depth)`` for every camera.

    Images are ``(height, width, 3)`` in [0, 1], shaded at the hit
    pixels only and 0 where the ray misses; depth maps carry the exact
    ray-intersection depth, NaN where the ray misses.  A view that sees
    no surface at all raises :class:`NoIntersectionError`.
    """
    out = []
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    for index, cam in enumerate(cams):
        origin, dirs = cam.center, _ray_dirs(cam, xs, ys)
        t = scene.surface.intersect(origin[None, None, :], dirs)
        hit = np.isfinite(t)
        if not hit.any():
            raise NoIntersectionError(f"view {index} sees no surface")
        image = np.zeros((height, width, 3))
        image[hit] = _shade(origin + t[hit, None] * dirs[hit], scene)
        out.append((image, DepthMap(t)))
    return out


class AnalyticDepth:
    """Exact surface depth for one camera, queryable at continuous pixels.

    Implements the same ``depth_grid`` interface as :class:`DepthMap`,
    returning the true ray-intersection depth instead of a stored
    nearest-pixel value.  Queries outside the image domain
    or missing the surface return NaN.
    """

    def __init__(self, cam: Camera, surface: Plane | Sphere, width: int,
                 height: int) -> None:
        self.cam = cam
        self.surface = surface
        self.width = width
        self.height = height

    def depth_grid(self, xs, ys) -> np.ndarray:
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.float64),
                                     np.asarray(ys, dtype=np.float64))
        inside = (
            (xs >= 0.0) & (xs <= self.width - 1.0)
            & (ys >= 0.0) & (ys <= self.height - 1.0)
        )
        t = self.surface.intersect(self.cam.center, _ray_dirs(self.cam, xs, ys))
        return np.where(inside, t, np.nan)


def perturb_depths(depth: DepthMap, sigma: float = 0.0,
                   outlier_frac: float = 0.0,
                   outlier_range: tuple[float, float] | None = None,
                   seed: int = 0) -> DepthMap:
    """Corrupt a depth map with Gaussian noise and uniform outliers.

    Exactly ``floor(outlier_frac * valid_count)`` pixels with a depth are
    replaced by uniform draws from ``outlier_range`` (default: the map's
    own min/max).  Gaussian noise of standard deviation ``sigma`` is
    added to every pixel with a depth first.  NaN pixels stay NaN.  Raises
    :class:`InvalidArgumentError` for a ``sigma`` that is negative or not
    finite, or an ``outlier_frac`` outside [0, 1], NaN included.
    """
    # Written as "not in range" so NaN is rejected too.
    if not 0.0 <= sigma < np.inf:
        raise InvalidArgumentError(f"sigma must be non-negative and finite, got {sigma}")
    if not 0.0 <= outlier_frac <= 1.0:
        raise InvalidArgumentError(f"outlier_frac must lie in [0, 1], got {outlier_frac}")
    rng = np.random.default_rng(seed)
    data = depth.data.copy()
    ys, xs = np.nonzero(depth.mask)
    if len(ys) == 0:
        return DepthMap(data)
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
    return DepthMap(data)
