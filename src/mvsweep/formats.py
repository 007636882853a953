"""On-disk formats: camera text files, PFM, PPM/PGM, PLY, weights.

Formats follow the conventions common in multi-view stereo datasets:

``cam.txt``
    Three blocks: an ``extrinsic`` 4x4 world-to-camera matrix, an
    ``intrinsic`` 3x3 matrix, and a final line ``d_min d_interval
    [count d_max]`` describing the swept depth range.  Numbers must be
    finite, and ``count`` whole (``4`` or ``4.0``, not ``2.7``).

``.pfm``
    Grayscale portable float map: ``Pf``, ``width height``, a finite
    scale whose sign encodes endianness (negative = little-endian, the
    only kind written or accepted), then float32 rows bottom-to-top.
    A pixel without a value is stored as NaN.

``.ppm`` / ``.pgm``
    Binary P6/P5, maxval 255.  PFM and PPM share one header rule: a
    ``#`` comment runs to the end of its line, and exactly one
    whitespace byte separates the last field from the payload.

``.ply``
    Point clouds, ascii or binary little-endian, float32 positions and
    optional uchar colors.

weights
    A one-line JSON manifest (names, shapes, per-tensor byte offsets)
    followed by raw little-endian float32 data.

Text is ASCII.  A malformed file raises :class:`ParseError` with its
path and, where one applies, its line: ``error: <path>: ... (line N)``.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BigEndianUnsupportedError,
    InvalidArgumentError,
    NonRigidRotationWarning,
    ParseError,
)
from .fusion import PointCloud
from .geometry import Camera

__all__ = [
    "DepthRange",
    "ProjectLayout",
    "load_tensors",
    "read_cam",
    "read_image",
    "read_pfm",
    "read_ply",
    "save_tensors",
    "write_cam",
    "write_image",
    "write_pfm",
    "write_ply",
]


# ---------------------------------------------------------------------------
# Scanning shared by every reader


def _decode(raw: bytes, path) -> str:
    """The ASCII text held by ``raw``."""
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte {raw[exc.start]:#04x}", path,
                         raw.count(b"\n", 0, exc.start) + 1) from exc


def _numbers(tokens, path, line: int | None, kind) -> list:
    """``tokens`` parsed as ``kind`` (``int`` or ``float``)."""
    try:
        return [kind(token) for token in tokens]
    except (ValueError, OverflowError) as exc:
        raise ParseError(str(exc), path, line) from exc


def _payload(raw: bytes, start: int, size: int, path, what: str = "payload") -> bytes:
    """The ``size`` bytes of ``raw`` from ``start`` on; ``what`` names them."""
    data = raw[start:start + size]
    if len(data) != size:
        raise ParseError(f"truncated {what}: expected {size} data bytes, found {len(data)}", path)
    return data


# Four header fields, each after whitespace and ``#`` comments (a comment
# runs to the end of its line).  The lookaheads keep a field from being
# split in two or a comment from being cut short and read as a field.
_NETPBM_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)(?!\S)" * 4)


def _netpbm_header(raw: bytes, path, kind) -> tuple[bytes, int, int, float, int]:
    """Scan a PFM or PPM/PGM header.

    Returns the magic, the positive width and height, the last field
    (PFM scale or PPM maxval) parsed as ``kind``, and the payload
    offset: exactly one whitespace byte past the last field, so payload
    bytes that look like whitespace are never read as header.
    """
    match = _NETPBM_HEADER.match(raw)
    if match is None:
        raise ParseError("truncated header", path)
    lines = [raw.count(b"\n", 0, match.start(i)) + 1 for i in range(5)]
    width, height, last = (_numbers([match[i]], path, lines[i], k)[0]
                           for i, k in ((2, int), (3, int), (4, kind)))
    if width <= 0 or height <= 0:
        raise ParseError(f"bad dimensions {width}x{height}", path, lines[2])
    return match[1], width, height, last, match.end() + 1


# ---------------------------------------------------------------------------
# Camera text files


@dataclass(frozen=True)
class DepthRange:
    """The swept range advertised by a camera file."""

    d_min: float
    d_interval: float
    count: int | None = None
    d_max: float | None = None


def _nearest_rotation(r: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(r)
    fix = np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
    return u @ fix @ vt


def read_cam(path) -> tuple[Camera, DepthRange]:
    """Parse a camera file; malformed content raises :class:`ParseError`.

    Rotations that fail orthonormality are replaced by the nearest
    rotation; failures worse than 1e-3 additionally emit
    :class:`NonRigidRotationWarning`.
    """
    path = Path(path)
    lines = _decode(path.read_bytes(), path).splitlines()

    def want(idx: int, token: str) -> None:
        if idx >= len(lines) or lines[idx].strip() != token:
            raise ParseError(f"expected {token!r}", path, idx + 1)

    def row(idx: int, counts: tuple[int, ...]) -> list[float]:
        if idx >= len(lines):
            raise ParseError("unexpected end of file", path, len(lines))
        parts = lines[idx].split()
        if len(parts) not in counts:
            raise ParseError(f"expected {' or '.join(map(str, counts))} numbers", path, idx + 1)
        nums = _numbers(parts, path, idx + 1, float)
        if not all(map(math.isfinite, nums)):
            raise ParseError("numbers must be finite", path, idx + 1)
        return nums

    want(0, "extrinsic")
    extrinsic = np.array([row(idx, (4,)) for idx in range(1, 5)])
    if np.max(np.abs(extrinsic[3] - [0, 0, 0, 1])) > 1e-9:
        raise ParseError("extrinsic last row must be 0 0 0 1", path, 5)
    want(6, "intrinsic")
    intrinsic = np.array([row(idx, (3,)) for idx in range(7, 10)])
    nums = row(11, (2, 4))
    if len(nums) == 2:
        depth_range = DepthRange(nums[0], nums[1])
    elif nums[2].is_integer():
        depth_range = DepthRange(nums[0], nums[1], int(nums[2]), nums[3])
    else:
        raise ParseError(f"depth count must be a whole number, got {nums[2]}", path, 12)

    rotation = extrinsic[:3, :3]
    failure = np.max(np.abs(rotation.T @ rotation - np.eye(3)))
    if failure > 1e-9 or np.linalg.det(rotation) < 0:
        fixed = _nearest_rotation(rotation)
        if failure > 1e-3:
            warnings.warn(
                f"{path}: rotation fails orthonormality by {failure:.2e}; "
                "re-orthonormalized", NonRigidRotationWarning)
        rotation = fixed
    try:
        camera = Camera(intrinsic=intrinsic, rotation=rotation,
                        translation=extrinsic[:3, 3])
    except InvalidArgumentError as exc:
        raise ParseError(str(exc), path) from exc
    return camera, depth_range


def write_cam(path, cam: Camera, depth_range: DepthRange) -> None:
    def row(values) -> str:
        return " ".join(f"{v:.13g}" for v in values)

    extrinsic = np.eye(4)
    extrinsic[:3, :3] = cam.rotation
    extrinsic[:3, 3] = cam.translation
    lines = ["extrinsic"]
    lines += [row(extrinsic[r]) for r in range(4)]
    lines.append("")
    lines.append("intrinsic")
    lines += [row(cam.intrinsic[r]) for r in range(3)]
    lines.append("")
    if depth_range.count is not None:
        lines.append(
            f"{depth_range.d_min:.13g} {depth_range.d_interval:.13g} "
            f"{depth_range.count} {depth_range.d_max:.13g}")
    else:
        lines.append(f"{depth_range.d_min:.13g} {depth_range.d_interval:.13g}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# PFM depth / confidence maps


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM into a float32 array (NaN marks invalid)."""
    path = Path(path)
    raw = path.read_bytes()
    magic, width, height, scale, start = _netpbm_header(raw, path, float)
    if magic == b"PF":
        raise ParseError("color PFM is not supported", path, 1)
    if magic != b"Pf":
        raise ParseError(f"bad magic {magic!r}", path, 1)
    if not math.isfinite(scale) or scale == 0:
        raise ParseError(f"scale must be finite and non-zero, got {scale}", path)
    if scale > 0:
        raise BigEndianUnsupportedError("big-endian PFM is not supported", path)
    payload = _payload(raw, start, width * height * 4, path)
    rows = np.frombuffer(payload, dtype="<f4").reshape(height, width)
    return rows[::-1].copy()  # stored bottom-to-top


def write_pfm(path, data: np.ndarray) -> None:
    """Write a float map as little-endian float32; NaN pixels stay NaN."""
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ValueError(f"PFM data must be 2-d, got shape {arr.shape}")
    height, width = arr.shape
    # The payload, rows bottom-to-top, is the only copy of the map.
    payload = np.empty((height, width), dtype="<f4")
    payload[...] = arr[::-1]
    with open(path, "wb") as f:
        f.write(f"Pf\n{width} {height}\n-1.0\n".encode("ascii"))
        f.write(payload.data)


# ---------------------------------------------------------------------------
# PPM / PGM images


# Values per row band that ``write_image`` quantizes at once, at least
# one row: its float64 temporary spans one band (512 KiB), not the image.
_QUANTIZE_BAND = 1 << 16


def write_image(path, image: np.ndarray) -> None:
    """Write [0, 1] floats as binary P5 (2-d input) or P6 (3-channel)."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"expected (H, W) or (H, W, 3), got {arr.shape}")
    height, width = arr.shape[:2]
    # The uint8 payload, filled band by band through one float64
    # temporary that each band quantizes in place.
    payload = np.empty(arr.shape, dtype=np.uint8)
    rows = max(1, _QUANTIZE_BAND // max(1, math.prod(arr.shape[1:])))
    scaled = np.empty((min(rows, height),) + arr.shape[1:])
    for first in range(0, height, rows):
        band = scaled[:min(rows, height - first)]
        np.multiply(arr[first:first + rows], 255.0, out=band, dtype=np.float64)
        np.rint(band, out=band)
        np.clip(band, 0, 255, out=band)
        payload[first:first + rows] = band
    with open(path, "wb") as f:
        f.write(magic + f"\n{width} {height}\n255\n".encode("ascii"))
        f.write(payload.data)


def read_image(path) -> np.ndarray:
    """Read binary P5/P6 into floats in [0, 1]."""
    path = Path(path)
    raw = path.read_bytes()
    magic, width, height, maxval, start = _netpbm_header(raw, path, int)
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"bad magic {magic!r}", path, 1)
    if maxval != 255:
        raise ParseError(f"only maxval 255 is supported, got {maxval}", path)
    channels = 3 if magic == b"P6" else 1
    payload = _payload(raw, start, width * height * channels, path)
    arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 3:
        return arr.reshape(height, width, 3)
    return arr.reshape(height, width)


# ---------------------------------------------------------------------------
# PLY point clouds


# The vertex properties write_ply writes and the only binary vertex
# record read_ply decodes: the first three entries or all six.
_PLY_BINARY_LAYOUT = (("float", "x"), ("float", "y"), ("float", "z"),
                      ("uchar", "red"), ("uchar", "green"), ("uchar", "blue"))


def write_ply(path, cloud: PointCloud, mode: str = "binary") -> None:
    """Write a point cloud; ``mode`` is ``"ascii"`` or ``"binary"``.

    Positions are float32; colors, when present, uchar red/green/blue.
    """
    if mode not in ("ascii", "binary"):
        raise ValueError(f"unknown mode {mode!r}")
    fmt = "ascii 1.0" if mode == "ascii" else "binary_little_endian 1.0"
    props = _PLY_BINARY_LAYOUT if cloud.rgb is not None else _PLY_BINARY_LAYOUT[:3]
    header = ["ply", f"format {fmt}", f"element vertex {len(cloud)}",
              *(f"property {kind} {name}" for kind, name in props), "end_header"]
    head = ("\n".join(header) + "\n").encode("ascii")
    if mode == "ascii":
        xyz = cloud.xyz.astype("<f4")
        lines = []
        for i in range(len(cloud)):
            parts = [f"{v:.9g}" for v in xyz[i]]
            if cloud.rgb is not None:
                parts += [str(int(v)) for v in cloud.rgb[i]]
            lines.append(" ".join(parts))
        body = ("\n".join(lines) + "\n").encode("ascii") if lines else b""
        Path(path).write_bytes(head + body)
        return
    # The record array is the only copy of the cloud.
    fields = [("xyz", "<f4", 3)] + ([("rgb", "u1", 3)] if cloud.rgb is not None else [])
    record = np.empty(len(cloud), dtype=fields)
    record["xyz"] = cloud.xyz
    if cloud.rgb is not None:
        record["rgb"] = cloud.rgb
    with open(path, "wb") as f:
        f.write(head)
        f.write(record.data)


def _check_binary_layout(props: list[tuple[str, str, int]], path: Path) -> None:
    """Reject a binary vertex whose record size read_ply would get wrong."""
    layout = [(kind, name) for kind, name, _ in props]
    if layout in (list(_PLY_BINARY_LAYOUT[:3]), list(_PLY_BINARY_LAYOUT)):
        return
    # The first property that departs from the layout, or the last one
    # of an incomplete colour triple.
    bad = next((i for i, prop in enumerate(layout)
                if i >= len(_PLY_BINARY_LAYOUT) or prop != _PLY_BINARY_LAYOUT[i]),
               len(layout) - 1)
    kind, name, lineno = props[bad]
    raise ParseError(
        f"unsupported binary vertex property {kind} {name}: expected float x y z, "
        "optionally followed by uchar red green blue", path, lineno)


def _ply_bad_token(body: str, first_line: int, path) -> None:
    """Raise the ``bad vertex data`` error at the first line of an ascii
    PLY ``body`` (starting at file line ``first_line``) holding a token
    that is not a number.  The bulk parse is fast but has no line, so
    this runs only after it fails."""
    for lineno, line in enumerate(body.split("\n"), start=first_line):
        try:
            _numbers(line.split(), path, lineno, float)
        except ParseError as exc:
            raise ParseError(f"bad vertex data: {exc.__cause__}", path, lineno) from exc


def read_ply(path) -> PointCloud:
    """Read the subset of PLY written by :func:`write_ply`.

    Coordinates are float32 in both encodings: ascii ones are rounded
    to float32 as they are parsed, so a cloud reads back the same
    ``xyz`` whichever way it was written.  A coordinate that is not
    finite in float32 is a parse error.
    """
    path = Path(path)
    raw = path.read_bytes()
    end = raw.find(b"end_header\n")
    if end < 0:
        raise ParseError("missing end_header", path)
    start = end + len(b"end_header\n")
    header_lines = _decode(raw[:end], path).splitlines()
    if not header_lines or header_lines[0] != "ply":
        raise ParseError("not a PLY file", path, 1)
    fmt = None
    count = None
    props: list[tuple[str, str, int]] = []  # (type, name, header line)
    for lineno, line in enumerate(header_lines[1:], start=2):
        keyword, *args = line.split() or [""]
        if keyword in ("format", "element", "property") and len(args) < 2:
            raise ParseError(f"malformed header line {line!r}", path, lineno)
        if keyword == "format":
            fmt = args[0]
        elif keyword == "element":
            if args[0] != "vertex":
                raise ParseError(f"unsupported element {args[0]!r}", path, lineno)
            count = _numbers(args[1:2], path, lineno, int)[0]
            if count < 0:
                raise ParseError(f"negative vertex count {count}", path, lineno)
        elif keyword == "property":
            props.append((args[0], args[1], lineno))
    if fmt not in ("ascii", "binary_little_endian"):
        raise ParseError(f"unsupported format {fmt!r}", path)
    if count is None:
        raise ParseError("missing vertex element", path)
    names = [name for _, name, _ in props]
    if names[:3] != ["x", "y", "z"]:
        raise ParseError("first three properties must be x, y, z", path)
    has_rgb = names[3:6] == ["red", "green", "blue"]
    if fmt == "ascii":
        body = _decode(raw, path)[start:]
        try:
            values = np.array(body.split(), dtype=np.float64)
        except ValueError as exc:
            _ply_bad_token(body, raw.count(b"\n", 0, start) + 1, path)
            raise ParseError(f"bad vertex data: {exc}", path) from exc
        stride = len(props)
        if len(values) != count * stride:
            raise ParseError(
                f"expected {count * stride} values, found {len(values)}", path)
        table = values.reshape(count, stride)
        with np.errstate(over="ignore"):  # beyond float32's range is inf, rejected below
            xyz = table[:, :3].astype(np.float32)
        rgb = None
        if has_rgb:
            rgb = table[:, 3:6]
            if not np.all((rgb >= 0) & (rgb <= 255) & (rgb == np.floor(rgb))):
                raise ParseError("colors must be integers in [0, 255]", path)
            rgb = rgb.astype(np.uint8)
    else:
        _check_binary_layout(props, path)
        dtype = [("xyz", "<f4", 3)]
        if has_rgb:
            dtype.append(("rgb", "u1", 3))
        record = np.frombuffer(_payload(raw, start, count * np.dtype(dtype).itemsize, path),
                               dtype=dtype)
        xyz = record["xyz"]
        rgb = record["rgb"] if has_rgb else None
    if not np.isfinite(xyz).all():
        raise ParseError("vertex coordinates must be finite", path)
    return PointCloud(xyz, rgb)


# ---------------------------------------------------------------------------
# Weight container


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float tensors: one JSON manifest line, then raw data.

    Data is little-endian float32, concatenated in manifest order.
    """
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr32 = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(arr32.shape), "offset": offset})
        blobs.append(arr32.tobytes())
        offset += len(blobs[-1])
    manifest = json.dumps(
        {"magic": "mvsweep-tensors", "version": 1, "dtype": "<f4",
         "tensors": entries})
    Path(path).write_bytes(manifest.encode("ascii") + b"\n" + b"".join(blobs))


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a tensor container back into float64 arrays."""
    path = Path(path)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ParseError("missing manifest line", path, 1)
    try:
        manifest = json.loads(_decode(raw[:newline], path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad manifest: {exc}", path, 1) from exc
    if not isinstance(manifest, dict) or manifest.get("magic") != "mvsweep-tensors":
        raise ParseError("not a tensor container", path, 1)
    if manifest.get("dtype") != "<f4":
        raise ParseError(f"unsupported dtype {manifest.get('dtype')!r}", path, 1)
    try:
        entries = [(e["name"], tuple(int(d) for d in e["shape"]), int(e["offset"]))
                   for e in manifest["tensors"]]
    except KeyError as exc:
        raise ParseError(f"bad manifest: missing {exc}", path, 1) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad manifest: {exc}", path, 1) from exc
    out: dict[str, np.ndarray] = {}
    for name, shape, offset in entries:
        if not isinstance(name, str):
            raise ParseError(f"tensor name {name!r} is not a string", path, 1)
        if offset < 0 or min(shape, default=0) < 0:
            raise ParseError(f"tensor {name!r} has a negative offset or shape", path, 1)
        chunk = _payload(raw, newline + 1 + offset, math.prod(shape) * 4, path, f"tensor {name!r}")
        try:
            out[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).astype(np.float64)
        except (ValueError, OverflowError) as exc:  # a dimension numpy cannot index
            raise ParseError(f"tensor {name!r} has shape {list(shape)}: {exc}", path, 1) from exc
    return out


# ---------------------------------------------------------------------------
# Project directory layout


@dataclass(frozen=True)
class ProjectLayout:
    """File naming inside a reconstruction working directory.

    ``images/NNNNNNNN.ppm``, ``cams/NNNNNNNN_cam.txt``,
    ``depths/NNNNNNNN.pfm`` (+ ``_conf.pfm``), ``pair.txt``, and
    ``cloud.ply``, with 8-digit zero-padded view indices.
    """

    root: Path

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))

    def image(self, index: int) -> Path:
        return self.root / "images" / f"{index:08d}.ppm"

    def cam(self, index: int) -> Path:
        return self.root / "cams" / f"{index:08d}_cam.txt"

    def depth(self, index: int) -> Path:
        return self.root / "depths" / f"{index:08d}.pfm"

    def confidence(self, index: int) -> Path:
        return self.root / "depths" / f"{index:08d}_conf.pfm"

    def gt_depth(self, index: int) -> Path:
        return self.root / "gt_depths" / f"{index:08d}.pfm"

    @property
    def pair(self) -> Path:
        return self.root / "pair.txt"

    @property
    def cloud(self) -> Path:
        return self.root / "cloud.ply"

    @property
    def gt_cloud(self) -> Path:
        return self.root / "gt.ply"

    def view_count(self) -> int:
        return len(list((self.root / "images").glob("*.ppm")))

    def make_dirs(self, with_gt: bool = False) -> None:
        for sub in ("images", "cams", "depths") + (("gt_depths",) if with_gt else ()):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    def write_pairs(self, pairs: dict[int, list[int]]) -> None:
        """pair.txt: first line is the view count; then per line the
        reference index followed by its source indices in match order."""
        lines = [str(len(pairs))]
        for ref in sorted(pairs):
            lines.append(" ".join(str(v) for v in [ref] + list(pairs[ref])))
        self.pair.write_text("\n".join(lines) + "\n")

    def read_pairs(self) -> dict[int, list[int]]:
        path = self.pair
        lines = _decode(path.read_bytes(), path).splitlines()
        if not lines:
            raise ParseError("empty pair file", path, 1)
        count = _numbers([lines[0]], path, 1, int)[0]
        pairs: dict[int, list[int]] = {}
        for lineno, line in enumerate(lines[1:count + 1], start=2):
            parts = _numbers(line.split(), path, lineno, int)
            if not parts:
                raise ParseError("empty pair line", path, lineno)
            if min(parts) < 0:
                raise ParseError("negative view index", path, lineno)
            ref, srcs = parts[0], parts[1:]
            if ref in pairs:
                raise ParseError(f"view {ref} is listed as a reference twice", path, lineno)
            if ref in srcs:
                raise ParseError(f"view {ref} is listed as its own source", path, lineno)
            if len(set(srcs)) != len(srcs):
                raise ParseError(f"view {ref} lists a source twice", path, lineno)
            pairs[ref] = srcs
        if not 0 <= count < len(lines):
            raise ParseError(f"bad view count {count}: {len(lines) - 1} lines follow", path, 1)
        return pairs
