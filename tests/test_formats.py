"""File formats: camera text, PFM maps, PPM images, PLY clouds, tensors.

Round trips are checked at the byte level where the format is binary
(PFM payload layout is hand-assembled in one test) and at parse level
for the text formats.  Malformed inputs must raise ParseError with the
offending path rather than leak numpy/IO errors.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvsweep import formats, geometry
from mvsweep.depthmap import DepthMap
from mvsweep.errors import (
    BigEndianUnsupportedError,
    NonRigidRotationWarning,
    ParseError,
)
from mvsweep.fusion import PointCloud


def _camera() -> geometry.Camera:
    k = np.array([[140.0, 0.0, 31.5], [0.0, 140.0, 23.5], [0.0, 0.0, 1.0]])
    # A rotation about y by 30 degrees.
    c, s = np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)
    r = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    return geometry.Camera(k, r, np.array([1.5, -2.25, 600.0]))


class TestCamIO:
    """MVS camera text files."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cam.txt"
        rng = formats.DepthRange(425.0, 2.5)
        formats.write_cam(path, _camera(), rng)
        cam, back = formats.read_cam(path)
        np.testing.assert_allclose(cam.rotation, _camera().rotation, atol=1e-9)
        np.testing.assert_allclose(cam.translation, _camera().translation, atol=1e-9)
        np.testing.assert_allclose(cam.intrinsic, _camera().intrinsic, atol=1e-9)
        assert back.d_min == pytest.approx(425.0)
        assert back.d_interval == pytest.approx(2.5)
        assert back.count is None and back.d_max is None

    def test_four_number_depth_line(self, tmp_path):
        path = tmp_path / "cam.txt"
        formats.write_cam(path, _camera(), formats.DepthRange(425.0, 2.5, 64, 582.5))
        _, back = formats.read_cam(path)
        assert back.count == 64
        assert back.d_max == pytest.approx(582.5)

    def _valid_lines(self, tmp_path):
        path = tmp_path / "cam.txt"
        formats.write_cam(path, _camera(), formats.DepthRange(425.0, 2.5))
        return path, path.read_text().splitlines()

    def test_missing_extrinsic_token(self, tmp_path):
        path, lines = self._valid_lines(tmp_path)
        lines[0] = "extrinsics"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            formats.read_cam(path)
        assert info.value.line == 1

    def test_bad_last_row(self, tmp_path):
        path, lines = self._valid_lines(tmp_path)
        lines[4] = "0 0 0 2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            formats.read_cam(path)
        assert info.value.line == 5

    def test_wrong_column_count(self, tmp_path):
        path, lines = self._valid_lines(tmp_path)
        lines[2] = "1 0 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            formats.read_cam(path)

    def test_non_numeric(self, tmp_path):
        path, lines = self._valid_lines(tmp_path)
        lines[8] = lines[8].replace(lines[8].split()[0], "abc", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            formats.read_cam(path)

    def test_missing_depth_range(self, tmp_path):
        path, lines = self._valid_lines(tmp_path)
        path.write_text("\n".join(lines[:11]) + "\n")
        with pytest.raises(ParseError):
            formats.read_cam(path)

    def test_three_number_depth_line(self, tmp_path):
        path, lines = self._valid_lines(tmp_path)
        lines[11] = "425 2.5 64"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            formats.read_cam(path)

    @pytest.mark.parametrize("token, count", [("4", 4), ("4.0", 4), ("1e3", 1000)])
    def test_depth_count_whole_number(self, tmp_path, token, count):
        path, lines = self._valid_lines(tmp_path)
        lines[11] = f"425 2.5 {token} 582.5"
        path.write_text("\n".join(lines) + "\n")
        _, back = formats.read_cam(path)
        assert back.count == count and isinstance(back.count, int)

    @pytest.mark.parametrize("token, message", [
        ("2.7", "whole number"), ("-0.5", "whole number"),
        ("inf", "must be finite"), ("nan", "must be finite"), ("-inf", "must be finite"),
        ("1e999", "must be finite"),
    ])
    def test_depth_count_not_whole_number(self, tmp_path, token, message):
        path, lines = self._valid_lines(tmp_path)
        lines[11] = f"425 2.5 {token} 582.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as info:
            formats.read_cam(path)
        assert info.value.line == 12

    @pytest.mark.parametrize("line, column", [
        (1, 0),  # rotation
        (3, 2),  # rotation, last row
        (2, 3),  # translation
        (7, 0),  # intrinsic focal length
        (7, 1),  # intrinsic skew
        (8, 1),  # intrinsic lower triangle
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_camera_entry(self, tmp_path, line, column, value):
        path, lines = self._valid_lines(tmp_path)
        parts = lines[line].split()
        parts[column] = value
        lines[line] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="must be finite") as info:
            formats.read_cam(path)
        assert info.value.path == path and info.value.line == line + 1

    @pytest.mark.parametrize("line, column, value", [
        (7, 0, "-140"),  # focal length must be positive
        (8, 0, "3"),     # intrinsic must be upper-triangular
    ])
    def test_camera_rejected_by_camera_type(self, tmp_path, line, column, value):
        path, lines = self._valid_lines(tmp_path)
        parts = lines[line].split()
        parts[column] = value
        lines[line] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="intrinsic") as info:
            formats.read_cam(path)
        assert info.value.path == path

    def test_non_finite_last_row(self, tmp_path):
        path, lines = self._valid_lines(tmp_path)
        lines[4] = "0 0 nan 1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            formats.read_cam(path)
        assert info.value.line == 5

    def test_non_ascii_text(self, tmp_path):
        path, lines = self._valid_lines(tmp_path)
        path.write_bytes("\n".join(lines[:2]).encode() + "\n\u00e9\n".encode("latin-1")
                         + "\n".join(lines[3:]).encode())
        with pytest.raises(ParseError, match="non-ASCII byte 0xe9") as info:
            formats.read_cam(path)
        assert info.value.line == 3

    def test_small_rotation_drift_fixed_silently(self, tmp_path):
        import warnings

        path, lines = self._valid_lines(tmp_path)
        row = [float(v) for v in lines[1].split()]
        row[0] += 1e-6
        lines[1] = " ".join(f"{v:.17g}" for v in row)
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cam, _ = formats.read_cam(path)
        np.testing.assert_allclose(cam.rotation @ cam.rotation.T, np.eye(3), atol=1e-12)

    def test_large_rotation_drift_warns(self, tmp_path):
        path, lines = self._valid_lines(tmp_path)
        row = [float(v) for v in lines[1].split()]
        row[0] += 0.05
        lines[1] = " ".join(f"{v:.17g}" for v in row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(NonRigidRotationWarning):
            cam, _ = formats.read_cam(path)
        np.testing.assert_allclose(cam.rotation @ cam.rotation.T, np.eye(3), atol=1e-12)


class TestPfm:
    """Grayscale float maps, bottom-to-top, little-endian."""

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(13, 17)).astype(np.float32)
        data[4, 5] = np.nan
        data[0, 0] = np.inf
        path = tmp_path / "d.pfm"
        formats.write_pfm(path, data)
        np.testing.assert_array_equal(formats.read_pfm(path), data)

    def test_mask_becomes_nan(self, tmp_path):
        # A depth map's holes, NaN or +-inf on input, round trip as NaN.
        data = np.ones((3, 4))
        data[1, 2], data[0, 3], data[2, 0] = np.nan, np.inf, -np.inf
        path = tmp_path / "d.pfm"
        formats.write_pfm(path, DepthMap(data).data)
        back = formats.read_pfm(path)
        np.testing.assert_array_equal(np.isnan(back), ~np.isfinite(data))
        assert back[0, 0] == 1.0

    def test_byte_layout(self, tmp_path):
        # Bottom row is stored first: [[1, 2], [3, 4]] serializes as
        # header + float32 bytes of 3, 4, 1, 2.
        path = tmp_path / "d.pfm"
        formats.write_pfm(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n2 2\n-1.0\n")
        payload = np.frombuffer(raw[len(b"Pf\n2 2\n-1.0\n"):], dtype="<f4")
        np.testing.assert_array_equal(payload, [3.0, 4.0, 1.0, 2.0])

    def test_whitespace_looking_payload_bytes(self, tmp_path):
        # A float whose first byte is 0x20 must not be eaten as header
        # whitespace.
        tricky = np.frombuffer(b"\x20\x00\x80\x40", dtype="<f4")[0]
        data = np.full((2, 2), tricky, dtype=np.float32)
        path = tmp_path / "d.pfm"
        formats.write_pfm(path, data)
        np.testing.assert_array_equal(formats.read_pfm(path), data)

    def test_color_pfm_rejected(self, tmp_path):
        path = tmp_path / "c.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(ParseError, match="color PFM is not supported"):
            formats.read_pfm(path)

    def test_big_endian_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n1.0\n" + b"\x00" * 16)
        with pytest.raises(BigEndianUnsupportedError):
            formats.read_pfm(path)

    def test_zero_scale_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n0\n" + b"\x00" * 16)
        with pytest.raises(ParseError):
            formats.read_pfm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(ParseError, match="data bytes"):
            formats.read_pfm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Px\n2 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(ParseError):
            formats.read_pfm(path)

    def test_bad_dimensions(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n0 2\n-1.0\n")
        with pytest.raises(ParseError):
            formats.read_pfm(path)

    @pytest.mark.parametrize("scale", [b"nan", b"-nan", b"inf", b"-inf", b"-1e999"])
    def test_non_finite_scale_rejected(self, tmp_path, scale):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + b"\x00" * 16)
        with pytest.raises(ParseError, match="scale must be finite") as info:
            formats.read_pfm(path)
        assert not isinstance(info.value, BigEndianUnsupportedError)

    def test_header_comments(self, tmp_path):
        # The PPM header rule: a comment runs to the end of its line.
        path = tmp_path / "d.pfm"
        data = np.array([[1.5, -2.0]], dtype="<f4")
        path.write_bytes(b"Pf # depth\n# by hand\n2 1\n-1.0\n" + data.tobytes())
        np.testing.assert_array_equal(formats.read_pfm(path), data)

    def test_negative_dimensions(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n-2 -3\n-1.0\n" + b"\x00" * 24)
        with pytest.raises(ParseError, match="bad dimensions -2x-3") as info:
            formats.read_pfm(path)
        assert info.value.line == 2

    def test_write_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_pfm(tmp_path / "d.pfm", np.zeros((2, 2, 3)))

    def test_write_holds_one_payload_copy(self, tmp_path):
        # A float64 map is cast into the bottom-to-top float32 payload,
        # the only copy the writer makes, and the file is the header
        # followed by the same bytes a cast, a flip and a join give.
        data = np.random.default_rng(3).uniform(500.0, 700.0, size=(264, 480))
        data[::7, ::5] = np.nan
        path = tmp_path / "d.pfm"
        tracemalloc.start()
        try:
            formats.write_pfm(path, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * data.size * 4
        want = b"Pf\n480 264\n-1.0\n" + data.astype("<f4")[::-1].tobytes()
        assert path.read_bytes() == want


class TestPpm:
    """Binary P5/P6 images with maxval 255."""

    def test_color_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.uniform(size=(5, 7, 3))
        path = tmp_path / "i.ppm"
        formats.write_image(path, image)
        back = formats.read_image(path)
        np.testing.assert_allclose(back, np.rint(image * 255.0) / 255.0, atol=1e-12)

    def test_gray_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        image = rng.uniform(size=(4, 6))
        path = tmp_path / "i.pgm"
        formats.write_image(path, image)
        back = formats.read_image(path)
        assert back.shape == (4, 6)
        np.testing.assert_allclose(back, np.rint(image * 255.0) / 255.0, atol=1e-12)

    def test_quantization_and_clipping(self, tmp_path):
        path = tmp_path / "i.pgm"
        formats.write_image(path, np.array([[0.0, 0.5, 1.0, 1.5, -0.5]]))
        raw = path.read_bytes()
        # rint(127.5) rounds to the even 128.
        assert raw.endswith(bytes([0, 128, 255, 255, 0]))

    def test_header_comments(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n255\n\x10\x20")
        back = formats.read_image(path)
        np.testing.assert_allclose(back, [[16 / 255.0, 32 / 255.0]], atol=1e-12)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\x00\x00\x00\x00")
        with pytest.raises(ParseError, match="only maxval 255 is supported, got 65535"):
            formats.read_image(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ParseError):
            formats.read_image(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00")
        with pytest.raises(ParseError):
            formats.read_image(path)

    @pytest.mark.parametrize("dims", [b"-2 -3", b"0 6", b"3 -2"])
    def test_non_positive_dimensions(self, tmp_path, dims):
        # -2 x -3 still claims the 6 bytes that are there.
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(6))
        with pytest.raises(ParseError, match="bad dimensions"):
            formats.read_image(path)

    # Three header fields and whitespace after them.  A scanner that may
    # split "12" into two fields, or stop a comment at its space and read
    # "255" as a field, finds a valid 1 x 2 or 1 x 1 image here.
    @pytest.mark.parametrize("raw", [b"P5\n12 255\n\n\n", b"P5\n1 1\n# 255 \n"])
    def test_too_few_header_fields(self, tmp_path, raw):
        path = tmp_path / "i.pgm"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="truncated header"):
            formats.read_image(path)

    def test_write_rejects_bad_shape(self, tmp_path):
        # The shape is checked before anything is quantized.
        image = np.zeros((264, 480, 4))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                formats.write_image(tmp_path / "i.ppm", image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < image.size

    @pytest.mark.parametrize("shape, magic", [((264, 480, 3), b"P6"), ((264, 480), b"P5")])
    def test_write_holds_one_temporary(self, tmp_path, shape, magic):
        # One float64 temporary (8 bytes per written byte) and the uint8
        # payload, and the same bytes as the plain quantize-and-join.
        image = np.random.default_rng(4).uniform(-0.1, 1.1, size=shape)
        path = tmp_path / "i.ppm"
        tracemalloc.start()
        try:
            formats.write_image(path, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9.5 * image.size
        quantized = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
        assert path.read_bytes() == magic + b"\n480 264\n255\n" + quantized.tobytes()


def _rgb_cloud(n=20, seed=3) -> PointCloud:
    rng = np.random.default_rng(seed)
    xyz = rng.normal(size=(n, 3)).astype(np.float32).astype(np.float64)
    rgb = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return PointCloud(xyz, rgb)


class TestPly:
    """Point cloud serialization in both encodings."""

    @pytest.mark.parametrize("mode", ["ascii", "binary"])
    def test_round_trip_with_rgb(self, tmp_path, mode):
        cloud = _rgb_cloud()
        path = tmp_path / "c.ply"
        formats.write_ply(path, cloud, mode=mode)
        back = formats.read_ply(path)
        np.testing.assert_allclose(back.xyz, cloud.xyz, rtol=1e-6, atol=1e-7)
        np.testing.assert_array_equal(back.rgb, cloud.rgb)

    @pytest.mark.parametrize("mode", ["ascii", "binary"])
    def test_rewrite_is_byte_identical(self, tmp_path, mode):
        # write -> read -> write must reproduce the file exactly; float32
        # positions survive the 9-significant-digit ascii rendering.
        cloud = _rgb_cloud(seed=4)
        first = tmp_path / "a.ply"
        second = tmp_path / "b.ply"
        formats.write_ply(first, cloud, mode=mode)
        formats.write_ply(second, formats.read_ply(first), mode=mode)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("colored", [False, True])
    def test_binary_write_holds_one_record_copy(self, tmp_path, colored):
        # The file's records are the only copy of the cloud that the
        # writer makes: no float32 coordinate array, bytes object or
        # header-plus-payload concatenation besides them.
        rng = np.random.default_rng(2)
        n = 50_000
        rgb = rng.integers(0, 256, size=(n, 3), dtype=np.uint8) if colored else None
        cloud = PointCloud(rng.normal(scale=300.0, size=(n, 3)), rgb)
        record_bytes = n * (15 if colored else 12)
        tracemalloc.start()
        try:
            formats.write_ply(tmp_path / "c.ply", cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * record_bytes

    def test_binary_round_trip_exact(self, tmp_path):
        cloud = _rgb_cloud(seed=5)
        path = tmp_path / "c.ply"
        formats.write_ply(path, cloud)
        back = formats.read_ply(path)
        np.testing.assert_array_equal(back.xyz, cloud.xyz)  # float32 in, float32 out

    @pytest.mark.parametrize("colored", [False, True])
    def test_both_encodings_read_back_the_same_xyz(self, tmp_path, colored):
        # float64 coordinates that float32 cannot hold, so the ascii text
        # carries digits that a float64 parse would keep.
        rng = np.random.default_rng(11)
        xyz = np.concatenate([rng.normal(scale=300.0, size=(200, 3)),
                              [[0.1, -2.0 / 3.0, 1e3 / 7.0]]])
        rgb = rng.integers(0, 256, size=(201, 3), dtype=np.uint8) if colored else None
        backs = []
        for mode in ("ascii", "binary"):
            path = tmp_path / f"{mode}.ply"
            formats.write_ply(path, PointCloud(xyz, rgb), mode=mode)
            backs.append(formats.read_ply(path).xyz)
        stored = xyz.astype(np.float32).astype(np.float64)
        assert backs[0].dtype == backs[1].dtype == np.float64
        assert backs[0].tobytes() == backs[1].tobytes() == stored.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["ascii", "binary"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_coordinates(self, tmp_path, mode, bad):
        # 1e39 is finite in float64 but beyond float32's range.
        path = tmp_path / "c.ply"
        if mode == "ascii":
            path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 2\n"
                             b"property float x\nproperty float y\nproperty float z\n"
                             b"end_header\n0 1 2\n3 %r 5\n" % bad)
        else:
            with np.errstate(over="ignore"):
                formats.write_ply(path, PointCloud([[0.0, 1.0, 2.0], [3.0, bad, 5.0]]))
        with pytest.raises(ParseError, match="coordinates must be finite"):
            formats.read_ply(path)

    def test_no_rgb(self, tmp_path):
        cloud = PointCloud(np.eye(3))
        path = tmp_path / "c.ply"
        formats.write_ply(path, cloud, mode="ascii")
        back = formats.read_ply(path)
        assert back.rgb is None
        np.testing.assert_allclose(back.xyz, np.eye(3), atol=1e-7)

    def test_empty_cloud(self, tmp_path):
        for mode in ("ascii", "binary"):
            path = tmp_path / f"{mode}.ply"
            formats.write_ply(path, PointCloud.empty(), mode=mode)
            assert len(formats.read_ply(path)) == 0

    @pytest.mark.parametrize("mode", ["ascii", "binary"])
    @pytest.mark.parametrize("colored", [False, True])
    def test_read_cloud_is_locked(self, tmp_path, mode, colored):
        # read_ply hands its own arrays to the cloud without a copy, so
        # the cloud must still refuse writes and a writeable flag.
        cloud = _rgb_cloud(n=5) if colored else PointCloud(np.eye(3))
        path = tmp_path / "c.ply"
        formats.write_ply(path, cloud, mode=mode)
        back = formats.read_ply(path)
        arrays = (back.xyz, back.rgb) if colored else (back.xyz,)
        for array in arrays:
            assert array.flags.c_contiguous
            with pytest.raises(ValueError):
                array[0, 0] = 1
            with pytest.raises(ValueError):
                array.flags.writeable = True

    def test_header_contents(self, tmp_path):
        path = tmp_path / "c.ply"
        formats.write_ply(path, _rgb_cloud(n=7), mode="binary")
        text = path.read_bytes().split(b"end_header")[0].decode()
        assert "format binary_little_endian 1.0" in text
        assert "element vertex 7" in text
        assert "property float x" in text and "property uchar red" in text

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_ply(tmp_path / "c.ply", PointCloud.empty(), mode="base64")

    def test_missing_end_header(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 0\n")
        with pytest.raises(ParseError):
            formats.read_ply(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(b"obj\nend_header\n")
        with pytest.raises(ParseError):
            formats.read_ply(path)

    def test_unsupported_element(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement face 1\nproperty float x\nend_header\n"
        )
        with pytest.raises(ParseError, match="unsupported element 'face'"):
            formats.read_ply(path)

    def test_wrong_property_order(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property float z\nproperty float y\nproperty float x\n"
            b"end_header\n0 0 0\n"
        )
        with pytest.raises(ParseError, match="x, y, z"):
            formats.read_ply(path)

    def test_ascii_count_mismatch(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 2\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"end_header\n0 0 0\n"
        )
        with pytest.raises(ParseError):
            formats.read_ply(path)

    @pytest.mark.parametrize("header, line", [
        (b"format\nelement vertex 1\n", 2),
        (b"format ascii 1.0\nelement vertex zz\n", 3),
        (b"format ascii 1.0\nelement vertex -1\n", 3),
        (b"format ascii 1.0\nelement\n", 3),
        (b"format ascii 1.0\nelement vertex 1\nproperty float\n", 4),
    ])
    def test_malformed_header_line(self, tmp_path, header, line):
        path = tmp_path / "c.ply"
        path.write_bytes(b"ply\n" + header + b"end_header\n")
        with pytest.raises(ParseError) as info:
            formats.read_ply(path)
        assert info.value.line == line

    def test_short_binary_payload(self, tmp_path):
        path = tmp_path / "c.ply"
        formats.write_ply(path, _rgb_cloud(), mode="binary")
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParseError, match="data bytes"):
            formats.read_ply(path)

    def test_binary_vertex_with_normals_is_rejected(self, tmp_path):
        # The record is x y z nx ny nz; sizing it from x y z alone would
        # read the first point's normal as the second point.
        path = tmp_path / "c.ply"
        body = np.array([[1, 2, 3, 0, 0, 1], [4, 5, 6, 0, 1, 0]], dtype="<f4")
        path.write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"property float nx\nproperty float ny\nproperty float nz\n"
            b"end_header\n" + body.tobytes()
        )
        with pytest.raises(ParseError, match="float nx") as info:
            formats.read_ply(path)
        assert info.value.line == 7

    @pytest.mark.parametrize("props, offending", [
        (b"property double x\nproperty double y\nproperty double z\n", b"double x"),
        (b"property float x\nproperty float y\nproperty float z\n"
         b"property uchar red\nproperty uchar green\n", b"uchar green"),
        (b"property float x\nproperty float y\nproperty float z\n"
         b"property float red\nproperty float green\nproperty float blue\n",
         b"float red"),
        (b"property float x\nproperty float y\nproperty float z\n"
         b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
         b"property uchar alpha\n", b"uchar alpha"),
    ], ids=["double-xyz", "partial-rgb", "float-rgb", "extra-alpha"])
    def test_unreadable_binary_layout(self, tmp_path, props, offending):
        path = tmp_path / "c.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
                         + props + b"end_header\n")
        with pytest.raises(ParseError, match=offending.decode()):
            formats.read_ply(path)

    def test_ascii_extra_properties_still_read(self, tmp_path):
        # Ascii rows are split on whitespace, so extra columns are skipped.
        path = tmp_path / "c.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 2\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"property float nx\nproperty float ny\nproperty float nz\n"
            b"end_header\n1 2 3 0 0 1\n4 5 6 0 1 0\n"
        )
        np.testing.assert_array_equal(formats.read_ply(path).xyz, [[1, 2, 3], [4, 5, 6]])

    def test_non_numeric_ascii_values(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"end_header\n0 zero 0\n"
        )
        with pytest.raises(ParseError, match="vertex data"):
            formats.read_ply(path)

    def test_bad_ascii_value_names_its_line(self, tmp_path):
        # Seven header lines, so body line 3 is line 10 of the file.
        path = tmp_path / "c.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 4\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"end_header\n1 2 3\n4 5 6\n7 zero 9\n1 1 1\n"
        )
        with pytest.raises(ParseError, match="bad vertex data: .*'zero'") as caught:
            formats.read_ply(path)
        assert caught.value.line == 10
        assert str(caught.value).endswith("(line 10)")


    @pytest.mark.parametrize("color", [b"300", b"-1", b"2.5", b"nan", b"inf"])
    def test_ascii_color_out_of_range(self, tmp_path, color):
        path = tmp_path / "c.ply"
        formats.write_ply(path, _rgb_cloud(n=2), mode="ascii")
        head, body = path.read_bytes().split(b"end_header\n")
        rows = body.splitlines()
        rows[1] = b" ".join(rows[1].split()[:4] + [color] + rows[1].split()[5:])
        path.write_bytes(head + b"end_header\n" + b"\n".join(rows) + b"\n")
        with pytest.raises(ParseError, match="colors must be integers"):
            formats.read_ply(path)

    def test_non_ascii_header(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(b"ply\nformat ascii 1.0\ncomment \xff\nelement vertex 0\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n")
        with pytest.raises(ParseError, match="non-ASCII") as info:
            formats.read_ply(path)
        assert info.value.line == 3


class TestTensorContainer:
    """Named float32 tensor files with a JSON manifest line."""

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        tensors = {
            "a.kernel": rng.normal(size=(4, 3, 3, 3)).astype(np.float32).astype(np.float64),
            "a.bias": np.zeros(4),
            "empty": np.zeros((0, 3)),
        }
        path = tmp_path / "w.bin"
        formats.save_tensors(path, tensors)
        back = formats.load_tensors(path)
        assert list(back) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(back[name], np.asarray(tensors[name], dtype=np.float64))
            assert back[name].shape == np.shape(tensors[name])

    def test_zero_dim_input_becomes_1d(self, tmp_path):
        # Contiguity coercion promotes 0-d arrays; the stored shape is
        # what comes back.
        path = tmp_path / "w.bin"
        formats.save_tensors(path, {"scalar": np.float32(2.5)})
        back = formats.load_tensors(path)
        assert back["scalar"].shape == (1,)
        assert back["scalar"][0] == 2.5

    def test_float64_rounds_through_float32(self, tmp_path):
        path = tmp_path / "w.bin"
        formats.save_tensors(path, {"pi": np.array([np.pi])})
        back = formats.load_tensors(path)
        assert back["pi"][0] == np.float64(np.float32(np.pi))

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b'{"magic": "other", "dtype": "<f4", "tensors": []}\n')
        with pytest.raises(ParseError):
            formats.load_tensors(path)

    def test_bad_manifest_json(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"not json at all\n")
        with pytest.raises(ParseError):
            formats.load_tensors(path)

    def test_non_ascii_manifest(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b'{"magic": "mvsweep-tensors\xc3\xa9"}\n')
        with pytest.raises(ParseError, match="non-ASCII byte 0xc3") as info:
            formats.load_tensors(path)
        assert info.value.line == 1

    def test_missing_newline(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b'{"magic": "mvsweep-tensors"}')
        with pytest.raises(ParseError):
            formats.load_tensors(path)

    def test_truncated_tensor(self, tmp_path):
        path = tmp_path / "w.bin"
        formats.save_tensors(path, {"x": np.zeros(8)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ParseError, match="truncated tensor 'x'"):
            formats.load_tensors(path)

    @pytest.mark.parametrize("tensors, message", [
        (None, "missing 'tensors'"),
        ([{"name": "x", "offset": 0}], "missing 'shape'"),
        ([{"name": "x", "shape": [2]}], "missing 'offset'"),
        ([{"shape": [2], "offset": 0}], "missing 'name'"),
        (3, "bad manifest"),
        (["x"], "bad manifest"),
        ([{"name": "x", "shape": [2], "offset": "zero"}], "bad manifest"),
        ([{"name": "x", "shape": [-1, -2], "offset": 0}], "negative"),
        ([{"name": "x", "shape": [1e999], "offset": 0}], "bad manifest"),
        ([{"name": "x", "shape": [2], "offset": 1e999}], "bad manifest"),
        # The element count overflows int64, so it must not be taken in numpy.
        ([{"name": "x", "shape": [2 ** 32, 2 ** 32], "offset": 0}], "data bytes"),
        ([{"name": ["x"], "shape": [2], "offset": 0}], "not a string"),
        # No elements, but a dimension numpy cannot index.
        ([{"name": "x", "shape": [0, 2 ** 70], "offset": 0}], "has shape"),
    ])
    def test_malformed_manifest(self, tmp_path, tensors, message):
        manifest = {"magic": "mvsweep-tensors", "version": 1, "dtype": "<f4"}
        if tensors is not None:
            manifest["tensors"] = tensors
        path = tmp_path / "w.bin"
        path.write_bytes(json.dumps(manifest).encode("ascii") + b"\n" + bytes(64))
        with pytest.raises(ParseError, match=message):
            formats.load_tensors(path)

    def test_manifest_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"[1, 2]\n")
        with pytest.raises(ParseError, match="not a tensor container"):
            formats.load_tensors(path)


class TestProjectLayout:
    """Working-directory naming and the pair list."""

    def test_paths(self, tmp_path):
        layout = formats.ProjectLayout(tmp_path)
        assert layout.image(3).name == "00000003.ppm"
        assert layout.cam(12).name == "00000012_cam.txt"
        assert layout.depth(0).name == "00000000.pfm"
        assert layout.confidence(0).name == "00000000_conf.pfm"
        assert layout.gt_depth(5).parent.name == "gt_depths"
        assert layout.pair.name == "pair.txt"
        assert layout.cloud.name == "cloud.ply"
        assert layout.gt_cloud.name == "gt.ply"

    def test_make_dirs(self, tmp_path):
        layout = formats.ProjectLayout(tmp_path / "job")
        layout.make_dirs()
        assert (tmp_path / "job" / "images").is_dir()
        assert not (tmp_path / "job" / "gt_depths").exists()
        layout.make_dirs(with_gt=True)
        assert (tmp_path / "job" / "gt_depths").is_dir()

    def test_pairs_round_trip(self, tmp_path):
        layout = formats.ProjectLayout(tmp_path)
        pairs = {0: [1, 2], 2: [1, 0], 1: [0, 2, 3]}
        layout.write_pairs(pairs)
        back = layout.read_pairs()
        assert back == pairs
        # First line is the view count; references are sorted.
        lines = layout.pair.read_text().splitlines()
        assert lines[0] == "3"
        assert lines[1].startswith("0 ")

    def test_view_count(self, tmp_path):
        layout = formats.ProjectLayout(tmp_path)
        layout.make_dirs()
        for i in range(4):
            formats.write_image(layout.image(i), np.zeros((2, 2, 3)))
        assert layout.view_count() == 4

    def test_read_pairs_errors(self, tmp_path):
        layout = formats.ProjectLayout(tmp_path)
        layout.pair.write_text("")
        with pytest.raises(ParseError):
            layout.read_pairs()
        layout.pair.write_text("zebra\n")
        with pytest.raises(ParseError):
            layout.read_pairs()

    @pytest.mark.parametrize("text, line", [
        ("2\n0 1\n1 0 x\n", 3),
        ("2\n0 1.5\n1 0\n", 2),
        ("2\n0 1\n1 -1\n", 3),
        ("2\n0 1\n0 2\n", 3),  # view 0 is a reference twice
        ("2\n0 0 1\n1 0\n", 2),  # view 0 is its own source
        ("2\n0 1 1\n1 0\n", 2),  # view 0 lists source 1 twice
    ])
    def test_malformed_pair_line(self, tmp_path, text, line):
        layout = formats.ProjectLayout(tmp_path)
        layout.pair.write_text(text)
        with pytest.raises(ParseError) as info:
            layout.read_pairs()
        assert info.value.line == line

    @pytest.mark.parametrize("text, message, line", [
        ("-1\n", "bad view count -1", 1),
        ("3\n0 1\n1 0\n", "bad view count 3: 2 lines follow", 1),
        ("2\n", "bad view count 2: 0 lines follow", 1),
        ("1e999\n0 1\n", "invalid literal", 1),
        ("2\n0 1\n\u00e9\n", "non-ASCII", 3),
    ])
    def test_bad_view_count_or_text(self, tmp_path, text, message, line):
        layout = formats.ProjectLayout(tmp_path)
        layout.pair.write_bytes(text.encode("latin-1"))
        with pytest.raises(ParseError, match=message) as info:
            layout.read_pairs()
        assert info.value.line == line

    def test_zero_views(self, tmp_path):
        layout = formats.ProjectLayout(tmp_path)
        layout.pair.write_text("0\n")
        assert layout.read_pairs() == {}


# ---------------------------------------------------------------------------
# Fuzzing every reader


def _read_pairs(path):
    return formats.ProjectLayout(path.parent).read_pairs()


# Sample name -> (file name, reader).
_READERS = {
    "pfm": ("d.pfm", formats.read_pfm),
    "ppm": ("i.ppm", formats.read_image),
    "pgm": ("i.pgm", formats.read_image),
    "ply-ascii": ("a.ply", formats.read_ply),
    "ply-binary": ("b.ply", formats.read_ply),
    "cam": ("cam.txt", formats.read_cam),
    "pair": ("pair.txt", _read_pairs),
    "tensors": ("w.bin", formats.load_tensors),
}

# A token is a run of word characters, dots and signs: a number, a
# keyword or a JSON key.
_TOKEN = re.compile(rb"[\w.+-]+")

# (kind, position, argument): flip the bits of ``argument`` in one byte,
# delete ``argument`` bytes, or replace one token by ``argument``.  The
# position wraps around the byte or token count.  The examples below also
# use ("replace", old, new), which replaces the first ``old`` bytes.
_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.integers(1, 8)),
    st.tuples(st.just("token"), st.integers(0, 1 << 16),
              st.sampled_from([b"-1", b"0", b"inf", b"nan", b"1e999"])),
)


def _mutate(raw: bytes, edits) -> bytes:
    data = bytearray(raw)
    for kind, at, arg in edits:
        if not data:
            break
        if kind == "replace":
            assert at in data, at
            data = data.replace(at, arg, 1)
        elif kind == "flip":
            data[at % len(data)] ^= arg
        elif kind == "delete":
            del data[at % len(data):at % len(data) + arg]
        else:
            tokens = list(_TOKEN.finditer(data))
            if tokens:
                token = tokens[at % len(tokens)]
                data[token.start():token.end()] = arg
    return bytes(data)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Valid bytes of every format, and a directory to write mutants to."""
    root = tmp_path_factory.mktemp("valid")
    files = {name: root / file_name for name, (file_name, _) in _READERS.items()}
    formats.write_pfm(files["pfm"], np.arange(6.0).reshape(2, 3))
    formats.write_image(files["ppm"], np.full((2, 3, 3), 0.5))
    formats.write_image(files["pgm"], np.full((2, 3), 0.25))  # 3 x 2: six bytes
    formats.write_ply(files["ply-ascii"], _rgb_cloud(n=3), mode="ascii")
    formats.write_ply(files["ply-binary"], _rgb_cloud(n=3), mode="binary")
    formats.write_cam(files["cam"], _camera(), formats.DepthRange(425.0, 2.5, 64, 582.5))
    formats.ProjectLayout(root).write_pairs({0: [1, 2], 1: [0], 2: [1, 0]})
    formats.save_tensors(files["tensors"], {"a": np.ones((2, 3)), "b": np.zeros(2)})
    mutants = tmp_path_factory.mktemp("mutants")
    return {name: path.read_bytes() for name, path in files.items()}, mutants



class TestFuzz:
    """Mutated files either read or raise ParseError, never anything else."""

    @pytest.mark.filterwarnings("ignore::mvsweep.errors.NonRigidRotationWarning")
    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(sorted(_READERS)),
           edits=st.lists(_EDITS, min_size=1, max_size=4))
    # -2 x -3 still claims the six bytes of the 3 x 2 payload.
    @example(name="pgm", edits=[("replace", b"\n3 2\n", b"\n-2 -3\n")])
    @example(name="pair", edits=[("flip", 0, 0x80)])
    @example(name="cam", edits=[("flip", 0, 0x80)])
    @example(name="cam", edits=[("replace", b" 64 ", b" inf ")])  # the depth count
    @example(name="cam", edits=[("replace", b"0.8660254037844", b"nan")])  # a rotation entry
    @example(name="tensors", edits=[("replace", b"[2, 3]", b"[1e999, 3]")])
    @example(name="pfm", edits=[("replace", b"-1.0", b"nan")])  # the scale
    @example(name="ply-ascii", edits=[("replace", b" 255 ", b" nan ")])  # a red value
    @example(name="pair", edits=[("replace", b"3\n", b"-1\n")])  # the view count
    def test_mutants_read_or_raise_parse_error(self, valid_files, name, edits):
        samples, mutants = valid_files
        file_name, read = _READERS[name]
        path = mutants / file_name
        path.write_bytes(_mutate(samples[name], edits))
        try:
            read(path)
        except ParseError:
            pass
