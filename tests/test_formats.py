"""File formats: camera text, PFM maps, PPM images, PLY clouds, tensors.

Round trips are checked at the byte level where the format is binary
(PFM payload layout is hand-assembled in one test) and at parse level
for the text formats.  Malformed inputs must raise ParseError with the
offending path rather than leak numpy/IO errors.
"""

import json

import numpy as np
import pytest

from mvsweep import formats, geometry
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
        data = np.ones((3, 4))
        mask = np.ones((3, 4), dtype=bool)
        mask[1, 2] = False
        path = tmp_path / "d.pfm"
        formats.write_pfm(path, data, mask)
        back = formats.read_pfm(path)
        assert np.isnan(back[1, 2])
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
        with pytest.raises(ParseError, match="color"):
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

    def test_write_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_pfm(tmp_path / "d.pfm", np.zeros((2, 2, 3)))


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
        with pytest.raises(ParseError, match="maxval"):
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

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_image(tmp_path / "i.ppm", np.zeros((2, 2, 4)))


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

    def test_binary_round_trip_exact(self, tmp_path):
        cloud = _rgb_cloud(seed=5)
        path = tmp_path / "c.ply"
        formats.write_ply(path, cloud)
        back = formats.read_ply(path)
        np.testing.assert_array_equal(back.xyz, cloud.xyz)  # float32 in, float32 out

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
        with pytest.raises(ParseError, match="element"):
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
        with pytest.raises(ParseError, match="truncated"):
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
    ])
    def test_malformed_pair_line(self, tmp_path, text, line):
        layout = formats.ProjectLayout(tmp_path)
        layout.pair.write_text(text)
        with pytest.raises(ParseError) as info:
            layout.read_pairs()
        assert info.value.line == line
