"""File formats: cameras, depth maps, images, clouds, weight containers.

Round-trips every on-disk format through a temporary directory and
shows the project layout the CLI reads and writes. All writers are
deterministic; the loop at the end proves byte-stability, which is what
makes pipeline outputs diffable across runs.

Run:  python3 demos/05_file_formats.py
"""

import tempfile
from pathlib import Path

import numpy as np

from mvsweep import formats, fusion, geometry


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="mvsweep_formats_") as tmp:
        show_formats(Path(tmp))


def show_formats(root: Path) -> None:
    print(f"writing under {root}")

    print()
    print("== Camera file (text) ==")
    angle = np.deg2rad(30.0)
    cam = geometry.Camera(
        intrinsic=np.array([[140.0, 0.0, 31.5], [0.0, 140.0, 23.5], [0.0, 0.0, 1.0]]),
        rotation=np.array([
            [np.cos(angle), 0.0, np.sin(angle)],
            [0.0, 1.0, 0.0],
            [-np.sin(angle), 0.0, np.cos(angle)],
        ]),
        translation=np.array([12.0, -3.0, 650.0]),
    )
    depth_range = formats.DepthRange(500.0, 2.5, count=128, d_max=817.5)
    formats.write_cam(root / "cam.txt", cam, depth_range)
    cam2, range2 = formats.read_cam(root / "cam.txt")
    drift = max(np.abs(cam2.rotation - cam.rotation).max(),
                np.abs(cam2.translation - cam.translation).max())
    print((root / "cam.txt").read_text().splitlines()[0], "... (extrinsic block)")
    print(f"round-trip drift {drift:.2e}; depth line carries "
          f"[{range2.d_min}, {range2.d_max}] in {range2.count} steps")

    print()
    print("== Depth map (PFM) and image (PPM) ==")
    depth = np.linspace(500.0, 800.0, 48 * 64).reshape(48, 64).astype("<f4")
    depth[0, 0] = np.nan  # invalid pixels travel as NaN
    formats.write_pfm(root / "depth.pfm", depth)
    back = formats.read_pfm(root / "depth.pfm")
    print(f"pfm payload bit-exact: {np.asarray(back, '<f4').tobytes() == depth.tobytes()}")

    image = np.dstack([np.linspace(0.0, 1.0, 64)[None, :].repeat(48, 0)] * 3)
    formats.write_image(root / "image.ppm", image)
    image2 = formats.read_image(root / "image.ppm")
    print(f"ppm round trip max err {np.abs(image2 - image).max():.4f} "
          "(8-bit quantization)")

    print()
    print("== Point clouds (PLY, ascii and binary) ==")
    rng = np.random.default_rng(0)
    cloud = fusion.PointCloud(rng.standard_normal((100, 3)) * 50.0,
                              rng.integers(0, 256, (100, 3)).astype(np.uint8))
    for mode in ("ascii", "binary"):
        path = root / f"cloud_{mode}.ply"
        formats.write_ply(path, cloud, mode=mode)
        again = root / f"cloud_{mode}_again.ply"
        formats.write_ply(again, formats.read_ply(path), mode=mode)
        stable = path.read_bytes() == again.read_bytes()
        print(f"{mode:6s}: {path.stat().st_size:6d} bytes, "
              f"write-read-write byte-stable: {stable}")

    print()
    print("== Weight container ==")
    tensors = {"layer.kernel": rng.standard_normal((8, 4, 3, 3)),
               "layer.bias": rng.standard_normal(8)}
    formats.save_tensors(root / "weights.bin", tensors)
    loaded = formats.load_tensors(root / "weights.bin")
    print(f"stored {sorted(loaded)} "
          f"(float32 payload, one-line JSON manifest up front)")

    print()
    print("== Project layout ==")
    layout = formats.ProjectLayout(root / "project")
    layout.make_dirs(with_gt=True)
    layout.write_pairs({0: [1, 2], 1: [0, 2], 2: [1, 0]})
    print(f"image 0   -> {layout.image(0).relative_to(root)}")
    print(f"camera 0  -> {layout.cam(0).relative_to(root)}")
    print(f"depth 0   -> {layout.depth(0).relative_to(root)}")
    print(f"pairs     -> {layout.read_pairs()}")


if __name__ == "__main__":
    main()
