"""Cameras, projection round trips, and depth-hypothesis sampling.

Walks through the geometric core: build a two-camera rig, project a
world point, chain a reprojection through a known depth map, and look
at how uniform and inverse hypothesis spacing distribute samples.

Run:  python3 demos/01_camera_geometry.py
"""

import numpy as np

from mvsweep import geometry
from mvsweep.depthmap import DepthMap


def main() -> None:
    # A 64x48 pinhole camera at the origin and a second one translated
    # 8 units along +x (a classic narrow-baseline stereo pair).
    k = np.array([[64.0, 0.0, 32.0], [0.0, 64.0, 24.0], [0.0, 0.0, 1.0]])
    ref = geometry.Camera(k, np.eye(3), np.zeros(3))
    src = geometry.Camera(k, np.eye(3), -np.array([8.0, 0.0, 0.0]))

    print("== Projection round trip ==")
    # Every geometry function takes whole arrays; one point is a
    # one-element call.
    point = np.array([40.0, -12.0, 512.0])
    pixel, depth = geometry.project_points(ref, point)
    print(f"world {point} -> pixel {pixel}, depth {depth}")
    back = geometry.back_project_grid(ref, pixel[0], pixel[1], depth)
    print(f"back-projected -> {back} (max err {np.abs(back - point).max():.2e})")

    print()
    print("== Reprojection through a stored depth map ==")
    # The source view stores the true constant depth, so the round trip
    # ref -> src -> ref must land back on the starting pixel.  A failed
    # trip would read NaN.
    xs, ys, depths = np.array([20.0]), np.array([30.0]), np.array([512.0])
    stored = DepthMap(np.full((48, 64), 512.0))
    _, pixel2, depth2 = geometry.reproject_chain_map(ref, src, xs, ys, depths, stored)
    assert np.isfinite(depth2[0])
    xi_p, xi_d = geometry.reprojection_errors_map(xs, ys, pixel2, depths, depth2)
    print(f"landed at {pixel2[0]}, depth {depth2[0]}")
    print(f"reprojection errors: xi_p={xi_p[0]:.2e} px, xi_d={xi_d[0]:.2e}")

    # With a wrong stored depth the round trip comes back displaced;
    # this displacement is exactly what the fusion filters threshold.
    wrong = DepthMap(np.full((48, 64), 640.0))
    _, pixel2, depth2 = geometry.reproject_chain_map(ref, src, xs, ys, depths, wrong)
    xi_p, xi_d = geometry.reprojection_errors_map(xs, ys, pixel2, depths, depth2)
    print(f"with a 25% depth error: xi_p={xi_p[0]:.3f} px, xi_d={xi_d[0]:.3f}")

    print()
    print("== Hypothesis spacing ==")
    for mode in ("uniform", "inverse"):
        space = geometry.HypothesisSpace(400.0, 800.0, 6, mode=mode)
        samples = geometry.sample_hypotheses(space)
        print(f"{mode:8s}: {np.array2string(samples, precision=1)}")
    # Inverse spacing concentrates samples near the camera, where one
    # pixel of disparity spans less depth.

    print()
    print("== Plane-sweep warp field ==")
    coords = geometry.warp_grid(ref, src, 512.0, 64, 48)
    shift = coords[24, 32, 0] - 32.0
    print(f"depth 512 shifts pixel (32,24) by {shift:+.3f} px in the source")
    # The sampler keeps a landing when it lies in [0, 63] x [0, 47].
    x, y = coords[..., 0], coords[..., 1]
    inside = (x >= 0) & (x <= 63) & (y >= 0) & (y <= 47)
    print(f"{inside.sum()} of {inside.size} warped pixels stay inside the source frame")


if __name__ == "__main__":
    main()
