import numpy as np
import pytest

from turnscan import errors
from turnscan.calibration import (
    CalibrationSet,
    CorrespondenceSet,
    ScaleEstimate,
    apply_scale,
    estimate_pose_pnp,
    estimate_scale_scene,
    fit_plane_ransac,
    relative_extrinsic,
)
from turnscan.geometry import (
    DepthMap,
    PinholeCamera,
    Plane,
    PointCloud,
    RigidTransform,
    axis_angle,
    compose,
    invert,
    project_points,
    rotation_angle,
)

CAM = PinholeCamera(fx=1200.0, fy=1180.0, cx=639.5, cy=479.5, width=1280, height=960)


def board_points(rows=6, cols=8, square=25.0):
    ys, xs = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    x = (xs.ravel() - (cols - 1) / 2) * square
    y = (ys.ravel() - (rows - 1) / 2) * square
    return np.column_stack([x, y, np.zeros(x.size)])


def look_down_pose(rng=None, distance=500.0):
    """A pose placing the board in front of the camera, optionally jittered."""
    base = RigidTransform(axis_angle([1.0, 0.0, 0.0], 0.0), [0.0, 0.0, distance])
    if rng is None:
        return base
    wiggle = RigidTransform(
        axis_angle(rng.normal(size=3), rng.uniform(0.05, 0.5)),
        rng.uniform(-60, 60, size=3) * [1, 1, 0.3],
    )
    return compose(wiggle, base)


def project_board(cam, pose, pts):
    p_cam = pose.apply(pts)
    uv = np.column_stack(
        [
            cam.fx * p_cam[:, 0] / p_cam[:, 2] + cam.cx,
            cam.fy * p_cam[:, 1] / p_cam[:, 2] + cam.cy,
        ]
    )
    return uv


def pose_error(a, b):
    """(rotation error rad, translation error mm) between two transforms."""
    delta = compose(a, invert(b))
    return rotation_angle(delta.rotation), float(np.linalg.norm(delta.translation))


# -------------------------------------------------------------------- PnP


def test_pnp_recovers_exact_pose():
    rng = np.random.default_rng(42)
    pts = board_points()
    for _ in range(10):
        truth = look_down_pose(rng)
        corr = CorrespondenceSet(pts, project_board(CAM, truth, pts))
        est = estimate_pose_pnp(CAM, corr)
        rot_err, trans_err = pose_error(est, truth)
        assert rot_err < 1e-6
        assert trans_err < 1e-6


def test_pnp_axis_aligned_center_maps_to_principal_point():
    pts = board_points()
    truth = look_down_pose(distance=500.0)
    corr = CorrespondenceSet(pts, project_board(CAM, truth, pts))
    est = estimate_pose_pnp(CAM, corr)
    uv, _ = project_points(CAM, est.apply(np.zeros((1, 3))))
    np.testing.assert_allclose(uv, [[CAM.cx, CAM.cy]], atol=1e-6)


def test_pnp_rejects_collinear_points():
    pts = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
    corr = CorrespondenceSet(pts, np.tile([100.0, 100.0], (5, 1)))
    with pytest.raises(errors.DegenerateConfiguration):
        estimate_pose_pnp(CAM, corr)


def test_pnp_rejects_too_few_points():
    corr = CorrespondenceSet(np.zeros((3, 3)), np.zeros((3, 2)))
    with pytest.raises(errors.DegenerateConfiguration):
        estimate_pose_pnp(CAM, corr)


def test_pnp_with_pixel_noise_stays_close():
    rng = np.random.default_rng(3)
    pts = board_points()
    truth = look_down_pose(rng)
    uv = project_board(CAM, truth, pts) + rng.normal(0, 0.2, size=(len(pts), 2))
    est = estimate_pose_pnp(CAM, CorrespondenceSet(pts, uv))
    rot_err, trans_err = pose_error(est, truth)
    assert rot_err < np.radians(0.5)
    assert trans_err < 3.0  # depth of a planar target is weakly constrained

    def rms(pose):
        return np.sqrt(np.mean((project_board(CAM, pose, pts) - uv) ** 2))

    # the refined pose must explain the noisy pixels at least as well as truth
    assert rms(est) <= rms(truth)


def test_correspondence_set_requires_planar_points():
    with pytest.raises(errors.ValidationError):
        CorrespondenceSet(np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0]]))


# ----------------------------------------------------- relative extrinsic


def test_relative_extrinsic_constant_set():
    rng = np.random.default_rng(5)
    t_rel = RigidTransform(axis_angle([0.2, 1.0, 0.1], 0.3), [25.0, 3.0, 5.0])
    rgb = [look_down_pose(rng) for _ in range(7)]
    depth = [compose(t_rel, p) for p in rgb]
    est = relative_extrinsic(CalibrationSet(rgb, depth))
    rot_err, trans_err = pose_error(est, t_rel)
    assert rot_err < 1e-9
    assert trans_err < 1e-9


def test_relative_extrinsic_matches_entrywise_median_oracle():
    rng = np.random.default_rng(6)
    t_rel = RigidTransform(axis_angle([1.0, -0.5, 0.3], 0.4), [30.0, -4.0, 8.0])
    rgb, depth, products = [], [], []
    for _ in range(5):
        pose = look_down_pose(rng)
        jitter = RigidTransform(
            axis_angle(rng.normal(size=3), rng.uniform(0, 0.01)),
            rng.normal(0, 0.5, size=3),
        )
        noisy_rel = compose(jitter, t_rel)
        rgb.append(pose)
        depth.append(compose(noisy_rel, pose))
        products.append(compose(noisy_rel, pose).matrix() @ np.linalg.inv(pose.matrix()))
    est = relative_extrinsic(CalibrationSet(rgb, depth))
    # oracle: brute-force median of each of the 12 meaningful entries
    stack = np.stack(products)
    med = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            med[i, j] = np.median(np.sort(stack[:, i, j]))
    from turnscan.geometry import project_to_se3

    oracle = project_to_se3(med[:3, :3], med[:3, 3])
    rot_err, trans_err = pose_error(est, oracle)
    assert rot_err < 1e-9
    assert trans_err < 1e-9


def test_relative_extrinsic_rejects_outlier_scenes():
    rng = np.random.default_rng(7)
    t_rel = RigidTransform(axis_angle([0.0, 1.0, 0.0], 0.2), [20.0, 0.0, 6.0])
    rgb = [look_down_pose(rng) for _ in range(10)]
    depth = [compose(t_rel, p) for p in rgb]
    # two scenes carry gross errors (10 degrees / 50 mm)
    for bad in (2, 7):
        gross = RigidTransform(
            axis_angle(rng.normal(size=3), np.radians(10.0)),
            rng.normal(size=3) * 50.0 / np.sqrt(3),
        )
        depth[bad] = compose(gross, depth[bad])
    est = relative_extrinsic(CalibrationSet(rgb, depth))
    rot_err, trans_err = pose_error(est, t_rel)
    assert rot_err < np.radians(0.1)
    assert trans_err < 0.1


def test_relative_extrinsic_permutation_invariant():
    rng = np.random.default_rng(8)
    t_rel = RigidTransform(axis_angle([0.3, 0.3, 1.0], 0.5), [15.0, 2.0, -3.0])
    rgb, depth = [], []
    for _ in range(9):
        pose = look_down_pose(rng)
        jitter = RigidTransform(
            axis_angle(rng.normal(size=3), rng.uniform(0, 0.02)),
            rng.normal(0, 1.0, size=3),
        )
        rgb.append(pose)
        depth.append(compose(compose(jitter, t_rel), pose))
    a = relative_extrinsic(CalibrationSet(rgb, depth))
    perm = rng.permutation(9)
    b = relative_extrinsic(
        CalibrationSet([rgb[i] for i in perm], [depth[i] for i in perm])
    )
    np.testing.assert_allclose(a.matrix(), b.matrix(), atol=1e-12)


def test_relative_extrinsic_median_stability():
    rng = np.random.default_rng(9)
    t_rel = RigidTransform(axis_angle([0.1, 0.9, 0.2], 0.25), [10.0, 1.0, 2.0])
    rgb = [look_down_pose(rng) for _ in range(9)]
    depth = [compose(t_rel, p) for p in rgb]
    base = relative_extrinsic(CalibrationSet(rgb, depth)).matrix()
    # replace up to floor((n-1)/2) = 4 scenes with arbitrary junk; with the
    # clean scenes all equal, the entry medians cannot move
    junk = RigidTransform(axis_angle([1, 1, 1], 1.0), [500.0, -300.0, 200.0])
    for bad in (0, 3, 5, 8):
        depth[bad] = compose(junk, depth[bad])
    moved = relative_extrinsic(CalibrationSet(rgb, depth)).matrix()
    np.testing.assert_allclose(base, moved, atol=1e-9)


def test_relative_extrinsic_empty_set():
    with pytest.raises(errors.EmptySet):
        relative_extrinsic(CalibrationSet([], []))


# ------------------------------------------------------------ plane RANSAC


def test_ransac_exact_plane_through_origin():
    rng = np.random.default_rng(10)
    xy = rng.uniform(-100, 100, size=(500, 2))
    pts = PointCloud(np.column_stack([xy, np.zeros(500)]))
    plane, inliers = fit_plane_ransac(pts, threshold_mm=0.5, iterations=100, seed=0)
    assert abs(abs(plane.normal[2]) - 1.0) < 1e-9
    assert abs(plane.offset) < 1e-9
    assert len(inliers) == 500


def test_ransac_with_outliers_recovers_plane():
    rng = np.random.default_rng(11)
    n_in, n_out = 700, 300
    true_normal = np.array([0.1, -0.2, 1.0])
    true_normal /= np.linalg.norm(true_normal)
    basis = np.linalg.svd(true_normal.reshape(1, 3))[2][1:]
    coords = rng.uniform(-80, 80, size=(n_in, 2))
    inlier_pts = coords @ basis + true_normal * 12.0
    inlier_pts += rng.normal(0, 0.1, size=inlier_pts.shape)
    outlier_pts = rng.uniform(-100, 100, size=(n_out, 3))
    pts = PointCloud(np.vstack([inlier_pts, outlier_pts]))
    plane, inliers = fit_plane_ransac(pts, threshold_mm=0.5, iterations=300, seed=3)
    cos = abs(float(plane.normal @ true_normal))
    assert np.degrees(np.arccos(min(cos, 1.0))) < 0.1
    assert len(inliers) >= 0.9 * n_in


def test_ransac_too_few_points():
    with pytest.raises(errors.TooFewPoints):
        fit_plane_ransac(PointCloud(np.zeros((2, 3))), 0.5, 10, 0)


def test_ransac_no_consensus():
    rng = np.random.default_rng(12)
    pts = PointCloud(rng.uniform(-100, 100, size=(400, 3)))
    with pytest.raises(errors.NoConsensus):
        fit_plane_ransac(pts, threshold_mm=0.01, iterations=50, seed=1)


def test_ransac_deterministic_and_residuals_bounded():
    rng = np.random.default_rng(13)
    base = rng.uniform(-50, 50, size=(300, 2))
    pts = np.column_stack([base, rng.normal(0, 0.2, size=300)])
    pts = np.vstack([pts, rng.uniform(-50, 50, size=(60, 3))])
    cloud = PointCloud(pts)
    p1, i1 = fit_plane_ransac(cloud, 0.5, 200, seed=9)
    p2, i2 = fit_plane_ransac(cloud, 0.5, 200, seed=9)
    np.testing.assert_array_equal(i1, i2)
    np.testing.assert_array_equal(p1.normal, p2.normal)
    assert p1.offset == p2.offset
    residuals = np.abs(p1.signed_distance(cloud.positions[i1]))
    assert residuals.max() <= 0.5


# ------------------------------------------------------------------ scale


def test_scale_plane_through_origin_gives_unity():
    plane = Plane([0.0, 0.0, 1.0], 0.0)
    assert estimate_scale_scene(plane, [50.0, 0.0, 300.0]) == pytest.approx(1.0)


def test_scale_matches_reported_ratio():
    # plane 0.669 mm above the table, camera 300 mm above the plane
    plane = Plane([0.0, 0.0, 1.0], -0.669)
    alpha = estimate_scale_scene(plane, [0.0, 0.0, 300.669])
    assert alpha == pytest.approx((0.669 + 300.0) / 300.0)
    assert alpha == pytest.approx(1.00223, abs=1e-5)


def test_scale_arithmetic_case():
    plane = Plane([0.0, 0.0, 1.0], -1.0)
    alpha = estimate_scale_scene(plane, [0.0, 0.0, 501.0])
    assert alpha == pytest.approx(1.002)


def test_scale_below_table_is_symmetric():
    plane = Plane([0.0, 0.0, 1.0], 1.0)  # plane 1 mm below the reference origin
    alpha = estimate_scale_scene(plane, [0.0, 0.0, 499.0])
    # camera sits 500 mm above the fitted plane, the origin 1 mm below it
    assert alpha == pytest.approx(499.0 / 500.0)
    assert alpha < 1.0


def test_scale_camera_on_plane():
    with pytest.raises(errors.CameraOnPlane):
        estimate_scale_scene(Plane([0.0, 0.0, 1.0], 0.0), [10.0, 10.0, 0.0])


def test_scale_orientation_independent_of_stored_normal_sign():
    up = Plane([0.0, 0.0, 1.0], -0.5)
    down = Plane([0.0, 0.0, -1.0], 0.5)
    origin = [0.0, 0.0, 400.0]
    assert estimate_scale_scene(up, origin) == pytest.approx(
        estimate_scale_scene(down, origin)
    )


def test_scale_estimate_mean_property():
    est = ScaleEstimate([1.001, 1.002, 1.003])
    assert est.global_scale == pytest.approx(1.002)


# ------------------------------------------------------------- apply scale


def test_apply_scale_identity():
    d = DepthMap(2, 2, np.array([[1.0, -1.0], [2.0, 3.0]]))
    out = apply_scale(d, 1.0)
    np.testing.assert_array_equal(out.values, d.values)


def test_apply_scale_doubles_valid_only():
    d = DepthMap(2, 1, np.array([[100.0, -1.0]]))
    out = apply_scale(d, 2.0)
    np.testing.assert_array_equal(out.values, [[200.0, -1.0]])


def test_apply_scale_reported_alpha():
    d = DepthMap(1, 1, np.array([[500.0]]))
    out = apply_scale(d, 1.00223)
    assert out.values[0, 0] == pytest.approx(501.115)


def test_apply_scale_rejects_nonpositive():
    d = DepthMap(1, 1, np.array([[1.0]]))
    with pytest.raises(errors.NonPositiveScale):
        apply_scale(d, 0.0)


# --------------------------------------------------- scale self-consistency


def test_scale_self_consistency_loop():
    """Applying the estimated scale to the depth and refitting the plane
    shrinks the plane's offset from the reference origin by >= 10x."""
    cam = PinholeCamera(fx=400.0, fy=400.0, cx=159.5, cy=119.5, width=320, height=240)
    pose = RigidTransform(axis_angle([1.0, 0.0, 0.0], np.pi / 7), [0.0, 20.0, 380.0])
    bias = 1 / 1.00223
    us, vs = np.meshgrid(np.arange(320), np.arange(240))
    # synthetic depth of the z=0 reference plane seen through `pose`
    origin = invert(pose).apply(np.zeros(3))
    rot_inv = pose.rotation.T
    dirs = np.stack(
        [(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy, np.ones_like(us, float)],
        axis=-1,
    )
    dirs_ref = dirs @ rot_inv.T
    t_hit = -origin[2] / dirs_ref[..., 2]
    depth = DepthMap(320, 240, np.where(t_hit > 0, t_hit * bias, -1.0))

    def fit(dm):
        from turnscan.geometry import backproject, transform_points

        cloud = backproject(cam, dm)
        ref = transform_points(invert(pose), cloud)
        plane, _ = fit_plane_ransac(ref, 0.5, 100, seed=0)
        return plane

    plane_before = fit(depth)
    alpha = estimate_scale_scene(plane_before, origin)
    assert alpha == pytest.approx(1.00223, abs=1e-4)
    plane_after = fit(apply_scale(depth, alpha))
    d0_before = abs(plane_before.offset)
    d0_after = abs(plane_after.offset)
    assert d0_after <= d0_before / 10.0
