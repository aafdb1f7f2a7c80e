import numpy as np
import pytest

from turnscan import errors
from turnscan.geometry import (
    DepthMap,
    PinholeCamera,
    Plane,
    PointCloud,
    RigidTransform,
    TriangleMesh,
    backproject,
    compose,
    invert,
    project_points,
    project_to_se3,
    rotation_angle,
    rotation_x,
    rotation_z,
    transform_points,
)


def random_transform(rng):
    axis = rng.normal(size=3)
    angle = rng.uniform(-np.pi, np.pi)
    from turnscan.geometry import axis_angle

    return RigidTransform(axis_angle(axis, angle), rng.uniform(-100, 100, size=3))


# ----------------------------------------------------------------- types


def test_rigid_transform_rejects_non_rotation():
    with pytest.raises(errors.ValidationError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))


def test_rigid_transform_rejects_reflection():
    m = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(errors.ValidationError):
        RigidTransform(m, np.zeros(3))


def test_point_cloud_validates_aligned_attributes():
    with pytest.raises(errors.ValidationError):
        PointCloud(np.zeros((3, 3)), colors=np.zeros((2, 3)))
    with pytest.raises(errors.ValidationError):
        PointCloud(np.zeros((2, 3)), normals=np.array([[1, 0, 0], [3, 0, 0]]))


def test_mesh_rejects_degenerate_triangle():
    with pytest.raises(errors.ValidationError):
        TriangleMesh(np.zeros((3, 3)), [[0, 1, 1]])


def test_plane_normal_must_be_unit():
    with pytest.raises(errors.ValidationError):
        Plane(np.array([1.0, 1.0, 0.0]), 0.0)


def test_camera_rejects_non_finite_focal_lengths():
    for fx, fy in ((np.nan, 500.0), (500.0, np.inf), (0.0, 500.0)):
        with pytest.raises(errors.ValidationError, match="focal"):
            PinholeCamera(fx, fy, 320.0, 240.0, 640, 480)


# ----------------------------------------------------------------- compose


def test_compose_identity():
    i = RigidTransform.identity()
    out = compose(i, i)
    np.testing.assert_allclose(out.matrix(), np.eye(4), atol=1e-15)


def test_compose_inverse_law():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = random_transform(rng)
        out = compose(t, invert(t))
        np.testing.assert_allclose(out.matrix(), np.eye(4), atol=1e-12)


def test_compose_two_quarter_turns():
    quarter = RigidTransform(rotation_z(np.pi / 2), np.zeros(3))
    half = compose(quarter, quarter)
    np.testing.assert_allclose(half.rotation, rotation_z(np.pi), atol=1e-12)


def test_compose_associative():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a, b, c = (random_transform(rng) for _ in range(3))
        left = compose(compose(a, b), c).matrix()
        right = compose(a, compose(b, c)).matrix()
        np.testing.assert_allclose(left, right, atol=1e-12)


# ------------------------------------------------------------------ invert


def test_invert_identity():
    out = invert(RigidTransform.identity())
    np.testing.assert_allclose(out.matrix(), np.eye(4), atol=1e-15)


def test_invert_pure_translation():
    t = RigidTransform(np.eye(3), [1.0, 2.0, 3.0])
    np.testing.assert_allclose(invert(t).translation, [-1.0, -2.0, -3.0])


# -------------------------------------------------------- transform_points


def test_transform_points_identity():
    cloud = PointCloud(
        np.array([[1.0, 2.0, 3.0]]),
        colors=np.array([[0.5, 0.25, 0.75]]),
        normals=np.array([[0.0, 0.0, 1.0]]),
    )
    out = transform_points(RigidTransform.identity(), cloud)
    np.testing.assert_array_equal(out.positions, cloud.positions)
    np.testing.assert_array_equal(out.colors, cloud.colors)
    np.testing.assert_array_equal(out.normals, cloud.normals)


def test_transform_points_translation():
    cloud = PointCloud(np.zeros((1, 3)))
    t = RigidTransform(np.eye(3), [0.0, 0.0, 5.0])
    np.testing.assert_allclose(transform_points(t, cloud).positions, [[0, 0, 5]])


def test_transform_points_quarter_turn():
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    t = RigidTransform(rotation_z(np.pi / 2), np.zeros(3))
    np.testing.assert_allclose(
        transform_points(t, cloud).positions, [[0.0, 1.0, 0.0]], atol=1e-12
    )


def test_transform_points_preserves_distances():
    rng = np.random.default_rng(3)
    pts = PointCloud(rng.uniform(-50, 50, size=(40, 3)))
    t = random_transform(rng)
    moved = transform_points(t, pts)
    d_before = np.linalg.norm(pts.positions[:, None] - pts.positions[None], axis=2)
    d_after = np.linalg.norm(moved.positions[:, None] - moved.positions[None], axis=2)
    np.testing.assert_allclose(d_before, d_after, atol=1e-9)


def test_transform_points_rotates_normals_only():
    cloud = PointCloud(
        np.array([[10.0, 0.0, 0.0]]), normals=np.array([[1.0, 0.0, 0.0]])
    )
    t = RigidTransform(rotation_z(np.pi / 2), [5.0, 0.0, 0.0])
    out = transform_points(t, cloud)
    np.testing.assert_allclose(out.normals, [[0.0, 1.0, 0.0]], atol=1e-12)


# ----------------------------------------------------------------- project


CAM = PinholeCamera(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0, width=1000, height=1000)


def test_project_principal_point():
    uv, in_front = project_points(CAM, [[0.0, 0.0, z] for z in (1.0, 250.0, 4000.0)])
    np.testing.assert_allclose(uv, [[500.0, 500.0]] * 3)
    assert in_front.all()


def test_project_arithmetic():
    uv, _ = project_points(CAM, [[10.0, 0.0, 1000.0]])
    np.testing.assert_allclose(uv, [[510.0, 500.0]])


def test_project_flags_nonpositive_depth():
    uv, in_front = project_points(CAM, [[0.0, 0.0, 0.0], [0.0, 0.0, -5.0], [1.0, 2.0, 5.0]])
    np.testing.assert_array_equal(in_front, [False, False, True])
    assert np.all(np.isfinite(uv))


# ------------------------------------------------------------- backproject


def _depth_map(values):
    values = np.asarray(values, dtype=np.float64)
    return DepthMap(width=values.shape[1], height=values.shape[0], values=values)


def test_backproject_all_invalid():
    cam = PinholeCamera(1.0, 1.0, 1.0, 1.0, 3, 2)
    d = _depth_map(np.full((2, 3), -1.0))
    assert len(backproject(cam, d)) == 0


def test_backproject_single_center_pixel():
    cam = PinholeCamera(100.0, 100.0, 1.0, 1.0, 3, 3)
    values = np.full((3, 3), -1.0)
    values[1, 1] = 100.0
    out = backproject(cam, _depth_map(values))
    np.testing.assert_allclose(out.positions, [[0.0, 0.0, 100.0]])


def test_backproject_dimension_mismatch():
    d = _depth_map(np.ones((4, 4)))
    with pytest.raises(errors.DimensionMismatch):
        backproject(CAM, d)


def test_project_backproject_roundtrip():
    rng = np.random.default_rng(5)
    cam = PinholeCamera(800.0, 820.0, 315.5, 240.5, 640, 480)
    values = np.full((480, 640), -1.0)
    coords = rng.integers(0, [640, 480], size=(50, 2))
    depths = rng.uniform(100, 1000, size=50)
    values[coords[:, 1], coords[:, 0]] = depths
    cloud = backproject(cam, _depth_map(values))
    uv, in_front = project_points(cam, cloud.positions)
    assert in_front.all()
    pixels = np.round(uv)
    np.testing.assert_allclose(uv, pixels, atol=1e-9)
    u, v = pixels.astype(int).T
    assert np.all(values[v, u] > 0)


# ---------------------------------------------------------- project_to_se3


def test_project_to_se3_idempotent_on_rotation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        t = random_transform(rng)
        out = project_to_se3(t.rotation, t.translation)
        np.testing.assert_allclose(out.rotation, t.rotation, atol=1e-12)
        np.testing.assert_array_equal(out.translation, t.translation)


def test_project_to_se3_removes_scaling():
    r = rotation_z(np.pi / 4)
    out = project_to_se3(1.01 * r, np.zeros(3))
    np.testing.assert_allclose(out.rotation, r, atol=1e-12)


def test_project_to_se3_rank_deficient():
    m = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) + np.outer(
        [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]
    )
    with pytest.raises(errors.SingularMatrix):
        project_to_se3(m, np.zeros(3))


def test_project_to_se3_random_perturbations_stay_valid():
    rng = np.random.default_rng(21)
    for _ in range(50):
        t = random_transform(rng)
        noisy = t.rotation + rng.uniform(-0.1, 0.1, size=(3, 3))
        out = project_to_se3(noisy, t.translation)
        np.testing.assert_allclose(out.rotation.T @ out.rotation, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(out.rotation) - 1.0) < 1e-9


def test_rotation_angle_of_flip():
    assert rotation_angle(rotation_x(np.pi)) == pytest.approx(np.pi)
    assert rotation_angle(np.eye(3)) == pytest.approx(0.0)
