"""Tests for the hull test helper, hidden-point removal, and re-dyeing."""

import numpy as np
import pytest

from turnscan.errors import (
    EmptyCloud,
    EmptyInput,
    NoScenes,
    ValidationError,
)
from turnscan.geometry import (
    PinholeCamera,
    PointCloud,
    RgbImage,
    RigidTransform,
    TriangleMesh,
    rotation_x,
)
from turnscan.texturing import (
    RedyeReport,
    VisibilityMask,
    hidden_point_removal,
    redye_mesh,
)

from meshes import convex_hull_3d


def fibonacci_sphere(n, radius):
    golden = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = golden * i
    rxy = np.sqrt(1.0 - z**2)
    return radius * np.column_stack(
        [rxy * np.cos(theta), rxy * np.sin(theta), z]
    )


# ------------------------------------------------------------------ hull


def test_hull_of_tetrahedron():
    pts = np.array(
        [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]]
    )
    mesh = convex_hull_3d(pts)
    assert len(mesh.vertices) == 4
    assert len(mesh.triangles) == 4


def test_hull_of_cube_with_interior_points():
    rng = np.random.default_rng(7)
    corners = np.array(
        [[x, y, z] for x in (0.0, 10.0) for y in (0.0, 10.0) for z in (0.0, 10.0)]
    )
    interior = rng.uniform(1.0, 9.0, (50, 3))
    pts = np.vstack([corners, interior])
    mesh = convex_hull_3d(pts)
    assert len(mesh.vertices) == 8
    got = set(map(tuple, mesh.vertices))
    assert got == set(map(tuple, corners))
    # brute-force containment: every input point behind every face plane
    v, t = mesh.vertices, mesh.triangles
    centroid = v.mean(axis=0)
    diameter = np.linalg.norm(v.max(0) - v.min(0))
    for tri in t:
        a, b, c = v[tri]
        n = np.cross(b - a, c - a)
        n = n / np.linalg.norm(n)
        assert np.dot(n, centroid - a) < 0  # outward orientation
        assert np.max((pts - a) @ n) <= 1e-9 * diameter


# ------------------------------------------------------- hidden points


def test_single_point_is_visible():
    cloud = PointCloud(np.array([[0.0, 0.0, 50.0]]))
    mask = hidden_point_removal(cloud, np.zeros(3))
    assert mask.flags.tolist() == [True]
    assert len(mask) == 1


def test_sphere_hemispheres_from_outside():
    # dense sampling keeps the rim leak below the 1% band
    pts = fibonacci_sphere(40000, 50.0)
    cloud = PointCloud(pts)
    view = np.array([0.0, 0.0, 5000.0])
    mask = hidden_point_removal(cloud, view, 100.0).flags
    near = pts[:, 2] > 0
    far = ~near
    assert mask[near].mean() >= 0.99
    assert mask[far].mean() <= 0.01


def test_collinear_points_nearer_occludes_farther():
    cloud = PointCloud(np.array([[0.0, 0.0, 100.0], [0.0, 0.0, 200.0]]))
    mask = hidden_point_removal(cloud, np.zeros(3))
    assert mask.flags.tolist() == [True, False]


def test_visibility_monotone_in_radius_factor():
    pts = fibonacci_sphere(3000, 50.0)
    cloud = PointCloud(pts)
    view = np.array([0.0, 0.0, 5000.0])
    masks = [
        hidden_point_removal(cloud, view, f).flags for f in (10.0, 100.0, 1000.0)
    ]
    for smaller, larger in zip(masks, masks[1:]):
        newly_hidden = np.sum(smaller & ~larger)
        assert newly_hidden <= 0.01 * len(pts)


def test_huge_radius_factor_sees_whole_convex_shape():
    # at very large factors the flip keeps only directional information,
    # so every hull-of-the-shape point (all of a sphere) becomes visible;
    # the crossover arrives sooner for close views and coarse sampling
    pts = fibonacci_sphere(500, 50.0)
    mask = hidden_point_removal(
        PointCloud(pts), np.array([0.0, 0.0, 70.0]), 1000.0
    ).flags
    assert mask.mean() >= 0.999


def test_hidden_point_removal_validation():
    with pytest.raises(EmptyCloud):
        hidden_point_removal(PointCloud(np.zeros((0, 3))), np.zeros(3))
    with pytest.raises(ValidationError):
        hidden_point_removal(
            PointCloud(np.array([[1.0, 0.0, 0.0]])), np.zeros(3), 0.5
        )


# -------------------------------------------------------------- re-dyeing


def plane_mesh(half=20.0, step=5.0, z=0.0):
    """Grid plane at the given z whose triangle normals point up (+z)."""
    coords = np.arange(-half, half + step / 2, step)
    nx = len(coords)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)])
    tris = []
    for i in range(nx - 1):
        for j in range(nx - 1):
            v00 = i * nx + j
            v10 = (i + 1) * nx + j
            v01 = i * nx + j + 1
            v11 = (i + 1) * nx + j + 1
            tris.append([v00, v10, v11])
            tris.append([v00, v11, v01])
    return TriangleMesh(verts, np.array(tris))


def downward_camera(height=300.0):
    """Camera on the +z axis looking down at the origin."""
    cam = PinholeCamera(fx=800.0, fy=800.0, cx=160.0, cy=120.0, width=320, height=240)
    r = rotation_x(np.pi)
    center = np.array([0.0, 0.0, height])
    to_camera = RigidTransform(r, -r @ center)
    return cam, to_camera


def constant_image(cam, rgb255):
    px = np.tile(np.array(rgb255, dtype=np.uint8), (cam.height, cam.width, 1))
    return RgbImage(cam.width, cam.height, px)


def test_redye_constant_color_plane():
    mesh = plane_mesh()
    cam, to_camera = downward_camera()
    image = constant_image(cam, (153, 102, 51))
    dyed, report = redye_mesh(mesh, [(image, cam, to_camera)])
    assert isinstance(report, RedyeReport)
    assert report.unseen_count == 0
    assert np.allclose(dyed.vertex_colors, [0.6, 0.4, 0.2], atol=1e-12)


def test_redye_occluded_vertices_keep_prior_color():
    plane = plane_mesh()
    # a second triangle sits behind the camera and can never be seen
    behind = np.array(
        [[0.0, 0.0, 400.0], [5.0, 0.0, 400.0], [0.0, 5.0, 400.0]]
    )
    verts = np.vstack([plane.vertices, behind])
    n0 = len(plane.vertices)
    tris = np.vstack([plane.triangles, [[n0, n0 + 1, n0 + 2]]])
    prior = np.full((len(verts), 3), 0.25)
    mesh = TriangleMesh(verts, tris, vertex_colors=prior)
    cam, to_camera = downward_camera()
    image = constant_image(cam, (153, 102, 51))
    dyed, report = redye_mesh(mesh, [(image, cam, to_camera)])
    assert sorted(report.unseen_indices.tolist()) == [n0, n0 + 1, n0 + 2]
    assert np.allclose(dyed.vertex_colors[n0:], 0.25)
    assert np.allclose(dyed.vertex_colors[:n0], [0.6, 0.4, 0.2], atol=1e-12)


def test_redye_invariant_to_scene_order():
    mesh = plane_mesh()
    cam_a, to_a = downward_camera(height=300.0)
    cam_b, to_b = downward_camera(height=500.0)
    scene_a = (constant_image(cam_a, (255, 0, 0)), cam_a, to_a)
    scene_b = (constant_image(cam_b, (0, 0, 255)), cam_b, to_b)
    first, _ = redye_mesh(mesh, [scene_a, scene_b])
    second, _ = redye_mesh(mesh, [scene_b, scene_a])
    assert np.allclose(first.vertex_colors, second.vertex_colors, atol=1e-15)


def look_at_origin(center):
    """Camera at `center` with its optical axis through the origin."""
    center = np.asarray(center, dtype=np.float64)
    z = -center / np.linalg.norm(center)
    up = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(up, z)) > 0.99:
        up = np.array([1.0, 0.0, 0.0])
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    r = np.vstack([x, y, z])
    return RigidTransform(r, -r @ center)


def test_redye_blends_in_an_oblique_scene():
    mesh = plane_mesh(half=10.0, step=5.0)
    cam_top, to_top = downward_camera(height=300.0)
    # oblique camera well off-axis: smaller n.v, so a smaller weight
    to_side = look_at_origin([0.0, -350.0, 300.0])
    cam_side = PinholeCamera(
        fx=800.0, fy=800.0, cx=160.0, cy=120.0, width=320, height=240
    )
    top = (constant_image(cam_top, (255, 255, 255)), cam_top, to_top)
    side = (constant_image(cam_side, (0, 0, 0)), cam_side, to_side)
    blended, _ = redye_mesh(mesh, [side, top])
    seen_by_side = blended.vertex_colors[:, 0] < 1.0
    assert np.any(seen_by_side)
    # the white top view outweighs the black oblique one wherever both see
    assert np.all(blended.vertex_colors[seen_by_side] > 0.5)
    assert np.all(blended.vertex_colors >= 0.0)


def test_redye_validation():
    mesh = plane_mesh()
    cam, to_camera = downward_camera()
    image = constant_image(cam, (10, 10, 10))
    with pytest.raises(NoScenes):
        redye_mesh(mesh, [])
    with pytest.raises(EmptyInput):
        redye_mesh(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3))), [(image, cam, to_camera)])


def test_visibility_mask_type():
    mask = VisibilityMask(np.array([1, 0, 1]))
    assert mask.flags.dtype == bool
    assert len(mask) == 3
