import numpy as np
import pytest

from turnscan import errors
from turnscan.geometry import PointCloud
from turnscan.meshing import (
    ScalarGrid,
    VectorGrid,
    largest_component,
    marching_cubes,
    reconstruct_mesh,
    sample_trilinear,
    solve_poisson,
    splat_normal_field,
)


def sphere_cloud(n=20000, radius=40.0, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return PointCloud(radius * dirs, normals=dirs)


def sphere_grid(n=32, radius=1.0, half_width=1.2):
    axes = np.linspace(-half_width, half_width, n)
    spacing = axes[1] - axes[0]
    x, y, z = np.meshgrid(axes, axes, axes, indexing="ij")
    sdf = np.sqrt(x**2 + y**2 + z**2) - radius
    return ScalarGrid((n, n, n), np.full(3, -half_width), spacing, sdf)


def edge_share_counts(mesh):
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return np.array(list(edges.values())), len(edges)


# ------------------------------------------------------------------ splat


def test_splat_requires_normals():
    with pytest.raises(errors.MissingNormals):
        splat_normal_field(PointCloud(np.zeros((5, 3))), 8, 1.0)


def test_splat_point_at_node_gets_full_weight():
    # a single point: the grid is centered on it, so it lands mid-grid
    cloud = PointCloud(np.array([[3.0, 5.0, 7.0]]), normals=np.array([[0.0, 0.0, 1.0]]))
    grid = splat_normal_field(cloud, 9, margin_mm=4.0)
    total = grid.values.reshape(-1, 3).sum(axis=0)
    np.testing.assert_allclose(total, [0.0, 0.0, 1.0], atol=1e-12)
    u = (np.array([3.0, 5.0, 7.0]) - grid.origin) / grid.spacing
    i, j, k = np.round(u).astype(int)
    np.testing.assert_allclose(u, [i, j, k], atol=1e-12)  # exactly on a node
    np.testing.assert_allclose(grid.values[i, j, k], [0.0, 0.0, 1.0], atol=1e-12)


def test_splat_cell_center_spreads_eighth_weights():
    # anchors at (0,0,0) and (8,8,8) with margin 0 pin spacing 1, origin 0;
    # the probe point then sits exactly at the center of the first cell
    cloud = PointCloud(
        np.array([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0], [0.5, 0.5, 0.5]]),
        normals=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    )
    grid = splat_normal_field(cloud, 9, margin_mm=0.0)
    assert grid.spacing == pytest.approx(1.0)
    np.testing.assert_allclose(grid.origin, [0.0, 0.0, 0.0], atol=1e-12)
    # only the probe carries a y-normal; each corner of its cell gets 1/8
    corner_weights = grid.values[0:2, 0:2, 0:2, 1]
    np.testing.assert_allclose(corner_weights, np.full((2, 2, 2), 0.125 / 3), atol=1e-12)


# ---------------------------------------------------------------- poisson


def test_poisson_zero_field_gives_zero():
    v = VectorGrid((9, 9, 9), np.zeros(3), 1.0, np.zeros((9, 9, 9, 3)))
    chi, info = solve_poisson(v)
    assert info.residual == 0.0
    np.testing.assert_array_equal(chi.values, 0.0)
    # a grid two nodes thick has no interior, so its field is zero too
    thin = VectorGrid((2, 9, 9), np.zeros(3), 1.0, np.ones((2, 9, 9, 3)))
    np.testing.assert_array_equal(solve_poisson(thin)[0].values, 0.0)


def _mms_error(n):
    """Relative L2 error against chi* = sin(pi x/L)^3 products."""
    length = 1.0
    axes = np.linspace(0.0, length, n)
    spacing = axes[1] - axes[0]
    x, y, z = np.meshgrid(axes, axes, axes, indexing="ij")
    s = np.pi / length
    chi_true = np.sin(s * x) * np.sin(s * y) * np.sin(s * z)
    grad = np.stack(
        [
            s * np.cos(s * x) * np.sin(s * y) * np.sin(s * z),
            s * np.sin(s * x) * np.cos(s * y) * np.sin(s * z),
            s * np.sin(s * x) * np.sin(s * y) * np.cos(s * z),
        ],
        axis=-1,
    )
    v = VectorGrid((n, n, n), np.zeros(3), spacing, grad)
    chi, _ = solve_poisson(v)
    return np.linalg.norm(chi.values - chi_true) / np.linalg.norm(chi_true)


def test_poisson_manufactured_solution_second_order():
    errors_by_n = [_mms_error(n) for n in (17, 33, 65)]
    assert errors_by_n[0] / errors_by_n[1] >= 3.5
    assert errors_by_n[1] / errors_by_n[2] >= 3.5


def test_poisson_residual_bounded_on_convergence():
    # the sine-transform solve is exact, on cubic and non-cubic grids alike
    rng = np.random.default_rng(1)
    for dims in ((17, 17, 17), (9, 12, 17)):
        v = VectorGrid(dims, np.zeros(3), 0.5, rng.normal(size=dims + (3,)))
        chi, info = solve_poisson(v)
        assert info.iterations == 1
        assert info.residual <= 1e-10
        for face in (chi.values[[0, -1]], chi.values[:, [0, -1]], chi.values[:, :, [0, -1]]):
            np.testing.assert_array_equal(face, 0.0)


# ---------------------------------------------------------- marching cubes


def test_marching_cubes_empty_when_all_outside():
    grid = ScalarGrid((8, 8, 8), np.zeros(3), 1.0, np.ones((8, 8, 8)))
    mesh = marching_cubes(grid, 0.0)
    assert len(mesh.vertices) == 0
    assert len(mesh.triangles) == 0


def test_marching_cubes_sphere_closed_and_accurate():
    grid = sphere_grid(32)
    mesh = marching_cubes(grid, 0.0)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) < grid.spacing
    counts, n_edges = edge_share_counts(mesh)
    assert np.all(counts == 2)
    assert len(mesh.vertices) - n_edges + len(mesh.triangles) == 2


def test_marching_cubes_sign_flip_reverses_orientation():
    grid = sphere_grid(24)
    mesh = marching_cubes(grid, 0.0)
    flipped = marching_cubes(
        ScalarGrid(grid.dims, grid.origin, grid.spacing, -grid.values), 0.0
    )

    def row_sorted(v):
        return v[np.lexsort((v[:, 2], v[:, 1], v[:, 0]))]

    np.testing.assert_allclose(
        row_sorted(mesh.vertices), row_sorted(flipped.vertices), atol=1e-12
    )

    def outward_fraction(m):
        v, t = m.vertices, m.triangles
        nrm = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        cent = (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3
        return (np.einsum("ij,ij->i", nrm, cent) > 0).mean()

    assert outward_fraction(mesh) == 1.0
    assert outward_fraction(flipped) == 0.0


# ------------------------------------------------------- largest component


def test_largest_component_drops_satellite():
    # two tetrahedra, one with an extra vertex
    tet = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    verts = np.vstack([tet, tet + 10.0, [[0.5, 0.5, 0.5]]])
    tris = [
        [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
        [4, 5, 6],
    ]
    from turnscan.geometry import TriangleMesh

    mesh = TriangleMesh(verts, tris)
    out = largest_component(mesh)
    assert len(out.vertices) == 4
    assert len(out.triangles) == 4
    np.testing.assert_allclose(np.sort(out.vertices, axis=0), np.sort(tet, axis=0))


# --------------------------------------------------------- reconstruction


def test_reconstruct_sphere_rms_below_spacing():
    cloud = sphere_cloud(n=20000, radius=40.0)
    mesh = reconstruct_mesh(cloud, dims=64)
    assert len(mesh.triangles) > 1000
    radii = np.linalg.norm(mesh.vertices, axis=1)
    rms = np.sqrt(np.mean((radii - 40.0) ** 2))
    extent = cloud.positions.max(0) - cloud.positions.min(0)
    spacing = np.max((extent + 2 * 0.1 * extent.max()) / 63)
    assert rms < spacing


def test_reconstruct_missing_normals():
    with pytest.raises(errors.MissingNormals):
        reconstruct_mesh(PointCloud(np.zeros((10, 3))), dims=16)


def test_reconstruct_translation_equivariance():
    cloud = sphere_cloud(n=4000, radius=20.0, seed=5)
    shift = np.array([13.25, -7.5, 3.125])
    moved = PointCloud(cloud.positions + shift, normals=cloud.normals)
    a = reconstruct_mesh(cloud, dims=24, margin_mm=5.0)
    b = reconstruct_mesh(moved, dims=24, margin_mm=5.0)
    assert len(a.vertices) == len(b.vertices)
    np.testing.assert_allclose(a.vertices + shift, b.vertices, atol=1e-9)
    np.testing.assert_array_equal(a.triangles, b.triangles)


def test_sample_trilinear_linear_field_exact():
    # a linear field is reproduced exactly by trilinear interpolation
    n = 9
    axes = np.arange(n, dtype=float)
    x, y, z = np.meshgrid(axes, axes, axes, indexing="ij")
    field = 2.0 * x - 3.0 * y + 0.5 * z + 1.0
    grid = ScalarGrid((n, n, n), np.zeros(3), 1.0, field)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, n - 1, size=(50, 3))
    expected = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5 * pts[:, 2] + 1.0
    np.testing.assert_allclose(sample_trilinear(grid, pts), expected, atol=1e-12)
