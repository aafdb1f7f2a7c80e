import numpy as np
import pytest

from turnscan import errors
from turnscan._mc_tables import TRI_TABLE
from turnscan.geometry import PointCloud, TriangleMesh
from turnscan.meshing import (
    Grid,
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
    return Grid((n, n, n), np.full(3, -half_width), spacing, sdf)


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
    v = Grid((9, 9, 9), np.zeros(3), 1.0, np.zeros((9, 9, 9, 3)))
    chi, info = solve_poisson(v)
    assert info.residual == 0.0
    np.testing.assert_array_equal(chi.values, 0.0)
    # a grid two nodes thick has no interior, so its field is zero too
    thin = Grid((2, 9, 9), np.zeros(3), 1.0, np.ones((2, 9, 9, 3)))
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
    v = Grid((n, n, n), np.zeros(3), spacing, grad)
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
        v = Grid(dims, np.zeros(3), 0.5, rng.normal(size=dims + (3,)))
        chi, info = solve_poisson(v)
        assert info.iterations == 1
        assert info.residual <= 1e-10
        for face in (chi.values[[0, -1]], chi.values[:, [0, -1]], chi.values[:, :, [0, -1]]):
            np.testing.assert_array_equal(face, 0.0)


# ---------------------------------------------------------- marching cubes

# the per-cell loop marching_cubes replaced, kept as the reference
LOOP_CORNERS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)
LOOP_EDGES = (
    ((0, 0, 0), 0, 0, 1),
    ((1, 0, 0), 1, 1, 2),
    ((0, 1, 0), 0, 3, 2),
    ((0, 0, 0), 1, 0, 3),
    ((0, 0, 1), 0, 4, 5),
    ((1, 0, 1), 1, 5, 6),
    ((0, 1, 1), 0, 7, 6),
    ((0, 0, 1), 1, 4, 7),
    ((0, 0, 0), 2, 0, 4),
    ((1, 0, 0), 2, 1, 5),
    ((1, 1, 0), 2, 2, 6),
    ((0, 1, 0), 2, 3, 7),
)


def loop_marching_cubes(grid, iso):
    nx, ny, nz = grid.dims
    values = grid.values
    inside = values < iso
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint16)
    for bit, (dx, dy, dz) in enumerate(LOOP_CORNERS):
        case |= inside[dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz].astype(
            np.uint16
        ) << bit
    active = np.argwhere((case > 0) & (case < 255))
    vertex_ids = {}
    vertices = []
    triangles = []

    def edge_vertex(ci, cj, ck, edge):
        (ox, oy, oz), axis, lo_corner, hi_corner = LOOP_EDGES[edge]
        key = (ci + ox, cj + oy, ck + oz, axis)
        vid = vertex_ids.get(key)
        if vid is not None:
            return vid
        lc = LOOP_CORNERS[lo_corner]
        v_lo = values[ci + lc[0], cj + lc[1], ck + lc[2]]
        hc = LOOP_CORNERS[hi_corner]
        v_hi = values[ci + hc[0], cj + hc[1], ck + hc[2]]
        denom = v_hi - v_lo
        t = 0.5 if denom == 0.0 else (iso - v_lo) / denom
        t = min(max(t, 0.0), 1.0)
        node = np.array(key[:3], dtype=np.float64)
        node[axis] += t
        vertices.append(grid.origin + grid.spacing * node)
        vertex_ids[key] = len(vertices) - 1
        return vertex_ids[key]

    for ci, cj, ck in active:
        tri = TRI_TABLE[case[ci, cj, ck]]
        for k in range(0, len(tri), 3):
            a = edge_vertex(ci, cj, ck, tri[k])
            b = edge_vertex(ci, cj, ck, tri[k + 1])
            c = edge_vertex(ci, cj, ck, tri[k + 2])
            triangles.append((a, c, b))
    if not vertices:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    return TriangleMesh(np.array(vertices), np.array(triangles, dtype=np.int64))


def assert_matches_loop(grid, iso):
    got = marching_cubes(grid, iso)
    want = loop_marching_cubes(grid, iso)
    assert got.vertices.shape == want.vertices.shape
    assert got.triangles.shape == want.triangles.shape
    assert got.triangles.dtype == want.triangles.dtype
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.triangles.tobytes() == want.triangles.tobytes()
    return got


def test_marching_cubes_matches_loop_on_random_grids():
    rng = np.random.default_rng(11)
    for trial in range(40):
        dims = tuple(int(d) for d in rng.integers(2, 11, size=3))
        values = rng.normal(size=dims)
        iso = float(rng.normal(scale=0.3))
        grid = Grid(dims, rng.normal(scale=50.0, size=3), rng.uniform(0.2, 3.0), values)
        assert_matches_loop(grid, iso)


def test_marching_cubes_matches_loop_on_integer_grids():
    # integer values put nodes exactly at the iso level, so some vertices
    # land on grid nodes (t is 0 or 1); equal neighbours are common
    # too, though they never share a crossing edge
    rng = np.random.default_rng(12)
    ties = 0
    for trial in range(30):
        dims = tuple(int(d) for d in rng.integers(2, 10, size=3))
        values = rng.integers(-2, 3, size=dims).astype(np.float64)
        grid = Grid(dims, np.zeros(3), 1.0, values)
        mesh = assert_matches_loop(grid, 0.0)
        ties += int(np.sum(np.all(mesh.vertices == np.round(mesh.vertices), axis=1)))
    assert ties > 0


def test_marching_cubes_matches_loop_on_uniform_grids():
    for value in (-1.0, 0.0, 1.0):
        grid = Grid((5, 6, 7), np.ones(3), 0.5, np.full((5, 6, 7), value))
        mesh = assert_matches_loop(grid, 0.0 if value else 0.5)
        assert len(mesh.vertices) == 0 and len(mesh.triangles) == 0


def test_marching_cubes_matches_loop_on_sphere():
    assert len(assert_matches_loop(sphere_grid(20), 0.0).triangles) > 0


def test_grid_checks_value_shape():
    Grid((8, 9, 10), np.zeros(3), 1.0, np.zeros((8, 9, 10)))
    Grid((8, 9, 10), np.zeros(3), 1.0, np.zeros((8, 9, 10, 3)))
    for shape in ((8, 9), (8, 9, 11), (8, 9, 10, 2), (8, 9, 10, 3, 1)):
        with pytest.raises(errors.ValidationError):
            Grid((8, 9, 10), np.zeros(3), 1.0, np.zeros(shape))
    with pytest.raises(errors.ValidationError):
        Grid((8, 9, 10), np.zeros(3), 0.0, np.zeros((8, 9, 10)))



def test_marching_cubes_empty_when_all_outside():
    grid = Grid((8, 8, 8), np.zeros(3), 1.0, np.ones((8, 8, 8)))
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
        Grid(grid.dims, grid.origin, grid.spacing, -grid.values), 0.0
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
    grid = Grid((n, n, n), np.zeros(3), 1.0, field)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, n - 1, size=(50, 3))
    expected = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5 * pts[:, 2] + 1.0
    np.testing.assert_allclose(sample_trilinear(grid, pts), expected, atol=1e-12)
