"""Poisson indicator-field meshing on a regular grid.

The oriented cloud's normals are splatted into a vector grid V, the
indicator field chi is recovered from the Poisson equation lap(chi) =
div(V) under zero-Dirichlet boundaries, and the isosurface at the mean
field value over the input points is extracted with marching cubes.

With outward-pointing input normals, chi comes out negative inside the
shape, so "inside" always means "field value below the iso level"; the
same convention holds for signed-distance inputs to marching_cubes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.fft import dstn, idstn
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ._mc_tables import TRI_TABLE
from .cloud import KdIndex
from .errors import MissingNormals, ValidationError
from .geometry import Array, PointCloud, TriangleMesh


@dataclass
class Grid:
    """Regular grid of scalars or 3-vectors; node (i,j,k) sits at
    origin + spacing*(i,j,k), and values has shape dims or dims + (3,)."""

    dims: tuple[int, int, int]
    origin: Array
    spacing: float
    values: Array

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if self.spacing <= 0:
            raise ValidationError("grid spacing must be positive")
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape[:3] != self.dims or v.shape[3:] not in ((), (3,)):
            raise ValidationError(f"values shape {v.shape} != dims {self.dims} [+ (3,)]")
        self.values = v


class PoissonInfo(NamedTuple):
    iterations: int
    residual: float


def _normalize_dims(dims) -> tuple[int, int, int]:
    if np.isscalar(dims):
        dims = (dims, dims, dims)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 8 for d in dims):
        raise ValidationError("grid needs at least 8 nodes per axis")
    return dims


def _trilinear_stencil(u: Array, dims: tuple[int, int, int]):
    """Yield (flat node index, weight) for the 8 nodes of the cell around
    each grid-unit point in u; points outside the grid use the nearest
    cell, so their weights extrapolate."""
    base = np.clip(np.floor(u).astype(np.int64), 0, np.array(dims) - 2)
    frac = u - base
    _, ny, nz = dims
    for dx in (0, 1):
        wx = frac[:, 0] if dx else 1.0 - frac[:, 0]
        for dy in (0, 1):
            wy = frac[:, 1] if dy else 1.0 - frac[:, 1]
            for dz in (0, 1):
                wz = frac[:, 2] if dz else 1.0 - frac[:, 2]
                idx = ((base[:, 0] + dx) * ny + base[:, 1] + dy) * nz + base[:, 2] + dz
                yield idx, wx * wy * wz


def splat_normal_field(pts: PointCloud, dims, margin_mm: float) -> Grid:
    """Distribute each point's normal onto its 8 surrounding grid nodes
    with trilinear weights, normalized by the total point count.

    The grid covers the cloud's bounding box expanded by margin_mm on
    every side, with a single scalar spacing (the largest per-axis
    requirement) and the box centered in the grid.
    """
    if pts.normals is None:
        raise MissingNormals("normal splatting needs oriented normals")
    if len(pts) == 0:
        raise MissingNormals("cannot splat an empty cloud")
    dims = _normalize_dims(dims)
    if margin_mm < 0:
        raise ValidationError("margin must be nonnegative")
    lo = pts.positions.min(axis=0) - margin_mm
    hi = pts.positions.max(axis=0) + margin_mm
    extent = hi - lo
    spacing = float(np.max(extent / (np.array(dims) - 1)))
    if spacing <= 0:
        spacing = 1.0
    center = (lo + hi) / 2
    origin = center - spacing * (np.array(dims) - 1) / 2
    u = (pts.positions - origin) / spacing
    flat = np.zeros((int(np.prod(dims)), 3))
    for idx, w in _trilinear_stencil(u, dims):
        for c in range(3):
            flat[:, c] += np.bincount(idx, weights=w * pts.normals[:, c], minlength=len(flat))
    return Grid(dims, origin, spacing, flat.reshape(dims + (3,)) / len(pts))


def _divergence(v: Grid) -> Array:
    """Central-difference divergence; zero on the boundary layer."""
    h2 = 2.0 * v.spacing
    f = v.values
    div = np.zeros(v.dims)
    div[1:-1, 1:-1, 1:-1] = (
        (f[2:, 1:-1, 1:-1, 0] - f[:-2, 1:-1, 1:-1, 0])
        + (f[1:-1, 2:, 1:-1, 1] - f[1:-1, :-2, 1:-1, 1])
        + (f[1:-1, 1:-1, 2:, 2] - f[1:-1, 1:-1, :-2, 2])
    ) / h2
    return div


def _neg_laplacian(x: Array, spacing: float) -> Array:
    """7-point -lap(x) on the interior nodes; zero on the boundary layer."""
    out = np.zeros_like(x)
    out[1:-1, 1:-1, 1:-1] = (
        6.0 * x[1:-1, 1:-1, 1:-1]
        - x[:-2, 1:-1, 1:-1]
        - x[2:, 1:-1, 1:-1]
        - x[1:-1, :-2, 1:-1]
        - x[1:-1, 2:, 1:-1]
        - x[1:-1, 1:-1, :-2]
        - x[1:-1, 1:-1, 2:]
    ) / (spacing * spacing)
    return out


def solve_poisson(v: Grid) -> tuple[Grid, PoissonInfo]:
    """Solve lap(chi) = div(V) with chi = 0 on the grid boundary.

    The 7-point Laplacian under zero-Dirichlet boundaries is diagonalised
    by the type-I discrete sine transform of the interior nodes, so the
    discrete system is solved exactly (to rounding) by one forward
    transform, a division by the eigenvalues and one inverse transform.
    The reported residual is the relative 7-point residual of the result.
    """
    b = -_divergence(v)  # A = -lap is positive definite under Dirichlet
    x = np.zeros(v.dims)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:  # includes every grid without interior nodes
        return Grid(v.dims, v.origin, v.spacing, x), PoissonInfo(1, 0.0)
    interior = (slice(1, -1),) * 3
    eigen = [
        (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n - 1) / (n - 1))) / v.spacing**2
        for n in v.dims
    ]
    denom = eigen[0][:, None, None] + eigen[1][None, :, None] + eigen[2][None, None, :]
    x[interior] = idstn(dstn(b[interior], type=1) / denom, type=1)
    residual = float(np.linalg.norm(b - _neg_laplacian(x, v.spacing))) / b_norm
    return Grid(v.dims, v.origin, v.spacing, x), PoissonInfo(1, residual)


# Cube corners in the table convention: z-level-major, circular (x, y).
_CORNERS = (
    (0, 0, 0),
    (1, 0, 0),
    (1, 1, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (0, 1, 1),
)
# Edge -> offset of its low node from the cell's base node, and its axis;
# the high node is one step further along the axis.
_EDGE_NODE = np.array(
    [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 0),
        (0, 0, 1),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 1),
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
    ]
)
_EDGE_AXIS = np.array([0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2])
# TRI_TABLE as a 256 x 16 array, rows padded with -1
_TRI = np.array([row + [-1] * (16 - len(row)) for row in TRI_TABLE])


def marching_cubes(grid: Grid, iso: float) -> TriangleMesh:
    """Standard 256-case isosurface extraction with linear interpolation.

    Vertices on shared cell edges are welded (one vertex per crossing
    edge), so the result is watertight away from the grid boundary.
    Triangles are wound so their normals point toward increasing field
    values ("inside" is below the iso level). Vertices are numbered by
    first use, visiting the cells in C order and each cell's triangle
    edges in table order.
    """
    nx, ny, nz = grid.dims
    values = grid.values
    inside = values < iso
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint16)
    for bit, (dx, dy, dz) in enumerate(_CORNERS):
        case |= (
            inside[dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz].astype(
                np.uint16
            )
            << bit
        )
    active = (case > 0) & (case < 255)
    edges = _TRI[case[active]]
    cell, slot = np.nonzero(edges >= 0)
    edge = edges[cell, slot]
    node = np.argwhere(active)[cell] + _EDGE_NODE[edge]
    axis = _EDGE_AXIS[edge]
    key = ((node[:, 0] * ny + node[:, 1]) * nz + node[:, 2]) * 3 + axis
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    vertex_of_key = np.empty_like(order)
    vertex_of_key[order] = np.arange(len(order))
    # table order is clockwise seen from outside; flip it
    triangles = vertex_of_key[inverse].reshape(-1, 3)[:, [0, 2, 1]]

    node, axis = node[first[order]], axis[first[order]]
    v_lo = values[node[:, 0], node[:, 1], node[:, 2]]
    hi = node + np.eye(3, dtype=np.int64)[axis]
    denom = values[hi[:, 0], hi[:, 1], hi[:, 2]] - v_lo
    level = denom == 0.0
    t = np.where(level, 0.5, (iso - v_lo) / np.where(level, 1.0, denom))
    position = node.astype(np.float64)
    position[np.arange(len(axis)), axis] += np.clip(t, 0.0, 1.0)
    return TriangleMesh(grid.origin + grid.spacing * position, triangles)


def sample_trilinear(grid: Grid, points: Array) -> Array:
    """Trilinearly interpolated field values at world-space points
    (clamped to the grid)."""
    u = (np.asarray(points, dtype=np.float64) - grid.origin) / grid.spacing
    u = np.clip(u, 0.0, np.array(grid.dims, dtype=np.float64) - 1.0)
    values = grid.values.reshape(-1)
    out = np.zeros(len(u))
    for idx, w in _trilinear_stencil(u, grid.dims):
        out += w * values[idx]
    return out


def largest_component(mesh: TriangleMesh) -> TriangleMesh:
    """Keep the connected component with the most vertices (ties go to
    the component containing the smallest vertex index)."""
    if len(mesh.triangles) == 0:
        return mesh
    n = len(mesh.vertices)
    t = mesh.triangles
    edges = coo_matrix(
        (np.ones(2 * len(t)), (t[:, :2].ravel(), t[:, 1:].ravel())), shape=(n, n)
    )
    _, labels = connected_components(edges, directed=False)
    used = np.zeros(n, dtype=bool)
    used[t.ravel()] = True
    sizes = np.bincount(labels, weights=used)
    # the smallest used vertex index that sits in a largest component
    winner = labels[np.flatnonzero(used & (sizes[labels] == sizes.max()))[0]]
    keep_vertex = (labels == winner) & used
    remap = -np.ones(n, dtype=np.int64)
    remap[keep_vertex] = np.arange(int(keep_vertex.sum()))
    keep_tri = keep_vertex[t[:, 0]]
    tris = remap[t[keep_tri]]
    colors = None if mesh.vertex_colors is None else mesh.vertex_colors[keep_vertex]
    return TriangleMesh(mesh.vertices[keep_vertex], tris, vertex_colors=colors)


def refine_vertices(
    mesh: TriangleMesh,
    pts: PointCloud,
    k: int = 48,
    max_step_mm: float = 1.0,
    normal_gate: float = 0.7,
) -> TriangleMesh:
    """Pull each mesh vertex onto the local tangent plane of its nearest
    oriented input points.

    Isosurfaces of a smoothed indicator field flare a fraction of a cell
    outward near sharp creases; projecting vertices back onto the measured
    data removes that bias without touching connectivity. Neighbors are
    inverse-distance weighted; those whose normals disagree with the local
    consensus direction by more than the gate (cosine threshold) are
    dropped so creases keep both faces flat. Moves are capped at
    max_step_mm along the consensus normal.
    """
    if pts.normals is None:
        raise MissingNormals("vertex refinement needs oriented normals")
    if len(pts) == 0 or len(mesh.vertices) == 0:
        return mesh
    if k < 1:
        raise ValidationError("k must be >= 1")
    if max_step_mm <= 0:
        raise ValidationError("step cap must be positive")
    if not -1.0 <= normal_gate < 1.0:
        raise ValidationError("normal gate must lie in [-1, 1)")
    dist, idx = KdIndex(pts.positions).query(mesh.vertices, k)
    neighbors = pts.positions[idx]
    normals = pts.normals[idx]
    weights = 1.0 / np.maximum(dist, 1e-9)
    weights /= weights.sum(axis=1, keepdims=True)

    def consensus(w):
        n = (normals * w[:, :, None]).sum(axis=1)
        length = np.linalg.norm(n, axis=1, keepdims=True)
        return n / np.where(length > 1e-12, length, 1.0)

    direction = consensus(weights)
    agree = np.einsum("ijk,ik->ij", normals, direction) > normal_gate
    agree[~agree.any(axis=1)] = True
    weights = weights * agree
    weights /= weights.sum(axis=1, keepdims=True)
    direction = consensus(weights)
    anchor = (neighbors * weights[:, :, None]).sum(axis=1)
    step = np.einsum("ij,ij->i", anchor - mesh.vertices, direction)
    step = np.clip(step, -max_step_mm, max_step_mm)
    moved = mesh.vertices + step[:, None] * direction
    return TriangleMesh(moved, mesh.triangles, vertex_colors=mesh.vertex_colors)


def reconstruct_mesh(
    pts: PointCloud, dims, margin_mm: float | None = None
) -> TriangleMesh:
    """Oriented points to watertight mesh: splat, solve, extract.

    The iso level is the mean of the solved field sampled at the input
    points; only the largest connected component is returned.
    """
    if pts.normals is None:
        raise MissingNormals("reconstruction needs oriented normals")
    dims = _normalize_dims(dims)
    if margin_mm is None:
        extent = pts.positions.max(axis=0) - pts.positions.min(axis=0)
        margin_mm = 0.10 * float(np.max(extent))
    field = splat_normal_field(pts, dims, margin_mm)
    chi, _ = solve_poisson(field)
    iso = float(np.mean(sample_trilinear(chi, pts.positions)))
    return largest_component(marching_cubes(chi, iso))
