"""Point-cloud segmentation, denoising, normal estimation, and fusion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptyInput,
    NonPositiveVoxel,
    TooFewPoints,
    ValidationError,
)
from .geometry import Array, PointCloud, RigidTransform, _as_array, transform_points

_CHUNK = 65536


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box, min <= max component-wise (mm)."""

    min: Array
    max: Array

    def __post_init__(self):
        lo = _as_array(self.min, (3,), "min")
        hi = _as_array(self.max, (3,), "max")
        if np.any(lo > hi):
            raise ValidationError("box min must not exceed max")
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)

    def contains(self, points: Array) -> Array:
        p = np.asarray(points, dtype=np.float64)
        return np.all((p >= self.min) & (p <= self.max), axis=1)


class KdIndex:
    """Exact k-nearest-neighbor index over a cloud's positions.

    Ties at equal distance are broken by ascending point index so query
    results are deterministic.
    """

    def __init__(self, positions: Array):
        p = np.asarray(positions, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 3 or len(p) == 0:
            raise ValidationError("index needs an (n,3) array with n >= 1")
        self._tree = cKDTree(p)
        self.n = len(p)

    def query(self, points: Array, k: int) -> tuple[Array, Array]:
        """Distances and indices of the min(k, n) nearest points.

        Accepts a single 3-vector or an (m,3) batch; returns arrays shaped
        (k,) or (m,k) respectively, sorted by (distance, index).
        """
        k = min(int(k), self.n)
        if k < 1:
            raise ValidationError("k must be >= 1")
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts2 = pts.reshape(-1, 3)
        dist, idx = self._tree.query(pts2, k=k)
        dist = dist.reshape(len(pts2), k)
        idx = idx.reshape(len(pts2), k)
        order = np.lexsort((idx, dist), axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        return (dist[0], idx[0]) if single else (dist, idx)


def _take(cloud: PointCloud, mask_or_idx) -> PointCloud:
    return PointCloud(
        cloud.positions[mask_or_idx],
        colors=None if cloud.colors is None else cloud.colors[mask_or_idx],
        normals=None if cloud.normals is None else cloud.normals[mask_or_idx],
    )


def crop(pts: PointCloud, box: Aabb) -> PointCloud:
    """Keep exactly the points inside the box (inclusive bounds)."""
    if len(pts) == 0:
        return _take(pts, np.zeros(0, dtype=bool))
    return _take(pts, box.contains(pts.positions))


def remove_statistical_outliers(
    pts: PointCloud, k: int, std_ratio: float
) -> tuple[PointCloud, Array]:
    """Drop points whose mean k-NN distance exceeds mu + std_ratio * sigma.

    The point itself counts as one of the k hits (distance zero), which
    makes the statistic identical across a uniform lattice. Returns the
    filtered cloud and the removed indices (ascending).
    """
    n = len(pts)
    if k < 1 or n <= k:
        raise TooFewPoints(f"need more than k={k} points, have {n}")
    if std_ratio <= 0:
        raise ValidationError("std_ratio must be positive")
    index = KdIndex(pts.positions)
    mean_d = np.empty(n)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        dist, _ = index.query(pts.positions[start:stop], k)
        mean_d[start:stop] = dist.mean(axis=1)
    mu = mean_d.mean()
    sigma = mean_d.std()
    keep = mean_d <= mu + std_ratio * sigma
    removed = np.nonzero(~keep)[0]
    return _take(pts, keep), removed


def estimate_normals(pts: PointCloud, k: int, viewpoint) -> PointCloud:
    """Per-point normals from the smallest-eigenvalue direction of the
    k-NN covariance, oriented so normal . (viewpoint - p) > 0.

    The neighborhood of a point is the point itself plus its k nearest
    neighbors.
    """
    n = len(pts)
    if k < 3 or n <= k:
        raise TooFewPoints(f"need more than k={k} >= 3 points, have {n}")
    viewpoint = _as_array(viewpoint, (3,), "viewpoint")
    index = KdIndex(pts.positions)
    normals = np.empty((n, 3))
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        _, idx = index.query(pts.positions[start:stop], k + 1)
        nbrs = pts.positions[idx]  # (m, k+1, 3)
        centered = nbrs - nbrs.mean(axis=1, keepdims=True)
        cov = np.einsum("mki,mkj->mij", centered, centered) / (k + 1)
        _, vecs = np.linalg.eigh(cov)
        normals[start:stop] = vecs[:, :, 0]  # ascending eigenvalues
    toward = viewpoint - pts.positions
    flip = np.einsum("ij,ij->i", normals, toward) < 0
    normals[flip] *= -1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(
        pts.positions.copy(),
        colors=None if pts.colors is None else pts.colors.copy(),
        normals=normals,
    )


def fuse(scenes: list[tuple[PointCloud, RigidTransform]]) -> PointCloud:
    """Transform each cloud by its pose into the reference frame and
    concatenate.

    Colors (and normals) are kept only when every input carries them.
    """
    if not scenes:
        raise EmptyInput("nothing to fuse")
    moved = [transform_points(pose, cloud) for cloud, pose in scenes]
    positions = np.concatenate([c.positions for c in moved])
    colors = None
    if all(c.colors is not None for c in moved):
        colors = np.concatenate([c.colors for c in moved])
    normals = None
    if all(c.normals is not None for c in moved):
        normals = np.concatenate([c.normals for c in moved])
    return PointCloud(positions, colors=colors, normals=normals)


def voxel_downsample(pts: PointCloud, voxel_mm: float) -> PointCloud:
    """One point per occupied voxel: the centroid of its members.

    Colors and normals are averaged (normals renormalized; a voxel whose
    normals cancel keeps the normal of its lowest-index member). Output
    order follows voxel key order and is deterministic.
    """
    if voxel_mm <= 0:
        raise NonPositiveVoxel(f"voxel edge must be positive, got {voxel_mm}")
    n = len(pts)
    if n == 0:
        return _take(pts, np.zeros(0, dtype=np.int64))
    keys = np.floor((pts.positions - pts.positions.min(axis=0)) / voxel_mm).astype(
        np.int64
    )
    dims = keys.max(axis=0) + 1
    flat = (keys[:, 0] * dims[1] + keys[:, 1]) * dims[2] + keys[:, 2]
    uniq, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    m = len(uniq)

    def _mean(values: Array) -> Array:
        out = np.zeros((m, values.shape[1]))
        for c in range(values.shape[1]):
            out[:, c] = np.bincount(inverse, weights=values[:, c], minlength=m)
        return out / counts[:, None]

    positions = _mean(pts.positions)
    colors = None if pts.colors is None else _mean(pts.colors)
    normals = None
    if pts.normals is not None:
        normals = _mean(pts.normals)
        lengths = np.linalg.norm(normals, axis=1)
        bad = lengths < 1e-12
        if np.any(bad):
            first = np.full(m, n, dtype=np.int64)
            np.minimum.at(first, inverse, np.arange(n))
            normals[bad] = pts.normals[first[bad]]
            lengths[bad] = 1.0
        normals /= lengths[:, None]
    return PointCloud(positions, colors=colors, normals=normals)
