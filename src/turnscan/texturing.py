"""Vertex re-coloring from high-resolution RGB views.

A mesh reconstructed from depth data carries colors averaged from the
noisy fused cloud. This module replaces them: for each RGB view, the
visible vertices are found by spherical-flip hidden-point removal,
projected into the image, bilinearly sampled, and blended across views
with squared-cosine weights between the vertex normal and the view
direction. Vertices seen in no view keep whatever color they had.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import EmptyCloud, EmptyInput, NoScenes, ValidationError
from .geometry import (
    Array,
    PinholeCamera,
    PointCloud,
    RigidTransform,
    RgbImage,
    TriangleMesh,
    in_image,
    invert,
    project_points,
)

_DEFAULT_RADIUS_FACTOR = 100.0


@dataclass(frozen=True)
class VisibilityMask:
    """Per-vertex visibility flags for one view."""

    flags: Array

    def __post_init__(self):
        f = np.asarray(self.flags, dtype=bool).reshape(-1)
        object.__setattr__(self, "flags", f)

    def __len__(self) -> int:
        return len(self.flags)


@dataclass(frozen=True)
class RedyeReport:
    """What redye_mesh did: per-scene visible counts and the vertices no
    scene could color (they keep their prior color)."""

    scene_visible_counts: tuple[int, ...]
    unseen_indices: Array

    @property
    def unseen_count(self) -> int:
        return len(self.unseen_indices)


def hidden_point_removal(
    pts: PointCloud, viewpoint, radius_factor: float = _DEFAULT_RADIUS_FACTOR
) -> VisibilityMask:
    """Visibility by spherical flipping.

    Each point is reflected across the sphere of radius
    radius_factor x max distance centered on the viewpoint; a point is
    visible exactly when its reflection lands on the convex hull of the
    reflected set plus the viewpoint itself.
    """
    if len(pts) == 0:
        raise EmptyCloud("visibility needs at least one point")
    if radius_factor < 1.0:
        raise ValidationError("radius_factor must be >= 1")
    view = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    p = pts.positions - view
    norms = np.linalg.norm(p, axis=1)
    r = radius_factor * norms.max()
    if r == 0.0:
        # every point coincides with the viewpoint
        return VisibilityMask(np.ones(len(pts), dtype=bool))
    at_view = norms == 0.0
    safe = np.where(at_view, 1.0, norms)
    flipped = p + 2.0 * (r - norms)[:, None] * (p / safe[:, None])
    cloud = np.vstack([flipped[~at_view], np.zeros(3)])
    visible_rows = _hull_vertex_rows(cloud)
    visible_rows.discard(len(cloud) - 1)  # the viewpoint itself
    flags = np.zeros(len(pts), dtype=bool)
    flags[at_view] = True
    idx_map = np.nonzero(~at_view)[0]
    if visible_rows:
        flags[idx_map[sorted(visible_rows)]] = True
    return VisibilityMask(flags)


def _hull_vertex_rows(cloud: Array) -> set[int]:
    """Rows of `cloud` that are convex-hull vertices, falling back to
    lower-dimensional hulls when the set is coplanar or collinear."""
    try:
        return set(int(i) for i in ConvexHull(cloud).vertices)
    except QhullError:
        pass
    centered = cloud - cloud.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    scale = s[0] if s[0] > 0 else 1.0
    rank = int(np.sum(s > 1e-9 * scale))
    if rank <= 0:
        return set(range(len(cloud)))
    if rank == 1:
        t = centered @ vt[0]
        return {int(np.argmin(t)), int(np.argmax(t))}
    uv = centered @ vt[:2].T
    try:
        return set(int(i) for i in ConvexHull(uv).vertices)
    except QhullError:
        # collinear within qhull's tighter tolerance after all
        t = uv @ uv[int(np.argmax(np.linalg.norm(uv, axis=1)))]
        return {int(np.argmin(t)), int(np.argmax(t))}


def _vertex_normals(mesh: TriangleMesh) -> Array:
    """Area-weighted average of incident triangle normals, unit length."""
    v, t = mesh.vertices, mesh.triangles
    face = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    normals = np.zeros_like(v)
    for k in range(3):
        np.add.at(normals, t[:, k], face)
    lengths = np.linalg.norm(normals, axis=1)
    lengths[lengths == 0] = 1.0
    return normals / lengths[:, None]


def bilinear_sample(image: Array, uv: Array) -> Array:
    """Sample an (H, W, 3) float image at continuous pixel coordinates."""
    u, v = uv[:, 0], uv[:, 1]
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    h, w = image.shape[:2]
    u0 = np.clip(u0, 0, w - 2)
    v0 = np.clip(v0, 0, h - 2)
    fu = (u - u0)[:, None]
    fv = (v - v0)[:, None]
    c00 = image[v0, u0]
    c01 = image[v0, u0 + 1]
    c10 = image[v0 + 1, u0]
    c11 = image[v0 + 1, u0 + 1]
    return (
        c00 * (1 - fu) * (1 - fv)
        + c01 * fu * (1 - fv)
        + c10 * (1 - fu) * fv
        + c11 * fu * fv
    )


def redye_mesh(
    mesh: TriangleMesh,
    scenes: list[tuple[RgbImage, PinholeCamera, RigidTransform]],
    radius_factor: float = _DEFAULT_RADIUS_FACTOR,
) -> tuple[TriangleMesh, RedyeReport]:
    """Recolor mesh vertices from RGB views.

    Each scene supplies an image, its camera, and the transform taking
    reference coordinates into that camera's frame. A vertex contributes
    in a scene when hidden-point removal marks it visible, it lies in
    front of the camera, and it projects inside the image. Scene samples
    are averaged with weight max(0, n.v)^2.
    """
    if len(mesh.vertices) == 0:
        raise EmptyInput("mesh has no vertices")
    if len(scenes) == 0:
        raise NoScenes("re-dyeing needs at least one scene")
    verts = mesh.vertices
    normals = _vertex_normals(mesh)
    n = len(verts)
    accum = np.zeros((n, 3))
    weight_sum = np.zeros(n)
    visible_counts = []
    for image, camera, to_camera in scenes:
        cam_pts = to_camera.apply(verts)
        cam_origin = invert(to_camera).translation
        mask = hidden_point_removal(
            PointCloud(verts), cam_origin, radius_factor
        ).flags
        uv, in_front = project_points(camera, cam_pts)
        usable = mask & in_front & in_image(camera, uv)
        view_dir = cam_origin - verts
        view_len = np.linalg.norm(view_dir, axis=1)
        view_len[view_len == 0] = 1.0
        cos = np.einsum("ij,ij->i", normals, view_dir / view_len[:, None])
        w = np.maximum(0.0, cos) ** 2
        usable &= w > 0
        visible_counts.append(int(usable.sum()))
        if not np.any(usable):
            continue
        img = image.pixels.astype(np.float64) / 255.0
        colors = bilinear_sample(img, uv[usable])
        accum[usable] += w[usable, None] * colors
        weight_sum[usable] += w[usable]
    dyed = weight_sum > 0
    prior = (
        mesh.vertex_colors
        if mesh.vertex_colors is not None
        else np.full((n, 3), 0.5)
    )
    out = prior.copy()
    out[dyed] = accum[dyed] / weight_sum[dyed, None]
    report = RedyeReport(
        scene_visible_counts=tuple(visible_counts),
        unseen_indices=np.nonzero(~dyed)[0],
    )
    return TriangleMesh(verts, mesh.triangles, vertex_colors=out), report
