"""Test meshes built from point sets."""

import numpy as np
from scipy.spatial import ConvexHull

from turnscan.geometry import TriangleMesh


def convex_hull_3d(pts) -> TriangleMesh:
    """Convex hull with outward-oriented triangles.

    The returned mesh contains exactly the hull vertices (ascending input
    order); every input point lies inside or on the hull. Qhull raises
    ``QhullError`` for fewer than four points or a flat set.
    """
    p = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    hull = ConvexHull(p)
    keep = np.sort(hull.vertices)
    remap = np.full(len(p), -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    tris = remap[hull.simplices]
    verts = p[keep]
    # qhull does not orient 3D simplices consistently; flip each triangle
    # whose geometric normal disagrees with the facet's outward normal
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    outward = hull.equations[:, :3]
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), outward) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return TriangleMesh(verts, tris)
