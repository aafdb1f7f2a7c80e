"""Core value types and exact camera/transform math.

Conventions used throughout the package:

- Units are millimeters for every length and depth value.
- Coordinates are right-handed; cameras look down their +Z axis, +X is
  image-right and +Y is image-down.
- Pixel (u, v) refers to the center of that pixel, so an image point at
  integer coordinates backprojects exactly through the pixel center.
- Rotations are stored as 3x3 matrices because the robust pose averaging
  downstream operates entry-wise on matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix, ValidationError

Array = np.ndarray

_ORTHO_TOL = 1e-9


def _as_array(x, shape, name: str) -> Array:
    try:
        a = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be an array of numbers: {exc}") from exc
    if a.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite values")
    return a


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: p_out = rotation @ p_in + translation (mm)."""

    rotation: Array
    translation: Array

    def __post_init__(self):
        r = _as_array(self.rotation, (3, 3), "rotation")
        t = _as_array(self.translation, (3,), "translation")
        if np.linalg.norm(r.T @ r - np.eye(3)) > _ORTHO_TOL:
            raise ValidationError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValidationError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def matrix(self) -> Array:
        """Homogeneous 4x4 matrix (row-major)."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: Array) -> Array:
        """Map an (n,3) or (3,) array of points through this transform."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation


@dataclass(frozen=True)
class PinholeCamera:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValidationError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValidationError("principal point must lie inside the raster")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("raster dimensions must be positive")


@dataclass
class PointCloud:
    """Points in mm with optional aligned colors (RGB in [0,1]) and unit normals."""

    positions: Array
    colors: Array | None = None
    normals: Array | None = None

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 3:
            raise ValidationError(f"positions must be (n,3), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValidationError("positions contain non-finite values")
        self.positions = p
        n = len(p)
        if self.colors is not None:
            c = np.asarray(self.colors, dtype=np.float64)
            if c.shape != (n, 3):
                raise ValidationError("colors must align with positions")
            self.colors = c
        if self.normals is not None:
            m = np.asarray(self.normals, dtype=np.float64)
            if m.shape != (n, 3):
                raise ValidationError("normals must align with positions")
            lengths = np.linalg.norm(m, axis=1)
            if n and np.max(np.abs(lengths - 1.0)) > 1e-6:
                raise ValidationError("normals must be unit length within 1e-6")
            self.normals = m

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class DepthMap:
    """Dense depth raster in mm; values <= 0 mark invalid pixels."""

    width: int
    height: int
    values: Array

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.height, self.width):
            raise ValidationError(
                f"depth raster must be (height={self.height}, width={self.width}),"
                f" got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("depth raster contains non-finite values")
        self.values = v

    def valid_mask(self) -> Array:
        return self.values > 0


@dataclass
class RgbImage:
    """Dense 8-bit RGB raster."""

    width: int
    height: int
    pixels: Array

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.shape != (self.height, self.width, 3):
            raise ValidationError(
                f"pixel raster must be (height, width, 3), got {px.shape}"
            )
        self.pixels = px.astype(np.uint8)


@dataclass
class TriangleMesh:
    """Indexed triangle mesh in mm with optional per-vertex RGB in [0,1]."""

    vertices: Array
    triangles: Array
    vertex_colors: Array | None = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if not np.all(np.isfinite(v)):
            raise ValidationError("vertices contain non-finite values")
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise ValidationError("triangle index out of range")
        if len(t):
            degenerate = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
            if np.any(degenerate):
                raise ValidationError("mesh contains degenerate triangles")
        self.vertices = v
        self.triangles = t
        if self.vertex_colors is not None:
            c = np.asarray(self.vertex_colors, dtype=np.float64)
            if c.shape != (len(v), 3):
                raise ValidationError("vertex colors must align with vertices")
            self.vertex_colors = c


@dataclass(frozen=True)
class Plane:
    """Plane {x : normal . x + offset = 0}; normal is unit, offset in mm."""

    normal: Array
    offset: float

    def __post_init__(self):
        n = _as_array(self.normal, (3,), "normal")
        if abs(np.linalg.norm(n) - 1.0) > _ORTHO_TOL:
            raise ValidationError("plane normal must be unit length within 1e-9")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    def signed_distance(self, points: Array) -> Array:
        p = np.asarray(points, dtype=np.float64)
        return p @ self.normal + self.offset


# ----------------------------------------------------------------- operations

def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying b first, then a."""
    rotation = a.rotation @ b.rotation
    translation = a.rotation @ b.translation + a.translation
    return project_to_se3(rotation, translation)


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform: compose(t, invert(t)) is the identity."""
    r_inv = t.rotation.T
    return RigidTransform(r_inv, -r_inv @ t.translation)


def transform_points(t: RigidTransform, pts: PointCloud) -> PointCloud:
    """Rigidly move a cloud: positions get R p + t, normals get R n."""
    positions = t.apply(pts.positions)
    normals = None if pts.normals is None else pts.normals @ t.rotation.T
    colors = None if pts.colors is None else pts.colors.copy()
    return PointCloud(positions, colors=colors, normals=normals)


def project_points(cam: PinholeCamera, points: Array) -> tuple[Array, Array]:
    """Vectorized projection of (n,3) camera-frame points.

    Returns (uv, in_front) where rows of uv are valid only where
    in_front (z > 0) is set.
    """
    p = np.asarray(points, dtype=np.float64)
    in_front = p[:, 2] > 0
    z = np.where(in_front, p[:, 2], 1.0)
    uv = np.empty((len(p), 2))
    uv[:, 0] = cam.fx * p[:, 0] / z + cam.cx
    uv[:, 1] = cam.fy * p[:, 1] / z + cam.cy
    return uv, in_front


def in_image(cam: PinholeCamera, uv: Array) -> Array:
    """Rows of (n,2) pixel coordinates that land on the raster: within the
    pixel centres 0..width-1 and 0..height-1, edges inclusive."""
    return (
        (uv[:, 0] >= 0.0)
        & (uv[:, 0] <= cam.width - 1.0)
        & (uv[:, 1] >= 0.0)
        & (uv[:, 1] <= cam.height - 1.0)
    )


# Candidate pixels tested per pass of the rasterizer. It bounds the working
# memory for any mesh, at about 120 bytes per candidate; a pass always takes
# whole triangles, at least one.
_RASTER_CHUNK = 1 << 20


def rasterize_mesh_mask(
    mesh: TriangleMesh, cam: PinholeCamera, ref_to_cam: RigidTransform
) -> Array:
    """Boolean silhouette of the mesh in the given camera view.

    A pixel centre is covered when its barycentric coordinates in some
    triangle's projection all lie within 1e-12 of [0, 1], edges inclusive
    (the edge-function test of Pineda, SIGGRAPH 1988). Triangles with a
    vertex at camera z <= 1e-9 or a projected area below 1e-12 cover
    nothing. Every pixel of every triangle's clipped bounding box is tested
    in one array pass, over consecutive chunks of whole triangles.
    """
    cam_pts = ref_to_cam.apply(mesh.vertices)
    uv, _ = project_points(cam, cam_pts)
    tris = mesh.triangles
    corners = uv[tris]  # (m, 3, 2)
    size = np.array([cam.width, cam.height], dtype=np.float64)
    # clipped boxes stay empty (lo > hi) exactly when the unclipped ones do
    lo = np.clip(np.ceil(corners.min(axis=1)), 0.0, size)
    hi = np.clip(np.floor(corners.max(axis=1)), -1.0, size - 1.0)
    a = corners[:, 0]
    e1 = corners[:, 1] - a
    e2 = corners[:, 2] - a
    area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    keep = (
        np.all(cam_pts[:, 2][tris] > 1e-9, axis=1)
        & np.all(lo <= hi, axis=1)
        & (np.abs(area) >= 1e-12)
    )
    lo = lo[keep].astype(np.int64)
    span = hi[keep].astype(np.int64) - lo + 1
    a, e1, e2, area = a[keep], e1[keep], e2[keep], area[keep]
    counts = span[:, 0] * span[:, 1]

    starts = np.cumsum(counts) - counts
    ends = starts + counts
    mask = np.zeros(cam.height * cam.width, dtype=bool)
    first = 0
    while first < len(counts):
        last = int(np.searchsorted(ends, starts[first] + _RASTER_CHUNK, side="right"))
        last = max(last, first + 1)
        owner = np.repeat(np.arange(first, last), counts[first:last])
        offset = np.arange(starts[first], ends[last - 1]) - starts[owner]
        row, col = np.divmod(offset, span[owner, 0])
        gu = lo[owner, 0] + col
        gv = lo[owner, 1] + row
        pu = gu - a[owner, 0]
        pv = gv - a[owner, 1]
        e1u, e1v = e1[owner, 0], e1[owner, 1]
        e2u, e2v = e2[owner, 0], e2[owner, 1]
        tri_area = area[owner]
        w1 = (pu * e2v - pv * e2u) / tri_area
        w2 = (e1u * pv - e1v * pu) / tri_area
        inside = (w1 >= -1e-12) & (w2 >= -1e-12) & (w1 + w2 <= 1.0 + 1e-12)
        mask[(gv * cam.width + gu)[inside]] = True
        first = last
    return mask.reshape(cam.height, cam.width)


def pixel_rays(cam: PinholeCamera) -> Array:
    """Camera-frame ray directions with unit z, one per pixel (row-major)."""
    gu, gv = np.meshgrid(
        np.arange(cam.width, dtype=np.float64), np.arange(cam.height, dtype=np.float64)
    )
    return np.column_stack(
        [
            ((gu - cam.cx) / cam.fx).ravel(),
            ((gv - cam.cy) / cam.fy).ravel(),
            np.ones(cam.width * cam.height),
        ]
    )


def backproject(cam: PinholeCamera, d: DepthMap) -> PointCloud:
    """Lift every valid depth pixel to a camera-frame 3D point.

    Points are emitted in raster row-major order so callers can align
    per-pixel attributes with the output.
    """
    if (d.width, d.height) != (cam.width, cam.height):
        raise DimensionMismatch(
            f"depth raster {d.width}x{d.height} does not match camera"
            f" {cam.width}x{cam.height}"
        )
    mask = d.valid_mask()
    v_idx, u_idx = np.nonzero(mask)
    z = d.values[v_idx, u_idx]
    x = (u_idx - cam.cx) * z / cam.fx
    y = (v_idx - cam.cy) * z / cam.fy
    return PointCloud(np.column_stack([x, y, z]))


def project_to_se3(rotation, translation) -> RigidTransform:
    """Snap an arbitrary 3x3 + 3-vector onto SE(3).

    The rotation block is replaced by the nearest orthogonal matrix with
    determinant +1 (polar decomposition via SVD); the translation passes
    through unchanged.
    """
    m = _as_array(rotation, (3, 3), "rotation")
    u, s, vt = np.linalg.svd(m)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise SingularMatrix("rotation block is rank deficient")
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    return RigidTransform(r, np.asarray(translation, dtype=np.float64))


# ------------------------------------------------------------ rotation helpers

def rotation_x(angle_rad: float) -> Array:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle_rad: float) -> Array:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle_rad: float) -> Array:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle(axis, angle_rad: float) -> Array:
    """Rotation matrix for a given axis (need not be unit) and angle."""
    a = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValidationError("rotation axis must be nonzero")
    a = a / norm
    k = np.array(
        [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
    )
    return np.eye(3) + np.sin(angle_rad) * k + (1 - np.cos(angle_rad)) * (k @ k)


def rotation_angle(r: Array) -> float:
    """Absolute rotation angle (rad) of a rotation matrix.

    Uses atan2 of the skew part against the trace, which stays accurate
    for very small angles where the plain arccos form loses half the
    floating-point digits.
    """
    vec = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_a = np.linalg.norm(vec)
    cos_a = (np.trace(r) - 1.0) / 2.0
    return float(np.arctan2(sin_a, cos_a))


def se3_exp(xi: Array) -> RigidTransform:
    """Exponential of a small twist (wx, wy, wz, tx, ty, tz).

    Uses the first-order split (rotation via exact axis-angle, translation
    taken directly), which is what the Gauss-Newton steps in calibration
    and registration parameterize.
    """
    xi = np.asarray(xi, dtype=np.float64)
    w, v = xi[:3], xi[3:]
    angle = np.linalg.norm(w)
    r = np.eye(3) if angle < 1e-16 else axis_angle(w, angle)
    return RigidTransform(r, v)
