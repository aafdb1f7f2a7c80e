"""Per-scene pose estimation from a planar target, robust RGB/depth
relative-extrinsic averaging, and depth-scale equalization.

Pose estimation works on a planar target (all object points at z = 0), so
it goes through a plane-to-image homography: normalized DLT, decomposition
with the intrinsics into a rotation and translation, then Gauss-Newton
refinement of the pixel reprojection error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BehindCamera,
    CameraOnPlane,
    DegenerateConfiguration,
    EmptySet,
    NonPositiveScale,
    NoConsensus,
    TooFewPoints,
    ValidationError,
)
from .geometry import (
    Array,
    DepthMap,
    PinholeCamera,
    Plane,
    PointCloud,
    RigidTransform,
    _as_array,
    compose,
    invert,
    project_to_se3,
    se3_exp,
)

_GN_MAX_ITERS = 100
_GN_STEP_TOL = 1e-10


@dataclass
class CorrespondenceSet:
    """Planar-target 3D points (z = 0, mm) with their observed pixels."""

    object_points: Array
    image_points: Array

    def __post_init__(self):
        obj = np.asarray(self.object_points, dtype=np.float64).reshape(-1, 3)
        img = np.asarray(self.image_points, dtype=np.float64).reshape(-1, 2)
        if len(obj) != len(img):
            raise ValidationError("object and image point counts differ")
        if len(obj) and np.max(np.abs(obj[:, 2])) > 1e-9:
            raise ValidationError("object points must lie on the z = 0 plane")
        self.object_points = obj
        self.image_points = img

    def __len__(self) -> int:
        return len(self.object_points)


@dataclass
class CalibrationSet:
    """Index-aligned per-scene poses of the RGB and depth cameras."""

    rgb_poses: list[RigidTransform]
    depth_poses: list[RigidTransform]

    def __post_init__(self):
        if len(self.rgb_poses) != len(self.depth_poses):
            raise ValidationError("pose lists must be index-aligned")


@dataclass
class ScaleEstimate:
    """Per-scene depth scales and their arithmetic mean."""

    per_scene: list[float]

    def __post_init__(self):
        if any(a <= 0 for a in self.per_scene):
            raise ValidationError("every per-scene scale must be positive")

    @property
    def global_scale(self) -> float:
        return float(np.mean(self.per_scene))


def _hartley_normalization(points: Array) -> Array:
    """Similarity transform mapping 2D points to centroid 0, mean norm sqrt(2)."""
    centroid = points.mean(axis=0)
    spread = np.mean(np.linalg.norm(points - centroid, axis=1))
    if spread < 1e-12:
        raise DegenerateConfiguration("correspondence points are coincident")
    s = np.sqrt(2.0) / spread
    t = np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )
    return t


def _homography_dlt(src: Array, dst: Array) -> Array:
    """Homography H with dst ~ H @ src (both (n,2), normalized inputs)."""
    n = len(src)
    a = np.zeros((2 * n, 9))
    x, y = src[:, 0], src[:, 1]
    u, v = dst[:, 0], dst[:, 1]
    a[0::2, 0] = x
    a[0::2, 1] = y
    a[0::2, 2] = 1.0
    a[0::2, 6] = -u * x
    a[0::2, 7] = -u * y
    a[0::2, 8] = -u
    a[1::2, 3] = x
    a[1::2, 4] = y
    a[1::2, 5] = 1.0
    a[1::2, 6] = -v * x
    a[1::2, 7] = -v * y
    a[1::2, 8] = -v
    _, s, vt = np.linalg.svd(a)
    # the solution lives in the null space; a second vanishing singular
    # value (or near-zero row space) means the configuration is degenerate
    if s[-2] <= 1e-12 * s[0]:
        raise DegenerateConfiguration("correspondences admit a family of homographies")
    return vt[-1].reshape(3, 3)


def _decompose_homography(h: Array) -> RigidTransform:
    """Split a metric homography [r1 r2 t] into a pose with the target in
    front of the camera (positive depth for the plane origin)."""
    scale = 2.0 / (np.linalg.norm(h[:, 0]) + np.linalg.norm(h[:, 1]))
    if not np.isfinite(scale):
        raise DegenerateConfiguration("homography columns vanish")
    candidates = []
    for sign in (1.0, -1.0):
        g = sign * scale * h
        r1, r2, t = g[:, 0], g[:, 1], g[:, 2]
        rot = np.column_stack([r1, r2, np.cross(r1, r2)])
        if t[2] > 0:
            candidates.append((rot, t))
    if not candidates:
        raise BehindCamera("no decomposition places the target in front of the camera")
    rot, t = candidates[0]
    return project_to_se3(rot, t)


def _reprojection_residuals(
    cam: PinholeCamera, pose: RigidTransform, corr: CorrespondenceSet
) -> tuple[Array, Array]:
    """Pixel residuals (2n,) and Jacobian (2n,6) w.r.t. a left-applied twist."""
    p = pose.apply(corr.object_points)
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    if np.any(z <= 0):
        raise BehindCamera("refinement pushed target points behind the camera")
    u = cam.fx * x / z + cam.cx
    v = cam.fy * y / z + cam.cy
    res = np.empty(2 * len(p))
    res[0::2] = u - corr.image_points[:, 0]
    res[1::2] = v - corr.image_points[:, 1]
    # d(uv)/dp for each point
    duv_dp = np.zeros((len(p), 2, 3))
    duv_dp[:, 0, 0] = cam.fx / z
    duv_dp[:, 0, 2] = -cam.fx * x / z**2
    duv_dp[:, 1, 1] = cam.fy / z
    duv_dp[:, 1, 2] = -cam.fy * y / z**2
    # left perturbation exp([w, v]) pose: dp/dw = -[p]x, dp/dv = I
    dp_dxi = np.zeros((len(p), 3, 6))
    dp_dxi[:, 0, 1] = z
    dp_dxi[:, 0, 2] = -y
    dp_dxi[:, 1, 0] = -z
    dp_dxi[:, 1, 2] = x
    dp_dxi[:, 2, 0] = y
    dp_dxi[:, 2, 1] = -x
    dp_dxi[:, :, 3:] = np.eye(3)
    jac = np.einsum("nij,njk->nik", duv_dp, dp_dxi).reshape(2 * len(p), 6)
    return res, jac


def estimate_pose_pnp(cam: PinholeCamera, corr: CorrespondenceSet) -> RigidTransform:
    """Pose mapping target coordinates into the camera frame, minimizing
    mean squared pixel reprojection error."""
    if len(corr) < 4:
        raise DegenerateConfiguration(f"need at least 4 points, have {len(corr)}")
    obj_xy = corr.object_points[:, :2]
    rank = np.linalg.matrix_rank(obj_xy - obj_xy.mean(axis=0), tol=1e-9)
    if rank < 2:
        raise DegenerateConfiguration("object points are collinear")
    # work in K-normalized image coordinates
    img_n = np.column_stack(
        [
            (corr.image_points[:, 0] - cam.cx) / cam.fx,
            (corr.image_points[:, 1] - cam.cy) / cam.fy,
        ]
    )
    t_obj = _hartley_normalization(obj_xy)
    t_img = _hartley_normalization(img_n)
    obj_h = obj_xy @ t_obj[:2, :2].T + t_obj[:2, 2]
    img_h = img_n @ t_img[:2, :2].T + t_img[:2, 2]
    h_norm = _homography_dlt(obj_h, img_h)
    h = np.linalg.inv(t_img) @ h_norm @ t_obj
    pose = _decompose_homography(h)
    # Gauss-Newton on pixel reprojection error
    for _ in range(_GN_MAX_ITERS):
        res, jac = _reprojection_residuals(cam, pose, corr)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        pose = compose(se3_exp(step), pose)
        if np.linalg.norm(step) < _GN_STEP_TOL:
            break
    return pose


def relative_extrinsic(cal: CalibrationSet) -> RigidTransform:
    """Robust RGB-to-depth transform: the entry-wise L1 minimizer over the
    per-scene products depth_pose . invert(rgb_pose), i.e. the per-entry
    median of those 4x4 matrices, snapped back onto SE(3)."""
    if len(cal.rgb_poses) == 0:
        raise EmptySet("no scenes in the calibration set")
    stack = np.stack(
        [
            compose(d, invert(r)).matrix()
            for r, d in zip(cal.rgb_poses, cal.depth_poses)
        ]
    )
    med = np.median(stack, axis=0)
    return project_to_se3(med[:3, :3], med[:3, 3])


def fit_plane_ransac(
    pts: PointCloud, threshold_mm: float, iterations: int, seed: int
) -> tuple[Plane, Array]:
    """RANSAC plane fit with a PCA refit on the winning consensus set.

    Deterministic for a fixed seed. Returns the refit plane and the
    indices of points within threshold of it (ascending).
    """
    n = len(pts)
    if n < 3:
        raise TooFewPoints(f"plane fit needs at least 3 points, have {n}")
    if threshold_mm <= 0:
        raise ValidationError("threshold must be positive")
    if iterations < 1:
        raise ValidationError("need at least one iteration")
    p = pts.positions
    rng = np.random.default_rng(seed)
    samples = np.array([rng.choice(n, size=3, replace=False) for _ in range(iterations)])
    a, b, c = p[samples[:, 0]], p[samples[:, 1]], p[samples[:, 2]]
    normals = np.cross(b - a, c - a)
    lengths = np.linalg.norm(normals, axis=1)
    ok = lengths > 1e-12
    best_count = -1
    best_plane = None
    block = max(1, int(2**22 // max(n, 1)))
    for start in range(0, iterations, block):
        stop = min(start + block, iterations)
        sel = np.nonzero(ok[start:stop])[0] + start
        if len(sel) == 0:
            continue
        nrm = normals[sel] / lengths[sel, None]
        offs = -np.einsum("ij,ij->i", nrm, a[sel])
        dist = np.abs(nrm @ p.T + offs[:, None])
        counts = np.count_nonzero(dist <= threshold_mm, axis=1)
        top = int(np.argmax(counts))
        if counts[top] > best_count:
            best_count = int(counts[top])
            best_plane = (nrm[top], offs[top])
    if best_plane is None or best_count < 0.10 * n:
        raise NoConsensus(
            f"best inlier ratio {max(best_count, 0) / n:.3f} below 10%"
        )
    inliers = np.abs(p @ best_plane[0] + best_plane[1]) <= threshold_mm
    plane = _pca_plane(p[inliers])
    final = np.nonzero(np.abs(plane.signed_distance(p)) <= threshold_mm)[0]
    if len(final) >= 3:
        plane = _pca_plane(p[final])
        final = np.nonzero(np.abs(plane.signed_distance(p)) <= threshold_mm)[0]
    return plane, final


def _pca_plane(points: Array) -> Plane:
    centroid = points.mean(axis=0)
    centered = points - centroid
    cov = centered.T @ centered / len(points)
    _, vecs = np.linalg.eigh(cov)
    normal = vecs[:, 0]
    # deterministic orientation: largest-magnitude component positive
    lead = np.argmax(np.abs(normal))
    if normal[lead] < 0:
        normal = -normal
    return Plane(normal, -float(normal @ centroid))


def estimate_scale_scene(plane: Plane, cam_origin_ref) -> float:
    """Depth scale alpha = (d0 + d1) / d1 for one scene.

    d1 is the camera-to-plane distance; d0 is the signed offset of the
    fitted plane from the reference origin, measured with the plane normal
    oriented toward the camera, so a plane sitting between the camera and
    the true table plane yields alpha > 1.
    """
    o = _as_array(cam_origin_ref, (3,), "camera origin")
    side = float(plane.normal @ o + plane.offset)
    if abs(side) <= 1e-6:
        raise CameraOnPlane("camera origin lies on the fitted plane")
    normal, offset = plane.normal, plane.offset
    if side < 0:
        normal, offset, side = -normal, -offset, -side
    d1 = side
    d0 = -offset
    return (d0 + d1) / d1


def apply_scale(d: DepthMap, alpha: float) -> DepthMap:
    """Multiply every valid depth value by alpha; invalid pixels pass through."""
    if alpha <= 0:
        raise NonPositiveScale(f"scale must be positive, got {alpha}")
    values = np.where(d.values > 0, d.values * alpha, d.values)
    return DepthMap(d.width, d.height, values)
