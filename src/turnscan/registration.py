"""Alignment of the upright and flipped fused clouds.

Both variants share one multi-scale Gauss-Newton engine over nearest
neighbor correspondences: point-to-plane uses only the geometric
residual, the colored variant adds a photometric residual linearized on
each target point's tangent plane. With color weight 1 the colored
variant degenerates exactly to point-to-plane (the photometric rows are
multiplied by zero).

To keep results equivariant under a common rigid motion of both clouds,
the engine internally works in a canonical frame derived from the
target's principal axes; the voxel grids used by the coarse-to-fine
schedule are anchored in that frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import KdIndex, _take, voxel_downsample
from .errors import (
    BadFraction,
    EmptyCloud,
    MissingColors,
    MissingNormals,
    NoCorrespondences,
    ValidationError,
)
from .geometry import (
    Array,
    PointCloud,
    RigidTransform,
    compose,
    invert,
    rotation_x,
    se3_exp,
    transform_points,
)

_LUMA = np.array([0.299, 0.587, 0.114])
_NORMAL_AGREEMENT_COS = np.cos(np.radians(45.0))
_GRADIENT_NEIGHBORS = 10
# relative Tikhonov damping of the normal equations: keeps steps bounded
# along nearly unconstrained directions (e.g. the axis of a textured
# cylinder) without moving any stationary point
_DAMPING = 1e-6


@dataclass
class IcpParams:
    """Multi-scale schedule and weights for both ICP variants.

    max_correspondence_mm of None means 4x the voxel size at each scale.
    """

    voxel_schedule_mm: tuple[float, ...] = (4.0, 2.0, 1.0)
    max_iterations: tuple[int, ...] = (50, 30, 14)
    max_correspondence_mm: float | None = None
    color_weight: float = 0.968
    convergence_eps: float = 1e-6

    def __post_init__(self):
        if len(self.voxel_schedule_mm) != len(self.max_iterations):
            raise ValidationError("voxel and iteration schedules must align")
        if len(self.voxel_schedule_mm) < 1:
            raise ValidationError("schedules need at least one scale")
        if any(v <= 0 for v in self.voxel_schedule_mm):
            raise ValidationError("voxel sizes must be positive")
        if any(i < 1 for i in self.max_iterations):
            raise ValidationError("iteration caps must be >= 1")
        if not 0.0 <= self.color_weight <= 1.0:
            raise ValidationError("color weight must lie in [0, 1]")
        if self.convergence_eps <= 0:
            raise ValidationError("convergence threshold must be positive")

    def correspondence_radius(self, scale: int) -> float:
        if self.max_correspondence_mm is not None:
            return self.max_correspondence_mm
        return 4.0 * self.voxel_schedule_mm[scale]


@dataclass
class IcpResult:
    transform: RigidTransform
    final_rmse: float
    iterations_used: list[int]
    converged: bool
    # (objective before step, objective after step) per accepted iteration,
    # both evaluated on that iteration's fixed correspondence set
    objective_trace: list[tuple[float, float]] = field(default_factory=list)


def initial_flip_guess(upright: PointCloud, flipped: PointCloud) -> RigidTransform:
    """Rotation of pi about the reference X axis, translated so the
    rotated flipped cloud's bounding-box center lands on the upright
    cloud's bounding-box center."""
    if len(upright) == 0 or len(flipped) == 0:
        raise EmptyCloud("flip guess needs two nonempty clouds")
    r = rotation_x(np.pi)
    center_up = (upright.positions.min(0) + upright.positions.max(0)) / 2
    lo, hi = flipped.positions.min(0), flipped.positions.max(0)
    center_fl = (lo + hi) / 2
    return RigidTransform(r, center_up - r @ center_fl)


def trim_overlap_band(pts: PointCloud, fraction: float) -> PointCloud:
    """Keep points whose z lies in the central `fraction` of the z extent."""
    if not 0.0 < fraction <= 1.0:
        raise BadFraction(f"fraction must be in (0, 1], got {fraction}")
    if len(pts) == 0:
        return pts
    z = pts.positions[:, 2]
    z_min, z_max = z.min(), z.max()
    mid = (z_min + z_max) / 2
    half = fraction * (z_max - z_min) / 2
    keep = np.abs(z - mid) <= half
    return _take(pts, keep)


def _canonical_frame(positions: Array) -> RigidTransform:
    """Deterministic principal-axes frame of a cloud.

    Axis signs follow the skewness of the projections (falling back to
    the largest-magnitude component for symmetric clouds), so for clouds
    with distinct principal directions the frame co-rotates with any
    rigid motion of the input.
    """
    centroid = positions.mean(axis=0)
    centered = positions - centroid
    cov = centered.T @ centered / max(len(positions), 1)
    _, vecs = np.linalg.eigh(cov)
    axes = []
    for col in (2, 1):  # descending eigenvalue order
        a = vecs[:, col]
        proj = centered @ a
        spread = np.sqrt(np.mean(proj**2))
        skew = 0.0 if spread < 1e-12 else float(np.mean(proj**3) / spread**3)
        if abs(skew) > 1e-3:
            if skew < 0:
                a = -a
        else:
            lead = int(np.argmax(np.abs(a)))
            if a[lead] < 0:
                a = -a
        axes.append(a)
    basis = np.vstack([axes[0], axes[1], np.cross(axes[0], axes[1])])
    return RigidTransform(basis, -basis @ centroid)


def _luminance(colors: Array) -> Array:
    return colors @ _LUMA


def _color_gradients(pts: PointCloud, index: KdIndex) -> Array:
    """Per-point color gradient on each tangent plane.

    Least squares over the k nearest neighbors' projected offsets, with
    the normal added as a zero-value constraint row; the result is then
    projected exactly into the tangent plane.
    """
    p = pts.positions
    n = pts.normals
    c = _luminance(pts.colors)
    k = min(_GRADIENT_NEIGHBORS, len(p) - 1)
    if k < 1:
        return np.zeros_like(p)
    _, idx = index.query(p, k + 1)
    offs = p[idx[:, 1:]] - p[:, None, :]
    # project neighbor offsets onto the tangent plane
    offs_t = offs - np.einsum("mkj,mj->mk", offs, n)[:, :, None] * n[:, None, :]
    rhs_c = c[idx[:, 1:]] - c[:, None]
    g = np.einsum("mki,mkj->mij", offs_t, offs_t) + np.einsum("mi,mj->mij", n, n)
    g += 1e-12 * np.eye(3)
    rhs = np.einsum("mki,mk->mi", offs_t, rhs_c)
    grad = np.linalg.solve(g, rhs[..., None])[..., 0]
    grad -= np.einsum("mi,mi->m", grad, n)[:, None] * n
    return grad


def _objective(
    delta: float, r_geom: Array, r_color: Array | None
) -> float:
    e = delta * float(np.dot(r_geom, r_geom))
    if r_color is not None:
        e += (1.0 - delta) * float(np.dot(r_color, r_color))
    return e


def _residuals(
    src_pts: Array,
    src_luma: Array | None,
    tgt: PointCloud,
    tgt_luma: Array | None,
    tgt_grad: Array | None,
    pairs: tuple[Array, Array],
    transform: RigidTransform,
) -> tuple[Array, Array | None]:
    si, ti = pairs
    p = transform.apply(src_pts[si])
    q = tgt.positions[ti]
    n = tgt.normals[ti]
    r_geom = np.einsum("ij,ij->i", p - q, n)
    r_color = None
    if src_luma is not None:
        proj = p - r_geom[:, None] * n
        approx = tgt_luma[ti] + np.einsum("ij,ij->i", tgt_grad[ti], proj - q)
        r_color = src_luma[si] - approx
    return r_geom, r_color


def _solve_step(
    src_pts: Array,
    src_luma: Array | None,
    tgt: PointCloud,
    tgt_luma: Array | None,
    tgt_grad: Array | None,
    pairs: tuple[Array, Array],
    transform: RigidTransform,
    delta: float,
) -> Array:
    si, ti = pairs
    p = transform.apply(src_pts[si])
    q = tgt.positions[ti]
    n = tgt.normals[ti]
    r_geom = np.einsum("ij,ij->i", p - q, n)
    rows = [np.sqrt(delta) * np.column_stack([np.cross(p, n), n])]
    res = [np.sqrt(delta) * r_geom]
    if src_luma is not None:
        proj = p - r_geom[:, None] * n
        m = tgt_grad[ti]  # already tangent to the target plane
        r_color = src_luma[si] - tgt_luma[ti] - np.einsum("ij,ij->i", m, proj - q)
        w = np.sqrt(1.0 - delta)
        rows.append(w * np.column_stack([-np.cross(p, m), -m]))
        res.append(w * r_color)
    jac = np.vstack(rows)
    rhs = -np.concatenate(res)
    jtj = jac.T @ jac
    lam = max(_DAMPING * np.trace(jtj) / 6.0, 1e-12)
    return np.linalg.solve(jtj + lam * np.eye(6), jac.T @ rhs)


def _register(
    source: PointCloud,
    target: PointCloud,
    init: RigidTransform,
    params: IcpParams,
    use_color: bool,
) -> IcpResult:
    if len(source) == 0 or len(target) == 0:
        raise EmptyCloud("registration needs two nonempty clouds")
    if target.normals is None:
        raise MissingNormals("registration target needs normals")
    if use_color and (source.colors is None or target.colors is None):
        raise MissingColors("colored registration needs colors on both clouds")
    frame = _canonical_frame(target.positions)
    src_c = transform_points(frame, source)
    tgt_c = transform_points(frame, target)
    current = compose(frame, compose(init, invert(frame)))
    delta = params.color_weight if use_color else 1.0
    # with full geometric weight the color rows vanish, so skip building
    # them; this makes color_weight=1 agree with point-to-plane exactly
    color_rows = use_color and delta < 1.0

    iterations_used: list[int] = []
    trace: list[tuple[float, float]] = []
    converged = False
    final_rmse = 0.0
    n_scales = len(params.voxel_schedule_mm)
    for scale in range(n_scales):
        voxel = params.voxel_schedule_mm[scale]
        radius = params.correspondence_radius(scale)
        src = voxel_downsample(src_c, voxel)
        tgt = voxel_downsample(tgt_c, voxel)
        index = KdIndex(tgt.positions)
        src_luma = tgt_luma = tgt_grad = None
        if color_rows:
            src_luma = _luminance(src.colors)
            tgt_luma = _luminance(tgt.colors)
            tgt_grad = _color_gradients(tgt, index)

        prev_rmse = None
        used = 0
        scale_converged = False
        for _ in range(params.max_iterations[scale]):
            moved = current.apply(src.positions)
            dist, nn = index.query(moved, 1)
            dist, nn = dist[:, 0], nn[:, 0]
            keep = dist <= radius
            if src.normals is not None:
                rotated = src.normals @ current.rotation.T
                agree = np.einsum("ij,ij->i", rotated, tgt.normals[nn])
                keep &= agree >= _NORMAL_AGREEMENT_COS
            si = np.nonzero(keep)[0]
            if len(si) == 0:
                raise NoCorrespondences(
                    f"scale {scale}: no pairs within {radius:.3g} mm"
                )
            pairs = (si, nn[si])
            r_geom, r_color = _residuals(
                src.positions, src_luma, tgt, tgt_luma, tgt_grad, pairs, current
            )
            e_before = _objective(delta, r_geom, r_color)
            step = _solve_step(
                src.positions, src_luma, tgt, tgt_luma, tgt_grad, pairs, current, delta
            )
            # backtracking keeps the fixed-correspondence objective monotone
            accepted = None
            for _ in range(12):
                candidate = compose(se3_exp(step), current)
                r_geom2, r_color2 = _residuals(
                    src.positions, src_luma, tgt, tgt_luma, tgt_grad, pairs, candidate
                )
                e_after = _objective(delta, r_geom2, r_color2)
                if e_after <= e_before:
                    accepted = (candidate, e_after, r_geom2)
                    break
                step = step / 2.0
            if accepted is None:
                scale_converged = True
                break
            current, e_after, r_geom2 = accepted
            used += 1
            trace.append((e_before, e_after))
            final_rmse = float(np.sqrt(np.mean(r_geom2**2)))
            rmse = np.sqrt(e_after / len(si))
            if prev_rmse is not None:
                if abs(prev_rmse - rmse) / max(prev_rmse, 1e-30) < params.convergence_eps:
                    scale_converged = True
                    break
            if np.linalg.norm(step) < 1e-12:
                scale_converged = True
                break
            prev_rmse = rmse
        iterations_used.append(used)
        if scale == n_scales - 1:
            converged = scale_converged
    transform = compose(invert(frame), compose(current, frame))
    return IcpResult(
        transform=transform,
        final_rmse=final_rmse,
        iterations_used=iterations_used,
        converged=converged,
        objective_trace=trace,
    )


def icp_point_to_plane(
    source: PointCloud,
    target: PointCloud,
    init: RigidTransform,
    params: IcpParams,
) -> IcpResult:
    """Multi-scale point-to-plane ICP from the given initial transform."""
    return _register(source, target, init, params, use_color=False)


def colored_icp(
    source: PointCloud,
    target: PointCloud,
    init: RigidTransform,
    params: IcpParams,
) -> IcpResult:
    """Joint geometric + photometric registration.

    Per-iteration objective: color_weight * E_geometric +
    (1 - color_weight) * E_color, with E_color measured against the
    target's locally linearized luminance field.
    """
    return _register(source, target, init, params, use_color=True)
