"""Synthetic turntable rig rendering depth, RGB, and corner observations.

Objects are the constructive solids of :mod:`turnscan.truth`, built from
analytic primitives, so every rendered depth sample sits exactly on the
true surface: ray casting against quadrics and slabs has no tessellation
error. The rig mimics a two-camera head (structured-light depth plus RGB)
on an arm that visits a fixed set of poses while the turntable steps
through a full revolution; the object is captured upright and flipped. Noise (depth bias, per-pixel depth noise,
arm pose jitter, dropout) is injected after the exact render, and every
scene also yields its ground-truth poses so downstream estimates can be
checked against the values that generated the data. The session's
``ground_truth.json`` sidecar is written by :func:`truth.save_ground_truth`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fileio
from .calibration import CorrespondenceSet
from .errors import IndexOutOfRange, IoFailure, ValidationError
from .geometry import (
    DepthMap,
    PinholeCamera,
    RgbImage,
    RigidTransform,
    axis_angle,
    compose,
    in_image,
    invert,
    pixel_rays,
    project_points,
    rotation_y,
    rotation_z,
)
from .session import BoundingBox, CaptureSession, SceneRecord, save_session
from .truth import Box, GroundTruth, ScenePoses, cast_placed, flip_transform, save_ground_truth

# Not used here. A scene may hold any solid kind, so they stay importable
# from the simulator next to Box, as does the reader of the sidecar that
# generate_session writes.
from .truth import Cylinder, Sphere, Union, load_ground_truth  # noqa: F401

Array = np.ndarray

_T_EPS = 1e-9
_TABLE_RADIUS_MM = 300.0
_TABLE_COLOR = np.array([0.55, 0.53, 0.50])
_BOARD_DARK = np.array([0.08, 0.08, 0.08])
_BOARD_LIGHT = np.array([0.92, 0.92, 0.92])
_BACKGROUND = np.array([0.12, 0.12, 0.15])

__all__ = [
    "AxisGradientTexture",
    "CheckerTexture",
    "NoiseModel",
    "RigConfig",
    "SceneCorners",
    "SceneDescription",
    "default_rig",
    "default_scene",
    "generate_session",
    "look_at",
    "render_scene",
    "scene_index",
]


# ---------------------------------------------------------------------------
# Procedural textures (evaluated in the upright object frame)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckerTexture:
    """3D checker lattice: cell parity over all three axes picks the color."""

    pitch_mm: float
    # High luminance contrast so photometric registration can anchor on
    # the pattern (near-isoluminant pairs leave sliding along a symmetric
    # wall underconstrained).
    color_a: tuple[float, float, float] = (0.92, 0.80, 0.18)
    color_b: tuple[float, float, float] = (0.10, 0.15, 0.60)

    def __post_init__(self):
        if self.pitch_mm <= 0:
            raise ValidationError("checker pitch must be positive")

    def colors_at(self, points: Array) -> Array:
        cells = np.floor(points / self.pitch_mm).astype(np.int64)
        # Solids rest on the table plane z = 0, a lattice plane. Points at or
        # below it take the lowest layer's color, so a face lying on the table
        # has one color: otherwise the rounding of each hit point (and a
        # reconstructed vertex a fraction of a millimetre low) picks the layer.
        cells[:, 2] = np.maximum(cells[:, 2], 0)
        parity = cells.sum(axis=1) % 2
        a = np.asarray(self.color_a, dtype=np.float64)
        b = np.asarray(self.color_b, dtype=np.float64)
        return np.where(parity[:, None] == 0, a, b)


@dataclass(frozen=True)
class AxisGradientTexture:
    """Linear color ramp along one axis between two coordinates (mm)."""

    axis: int
    low_mm: float
    high_mm: float
    color_low: tuple[float, float, float] = (0.1, 0.1, 0.5)
    color_high: tuple[float, float, float] = (0.95, 0.85, 0.1)

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValidationError("gradient axis must be 0, 1, or 2")
        if not self.high_mm > self.low_mm:
            raise ValidationError("gradient range must be increasing")

    def colors_at(self, points: Array) -> Array:
        t = (points[:, self.axis] - self.low_mm) / (self.high_mm - self.low_mm)
        t = np.clip(t, 0.0, 1.0)[:, None]
        lo = np.asarray(self.color_low, dtype=np.float64)
        hi = np.asarray(self.color_high, dtype=np.float64)
        return lo + t * (hi - lo)


# ---------------------------------------------------------------------------
# Rig, scene, and noise descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigConfig:
    """Two-camera head on an arm over a turntable with a chessboard anchor.

    Arm poses map the reference (chessboard) frame to the RGB camera at
    turntable angle zero; the depth camera rides at a fixed relative
    extrinsic from the RGB camera.
    """

    depth_camera: PinholeCamera
    rgb_camera: PinholeCamera
    t_relative: RigidTransform
    arm_poses: tuple[RigidTransform, ...]
    angle_step_deg: float = 22.5
    angles: int = 16
    chessboard_rows: int = 11
    chessboard_cols: int = 11
    chessboard_square_mm: float = 24.0

    def __post_init__(self):
        if self.angles < 1 or self.angle_step_deg <= 0:
            raise ValidationError("turntable schedule must have positive step and count")
        if abs(self.angle_step_deg * self.angles - 360.0) > 1e-9:
            raise ValidationError("angle step times angle count must equal 360 degrees")
        if len(self.arm_poses) < 1:
            raise ValidationError("at least one arm pose is required")
        if self.chessboard_rows < 2 or self.chessboard_cols < 2:
            raise ValidationError("chessboard needs at least 2x2 corners")
        if self.chessboard_square_mm <= 0:
            raise ValidationError("chessboard square size must be positive")

    def corner_grid(self) -> Array:
        """Chessboard corner coordinates in the reference frame (z = 0)."""
        xs = (np.arange(self.chessboard_cols) - (self.chessboard_cols - 1) / 2.0)
        ys = (np.arange(self.chessboard_rows) - (self.chessboard_rows - 1) / 2.0)
        gx, gy = np.meshgrid(xs * self.chessboard_square_mm, ys * self.chessboard_square_mm)
        return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])


@dataclass(frozen=True)
class SceneDescription:
    """A textured solid on the turntable, captured upright or flipped."""

    solid: object
    texture: object
    flipped: bool = False

    def __post_init__(self):
        lo, hi = self.solid.bounds()
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("object bounds must be finite")
        corners_xy = np.abs(np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]]))
        if np.max(np.hypot(corners_xy[:, 0], corners_xy[:, 1])) > _TABLE_RADIUS_MM:
            raise ValidationError("object does not fit on the turntable disc")
        if lo[2] < -1e-9:
            raise ValidationError("object must rest on or above the table plane")


@dataclass(frozen=True)
class NoiseModel:
    """Measurement imperfections applied after the exact render."""

    depth_sigma_mm: float = 0.0
    depth_bias: float = 1.0
    pose_jitter_deg: float = 0.0
    pose_jitter_mm: float = 0.0
    dropout_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.depth_sigma_mm < 0:
            raise ValidationError("depth noise sigma must be non-negative")
        if self.depth_bias <= 0:
            raise ValidationError("depth bias must be positive")
        if self.pose_jitter_deg < 0 or self.pose_jitter_mm < 0:
            raise ValidationError("pose jitter must be non-negative")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValidationError("dropout probability must lie in [0, 1)")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(f"noise seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SceneCorners:
    """Visible chessboard corners observed by each camera."""

    depth: CorrespondenceSet
    rgb: CorrespondenceSet


def look_at(position, target, up=(0.0, 0.0, 1.0)) -> RigidTransform:
    """Reference-to-camera pose for a camera at ``position`` facing ``target``."""
    position = np.asarray(position, dtype=np.float64)
    z = np.asarray(target, dtype=np.float64) - position
    norm = np.linalg.norm(z)
    if norm < 1e-12:
        raise ValidationError("camera position coincides with its target")
    z = z / norm
    x = np.cross(z, np.asarray(up, dtype=np.float64))
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(z, np.array([0.0, 1.0, 0.0]))
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    rot = np.stack([x, y, z])
    return RigidTransform(rot, -rot @ position)


def scene_index(rig: RigConfig, angle_index: int, arm_index: int, flipped: bool) -> int:
    """Deterministic linear index of a scene in the capture schedule."""
    n_arms = len(rig.arm_poses)
    return (int(flipped) * rig.angles + angle_index) * n_arms + arm_index


def _scene_rng(noise: NoiseModel, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(index,)))


def _jitter(rng: np.random.Generator, noise: NoiseModel) -> RigidTransform:
    if noise.pose_jitter_deg == 0.0 and noise.pose_jitter_mm == 0.0:
        return RigidTransform(np.eye(3), np.zeros(3))
    rot_vec = rng.standard_normal(3) * math.radians(noise.pose_jitter_deg)
    angle = np.linalg.norm(rot_vec)
    rot = np.eye(3) if angle < 1e-15 else axis_angle(rot_vec / angle, angle)
    trans = rng.standard_normal(3) * noise.pose_jitter_mm
    return RigidTransform(rot, trans)


def _true_poses(
    rig: RigConfig, angle_index: int, arm_index: int, jitter: RigidTransform
) -> ScenePoses:
    spin = RigidTransform(
        rotation_z(math.radians(rig.angle_step_deg * angle_index)), np.zeros(3)
    )
    nominal_rgb = compose(rig.arm_poses[arm_index], spin)
    true_rgb = compose(jitter, nominal_rgb)
    return ScenePoses(ref_to_depth=compose(rig.t_relative, true_rgb), ref_to_rgb=true_rgb)


def _flip(scene: SceneDescription) -> RigidTransform | None:
    """The flip a scene shows its solid through, or None when upright."""
    return flip_transform(scene.solid) if scene.flipped else None


def _cast_scene(
    scene: SceneDescription, cam_pose: RigidTransform, dirs_cam: Array
) -> tuple[Array, Array, Array]:
    """Hit parameters for all rays of one camera.

    Returns the overall nearest parameter (inf on miss), the object-only
    parameter, and the ray directions expressed in the reference frame.
    The parameter equals camera-frame depth because ray z components are 1.
    """
    cam_to_ref = invert(cam_pose)
    origin = cam_to_ref.translation
    dirs_ref = dirs_cam @ cam_to_ref.rotation.T

    t_obj = cast_placed(scene.solid, origin, dirs_ref, _flip(scene))

    dz = dirs_ref[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_plane = -origin[2] / dz
    xy = origin[:2] + t_plane[:, None] * dirs_ref[:, :2]
    on_disc = np.hypot(xy[:, 0], xy[:, 1]) <= _TABLE_RADIUS_MM
    t_table = np.where(
        np.isfinite(t_plane) & (t_plane > _T_EPS) & on_disc, t_plane, np.inf
    )
    return np.minimum(t_obj, t_table), t_obj, dirs_ref


def _shade(
    rig: RigConfig,
    scene: SceneDescription,
    origin: Array,
    dirs_ref: Array,
    t_all: Array,
    t_obj: Array,
) -> Array:
    """Flat-shaded colors per ray: texture, board pattern, table, background."""
    colors = np.tile(_BACKGROUND, (len(dirs_ref), 1))
    hit = np.isfinite(t_all)
    obj_hit = hit & (t_obj <= t_all)
    table_hit = hit & ~obj_hit

    if np.any(obj_hit):
        pts = origin + t_all[obj_hit, None] * dirs_ref[obj_hit]
        if scene.flipped:
            pts = _flip(scene).apply(pts)
        colors[obj_hit] = scene.texture.colors_at(pts)

    if np.any(table_hit):
        pts = origin + t_all[table_hit, None] * dirs_ref[table_hit]
        half_x = (rig.chessboard_cols - 1) / 2.0 * rig.chessboard_square_mm
        half_y = (rig.chessboard_rows - 1) / 2.0 * rig.chessboard_square_mm
        on_board = (np.abs(pts[:, 0]) <= half_x) & (np.abs(pts[:, 1]) <= half_y)
        cells = np.floor(
            (pts[:, :2] + np.array([half_x, half_y])) / rig.chessboard_square_mm
        ).astype(np.int64)
        parity = (cells[:, 0] + cells[:, 1]) % 2
        table_colors = np.tile(_TABLE_COLOR, (len(pts), 1))
        table_colors[on_board & (parity == 0)] = _BOARD_LIGHT
        table_colors[on_board & (parity == 1)] = _BOARD_DARK
        colors[table_hit] = table_colors
    return colors


def _corners_for_camera(
    rig: RigConfig, scene: SceneDescription, cam: PinholeCamera, cam_pose: RigidTransform
) -> CorrespondenceSet:
    """Project board corners, dropping occluded, behind, or out-of-frame ones."""
    corners = rig.corner_grid()
    cam_pts = cam_pose.apply(corners)
    uv, _ = project_points(cam, cam_pts)
    origin = invert(cam_pose).translation
    t_hit = cast_placed(scene.solid, origin, corners - origin, _flip(scene))
    keep = (cam_pts[:, 2] > _T_EPS) & in_image(cam, uv) & (t_hit >= 1.0 - 1e-9)
    return CorrespondenceSet(corners[keep], uv[keep])


def render_scene(
    rig: RigConfig,
    scene: SceneDescription,
    angle_index: int,
    arm_index: int,
    noise: NoiseModel,
) -> tuple[DepthMap, RgbImage, SceneCorners, ScenePoses]:
    """Render one turntable scene with ground truth alongside.

    Parameters
    ----------
    rig, scene, noise:
        Rig geometry, object description, and measurement imperfections.
    angle_index, arm_index:
        Position in the capture schedule.

    Returns
    -------
    tuple
        Depth raster (mm, invalid pixels -1), RGB image, visible chessboard
        corners for both cameras, and the true reference-to-camera poses.

    Raises
    ------
    IndexOutOfRange
        If either schedule index is outside the rig's ranges.
    """
    if not 0 <= angle_index < rig.angles:
        raise IndexOutOfRange(f"angle index {angle_index} outside [0, {rig.angles})")
    if not 0 <= arm_index < len(rig.arm_poses):
        raise IndexOutOfRange(f"arm index {arm_index} outside [0, {len(rig.arm_poses)})")

    rng = _scene_rng(noise, scene_index(rig, angle_index, arm_index, scene.flipped))
    poses = _true_poses(rig, angle_index, arm_index, _jitter(rng, noise))

    depth_cam = rig.depth_camera
    t_all, _, _ = _cast_scene(scene, poses.ref_to_depth, pixel_rays(depth_cam))
    values = np.where(np.isfinite(t_all), t_all, -1.0).reshape(depth_cam.height, depth_cam.width)
    valid = values > 0.0
    values = np.where(valid, values * noise.depth_bias, values)
    if noise.depth_sigma_mm > 0.0:
        bump = rng.standard_normal(values.shape) * noise.depth_sigma_mm
        values = np.where(valid, np.maximum(values + bump, 1e-6), values)
    if noise.dropout_prob > 0.0:
        dropped = valid & (rng.random(values.shape) < noise.dropout_prob)
        values = np.where(dropped, -1.0, values)
    depth = DepthMap(depth_cam.width, depth_cam.height, values)

    rgb_cam = rig.rgb_camera
    dirs_cam = pixel_rays(rgb_cam)
    t_rgb, t_obj, dirs_ref = _cast_scene(scene, poses.ref_to_rgb, dirs_cam)
    origin = invert(poses.ref_to_rgb).translation
    colors = _shade(rig, scene, origin, dirs_ref, t_rgb, t_obj)
    pixels = np.clip(np.rint(colors * 255.0), 0, 255).astype(np.uint8)
    image = RgbImage(rgb_cam.width, rgb_cam.height, pixels.reshape(rgb_cam.height, rgb_cam.width, 3))

    corners = SceneCorners(
        depth=_corners_for_camera(rig, scene, depth_cam, poses.ref_to_depth),
        rgb=_corners_for_camera(rig, scene, rgb_cam, poses.ref_to_rgb),
    )
    return depth, image, corners, poses


# ---------------------------------------------------------------------------
# Defaults and session generation
# ---------------------------------------------------------------------------


def default_rig() -> RigConfig:
    """Desk-scale rig: coarse depth camera, finer RGB camera, two arm poses."""
    depth_cam = PinholeCamera(fx=360.0, fy=360.0, cx=160.0, cy=120.0, width=320, height=240)
    rgb_cam = PinholeCamera(fx=720.0, fy=720.0, cx=320.0, cy=240.0, width=640, height=480)
    t_rel = RigidTransform(rotation_y(math.radians(2.0)), np.array([25.0, 3.0, 5.0]))
    arms = (
        look_at((0.0, -430.0, 520.0), (0.0, 0.0, 35.0)),
        look_at((0.0, -520.0, 260.0), (0.0, 0.0, 45.0)),
    )
    return RigConfig(depth_camera=depth_cam, rgb_camera=rgb_cam, t_relative=t_rel, arm_poses=arms)


def default_scene() -> SceneDescription:
    """Checker-painted box with the reference object's edge lengths."""
    solid = Box(center=(0.0, 0.0, 85.48 / 2.0), size=(77.96, 77.98, 85.48))
    return SceneDescription(solid=solid, texture=CheckerTexture(pitch_mm=26.0))


def generate_session(
    rig: RigConfig,
    scene: SceneDescription,
    noise: NoiseModel,
    out_dir: str | Path,
) -> CaptureSession:
    """Render the full capture schedule to disk and write its manifest.

    Renders every angle and arm pose for the upright and flipped object,
    writing one depth PFM, one RGB PPM, and two corner files per scene,
    plus ``session.json`` and a ``ground_truth.json`` sidecar.

    Raises
    ------
    IoFailure
        If the output directory cannot be created or written.
    """
    out_dir = Path(out_dir)
    scene_dir = out_dir / "scenes"
    try:
        scene_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create session directory {out_dir}: {exc}") from exc

    records = []
    pose_list = []
    for flipped in (False, True):
        oriented = replace(scene, flipped=flipped)
        for angle in range(rig.angles):
            for arm in range(len(rig.arm_poses)):
                index = scene_index(rig, angle, arm, flipped)
                depth, image, corners, poses = render_scene(rig, oriented, angle, arm, noise)
                stem = f"scene_{index:03d}"
                rec = SceneRecord(
                    index=index,
                    angle_index=angle,
                    arm_index=arm,
                    flipped=flipped,
                    depth_path=f"scenes/{stem}_depth.pfm",
                    rgb_path=f"scenes/{stem}_rgb.ppm",
                    corners_depth_path=f"scenes/{stem}_corners_depth.txt",
                    corners_rgb_path=f"scenes/{stem}_corners_rgb.txt",
                )
                fileio.write_depth_pfm(out_dir / rec.depth_path, depth)
                fileio.write_image_ppm(out_dir / rec.rgb_path, image)
                fileio.write_corners(out_dir / rec.corners_depth_path, corners.depth)
                fileio.write_corners(out_dir / rec.corners_rgb_path, corners.rgb)
                records.append(rec)
                pose_list.append(poses)

    half_x = (rig.chessboard_cols - 1) / 2.0 * rig.chessboard_square_mm
    half_y = (rig.chessboard_rows - 1) / 2.0 * rig.chessboard_square_mm
    _, hi = scene.solid.bounds()
    session = CaptureSession(
        root=out_dir,
        depth_camera=rig.depth_camera,
        rgb_camera=rig.rgb_camera,
        angle_step_deg=rig.angle_step_deg,
        angles=rig.angles,
        chessboard_rows=rig.chessboard_rows,
        chessboard_cols=rig.chessboard_cols,
        chessboard_square_mm=rig.chessboard_square_mm,
        bounding_box=BoundingBox(
            x_min=-half_x,
            x_max=half_x,
            y_min=-half_y,
            y_max=half_y,
            height_mm=float(hi[2]) + 5.0,
        ),
        scenes=tuple(records),
    )
    save_session(session, out_dir / "session.json")
    save_ground_truth(
        out_dir / "ground_truth.json",
        GroundTruth(
            alpha_true=1.0 / noise.depth_bias,
            t_relative=rig.t_relative,
            flip=flip_transform(scene.solid),
            solid=scene.solid,
            poses=tuple(pose_list),
        ),
    )
    return session
