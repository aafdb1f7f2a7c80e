"""End-to-end batch pipeline: calibrate, reconstruct, evaluate.

Calibration turns per-scene chessboard corners into camera poses, a robust
camera-to-camera extrinsic, and a global depth scale. Reconstruction lifts
every depth raster into the shared reference frame, fuses each orientation,
registers the flipped capture onto the upright one, meshes the merged cloud,
and re-dyes the mesh from the RGB views. Evaluation measures the mesh
against reference dimensions and reprojects it over the captured views.

Every stage writes its artifacts under ``out/<stage>/`` next to the session
manifest, errors are tagged with the stage and scene that raised them, and
all per-scene work can run on a thread pool without changing any output.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import fileio
from .calibration import (
    CalibrationSet,
    ScaleEstimate,
    apply_scale,
    estimate_pose_pnp,
    estimate_scale_scene,
    fit_plane_ransac,
    relative_extrinsic,
)
from .cloud import (
    Aabb,
    crop,
    estimate_normals,
    fuse,
    remove_statistical_outliers,
    voxel_downsample,
)
from .errors import (
    EmptyInput,
    IoFailure,
    MissingCorners,
    TurnscanError,
    ValidationError,
)
from .geometry import (
    PinholeCamera,
    PointCloud,
    RgbImage,
    RigidTransform,
    TriangleMesh,
    backproject,
    compose,
    in_image,
    invert,
    pixel_rays,
    project_points,
    rasterize_mesh_mask,
    transform_points,
)
from .meshing import reconstruct_mesh, refine_vertices
from .registration import IcpParams, colored_icp, initial_flip_guess, trim_overlap_band
from .session import CaptureSession
from .texturing import bilinear_sample, redye_mesh
from .truth import GroundTruth, cast_placed, load_ground_truth

Array = np.ndarray

_BUNDLE_FORMAT = "turnscan-bundle v1"
_MIN_DEPTH_CORNERS = 8

__all__ = [
    "CalibrationBundle",
    "EvaluationReport",
    "PipelineConfig",
    "ReconstructionResult",
    "config_from_payload",
    "load_bundle",
    "run_calibrate",
    "run_evaluate",
    "run_reconstruct",
    "save_bundle",
]


def _is_integer(value, minimum: int) -> bool:
    """A plain int (not a bool, not a numpy scalar) of at least ``minimum``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _check_view_indices(views) -> None:
    if not all(_is_integer(v, 0) for v in views):
        raise ValidationError(f"eval_views must be non-negative integers, got {views!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """The settings a run may change. Every other parameter is a constant
    beside the stage that uses it, and the worker count comes from
    ``RECON_WORKERS``."""

    seed: int = 0
    grid_dims: int = 64
    eval_views: tuple[int, ...] = (0, 8, 32, 40)

    def __post_init__(self):
        if not _is_integer(self.seed, 0):
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_integer(self.grid_dims, 8):
            raise ValidationError(f"grid_dims must be an integer >= 8, got {self.grid_dims!r}")
        if not isinstance(self.eval_views, tuple) or not self.eval_views:
            raise ValidationError(
                f"eval_views must be a nonempty tuple (a JSON list) of view indices,"
                f" got {self.eval_views!r}"
            )
        _check_view_indices(self.eval_views)


def config_from_payload(payload: dict) -> PipelineConfig:
    """Build a config from a JSON-style dict, rejecting unknown keys."""
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    coerced = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
    }
    return PipelineConfig(**coerced)


@dataclass(frozen=True)
class CalibrationBundle:
    """Per-scene poses plus the rig-level extrinsic and depth scale."""

    alpha: float
    t_relative: RigidTransform
    rgb_poses: tuple[RigidTransform, ...]
    depth_poses: tuple[RigidTransform, ...]
    per_scene_alpha: tuple[float, ...]

    def __post_init__(self):
        if len(self.rgb_poses) != len(self.depth_poses):
            raise ValidationError("bundle pose lists must be index-aligned")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"bundle scale must be positive and finite, got {self.alpha!r}")


def _json_number(x: float) -> float | None:
    """A report figure as JSON allows it: NaN and infinities become null."""
    return float(x) if np.isfinite(x) else None


@dataclass(frozen=True)
class ReconstructionResult:
    """Mesh plus the fused cloud it was extracted from, with diagnostics."""

    mesh: TriangleMesh
    cloud: PointCloud
    registration_rmse_mm: float
    registration_converged: bool
    single_orientation: bool
    unseen_vertex_count: int


@dataclass(frozen=True)
class EvaluationReport:
    """Mesh accuracy against reference dimensions and captured views."""

    reference_dims_mm: tuple[float, float, float]
    mesh_dims_mm: tuple[float, float, float]
    aabb_errors_mm: tuple[float, float, float]
    iou_per_view: tuple[float, ...]
    contour_distance_px_per_view: tuple[float, ...]
    view_indices: tuple[int, ...]
    alpha: float
    registration_rmse_mm: float

    @property
    def iou_mean(self) -> float:
        return float(np.mean(self.iou_per_view))

    @property
    def contour_distance_px_mean(self) -> float:
        return float(np.mean(self.contour_distance_px_per_view))

    def to_payload(self) -> dict:
        return {
            "reference_dims_mm": list(self.reference_dims_mm),
            "mesh_dims_mm": list(self.mesh_dims_mm),
            "aabb_errors_mm": list(self.aabb_errors_mm),
            "iou_per_view": list(self.iou_per_view),
            "iou_mean": self.iou_mean,
            "contour_distance_px_per_view": [
                _json_number(d) for d in self.contour_distance_px_per_view
            ],
            "contour_distance_px_mean": _json_number(self.contour_distance_px_mean),
            "view_indices": list(self.view_indices),
            "alpha": self.alpha,
            "registration_rmse_mm": _json_number(self.registration_rmse_mm),
        }


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


class _stage_context:
    """Prefix the stage and scene onto any pipeline error passing through;
    the error keeps its type and attributes."""

    def __init__(self, stage: str, scene: int | None = None):
        self.stage = stage
        self.scene = scene

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, TurnscanError):
            scene = "" if self.scene is None else f" scene={self.scene}"
            exc.args = (f"[stage={self.stage}{scene}] {exc}",)
        return False


_WORKERS = 4  # per-scene threads when RECON_WORKERS is unset


def _worker_count() -> int:
    env = os.environ.get("RECON_WORKERS")
    if env is None:
        return _WORKERS
    try:
        return max(1, int(env))
    except ValueError as exc:
        raise ValidationError(f"RECON_WORKERS must be an integer, got {env!r}") from exc


def _parallel_map(func, items, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


def _stage_dir(session: CaptureSession, out_dir, stage: str) -> Path:
    root = Path(out_dir) if out_dir is not None else session.root / "out"
    path = root / stage
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create artifact directory {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def save_bundle(bundle: CalibrationBundle, path) -> None:
    """Persist a calibration bundle as JSON."""
    fileio.write_json_file(
        path,
        {
            "format": _BUNDLE_FORMAT,
            "alpha": bundle.alpha,
            "per_scene_alpha": list(bundle.per_scene_alpha),
            "t_relative": fileio.pose_to_rows(bundle.t_relative),
            "scenes": [
                {
                    "index": i,
                    "ref_to_rgb": fileio.pose_to_rows(rgb),
                    "ref_to_depth": fileio.pose_to_rows(depth),
                }
                for i, (rgb, depth) in enumerate(zip(bundle.rgb_poses, bundle.depth_poses))
            ],
        },
    )


def load_bundle(path) -> CalibrationBundle:
    """Read a bundle written by :func:`save_bundle`."""
    payload = fileio.read_json_file(path)
    if payload.get("format") != _BUNDLE_FORMAT:
        raise ValidationError(f"unsupported bundle format {payload.get('format')!r}")
    try:
        scenes = sorted(payload["scenes"], key=lambda rec: rec["index"])
        return CalibrationBundle(
            alpha=float(payload["alpha"]),
            t_relative=fileio.pose_from_rows(payload["t_relative"]),
            rgb_poses=tuple(fileio.pose_from_rows(rec["ref_to_rgb"]) for rec in scenes),
            depth_poses=tuple(fileio.pose_from_rows(rec["ref_to_depth"]) for rec in scenes),
            per_scene_alpha=tuple(float(a) for a in payload["per_scene_alpha"]),
        )
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"bundle schema violation in {path}: {exc!r}") from exc


def _read_scene_corners(session: CaptureSession, record, which: str):
    path = session.resolve(
        record.corners_rgb_path if which == "rgb" else record.corners_depth_path
    )
    try:
        return fileio.read_corners(path)
    except IoFailure as exc:
        raise MissingCorners(f"scene {record.index}: corners file missing at {path}") from exc


# the table plane each scene's depth scale is measured against
_PLANE_THRESHOLD_MM = 0.3
_PLANE_ITERATIONS = 100
_PLANE_SAMPLE_CAP = 20000


def _scene_scale(session, record, pose_depth, seed: int) -> float:
    depth = fileio.read_depth_pfm(session.resolve(record.depth_path))
    cloud = backproject(session.depth_camera, depth)
    positions = invert(pose_depth).apply(cloud.positions)
    if len(positions) > _PLANE_SAMPLE_CAP:
        rng = np.random.default_rng(seed + record.index)
        pick = rng.choice(len(positions), size=_PLANE_SAMPLE_CAP, replace=False)
        positions = positions[np.sort(pick)]
    plane, _ = fit_plane_ransac(
        PointCloud(positions), _PLANE_THRESHOLD_MM, _PLANE_ITERATIONS, seed + record.index
    )
    return estimate_scale_scene(plane, invert(pose_depth).translation)


def run_calibrate(
    session: CaptureSession,
    config: PipelineConfig = PipelineConfig(),
    out_dir=None,
) -> CalibrationBundle:
    """Solve per-scene poses, the camera-to-camera extrinsic, and depth scale.

    Every scene must supply RGB-camera corners; scenes whose depth-camera
    corner sets are too small simply contribute no sample to the relative
    extrinsic (the median over the remaining scenes absorbs that). The
    bundle is persisted under ``out/calibrate/bundle.json`` for reuse.

    Raises
    ------
    MissingCorners
        If a scene's corners file is absent.
    """
    stage_dir = _stage_dir(session, out_dir, "calibrate")

    rgb_poses: list[RigidTransform] = []
    extrinsic_pairs: list[tuple[RigidTransform, RigidTransform]] = []
    for record in session.scenes:
        with _stage_context("pnp", record.index):
            corners_rgb = _read_scene_corners(session, record, "rgb")
            pose_rgb = estimate_pose_pnp(session.rgb_camera, corners_rgb)
            rgb_poses.append(pose_rgb)
            corners_depth = _read_scene_corners(session, record, "depth")
            if len(corners_depth) >= _MIN_DEPTH_CORNERS:
                pose_depth = estimate_pose_pnp(session.depth_camera, corners_depth)
                extrinsic_pairs.append((pose_rgb, pose_depth))

    with _stage_context("relative-extrinsic"):
        if not extrinsic_pairs:
            raise MissingCorners("no scene offers enough depth-camera corners")
        t_rel = relative_extrinsic(
            CalibrationSet(
                rgb_poses=[p for p, _ in extrinsic_pairs],
                depth_poses=[p for _, p in extrinsic_pairs],
            )
        )

    depth_poses = tuple(compose(t_rel, pose) for pose in rgb_poses)

    def scale_one(pair):
        record, pose_depth = pair
        with _stage_context("scale", record.index):
            return _scene_scale(session, record, pose_depth, config.seed)

    per_scene = _parallel_map(scale_one, list(zip(session.scenes, depth_poses)), _worker_count())
    with _stage_context("scale"):
        estimate = ScaleEstimate([float(a) for a in per_scene])

    bundle = CalibrationBundle(
        alpha=estimate.global_scale,
        t_relative=t_rel,
        rgb_poses=tuple(rgb_poses),
        depth_poses=depth_poses,
        per_scene_alpha=tuple(float(a) for a in per_scene),
    )
    save_bundle(bundle, stage_dir / "bundle.json")
    return bundle


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


_CROP_CLEARANCE_MM = 0.8  # the crop's floor above the table plane
_DENOISE_K = 12
_DENOISE_STD_RATIO = 2.0
_NORMALS_K = 10
_FUSION_VOXEL_MM = 0.5
_TRIM_FRACTION = 0.6  # central share of each cloud's z extent that ICP registers


def _crop_box(session: CaptureSession) -> Aabb:
    box = session.bounding_box
    return Aabb(
        np.array([box.x_min, box.y_min, _CROP_CLEARANCE_MM]),
        np.array([box.x_max, box.y_max, box.height_mm]),
    )


def _process_scene(session, bundle: CalibrationBundle, box: Aabb, record) -> PointCloud:
    """One capture to a cropped, denoised, colored, oriented cloud in the
    reference frame."""
    pose_depth = bundle.depth_poses[record.index]
    pose_rgb = bundle.rgb_poses[record.index]
    with _stage_context("read", record.index):
        depth = fileio.read_depth_pfm(session.resolve(record.depth_path))
        image = fileio.read_image_ppm(session.resolve(record.rgb_path))
    with _stage_context("scale", record.index):
        depth = apply_scale(depth, bundle.alpha)
    with _stage_context("backproject", record.index):
        cam_cloud = backproject(session.depth_camera, depth)
        ref_cloud = transform_points(invert(pose_depth), cam_cloud)
    with _stage_context("crop", record.index):
        cropped = crop(ref_cloud, box)
        if len(cropped) == 0:
            raise EmptyInput("bounding-box crop left no points")
    with _stage_context("denoise", record.index):
        denoised, _ = remove_statistical_outliers(cropped, _DENOISE_K, _DENOISE_STD_RATIO)
    with _stage_context("color", record.index):
        cam_pts = pose_rgb.apply(denoised.positions)
        uv, in_front = project_points(session.rgb_camera, cam_pts)
        in_frame = in_front & in_image(session.rgb_camera, uv)
        positions = denoised.positions[in_frame]
        colors = bilinear_sample(image.pixels / 255.0, uv[in_frame])
        if len(positions) == 0:
            raise EmptyInput("no cropped point projects into the RGB view")
    with _stage_context("normals", record.index):
        colored = PointCloud(positions, colors=colors)
        return estimate_normals(colored, _NORMALS_K, invert(pose_depth).translation)


def run_reconstruct(
    session: CaptureSession,
    bundle: CalibrationBundle,
    config: PipelineConfig = PipelineConfig(),
    out_dir=None,
) -> ReconstructionResult:
    """Fuse all scenes into a registered cloud, mesh it, and re-dye it.

    Artifacts written under ``out/reconstruct/``: per-orientation fused
    clouds, the merged cloud, the raw and re-dyed meshes, and a report.
    A session captured in a single orientation skips registration and
    reconstructs an open-bottom mesh with a warning.
    """
    if len(bundle.rgb_poses) != len(session.scenes):
        raise ValidationError(
            f"bundle covers {len(bundle.rgb_poses)} scenes, session has {len(session.scenes)}"
        )
    stage_dir = _stage_dir(session, out_dir, "reconstruct")
    process = partial(_process_scene, session, bundle, _crop_box(session))
    clouds = _parallel_map(process, list(session.scenes), _worker_count())
    identity = RigidTransform.identity()

    fused: dict[bool, PointCloud] = {}
    for flipped in (False, True):
        members = [
            cloud
            for cloud, record in zip(clouds, session.scenes)
            if record.flipped == flipped
        ]
        if not members:
            continue
        with _stage_context("fuse"):
            combined = fuse([(cloud, identity) for cloud in members])
            fused[flipped] = voxel_downsample(combined, _FUSION_VOXEL_MM)
        name = "fused_flipped.ply" if flipped else "fused_upright.ply"
        fileio.write_point_cloud(stage_dir / name, fused[flipped])

    if not fused:
        raise EmptyInput("session produced no usable scenes")

    rmse = float("nan")
    converged = True
    total = identity
    single_orientation = len(fused) == 1
    if single_orientation:
        warnings.warn(
            "session covers a single orientation: skipping registration;"
            " the mesh bottom is unobserved",
            RuntimeWarning,
            stacklevel=2,
        )
        merged = next(iter(fused.values()))
    else:
        with _stage_context("register"):
            upright, flipped_cloud = fused[False], fused[True]
            guess = initial_flip_guess(upright, flipped_cloud)
            moved = transform_points(guess, flipped_cloud)
            band_source = trim_overlap_band(moved, _TRIM_FRACTION)
            band_target = trim_overlap_band(upright, _TRIM_FRACTION)
            result = colored_icp(band_source, band_target, identity, IcpParams())
            total = compose(result.transform, guess)
            aligned = transform_points(total, flipped_cloud)
            rmse = result.final_rmse
            converged = result.converged
        with _stage_context("merge"):
            merged = voxel_downsample(
                fuse([(upright, identity), (aligned, identity)]), _FUSION_VOXEL_MM
            )
    fileio.write_point_cloud(stage_dir / "merged.ply", merged)

    with _stage_context("mesh"):
        mesh = reconstruct_mesh(merged, config.grid_dims)
        mesh = refine_vertices(mesh, merged)
    fileio.write_mesh(stage_dir / "mesh.ply", mesh)

    with _stage_context("redye"):
        # the mesh lives in the upright frame; flipped scenes see it through
        # the inverse of the flip registration
        views = []
        for record in session.scenes:
            image = fileio.read_image_ppm(session.resolve(record.rgb_path))
            pose = bundle.rgb_poses[record.index]
            if record.flipped:
                pose = compose(pose, invert(total))
            views.append((image, session.rgb_camera, pose))
        dyed, redye_report = redye_mesh(mesh, views)
    fileio.write_mesh(stage_dir / "mesh_redyed.ply", dyed)

    fileio.write_json_file(
        stage_dir / "report.json",
        {
            "alpha_used": bundle.alpha,
            "registration_rmse_mm": _json_number(rmse),
            "registration_converged": converged,
            "single_orientation": single_orientation,
            "merged_points": len(merged),
            "mesh_vertices": len(dyed.vertices),
            "unseen_vertices": int(redye_report.unseen_count),
        },
    )
    return ReconstructionResult(
        mesh=dyed,
        cloud=merged,
        registration_rmse_mm=rmse,
        registration_converged=converged,
        single_orientation=single_orientation,
        unseen_vertex_count=int(redye_report.unseen_count),
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _ground_truth_mask(
    truth: GroundTruth,
    flipped: bool,
    cam: PinholeCamera,
    ref_to_cam: RigidTransform,
) -> Array:
    """Boolean silhouette of the true object rendered analytically."""
    cam_to_ref = invert(ref_to_cam)
    dirs_ref = pixel_rays(cam) @ cam_to_ref.rotation.T
    flip = truth.flip if flipped else None
    t = cast_placed(truth.solid, cam_to_ref.translation, dirs_ref, flip)
    return np.isfinite(t).reshape(cam.height, cam.width)


def _contour(mask: Array) -> Array:
    return mask & ~ndimage.binary_erosion(mask, border_value=0)


def _mean_contour_distance(a: Array, b: Array) -> float:
    """Symmetric mean pixel distance between the boundaries of two masks."""
    ca, cb = _contour(a), _contour(b)
    if not ca.any() or not cb.any():
        return float("inf")
    d_ab = ndimage.distance_transform_edt(~cb)[ca].mean()
    d_ba = ndimage.distance_transform_edt(~ca)[cb].mean()
    return float((d_ab + d_ba) / 2.0)


def run_evaluate(
    mesh: TriangleMesh,
    session: CaptureSession,
    bundle: CalibrationBundle,
    reference_dims,
    registration_rmse_mm: float = float("nan"),
    views: tuple[int, ...] = PipelineConfig().eval_views,
    out_dir=None,
) -> EvaluationReport:
    """Measure the mesh against reference dimensions and captured views.

    Writes ``out/evaluate/report.json`` and one overlay image per checked
    view (mesh silhouette boundary in red, true boundary in green over the
    captured RGB frame). The ground-truth sidecar must sit next to the
    session manifest. ``views`` defaults to ``PipelineConfig().eval_views``;
    indices past the session's scene count are skipped.

    Raises
    ------
    ValidationError
        If a view index is negative or not an integer, no view is left, a
        reference dimension is not finite, or the sidecar is malformed or
        covers a different number of scenes than the session.
    """
    if len(mesh.vertices) == 0 or len(mesh.triangles) == 0:
        raise EmptyInput("evaluation needs a nonempty mesh")
    _check_view_indices(views)
    # the default views suit sessions of any size because indices past the
    # scene count are dropped
    chosen = tuple(v for v in views if v < len(session.scenes))
    if not chosen:
        raise ValidationError("no valid evaluation views")
    reference = np.asarray(reference_dims, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(reference)):
        raise ValidationError("reference dimensions must be finite")
    with _stage_context("evaluate"):
        truth = load_ground_truth(session.root / "ground_truth.json")
        if len(truth.poses) != len(session.scenes):
            raise ValidationError(
                f"ground truth covers {len(truth.poses)} scenes,"
                f" session has {len(session.scenes)}"
            )
    stage_dir = _stage_dir(session, out_dir, "evaluate")

    dims = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    errors = np.abs(dims - reference)

    ious = []
    contour_dists = []
    for view in chosen:
        record = session.scenes[view]
        with _stage_context("evaluate", record.index):
            # the mesh lives in the upright frame; flipped scenes see it
            # through the inverse of the true flip
            pose = bundle.rgb_poses[view]
            if record.flipped:
                pose = compose(pose, invert(truth.flip))
            mesh_mask = rasterize_mesh_mask(mesh, session.rgb_camera, pose)
            true_pose = truth.poses[record.index].ref_to_rgb
            gt_mask = _ground_truth_mask(truth, record.flipped, session.rgb_camera, true_pose)
            union = np.logical_or(mesh_mask, gt_mask).sum()
            iou = float(np.logical_and(mesh_mask, gt_mask).sum() / union) if union else 0.0
            ious.append(iou)
            contour_dists.append(_mean_contour_distance(mesh_mask, gt_mask))

            image = fileio.read_image_ppm(session.resolve(record.rgb_path))
            overlay = image.pixels.copy()
            overlay[_contour(mesh_mask)] = (255, 0, 0)
            overlay[_contour(gt_mask)] = (0, 255, 0)
            fileio.write_image_ppm(
                stage_dir / f"overlay_{record.index:03d}.ppm",
                RgbImage(image.width, image.height, overlay),
            )

    report = EvaluationReport(
        reference_dims_mm=tuple(float(x) for x in reference),
        mesh_dims_mm=tuple(float(x) for x in dims),
        aabb_errors_mm=tuple(float(x) for x in errors),
        iou_per_view=tuple(ious),
        contour_distance_px_per_view=tuple(contour_dists),
        view_indices=chosen,
        alpha=bundle.alpha,
        registration_rmse_mm=registration_rmse_mm,
    )
    fileio.write_json_file(stage_dir / "report.json", report.to_payload())
    return report
