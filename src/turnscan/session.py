"""Capture-session manifest: the unit of work the pipeline operates on.

A session is a directory holding one depth raster, one RGB image, and two
corner-correspondence files per scene, described by a JSON manifest. The
manifest also records the rig intrinsics, the turntable schedule, the
chessboard geometry, and a rough object bounding box used for cropping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import fileio
from .errors import ValidationError
from .geometry import PinholeCamera

_FORMAT = "turnscan-session v1"

__all__ = ["BoundingBox", "CaptureSession", "SceneRecord", "load_session", "save_session"]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned crop region: base rectangle on the table plus a height."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    height_mm: float

    def __post_init__(self):
        inf = math.inf
        if not (-inf < self.x_min < self.x_max < inf and -inf < self.y_min < self.y_max < inf):
            raise ValidationError("bounding box base rectangle must be finite and nonempty")
        if not 0 < self.height_mm < inf:
            raise ValidationError("bounding box height must be positive and finite")


@dataclass(frozen=True)
class SceneRecord:
    """One captured scene: schedule indices plus paths relative to the root."""

    index: int
    angle_index: int
    arm_index: int
    flipped: bool
    depth_path: str
    rgb_path: str
    corners_depth_path: str
    corners_rgb_path: str


@dataclass(frozen=True)
class CaptureSession:
    """Parsed session manifest with the directory it resolves paths against."""

    root: Path
    depth_camera: PinholeCamera
    rgb_camera: PinholeCamera
    angle_step_deg: float
    angles: int
    chessboard_rows: int
    chessboard_cols: int
    chessboard_square_mm: float
    bounding_box: BoundingBox
    scenes: tuple[SceneRecord, ...]

    def resolve(self, relative: str) -> Path:
        return self.root / relative


def _camera_to_payload(cam: PinholeCamera) -> dict:
    return {
        "fx": cam.fx,
        "fy": cam.fy,
        "cx": cam.cx,
        "cy": cam.cy,
        "width": cam.width,
        "height": cam.height,
    }


def _camera_from_payload(payload: dict, where: str) -> PinholeCamera:
    try:
        return PinholeCamera(
            fx=float(payload["fx"]),
            fy=float(payload["fy"]),
            cx=float(payload["cx"]),
            cy=float(payload["cy"]),
            width=int(payload["width"]),
            height=int(payload["height"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"manifest {where} camera is malformed: {exc!r}") from exc


def save_session(session: CaptureSession, manifest_path: str | Path) -> None:
    """Write a session manifest as JSON next to its scene files."""
    box = session.bounding_box
    payload = {
        "format": _FORMAT,
        "depth_camera": _camera_to_payload(session.depth_camera),
        "rgb_camera": _camera_to_payload(session.rgb_camera),
        "angle_step_deg": session.angle_step_deg,
        "angles": session.angles,
        "chessboard": {
            "rows": session.chessboard_rows,
            "cols": session.chessboard_cols,
            "square_mm": session.chessboard_square_mm,
        },
        "bounding_box": {
            "x_min": box.x_min,
            "x_max": box.x_max,
            "y_min": box.y_min,
            "y_max": box.y_max,
            "height_mm": box.height_mm,
        },
        "scenes": [
            {
                "index": rec.index,
                "angle_index": rec.angle_index,
                "arm_index": rec.arm_index,
                "flipped": rec.flipped,
                "depth": rec.depth_path,
                "rgb": rec.rgb_path,
                "corners_depth": rec.corners_depth_path,
                "corners_rgb": rec.corners_rgb_path,
            }
            for rec in session.scenes
        ],
    }
    fileio.write_json_file(manifest_path, payload)


def load_session(manifest_path: str | Path) -> CaptureSession:
    """Read a session manifest written by :func:`save_session`.

    Raises
    ------
    IoFailure
        If the manifest cannot be read.
    ParseError
        If the file is not valid JSON.
    ValidationError
        If the JSON is valid but the schema does not match.
    """
    manifest_path = Path(manifest_path)
    payload = fileio.read_json_file(manifest_path)
    if payload.get("format") != _FORMAT:
        raise ValidationError(f"unsupported manifest format {payload.get('format')!r}")
    try:
        board = payload["chessboard"]
        box = payload["bounding_box"]
        bounding_box = BoundingBox(
            x_min=float(box["x_min"]),
            x_max=float(box["x_max"]),
            y_min=float(box["y_min"]),
            y_max=float(box["y_max"]),
            height_mm=float(box["height_mm"]),
        )
        scenes = tuple(
            SceneRecord(
                index=int(rec["index"]),
                angle_index=int(rec["angle_index"]),
                arm_index=int(rec["arm_index"]),
                flipped=bool(rec["flipped"]),
                depth_path=str(rec["depth"]),
                rgb_path=str(rec["rgb"]),
                corners_depth_path=str(rec["corners_depth"]),
                corners_rgb_path=str(rec["corners_rgb"]),
            )
            for rec in payload["scenes"]
        )
        session = CaptureSession(
            root=manifest_path.parent,
            depth_camera=_camera_from_payload(payload["depth_camera"], "depth"),
            rgb_camera=_camera_from_payload(payload["rgb_camera"], "rgb"),
            angle_step_deg=float(payload["angle_step_deg"]),
            angles=int(payload["angles"]),
            chessboard_rows=int(board["rows"]),
            chessboard_cols=int(board["cols"]),
            chessboard_square_mm=float(board["square_mm"]),
            bounding_box=bounding_box,
            scenes=scenes,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"manifest schema violation: {exc!r}") from exc
    _check_session_invariants(session)
    return session


def _check_session_invariants(session: CaptureSession) -> None:
    """Every referenced file must exist, and the scene count must cover the
    full grid of angles, arms, and orientations."""
    if not session.scenes:
        raise ValidationError("manifest lists no scenes")
    for position, rec in enumerate(session.scenes):
        if rec.index != position:
            raise ValidationError(
                f"scene at position {position} carries index {rec.index};"
                " manifests must list scenes in index order"
            )
    arms = max(rec.arm_index for rec in session.scenes) + 1
    orientations = 2 if any(rec.flipped for rec in session.scenes) else 1
    expected = session.angles * arms * orientations
    if len(session.scenes) != expected:
        raise ValidationError(
            f"manifest lists {len(session.scenes)} scenes but the capture grid"
            f" ({session.angles} angles x {arms} arms x {orientations}"
            f" orientations) needs {expected}"
        )
    for rec in session.scenes:
        for rel in (rec.depth_path, rec.rgb_path, rec.corners_depth_path, rec.corners_rgb_path):
            path = session.resolve(rel)
            if not path.is_file():
                raise ValidationError(f"scene {rec.index} references missing file {path}")
