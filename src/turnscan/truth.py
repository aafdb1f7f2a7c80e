"""Ground truth of a synthetic session: the solids, how they sit on the
table, and the sidecar file that records them.

Solids are analytic primitives (box, sphere, upright cylinder) and unions
of them, given in the upright object frame and resting on the table plane
z = 0. A flipped capture shows the solid upside-down through
:func:`flip_transform`. The simulator renders the solids and evaluation
scores meshes against them, both through :func:`cast_placed`, so ray
casting into a placed solid happens in one place. The ``ground_truth.json``
sidecar (format ``turnscan-ground-truth v1``) is written only by
:func:`save_ground_truth` and read only by :func:`load_ground_truth`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ValidationError
from .geometry import RigidTransform, _as_array, rotation_x

Array = np.ndarray

_T_EPS = 1e-9
_FORMAT = "turnscan-ground-truth v1"

__all__ = [
    "Box",
    "Cylinder",
    "GroundTruth",
    "ScenePoses",
    "Sphere",
    "Union",
    "cast_placed",
    "flip_transform",
    "load_ground_truth",
    "save_ground_truth",
    "solid_from_payload",
    "solid_to_payload",
]


def _vector(value, name: str) -> tuple[float, float, float]:
    return tuple(float(x) for x in _as_array(value, (3,), name))


def _positive(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc
    if not (math.isfinite(x) and x > 0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return x


# ---------------------------------------------------------------------------
# Analytic primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its center and full edge lengths (mm)."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "box center"))
        object.__setattr__(self, "size", _vector(self.size, "box size"))
        if min(self.size) <= 0:
            raise ValidationError("box edge lengths must be positive")

    def bounds(self) -> tuple[Array, Array]:
        c = np.asarray(self.center, dtype=np.float64)
        half = np.asarray(self.size, dtype=np.float64) / 2.0
        return c - half, c + half

    def ray_hits(self, origin: Array, dirs: Array) -> Array:
        lo, hi = self.bounds()
        safe = np.where(np.abs(dirs) < 1e-300, np.copysign(1e-300, dirs), dirs)
        inv = 1.0 / safe
        t1 = (lo - origin) * inv
        t2 = (hi - origin) * inv
        t_near = np.minimum(t1, t2).max(axis=1)
        t_far = np.maximum(t1, t2).min(axis=1)
        t = np.where(t_near > _T_EPS, t_near, t_far)
        return np.where((t_near <= t_far) & (t > _T_EPS), t, np.inf)


@dataclass(frozen=True)
class Sphere:
    """Sphere given by center and radius (mm)."""

    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "sphere center"))
        object.__setattr__(self, "radius", _positive(self.radius, "sphere radius"))

    def bounds(self) -> tuple[Array, Array]:
        c = np.asarray(self.center, dtype=np.float64)
        return c - self.radius, c + self.radius

    def ray_hits(self, origin: Array, dirs: Array) -> Array:
        oc = origin - np.asarray(self.center, dtype=np.float64)
        a = np.einsum("ij,ij->i", dirs, dirs)
        b = 2.0 * dirs @ oc
        c = oc @ oc - self.radius**2
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        near = (-b - sq) / (2.0 * a)
        far = (-b + sq) / (2.0 * a)
        t = np.where(near > _T_EPS, near, far)
        return np.where((disc >= 0.0) & (t > _T_EPS), t, np.inf)


@dataclass(frozen=True)
class Cylinder:
    """Upright cylinder: center of its axis segment, radius, height (mm)."""

    center: tuple[float, float, float]
    radius: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "cylinder center"))
        object.__setattr__(self, "radius", _positive(self.radius, "cylinder radius"))
        object.__setattr__(self, "height", _positive(self.height, "cylinder height"))

    def bounds(self) -> tuple[Array, Array]:
        c = np.asarray(self.center, dtype=np.float64)
        half = np.array([self.radius, self.radius, self.height / 2.0])
        return c - half, c + half

    def ray_hits(self, origin: Array, dirs: Array) -> Array:
        c = np.asarray(self.center, dtype=np.float64)
        z_lo, z_hi = c[2] - self.height / 2.0, c[2] + self.height / 2.0
        o2 = origin[:2] - c[:2]
        d2 = dirs[:, :2]
        a = np.einsum("ij,ij->i", d2, d2)
        b = 2.0 * d2 @ o2
        cc = o2 @ o2 - self.radius**2
        disc = b * b - 4.0 * a * cc
        sq = np.sqrt(np.maximum(disc, 0.0))
        candidates = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for sign in (-1.0, 1.0):
                t = (-b + sign * sq) / (2.0 * a)
                z = origin[2] + t * dirs[:, 2]
                ok = (a > 0.0) & (disc >= 0.0) & (t > _T_EPS) & (z >= z_lo) & (z <= z_hi)
                candidates.append(np.where(ok, t, np.inf))
            for z_cap in (z_lo, z_hi):
                t = (z_cap - origin[2]) / dirs[:, 2]
                xy = o2[None, :] + t[:, None] * d2
                inside = np.einsum("ij,ij->i", xy, xy) <= self.radius**2
                ok = np.isfinite(t) & (t > _T_EPS) & inside
                candidates.append(np.where(ok, t, np.inf))
        return np.minimum.reduce(candidates)  # inf marks a miss


@dataclass(frozen=True)
class Union:
    """Union of solids; a ray hit is the nearest hit across the parts."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValidationError("union needs at least one part")

    def bounds(self) -> tuple[Array, Array]:
        los, his = zip(*(p.bounds() for p in self.parts))
        return np.min(los, axis=0), np.max(his, axis=0)

    def ray_hits(self, origin: Array, dirs: Array) -> Array:
        return np.minimum.reduce([p.ray_hits(origin, dirs) for p in self.parts])


# ---------------------------------------------------------------------------
# Placement on the table
# ---------------------------------------------------------------------------


def flip_transform(solid) -> RigidTransform:
    """Rigid map placing the upright solid upside-down back on the table.

    Rotation of pi about X followed by a lift of the solid's top height;
    the map is its own inverse, matching the registration initial guess.
    """
    _, hi = solid.bounds()
    return RigidTransform(rotation_x(math.pi), np.array([0.0, 0.0, hi[2]]))


def cast_placed(solid, origin: Array, dirs: Array, flip: RigidTransform | None = None) -> Array:
    """Ray parameters of the solid as it sits on the table (inf on a miss).

    ``origin`` (3,) and ``dirs`` (n, 3) are in the reference frame. With a
    ``flip`` the solid is captured flipped: the rays are mapped into the
    upright object frame through the flip, which is its own inverse. The
    parameter is unchanged by that rigid map, so it measures distance along
    the reference-frame rays.
    """
    if flip is not None:
        origin, dirs = flip.apply(origin), dirs @ flip.rotation.T
    return solid.ray_hits(origin, dirs)


# ---------------------------------------------------------------------------
# Ground-truth sidecar
# ---------------------------------------------------------------------------


def solid_to_payload(solid) -> dict:
    """Encode a solid as a JSON-friendly nested dictionary."""
    if isinstance(solid, Box):
        return {"kind": "box", "center": list(solid.center), "size": list(solid.size)}
    if isinstance(solid, Sphere):
        return {"kind": "sphere", "center": list(solid.center), "radius": solid.radius}
    if isinstance(solid, Cylinder):
        return {
            "kind": "cylinder",
            "center": list(solid.center),
            "radius": solid.radius,
            "height": solid.height,
        }
    if isinstance(solid, Union):
        return {"kind": "union", "parts": [solid_to_payload(p) for p in solid.parts]}
    raise ValidationError(f"unknown solid type {type(solid).__name__}")


def solid_from_payload(payload: dict):
    """Decode a solid written by :func:`solid_to_payload`."""
    if not isinstance(payload, dict):
        raise ValidationError(f"solid must be a JSON object, got {payload!r}")
    kind = payload.get("kind")
    if kind == "box":
        return Box(center=payload["center"], size=payload["size"])
    if kind == "sphere":
        return Sphere(center=payload["center"], radius=payload["radius"])
    if kind == "cylinder":
        return Cylinder(
            center=payload["center"], radius=payload["radius"], height=payload["height"]
        )
    if kind == "union":
        return Union(parts=tuple(solid_from_payload(p) for p in payload["parts"]))
    raise ValidationError(f"unknown solid kind {kind!r}")


@dataclass(frozen=True)
class ScenePoses:
    """Ground-truth reference-to-camera poses for one rendered scene."""

    ref_to_depth: RigidTransform
    ref_to_rgb: RigidTransform


@dataclass(frozen=True)
class GroundTruth:
    """Everything a generated session was rendered from: the true depth
    scale, camera extrinsic, flip, solid, and per-scene poses."""

    alpha_true: float
    t_relative: RigidTransform
    flip: RigidTransform
    solid: object
    poses: tuple[ScenePoses, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha_true", _positive(self.alpha_true, "alpha_true"))


def save_ground_truth(path: str | Path, truth: GroundTruth) -> None:
    """Write the sidecar; scene records are numbered in capture order."""
    fileio.write_json_file(
        path,
        {
            "format": _FORMAT,
            "alpha_true": truth.alpha_true,
            "t_relative": fileio.pose_to_rows(truth.t_relative),
            "flip_transform": fileio.pose_to_rows(truth.flip),
            "object": solid_to_payload(truth.solid),
            "scenes": [
                {
                    "index": index,
                    "t_ref_to_depth": fileio.pose_to_rows(poses.ref_to_depth),
                    "t_ref_to_rgb": fileio.pose_to_rows(poses.ref_to_rgb),
                }
                for index, poses in enumerate(truth.poses)
            ],
        },
    )


def load_ground_truth(path: str | Path) -> GroundTruth:
    """Read a sidecar written by :func:`save_ground_truth`.

    Raises
    ------
    ValidationError
        If the file is not a v1 sidecar or any field is missing or malformed
        (``ParseError`` and ``IoFailure``, both subclasses, for unreadable
        JSON or files).
    """
    payload = fileio.read_json_file(path)
    if payload.get("format") != _FORMAT:
        raise ValidationError(f"unsupported ground-truth format {payload.get('format')!r}")
    try:
        return GroundTruth(
            alpha_true=payload["alpha_true"],
            t_relative=fileio.pose_from_rows(payload["t_relative"]),
            flip=fileio.pose_from_rows(payload["flip_transform"]),
            solid=solid_from_payload(payload["object"]),
            poses=tuple(
                ScenePoses(
                    ref_to_depth=fileio.pose_from_rows(rec["t_ref_to_depth"]),
                    ref_to_rgb=fileio.pose_from_rows(rec["t_ref_to_rgb"]),
                )
                for rec in payload["scenes"]
            ),
        )
    except (KeyError, TypeError, ValueError, IndexError, ValidationError) as exc:
        raise ValidationError(f"ground-truth schema violation in {path}: {exc!r}") from exc
