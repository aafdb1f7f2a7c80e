"""Readers and writers for the on-disk formats used by the pipeline.

Point clouds and meshes travel as little-endian binary PLY, depth rasters
as grayscale PFM, RGB images as binary PPM, corner correspondences as a
small text table, and manifests as JSON. All binary formats round-trip
bit-exactly; parse failures report the byte offset where reading stopped.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .calibration import CorrespondenceSet
from .errors import IoFailure, ParseError, ValidationError
from .geometry import DepthMap, PointCloud, RgbImage, RigidTransform, TriangleMesh, _as_array

_PLY_FACE_DTYPE = np.dtype([("count", "u1"), ("indices", "<i4", (3,))])
# a JSON string, or a number token as Python's json reads it (NaN and
# infinities included)
_JSON_NUMBER = re.compile(rb'"(?:[^"\\]|\\.)*"|(-?(?:\d[\d.eE+-]*|Infinity)|NaN)')

__all__ = [
    "read_corners",
    "read_depth_pfm",
    "read_image_ppm",
    "read_json_file",
    "read_mesh",
    "read_point_cloud",
    "pose_from_rows",
    "pose_to_rows",
    "write_corners",
    "write_depth_pfm",
    "write_image_ppm",
    "write_json_file",
    "write_mesh",
    "write_point_cloud",
]


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _write_bytes(path: str | Path, payload: bytes) -> None:
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


class _Scanner:
    """Line reader over raw bytes that tracks the current byte offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def line(self, expected: str) -> str:
        start = self.pos
        end = self.data.find(b"\n", start)
        if end < 0:
            raise ParseError("unexpected end of file", offset=start, expected=expected)
        self.pos = end + 1
        try:
            return self.data[start:end].decode("ascii").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(
                "non-ASCII header bytes", offset=start, expected=expected
            ) from exc


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

_VERTEX_BASE = ("double x", "double y", "double z")
_VERTEX_COLOR = ("uchar red", "uchar green", "uchar blue")
_VERTEX_NORMAL = ("double nx", "double ny", "double nz")


def _vertex_dtype(with_colors: bool, with_normals: bool) -> np.dtype:
    fields = [("x", "<f8"), ("y", "<f8"), ("z", "<f8")]
    if with_colors:
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    if with_normals:
        fields += [("nx", "<f8"), ("ny", "<f8"), ("nz", "<f8")]
    return np.dtype(fields)


def _write_ply(
    path: str | Path,
    positions: np.ndarray,
    colors: np.ndarray | None,
    normals: np.ndarray | None,
    faces: np.ndarray | None,
) -> None:
    lines = ["ply", "format binary_little_endian 1.0", f"element vertex {len(positions)}"]
    lines += [f"property {p}" for p in _VERTEX_BASE]
    if colors is not None:
        lines += [f"property {p}" for p in _VERTEX_COLOR]
    if normals is not None:
        lines += [f"property {p}" for p in _VERTEX_NORMAL]
    if faces is not None:
        lines.append(f"element face {len(faces)}")
        lines.append("property list uchar int vertex_indices")
    lines.append("end_header")
    header = ("\n".join(lines) + "\n").encode("ascii")

    table = np.empty(len(positions), dtype=_vertex_dtype(colors is not None, normals is not None))
    table["x"], table["y"], table["z"] = positions.T
    if colors is not None:
        rgb = np.clip(np.rint(colors * 255.0), 0, 255).astype(np.uint8)
        table["red"], table["green"], table["blue"] = rgb.T
    if normals is not None:
        table["nx"], table["ny"], table["nz"] = normals.T
    payload = table.tobytes()
    if faces is not None:
        face_table = np.empty(len(faces), dtype=_PLY_FACE_DTYPE)
        face_table["count"] = 3
        face_table["indices"] = faces.astype(np.int32)
        payload += face_table.tobytes()
    _write_bytes(path, header + payload)


def _parse_ply(path: str | Path):
    data = _read_bytes(path)
    scan = _Scanner(data)
    at = scan.pos
    if scan.line("ply magic") != "ply":
        raise ParseError("bad magic", offset=at, expected="ply")
    at = scan.pos
    if scan.line("format line") != "format binary_little_endian 1.0":
        raise ParseError(
            "unsupported format", offset=at, expected="format binary_little_endian 1.0"
        )

    elements: list[tuple[str, int, list[str]]] = []
    while True:
        at = scan.pos
        line = scan.line("element/property/end_header")
        if line == "end_header":
            break
        if line.startswith("comment"):
            continue
        if line.startswith("element "):
            parts = line.split()
            if len(parts) != 3 or not parts[2].isdigit():
                raise ParseError("bad element line", offset=at, expected="element <name> <count>")
            elements.append((parts[1], int(parts[2]), []))
        elif line.startswith("property "):
            if not elements:
                raise ParseError("property before element", offset=at, expected="element line")
            elements[-1][2].append(line[len("property ") :])
        else:
            raise ParseError("unknown header line", offset=at, expected="element/property")

    if not elements or elements[0][0] != "vertex":
        raise ParseError("missing vertex element", offset=scan.pos, expected="element vertex")
    _, n_vertices, props = elements[0]
    base, color, normal = list(_VERTEX_BASE), list(_VERTEX_COLOR), list(_VERTEX_NORMAL)
    with_colors = props[: len(base) + 3][len(base) :] == color
    rest = base + (color if with_colors else [])
    with_normals = props == rest + normal
    if props != rest and not with_normals:
        raise ParseError(
            "unsupported vertex layout", offset=scan.pos, expected="x y z [rgb] [normals]"
        )

    n_faces = None
    if len(elements) > 1:
        name, count, face_props = elements[1]
        if name != "face" or face_props != ["list uchar int vertex_indices"]:
            raise ParseError("unsupported element", offset=scan.pos, expected="element face")
        n_faces = count
    if len(elements) > 2:
        raise ParseError("trailing elements", offset=scan.pos, expected="end_header")

    dtype = _vertex_dtype(with_colors, with_normals)
    need = n_vertices * dtype.itemsize + (n_faces or 0) * _PLY_FACE_DTYPE.itemsize
    if len(data) - scan.pos < need:
        raise ParseError("payload truncated", offset=len(data), expected=f"{need} payload bytes")
    table = np.frombuffer(data, dtype=dtype, count=n_vertices, offset=scan.pos)
    positions = np.stack([table["x"], table["y"], table["z"]], axis=1)
    colors = None
    if with_colors:
        rgb = np.stack([table["red"], table["green"], table["blue"]], axis=1)
        colors = rgb.astype(np.float64) / 255.0
    normals = None
    if with_normals:
        normals = np.stack([table["nx"], table["ny"], table["nz"]], axis=1)
    faces = None
    if n_faces is not None:
        face_offset = scan.pos + n_vertices * dtype.itemsize
        face_table = np.frombuffer(data, dtype=_PLY_FACE_DTYPE, count=n_faces, offset=face_offset)
        if n_faces and not np.all(face_table["count"] == 3):
            raise ParseError("non-triangle face", offset=face_offset, expected="vertex count 3")
        faces = face_table["indices"].astype(np.int64)
    return positions, colors, normals, faces


def write_point_cloud(path: str | Path, cloud: PointCloud) -> None:
    """Write a point cloud as binary little-endian PLY."""
    _write_ply(path, cloud.positions, cloud.colors, cloud.normals, None)


def read_point_cloud(path: str | Path) -> PointCloud:
    """Read a point cloud written by :func:`write_point_cloud`.

    Raises
    ------
    IoFailure
        If the file cannot be read.
    ParseError
        If the content is not a supported PLY cloud; carries the byte offset.
    """
    positions, colors, normals, faces = _parse_ply(path)
    if faces is not None:
        raise ParseError("file holds a mesh", offset=0, expected="cloud without faces")
    return PointCloud(positions, colors=colors, normals=normals)


def write_mesh(path: str | Path, mesh: TriangleMesh) -> None:
    """Write a triangle mesh as binary little-endian PLY."""
    _write_ply(path, mesh.vertices, mesh.vertex_colors, None, mesh.triangles)


def read_mesh(path: str | Path) -> TriangleMesh:
    """Read a triangle mesh written by :func:`write_mesh`."""
    positions, colors, _, faces = _parse_ply(path)
    if faces is None:
        raise ParseError("file holds no faces", offset=0, expected="element face")
    return TriangleMesh(positions, faces, vertex_colors=colors)


# ---------------------------------------------------------------------------
# PFM depth rasters
# ---------------------------------------------------------------------------


def write_depth_pfm(path: str | Path, depth: DepthMap) -> None:
    """Write a depth raster as grayscale PFM (mm, invalid pixels as -1.0)."""
    header = f"Pf\n{depth.width} {depth.height}\n-1.0\n".encode("ascii")
    values = np.where(depth.values > 0.0, depth.values, -1.0).astype("<f4")
    _write_bytes(path, header + np.flipud(values).tobytes())


def read_depth_pfm(path: str | Path) -> DepthMap:
    """Read a grayscale PFM depth raster; values <= 0 stay invalid markers."""
    data = _read_bytes(path)
    scan = _Scanner(data)
    at = scan.pos
    magic = scan.line("Pf magic")
    if magic != "Pf":
        raise ParseError("bad magic", offset=at, expected="Pf")
    at = scan.pos
    dims = scan.line("width and height").split()
    if len(dims) != 2 or not all(p.lstrip("+").isdigit() for p in dims):
        raise ParseError("bad dimensions", offset=at, expected="<width> <height>")
    width, height = int(dims[0]), int(dims[1])
    at = scan.pos
    try:
        scale = float(scan.line("scale"))
    except ValueError as exc:
        raise ParseError("bad scale", offset=at, expected="nonzero float") from exc
    if scale == 0.0:
        raise ParseError("bad scale", offset=at, expected="nonzero float")
    kind = "<f4" if scale < 0.0 else ">f4"
    need = width * height * 4
    if len(data) - scan.pos < need:
        raise ParseError("payload truncated", offset=len(data), expected=f"{need} payload bytes")
    raster = np.frombuffer(data, dtype=kind, count=width * height, offset=scan.pos)
    values = np.flipud(raster.reshape(height, width)).astype(np.float64)
    return DepthMap(width, height, values)


# ---------------------------------------------------------------------------
# PPM images
# ---------------------------------------------------------------------------


def write_image_ppm(path: str | Path, image: RgbImage) -> None:
    """Write an RGB image as binary PPM (P6, 8-bit)."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    _write_bytes(path, header + image.pixels.tobytes())


def read_image_ppm(path: str | Path) -> RgbImage:
    """Read a binary PPM image written by :func:`write_image_ppm`."""
    data = _read_bytes(path)
    scan = _Scanner(data)
    at = scan.pos
    if scan.line("P6 magic") != "P6":
        raise ParseError("bad magic", offset=at, expected="P6")
    at = scan.pos
    dims = scan.line("width and height").split()
    if len(dims) != 2 or not all(p.isdigit() for p in dims):
        raise ParseError("bad dimensions", offset=at, expected="<width> <height>")
    width, height = int(dims[0]), int(dims[1])
    at = scan.pos
    if scan.line("max value") != "255":
        raise ParseError("unsupported depth", offset=at, expected="255")
    need = width * height * 3
    if len(data) - scan.pos < need:
        raise ParseError("payload truncated", offset=len(data), expected=f"{need} payload bytes")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=scan.pos)
    return RgbImage(width, height, pixels.reshape(height, width, 3).copy())


# ---------------------------------------------------------------------------
# Corner correspondence tables
# ---------------------------------------------------------------------------

_CORNERS_MAGIC = "pnp-corners v1"


def write_corners(path: str | Path, corners: CorrespondenceSet) -> None:
    """Write corner correspondences as text rows ``X Y Z u v`` (mm, px)."""
    lines = [_CORNERS_MAGIC]
    for obj, img in zip(corners.object_points, corners.image_points):
        lines.append(f"{obj[0]:.17g} {obj[1]:.17g} {obj[2]:.17g} {img[0]:.17g} {img[1]:.17g}")
    _write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_corners(path: str | Path) -> CorrespondenceSet:
    """Read corner correspondences written by :func:`write_corners`."""
    data = _read_bytes(path)
    scan = _Scanner(data)
    at = scan.pos
    if scan.line("magic line") != _CORNERS_MAGIC:
        raise ParseError("bad magic", offset=at, expected=_CORNERS_MAGIC)
    rows = []
    while scan.pos < len(scan.data):
        at = scan.pos
        line = scan.line("X Y Z u v row")
        if not line:
            continue
        parts = line.split()
        try:
            row = [float(p) for p in parts]
        except ValueError:
            row = []
        if len(row) != 5 or not np.all(np.isfinite(row)):
            raise ParseError("bad corner row", offset=at, expected="finite X Y Z u v")
        rows.append(row)
    table = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    try:
        return CorrespondenceSet(table[:, :3], table[:, 3:])
    except ValidationError as exc:
        raise ParseError(str(exc), offset=0, expected="planar corners") from exc


# ---------------------------------------------------------------------------
# JSON manifests and pose arrays
# ---------------------------------------------------------------------------


def write_json_file(path: str | Path, payload: dict) -> None:
    """Write a strict JSON document with sorted keys (stable across runs).

    Raises
    ------
    IoFailure
        If the payload holds NaN or an infinity, which JSON cannot encode.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    _write_bytes(path, text.encode("ascii"))


def read_json_file(path: str | Path) -> dict:
    """Read a strict JSON document, reporting the byte offset on parse failure.
    NaN, infinities and numbers too large for a float are refused, as
    :func:`write_json_file` never writes them."""
    data = _read_bytes(path)

    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            # json calls this in document order: the first token so written is it
            at = next((m.start() for m in _JSON_NUMBER.finditer(data) if m[1] == token.encode()), 0)
            raise ParseError(
                f"non-finite number {token} in {path}", offset=at, expected="a finite number"
            )
        return value

    try:
        payload = json.loads(data, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON", offset=exc.pos, expected="valid JSON") from exc
    except UnicodeDecodeError as exc:
        raise ParseError("undecodable text", offset=exc.start, expected="UTF-8") from exc
    if not isinstance(payload, dict):
        raise ParseError("top level is not an object", offset=0, expected="JSON object")
    return payload


def pose_to_rows(transform: RigidTransform) -> list[list[float]]:
    """Encode a rigid transform as a 4x4 row-major nested list."""
    mat = np.eye(4)
    mat[:3, :3] = transform.rotation
    mat[:3, 3] = transform.translation
    return [[float(v) for v in row] for row in mat]


def pose_from_rows(rows) -> RigidTransform:
    """Decode a 4x4 row-major nested list into a rigid transform."""
    mat = _as_array(rows, (4, 4), "pose")
    if np.max(np.abs(mat[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-9:
        raise ValidationError("last pose row must be 0 0 0 1")
    return RigidTransform(mat[:3, :3], mat[:3, 3])
