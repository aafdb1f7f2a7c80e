"""Spans and counts at the pipeline's layer boundaries, recorded from
outside the program.

A :class:`Tracer` wraps the public functions that each turnscan module
exposes and that the pipeline calls. Every call becomes a span (name,
thread, start, end, parent) carrying counts taken from the arguments and
the return value. Spans stay in memory until the run writes them out.
Wrappers replace every binding of the original function in the loaded
turnscan modules, because the pipeline imports most functions by name,
and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

_MARK = "_perfbench_layer"


@dataclass
class Span:
    id: str
    name: str
    thread: str
    start: float
    end: float
    parent: str | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Layer:
    """One wrapped function: span name, defining module, attribute path
    (``func`` or ``Class.method``), and an optional count extractor
    ``(args, kwargs, result) -> dict``. ``per_item`` names a child span
    around each call of the mapped function (for ``_parallel_map``)."""

    name: str
    module: str
    attr: str
    counts: Callable | None = None
    per_item: str | None = None


def _file_bytes(args, kwargs, result):
    return {"bytes": os.stat(args[0]).st_size}


def _in_out(args, kwargs, result):
    return {"points_in": len(args[0]), "points_out": len(result)}


def _removed(args, kwargs, result):
    return {"removed": len(result[1])}


def _points_out(args, kwargs, result):
    return {"points_out": len(result)}


def _icp(args, kwargs, result):
    return {"iterations": sum(result.iterations_used), "final_rmse_mm": result.final_rmse}


def _poisson(args, kwargs, result):
    info = result[1]
    return {"iterations": info.iterations, "residual": info.residual}


def _triangles(args, kwargs, result):
    return {"triangles": len(result.triangles)}


def _kept(args, kwargs, result):
    return {"vertices_in": len(args[0].vertices), "vertices_out": len(result.vertices)}


def _hpr(args, kwargs, result):
    return {"points": len(args[0])}


def _redye(args, kwargs, result):
    mesh, views = args[0], args[1]
    return {
        "samples": len(mesh.vertices) * len(views),
        "visible": sum(result[1].scene_visible_counts),
    }


def _scenes(args, kwargs, result):
    return {"items": len(args[1]), "workers": args[2]}


_READERS = (
    "read_corners",
    "read_depth_pfm",
    "read_image_ppm",
    "read_json_file",
    "read_mesh",
    "read_point_cloud",
)
_WRITERS = (
    "write_corners",
    "write_depth_pfm",
    "write_image_ppm",
    "write_json_file",
    "write_mesh",
    "write_point_cloud",
)
FILEIO_LAYERS = tuple(Layer("fileio.read", "fileio", f, _file_bytes) for f in _READERS) + tuple(
    Layer("fileio.write", "fileio", f, _file_bytes) for f in _WRITERS
)

# The set-up process renders the session; only the simulator and file
# layers run there.
SETUP_LAYERS = (Layer("simulator.render_scene", "simulator", "render_scene"),) + FILEIO_LAYERS

# ``_parallel_map`` is private, but it is the only boundary of the
# per-scene phase, which the parallelism metric needs.
BODY_LAYERS = FILEIO_LAYERS + (
    Layer("pipeline.run_calibrate", "pipeline", "run_calibrate"),
    Layer("pipeline.run_reconstruct", "pipeline", "run_reconstruct"),
    Layer("pipeline.run_evaluate", "pipeline", "run_evaluate"),
    Layer("pipeline.scenes", "pipeline", "_parallel_map", _scenes, per_item="pipeline.scene"),
    Layer("simulator.ray_hits", "simulator", "Box.ray_hits"),
    Layer("simulator.ray_hits", "simulator", "Sphere.ray_hits"),
    Layer("simulator.ray_hits", "simulator", "Cylinder.ray_hits"),
    Layer("simulator.ray_hits", "simulator", "Union.ray_hits"),
    Layer("calibration.estimate_pose_pnp", "calibration", "estimate_pose_pnp"),
    Layer("calibration.fit_plane_ransac", "calibration", "fit_plane_ransac"),
    Layer("geometry.backproject", "geometry", "backproject"),
    Layer("geometry.transform_points", "geometry", "transform_points"),
    Layer("geometry.project_points", "geometry", "project_points"),
    Layer("cloud.crop", "cloud", "crop", _in_out),
    Layer("cloud.remove_statistical_outliers", "cloud", "remove_statistical_outliers", _removed),
    Layer("cloud.estimate_normals", "cloud", "estimate_normals"),
    Layer("cloud.fuse", "cloud", "fuse"),
    Layer("cloud.voxel_downsample", "cloud", "voxel_downsample", _points_out),
    Layer("registration.colored_icp", "registration", "colored_icp", _icp),
    Layer("registration.trim_overlap_band", "registration", "trim_overlap_band"),
    Layer("meshing.reconstruct_mesh", "meshing", "reconstruct_mesh"),
    Layer("meshing.splat_normal_field", "meshing", "splat_normal_field"),
    Layer("meshing.solve_poisson", "meshing", "solve_poisson", _poisson),
    Layer("meshing.marching_cubes", "meshing", "marching_cubes", _triangles),
    Layer("meshing.largest_component", "meshing", "largest_component", _kept),
    Layer("meshing.refine_vertices", "meshing", "refine_vertices"),
    Layer("texturing.redye_mesh", "texturing", "redye_mesh", _redye),
    Layer("texturing.hidden_point_removal", "texturing", "hidden_point_removal", _hpr),
)


def _turnscan_modules():
    return [m for n, m in list(sys.modules.items()) if n == "turnscan" or n.startswith("turnscan.")]


class Tracer:
    """Records spans in memory; installs and removes the layer wrappers."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: str | None = None):
        """Time the body as one span; yields its id and its counts dict."""
        stack = self._stack()
        sid = f"{self.prefix}:{next(self._ids)}"
        if parent is None and stack:
            parent = stack[-1]
        counts: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid, counts
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, threading.current_thread().name, start, end, parent, counts)
            with self._lock:
                self.spans.append(span)

    def _wrap(self, layer: Layer, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(layer.name) as (sid, counts):
                if layer.per_item is not None:
                    func = args[0]

                    def item(x):
                        with self.span(layer.per_item, parent=sid):
                            return func(x)

                    args = (item,) + args[1:]
                result = original(*args, **kwargs)
                if layer.counts is not None:
                    counts.update(layer.counts(args, kwargs, result))
                return result

        setattr(wrapper, _MARK, layer.name)
        return wrapper

    def install(self, layers) -> None:
        """Wrap every layer, rebinding each name that refers to it."""
        import turnscan  # noqa: F401  (loads every submodule)

        modules = _turnscan_modules()
        for layer in layers:
            owner = sys.modules[f"turnscan.{layer.module}"]
            attr = layer.attr
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                bindings = [(owner, attr)]
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
                bindings = [
                    (m, k) for m in modules for k, v in vars(m).items() if v is original
                ]
            wrapper = self._wrap(layer, original)
            for target, name in bindings:
                setattr(target, name, wrapper)
                self._patches.append((target, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def records(self) -> list[dict]:
        with self._lock:
            return [asdict(s) for s in self.spans]


def leftover_wrappers() -> list[str]:
    """Names still bound to a wrapper anywhere in the turnscan modules."""
    found = []
    for module in _turnscan_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [
                    f"{module.__name__}.{key}.{k}"
                    for k, v in vars(value).items()
                    if hasattr(v, _MARK)
                ]
    return found


# ---------------------------------------------------------------------------
# Per-layer metrics from recorded spans
# ---------------------------------------------------------------------------


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _outermost(spans, name):
    """Spans of `name` with no ancestor of the same name (recursion, such
    as a union's ray cast calling its parts, is counted once)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in _named(spans, name):
        p = by_id.get(s.parent)
        while p is not None and p.name != name:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def busy_s(spans, name) -> float:
    return sum(s.seconds for s in _outermost(spans, name))


def calls(spans, name) -> int:
    return len(_named(spans, name))


def total(spans, name, key):
    return sum(s.counts.get(key, 0) for s in _named(spans, name))


def self_s(spans, name) -> float:
    """Span time not covered by any child span (children on other threads
    included), summed over the spans of `name`."""
    children: dict[str, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    result = 0.0
    for s in _named(spans, name):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result += s.seconds - covered
    return result


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _mean(spans, name, key) -> float:
    values = [s.counts[key] for s in _named(spans, name) if key in s.counts]
    return sum(values) / len(values) if values else 0.0


def _busy(name):
    return (f"{name}.busy_s", "s", "lower", lambda sp: busy_s(sp, name))


def _calls(name):
    return (f"{name}.calls", "count", "lower", lambda sp: calls(sp, name))


def _total(name, key, unit="count", better="lower"):
    return (f"{name}.{key}", unit, better, lambda sp: total(sp, name, key))


# (metric, unit, better, spans -> value). ``trace.overhead_s`` is added by
# the runner, which holds both the traced and the untraced session time.
PER_LAYER = (
    _busy("simulator.render_scene"),
    _calls("simulator.render_scene"),
    _busy("simulator.ray_hits"),
    _busy("fileio.read"),
    _calls("fileio.read"),
    _total("fileio.read", "bytes", "B"),
    _busy("fileio.write"),
    _total("fileio.write", "bytes", "B"),
    _busy("calibration.estimate_pose_pnp"),
    _busy("calibration.fit_plane_ransac"),
    _calls("calibration.fit_plane_ransac"),
    _busy("geometry.backproject"),
    _busy("geometry.transform_points"),
    _busy("geometry.project_points"),
    _busy("cloud.crop"),
    _total("cloud.crop", "points_in"),
    _total("cloud.crop", "points_out"),
    _busy("cloud.remove_statistical_outliers"),
    _total("cloud.remove_statistical_outliers", "removed"),
    _busy("cloud.estimate_normals"),
    _busy("cloud.fuse"),
    _busy("cloud.voxel_downsample"),
    _total("cloud.voxel_downsample", "points_out"),
    _busy("registration.colored_icp"),
    _total("registration.colored_icp", "iterations"),
    (
        "registration.colored_icp.final_rmse_mm",
        "mm",
        "lower",
        lambda sp: _mean(sp, "registration.colored_icp", "final_rmse_mm"),
    ),
    _busy("registration.trim_overlap_band"),
    _busy("meshing.reconstruct_mesh"),
    _busy("meshing.splat_normal_field"),
    _busy("meshing.solve_poisson"),
    _total("meshing.solve_poisson", "iterations"),
    (
        "meshing.solve_poisson.residual",
        "ratio",
        "lower",
        lambda sp: _mean(sp, "meshing.solve_poisson", "residual"),
    ),
    _busy("meshing.marching_cubes"),
    _total("meshing.marching_cubes", "triangles"),
    _busy("meshing.largest_component"),
    (
        "meshing.largest_component.kept_frac",
        "ratio",
        "higher",
        lambda sp: _ratio(
            total(sp, "meshing.largest_component", "vertices_out"),
            total(sp, "meshing.largest_component", "vertices_in"),
        ),
    ),
    _busy("meshing.refine_vertices"),
    _busy("texturing.redye_mesh"),
    _busy("texturing.hidden_point_removal"),
    _total("texturing.hidden_point_removal", "points"),
    (
        "texturing.redye_mesh.visible_frac",
        "ratio",
        "higher",
        lambda sp: _ratio(
            total(sp, "texturing.redye_mesh", "visible"),
            total(sp, "texturing.redye_mesh", "samples"),
        ),
    ),
    ("pipeline.run_calibrate.self_s", "s", "lower", lambda sp: self_s(sp, "pipeline.run_calibrate")),
    ("pipeline.run_reconstruct.self_s", "s", "lower", lambda sp: self_s(sp, "pipeline.run_reconstruct")),
    ("pipeline.run_evaluate.self_s", "s", "lower", lambda sp: self_s(sp, "pipeline.run_evaluate")),
    (
        "pipeline.scenes.parallelism",
        "ratio",
        "higher",
        lambda sp: _ratio(busy_s(sp, "pipeline.scene"), busy_s(sp, "pipeline.scenes")),
    ),
)


def load_spans(records) -> list[Span]:
    return [Span(**r) for r in records]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    return {name: (float(fn(spans)), unit) for name, unit, _, fn in PER_LAYER}


def nesting_errors(spans: list[Span]) -> list[str]:
    """Ids of spans whose parent is missing or does not enclose them."""
    by_id = {s.id: s for s in spans}
    bad = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None or s.start < p.start or s.end > p.end or s.end < s.start:
            bad.append(s.id)
    return bad
