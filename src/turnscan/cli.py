"""Command-line front end for the capture-to-mesh pipeline.

Subcommands mirror the pipeline stages: ``simulate`` renders a synthetic
capture session, ``calibrate`` solves poses and depth scale, ``reconstruct``
produces the re-dyed mesh, ``evaluate`` scores it, and ``all`` chains the
four. Exit codes: 0 on success, 2 when inputs or files violate a documented
precondition, 3 when a numerical procedure fails on valid input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio, simulator
from .errors import NumericalError, TurnscanError, ValidationError
from .pipeline import (
    PipelineConfig,
    config_from_payload,
    load_bundle,
    run_calibrate,
    run_evaluate,
    run_reconstruct,
)
from .session import CaptureSession, load_session
from .truth import load_ground_truth

__all__ = ["main"]


def _load_config(args) -> PipelineConfig:
    payload = fileio.read_json_file(args.config) if args.config else {}
    if args.seed is not None:
        payload["seed"] = args.seed
    return config_from_payload(payload)


def _default_noise(seed: int) -> simulator.NoiseModel:
    return simulator.NoiseModel(
        depth_sigma_mm=0.1,
        depth_bias=1.0 / 1.00223,
        pose_jitter_deg=0.05,
        pose_jitter_mm=0.1,
        seed=seed,
    )


def _simulate(out_dir: Path, seed: int) -> CaptureSession:
    rig = simulator.default_rig()
    scene = simulator.default_scene()
    return simulator.generate_session(rig, scene, _default_noise(seed), out_dir)


def _reference_dims(session: CaptureSession):
    truth = load_ground_truth(session.root / "ground_truth.json")
    lo, hi = truth.solid.bounds()
    return tuple(float(x) for x in (hi - lo))


def _out_root(args, session: CaptureSession) -> Path:
    return Path(args.out) if args.out else session.root / "out"


def _cmd_simulate(args) -> int:
    out = Path(args.out)
    session = _simulate(out, args.seed)
    print(f"simulated {len(session.scenes)} scenes under {out}")
    return 0


def _cmd_calibrate(args) -> int:
    session = load_session(args.session)
    config = _load_config(args)
    bundle = run_calibrate(session, config, _out_root(args, session))
    print(f"calibrated {len(bundle.rgb_poses)} scenes, depth scale {bundle.alpha:.6f}")
    return 0


def _cmd_reconstruct(args) -> int:
    session = load_session(args.session)
    config = _load_config(args)
    out_root = _out_root(args, session)
    bundle_path = Path(args.bundle) if args.bundle else out_root / "calibrate" / "bundle.json"
    if not bundle_path.is_file():
        raise ValidationError(f"no calibration bundle at {bundle_path}; run calibrate first")
    bundle = load_bundle(bundle_path)
    result = run_reconstruct(session, bundle, config, out_root)
    print(
        f"reconstructed mesh with {len(result.mesh.vertices)} vertices,"
        f" {len(result.mesh.triangles)} triangles"
        f" (registration rmse {result.registration_rmse_mm:.3f} mm)"
    )
    return 0


def _cmd_evaluate(args) -> int:
    session = load_session(args.session)
    config = _load_config(args)
    out_root = _out_root(args, session)
    bundle_path = Path(args.bundle) if args.bundle else out_root / "calibrate" / "bundle.json"
    if not bundle_path.is_file():
        raise ValidationError(f"no calibration bundle at {bundle_path}; run calibrate first")
    bundle = load_bundle(bundle_path)
    mesh_path = Path(args.mesh) if args.mesh else out_root / "reconstruct" / "mesh_redyed.ply"
    if not mesh_path.is_file():
        raise ValidationError(f"no mesh at {mesh_path}; run reconstruct first")
    mesh = fileio.read_mesh(mesh_path)
    reference = tuple(args.reference_dims) if args.reference_dims else _reference_dims(session)
    report = run_evaluate(
        mesh,
        session,
        bundle,
        reference,
        views=config.eval_views,
        out_dir=out_root,
    )
    _print_report(report)
    return 0


def _print_report(report) -> None:
    ex, ey, ez = report.aabb_errors_mm
    print(f"aabb errors (mm): x={ex:.4f} y={ey:.4f} z={ez:.4f}")
    print(f"silhouette iou: mean={report.iou_mean:.4f}")
    print(f"contour distance (px): mean={report.contour_distance_px_mean:.3f}")
    print(f"depth scale: {report.alpha:.6f}")


def _cmd_all(args) -> int:
    config = _load_config(args)
    if args.session:
        session = load_session(args.session)
        out_root = _out_root(args, session)
    else:
        out_base = Path(args.out) if args.out else Path("out")
        session = _simulate(out_base / "session", config.seed)
        out_root = out_base
        print(f"simulated {len(session.scenes)} scenes under {out_base / 'session'}")
    bundle = run_calibrate(session, config, out_root)
    print(f"calibrated {len(bundle.rgb_poses)} scenes, depth scale {bundle.alpha:.6f}")
    result = run_reconstruct(session, bundle, config, out_root)
    print(
        f"reconstructed mesh with {len(result.mesh.vertices)} vertices,"
        f" {len(result.mesh.triangles)} triangles"
    )
    report = run_evaluate(
        result.mesh,
        session,
        bundle,
        _reference_dims(session),
        registration_rmse_mm=result.registration_rmse_mm,
        views=config.eval_views,
        out_dir=out_root,
    )
    _print_report(report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turnscan",
        description="Reconstruct textured meshes from turntable depth + RGB captures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, session_required=True):
        p.add_argument(
            "--session",
            required=session_required,
            help="path to a session manifest (session.json)",
        )
        p.add_argument("--config", help="JSON file overriding pipeline defaults")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="artifact root (default: <session>/out)")

    p_sim = sub.add_parser("simulate", help="render a synthetic capture session")
    p_sim.add_argument("--out", required=True, help="directory to write the session into")
    p_sim.add_argument("--seed", type=int, default=0, help="noise seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="solve poses, extrinsic, and depth scale")
    add_common(p_cal)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_rec = sub.add_parser("reconstruct", help="fuse, register, mesh, and re-dye")
    add_common(p_rec)
    p_rec.add_argument("--bundle", help="calibration bundle (default: <out>/calibrate/bundle.json)")
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_eval = sub.add_parser("evaluate", help="score a mesh against the ground truth")
    add_common(p_eval)
    p_eval.add_argument("--bundle", help="calibration bundle (default: <out>/calibrate/bundle.json)")
    p_eval.add_argument("--mesh", help="mesh to score (default: <out>/reconstruct/mesh_redyed.ply)")
    p_eval.add_argument(
        "--reference-dims",
        nargs=3,
        type=float,
        metavar=("X", "Y", "Z"),
        help="reference object dimensions in mm (default: ground-truth sidecar)",
    )
    p_eval.set_defaults(func=_cmd_evaluate)

    p_all = sub.add_parser("all", help="simulate (if needed), then run every stage")
    add_common(p_all, session_required=False)
    p_all.set_defaults(func=_cmd_all)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TurnscanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
