"""One measured process of a benchmark run.

    child.py setup --workload W --seed N --out DIR --result FILE [--spans FILE]
    child.py body  --workload W --session DIR --out DIR --result FILE [--spans FILE] [--repeat]

``setup`` renders and writes the workload's session with
``generate_session``. ``body`` runs calibrate, reconstruct and evaluate on a
session through the public stage functions, the way the CLI does; with
``--repeat`` it then calls calibrate and evaluate again on the same inputs,
interleaved, as often as the workload's ``repeats`` say, and reports the
time of every stage call. Each
writes its timings, resource use, output digest and quality figures as
JSON to ``--result``; with ``--spans`` it also installs the layer wrappers
and writes the recorded spans there. run.py starts one fresh process per
set-up and per session, with turnscan's sources on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

# the byte-compared outputs of the CLI determinism acceptance test
OUTPUTS = (
    "reconstruct/mesh.ply",
    "reconstruct/mesh_redyed.ply",
    "reconstruct/merged.ply",
    "evaluate/report.json",
)
BUNDLE = "calibrate/bundle.json"
REPORT = "evaluate/report.json"


def digest(root: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((root / name).read_bytes())
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    return digest(root, sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()))


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def setup(args) -> dict:
    from turnscan import simulator

    w = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    simulator.generate_session(
        workloads.rig(w), simulator.default_scene(), workloads.noise(w, args.seed), args.out
    )
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "session_digest": tree_digest(Path(args.out))}


def body(args) -> dict:
    from turnscan import pipeline, session as session_io, simulator

    w = workloads.WORKLOADS[args.workload]
    config = workloads.config(w)
    session_dir, out = Path(args.session), Path(args.out)

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    session = session_io.load_session(session_dir / "session.json")
    t1 = time.perf_counter()
    bundle = pipeline.run_calibrate(session, config, out)
    t2 = time.perf_counter()
    result = pipeline.run_reconstruct(session, bundle, config, out)
    t3 = time.perf_counter()
    truth = simulator.load_ground_truth(session_dir / "ground_truth.json")
    lo, hi = truth.solid.bounds()

    def evaluate(out_dir):
        return pipeline.run_evaluate(
            result.mesh,
            session,
            bundle,
            hi - lo,
            registration_rmse_mm=result.registration_rmse_mm,
            views=config.eval_views,
            out_dir=out_dir,
        )

    report = evaluate(out)
    t4 = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    # Repeats run after the session is timed, interleaved, on the same inputs
    # and into scratch directories; each must reproduce the session's files
    # byte for byte.
    calls = {"calibrate": [t2 - t1], "reconstruct": [t3 - t2], "evaluate": [t4 - t3]}
    stages = {
        "calibrate": (lambda d: pipeline.run_calibrate(session, config, d), (BUNDLE,)),
        "evaluate": (evaluate, (REPORT,)),
    }
    repeats = dict(w.repeats) if args.repeat else {}
    repeats_identical = True
    for i in range(max(repeats.values(), default=0)):
        for stage in (s for s, count in repeats.items() if i < count):
            again, (call, files) = out / f"repeat_{stage}{i}", stages[stage]
            start = time.perf_counter()
            call(again)
            calls[stage].append(time.perf_counter() - start)
            repeats_identical &= digest(again, files) == digest(out, files)
            shutil.rmtree(again)

    # Vertices no view coloured keep the prior grey of the uncoloured mesh;
    # their count must match the pipeline's own unseen count.
    mesh = result.mesh
    unseen = np.all(mesh.vertex_colors == 0.5, axis=1)
    seen = ~unseen
    painted = simulator.default_scene().texture.colors_at(mesh.vertices[seen])
    color_err = float(np.mean(np.abs(mesh.vertex_colors[seen] - painted)) * 255.0)
    return {
        "session_s": t4 - t0,
        "calibrate_s": t2 - t1,
        "reconstruct_s": t3 - t2,
        "evaluate_s": t4 - t3,
        "calls_s": calls,
        "repeats_identical": repeats_identical,
        "session_cpu_s": _cpu_s(usage1) - _cpu_s(usage0),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "aabb_errors_mm": list(report.aabb_errors_mm),
        "dim_err_mm": max(report.aabb_errors_mm),
        "alpha_err": abs(bundle.alpha - truth.alpha_true),
        "iou_mean": report.iou_mean,
        "contour_px": report.contour_distance_px_mean,
        "color_err": color_err,
        "unseen_frac": result.unseen_vertex_count / len(mesh.vertices),
        "unseen_consistent": int(unseen.sum()) == result.unseen_vertex_count,
        "vertices": len(mesh.vertices),
        "output_digest": digest(out, OUTPUTS),
        "bundle_digest": digest(out, (BUNDLE,)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--session")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        tracer = tracing.Tracer(args.mode)
        tracer.install(tracing.SETUP_LAYERS if args.mode == "setup" else tracing.BODY_LAYERS)
    try:
        record = MODES[args.mode](args)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        record["leftover_wrappers"] = tracing.leftover_wrappers()
        Path(args.spans).write_text(json.dumps(tracer.records()))
    Path(args.result).write_text(json.dumps(record))
    return 0


MODES = {"setup": setup, "body": body}

if __name__ == "__main__":
    raise SystemExit(main())
