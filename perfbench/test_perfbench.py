"""Self-tests of the benchmark: tracing must not change outputs, must clean
up after itself, and must record spans and counts that can be trusted.

    python3 -m pytest perfbench -q

Most tests use a small session (16 scenes, grid 48) to stay fast; the
worker-count test runs the real box64_all session.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import child
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SMALL = replace(
    workloads.WORKLOADS["box64_all"], name="small", angles=4, grid_dims=48, eval_views=(0,)
)


def body(tmp_path, session, tag, traced=False, repeat=False):
    out = tmp_path / tag
    argv = ["body", "--workload", SMALL.name, "--session", str(session), "--out", str(out)]
    argv += ["--result", str(tmp_path / f"{tag}.json")]
    if traced:
        argv += ["--spans", str(tmp_path / f"{tag}.spans.json")]
    if repeat:
        argv.append("--repeat")
    assert child.main(argv) == 0
    record = json.loads((tmp_path / f"{tag}.json").read_text())
    spans = None
    if traced:
        spans = tracing.load_spans(json.loads((tmp_path / f"{tag}.spans.json").read_text()))
    return record, spans


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """One small session; its body untraced once (repeating the short
    stages, as measured runs do) and traced twice."""
    mp = pytest.MonkeyPatch()
    mp.setitem(workloads.WORKLOADS, SMALL.name, SMALL)
    mp.setenv("RECON_WORKERS", "2")
    tmp = tmp_path_factory.mktemp("small")
    try:
        session = tmp / "session"
        argv = ["setup", "--workload", SMALL.name, "--seed", "3", "--out", str(session)]
        assert child.main(argv + ["--result", str(tmp / "setup.json")]) == 0
        return {
            "plain": body(tmp, session, "plain", repeat=True),
            "traced_a": body(tmp, session, "traced_a", traced=True),
            "traced_b": body(tmp, session, "traced_b", traced=True),
        }
    finally:
        mp.undo()


def test_traced_outputs_match_untraced(small_runs):
    plain, _ = small_runs["plain"]
    for key in ("traced_a", "traced_b"):
        traced, _ = small_runs[key]
        assert traced["output_digest"] == plain["output_digest"]


def test_repeated_stage_calls_reproduce_the_session(small_runs):
    plain, _ = small_runs["plain"]
    assert plain["repeats_identical"]
    for stage, count in SMALL.repeats:
        assert len(plain["calls_s"][stage]) == 1 + count
        assert plain["calls_s"][stage][0] == plain[f"{stage}_s"]
    traced = small_runs["traced_a"][0]
    assert all(len(calls) == 1 for calls in traced["calls_s"].values())


def test_every_wrapper_is_removed(small_runs):
    for key in ("traced_a", "traced_b"):
        assert small_runs[key][0]["leftover_wrappers"] == []
    assert tracing.leftover_wrappers() == []
    # the check itself sees installed wrappers
    tracer = tracing.Tracer("probe")
    tracer.install(tracing.BODY_LAYERS)
    try:
        assert len(tracing.leftover_wrappers()) >= len(tracing.BODY_LAYERS)
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []


def test_spans_nest_and_self_times_are_nonnegative(small_runs):
    _, spans = small_runs["traced_a"]
    assert tracing.nesting_errors(spans) == []
    by_id = {s.id: s for s in spans}
    scenes = [s for s in spans if s.name == "pipeline.scene"]
    assert scenes and all(by_id[s.parent].name == "pipeline.scenes" for s in scenes)
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    for s in spans:
        assert tracing.self_s([s, *children.get(s.id, [])], s.name) >= 0.0


def test_counts_repeat_across_traced_runs(small_runs):
    a = tracing.layer_metrics(small_runs["traced_a"][1])
    b = tracing.layer_metrics(small_runs["traced_b"][1])
    timed = (".busy_s", ".self_s", ".parallelism")
    counts = [name for name in a if not name.endswith(timed)]
    assert "meshing.solve_poisson.iterations" in counts
    assert "registration.colored_icp.iterations" in counts
    assert a["meshing.solve_poisson.iterations"][0] > 0
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}


def test_box64_all_digest_is_the_same_at_one_and_two_workers(tmp_path, monkeypatch):
    w = workloads.WORKLOADS["box64_all"]
    session = tmp_path / "session"
    argv = ["setup", "--workload", w.name, "--seed", "0", "--out", str(session)]
    assert child.main(argv + ["--result", str(tmp_path / "setup.json")]) == 0
    digests = []
    for workers in (1, 2):
        monkeypatch.setenv("RECON_WORKERS", str(workers))
        out, result = tmp_path / f"out{workers}", tmp_path / f"body{workers}.json"
        argv = ["body", "--workload", w.name, "--session", str(session), "--out", str(out)]
        assert child.main(argv + ["--result", str(result)]) == 0
        digests.append(json.loads(result.read_text())["output_digest"])
    assert digests[0] == digests[1]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]
    per_layer += [(name, unit, "lower") for name, unit in run.EXTRA_PER_LAYER]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_run_fails_without_turnscan_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "box64_all", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
