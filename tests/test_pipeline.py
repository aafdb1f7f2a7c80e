import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from turnscan import fileio
from turnscan import simulator as sim
from turnscan import truth as gt
from turnscan.errors import (
    EmptyInput,
    MissingCorners,
    NumericalError,
    ParseError,
    ValidationError,
)
from turnscan.geometry import (
    DepthMap,
    PinholeCamera,
    RigidTransform,
    TriangleMesh,
    rasterize_mesh_mask,
)
from turnscan.pipeline import (
    CalibrationBundle,
    PipelineConfig,
    config_from_payload,
    load_bundle,
    run_calibrate,
    run_evaluate,
    run_reconstruct,
    save_bundle,
)
from turnscan.cli import main as cli_main
from turnscan.session import load_session

from meshes import convex_hull_3d

TRUE_ALPHA = 1.00223
FAST = PipelineConfig(grid_dims=32)


def quarter_rig() -> sim.RigConfig:
    """Full-circle coverage with four 90 degree stops instead of sixteen."""
    rig = sim.default_rig()
    return dataclasses.replace(rig, angles=4, angle_step_deg=90.0)


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    noise = sim.NoiseModel(depth_bias=1.0 / TRUE_ALPHA, seed=3)
    sim.generate_session(quarter_rig(), sim.default_scene(), noise, root)
    return root


@pytest.fixture(scope="module")
def clean_session(clean_dir):
    return load_session(clean_dir / "session.json")


@pytest.fixture(scope="module")
def clean_bundle(clean_session):
    return run_calibrate(clean_session, FAST)


@pytest.fixture(scope="module")
def reference_dims(clean_session):
    truth = gt.load_ground_truth(clean_session.root / "ground_truth.json")
    lo, hi = truth.solid.bounds()
    return hi - lo


def rewrite_manifest(src_dir, name, mutate):
    payload = json.loads((src_dir / "session.json").read_text())
    mutate(payload)
    path = src_dir / name
    path.write_text(json.dumps(payload))
    return path


def strict_json(path):
    """Parse a JSON file, refusing the NaN and Infinity extensions."""

    def refuse(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_calibrate_recovers_biased_scale(clean_bundle):
    assert abs(clean_bundle.alpha - TRUE_ALPHA) < 1e-6
    spread = max(clean_bundle.per_scene_alpha) - min(clean_bundle.per_scene_alpha)
    assert spread < 1e-5


def test_bundle_survives_round_trip(clean_session, clean_bundle):
    loaded = load_bundle(clean_session.root / "out" / "calibrate" / "bundle.json")
    assert loaded.alpha == pytest.approx(clean_bundle.alpha, abs=1e-12)
    assert loaded.per_scene_alpha == pytest.approx(clean_bundle.per_scene_alpha, abs=1e-12)
    assert len(loaded.rgb_poses) == len(clean_bundle.rgb_poses)
    for got, want in zip(loaded.rgb_poses, clean_bundle.rgb_poses):
        np.testing.assert_allclose(got.rotation, want.rotation, atol=1e-12)
        np.testing.assert_allclose(got.translation, want.translation, atol=1e-12)
    np.testing.assert_allclose(
        loaded.t_relative.rotation, clean_bundle.t_relative.rotation, atol=1e-12
    )


def test_missing_corner_file_names_stage_and_scene(tmp_path):
    rig = dataclasses.replace(quarter_rig(), angles=1, angle_step_deg=360.0)
    sim.generate_session(rig, sim.default_scene(), sim.NoiseModel(seed=1), tmp_path)
    session = load_session(tmp_path / "session.json")
    session.resolve(session.scenes[1].corners_rgb_path).unlink()
    with pytest.raises(MissingCorners) as caught:
        run_calibrate(session, FAST)
    assert "stage=pnp" in str(caught.value)
    assert "scene=1" in str(caught.value)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_is_deterministic_across_worker_counts(
    clean_session, clean_bundle, tmp_path, monkeypatch
):
    first = run_reconstruct(clean_session, clean_bundle, FAST, tmp_path / "a")
    monkeypatch.setenv("RECON_WORKERS", "1")
    second = run_reconstruct(clean_session, clean_bundle, FAST, tmp_path / "b")

    assert not first.single_orientation
    assert len(first.mesh.vertices) > 0
    assert np.array_equal(first.mesh.vertices, second.mesh.vertices)
    assert np.array_equal(first.mesh.triangles, second.mesh.triangles)
    assert np.array_equal(first.mesh.vertex_colors, second.mesh.vertex_colors)
    assert np.array_equal(first.cloud.positions, second.cloud.positions)
    for name in (
        "fused_upright.ply",
        "fused_flipped.ply",
        "merged.ply",
        "mesh.ply",
        "mesh_redyed.ply",
        "report.json",
    ):
        assert (tmp_path / "a" / "reconstruct" / name).is_file()


def test_redye_colors_flipped_views_from_the_registered_pose(
    clean_session, clean_bundle, tmp_path
):
    result = run_reconstruct(clean_session, clean_bundle, FAST, tmp_path)
    mesh = result.mesh
    assert result.unseen_vertex_count <= 0.01 * len(mesh.vertices)
    seen = ~np.all(mesh.vertex_colors == 0.5, axis=1)  # unseen keep the prior grey
    painted = sim.default_scene().texture.colors_at(mesh.vertices[seen])
    assert np.mean(np.abs(mesh.vertex_colors[seen] - painted)) * 255.0 <= 30.0


def test_corrupt_depth_keeps_parse_error_through_stage_tag(
    clean_dir, clean_session, clean_bundle, tmp_path
):
    record = clean_session.scenes[2]
    relative = Path(record.depth_path).with_name("truncated.pfm")
    truncated = clean_session.resolve(relative.as_posix())
    truncated.write_bytes(clean_session.resolve(record.depth_path).read_bytes()[:-100])

    def point_at_truncated(payload):
        payload["scenes"][2]["depth"] = relative.as_posix()

    manifest = rewrite_manifest(clean_dir, "session_truncated.json", point_at_truncated)
    session = load_session(manifest)
    with pytest.raises(ParseError) as caught:
        run_reconstruct(session, clean_bundle, FAST, tmp_path)
    assert caught.value.offset == len(truncated.read_bytes())
    assert "stage=read scene=2" in str(caught.value)


def test_skipping_scale_correction_hurts_dimensions(
    clean_session, clean_bundle, reference_dims, tmp_path
):
    corrected = run_reconstruct(clean_session, clean_bundle, FAST, tmp_path / "on")
    uncorrected = run_reconstruct(
        clean_session, dataclasses.replace(clean_bundle, alpha=1.0), FAST, tmp_path / "off"
    )

    def dim_error(cloud):
        dims = cloud.positions.max(axis=0) - cloud.positions.min(axis=0)
        return float(np.sum(np.abs(dims - reference_dims)))

    assert dim_error(uncorrected.cloud) > dim_error(corrected.cloud)


def test_single_orientation_skips_registration(clean_dir, tmp_path):
    upright = rewrite_manifest(
        clean_dir,
        "session_upright.json",
        lambda payload: payload.update(scenes=payload["scenes"][:8]),
    )
    session = load_session(upright)
    bundle = run_calibrate(session, FAST, tmp_path)
    with pytest.warns(RuntimeWarning, match="single orientation"):
        result = run_reconstruct(session, bundle, FAST, tmp_path)
    assert result.single_orientation
    assert np.isnan(result.registration_rmse_mm)
    assert len(result.mesh.vertices) > 0
    assert strict_json(tmp_path / "reconstruct" / "report.json")["registration_rmse_mm"] is None


def test_empty_crop_names_stage_and_scene(clean_dir, clean_bundle, tmp_path):
    def push_box_away(payload):
        payload["bounding_box"]["x_min"] = 500.0
        payload["bounding_box"]["x_max"] = 600.0

    far = rewrite_manifest(clean_dir, "session_farbox.json", push_box_away)
    session = load_session(far)
    with pytest.raises(EmptyInput) as caught:
        run_reconstruct(session, clean_bundle, FAST, tmp_path)
    assert "stage=crop" in str(caught.value)
    assert "scene=0" in str(caught.value)


def test_bundle_scene_count_must_match(clean_session, clean_bundle, tmp_path):
    short = CalibrationBundle(
        alpha=clean_bundle.alpha,
        t_relative=clean_bundle.t_relative,
        rgb_poses=clean_bundle.rgb_poses[:4],
        depth_poses=clean_bundle.depth_poses[:4],
        per_scene_alpha=clean_bundle.per_scene_alpha[:4],
    )
    with pytest.raises(ValidationError, match="bundle covers 4 scenes"):
        run_reconstruct(clean_session, short, FAST, tmp_path)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_exact_tessellation_scores_cleanly(clean_session, clean_bundle, reference_dims, tmp_path):
    truth = gt.load_ground_truth(clean_session.root / "ground_truth.json")
    lo, hi = truth.solid.bounds()
    corners = np.array(
        [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    )
    mesh = convex_hull_3d(corners)

    report = run_evaluate(mesh, clean_session, clean_bundle, reference_dims, out_dir=tmp_path)

    assert max(report.aabb_errors_mm) < 1e-9
    assert report.view_indices == (0, 8)
    assert report.iou_mean > 0.99
    assert report.contour_distance_px_mean < 0.5
    assert (tmp_path / "evaluate" / "report.json").is_file()
    for view in report.view_indices:
        assert (tmp_path / "evaluate" / f"overlay_{view:03d}.ppm").is_file()

    payload = fileio.read_json_file(tmp_path / "evaluate" / "report.json")
    assert payload["iou_mean"] == pytest.approx(report.iou_mean)
    assert payload["aabb_errors_mm"] == pytest.approx(list(report.aabb_errors_mm))


def test_evaluate_writes_null_for_a_mesh_outside_every_view(
    clean_session, clean_bundle, reference_dims, tmp_path
):
    far = convex_hull_3d(np.eye(4)[:, :3] * 10.0 + [5000.0, 0.0, 0.0])
    report = run_evaluate(far, clean_session, clean_bundle, reference_dims, out_dir=tmp_path)
    assert report.iou_per_view == (0.0, 0.0)
    assert np.isinf(report.contour_distance_px_mean)
    payload = strict_json(tmp_path / "evaluate" / "report.json")
    assert payload["contour_distance_px_per_view"] == [None, None]
    assert payload["contour_distance_px_mean"] is None


def test_evaluate_rejects_empty_mesh(clean_session, clean_bundle, reference_dims, tmp_path):
    empty = convex_hull_3d(np.eye(4)[:, :3] * 10.0)
    stripped = dataclasses.replace(empty, triangles=np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(EmptyInput):
        run_evaluate(stripped, clean_session, clean_bundle, reference_dims, out_dir=tmp_path)


def test_evaluate_rejects_non_finite_reference_dims(clean_session, clean_bundle, tmp_path):
    mesh = convex_hull_3d(np.eye(4)[:, :3] * 10.0)
    for bad in ((np.nan, 1.0, 1.0), (1.0, np.inf, 1.0)):
        with pytest.raises(ValidationError, match="reference dimensions"):
            run_evaluate(mesh, clean_session, clean_bundle, bad, out_dir=tmp_path)
    assert not (tmp_path / "evaluate").exists()


def test_evaluate_rejects_empty_negative_and_non_integer_views(
    clean_session, clean_bundle, reference_dims, tmp_path
):
    mesh = convex_hull_3d(np.eye(4)[:, :3] * 10.0)
    for views in ((), (-1,), (0, -1), (1.5,), (True,), (99,)):
        with pytest.raises(ValidationError):
            run_evaluate(
                mesh, clean_session, clean_bundle, reference_dims, views=views, out_dir=tmp_path
            )


def loop_rasterize(mesh, cam, ref_to_cam):
    """Reference silhouette: the per-triangle loop the vectorised rasterizer
    must reproduce bit for bit."""
    cam_pts = ref_to_cam.apply(mesh.vertices)
    z = cam_pts[:, 2]
    safe_z = np.where(z > 1e-9, z, 1.0)
    u = cam.fx * cam_pts[:, 0] / safe_z + cam.cx
    v = cam.fy * cam_pts[:, 1] / safe_z + cam.cy
    mask = np.zeros((cam.height, cam.width), dtype=bool)
    in_front = z > 1e-9
    for tri in mesh.triangles:
        if not np.all(in_front[tri]):
            continue
        tu, tv = u[tri], v[tri]
        u_lo = max(int(np.ceil(tu.min())), 0)
        u_hi = min(int(np.floor(tu.max())), cam.width - 1)
        v_lo = max(int(np.ceil(tv.min())), 0)
        v_hi = min(int(np.floor(tv.max())), cam.height - 1)
        if u_lo > u_hi or v_lo > v_hi:
            continue
        gu, gv = np.meshgrid(
            np.arange(u_lo, u_hi + 1, dtype=np.float64),
            np.arange(v_lo, v_hi + 1, dtype=np.float64),
        )
        ax, ay = tu[0], tv[0]
        e1u, e1v = tu[1] - ax, tv[1] - ay
        e2u, e2v = tu[2] - ax, tv[2] - ay
        area = e1u * e2v - e1v * e2u
        if abs(area) < 1e-12:
            continue
        pu, pv = gu - ax, gv - ay
        w1 = (pu * e2v - pv * e2u) / area
        w2 = (e1u * pv - e1v * pu) / area
        inside = (w1 >= -1e-12) & (w2 >= -1e-12) & (w1 + w2 <= 1.0 + 1e-12)
        mask[v_lo : v_hi + 1, u_lo : u_hi + 1] |= inside
    return mask


# At z = 100 mm with fx = fy = 100 px, a vertex (x, y, 100) projects to
# exactly (x + cx, y + cy), so hand-made triangles land on chosen pixels.
SMALL_CAM = PinholeCamera(fx=100.0, fy=100.0, cx=20.0, cy=15.0, width=40, height=30)
VGA_CAM = PinholeCamera(fx=525.0, fy=525.0, cx=319.5, cy=239.5, width=640, height=480)
IDENTITY = RigidTransform.identity()


def pixel_mesh(*triangles, z=100.0):
    """Mesh of triangles given as three (u, v) pixel positions on SMALL_CAM."""
    uv = np.array(triangles, dtype=np.float64).reshape(-1, 2)
    xyz = np.column_stack([uv[:, 0] - SMALL_CAM.cx, uv[:, 1] - SMALL_CAM.cy, np.full(len(uv), z)])
    return TriangleMesh(xyz, np.arange(len(uv)).reshape(-1, 3))


def assert_matches_loop(mesh, cam=SMALL_CAM, pose=IDENTITY):
    mask = rasterize_mesh_mask(mesh, cam, pose)
    assert mask.shape == (cam.height, cam.width) and mask.dtype == bool
    assert np.array_equal(mask, loop_rasterize(mesh, cam, pose))
    return mask


def test_rasterizer_matches_loop_on_hand_made_cases():
    # zero area: three distinct collinear vertices cover nothing
    assert not assert_matches_loop(pixel_mesh([(2, 2), (6, 6), (10, 10)])).any()
    # both windings cover the same pixels
    ccw = assert_matches_loop(pixel_mesh([(3, 4), (17, 6), (9, 20)]))
    cw = assert_matches_loop(pixel_mesh([(3, 4), (9, 20), (17, 6)]))
    assert ccw.any() and np.array_equal(ccw, cw)
    # partly and wholly off the image
    assert assert_matches_loop(pixel_mesh([(-10.5, -7.25), (25.5, 3.0), (4.0, 50.75)])).any()
    assert not assert_matches_loop(pixel_mesh([(45, 2), (60, 5), (50, 20)])).any()
    assert not assert_matches_loop(pixel_mesh([(-20, -9), (-3, -5), (-8, -30)])).any()
    # a square split along its diagonal: pixel centres on the shared edge and
    # on the outer edges are covered (edges are inclusive), the rest is not
    square = assert_matches_loop(
        pixel_mesh([(5, 5), (15, 5), (15, 15)], [(5, 5), (15, 15), (5, 15)])
    )
    assert square[5:16, 5:16].all() and square.sum() == 11 * 11
    diagonal = assert_matches_loop(pixel_mesh([(5, 5), (15, 5), (15, 15)]))
    assert all(diagonal[k, k] for k in range(5, 16))
    # a vertex behind the camera (or on its plane) drops the triangle
    behind = TriangleMesh(
        np.array([[-5.0, -5.0, 100.0], [5.0, -5.0, 100.0], [0.0, 5.0, -50.0], [0.0, 5.0, 0.0]]),
        np.array([[0, 1, 2], [0, 1, 3]]),
    )
    assert not assert_matches_loop(behind).any()
    # no visible triangle at all
    assert not assert_matches_loop(pixel_mesh([(2, 2), (9, 3), (4, 8)], z=-100.0)).any()
    assert not assert_matches_loop(
        TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    ).any()


def test_rasterizer_matches_loop_on_random_meshes():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(3, 40))
        if trial % 3 == 0:
            # whole-pixel vertices on SMALL_CAM put pixel centres on edges
            vertices = np.column_stack([rng.integers(-25, 26, (n, 2)), np.full(n, 100.0)])
            cam, pose = SMALL_CAM, IDENTITY
        else:
            spread = rng.choice([2.0, 20.0, 200.0])
            depth = rng.choice([-40.0, 30.0, 150.0, 600.0])
            vertices = rng.normal(0.0, spread, (n, 3)) + [0.0, 0.0, depth]
            c, s = np.cos(trial), np.sin(trial)
            cam, pose = VGA_CAM, RigidTransform(
                np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), rng.normal(0.0, 5.0, 3)
            )
        picks = int(rng.integers(1, 80))
        triangles = np.array([rng.choice(n, 3, replace=False) for _ in range(picks)])
        assert_matches_loop(TriangleMesh(vertices, triangles), cam, pose)


def test_rasterizer_bounds_memory_on_image_filling_triangles():
    # 50 triangles that each cover the whole image: 15.4 million candidate
    # pixels, gigabytes if tested in one pass
    count = 50
    depth = np.repeat(10.0 + 0.01 * np.arange(count), 3)
    corners = np.tile([[-1e4, -1e4], [1e4, -1e4], [0.0, 1e4]], (count, 1))
    mesh = TriangleMesh(np.column_stack([corners, depth]), np.arange(3 * count).reshape(-1, 3))
    tracemalloc.start()
    try:
        mask = rasterize_mesh_mask(mesh, VGA_CAM, IDENTITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.all()
    assert peak < 256 * 2**20
    assert np.array_equal(mask, loop_rasterize(mesh, VGA_CAM, IDENTITY))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_payload_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="grid_dimz"):
        config_from_payload({"grid_dimz": 64})


def test_config_payload_coerces_lists():
    config = config_from_payload({"eval_views": [0, 8], "grid_dims": 48})
    assert config.eval_views == (0, 8)
    assert config.grid_dims == 48


def test_readme_lists_every_config_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (line,) = [ln for ln in readme.read_text().splitlines() if ln.startswith("Config keys:")]
    listed = set(line.removeprefix("Config keys:").replace("`", "").strip(" .").split(", "))
    assert listed == {f.name for f in dataclasses.fields(PipelineConfig)}


def test_config_validates_ranges():
    for seed in ("a", 1.5, -1, True, [0], np.int64(3)):
        with pytest.raises(ValidationError, match="seed"):
            PipelineConfig(seed=seed)
    for dims in (7, "64", 64.0, False, (64, 64, 64), np.int64(64)):
        with pytest.raises(ValidationError, match="grid_dims"):
            PipelineConfig(grid_dims=dims)
    assert PipelineConfig(seed=0, grid_dims=8).grid_dims == 8
    for views in ((), [0, 8], (1.5,), (-1,), (0, True), (np.int64(3),)):
        with pytest.raises(ValidationError, match="eval_views"):
            PipelineConfig(eval_views=views)
    # indices past a session's scene count are dropped later, not rejected
    assert PipelineConfig(eval_views=(0, 99)).eval_views == (0, 99)


def test_bundle_validates_alignment_and_scale(clean_bundle):
    with pytest.raises(ValidationError):
        CalibrationBundle(
            alpha=1.0,
            t_relative=clean_bundle.t_relative,
            rgb_poses=clean_bundle.rgb_poses,
            depth_poses=clean_bundle.depth_poses[:1],
            per_scene_alpha=clean_bundle.per_scene_alpha,
        )
    with pytest.raises(ValidationError):
        CalibrationBundle(
            alpha=0.0,
            t_relative=clean_bundle.t_relative,
            rgb_poses=clean_bundle.rgb_poses,
            depth_poses=clean_bundle.depth_poses,
            per_scene_alpha=clean_bundle.per_scene_alpha,
        )


# ---------------------------------------------------------------------------
# Session manifest invariants
# ---------------------------------------------------------------------------


def test_manifest_rejects_out_of_order_scenes(clean_dir):
    def swap(payload):
        payload["scenes"][0], payload["scenes"][1] = payload["scenes"][1], payload["scenes"][0]

    path = rewrite_manifest(clean_dir, "session_swapped.json", swap)
    with pytest.raises(ValidationError, match="index order"):
        load_session(path)


def test_manifest_rejects_partial_grid(clean_dir):
    path = rewrite_manifest(
        clean_dir,
        "session_partial.json",
        lambda payload: payload.update(scenes=payload["scenes"][:9]),
    )
    with pytest.raises(ValidationError):
        load_session(path)


def test_manifest_rejects_missing_files(clean_dir):
    def rename_first(payload):
        payload["scenes"][0]["depth"] = "scenes/nope.pfm"

    path = rewrite_manifest(clean_dir, "session_missing.json", rename_first)
    with pytest.raises(ValidationError, match="nope.pfm"):
        load_session(path)


def l_shape_boxes():
    """A tall and a short box side by side: an L that the flip does not
    map onto itself."""
    return (
        gt.Box(center=(-20.0, 0.0, 40.0), size=(40.0, 70.0, 80.0)),
        gt.Box(center=(20.0, 0.0, 15.0), size=(40.0, 70.0, 30.0)),
    )


def box_mesh(box):
    lo, hi = box.bounds()
    return convex_hull_3d(
        np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
    )


def test_evaluate_poses_flipped_views_through_the_flip(tmp_path):
    # the exact L (two overlapping box shells) scored on a noise-free
    # session with the true poses: every view, flipped ones included,
    # must match the ground-truth silhouette
    boxes = l_shape_boxes()
    scene = sim.SceneDescription(gt.Union(boxes), sim.CheckerTexture(pitch_mm=26.0))
    rig = dataclasses.replace(quarter_rig(), arm_poses=quarter_rig().arm_poses[:1])
    session = sim.generate_session(rig, scene, sim.NoiseModel(), tmp_path / "l")
    truth = gt.load_ground_truth(session.root / "ground_truth.json")
    bundle = CalibrationBundle(
        alpha=1.0,
        t_relative=truth.t_relative,
        rgb_poses=tuple(p.ref_to_rgb for p in truth.poses),
        depth_poses=tuple(p.ref_to_depth for p in truth.poses),
        per_scene_alpha=(1.0,) * len(truth.poses),
    )
    a, b = (box_mesh(box) for box in boxes)
    mesh = TriangleMesh(
        np.vstack([a.vertices, b.vertices]),
        np.vstack([a.triangles, b.triangles + len(a.vertices)]),
    )
    views = tuple(range(len(session.scenes)))
    assert any(session.scenes[v].flipped for v in views)

    report = run_evaluate(mesh, session, bundle, (80.0, 70.0, 80.0), views=views, out_dir=tmp_path)

    assert max(report.aabb_errors_mm) < 1e-9
    assert min(report.iou_per_view) >= 0.99
    assert max(report.contour_distance_px_per_view) <= 0.25
    payload = strict_json(tmp_path / "evaluate" / "report.json")
    assert payload["registration_rmse_mm"] is None


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_all_runs_every_stage(clean_dir, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"grid_dims": 32}))
    out = tmp_path / "out"

    rc = cli_main(
        [
            "all",
            "--session",
            str(clean_dir / "session.json"),
            "--config",
            str(config_path),
            "--out",
            str(out),
        ]
    )

    assert rc == 0
    printed = capsys.readouterr().out
    assert "depth scale" in printed
    assert "aabb errors" in printed
    assert (out / "calibrate" / "bundle.json").is_file()
    assert (out / "reconstruct" / "mesh_redyed.ply").is_file()
    assert (out / "evaluate" / "report.json").is_file()


def test_cli_missing_session_exits_2(tmp_path, capsys):
    rc = cli_main(["calibrate", "--session", str(tmp_path / "absent.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_non_utf8_session_exits_2(clean_dir, tmp_path, capsys):
    data = (clean_dir / "session.json").read_bytes()
    bad = tmp_path / "session.json"
    bad.write_bytes(data[:10] + b"\xff" + data[11:])
    rc = cli_main(["calibrate", "--session", str(bad)])
    assert rc == 2
    assert "UTF-8" in capsys.readouterr().err


def test_cli_bad_config_exits_2(clean_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid_dimz": 64}))
    rc = cli_main(
        ["calibrate", "--session", str(clean_dir / "session.json"), "--config", str(bad)]
    )
    assert rc == 2
    assert "grid_dimz" in capsys.readouterr().err


REMOVED_CONFIG_KEYS = [
    ("redye_mode", "best"),
    ("redye_radius_factor", 100.0),
    ("workers", 4),
    ("fusion_voxel_mm", 0.5),
    ("crop_clearance_mm", 0.8),
    ("denoise_k", 12),
    ("denoise_std_ratio", 2.0),
    ("normals_k", 10),
    ("plane_threshold_mm", 0.3),
    ("plane_iterations", 100),
    ("plane_sample_cap", 20000),
    ("trim_fraction", 0.6),
    ("icp_voxel_schedule_mm", [4.0, 2.0, 1.0]),
    ("icp_iterations", [50, 30, 14]),
    ("icp_color_weight", 0.968),
    ("refine_k", 48),
    ("refine_step_mm", 1.0),
    ("force_unit_scale", False),
]


@pytest.mark.parametrize("key, value", REMOVED_CONFIG_KEYS)
def test_cli_removed_config_keys_exit_2_before_any_stage(clean_dir, tmp_path, capsys, key, value):
    bad = tmp_path / "removed.json"
    bad.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    argv = ["calibrate", "--session", str(clean_dir / "session.json"), "--config", str(bad)]
    rc = cli_main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and key in err
    assert not out.exists()


def cli_evaluate(session_json, bundle_path, out, capsys):
    """Run `turnscan evaluate` on the unit tetrahedron; returns (rc, stderr)."""
    mesh_path = out.parent / "mesh.ply"
    fileio.write_mesh(mesh_path, convex_hull_3d(np.eye(4)[:, :3] * 10.0))
    argv = ["evaluate", "--session", str(session_json), "--bundle", str(bundle_path)]
    rc = cli_main(argv + ["--mesh", str(mesh_path), "--out", str(out)])
    return rc, capsys.readouterr().err


def drop_key(key):
    return lambda payload: payload.pop(key)


def set_item(path, value):
    def mutate(payload):
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value

    return mutate


def keep_one_scene(payload):
    payload["scenes"] = payload["scenes"][:1]


@pytest.mark.parametrize(
    "payload, seed_flag",
    [
        ({"seed": "a"}, None),
        ({"seed": 1.5}, None),
        ({"seed": -1}, None),
        ({}, "-1"),
        ({"grid_dims": 7}, None),
        ({"grid_dims": "64"}, None),
    ],
    ids=["seed-a", "seed-1.5", "seed-negative", "seed-flag-negative", "grid-7", "grid-string"],
)
def test_cli_malformed_seed_or_grid_exits_2_before_any_stage(
    clean_dir, tmp_path, capsys, payload, seed_flag
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "out"
    argv = ["calibrate", "--session", str(clean_dir / "session.json"), "--config", str(config)]
    argv += ["--out", str(out)] + (["--seed", seed_flag] if seed_flag else [])
    rc = cli_main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and next(iter(payload), "seed") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_simulate_negative_seed_exits_2(tmp_path, capsys):
    rc = cli_main(["simulate", "--out", str(tmp_path / "session"), "--seed", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err
    assert not (tmp_path / "session").exists()


@pytest.mark.parametrize(
    "mutate",
    [
        set_item(("depth_camera", "fx"), float("nan")),
        set_item(("bounding_box", "height_mm"), float("inf")),
        set_item(("rgb_camera", "fy"), "nan"),
        set_item(("bounding_box", "height_mm"), "inf"),
    ],
    ids=["fx-NaN", "height-Infinity", "fy-nan-string", "height-inf-string"],
)
def test_cli_non_finite_manifest_exits_2_before_any_stage(
    clean_dir, tmp_path, capsys, request, mutate
):
    manifest = rewrite_manifest(clean_dir, f"session_{request.node.callspec.id}.json", mutate)
    out = tmp_path / "out"
    rc = cli_main(["all", "--session", str(manifest), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_cli_non_finite_corner_exits_2(clean_dir, clean_session, tmp_path, capsys, token):
    record = clean_session.scenes[0]
    source = clean_session.resolve(record.corners_rgb_path)
    relative = Path(record.corners_rgb_path).with_name(f"corners_{token}.txt").as_posix()
    lines = source.read_text().splitlines(keepends=True)
    row = lines[1].split()
    lines[1] = " ".join(row[:3] + [token] + row[4:]) + "\n"
    clean_session.resolve(relative).write_text("".join(lines))

    def point_at_mutated(payload):
        payload["scenes"][0]["corners_rgb"] = relative

    manifest = rewrite_manifest(clean_dir, f"session_corner_{token}.json", point_at_mutated)
    rc = cli_main(["calibrate", "--session", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=pnp scene=0" in err and "finite X Y Z u v" in err
    assert f"byte {len(lines[0])}," in err and "Traceback" not in err


@pytest.mark.parametrize(
    "mutate",
    [
        drop_key("object"),
        set_item(("object", "size"), "abc"),
        set_item(("alpha_true",), "x"),
        set_item(("flip_transform", 1), [0.0, -1.0]),
        keep_one_scene,
        set_item(("format",), "turnscan-ground-truth v0"),
    ],
    ids=["no-object", "size-abc", "alpha-x", "ragged-flip", "one-scene", "format"],
)
def test_cli_malformed_sidecar_exits_2(clean_dir, clean_bundle, tmp_path, capsys, mutate):
    root = tmp_path / "session"
    root.mkdir()
    (root / "session.json").write_bytes((clean_dir / "session.json").read_bytes())
    (root / "scenes").symlink_to(clean_dir / "scenes")
    payload = json.loads((clean_dir / "ground_truth.json").read_text())
    mutate(payload)
    (root / "ground_truth.json").write_text(json.dumps(payload))
    bundle_path = tmp_path / "bundle.json"
    save_bundle(clean_bundle, bundle_path)
    out = tmp_path / "out"

    rc, err = cli_evaluate(root / "session.json", bundle_path, out, capsys)

    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "evaluate").exists()


@pytest.mark.parametrize(
    "mutate",
    [
        set_item(("alpha",), "x"),
        set_item(("scenes", 0, "ref_to_rgb", 2), [0.0, 1.0]),
        set_item(("alpha",), float("nan")),
    ],
    ids=["alpha-x", "ragged-pose", "alpha-nan"],
)
def test_cli_malformed_bundle_exits_2(clean_dir, clean_bundle, tmp_path, capsys, mutate):
    bundle_path = tmp_path / "bundle.json"
    save_bundle(clean_bundle, bundle_path)
    payload = json.loads(bundle_path.read_text())
    mutate(payload)
    bundle_path.write_text(json.dumps(payload))
    out = tmp_path / "out"

    rc, err = cli_evaluate(clean_dir / "session.json", bundle_path, out, capsys)

    assert rc == 2
    assert err.startswith("error:") and "bundle" in err and "Traceback" not in err
    assert not (out / "evaluate").exists()


@pytest.mark.parametrize("views", [[1.5], [-1], [], 3])
def test_cli_bad_eval_views_exit_2_before_any_stage(clean_dir, tmp_path, capsys, views):
    bad = tmp_path / "views.json"
    bad.write_text(json.dumps({"eval_views": views}))
    out = tmp_path / "out"
    rc = cli_main(
        [
            "calibrate",
            "--session",
            str(clean_dir / "session.json"),
            "--config",
            str(bad),
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eval_views" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_evaluate_mesh_with_nan_vertex_exits_2(clean_dir, clean_bundle, tmp_path, capsys):
    bundle_path = tmp_path / "bundle.json"
    save_bundle(clean_bundle, bundle_path)
    mesh_path = tmp_path / "nan.ply"
    fileio.write_mesh(mesh_path, convex_hull_3d(np.eye(4)[:, :3] * 10.0))
    data = bytearray(mesh_path.read_bytes())
    start = data.index(b"end_header\n") + len(b"end_header\n")
    data[start : start + 8] = np.array([np.nan], dtype="<f8").tobytes()
    mesh_path.write_bytes(bytes(data))
    out = tmp_path / "out"

    rc = cli_main(
        [
            "evaluate",
            "--session",
            str(clean_dir / "session.json"),
            "--bundle",
            str(bundle_path),
            "--mesh",
            str(mesh_path),
            "--out",
            str(out),
        ]
    )

    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err
    assert not (out / "evaluate" / "report.json").exists()


def test_cli_reconstruct_without_bundle_exits_2(clean_dir, tmp_path, capsys):
    rc = cli_main(
        [
            "reconstruct",
            "--session",
            str(clean_dir / "session.json"),
            "--out",
            str(tmp_path / "fresh"),
        ]
    )
    assert rc == 2
    assert "calibrate first" in capsys.readouterr().err


def test_cli_numerical_failure_exits_3(tmp_path, capsys):
    rig = dataclasses.replace(quarter_rig(), angles=1, angle_step_deg=360.0)
    noise = sim.NoiseModel(depth_sigma_mm=0.1, seed=7)
    session = sim.generate_session(rig, sim.default_scene(), noise, tmp_path / "noisy")
    # depths scattered at random hold no table plane for the scale fit
    rng = np.random.default_rng(7)
    for record in session.scenes:
        path = session.resolve(record.depth_path)
        depth = fileio.read_depth_pfm(path)
        values = rng.uniform(300.0, 900.0, depth.values.shape)
        fileio.write_depth_pfm(path, DepthMap(depth.width, depth.height, values))

    rc = cli_main(["calibrate", "--session", str(tmp_path / "noisy" / "session.json")])

    assert rc == 3
    err = capsys.readouterr().err
    assert "stage=scale" in err


def test_cli_worker_env_must_be_integer(clean_dir, monkeypatch, capsys):
    monkeypatch.setenv("RECON_WORKERS", "many")
    rc = cli_main(["calibrate", "--session", str(clean_dir / "session.json")])
    assert rc == 2
    assert "RECON_WORKERS" in capsys.readouterr().err
