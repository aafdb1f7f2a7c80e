"""End-to-end acceptance checks, one test per shipping criterion.

Every test prints one PASS/FAIL line with the measured quantities next to
their budgets (run ``pytest -s tests/test_acceptance.py`` to see the lines
for passing tests), then asserts the budget.
"""

import time

import numpy as np
import pytest

from turnscan import fileio
from turnscan import simulator as sim
from turnscan import truth as gt
from turnscan.calibration import (
    CalibrationSet,
    CorrespondenceSet,
    estimate_pose_pnp,
    relative_extrinsic,
)
from turnscan.cli import main as cli_main
from turnscan.cloud import estimate_normals
from turnscan.geometry import (
    PinholeCamera,
    PointCloud,
    RigidTransform,
    TriangleMesh,
    axis_angle,
    compose,
    invert,
    rotation_angle,
    rotation_z,
)
from turnscan.meshing import Grid, reconstruct_mesh, solve_poisson
from turnscan.pipeline import (
    PipelineConfig,
    run_calibrate,
    run_evaluate,
    run_reconstruct,
)
from turnscan.registration import IcpParams, colored_icp, icp_point_to_plane
from turnscan.session import load_session
from turnscan.texturing import hidden_point_removal, redye_mesh

TRUE_ALPHA = 1.00223
BOX_SIZE = (77.96, 77.98, 85.48)


def verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def pose_delta(a: RigidTransform, b: RigidTransform):
    d = compose(a, invert(b))
    return rotation_angle(d.rotation), float(np.linalg.norm(d.translation))


@pytest.fixture(scope="module")
def clean_box(tmp_path_factory):
    """Bias only, zero noise: the texture and pose oracles stay exact."""
    root = tmp_path_factory.mktemp("clean_box")
    noise = sim.NoiseModel(depth_bias=1.0 / TRUE_ALPHA, seed=2)
    sim.generate_session(sim.default_rig(), sim.default_scene(), noise, root)
    return root


@pytest.fixture(scope="module")
def noisy_box(tmp_path_factory):
    root = tmp_path_factory.mktemp("noisy_box")
    noise = sim.NoiseModel(depth_sigma_mm=0.1, depth_bias=1.0 / TRUE_ALPHA, seed=11)
    sim.generate_session(sim.default_rig(), sim.default_scene(), noise, root)
    return root


# --------------------------------------------------------------------- 1


def test_scale_recovery_exact_and_under_noise(clean_box, noisy_box, tmp_path):
    start = time.perf_counter()
    exact = run_calibrate(load_session(clean_box / "session.json"), out_dir=tmp_path / "a")
    noisy = run_calibrate(load_session(noisy_box / "session.json"), out_dir=tmp_path / "b")
    elapsed = time.perf_counter() - start

    err_exact = abs(exact.alpha - TRUE_ALPHA)
    err_noisy = abs(float(np.mean(noisy.per_scene_alpha[:32])) - TRUE_ALPHA)
    ok = err_exact < 1e-6 and err_noisy < 5e-4 and elapsed < 30.0
    verdict(
        "scale recovery",
        ok,
        f"|alpha err| {err_exact:.2e} zero noise (<1e-6), "
        f"{err_noisy:.2e} over 32 noisy scenes (<5e-4), {elapsed:.1f}s (<30s)",
    )


# --------------------------------------------------------------------- 2


def test_box_dimensions_recovered_within_budget(noisy_box, tmp_path):
    session = load_session(noisy_box / "session.json")
    config = PipelineConfig(grid_dims=128)
    start = time.perf_counter()
    bundle = run_calibrate(session, config, tmp_path)
    result = run_reconstruct(session, bundle, config, tmp_path)
    elapsed = time.perf_counter() - start

    dims = result.mesh.vertices.max(axis=0) - result.mesh.vertices.min(axis=0)
    errors = np.abs(dims - np.array(BOX_SIZE))
    ok = bool(np.all(errors <= 0.2)) and elapsed < 300.0
    verdict(
        "dimensional accuracy",
        ok,
        f"AABB errors {np.round(errors, 3)} mm (each <=0.2), {elapsed:.0f}s (<300s)",
    )


# --------------------------------------------------------------------- 3


BOARD = np.column_stack(
    [
        (np.tile(np.arange(8), 6) - 3.5) * 25.0,
        (np.repeat(np.arange(6), 8) - 2.5) * 25.0,
        np.zeros(48),
    ]
)


def random_facing_pose(rng):
    base = RigidTransform(np.eye(3), np.array([0.0, 0.0, 500.0]))
    wiggle = RigidTransform(
        axis_angle(rng.normal(size=3), rng.uniform(0.05, 0.5)),
        rng.uniform(-60, 60, size=3) * [1, 1, 0.3],
    )
    return compose(wiggle, base)


def project_board(cam, pose):
    p_cam = pose.apply(BOARD)
    assert np.all(p_cam[:, 2] > 0)
    return np.column_stack(
        [
            cam.fx * p_cam[:, 0] / p_cam[:, 2] + cam.cx,
            cam.fy * p_cam[:, 1] / p_cam[:, 2] + cam.cy,
        ]
    )


def test_relative_extrinsic_survives_gross_outliers():
    # each scene's two captures share one jittered turntable pose (the jitter
    # moves the rig, not the rigid camera-to-camera geometry); 15 scenes then
    # carry a gross depth-side pose error as if the arm slipped between the
    # two exposures
    cam = PinholeCamera(fx=1200.0, fy=1180.0, cx=639.5, cy=479.5, width=1280, height=960)
    rng = np.random.default_rng(29)
    truth = RigidTransform(axis_angle([0.2, 1.0, 0.1], 0.3), np.array([25.0, 3.0, 5.0]))

    rgb, depth = [], []
    for scene in range(90):
        pose = random_facing_pose(rng)
        jitter = RigidTransform(
            axis_angle(rng.normal(size=3), abs(rng.normal(0.0, np.radians(0.2)))),
            rng.normal(0.0, 0.5, size=3),
        )
        pose = compose(jitter, pose)
        depth_pose = compose(truth, pose)
        if scene >= 75:
            gross = RigidTransform(
                axis_angle(rng.normal(size=3), rng.uniform(np.radians(10), np.radians(30))),
                rng.choice([-1.0, 1.0], size=3) * rng.uniform(50.0, 100.0, size=3) * [1, 1, 0.3],
            )
            depth_pose = compose(gross, depth_pose)
        rgb.append(estimate_pose_pnp(cam, CorrespondenceSet(BOARD, project_board(cam, pose))))
        depth.append(
            estimate_pose_pnp(cam, CorrespondenceSet(BOARD, project_board(cam, depth_pose)))
        )

    with_outliers = relative_extrinsic(CalibrationSet(rgb, depth))
    without = relative_extrinsic(CalibrationSet(rgb[:75], depth[:75]))

    rot_err, tr_err = pose_delta(with_outliers, truth)
    rot_shift, tr_shift = pose_delta(with_outliers, without)
    ok = (
        np.degrees(rot_err) <= 0.1
        and tr_err <= 0.1
        and np.degrees(rot_shift) < 0.02
        and tr_shift < 0.02
    )
    verdict(
        "extrinsic robustness",
        ok,
        f"error vs truth {np.degrees(rot_err):.2e} deg / {tr_err:.2e} mm (<=0.1), "
        f"outlier influence {np.degrees(rot_shift):.2e} deg / {tr_shift:.2e} mm (<0.02)",
    )


# --------------------------------------------------------------------- 4


def test_pnp_exact_on_random_poses():
    cam = PinholeCamera(fx=1200.0, fy=1180.0, cx=639.5, cy=479.5, width=1280, height=960)
    rng = np.random.default_rng(42)

    worst_rot, worst_tr = 0.0, 0.0
    for _ in range(10):
        truth = random_facing_pose(rng)
        est = estimate_pose_pnp(cam, CorrespondenceSet(BOARD, project_board(cam, truth)))
        rot_err, tr_err = pose_delta(est, truth)
        worst_rot = max(worst_rot, rot_err)
        worst_tr = max(worst_tr, tr_err)

    ok = worst_rot < 1e-6 and worst_tr < 1e-6
    verdict(
        "pnp exactness",
        ok,
        f"worst over 10 poses: {worst_rot:.2e} rad, {worst_tr:.2e} mm (each <1e-6)",
    )


# --------------------------------------------------------------------- 5


def test_cylinder_rotation_needs_the_color_term():
    rng = np.random.default_rng(3)
    theta = np.arange(240) * (2 * np.pi / 240)
    z = np.arange(55) * 1.1
    tt, zz = np.meshgrid(theta, z, indexing="ij")
    tt = tt.ravel() + rng.uniform(-0.006, 0.006, tt.size)
    pts = np.column_stack([25.0 * np.cos(tt), 25.0 * np.sin(tt), zz.ravel()])
    normals = np.column_stack([np.cos(tt), np.sin(tt), np.zeros(tt.size)])
    luma = 0.5 + 0.4 * np.sin(2.0 * tt)
    source = PointCloud(pts, colors=np.column_stack([luma] * 3), normals=normals)
    truth = RigidTransform(rotation_z(np.radians(30.0)), np.zeros(3))
    target = PointCloud(
        truth.apply(pts), colors=source.colors, normals=(truth.rotation @ normals.T).T
    )

    params = IcpParams(
        voxel_schedule_mm=(4.0, 2.0, 1.0), max_iterations=(50, 30, 14), color_weight=0.9
    )
    geometric = icp_point_to_plane(source, target, RigidTransform.identity(), params)
    photometric = colored_icp(source, target, RigidTransform.identity(), params)

    rot_geo, _ = pose_delta(geometric.transform, truth)
    rot_col, _ = pose_delta(photometric.transform, truth)
    ok = np.degrees(rot_geo) >= 25.0 and np.degrees(rot_col) <= 0.5
    verdict(
        "registration ambiguity",
        ok,
        f"geometry-only error {np.degrees(rot_geo):.1f} deg (>=25), "
        f"with color {np.degrees(rot_col):.3f} deg (<=0.5)",
    )


# --------------------------------------------------------------------- 6


def poisson_field_error(n):
    length = 1.0
    axes = np.linspace(0.0, length, n)
    spacing = axes[1] - axes[0]
    x, y, z = np.meshgrid(axes, axes, axes, indexing="ij")
    s = np.pi / length
    chi_true = np.sin(s * x) * np.sin(s * y) * np.sin(s * z)
    grad = np.stack(
        [
            s * np.cos(s * x) * np.sin(s * y) * np.sin(s * z),
            s * np.sin(s * x) * np.cos(s * y) * np.sin(s * z),
            s * np.sin(s * x) * np.sin(s * y) * np.cos(s * z),
        ],
        axis=-1,
    )
    chi, _ = solve_poisson(Grid((n, n, n), np.zeros(3), spacing, grad))
    return float(np.linalg.norm(chi.values - chi_true) / np.linalg.norm(chi_true))


def test_poisson_second_order_and_sphere_rms():
    errors = [poisson_field_error(n) for n in (17, 33, 65)]
    ratios = (errors[0] / errors[1], errors[1] / errors[2])

    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(20000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cloud = PointCloud(40.0 * dirs, normals=dirs)
    mesh = reconstruct_mesh(cloud, dims=64)
    rms = float(np.sqrt(np.mean((np.linalg.norm(mesh.vertices, axis=1) - 40.0) ** 2)))
    extent = cloud.positions.max(0) - cloud.positions.min(0)
    spacing = float(np.max((extent + 2 * 0.1 * extent.max()) / 63))

    ok = ratios[0] >= 3.5 and ratios[1] >= 3.5 and rms < spacing
    verdict(
        "poisson correctness",
        ok,
        f"halving-error ratios {ratios[0]:.2f}, {ratios[1]:.2f} (>=3.5), "
        f"sphere rms {rms:.3f} mm < spacing {spacing:.3f} mm",
    )


# --------------------------------------------------------------------- 7


def test_hidden_point_removal_separates_hemispheres():
    golden = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(40000)
    zs = 1.0 - 2.0 * (i + 0.5) / 40000
    rxy = np.sqrt(1.0 - zs**2)
    pts = 50.0 * np.column_stack([rxy * np.cos(golden * i), rxy * np.sin(golden * i), zs])
    mask = hidden_point_removal(PointCloud(pts), np.array([0.0, 0.0, 5000.0]), 100.0).flags

    near = float(mask[pts[:, 2] > 0].mean())
    far = float(mask[pts[:, 2] <= 0].mean())
    ok = near >= 0.99 and far <= 0.01
    verdict(
        "hidden point removal",
        ok,
        f"near hemisphere visible {near:.4f} (>=0.99), far false positives {far:.4f} (<=0.01)",
    )


# --------------------------------------------------------------------- 8


def checker_box_mesh(lo, hi, pitch, inset=1.5):
    """Grid tessellation of the box shell with vertices placed between
    checker cell boundaries so every vertex has one unambiguous color."""

    def axis_coords(a_lo, a_hi):
        offsets = pitch * np.array([0.125, 0.375, 0.625, 0.875])
        cells = np.arange(np.floor(a_lo / pitch) - 1, np.ceil(a_hi / pitch) + 1)
        coords = (cells[:, None] * pitch + offsets[None, :]).ravel()
        return np.sort(coords[(coords >= a_lo + inset) & (coords <= a_hi - inset)])

    verts, tris, face_of = [], [], []
    for axis in range(3):
        u_ax, v_ax = [a for a in range(3) if a != axis]
        handed = 1.0 if (u_ax, v_ax) in ((1, 2), (2, 0), (0, 1)) else -1.0
        us = axis_coords(lo[u_ax], hi[u_ax])
        vs = axis_coords(lo[v_ax], hi[v_ax])
        for sign, plane in ((1.0, hi[axis]), (-1.0, lo[axis])):
            base = len(verts)
            uu, vv = np.meshgrid(us, vs, indexing="ij")
            pts = np.zeros((uu.size, 3))
            pts[:, u_ax] = uu.ravel()
            pts[:, v_ax] = vv.ravel()
            pts[:, axis] = plane
            verts.extend(pts)
            face_of.extend([axis * 2 + (0 if sign > 0 else 1)] * len(pts))
            nu, nv = len(us), len(vs)
            for r in range(nu - 1):
                for c in range(nv - 1):
                    a = base + r * nv + c
                    b, d, e = a + 1, a + nv, a + nv + 1
                    if handed == sign:
                        tris += [(a, d, b), (b, d, e)]
                    else:
                        tris += [(a, b, d), (b, e, d)]
    return (
        np.array(verts),
        np.array(tris, dtype=np.int64),
        np.array(face_of),
    )


def test_redye_reproduces_painted_checkerboard(clean_box):
    session = load_session(clean_box / "session.json")
    truth = gt.load_ground_truth(clean_box / "ground_truth.json")
    texture = sim.default_scene().texture
    lo, hi = truth.solid.bounds()
    verts, tris, face_of = checker_box_mesh(lo, hi, texture.pitch_mm)
    mesh = TriangleMesh(verts, tris, vertex_colors=np.full((len(verts), 3), 0.5))

    upright = [rec for rec in session.scenes if not rec.flipped]
    views = [
        (
            fileio.read_image_ppm(session.resolve(rec.rgb_path)),
            session.rgb_camera,
            truth.poses[rec.index].ref_to_rgb,
        )
        for rec in upright
    ]
    dyed, report = redye_mesh(mesh, views, radius_factor=100.0)

    unseen = np.zeros(len(verts), dtype=bool)
    unseen[report.unseen_indices] = True
    bottom = face_of == 5
    errors = np.abs(dyed.vertex_colors - texture.colors_at(verts)) * 255.0
    mean_err = errors[~unseen].mean(axis=0)

    ok = (
        len(views) == 32
        and bool(np.all(unseen <= bottom))
        and bool(np.all(mean_err <= 2.0))
    )
    verdict(
        "texture fidelity",
        ok,
        f"mean re-dyed error {np.round(mean_err, 3)}/255 per channel (<=2/255), "
        f"{int(unseen.sum())} unseen vertices all on the unobserved bottom",
    )


# --------------------------------------------------------------------- 9


def test_pipeline_silhouette_matches_ground_truth(tmp_path):
    scene = sim.SceneDescription(
        solid=gt.Sphere(center=(0.0, 0.0, 40.0), radius=40.0),
        texture=sim.AxisGradientTexture(
            axis=2,
            low_mm=0.0,
            high_mm=80.0,
            color_low=(0.9, 0.7, 0.15),
            color_high=(0.15, 0.2, 0.7),
        ),
    )
    sim.generate_session(sim.default_rig(), scene, sim.NoiseModel(seed=0), tmp_path / "s")
    session = load_session(tmp_path / "s" / "session.json")
    truth = gt.load_ground_truth(tmp_path / "s" / "ground_truth.json")
    lo, hi = truth.solid.bounds()

    bundle = run_calibrate(session, out_dir=tmp_path / "out")
    result = run_reconstruct(session, bundle, out_dir=tmp_path / "out")
    report = run_evaluate(result.mesh, session, bundle, hi - lo, out_dir=tmp_path / "out")

    ok = report.iou_mean >= 0.99 and report.contour_distance_px_mean <= 1.0
    verdict(
        "silhouette overlay",
        ok,
        f"IoU {report.iou_mean:.4f} (>=0.99), "
        f"contour distance {report.contour_distance_px_mean:.3f} px (<=1)",
    )


# -------------------------------------------------------------------- 10


def test_cli_all_is_deterministic_within_budget(tmp_path):
    elapsed = []
    for run in ("a", "b"):
        start = time.perf_counter()
        rc = cli_main(["all", "--out", str(tmp_path / run), "--seed", "0"])
        elapsed.append(time.perf_counter() - start)
        assert rc == 0

    artifacts = [
        ("reconstruct", "mesh.ply"),
        ("reconstruct", "mesh_redyed.ply"),
        ("reconstruct", "merged.ply"),
        ("evaluate", "report.json"),
    ]
    identical = all(
        (tmp_path / "a" / stage / name).read_bytes()
        == (tmp_path / "b" / stage / name).read_bytes()
        for stage, name in artifacts
    )
    ok = identical and max(elapsed) < 300.0
    verdict(
        "determinism and budget",
        ok,
        f"two equal-seed runs bit-identical: {identical}, "
        f"slowest {max(elapsed):.0f}s (<300s)",
    )
