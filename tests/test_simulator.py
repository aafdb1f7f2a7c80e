import numpy as np
import pytest

from turnscan import errors, fileio
from turnscan import simulator as sim
from turnscan import truth as gt
from turnscan.calibration import estimate_pose_pnp, estimate_scale_scene, fit_plane_ransac
from turnscan.geometry import PointCloud, RigidTransform, backproject, compose, invert, pixel_rays
from turnscan.session import load_session


def box_surface_distance(pts, lo, hi):
    outside = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    d_out = np.linalg.norm(outside, axis=1)
    inside_gap = np.minimum(pts - lo, hi - pts).min(axis=1)
    return np.where(d_out > 0, d_out, np.maximum(inside_gap, 0.0))


def single_arm_rig(position, target):
    rig = sim.default_rig()
    return sim.RigConfig(
        depth_camera=rig.depth_camera,
        rgb_camera=rig.rgb_camera,
        t_relative=RigidTransform(np.eye(3), np.zeros(3)),
        arm_poses=(sim.look_at(position, target),),
    )


def test_sphere_on_axis_center_depth():
    position = np.array([0.0, -400.0, 300.0])
    center = np.array([0.0, 0.0, 60.0])
    rig = single_arm_rig(position, center)
    scene = sim.SceneDescription(
        gt.Sphere(center=tuple(center), radius=40.0),
        sim.AxisGradientTexture(axis=2, low_mm=0.0, high_mm=100.0),
    )
    depth, _, _, _ = sim.render_scene(rig, scene, 0, 0, sim.NoiseModel())
    cam = rig.depth_camera
    expected = np.linalg.norm(position - center) - 40.0
    assert abs(depth.values[int(cam.cy), int(cam.cx)] - expected) < 1e-9


def test_corner_pnp_loop_closure():
    rig = sim.default_rig()
    scene = sim.default_scene()
    for angle, arm in [(0, 0), (5, 1), (11, 0)]:
        _, _, corners, poses = sim.render_scene(rig, scene, angle, arm, sim.NoiseModel())
        for cs, pose, cam in [
            (corners.depth, poses.ref_to_depth, rig.depth_camera),
            (corners.rgb, poses.ref_to_rgb, rig.rgb_camera),
        ]:
            assert len(cs) >= 20
            est = estimate_pose_pnp(cam, cs)
            assert np.max(np.abs(est.rotation - pose.rotation)) < 1e-6
            assert np.max(np.abs(est.translation - pose.translation)) < 1e-6


def test_depth_bias_recovers_alpha():
    rig = sim.default_rig()
    scene = sim.default_scene()
    bias = 1.0 / 1.00223
    depth, _, _, poses = sim.render_scene(rig, scene, 3, 0, sim.NoiseModel(depth_bias=bias))
    cloud = backproject(rig.depth_camera, depth)
    ref_pts = invert(poses.ref_to_depth).apply(cloud.positions)
    plane, _ = fit_plane_ransac(PointCloud(ref_pts), 0.3, 200, 0)
    origin = invert(poses.ref_to_depth).translation
    alpha = estimate_scale_scene(plane, origin)
    assert abs(alpha - 1.00223) < 1e-6
    # the biased table maps to a parallel plane lifted by (1 - b) x camera height;
    # box-foot points inside the inlier band nudge the refit a few microns
    assert abs(abs(plane.offset) - (1.0 - bias) * origin[2]) < 1e-4


def test_backprojection_lands_on_surface():
    rig = sim.default_rig()
    scene = sim.default_scene()
    lo, hi = scene.solid.bounds()
    for flipped in (False, True):
        oriented = sim.SceneDescription(scene.solid, scene.texture, flipped=flipped)
        depth, _, _, poses = sim.render_scene(rig, oriented, 7, 1, sim.NoiseModel())
        cloud = backproject(rig.depth_camera, depth)
        ref_pts = invert(poses.ref_to_depth).apply(cloud.positions)
        solid_pts = gt.flip_transform(scene.solid).apply(ref_pts) if flipped else ref_pts
        off_surface = np.minimum(
            box_surface_distance(solid_pts, lo, hi), np.abs(ref_pts[:, 2])
        )
        assert np.max(off_surface) < 1e-6


def test_rigid_mount_keeps_relative_extrinsic_exact():
    rig = sim.default_rig()
    scene = sim.default_scene()
    noise = sim.NoiseModel(pose_jitter_deg=0.4, pose_jitter_mm=1.0, seed=11)
    for angle in (0, 9):
        _, _, _, poses = sim.render_scene(rig, scene, angle, 1, noise)
        t_rel = compose(poses.ref_to_depth, invert(poses.ref_to_rgb))
        assert np.max(np.abs(t_rel.rotation - rig.t_relative.rotation)) < 1e-12
        assert np.max(np.abs(t_rel.translation - rig.t_relative.translation)) < 1e-9


def test_render_deterministic_per_scene():
    rig = sim.default_rig()
    scene = sim.default_scene()
    noise = sim.NoiseModel(depth_sigma_mm=0.2, pose_jitter_deg=0.1, pose_jitter_mm=0.2, seed=5)
    d1, i1, c1, p1 = sim.render_scene(rig, scene, 4, 1, noise)
    d2, i2, c2, p2 = sim.render_scene(rig, scene, 4, 1, noise)
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(i1.pixels, i2.pixels)
    assert np.array_equal(c1.depth.image_points, c2.depth.image_points)
    assert np.array_equal(p1.ref_to_depth.translation, p2.ref_to_depth.translation)
    # a different schedule slot draws from a different stream
    d3, _, _, _ = sim.render_scene(rig, scene, 5, 1, noise)
    assert not np.array_equal(d1.values, d3.values)


def test_schedule_index_out_of_range():
    rig = sim.default_rig()
    scene = sim.default_scene()
    with pytest.raises(errors.IndexOutOfRange):
        sim.render_scene(rig, scene, 16, 0, sim.NoiseModel())
    with pytest.raises(errors.IndexOutOfRange):
        sim.render_scene(rig, scene, -1, 0, sim.NoiseModel())
    with pytest.raises(errors.IndexOutOfRange):
        sim.render_scene(rig, scene, 0, 2, sim.NoiseModel())


def test_rig_validation():
    rig = sim.default_rig()
    with pytest.raises(errors.ValidationError):
        sim.RigConfig(
            depth_camera=rig.depth_camera,
            rgb_camera=rig.rgb_camera,
            t_relative=rig.t_relative,
            arm_poses=rig.arm_poses,
            angles=0,
        )
    with pytest.raises(errors.ValidationError):
        sim.RigConfig(
            depth_camera=rig.depth_camera,
            rgb_camera=rig.rgb_camera,
            t_relative=rig.t_relative,
            arm_poses=rig.arm_poses,
            angle_step_deg=30.0,
            angles=16,
        )
    with pytest.raises(errors.ValidationError):
        sim.RigConfig(
            depth_camera=rig.depth_camera,
            rgb_camera=rig.rgb_camera,
            t_relative=rig.t_relative,
            arm_poses=(),
        )


def test_noise_validation():
    with pytest.raises(errors.ValidationError):
        sim.NoiseModel(depth_bias=0.0)
    with pytest.raises(errors.ValidationError):
        sim.NoiseModel(depth_sigma_mm=-0.1)
    with pytest.raises(errors.ValidationError):
        sim.NoiseModel(dropout_prob=1.0)
    with pytest.raises(errors.ValidationError):
        sim.NoiseModel(pose_jitter_deg=-1.0)


def test_scene_validation():
    texture = sim.CheckerTexture(pitch_mm=20.0)
    with pytest.raises(errors.ValidationError):
        sim.SceneDescription(gt.Box(center=(290.0, 0.0, 40.0), size=(60.0, 60.0, 80.0)), texture)
    with pytest.raises(errors.ValidationError):
        sim.SceneDescription(gt.Sphere(center=(0.0, 0.0, 10.0), radius=40.0), texture)


def test_flip_transform_is_involution():
    solid = sim.default_scene().solid
    flip = gt.flip_transform(solid)
    twice = compose(flip, flip)
    assert np.max(np.abs(twice.rotation - np.eye(3))) < 1e-12
    assert np.max(np.abs(twice.translation)) < 1e-9
    lo, hi = solid.bounds()
    corners = np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
    flipped = flip.apply(corners)
    assert abs(np.min(flipped[:, 2])) < 1e-9
    assert abs(np.max(flipped[:, 2]) - (hi[2] - lo[2])) < 1e-9


def test_checker_and_gradient_textures():
    checker = sim.CheckerTexture(pitch_mm=10.0, color_a=(1.0, 0.0, 0.0), color_b=(0.0, 0.0, 1.0))
    pts = np.array([[1.0, 1.0, 1.0], [11.0, 1.0, 1.0], [11.0, 11.0, 1.0], [-1.0, 1.0, 1.0]])
    colors = checker.colors_at(pts)
    assert np.array_equal(colors[0], [1.0, 0.0, 0.0])
    assert np.array_equal(colors[1], [0.0, 0.0, 1.0])
    assert np.array_equal(colors[2], [1.0, 0.0, 0.0])
    assert np.array_equal(colors[3], [0.0, 0.0, 1.0])
    # at and below the table plane z = 0 the lowest layer continues
    below = checker.colors_at(np.array([[1.0, 1.0, 1e-13], [1.0, 1.0, -1e-13], [1.0, 1.0, -0.4]]))
    assert np.array_equal(below, np.tile([1.0, 0.0, 0.0], (3, 1)))

    grad = sim.AxisGradientTexture(axis=2, low_mm=0.0, high_mm=10.0, color_low=(0.0, 0.0, 0.0), color_high=(1.0, 1.0, 1.0))
    ramp = grad.colors_at(np.array([[0.0, 0.0, -5.0], [0.0, 0.0, 5.0], [0.0, 0.0, 25.0]]))
    assert np.array_equal(ramp[0], [0.0, 0.0, 0.0])
    assert np.allclose(ramp[1], 0.5)
    assert np.array_equal(ramp[2], [1.0, 1.0, 1.0])
    with pytest.raises(errors.ValidationError):
        sim.AxisGradientTexture(axis=3, low_mm=0.0, high_mm=1.0)


def test_primitive_hits_land_on_surface():
    rng = np.random.default_rng(17)
    box = gt.Box(center=(5.0, -3.0, 40.0), size=(50.0, 30.0, 80.0))
    sphere = gt.Sphere(center=(-10.0, 8.0, 50.0), radius=25.0)
    cyl = gt.Cylinder(center=(20.0, 15.0, 35.0), radius=18.0, height=70.0)
    union = gt.Union(parts=(box, sphere, cyl))
    origin = np.array([0.0, -300.0, 150.0])
    dirs = rng.normal(size=(4000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def cylinder_surface_distance(pts):
        c = np.array(cyl.center)
        radial = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
        z_off = np.abs(pts[:, 2] - c[2])
        on_side = np.abs(radial - cyl.radius)
        on_side = np.where(z_off <= cyl.height / 2.0 + 1e-9, on_side, np.inf)
        on_cap = np.abs(z_off - cyl.height / 2.0)
        on_cap = np.where(radial <= cyl.radius + 1e-9, on_cap, np.inf)
        return np.minimum(on_side, on_cap)

    oracles = {
        id(box): lambda pts: box_surface_distance(pts, *box.bounds()),
        id(sphere): lambda pts: np.abs(
            np.linalg.norm(pts - np.array(sphere.center), axis=1) - sphere.radius
        ),
        id(cyl): cylinder_surface_distance,
    }
    for solid in (box, sphere, cyl):
        t = solid.ray_hits(origin, dirs)
        hits = np.isfinite(t)
        pts = origin + t[hits, None] * dirs[hits]
        assert np.max(oracles[id(solid)](pts)) < 1e-9
        assert np.any(hits) and not np.all(hits)

    # union picks the nearest part hit
    t_union = union.ray_hits(origin, dirs)
    t_each = np.minimum.reduce([p.ray_hits(origin, dirs) for p in union.parts])
    assert np.array_equal(t_union, t_each)


def test_occlusion_omits_covered_corners():
    rig = sim.default_rig()
    scene = sim.default_scene()
    _, _, corners, poses = sim.render_scene(rig, scene, 0, 0, sim.NoiseModel())
    full_grid = rig.chessboard_rows * rig.chessboard_cols
    assert 20 <= len(corners.depth) < full_grid
    # every reported corner really is unoccluded: re-cast its viewing ray
    origin = invert(poses.ref_to_depth).translation
    rays = corners.depth.object_points - origin
    t = scene.solid.ray_hits(origin, rays)
    assert np.all(t >= 1.0 - 1e-9)


def test_dropout_invalidates_fraction():
    rig = sim.default_rig()
    scene = sim.default_scene()
    clean, _, _, _ = sim.render_scene(rig, scene, 2, 0, sim.NoiseModel())
    dropped, _, _, _ = sim.render_scene(rig, scene, 2, 0, sim.NoiseModel(dropout_prob=0.4, seed=9))
    was_valid = clean.values > 0
    survived = dropped.values[was_valid] > 0
    rate = 1.0 - np.mean(survived)
    assert abs(rate - 0.4) < 0.02
    assert np.all(dropped.values[~was_valid] == -1.0)


def test_depth_noise_statistics():
    rig = sim.default_rig()
    scene = sim.default_scene()
    clean, _, _, _ = sim.render_scene(rig, scene, 2, 0, sim.NoiseModel())
    noisy, _, _, _ = sim.render_scene(rig, scene, 2, 0, sim.NoiseModel(depth_sigma_mm=0.5, seed=13))
    mask = clean.values > 0
    residual = noisy.values[mask] - clean.values[mask]
    assert abs(np.std(residual) - 0.5) < 0.02
    assert abs(np.mean(residual)) < 0.02


def test_flipped_box_bottom_renders_the_lowest_checker_layer():
    """The bottom face lies on the z = 0 lattice plane; flipped views must
    paint it with the layer just inside the box, whatever the rounding of
    each hit point."""
    rig = sim.default_rig()
    scene = sim.default_scene()
    flipped = sim.SceneDescription(scene.solid, scene.texture, flipped=True)
    _, image, _, poses = sim.render_scene(rig, flipped, 0, 0, sim.NoiseModel())

    cam_to_ref = invert(poses.ref_to_rgb)
    flip = gt.flip_transform(scene.solid)
    origin = flip.apply(cam_to_ref.translation)
    dirs = pixel_rays(rig.rgb_camera) @ cam_to_ref.rotation.T @ flip.rotation.T
    t = scene.solid.ray_hits(origin, dirs)
    hit = np.isfinite(t)
    pts = origin + t[hit, None] * dirs[hit]  # upright object frame
    pitch = scene.texture.pitch_mm
    off_lines = np.all(np.abs(pts[:, :2] / pitch - np.rint(pts[:, :2] / pitch)) * pitch > 0.5, axis=1)
    bottom = (np.abs(pts[:, 2]) < 1e-6) & off_lines
    assert bottom.sum() > 1000

    inside = pts[bottom] + np.array([0.0, 0.0, 1.0])
    expected = np.rint(scene.texture.colors_at(inside) * 255.0)
    rendered = image.pixels.reshape(-1, 3)[hit][bottom]
    assert np.all(np.abs(rendered - expected) <= 1)


def test_rgb_render_shows_both_checker_colors():
    rig = sim.default_rig()
    scene = sim.default_scene()
    _, image, _, _ = sim.render_scene(rig, scene, 0, 0, sim.NoiseModel())
    flat = image.pixels.reshape(-1, 3)
    color_a = np.rint(np.array(scene.texture.color_a) * 255.0)
    color_b = np.rint(np.array(scene.texture.color_b) * 255.0)
    assert np.any(np.all(np.abs(flat - color_a) <= 1, axis=1))
    assert np.any(np.all(np.abs(flat - color_b) <= 1, axis=1))


def test_generate_session_writes_full_schedule(tmp_path):
    rig = sim.default_rig()
    scene = sim.default_scene()
    session = sim.generate_session(rig, scene, sim.NoiseModel(seed=1), tmp_path / "out")
    assert len(session.scenes) == 64
    for rec in session.scenes[:4] + session.scenes[-4:]:
        assert session.resolve(rec.depth_path).exists()
        assert session.resolve(rec.rgb_path).exists()
        assert session.resolve(rec.corners_depth_path).exists()
        assert session.resolve(rec.corners_rgb_path).exists()
    loaded = load_session(tmp_path / "out" / "session.json")
    assert len(loaded.scenes) == 64
    assert loaded.depth_camera == rig.depth_camera
    assert loaded.bounding_box.height_mm > 85.0
    truth = gt.load_ground_truth(tmp_path / "out" / "ground_truth.json")
    assert len(truth.poses) == 64
    assert truth.alpha_true == 1.0
    # sidecar poses match a fresh render of the same scene
    _, _, _, poses = sim.render_scene(rig, scene, 0, 0, sim.NoiseModel(seed=1))
    assert np.allclose(truth.poses[0].ref_to_depth.rotation, poses.ref_to_depth.rotation)
    depth = fileio.read_depth_pfm(session.resolve(session.scenes[0].depth_path))
    assert depth.width == rig.depth_camera.width


def test_generate_session_bit_identical(tmp_path):
    rig = sim.default_rig()
    small = sim.RigConfig(
        depth_camera=rig.depth_camera,
        rgb_camera=rig.rgb_camera,
        t_relative=rig.t_relative,
        arm_poses=rig.arm_poses,
        angle_step_deg=90.0,
        angles=4,
    )
    scene = sim.default_scene()
    noise = sim.NoiseModel(depth_sigma_mm=0.1, pose_jitter_deg=0.05, pose_jitter_mm=0.1, seed=21)
    a = sim.generate_session(small, scene, noise, tmp_path / "a")
    b = sim.generate_session(small, scene, noise, tmp_path / "b")
    assert len(a.scenes) == 16
    for ra, rb in zip(a.scenes, b.scenes):
        assert (tmp_path / "a" / ra.depth_path).read_bytes() == (tmp_path / "b" / rb.depth_path).read_bytes()
        assert (tmp_path / "a" / ra.rgb_path).read_bytes() == (tmp_path / "b" / rb.rgb_path).read_bytes()
    assert (tmp_path / "a" / "session.json").read_bytes() == (tmp_path / "b" / "session.json").read_bytes()
    assert (tmp_path / "a" / "ground_truth.json").read_bytes() == (tmp_path / "b" / "ground_truth.json").read_bytes()


def test_session_manifest_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    fileio.write_json_file(path, {"format": "something else"})
    with pytest.raises(errors.ValidationError):
        load_session(path)
    fileio.write_json_file(path, {"format": "turnscan-session v1", "angles": 16})
    with pytest.raises(errors.ValidationError):
        load_session(path)


def test_solid_payload_roundtrip():
    solid = gt.Union(
        parts=(
            gt.Box(center=(0.0, 0.0, 20.0), size=(40.0, 30.0, 40.0)),
            gt.Sphere(center=(0.0, 0.0, 50.0), radius=15.0),
            gt.Cylinder(center=(10.0, 0.0, 25.0), radius=8.0, height=50.0),
        )
    )
    back = gt.solid_from_payload(gt.solid_to_payload(solid))
    assert back == solid
    with pytest.raises(errors.ValidationError):
        gt.solid_from_payload({"kind": "torus"})
