"""Tests for the ground-truth module: the sidecar codec, the placed-solid
ray cast, and the rule that the pipeline does not load the simulator."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import turnscan
from turnscan import simulator as sim
from turnscan import truth as gt
from turnscan.errors import ValidationError
from turnscan.geometry import RigidTransform, invert, pixel_rays, rotation_z

PACKAGE = Path(turnscan.__file__).resolve().parent


def module_imports(path: Path) -> set[str]:
    """Dotted names of the turnscan modules a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative imports inside the package
                base = "turnscan" + (f".{node.module}" if node.module else "")
            else:
                base = node.module or ""
            found.add(base)
            found.update(f"{base}.{a.name}" for a in node.names)
    return {name for name in found if name.startswith("turnscan")}


def test_pipeline_import_leaves_the_simulator_unloaded():
    code = "import sys, turnscan.pipeline; sys.exit('turnscan.simulator' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_only_the_cli_imports_the_simulator():
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "turnscan.simulator" in module_imports(path)
    )
    assert importers == ["cli.py"]


def test_only_truth_casts_rays_into_a_solid():
    callers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "ray_hits"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert callers == ["truth.py"]


def l_union():
    return gt.Union(
        (
            gt.Box(center=(-20.0, 0.0, 40.0), size=(40.0, 70.0, 80.0)),
            gt.Box(center=(20.0, 0.0, 15.0), size=(40.0, 70.0, 30.0)),
        )
    )


def random_pose(rng) -> RigidTransform:
    return RigidTransform(rotation_z(rng.uniform(0.0, 6.0)), rng.normal(0.0, 100.0, 3))


@pytest.mark.parametrize("solid", [sim.default_scene().solid, l_union()], ids=["box", "l_union"])
def test_sidecar_round_trip(tmp_path, solid):
    rng = np.random.default_rng(2)
    truth = gt.GroundTruth(
        alpha_true=1.00223,
        t_relative=random_pose(rng),
        flip=gt.flip_transform(solid),
        solid=solid,
        poses=tuple(gt.ScenePoses(random_pose(rng), random_pose(rng)) for _ in range(5)),
    )
    path = tmp_path / "ground_truth.json"
    gt.save_ground_truth(path, truth)
    back = gt.load_ground_truth(path)

    assert back.alpha_true == truth.alpha_true
    assert back.solid == solid
    pairs = [(back.t_relative, truth.t_relative), (back.flip, truth.flip)]
    for got, want in zip(back.poses, truth.poses):
        pairs += [(got.ref_to_depth, want.ref_to_depth), (got.ref_to_rgb, want.ref_to_rgb)]
    for got, want in pairs:
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.translation, want.translation)
    gt.save_ground_truth(tmp_path / "again.json", back)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_placed_cast_of_a_flipped_box_matches_the_rendered_depth():
    # off-centre, so the flip moves the box to a different place
    rig = sim.default_rig()
    box = gt.Box(center=(10.0, -15.0, 30.0), size=(40.0, 50.0, 60.0))
    scene = sim.SceneDescription(box, sim.CheckerTexture(pitch_mm=20.0), flipped=True)
    depth, _, _, poses = sim.render_scene(rig, scene, 3, 0, sim.NoiseModel())

    cam_to_ref = invert(poses.ref_to_depth)
    dirs = pixel_rays(rig.depth_camera) @ cam_to_ref.rotation.T
    origin = cam_to_ref.translation
    flipped = gt.cast_placed(box, origin, dirs, gt.flip_transform(box))
    upright = gt.cast_placed(box, origin, dirs)
    hit = np.isfinite(flipped)

    assert hit.sum() > 1000
    assert not np.array_equal(hit, np.isfinite(upright))
    # the box stands on the table, so no table hit lies in front of it
    assert np.array_equal(depth.values.ravel()[hit], flipped[hit])


def test_solids_reject_malformed_fields():
    for bad in ("abc", (1.0, 2.0), (1.0, np.nan, 2.0), None):
        with pytest.raises(ValidationError):
            gt.Box(center=(0.0, 0.0, 10.0), size=bad)
        with pytest.raises(ValidationError):
            gt.Sphere(center=bad, radius=5.0)
    for bad in (0.0, -1.0, np.inf, "x"):
        with pytest.raises(ValidationError):
            gt.Cylinder(center=(0.0, 0.0, 10.0), radius=bad, height=20.0)
    with pytest.raises(ValidationError):
        gt.solid_from_payload([1, 2, 3])
