import numpy as np
import pytest

from turnscan import errors, fileio
from turnscan.calibration import CorrespondenceSet
from turnscan.geometry import DepthMap, PointCloud, RgbImage, RigidTransform, TriangleMesh
from turnscan.geometry import rotation_z


def random_cloud(rng, n=200, with_colors=True, with_normals=True):
    positions = rng.uniform(-100.0, 100.0, size=(n, 3))
    colors = rng.integers(0, 256, size=(n, 3)) / 255.0 if with_colors else None
    normals = None
    if with_normals:
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(positions, colors=colors, normals=normals)


def test_cloud_ply_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(5):
        cloud = random_cloud(
            rng, n=int(rng.integers(1, 400)), with_colors=trial % 2 == 0, with_normals=trial % 3 != 0
        )
        path = tmp_path / f"cloud_{trial}.ply"
        fileio.write_point_cloud(path, cloud)
        back = fileio.read_point_cloud(path)
        assert np.array_equal(back.positions, cloud.positions)
        if cloud.colors is None:
            assert back.colors is None
        else:
            assert np.array_equal(back.colors, cloud.colors)
        if cloud.normals is None:
            assert back.normals is None
        else:
            assert np.array_equal(back.normals, cloud.normals)


def test_empty_cloud_roundtrip(tmp_path):
    path = tmp_path / "empty.ply"
    fileio.write_point_cloud(path, PointCloud(np.zeros((0, 3))))
    assert len(fileio.read_point_cloud(path)) == 0


def test_mesh_ply_roundtrip(tmp_path):
    vertices = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    triangles = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 3]])
    colors = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    path = tmp_path / "mesh.ply"
    fileio.write_mesh(path, TriangleMesh(vertices, triangles, vertex_colors=colors))
    back = fileio.read_mesh(path)
    assert np.array_equal(back.vertices, vertices)
    assert np.array_equal(back.triangles, triangles)
    assert np.array_equal(back.vertex_colors, colors)


def write_mesh_with_nan_vertex(path):
    """A tetrahedron PLY whose first vertex x is NaN."""
    vertices = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    triangles = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 3]])
    fileio.write_mesh(path, TriangleMesh(vertices, triangles))
    data = bytearray(path.read_bytes())
    start = data.index(b"end_header\n") + len(b"end_header\n")
    data[start : start + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(data))


def test_mesh_with_non_finite_vertex_is_rejected(tmp_path):
    path = tmp_path / "nan.ply"
    write_mesh_with_nan_vertex(path)
    with pytest.raises(errors.ValidationError, match="non-finite"):
        fileio.read_mesh(path)
    with pytest.raises(errors.ValidationError, match="non-finite"):
        TriangleMesh(np.array([[0.0, 0.0, np.inf]]), np.zeros((0, 3), dtype=np.int64))


def test_mesh_file_rejected_as_cloud_and_vice_versa(tmp_path):
    cloud_path = tmp_path / "c.ply"
    mesh_path = tmp_path / "m.ply"
    fileio.write_point_cloud(cloud_path, PointCloud(np.zeros((3, 3))))
    fileio.write_mesh(
        mesh_path, TriangleMesh(np.eye(3) * 5.0, np.array([[0, 1, 2]]))
    )
    with pytest.raises(errors.ParseError):
        fileio.read_mesh(cloud_path)
    with pytest.raises(errors.ParseError):
        fileio.read_point_cloud(mesh_path)


def test_truncated_ply_header_reports_offset(tmp_path):
    path = tmp_path / "broken.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 10\n")
    with pytest.raises(errors.ParseError) as excinfo:
        fileio.read_point_cloud(path)
    assert "byte" in str(excinfo.value)


def test_truncated_ply_payload_reports_offset(tmp_path):
    path = tmp_path / "short.ply"
    cloud = PointCloud(np.arange(30.0).reshape(10, 3))
    fileio.write_point_cloud(path, cloud)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(errors.ParseError) as excinfo:
        fileio.read_point_cloud(path)
    assert "payload" in str(excinfo.value)


def test_ply_bad_magic(tmp_path):
    path = tmp_path / "notply.ply"
    path.write_bytes(b"OFF\n0 0 0\n")
    with pytest.raises(errors.ParseError):
        fileio.read_point_cloud(path)


def test_depth_pfm_roundtrip_preserves_invalid(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.uniform(100.0, 900.0, size=(24, 32))
    values[rng.random(values.shape) < 0.2] = -1.0
    depth = DepthMap(32, 24, values)
    path = tmp_path / "depth.pfm"
    fileio.write_depth_pfm(path, depth)
    back = fileio.read_depth_pfm(path)
    assert back.width == 32 and back.height == 24
    assert np.array_equal(back.values <= 0.0, values <= 0.0)
    assert np.all(back.values[values <= 0.0] == -1.0)
    # valid values survive at float32 precision, and a second trip is bit-exact
    assert np.allclose(back.values, np.where(values > 0, values, -1.0), atol=1e-3)
    fileio.write_depth_pfm(path, back)
    again = fileio.read_depth_pfm(path)
    assert np.array_equal(again.values, back.values)


def test_depth_pfm_truncated_payload(tmp_path):
    path = tmp_path / "short.pfm"
    fileio.write_depth_pfm(path, DepthMap(8, 8, np.full((8, 8), 55.0)))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(errors.ParseError):
        fileio.read_depth_pfm(path)


def test_depth_pfm_bad_magic(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
    with pytest.raises(errors.ParseError):
        fileio.read_depth_pfm(path)


def test_image_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    pixels = rng.integers(0, 256, size=(20, 30, 3)).astype(np.uint8)
    path = tmp_path / "img.ppm"
    fileio.write_image_ppm(path, RgbImage(30, 20, pixels))
    back = fileio.read_image_ppm(path)
    assert back.width == 30 and back.height == 20
    assert np.array_equal(back.pixels, pixels)


def test_image_ppm_rejects_other_depth(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
    with pytest.raises(errors.ParseError):
        fileio.read_image_ppm(path)


def test_corners_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    obj = np.column_stack([rng.uniform(-50, 50, (12, 2)), np.zeros(12)])
    img = rng.uniform(0, 640, (12, 2))
    path = tmp_path / "corners.txt"
    fileio.write_corners(path, CorrespondenceSet(obj, img))
    back = fileio.read_corners(path)
    assert np.array_equal(back.object_points, obj)
    assert np.array_equal(back.image_points, img)


def test_corners_empty_set(tmp_path):
    path = tmp_path / "none.txt"
    fileio.write_corners(path, CorrespondenceSet(np.zeros((0, 3)), np.zeros((0, 2))))
    assert len(fileio.read_corners(path)) == 0


def test_corners_bad_header_and_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("corners v2\n1 2 0 3 4\n")
    with pytest.raises(errors.ParseError):
        fileio.read_corners(path)
    path.write_text("pnp-corners v1\n1 2 0 3\n")
    with pytest.raises(errors.ParseError):
        fileio.read_corners(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_corners_reject_non_finite_coordinates(tmp_path, token):
    path = tmp_path / "corners.txt"
    head = "pnp-corners v1\n1 2 0 3 4\n"
    path.write_text(head + f"5 6 0 {token} 8\n")
    with pytest.raises(errors.ParseError) as excinfo:
        fileio.read_corners(path)
    assert excinfo.value.offset == len(head)
    assert excinfo.value.expected == "finite X Y Z u v"


def test_json_roundtrip_and_parse_error(tmp_path):
    path = tmp_path / "doc.json"
    fileio.write_json_file(path, {"b": [1, 2.5], "a": {"x": "y"}})
    assert fileio.read_json_file(path) == {"a": {"x": "y"}, "b": [1, 2.5]}
    path.write_text('{"a": 1,,}')
    with pytest.raises(errors.ParseError) as excinfo:
        fileio.read_json_file(path)
    assert "byte" in str(excinfo.value)
    path.write_bytes(b'{"a": "b\xffc"}')
    with pytest.raises(errors.ParseError) as excinfo:
        fileio.read_json_file(path)
    assert (excinfo.value.offset, excinfo.value.expected) == (8, "UTF-8")


def test_json_writer_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "doc.json"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(errors.IoFailure, match="doc.json"):
            fileio.write_json_file(path, {"a": [1.0, bad]})
    assert not path.exists()
    fileio.write_json_file(path, {"a": None})
    assert path.read_text() == '{\n  "a": null\n}\n'


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_json_reader_rejects_non_finite_numbers(tmp_path, token):
    path = tmp_path / "doc.json"
    head = '{"NaN Infinity": [1, 2.5e3, true, null, "x\\"y"], "b": '
    path.write_text(head + token + "}")
    with pytest.raises(errors.ParseError, match="doc.json") as excinfo:
        fileio.read_json_file(path)
    assert (excinfo.value.offset, excinfo.value.expected) == (len(head), "a finite number")


def test_pose_rows_roundtrip():
    pose = RigidTransform(rotation_z(0.4), np.array([1.5, -2.0, 7.25]))
    rows = fileio.pose_to_rows(pose)
    back = fileio.pose_from_rows(rows)
    assert np.array_equal(back.rotation, pose.rotation)
    assert np.array_equal(back.translation, pose.translation)
    rows[3] = [0.0, 0.0, 0.1, 1.0]
    with pytest.raises(errors.ValidationError):
        fileio.pose_from_rows(rows)


def test_missing_file_raises_io_failure(tmp_path):
    with pytest.raises(errors.IoFailure):
        fileio.read_point_cloud(tmp_path / "absent.ply")
    with pytest.raises(errors.IoFailure):
        fileio.read_json_file(tmp_path / "absent.json")
