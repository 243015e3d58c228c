"""Triangle mesh container, closedness checks, volume, icosphere, OBJ I/O."""
import math

import numpy as np
import pytest

from cycleflow.errors import FormatError, ValidationError
from cycleflow.mesh import (
    TriangleMesh,
    boundary_edge_count,
    icosphere,
    mesh_volume,
    read_obj,
    write_obj,
)

from conftest import BAD_MESHES, make_cube_mesh


# ---------------------------------------------------------------- container

def test_container_casts_dtypes():
    m = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert m.vertices.dtype == np.float64
    assert m.faces.dtype == np.int64


def test_container_rejects_bad_vertex_shape():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 2)), np.zeros((1, 3), dtype=int))


def test_container_rejects_bad_face_shape():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2, 0]]))


def test_container_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, -1]]))


def test_container_rejects_degenerate_faces():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))


def test_copy_is_independent(cube_mesh):
    c = cube_mesh.copy()
    c.vertices[0, 0] += 99.0
    c.faces[0, 0] = 3
    assert cube_mesh.vertices[0, 0] != c.vertices[0, 0]
    assert cube_mesh.faces[0, 0] != c.faces[0, 0]


# ------------------------------------------------------------- closedness

def test_cube_is_closed(cube_mesh):
    assert boundary_edge_count(cube_mesh) == 0


def test_missing_face_leaves_three_boundary_edges(cube_mesh):
    opened = TriangleMesh(cube_mesh.vertices, cube_mesh.faces[:-1])
    assert boundary_edge_count(opened) == 3


# ----------------------------------------------------------------- volume

def test_cube_volume_exact():
    assert mesh_volume(make_cube_mesh(side=2.0)) == pytest.approx(8.0, abs=1e-12)


def test_volume_is_translation_invariant():
    a = mesh_volume(make_cube_mesh(side=1.5))
    b = mesh_volume(make_cube_mesh(side=1.5, origin=(100.0, -50.0, 7.0)))
    assert a == pytest.approx(b, rel=1e-12)


def test_inverted_orientation_gives_negative_volume(cube_mesh):
    flipped = TriangleMesh(cube_mesh.vertices, cube_mesh.faces[:, ::-1])
    assert mesh_volume(flipped) == pytest.approx(-1.0, abs=1e-12)


def test_open_mesh_volume_raises(cube_mesh):
    opened = TriangleMesh(cube_mesh.vertices, cube_mesh.faces[:-1])
    with pytest.raises(ValidationError, match="open mesh: 3 boundary edges"):
        mesh_volume(opened)


# -------------------------------------------------------------- icosphere

def test_icosphere_vertices_on_sphere():
    m = icosphere(7.5, center=(1.0, 2.0, 3.0), subdivisions=2)
    radii = np.linalg.norm(m.vertices - np.array([1.0, 2.0, 3.0]), axis=1)
    assert np.allclose(radii, 7.5, rtol=1e-12, atol=1e-12)


def test_icosphere_face_count_and_closed():
    for s in (0, 1, 2):
        m = icosphere(1.0, subdivisions=s)
        assert len(m.faces) == 20 * 4 ** s
        assert boundary_edge_count(m) == 0


def test_icosphere_volume_near_analytic():
    # Inscribed polyhedron: volume below (4/3)*pi*r^3 but within 2% at the
    # default refinement.
    r = 10.0
    v = mesh_volume(icosphere(r))
    exact = 4.0 / 3.0 * math.pi * r ** 3
    assert v < exact
    assert abs(v - exact) / exact < 0.02


def test_icosphere_rejects_bad_radius():
    with pytest.raises(ValueError):
        icosphere(0.0)
    with pytest.raises(ValueError):
        icosphere(-1.0)


# ------------------------------------------------------------------- OBJ

def test_obj_round_trip(tmp_path):
    m = icosphere(9.25, center=(0.5, -0.25, 1.0), subdivisions=1)
    path = tmp_path / "mesh.obj"
    write_obj(m, path)
    back = read_obj(path)
    assert np.array_equal(back.faces, m.faces)
    assert np.abs(back.vertices - m.vertices).max() < 1e-6


def test_obj_ignores_comments_and_foreign_records(tmp_path):
    path = tmp_path / "mixed.obj"
    path.write_text(
        "# comment\n"
        "o thing\n"
        "v 0 0 0\n"
        "vn 0 0 1\n"
        "v 1 0 0\n"
        "vt 0.5 0.5\n"
        "v 0 1 0\n"
        "\n"
        "f 1/1/1 2/2/1 3/3/1\n"
    )
    m = read_obj(path)
    assert m.vertices.shape == (3, 3)
    assert np.array_equal(m.faces, [[0, 1, 2]])


def test_obj_rejects_quad_face(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(FormatError, match=r"quad\.obj:5"):
        read_obj(path)


def test_obj_rejects_bad_vertex(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0\n")
    with pytest.raises(FormatError, match=r"bad\.obj:1"):
        read_obj(path)


def test_obj_rejects_nonnumeric_coordinate(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 zero\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(FormatError, match=r"bad\.obj:1"):
        read_obj(path)


def test_obj_rejects_nonpositive_face_index(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(FormatError, match="positive"):
        read_obj(path)


def test_obj_rejects_out_of_range_face_index(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(FormatError, match=r"bad\.obj:4.*out of range"):
        read_obj(path)


def test_obj_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# nothing here\n")
    with pytest.raises(FormatError, match="no geometry"):
        read_obj(path)


@pytest.mark.parametrize("case", sorted(BAD_MESHES))
def test_obj_rejects_malformed_file(tmp_path, case):
    path = tmp_path / "bad.obj"
    path.write_bytes(BAD_MESHES[case])
    with pytest.raises(FormatError):
        read_obj(path)
