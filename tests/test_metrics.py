"""Distance metrics, PSNR, periodicity, and whole-fit evaluation."""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cycleflow.autodiff as ad
import cycleflow.field as field
import cycleflow.metrics as metrics
from cycleflow.errors import ConfigError, ValidationError
from cycleflow.flow import inverse_map
from cycleflow.metrics import (
    EvalReport,
    evaluate_fit,
    hausdorff,
    hausdorff_brute,
    periodicity_error,
    point_surface_distance,
    psnr,
    write_eval_csv,
    write_eval_summary,
)
from cycleflow.mesh import TriangleMesh, icosphere
from cycleflow.volume import DomainNormalizer, Volume4D, VolumeGrid, sample_trilinear

from conftest import make_cube_mesh


class ConstantField:
    dtype = np.float64

    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def __call__(self, x, t):
        return ad.constant(np.broadcast_to(self.v, x.value.shape).copy())


class UnusableModel:
    """A model whose every use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the model was used ({name})")

    def __call__(self, x, t):
        raise AssertionError("the model was called")


def flat_volume(n=12, spacing=2.0, n_frames=3, level=0.5):
    frames = np.full((n_frames, n, n, n), level, dtype=np.float32)
    return Volume4D(frames, (spacing,) * 3, (0.0,) * 3,
                    np.linspace(0.0, 1.0, n_frames))


# --------------------------------------------------- point-surface distance

def test_point_triangle_hand_cases():
    tri = TriangleMesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]])
    cases = [
        ([0.25, 0.25, 2.0], 2.0),            # foot inside the triangle
        ([2.0, 0.0, 0.0], 1.0),              # beyond a vertex
        ([1.0, 1.0, 0.0], 1.0 / math.sqrt(2.0)),  # beyond the hypotenuse
        ([0.0, 0.0, -3.0], 3.0),             # below a vertex
        ([0.5, 0.25, 0.0], 0.0),             # on the surface
    ]
    pts = np.array([c[0] for c in cases])
    want = np.array([c[1] for c in cases])
    assert np.allclose(point_surface_distance(pts, tri), want, atol=1e-12)


def test_point_cube_distances(cube_mesh):
    # Unit cube [0,1]^3: center is 0.5 from every face, outside points see
    # the nearest face or edge.
    pts = np.array([
        [0.5, 0.5, 0.5],
        [2.0, 0.5, 0.5],
        [1.5, 1.5, 0.5],
    ])
    want = np.array([0.5, 1.0, math.sqrt(0.5)])
    assert np.allclose(point_surface_distance(pts, cube_mesh), want, atol=1e-12)


# ---------------------------------------------------------------- hausdorff

def test_hausdorff_of_identical_meshes_is_zero(cube_mesh):
    assert hausdorff(cube_mesh, cube_mesh) == 0.0
    assert hausdorff_brute(cube_mesh, cube_mesh) == 0.0


def test_hausdorff_of_translated_cube():
    a = make_cube_mesh()
    b = make_cube_mesh(origin=(0.3, 0.0, 0.0))
    assert hausdorff(a, b) == pytest.approx(0.3, abs=1e-12)


def test_hausdorff_is_symmetric_in_arguments():
    a = icosphere(1.0, subdivisions=1)
    b = make_cube_mesh(side=3.0, origin=(-1.5, -1.5, -1.5))
    assert hausdorff(a, b) == hausdorff(b, a)


_CHAIN_CHILD = """
import sys
from cycleflow.cli import main
gen, fit, out = sys.argv[1:]
vol, ckpt = gen + "/volume.v4d", fit + "/model.ckpt"
for argv in (["gen", "--grid", "12", "--frames", "3", "--radius", "3",
              "--smoothing", "1", "--out-dir", gen],
             ["fit", vol, "--epochs", "2", "--points", "8", "--hidden-width", "8",
              "--out-dir", fit],
             ["deform", ckpt, gen + "/mesh_000.obj", "--times", "0.5",
              "--probes", "4", "--volume", vol, "--out-dir", out + "/deform"],
             ["eval", ckpt, vol, "--meshes", gen, "--out-dir", out + "/eval"]):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_no_command_loads_scipy(tmp_path):
    # gen, fit, deform and eval (three Hausdorff distances among its
    # metrics) in one fresh interpreter, which never imports scipy
    src = str(Path(metrics.__file__).resolve().parents[1])
    gen, fit = tmp_path / "gen", tmp_path / "fit"
    child = subprocess.run([sys.executable, "-c", _CHAIN_CHILD, gen, fit, tmp_path],
                           env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[]"
    summary = json.loads((tmp_path / "eval" / "eval_summary.json").read_text())
    assert math.isfinite(summary["max_hsd_mm"])


def test_accelerated_matches_brute_on_random_pairs(rng):
    # The indexed route prunes candidate triangles but must reproduce the
    # exhaustive result exactly.
    for _ in range(10):
        a = icosphere(rng.uniform(0.5, 2.0), center=rng.uniform(-1, 1, 3),
                      subdivisions=1)
        b = make_cube_mesh(side=rng.uniform(0.5, 3.0),
                           origin=rng.uniform(-2, 1, 3))
        assert hausdorff(a, b) == pytest.approx(hausdorff_brute(a, b), abs=1e-12)


def _smoothly_perturbed(mesh, center, seed, amp=1.0):
    """Copy of a sphere mesh with each vertex moved along its radius by a
    smooth, seeded function of direction."""
    rng = np.random.default_rng(seed)
    n = mesh.vertices - center
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    k = rng.uniform(1.0, 4.0, (3, 3))
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    bump = amp * np.sin(n @ k + phase).sum(axis=1) / 3.0
    return TriangleMesh(mesh.vertices + bump[:, None] * n, mesh.faces.copy())


def _plane_grid(n, side, z):
    """n x n squares of the plane z, split into 2 n^2 triangles."""
    g = np.linspace(0.0, side, n + 1)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=1)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    q = (i * (n + 1) + j).ravel()
    faces = np.concatenate([np.stack([q, q + n + 1, q + n + 2], axis=1),
                            np.stack([q, q + n + 2, q + 1], axis=1)])
    return TriangleMesh(verts, faces)


def _acceptance_pair():
    center = np.array([24.0, 24.0, 24.0])
    a = icosphere(19.0, center=center, subdivisions=4)
    assert a.vertices.shape[0] == 2562
    return a, _smoothly_perturbed(a, center, seed=3)


def _far_apart_pair():
    # Seen from 1000 mm above a 10 mm plane of 288 triangles, every centroid
    # lies within 0.07 mm of the nearest surface point, inside the 0.62 mm
    # corner reach, so the ball of every vertex holds all triangles; 642
    # vertices make several ball blocks, each of several pair blocks.
    return (icosphere(5.0, center=(5.0, 5.0, 1000.0), subdivisions=3),
            _plane_grid(12, 10.0, 0.0))


def _one_triangle_pair():
    # one triangle: its centroid is every vertex's nearest, and every ball
    # query returns it alone
    return (icosphere(1.0, center=(0.2, 0.1, 0.5), subdivisions=1),
            TriangleMesh([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.5, 0.0]],
                         [[0, 1, 2]]))


def _zero_area_pair():
    # a collinear needle and a triangle collapsed to one point stick out of
    # the cube; both are the nearest triangle for part of the sphere
    cube = make_cube_mesh()
    extra = np.array([[1.5, 0.5, 0.5], [2.0, 0.5, 0.5], [2.5, 0.5, 0.5],
                      [0.5, 0.5, 2.0], [0.5, 0.5, 2.0], [0.5, 0.5, 2.0]])
    b = TriangleMesh(np.concatenate([cube.vertices, extra]),
                     np.concatenate([cube.faces, [[8, 9, 10], [11, 12, 13]]]))
    return icosphere(2.0, center=(0.5, 0.5, 0.5), subdivisions=2), b


def _mixed_size_pair():
    # the corner (0,0,0) of triangle a is 1 mm below the large triangle of
    # b, but the ten small triangles of b, lying in the plane of a about
    # 4 mm away, have the nearer centroids; only the ball query finds the
    # large one, and the small ones, touching a, keep b-to-a at 1 mm
    corners = np.array([[0.0, 0.0, 0.0], [200.0, 0.0, 0.0], [0.0, 200.0, 0.0]])
    small = [[3.0 + 0.5 * i, 3.0, 0.0] + np.array(corner) for i in range(10)
             for corner in ([0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.3, 0.0])]
    b = TriangleMesh(np.concatenate([corners + [0.0, 0.0, 1.0], small]),
                     np.arange(33).reshape(11, 3))
    return TriangleMesh(corners, [[0, 1, 2]]), b


def _sliver_fan_pair():
    # b fans 24 slivers out of the origin, 30 and 1 mm long in turn; a is a
    # disc 0.5 mm above it with an inner ring of radius 3 mm.  From each
    # inner-ring vertex the nearest centroid is a 1 mm sliver's, whose
    # surface is 2 mm away, while a 30 mm sliver passes within 1 mm: the
    # maximum comes from a triangle the ball query alone finds
    ang = np.arange(24) * (2.0 * math.pi / 24)
    u = np.stack([np.cos(ang), np.sin(ang), np.zeros(24)], axis=1)
    side = 0.05 * np.stack([-u[:, 1], u[:, 0], np.zeros(24)], axis=1)
    tip = np.where(np.arange(24) % 2 == 0, 30.0, 1.0)[:, None] * u
    b = TriangleMesh(np.concatenate([[[0.0, 0.0, 0.0]], tip + side, tip - side]),
                     [[0, 1 + i, 25 + i] for i in range(24)])
    # a: centre 0, inner ring 1-24, rim 25-36 above the long slivers' ends
    faces = [[0, 1 + i, 1 + (i + 1) % 24] for i in range(24)]
    for j in range(12):
        i0, i1, i2 = 1 + 2 * j, 2 + 2 * j, 1 + (2 * j + 2) % 24
        r0, r1 = 25 + j, 25 + (j + 1) % 12
        faces += [[i0, r0, i1], [i1, r0, r1], [i1, r1, i2]]
    lift = [0.0, 0.0, 0.5]
    a = TriangleMesh(np.concatenate([[lift], 3.0 * u + lift, 30.0 * u[::2] + lift]),
                     faces)
    tri = b.vertices[b.faces]
    sq = metrics._point_triangle_sq(a.vertices[:, None], tri[None])
    near = ((a.vertices[:, None] - tri.mean(axis=1)) ** 2).sum(axis=2).argmin(axis=1)
    assert (sq[np.arange(len(sq)), near] > 4.0 * sq.min(axis=1)).sum() >= 24
    return a, b


@pytest.mark.parametrize("make_pair", [_acceptance_pair, _far_apart_pair,
                                       _one_triangle_pair, _zero_area_pair,
                                       _mixed_size_pair, _sliver_fan_pair],
                         ids=["acceptance-scale", "far-apart", "one-triangle",
                              "zero-area-triangle", "mixed-size-triangles",
                              "sliver-fan"])
def test_accelerated_matches_brute_on_edge_cases(make_pair):
    a, b = make_pair()
    assert hausdorff(a, b) == hausdorff_brute(a, b)


@pytest.mark.parametrize("seed,amp", [(0, 0.1), (1, 1.0), (2, 3.0), (4, 0.01)])
def test_early_exit_equals_brute_on_perturbed_spheres(seed, amp):
    # the early exit skips vertices by their upper bounds; the result must
    # still be the exhaustive maximum, bit for bit, in both directions
    center = np.array([24.0, 24.0, 24.0])
    a = icosphere(19.0, center=center, subdivisions=3)
    b = _smoothly_perturbed(a, center, seed=seed, amp=amp)
    assert hausdorff(a, b) == hausdorff_brute(a, b)
    assert metrics._directed_hausdorff_indexed(b, a) == \
        metrics._directed_hausdorff_brute(b, a)


def _counting_kernel(monkeypatch):
    """Patch the point-triangle kernel to record its pair count per call."""
    pairs = []
    kernel = metrics._point_triangle_sq

    def counting_kernel(p, tri):
        pairs.append(math.prod(np.broadcast_shapes(p.shape[:-1], tri.shape[:-2])))
        return kernel(p, tri)

    monkeypatch.setattr(metrics, "_point_triangle_sq", counting_kernel)
    return pairs


def test_collapsed_mesh_refines_a_bounded_number_of_pairs(monkeypatch):
    # a sphere scaled to a point puts every centroid in every ball query;
    # without the early exit that is V*F kernel pairs per direction
    sphere = icosphere(1.0)
    dot = TriangleMesh(sphere.vertices * 1e-300, sphere.faces)
    n_verts, n_faces = dot.vertices.shape[0], dot.faces.shape[0]
    pairs = _counting_kernel(monkeypatch)
    assert hausdorff(dot, dot) == 0.0
    # at most the nearest-centroid pass and one ball block per direction
    assert sum(pairs) <= 2 * (n_verts + metrics._BALL_BLOCK * n_faces)
    assert sum(pairs) < n_verts * n_faces / 8


def test_acceptance_pair_refines_one_block_per_direction(monkeypatch):
    # the bound pass takes one pair per vertex; one refined block of
    # _BALL_BLOCK vertices has about 7 candidates within reach per vertex,
    # so a second block per direction would pass the 10 per vertex allowed
    a, b = _acceptance_pair()
    n_verts = a.vertices.shape[0]
    pairs = _counting_kernel(monkeypatch)
    hausdorff(a, b)
    assert sum(pairs) <= 2 * (n_verts + metrics._BALL_BLOCK * 10)


def _directed_pairs_match_brute(a, b):
    for x, y in ((a, b), (b, a)):
        assert metrics._directed_hausdorff_indexed(x, y) == \
            metrics._directed_hausdorff_brute(x, y)


def _flat_pair():
    # a plane has zero extent along z; a sphere cuts through it
    return _plane_grid(6, 6.0, 0.0), icosphere(2.0, center=(3.1, 2.9, 0.4),
                                               subdivisions=2)


def _coincident_centroids_pair(rng):
    # every triangle of b is (p, q, -(p + q)): all centroids are the origin
    p, q = rng.normal(size=(2, 12, 3))
    verts = np.stack([p, q, -(p + q)], axis=1).reshape(-1, 3)
    b = TriangleMesh(verts, np.arange(36).reshape(12, 3))
    assert not b.vertices[b.faces].mean(axis=1).any()
    return icosphere(1.5, center=(0.2, -0.1, 0.3), subdivisions=2), b


def _cell_boundary_pair():
    # a's vertices lie on the faces and corners of the box around b's
    # centroids, where the grid's first cells begin and its cell indices
    # are clipped, and on a lattice 1 mm above b from the box's corner
    b = _plane_grid(8, 8.0, 0.0)
    lo = b.vertices[b.faces].mean(axis=1).min(axis=0)
    a = make_cube_mesh(side=8.0 - 2.0 * lo[0], origin=(lo[0], lo[1], -1.0))
    lattice = _plane_grid(4, 8.0, 1.0).vertices + [lo[0], lo[1], 0.0]
    return TriangleMesh(np.concatenate([a.vertices, lattice]), a.faces), b


def _tiny_triangles(centers, size=0.05):
    """One small horizontal triangle centred on each point: vertices, faces."""
    corners = size * np.array([[1.0, 0.0, 0.0], [-0.5, 1.0, 0.0], [-0.5, -1.0, 0.0]])
    verts = (np.asarray(centers, dtype=np.float64)[:, None, :] + corners).reshape(-1, 3)
    return verts, np.arange(len(verts)).reshape(-1, 3)


def _loose_bounds_pair():
    # a is a strip of _BALL_BLOCK vertices 1 mm above a huge triangle of b,
    # each with a tiny triangle of b 1.5 mm above it: the nearest centroid,
    # so its bound is loose.  a's last vertex, 1.2 mm from both the huge
    # triangle and its own tiny one, has a tight bound and the largest
    # distance; it heads the second block, which the early exit must refine
    # although the first block's distances end at 1 mm
    n = metrics._BALL_BLOCK // 2
    strip = np.stack([np.repeat(np.arange(n, dtype=np.float64), 2),
                      np.tile([0.0, 1.0], n), np.ones(2 * n)], axis=1)
    q = 2 * np.arange(n - 1)[:, None]
    a = TriangleMesh(np.concatenate([strip, [[0.5, 3.0, 1.2]]]),
                     np.concatenate([q + [0, 2, 3], q + [0, 3, 1]]))
    tiny, tiny_faces = _tiny_triangles(np.concatenate([strip + [0.0, 0.0, 1.5],
                                                       [[0.5, 3.0, 2.4]]]))
    huge = [[-500.0, -500.0, 0.0], [1500.0, -500.0, 0.0], [-500.0, 1500.0, 0.0]]
    b = TriangleMesh(np.concatenate([tiny, huge]),
                     np.concatenate([tiny_faces, [len(tiny) + np.arange(3)]]))
    return a, b


def _corner_at_reach_pair():
    # b: an equilateral triangle whose corners are all r_max = 10 mm from its
    # centroid, and a tiny triangle 1.001 mm above a's vertex p, which lies
    # 1 mm beyond a corner.  p's bound is 1.001 mm; its nearest triangle,
    # the big one, has its centroid 11 mm away: inside the reach of 11.001
    # mm by under 0.01%
    ang = np.radians([0.0, 120.0, 240.0])
    big = 10.0 * np.stack([np.cos(ang), np.sin(ang), np.zeros(3)], axis=1)
    tiny, tiny_faces = _tiny_triangles([[11.0, 0.0, 1.001]])
    b = TriangleMesh(np.concatenate([big, tiny]), [[0, 1, 2], *(tiny_faces + 3)])
    return TriangleMesh(np.concatenate([[[11.0, 0.0, 0.0]], big[1:]]), [[0, 1, 2]]), b


def _subnormal_pair():
    # spheres of radius 1e-310 and 3e-310 mm: subnormal coordinates, whose
    # extents and squares lose their precision or underflow
    a, b = icosphere(1.0, subdivisions=2), icosphere(1.0, subdivisions=1)
    return (TriangleMesh(a.vertices * 1e-310, a.faces),
            TriangleMesh(b.vertices * 3e-310, b.faces))


@pytest.mark.parametrize("make_pair", [_flat_pair, _coincident_centroids_pair,
                                       _cell_boundary_pair, _loose_bounds_pair,
                                       _corner_at_reach_pair, _subnormal_pair],
                         ids=["flat", "coincident-centroids", "cell-boundaries",
                              "loose-bounds", "corner-at-reach", "subnormal"])
def test_indexed_equals_brute_on_degenerate_layouts(make_pair, rng):
    pair = make_pair(rng) if make_pair is _coincident_centroids_pair else make_pair()
    _directed_pairs_match_brute(*pair)


def test_ball_pairs_hold_every_centroid_at_reach():
    # centroids exactly one reach from their point, along x and along the
    # diagonal; the points step through every position within a cell, cell
    # boundaries included, in steps of 1/4096 of a cell
    n = 4096
    pts = np.zeros((n, 3))
    pts[:, 0] = np.arange(n) * (1.0 + 1.0 / n)
    centroids = np.concatenate([pts + [1.0, 0.0, 0.0], pts + 3 ** -0.5])
    owner, cand = metrics._ball_pairs(pts, np.ones(n), centroids)
    found = set(zip(owner.tolist(), cand.tolist()))
    assert all((i, i) in found and (i, n + i) in found for i in range(n))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 2 ** 16),
       st.one_of(st.floats(-6.0, 6.0), st.just(74.0)),
       st.floats(0.0, 0.5), st.floats(-5.0, 5.0))
def test_indexed_equals_brute_on_perturbed_spheres_at_any_scale(
        sub_a, sub_b, seed, log_scale, amp, where):
    # spheres from 1e-6 to 1e6 mm, or 1e74 mm at up to 5e74 mm from the
    # origin, so that coordinates come within 1e75 mm; random centres and
    # radial bumps
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    center = scale * where * rng.uniform(-1.0, 1.0, 3)
    a = _smoothly_perturbed(icosphere(scale, center=center, subdivisions=sub_a),
                            center, seed, amp * scale)
    other = center + scale * rng.uniform(-1.5, 1.5, 3)
    b = _smoothly_perturbed(icosphere(scale * rng.uniform(0.5, 2.0), center=other,
                                      subdivisions=sub_b), other, seed + 1,
                            amp * scale)
    assert np.abs(np.concatenate([a.vertices, b.vertices])).max() < metrics._MAX_MM
    _directed_pairs_match_brute(a, b)
    assert hausdorff(a, b) == hausdorff_brute(a, b)


def test_concentric_spheres_distance():
    inner = icosphere(10.0, subdivisions=3)
    outer = icosphere(12.0, subdivisions=3)
    assert hausdorff(inner, outer) == pytest.approx(2.0, rel=0.01)


def test_hausdorff_rejects_empty_mesh(cube_mesh):
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValidationError):
        hausdorff(empty, cube_mesh)
    with pytest.raises(ValidationError):
        hausdorff_brute(cube_mesh, empty)
    # vertices without faces have no surface to measure against
    no_faces = TriangleMesh(cube_mesh.vertices, np.zeros((0, 3), dtype=np.int64))
    for route in (hausdorff, hausdorff_brute):
        with pytest.raises(ValidationError):
            route(cube_mesh, no_faces)


# --------------------------------------------------------------------- psnr

def test_psnr_matches_formula():
    rng = np.random.default_rng(0)
    b = rng.uniform(0.2, 1.0, (6, 6, 6))
    a = b + 0.125
    want = 10.0 * math.log10(float(b.max()) ** 2 / 0.125 ** 2)
    assert psnr(a, b) == pytest.approx(want, abs=1e-12)


def test_psnr_of_float32_frames_holds_one_float64_array():
    # 48^3 float32 frames: the float64 squared difference (884 KB) is the
    # one whole-grid array, and the score is the closed form's, bit for bit
    rng = np.random.default_rng(2)
    b = rng.uniform(0.0, 1.0, (48, 48, 48)).astype(np.float32)
    a = (b + rng.normal(0.0, 0.05, b.shape)).astype(np.float32)
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    peak = float(b64.max())
    want = 10.0 * math.log10(peak * peak / float(np.mean((a64 - b64) ** 2)))
    del a64, b64
    tracemalloc.start()
    try:
        got = psnr(a, b)
        _, traced = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert traced < 1.5e6


def test_psnr_identical_is_infinite():
    b = np.full((4, 4), 0.75)
    assert psnr(b.copy(), b) == math.inf


def test_psnr_decreases_with_noise():
    rng = np.random.default_rng(1)
    b = rng.uniform(0.0, 1.0, (8, 8, 8))
    small = psnr(b + rng.normal(0, 0.01, b.shape), b)
    large = psnr(b + rng.normal(0, 0.1, b.shape), b)
    assert large < small


def test_psnr_input_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValidationError, match="peak"):
        psnr(np.zeros((2, 2)), np.zeros((2, 2)))


# -------------------------------------------------------------- periodicity

def test_periodicity_error_zero_for_still_field():
    norm = DomainNormalizer((-8.0,) * 3, (8.0,) * 3)
    err = periodicity_error(ConstantField([0.0, 0.0, 0.0]), norm, steps=4)
    assert err == 0.0


def test_periodicity_error_of_drifting_field_in_world_mm():
    # Constant drift of 0.25 normalized units/cycle * 8 mm half-extent.
    norm = DomainNormalizer((-8.0,) * 3, (8.0,) * 3)
    err = periodicity_error(ConstantField([0.25, 0.0, 0.0]), norm, steps=4)
    assert err == pytest.approx(2.0, abs=1e-12)


def test_periodicity_error_deterministic():
    norm = DomainNormalizer((-8.0,) * 3, (8.0,) * 3)
    model = ConstantField([0.1, -0.05, 0.0])
    a = periodicity_error(model, norm, steps=3)
    b = periodicity_error(model, norm, steps=3)
    assert a == b
    with pytest.raises(TypeError):  # the probe set is fixed
        periodicity_error(model, norm, steps=3, seed=42)


# ------------------------------------------------------------- evaluate_fit

def test_evaluate_fit_tracks_translating_cube():
    # Constant normalized drift 0.125 -> world drift 0.125 * 11 mm = 1.375 mm
    # per unit time on a [0,22] mm domain.  Ground-truth cubes placed at the
    # exact advected positions make every per-frame HSD zero and volumes equal.
    vol = flat_volume(n=12, spacing=2.0, n_frames=3)
    model = ConstantField([0.125, 0.0, 0.0])
    base = make_cube_mesh(side=4.0, origin=(6.0, 9.0, 9.0))
    drift = 0.125 * 11.0
    gt = [
        base,
        make_cube_mesh(side=4.0, origin=(6.0 + 0.5 * drift, 9.0, 9.0)),
        make_cube_mesh(side=4.0, origin=(6.0 + drift, 9.0, 9.0)),
    ]
    rep = evaluate_fit(model, vol, gt, with_psnr=True)
    assert np.allclose(rep.hsd_mm, 0.0, atol=1e-9)
    assert np.allclose(rep.volume_mm3, 64.0, rtol=1e-12)
    assert np.allclose(rep.gt_volume_mm3, 64.0, rtol=1e-12)
    # flat frames: the warp resamples a constant image, so PSNR is +inf
    assert np.all(np.isinf(rep.psnr_db))
    assert rep.periodicity_error_mm == pytest.approx(drift, abs=1e-12)
    assert rep.mean_hsd_mm == pytest.approx(0.0, abs=1e-9)


def test_evaluate_fit_handles_missing_gt_frames():
    vol = flat_volume(n=12, spacing=2.0, n_frames=3)
    base = make_cube_mesh(side=4.0, origin=(6.0, 9.0, 9.0))
    rep = evaluate_fit(ConstantField([0.0, 0.0, 0.0]), vol, [base, None, base],
                       with_psnr=False)
    assert math.isnan(rep.hsd_mm[1])
    assert math.isnan(rep.gt_volume_mm3[1])
    assert np.isfinite(rep.hsd_mm[[0, 2]]).all()
    assert rep.mean_hsd_mm == pytest.approx(0.0, abs=1e-12)
    assert np.isnan(rep.psnr_db).all()


def test_evaluate_fit_without_psnr_needs_only_the_grid():
    vol = flat_volume(n=12, spacing=2.0, n_frames=3)
    grid = VolumeGrid(vol.grid_shape, vol.spacing, vol.origin, vol.frame_times)
    base = make_cube_mesh(side=4.0, origin=(6.0, 9.0, 9.0))
    model = ConstantField([0.125, 0.0, 0.0])
    full, bare = (evaluate_fit(model, v, [base, None, base], with_psnr=False)
                  for v in (vol, grid))
    for name in ("frame_times", "hsd_mm", "psnr_db", "volume_mm3", "gt_volume_mm3"):
        assert np.array_equal(getattr(full, name), getattr(bare, name),
                              equal_nan=True), name
    assert full.periodicity_error_mm == bare.periodicity_error_mm
    # the PSNR asks for voxels the grid lacks: refused before the model runs
    with pytest.raises(ConfigError, match="with_psnr.*read_v4d"):
        evaluate_fit(UnusableModel(), grid, [base, None, base], with_psnr=True)


def test_evaluate_fit_refuses_a_grid_by_default_before_any_other_check():
    # with_psnr defaults to True; the refusal comes before the meshes are read
    vol = flat_volume(n=12, spacing=2.0, n_frames=3)
    grid = VolumeGrid(vol.grid_shape, vol.spacing, vol.origin, vol.frame_times)
    for meshes in ([None, None, None], []):
        with pytest.raises(ConfigError, match="with_psnr.*read_v4d"):
            evaluate_fit(UnusableModel(), grid, meshes)


# ------------------------------------------------------------- the PSNR warp

def _noise_volume(shape, seed=0):
    frames = np.random.default_rng(seed).uniform(0.0, 1.0, (3, *shape)).astype(np.float32)
    return Volume4D(frames, (1.0,) * 3, (0.0,) * 3, [0.0, 0.4, 1.0])


def _whole_grid_warp(model, volume, frame_index, steps_per_frame):
    """The warp as one inverse_map call on every voxel centre at once."""
    d, h, w = volume.grid_shape
    gz, gy, gx = np.meshgrid(*(np.linspace(-1.0, 1.0, k) for k in (d, h, w)),
                             indexing="ij")
    centres = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    src = inverse_map(model, centres, float(volume.frame_times[frame_index]),
                      steps=max(1, frame_index * steps_per_frame))
    return sample_trilinear(volume.frames[0], src).reshape(d, h, w).astype(np.float32)


# voxel counts on and around inverse_map's block edges (8192 rows, then 2, 3
# blocks), with the first blocks of 16383 and 24580 one row longer
@pytest.mark.parametrize("shape", [(7, 9, 11), (2, 45, 91), (8, 32, 32), (3, 43, 127),
                                   (16, 32, 32), (4, 5, 1229)],
                         ids=lambda s: f"{np.prod(s)}-voxels")
@pytest.mark.parametrize("frame_index,steps_per_frame", [(1, 1), (1, 2), (2, 1)],
                         ids=["1-step", "2-steps", "frame-2"])
def test_streamed_warp_equals_one_whole_grid_inverse_map(shape, frame_index,
                                                         steps_per_frame):
    model = field.init_weights(5, field.default_layer_sizes(2, 32), omega=6.0)
    volume = _noise_volume(shape)
    got = metrics._warped_first_frame(model, volume, frame_index, steps_per_frame)
    assert got.dtype == np.float32 and got.shape == shape
    assert np.array_equal(got, _whole_grid_warp(model, volume, frame_index,
                                                steps_per_frame))


def test_streamed_warp_of_a_48_grid_equals_the_whole_grid_warp():
    model = field.init_weights(7, field.default_layer_sizes(3, 128), omega=6.0)
    volume = _noise_volume((48, 48, 48))
    assert np.array_equal(metrics._warped_first_frame(model, volume, 1, 1),
                          _whole_grid_warp(model, volume, 1, 1))


def test_warp_of_a_64_grid_peaks_under_8_mb():
    # the warp holds one block's voxel centres, preimages and samples; the
    # whole grid's, in float64, would take 6.3 + 6.3 + 2.1 MB at 64^3
    model = field.init_weights(7, field.default_layer_sizes(3, 128), omega=6.0)
    volume = _noise_volume((64, 64, 64))
    tracemalloc.start()
    try:
        metrics._warped_first_frame(model, volume, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_evaluate_fit_validates_mesh_list():
    vol = flat_volume(n_frames=3)
    base = make_cube_mesh(side=4.0, origin=(6.0, 9.0, 9.0))
    with pytest.raises(ValidationError, match="per frame"):
        evaluate_fit(ConstantField([0, 0, 0]), vol, [base, base])
    with pytest.raises(ValidationError, match="frame-0"):
        evaluate_fit(ConstantField([0, 0, 0]), vol, [None, base, base])


def test_eval_report_summaries_with_all_nan():
    rep = EvalReport(np.array([0.0, 1.0]), np.array([math.nan, math.nan]),
                     np.array([math.nan, math.nan]), np.zeros(2), np.zeros(2),
                     0.0)
    assert math.isnan(rep.mean_hsd_mm)
    assert math.isnan(rep.max_hsd_mm)


# -------------------------------------------------------------------- files

def test_eval_csv_and_summary(tmp_path):
    vol = flat_volume(n=12, spacing=2.0, n_frames=3)
    base = make_cube_mesh(side=4.0, origin=(6.0, 9.0, 9.0))
    rep = evaluate_fit(ConstantField([0.125, 0.0, 0.0]), vol,
                       [base, None, None], with_psnr=True)
    csv_path = tmp_path / "eval.csv"
    write_eval_csv(rep, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "frame,t,hsd_mm,psnr_db,volume_mm3,gt_volume_mm3"
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert float(cells[1]) == 0.0
    assert float(cells[4]) == pytest.approx(64.0, rel=1e-12)

    json_path = tmp_path / "eval.json"
    write_eval_summary(rep, json_path)
    data = json.loads(json_path.read_text())
    assert data["frames"] == 3
    assert data["periodicity_error_mm"] == rep.periodicity_error_mm
    # +inf PSNR survives JSON round trip as its repr string
    assert data["mean_psnr_db"] == "inf" or data["mean_psnr_db"] is None
