import tracemalloc

import numpy as np
import pytest

import cycleflow.autodiff as ad
from cycleflow.errors import FormatError, ValidationError
from cycleflow.mesh import mesh_volume
import cycleflow.volume as volume_module
from cycleflow.volume import (DomainNormalizer, GrowthPattern, Volume4D,
                              VolumeGrid, gather_trilinear, make_sphere_series,
                              radius_at, read_v4d, read_v4d_grid,
                              sample_trilinear, write_v4d)
from conftest import (BAD_VOLUMES, HEADER_ONLY, dot, mean_square, rel_err,
                      rewrite_container)


def make_volume(n=3, d=4, h=5, w=6, seed=0):
    rng = np.random.default_rng(seed)
    frames = rng.uniform(0, 1, size=(n, d, h, w)).astype(np.float32)
    return Volume4D(frames, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
                    np.linspace(0, 1, n))


# --- container validation -------------------------------------------------


def test_volume_validation():
    frames = np.zeros((3, 4, 4, 4), dtype=np.float32)
    good_times = np.linspace(0, 1, 3)
    Volume4D(frames, (1, 1, 1), (0, 0, 0), good_times)
    with pytest.raises(ValidationError, match="increasing"):
        Volume4D(frames, (1, 1, 1), (0, 0, 0), [0.0, 0.5, 0.5])
    with pytest.raises(ValidationError, match="start at 0"):
        Volume4D(frames, (1, 1, 1), (0, 0, 0), [0.1, 0.5, 1.0])
    with pytest.raises(ValidationError, match="spacing"):
        Volume4D(frames, (1, 0, 1), (0, 0, 0), good_times)
    with pytest.raises(ValidationError, match="2 frames"):
        Volume4D(frames[:1], (1, 1, 1), (0, 0, 0), [0.0])
    with pytest.raises(ValidationError):
        Volume4D(np.zeros((3, 4, 4)), (1, 1, 1), (0, 0, 0), good_times)
    for bad in (np.nan, -np.inf):
        frames[1, 2, 0, 3] = bad
        with pytest.raises(ValidationError, match="finite"):
            Volume4D(frames, (1, 1, 1), (0, 0, 0), good_times)


def test_validating_an_acceptance_volume_peaks_under_1_mib():
    # the finiteness check holds one chunk's bool temporary, not a quarter
    # of the 11 MB payload
    vol = Volume4D(np.full((25, 48, 48, 48), 0.5, dtype=np.float32),
                   (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), np.linspace(0, 1, 25))
    tracemalloc.start()
    try:
        vol.validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_world_bounds():
    vol = make_volume(d=4, h=5, w=6)
    lo, hi = vol.world_bounds()
    assert np.array_equal(lo, [0, 0, 0])
    assert np.array_equal(hi, [5, 4, 3])  # (W-1, H-1, D-1) with unit spacing


# --- trilinear sampling ---------------------------------------------------


def test_value_at_voxel_center():
    vol = make_volume()
    d, h, w = vol.grid_shape
    # voxel (ix,iy,iz) = (2,3,1) in a 6x5x4 grid
    p = np.array([[2 / (w - 1) * 2 - 1, 3 / (h - 1) * 2 - 1, 1 / (d - 1) * 2 - 1]])
    got = sample_trilinear(vol.frames[0], p)[0]
    assert got == pytest.approx(float(vol.frames[0][1, 3, 2]), abs=1e-12)


def test_value_at_cell_center_is_corner_mean():
    frame = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    got = sample_trilinear(frame, np.array([[0.0, 0.0, 0.0]]))[0]
    assert got == pytest.approx(frame.mean(), abs=1e-12)


def test_exact_on_affine_fields():
    d, h, w = 5, 6, 7
    zz, yy, xx = np.meshgrid(np.arange(d), np.arange(h), np.arange(w),
                             indexing="ij")
    frame = (0.3 * xx + 1.7 * yy - 0.9 * zz + 2.0).astype(np.float32)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(50, 3))
    got = sample_trilinear(frame, pts)
    ix = (pts[:, 0] + 1) / 2 * (w - 1)
    iy = (pts[:, 1] + 1) / 2 * (h - 1)
    iz = (pts[:, 2] + 1) / 2 * (d - 1)
    want = 0.3 * ix + 1.7 * iy - 0.9 * iz + 2.0
    assert np.abs(got - want).max() < 1e-6


def value_and_grad(frame, points):
    """Intensities and d(value)/d(point), read from the gather's backward."""
    node = ad.constant(np.array(points, dtype=np.float64))
    with ad.Tape() as tape:
        vals = gather_trilinear(frame, node)
        tape.backward(dot(vals, 1.0))
    return vals.value, node.grad


def test_value_within_corner_range():
    vol = make_volume(seed=3)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(200, 3))
    got = sample_trilinear(vol.frames[0], pts)
    assert got.min() >= vol.frames[0].min() - 1e-7
    assert got.max() <= vol.frames[0].max() + 1e-7


def test_out_of_bounds_clamps_with_zero_gradient():
    vol = make_volume(seed=4)
    edge_val = sample_trilinear(vol.frames[0], np.array([[1.0, 0.0, 0.0]]))[0]
    far_val, grads = value_and_grad(
        vol.frames[0], np.array([[1.5, 0.0, 0.0]]))
    assert far_val[0] == pytest.approx(float(edge_val), abs=1e-12)
    # no sensitivity along the clamped axis; in-range axes still vary
    assert grads[0, 0] == 0.0
    _, edge_grads = value_and_grad(
        vol.frames[0], np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(grads[0, 1:], edge_grads[0, 1:], rtol=1e-12)
    # fully outside every axis: constant corner value, all-zero gradient
    corner_val, corner_grads = value_and_grad(
        vol.frames[0], np.array([[1.5, -1.5, 1.5]]))
    assert np.array_equal(corner_grads[0], np.zeros(3))
    assert corner_val[0] == pytest.approx(float(vol.frames[0][-1, 0, -1]), abs=1e-12)


def test_spatial_gradient_matches_fd():
    vol = make_volume(seed=5)
    rng = np.random.default_rng(10)
    # stay off cell boundaries so the finite difference sees one smooth cell
    pts = rng.uniform(-0.9, 0.9, size=(30, 3))
    _, grads = value_and_grad(vol.frames[0], pts)
    eps = 1e-4
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = eps
        fp = sample_trilinear(vol.frames[0], pts + shift)
        fm = sample_trilinear(vol.frames[0], pts - shift)
        num = (fp - fm) / (2 * eps)
        keep = np.abs(num - grads[:, axis]) < np.abs(num) * 0.5 + 1e-3
        # boundary-straddling probes excluded; the rest must agree tightly
        assert rel_err(grads[keep, axis], num[keep]) < 1e-4


def test_gather_trilinear_backward():
    vol = make_volume(seed=6)
    pts = np.array([[0.13, -0.21, 0.4], [0.5, 0.1, -0.3]])
    node = ad.constant(pts.copy())
    # a non-uniform upstream gradient scales each point's spatial gradient
    with ad.Tape() as tape:
        vals = gather_trilinear(vol.frames[0], node)
        tape.backward(mean_square(vals))
    _, grads = value_and_grad(vol.frames[0], pts)
    assert np.allclose(node.grad, vals.value[:, None] * grads, rtol=1e-12, atol=1e-14)


def test_sampling_rejects_nonfinite():
    vol = make_volume()
    with pytest.raises(ValueError, match="non-finite"):
        sample_trilinear(vol.frames[0], np.array([[np.inf, 0, 0]]))


@pytest.mark.parametrize("rows", [1, 16384, 16385, 110592])
def test_sampling_in_blocks_equals_one_whole_batch_gather(rows):
    frame = np.random.default_rng(rows).uniform(0, 1, (48, 40, 32)).astype(np.float32)
    pts = np.random.default_rng(rows + 1).uniform(-1.1, 1.1, size=(rows, 3))
    got = sample_trilinear(frame, pts)
    want = gather_trilinear(frame, ad.constant(pts)).value  # untaped: one call
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)


def test_sampling_a_48_grid_peaks_under_8_mb():
    frame = np.random.default_rng(4).uniform(0, 1, (48, 48, 48)).astype(np.float32)
    pts = np.random.default_rng(5).uniform(-1, 1, size=(48 ** 3, 3))
    tracemalloc.start()
    try:
        sample_trilinear(frame, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


# --- domain normalizer ----------------------------------------------------


def test_normalizer_round_trip():
    vol = make_volume(d=9, h=7, w=5)
    norm = DomainNormalizer.from_volume(vol)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-20, 20, size=(100, 3))
    back = norm.to_world(norm.to_normalized(pts))
    assert np.abs(back - pts).max() < 1e-9


def test_normalizer_maps_bbox_to_unit_cube():
    vol = Volume4D(np.zeros((2, 3, 4, 5), np.float32), (2.0, 0.5, 1.5),
                   (-3.0, 10.0, 4.0), [0.0, 1.0])
    lo, hi = vol.world_bounds()
    norm = DomainNormalizer.from_volume(vol)
    assert np.array_equal(norm.to_normalized(lo), [-1, -1, -1])
    assert np.array_equal(norm.to_normalized(hi), [1, 1, 1])


def test_normalizer_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        DomainNormalizer([0, 0, 0], [1, 0, 1])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_normalizer_rejects_non_finite_bounds(bad):
    with pytest.raises(ValueError, match="finite"):
        DomainNormalizer([0, 0, 0], [bad, bad, bad])
    with pytest.raises(ValueError, match="finite"):
        DomainNormalizer([-bad, 0, 0], [1, 1, 1])


# --- growth patterns and the sphere generator -----------------------------


def test_radius_schedules():
    per = GrowthPattern("periodic", 10.0, amplitude_mm=2.0)
    assert radius_at(per, 0.0) == 8.0    # cycle starts at the trough
    assert radius_at(per, 0.5) == 12.0   # peak at mid-cycle
    assert radius_at(per, 1.0) == 8.0    # closes exactly
    lin = GrowthPattern("linear", 10.0, rate=0.5)
    assert radius_at(lin, 1.0) == 15.0
    exp = GrowthPattern("exponential", 10.0, rate=np.log(2.0))
    assert radius_at(exp, 1.0) == pytest.approx(20.0, rel=1e-12)


def test_growth_pattern_validation():
    with pytest.raises(ValueError, match="kind"):
        GrowthPattern("quadratic", 10.0)
    with pytest.raises(ValueError, match="radius"):
        GrowthPattern("linear", -1.0)
    with pytest.raises(ValueError, match="amplitude"):
        GrowthPattern("periodic", 5.0, amplitude_mm=6.0)
    with pytest.raises(ValueError, match="non-positive"):
        GrowthPattern("linear", 10.0, rate=-1.5)
    with pytest.raises(ValueError):
        radius_at(GrowthPattern("periodic", 10.0), 1.5)


def test_periodic_series_closes_bitwise():
    pat = GrowthPattern("periodic", 8.0, amplitude_mm=2.0)
    vol, meshes = make_sphere_series(pat, 32, 1.0, 7)
    assert np.array_equal(vol.frames[0], vol.frames[-1])
    assert np.array_equal(meshes[0].vertices, meshes[-1].vertices)


def test_linear_series_grows_monotonically():
    pat = GrowthPattern("linear", 6.0, rate=0.5)
    vol, _ = make_sphere_series(pat, 32, 1.0, 6)
    counts = [(frame > 0.5).sum() for frame in vol.frames]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_generated_mesh_volume_matches_analytic():
    pat = GrowthPattern("periodic", 8.0, amplitude_mm=2.0)
    _, meshes = make_sphere_series(pat, 32, 1.0, 5)
    for t, mesh in zip(np.linspace(0, 1, 5), meshes):
        want = 4.0 / 3.0 * np.pi * radius_at(pat, float(t)) ** 3
        assert mesh_volume(mesh) == pytest.approx(want, rel=0.02)


def test_sphere_must_fit_in_grid():
    pat = GrowthPattern("linear", 20.0, rate=1.0)
    with pytest.raises(ValidationError, match="exceeds grid bounds"):
        make_sphere_series(pat, 16, 1.0, 3)


def test_soft_boundary_has_intermediate_values():
    pat = GrowthPattern("periodic", 8.0, amplitude_mm=1.0)
    vol, _ = make_sphere_series(pat, 32, 1.0, 3)
    mid = (vol.frames[0] > 0.05) & (vol.frames[0] < 0.95)
    assert mid.sum() > 100  # the ramp is not a hard step


# --- V4D container --------------------------------------------------------


def test_v4d_round_trip_bit_exact(tmp_path):
    vol = make_volume(n=3, d=8, h=8, w=8, seed=12)
    p1 = tmp_path / "a.v4d"
    p2 = tmp_path / "b.v4d"
    write_v4d(vol, p1)
    loaded = read_v4d(p1)
    write_v4d(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.frames, vol.frames)
    assert loaded.spacing == vol.spacing
    assert loaded.origin == vol.origin
    assert np.array_equal(loaded.frame_times, vol.frame_times)


def test_v4d_bad_magic(tmp_path):
    path = tmp_path / "bad.v4d"
    path.write_bytes(b"NOTAVOL!" + b"\x00" * 32)
    with pytest.raises(FormatError, match="offset 0"):
        read_v4d(path)


def test_v4d_truncated_payload(tmp_path):
    vol = make_volume()
    path = tmp_path / "t.v4d"
    write_v4d(vol, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="payload"):
        read_v4d(path)


def test_v4d_header_invariants_checked(tmp_path):
    vol = make_volume()
    path = tmp_path / "h.v4d"
    write_v4d(vol, path)
    data = bytearray(path.read_bytes())
    # frame_times [0,0.5,1] -> [0,0.5,0.5] by header surgery
    bad = bytes(data).replace(b'"frame_times":[0.0,0.5,1.0]',
                              b'"frame_times":[0.0,0.5,0.5]')
    assert bad != bytes(data)
    path.write_bytes(bad)
    with pytest.raises(ValidationError, match="increasing"):
        read_v4d(path)


@pytest.mark.parametrize("case", sorted(BAD_VOLUMES))
def test_v4d_malformed_header_or_voxels(tmp_path, case):
    path = tmp_path / "v.v4d"
    write_v4d(make_volume(), path)
    rewrite_container(path, path, **BAD_VOLUMES[case])
    error = ValidationError if case.endswith("voxel") else FormatError
    with pytest.raises(error):
        read_v4d(path)


def _grid_fields(vol):
    return (vol.grid_shape, vol.spacing, vol.origin, vol.frame_times.tolist(),
            vol.n_frames, [b.tolist() for b in vol.world_bounds()])


def _refusal(reader, path):
    with pytest.raises((FormatError, ValidationError)) as info:
        reader(path)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", sorted(BAD_VOLUMES))
def test_grid_reader_refuses_each_bad_volume_as_read_v4d_does(tmp_path, case):
    path = tmp_path / "v.v4d"
    write_v4d(make_volume(), path)
    rewrite_container(path, path, **BAD_VOLUMES[case])
    assert _refusal(read_v4d_grid, path) == _refusal(read_v4d, path)


# a header or grid error comes before the payload's size, so each is found
# in a file whose payload is cut short, and the payload is not read
SHORT_PAYLOAD = {**{c: BAD_VOLUMES[c] for c in sorted(HEADER_ONLY & BAD_VOLUMES.keys())},
                 "negative-spacing": dict(header=lambda h: {**h, "spacing_mm": [-1, 1, 1]})}


@pytest.mark.parametrize("case", sorted(SHORT_PAYLOAD))
@pytest.mark.parametrize("reader", [read_v4d, read_v4d_grid], ids=["v4d", "v4d-grid"])
def test_a_bad_header_or_grid_is_reported_before_a_short_payload(tmp_path, case, reader):
    path = tmp_path / "v.v4d"
    write_v4d(make_volume(), path)
    rewrite_container(path, path, **SHORT_PAYLOAD[case])
    whole = _refusal(reader, path)
    path.write_bytes(path.read_bytes()[:-8])
    assert _refusal(reader, path) == whole
    assert whole[0] is FormatError or "spacing" in whole[1]


def test_grid_reader_reads_the_grid_and_holds_no_frames(tmp_path):
    vol = Volume4D(make_volume().frames, (0.5, 1.0, 2.0), (-3.0, 1.0, 7.5),
                   [0.0, 0.25, 1.0])
    path = tmp_path / "v.v4d"
    write_v4d(vol, path)
    grid = read_v4d_grid(path)
    assert isinstance(grid, VolumeGrid) and not isinstance(grid, Volume4D)
    assert _grid_fields(grid) == _grid_fields(read_v4d(path)) == _grid_fields(vol)
    with pytest.raises(AttributeError):
        grid.frames


# voxel 0, the last of chunk 0, the first of chunk 1, the last of the file
# (3 frames of 4x5x6 = 360 voxels, read in chunks of 7)
@pytest.mark.parametrize("index", [0, 6, 7, 359])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_both_readers_find_a_bad_voxel_at_each_chunk_edge(tmp_path, monkeypatch,
                                                          index, bad):
    monkeypatch.setattr(volume_module, "_CHUNK_VOXELS", 7)
    path = tmp_path / "v.v4d"
    write_v4d(make_volume(), path)
    rewrite_container(path, path, payload=lambda p: np.where(
        np.arange(p.size) == index, np.float32(bad), p))
    refusal = _refusal(read_v4d_grid, path)
    assert refusal == _refusal(read_v4d, path)
    assert refusal == (ValidationError, f"{path}: frames must be finite (no NaN or inf voxels)")


def test_grid_reader_reads_a_clean_file_of_many_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(volume_module, "_CHUNK_VOXELS", 7)  # 360 = 51 * 7 + 3
    path = tmp_path / "v.v4d"
    write_v4d(make_volume(), path)
    assert _grid_fields(read_v4d_grid(path)) == _grid_fields(read_v4d(path))


def test_flat_corner_gather_keeps_the_bits_of_per_axis_indexing():
    rng = np.random.default_rng(3)
    frame = rng.uniform(-1, 1, size=(4, 5, 7)).astype(np.float32)
    pts = np.concatenate([rng.uniform(-1.2, 1.2, size=(500, 3)),
                          [[-1, -1, -1], [1, 1, 1], [1, -1, 1]]])
    values, grads = volume_module._trilinear_kernel(frame, pts, want_grad=True)
    # the gather as eight three-array indexes, and the kernel's arithmetic
    n = np.array([7, 5, 4], dtype=np.float64)
    u = (pts + 1.0) * 0.5 * (n - 1.0)
    uc = np.clip(u, 0.0, n - 1.0)
    i0 = np.minimum(uc.astype(np.int64), (n - 2.0).astype(np.int64))
    f = uc - i0
    ix, iy, iz = i0.T
    fx, fy, fz = f.T
    c = {(a, b, e): frame[iz + e, iy + b, ix + a]
         for a in (0, 1) for b in (0, 1) for e in (0, 1)}
    c00 = c[0, 0, 0] * (1 - fx) + c[1, 0, 0] * fx
    c10 = c[0, 1, 0] * (1 - fx) + c[1, 1, 0] * fx
    c01 = c[0, 0, 1] * (1 - fx) + c[1, 0, 1] * fx
    c11 = c[0, 1, 1] * (1 - fx) + c[1, 1, 1] * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    assert np.array_equal(values, c0 * (1 - fz) + c1 * fz)
    dvdx = ((c[1, 0, 0] - c[0, 0, 0]) * (1 - fy) + (c[1, 1, 0] - c[0, 1, 0]) * fy) \
        * (1 - fz) + ((c[1, 0, 1] - c[0, 0, 1]) * (1 - fy)
                      + (c[1, 1, 1] - c[0, 1, 1]) * fy) * fz
    expected = np.stack([dvdx, (c10 - c00) * (1 - fz) + (c11 - c01) * fz,
                         c1 - c0], axis=1)
    expected *= (n - 1.0) * 0.5
    expected *= (u >= 0.0) & (u <= n - 1.0)
    assert np.array_equal(grads, expected)
