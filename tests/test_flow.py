"""Euler integration: exactness on analytic fields, convergence order,
composition, frame-time alignment, mesh advection, and gradient flow
through the unrolled recursion."""
import csv
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import cycleflow.autodiff as ad
from cycleflow import field
from cycleflow.errors import NumericalError, ValidationError
from cycleflow.flow import (
    Trajectory,
    deform_mesh,
    euler_path,
    flow_at_frames,
    flow_at_frames_nodes,
    frame_step_times,
    integrate,
    inverse_map,
    row_blocks,
    write_trajectory_csv,
)
from cycleflow.mesh import TriangleMesh, icosphere
from cycleflow.training import total_loss
from cycleflow.volume import DomainNormalizer, GrowthPattern, make_sphere_series

from conftest import (bias_model, fd_grad, make_cube_mesh, mean_square, position_error,
                      rel_err)


class ConstantField:
    """Velocity field returning the same vector everywhere."""

    dtype = np.float64

    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def __call__(self, x, t):
        return ad.constant(np.broadcast_to(self.v, x.value.shape).copy())


class LinearField:
    """v(x, t) = a * x, whose exact flow is x0 * exp(a * t)."""

    dtype = np.float64

    def __init__(self, a):
        self.a = float(a)

    def __call__(self, x, t):
        return ad.record(x.value * self.a, (x,), lambda g: (g * self.a,))


class CountingField:
    """Wraps a field and counts its evaluations (one per Euler step), with
    the batch size of each."""

    def __init__(self, inner):
        self.inner, self.dtype, self.calls, self.rows = inner, inner.dtype, 0, []

    def __call__(self, x, t):
        self.calls += 1
        self.rows.append(x.value.shape[0])
        return self.inner(x, t)


class NanAfterField:
    """Finite before t_bad, NaN from t_bad onward."""

    dtype = np.float64

    def __init__(self, t_bad):
        self.t_bad = t_bad

    def __call__(self, x, t):
        fill = math.nan if t >= self.t_bad else 0.25
        return ad.constant(np.full_like(x.value, fill))


# ------------------------------------------------------------ trajectory

def test_trajectory_validation():
    pts = np.zeros((2, 3, 3))
    Trajectory(pts, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        Trajectory(pts, [0.0, 0.5])
    with pytest.raises(ValueError):
        Trajectory(pts, [0.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        Trajectory(np.zeros((2, 3)), [0.0, 0.5, 1.0])


def test_trajectory_properties():
    pts = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
    traj = Trajectory(pts, [0.0, 0.25, 0.5, 1.0])
    assert np.array_equal(traj.seeds, pts[:, 0, :])
    assert np.array_equal(traj.endpoints, pts[:, -1, :])


# ------------------------------------------------------------- integrate

def test_constant_field_is_integrated_exactly():
    # Dyadic step sizes and velocity components make Euler arithmetic exact.
    seeds = np.array([[0.0, 0.0, 0.0], [0.125, -0.25, 0.5]])
    model = ConstantField([0.5, -0.25, 0.125])
    traj = integrate(model, seeds, 0.0, 1.0, steps=4)
    assert traj.points.shape == (2, 5, 3)
    assert np.array_equal(traj.seeds, seeds)
    expected = seeds + np.array([0.5, -0.25, 0.125])
    assert np.array_equal(traj.endpoints, expected)


def test_linear_field_matches_euler_recurrence():
    # With a dyadic growth rate the recurrence x <- (1 + h*a) * x is exact.
    seeds = np.array([[0.25, -0.5, 0.75]])
    traj = integrate(LinearField(0.5), seeds, 0.0, 1.0, steps=4)
    factor = (1.0 + 0.25 * 0.5) ** 4
    assert np.array_equal(traj.endpoints, seeds * factor)


def test_euler_error_halves_when_steps_double():
    # First-order method on a smooth linear field: endpoint error ~ C / S.
    seeds = np.array([[0.5, -0.25, 0.125]])
    exact = seeds * math.exp(0.8)
    errors = []
    for steps in (8, 16, 32, 64):
        traj = integrate(LinearField(0.8), seeds, 0.0, 1.0, steps)
        errors.append(np.abs(traj.endpoints - exact).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def test_backward_integration_undoes_constant_flow_exactly():
    seeds = np.array([[0.125, 0.25, -0.5]])
    model = ConstantField([0.5, -0.25, 0.125])
    fwd = integrate(model, seeds, 0.0, 1.0, steps=8)
    back = integrate(model, fwd.endpoints, 1.0, 0.0, steps=8)
    assert np.array_equal(back.endpoints, seeds)
    assert np.all(np.diff(back.times) < 0)


def test_split_integration_is_bitwise_identical():
    # Chaining 0 -> 0.5 -> 1 over dyadic boundaries replays the exact same
    # float arithmetic as a single 0 -> 1 run.
    seeds = np.array([[0.25, -0.125, 0.5], [0.0, 0.375, -0.25]])
    model = LinearField(0.75)
    whole = integrate(model, seeds, 0.0, 1.0, steps=8)
    first = integrate(model, seeds, 0.0, 0.5, steps=4)
    second = integrate(model, first.endpoints, 0.5, 1.0, steps=4)
    assert np.array_equal(second.endpoints, whole.endpoints)


def test_integrate_argument_validation():
    seeds = np.zeros((1, 3))
    with pytest.raises(ValueError):
        integrate(ConstantField([0, 0, 0]), seeds, 0.0, 1.0, steps=0)
    with pytest.raises(ValueError):
        integrate(ConstantField([0, 0, 0]), seeds, 0.5, 0.5, steps=4)
    with pytest.raises(ValidationError, match="positions are not finite in float64"):
        integrate(ConstantField([0, 0, 0]), [[0.0, math.nan, 0.0]], 0.0, 1.0, 4)


def test_non_finite_velocity_raises():
    with pytest.raises(NumericalError, match="non-finite velocity at step"):
        integrate(NanAfterField(0.5), np.zeros((1, 3)), 0.0, 1.0, steps=4)


@pytest.mark.filterwarnings("ignore:evaluating velocity field outside the slack")
@pytest.mark.parametrize("steps", [10, 24])
def test_a_position_that_overflows_the_model_dtype_raises(steps):
    # float32-max steps of 1/steps add up past float32's range near t = 1
    model = bias_model(np.finfo(np.float32).max)
    seeds = np.zeros((4, 3))
    with pytest.raises(NumericalError, match="non-finite position at step"):
        integrate(model, seeds, 0.0, 1.0, steps)
    with pytest.raises(NumericalError, match="non-finite position at step"):
        inverse_map(model, seeds, 1.0, steps)


# every way into the field; each takes (model, seeds, volume)
FIELD_ENTRIES = {
    "velocity": lambda m, s, v: field.velocity(m, s, 0.3),
    "model-array": lambda m, s, v: m(s, 0.3),
    "model-node": lambda m, s, v: m(ad.constant(s), 0.3),
    "euler-path": lambda m, s, v: euler_path(m, s, np.linspace(0.0, 0.5, 3)),
    "integrate": lambda m, s, v: integrate(m, s, 0.0, 1.0, 2),
    "flow-at-frames": lambda m, s, v: flow_at_frames(m, s, [0.0, 0.5, 1.0]),
    "flow-at-frames-nodes": lambda m, s, v: flow_at_frames_nodes(m, s, [0.0, 0.5, 1.0]),
    "inverse-map": lambda m, s, v: inverse_map(m, s, 0.5, steps=2),
    "inverse-map-at-zero": lambda m, s, v: inverse_map(m, s, 0.0, steps=2),
    "total-loss": lambda m, s, v: total_loss(m, v, s),
}
# seed values that are not finite in each dtype (1e39 is past float32's range)
BAD_SEED_VALUES = [(np.float32, x) for x in (math.nan, math.inf, -math.inf, 1e39)] + \
    [(np.float64, x) for x in (math.nan, math.inf, -math.inf)]


@pytest.fixture(scope="module")
def small_series():
    pattern = GrowthPattern("periodic", 3.0, amplitude_mm=0.5)
    return make_sphere_series(pattern, 10, 1.0, 3, smoothing_mm=1.0)[0]


@pytest.mark.parametrize("dtype,value", BAD_SEED_VALUES,
                         ids=[f"{np.dtype(d)}-{x}" for d, x in BAD_SEED_VALUES])
@pytest.mark.parametrize("entry", sorted(FIELD_ENTRIES))
def test_every_entry_refuses_positions_not_finite_in_the_model_dtype(entry, dtype, value,
                                                                   small_series):
    # every entry goes through field.positions: the one error naming the dtype,
    # whatever the bad value, and no cast warning before it
    model = field.init_weights(0, field.default_layer_sizes(1, 8), 6.0, dtype=dtype)
    seeds = np.zeros((4, 3))
    seeds[2, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            FIELD_ENTRIES[entry](model, seeds, small_series)
    assert str(info.value) == position_error(dtype)


# ------------------------------------------------------- frame alignment

def test_frame_step_times_one_step_per_frame_is_exact():
    frame_times = np.linspace(0.0, 1.0, 25)
    assert np.array_equal(frame_step_times(frame_times, 1), frame_times)


def test_frame_step_times_subdivides_each_segment():
    frame_times = np.array([0.0, 0.5, 1.0])
    times = frame_step_times(frame_times, 3)
    assert times.shape == (7,)
    assert np.array_equal(times[::3], frame_times)
    assert np.allclose(np.diff(times), 1.0 / 6.0)


def test_frame_step_times_takes_one_count_per_gap():
    frame_times = np.array([0.0, 0.25, 1.0])
    times = frame_step_times(frame_times, [1, 3])
    assert np.array_equal(times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_frame_step_times_validation():
    with pytest.raises(ValueError):
        frame_step_times([0.0], 1)
    with pytest.raises(ValueError):
        frame_step_times([0.0, 0.5, 0.5], 1)
    with pytest.raises(ValueError):
        frame_step_times([0.0, 1.0], 0)
    with pytest.raises(ValueError):
        frame_step_times([0.0, 0.5, 1.0], [2, 0])
    with pytest.raises(ValueError):
        frame_step_times([0.0, 0.5, 1.0], [2, 2, 2])
    # finite frame times whose gap overflows are refused before linspace warns
    with pytest.raises(ValueError, match="finite gaps"):
        frame_step_times([-1e308, 1e308], 2)
    with pytest.raises(ValueError, match="finite gaps"):
        integrate(bias_model(0.0), np.zeros((1, 3)), -1e308, 1e308, 2)


# step counts 1..50: one for every gap, or one per gap
_COUNT = st.integers(1, 50)


@st.composite
def _frame_grids(draw):
    """Finite, strictly monotonic frame times in either direction, with gaps
    wide enough for 50 steps, and their step counts."""
    knots = np.array(sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2,
                                          max_size=6, unique=True))))
    assume(np.all(np.diff(knots) > 1e-6 * (1.0 + np.abs(knots).max())))
    if draw(st.booleans()):
        knots = knots[::-1].copy()
    gaps = knots.size - 1
    return knots, draw(_COUNT | st.lists(_COUNT, min_size=gaps, max_size=gaps))


@given(_frame_grids())
def test_frame_step_times_holds_every_frame_time_at_its_step_count(grid):
    knots, counts = grid
    per_gap = np.broadcast_to(counts, (knots.size - 1,))
    times = frame_step_times(knots, counts)
    d = np.diff(times)
    assert np.all(d > 0) or np.all(d < 0)
    assert times.size == 1 + per_gap.sum()
    at = np.concatenate([[0], np.cumsum(per_gap)])
    assert times[at].tobytes() == knots.tobytes()


@given(_frame_grids(), st.sampled_from(["repeated", "non-finite", "unordered",
                                        "count-below-1"]), st.data())
def test_frame_step_times_refuses_a_grid_that_is_not_strictly_monotonic(grid, fault,
                                                                        data):
    knots, counts = grid
    per_gap = np.array(np.broadcast_to(counts, (knots.size - 1,)))
    i = data.draw(st.integers(0, knots.size - 2))
    if fault == "repeated":
        knots = np.insert(knots, i, knots[i])
        per_gap = np.insert(per_gap, i, per_gap[i])
    elif fault == "non-finite":
        knots[i] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif fault == "unordered":
        assume(knots.size >= 3)
        i = min(i, knots.size - 3)  # swap i and i + 1 against i + 2's order
        knots[[i, i + 1]] = knots[[i + 1, i]]
    else:
        per_gap[i] = data.draw(st.integers(-5, 0))
    with pytest.raises(ValueError):
        frame_step_times(knots, per_gap)


def test_a_two_time_grid_is_linspace_byte_for_byte():
    # the grids of integrate ([t_start, t_end]) and inverse_map ([t, 0]),
    # decreasing ones and the PSNR warp's from each frame of 25 back to 0
    frames = np.linspace(0.0, 1.0, 25)
    grids = [(0.0, 1.0, 24), (0.0, 0.75, 7), (0.0, 1.0, 1), (0.0, 3.0, 1000),
             (-0.25, 0.5, 3), (1.0, 0.0, 8), (0.75, 0.0, 5), (1e-300, 0.0, 3)]
    grids += [(frames[i], 0.0, i * k) for i in range(1, 25) for k in (1, 2, 3)]
    for start, stop, steps in grids:
        assert frame_step_times([start, stop], steps).tobytes() == \
            np.linspace(start, stop, steps + 1).tobytes(), (start, stop, steps)


# each is a ValueError before any step runs
REFUSED_PASSES = {
    "flow-at-decreasing-frames": lambda m, s: flow_at_frames(m, s, [1.0, 0.5, 0.0]),
    "inverse-map-of-steps-that-round-to-zero": lambda m, s: inverse_map(m, s, 5e-324, 4),
    "integrate-to-inf": lambda m, s: integrate(m, s, 0.0, math.inf, 1),
    "inverse-map-from-inf": lambda m, s: inverse_map(m, s, math.inf, 1),
    "integrate-to-nan": lambda m, s: integrate(m, s, 0.0, math.nan, 2),
    "integrate-zero-steps": lambda m, s: integrate(m, s, 0.0, 1.0, 0),
    "inverse-map-zero-steps": lambda m, s: inverse_map(m, s, 1.0, 0),
}


@pytest.mark.parametrize("case", sorted(REFUSED_PASSES))
def test_a_pass_on_a_bad_step_grid_raises_value_error(case):
    model = CountingField(ConstantField([0.5, 0.25, 0.0]))
    # only the refusal is checked, not whether building a grid through inf warns
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        REFUSED_PASSES[case](model, np.zeros((2, 3)))
    assert model.calls == 0


@pytest.mark.parametrize("steps", [2 ** 62, 2 ** 63 - 1])
def test_a_pass_whose_step_grid_no_array_can_hold_raises_memory_error(steps):
    seeds = np.zeros((2, 3))
    with pytest.raises(MemoryError):
        integrate(ConstantField([0.5, 0, 0]), seeds, 0.0, 1.0, steps)
    with pytest.raises(MemoryError):
        inverse_map(ConstantField([0.5, 0, 0]), seeds, 1.0, steps)


def test_flow_at_frames_matches_manual_path():
    seeds = np.array([[0.25, 0.0, -0.125]])
    model = LinearField(0.5)
    frame_times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    got = flow_at_frames(model, seeds, frame_times, steps_per_frame=2)
    assert got.shape == (1, 5, 3)
    path = euler_path(model, seeds, frame_step_times(frame_times, 2))
    for i in range(5):
        assert np.array_equal(got[:, i, :], path[2 * i].value)
    assert np.array_equal(got[:, 0, :], seeds)


def test_flow_at_frames_reads_uneven_gaps_off_one_path():
    seeds = np.array([[0.25, 0.0, -0.125]])
    model = LinearField(0.5)
    frame_times = np.array([0.0, 0.125, 0.75])
    got = flow_at_frames(model, seeds, frame_times, [1, 5])
    path = euler_path(model, seeds, frame_step_times(frame_times, [1, 5]))
    _assert_path_rows(got, seeds, [path[0], path[1], path[6]])


def test_flow_at_frames_nodes_returns_tape_free_nodes():
    nodes = flow_at_frames_nodes(ConstantField([0.5, 0, 0]), np.zeros((2, 3)),
                                 [0.0, 0.5, 1.0])
    assert len(nodes) == 3
    assert all(isinstance(n, ad.Node) for n in nodes)


# ----------------------------------------------------------- working dtype

def _small_model(dtype):
    return field.init_weights(3, field.default_layer_sizes(2, 16), omega=6.0,
                              dtype=dtype)


def _assert_path_rows(got, seeds, path):
    """got is (B, len(path), 3) float64: row 0 is seeds bit for bit, every
    later row equals the matching node of a reference Euler path."""
    assert got.dtype == np.float64
    assert np.array_equal(got[:, 0, :], seeds)
    for k in range(1, len(path)):
        assert np.array_equal(got[:, k, :], path[k].value)


def test_f32_model_steps_in_float32_and_returns_float64():
    model = _small_model(np.float32)
    seeds = np.random.default_rng(4).uniform(-0.9, 0.9, (6, 3))
    assert seeds.dtype == np.float64
    seeds32 = seeds.astype(np.float32)

    times = np.linspace(0.0, 0.5, 5)
    ref = euler_path(model, seeds32, times)
    assert all(n.value.dtype == np.float32 for n in ref)
    # the float64 seeds round to float32 before the first step
    assert all(np.array_equal(a.value, b.value)
               for a, b in zip(euler_path(model, seeds, times), ref))
    _assert_path_rows(integrate(model, seeds, 0.0, 0.5, steps=4).points, seeds, ref)

    frame_times = np.array([0.0, 0.25, 0.5, 0.75])
    ref = euler_path(model, seeds32, frame_step_times(frame_times, 2))
    _assert_path_rows(flow_at_frames(model, seeds, frame_times, 2),
                      seeds, ref[::2])

    back = euler_path(model, seeds32, np.linspace(0.5, 0.0, 5))
    got = inverse_map(model, seeds, 0.5, steps=4)
    assert got.dtype == np.float64
    assert np.array_equal(got, back[-1].value)


def test_f64_model_stays_float64_end_to_end():
    model = _small_model(np.float64)
    seeds = np.random.default_rng(5).uniform(-0.9, 0.9, (6, 3))
    times = np.linspace(0.0, 0.5, 5)
    ref = euler_path(model, seeds, times)
    assert all(n.value.dtype == np.float64 for n in ref)
    _assert_path_rows(integrate(model, seeds, 0.0, 0.5, steps=4).points, seeds, ref)
    frame_times = np.array([0.0, 0.25, 0.5])
    _assert_path_rows(flow_at_frames(model, seeds, frame_times, 2), seeds,
                      euler_path(model, seeds, frame_step_times(frame_times, 2))[::2])
    back = euler_path(model, seeds, np.linspace(0.5, 0.0, 5))
    assert np.array_equal(inverse_map(model, seeds, 0.5, steps=4), back[-1].value)


# ------------------------------------------------------------ inverse map

def test_inverse_map_at_time_zero_is_copy():
    targets = np.random.default_rng(3).uniform(-1, 1, (4, 3))
    got = inverse_map(ConstantField([1, 1, 1]), targets, 0.0, steps=4)
    assert np.array_equal(got, targets)
    got[0, 0] = 99.0
    assert targets[0, 0] != 99.0
    with pytest.raises(ValidationError, match="positions are not finite in float64"):
        inverse_map(ConstantField([1, 1, 1]), [[math.nan, 0.0, 0.0]], 0.0, steps=4)


def test_inverse_map_undoes_constant_flow():
    seeds = np.array([[0.125, -0.25, 0.5]])
    model = ConstantField([0.25, 0.125, -0.5])
    fwd = integrate(model, seeds, 0.0, 0.75, steps=4)
    assert np.array_equal(inverse_map(model, fwd.endpoints, 0.75, 4), seeds)


def _grid_centres(n):
    axis = np.linspace(-1.0, 1.0, n)
    gz, gy, gx = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def _acceptance_model():
    return field.init_weights(7, field.default_layer_sizes(3, 128), omega=6.0)


@pytest.mark.parametrize("rows,steps", [(110592, 1), (9000, 2), (4097, 2)],
                         ids=["grid-48", "9000", "4097"])
def test_inverse_map_equals_one_euler_path_per_block(rows, steps, monkeypatch):
    # a field call's bits depend on its row count alone, so each block of
    # max(1, rows // 8192) near-equal ones gets the bits of its own pass,
    # with the pool thread on or off
    model = _acceptance_model()
    targets = (_grid_centres(48) if rows == 110592 else
               np.random.default_rng(rows).uniform(-1.0, 1.0, (rows, 3)))
    times = np.linspace(0.75, 0.0, steps + 1)
    ref = np.concatenate([euler_path(model, block, times)[-1].value for block
                          in np.array_split(targets, max(1, rows // 8192))])
    for parallel in (False, True):
        monkeypatch.setattr(field, "_PARALLEL", parallel)
        got = inverse_map(model, targets, 0.75, steps)
        assert got.dtype == np.float64
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("rows", [1, 8191, 8192, 16383, 16384, 24575, 110592])
def test_inverse_map_calls_the_field_on_blocks_of_8192_to_16383_rows(rows):
    stub = CountingField(ConstantField([0.25, 0.25, 0.25]))
    targets = np.zeros((rows, 3))
    got = inverse_map(stub, targets, 0.5, steps=3)
    assert np.array_equal(got, np.full((rows, 3), -0.125))
    blocks = max(1, rows // 8192)
    assert stub.calls == blocks * 3
    assert sum(stub.rows) == rows * 3
    if rows >= 8192:
        assert all(8192 <= r <= 16383 for r in stub.rows)
    else:
        assert stub.rows == [rows] * 3


@pytest.mark.parametrize("rows", [0, 1, 8191, 8192, 16383, 16384, 24577, 110592])
def test_row_blocks_split_rows_as_array_split_does(rows):
    # inverse_map's bits depend on its block sizes, which np.array_split's rule fixes
    parts = np.array_split(np.arange(rows), max(1, rows // 8192))
    assert [np.arange(rows)[s].tolist() for s in row_blocks(rows)] == \
        [p.tolist() for p in parts]


def _inverse_map_peak_of_a_48_grid():
    """tracemalloc's peak, in bytes, over one inverse_map step of a 48^3 grid."""
    model = _acceptance_model()
    targets = _grid_centres(48)
    tracemalloc.start()
    try:
        inverse_map(model, targets, 0.5, steps=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_inverse_map_of_a_48_grid_peaks_under_20_mb():
    assert _inverse_map_peak_of_a_48_grid() <= 20e6


def test_inverse_map_of_a_48_grid_peaks_under_8_mb():
    # each untaped part runs in 1024-row slices, so no layer holds the phase
    # of a whole 4096-8191-row part (11.9 MB when parts ran whole)
    assert _inverse_map_peak_of_a_48_grid() <= 8e6


def test_inverse_map_is_safe_to_run_concurrently():
    model = _acceptance_model()
    targets = np.random.default_rng(11).uniform(-1.0, 1.0, (9000, 3))
    ref = inverse_map(model, targets, 0.5, steps=2)
    results = [None, None]

    def run(i):
        results[i] = inverse_map(model, targets, 0.5, steps=2)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
        assert not w.is_alive()
    assert all(np.array_equal(r, ref) for r in results)


# ----------------------------------------------------------- mesh advection

def test_deform_mesh_at_time_zero_is_identity_copy():
    mesh = make_cube_mesh(side=2.0, origin=(-1.0, -1.0, -1.0))
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    model = CountingField(ConstantField([1, 0, 0]))
    out = deform_mesh(model, mesh, [0.0, -0.0], 4, norm)
    assert len(out) == 2 and model.calls == 0
    for copy in out:
        assert np.array_equal(copy.vertices, mesh.vertices)
        assert copy.vertices is not mesh.vertices


def test_deform_mesh_translates_by_world_displacement():
    mesh = make_cube_mesh(side=2.0, origin=(-1.0, -1.0, -1.0))
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    # 0.25 normalized units * 8 mm half-extent = 2 mm per unit time, exact
    # in binary at t = 0.5 and t = 1.
    half, whole = deform_mesh(ConstantField([0.25, 0.0, 0.0]), mesh,
                              [0.5, 1.0], 4, norm)
    assert np.array_equal(half.vertices, mesh.vertices + [1.0, 0.0, 0.0])
    assert np.array_equal(whole.vertices, mesh.vertices + [2.0, 0.0, 0.0])
    assert np.array_equal(whole.faces, mesh.faces)


def test_deform_mesh_radial_stub_matches_analytic_radius():
    # The pulsing field has a closed-form flow (pure radial scaling), so
    # vertex radii after integration have an exact oracle.
    from conftest import RadialPulseField

    model = RadialPulseField(amp=0.1)
    norm = DomainNormalizer((-8.0,) * 3, (8.0,) * 3)
    mesh = icosphere(5.0, subdivisions=2)
    times = [0.25, 0.1, 0.6, 1.0]
    out = deform_mesh(model, mesh, times, steps=1024, normalizer=norm)
    for t, deformed in zip(times, out):
        radii = np.linalg.norm(deformed.vertices, axis=1)
        expected = 5.0 * model.scale_factor(t)
        assert np.abs(radii - expected).max() / expected < 1e-3


def test_deform_mesh_warns_outside_bounds():
    mesh = make_cube_mesh(side=2.0, origin=(10.0, 0.0, 0.0))
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    with pytest.warns(RuntimeWarning, match="outside") as record:
        deform_mesh(ConstantField([0, 0, 0]), mesh, [0.5, 0.25], 2, norm)
    assert len(record) == 1


def test_deform_mesh_rejects_bad_times_and_steps():
    mesh = make_cube_mesh()
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    for times in ([-0.5], [0.5, math.nan], [math.inf]):
        with pytest.raises(ValueError, match="times"):
            deform_mesh(ConstantField([0, 0, 0]), mesh, times, 4, norm)
    with pytest.raises(ValueError, match="steps"):
        deform_mesh(ConstantField([0, 0, 0]), mesh, [0.5], 0, norm)


def test_deform_mesh_runs_one_pass_for_all_times():
    # Per time from t = 0 these would cost 18 + 6 + 12 + 6 = 42 steps; one
    # pass through 0.25, 0.5 and 0.75 costs 18.
    mesh = make_cube_mesh()
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    model = CountingField(LinearField(0.5))
    out = deform_mesh(model, mesh, [0.75, 0.25, 0.5, 0.25, 0.0], 24, norm)
    assert len(out) == 5
    assert model.calls == 18


def _deform_each_time(model, mesh, times, steps, norm):
    """The per-time reference: integrate from 0 to every t on its own."""
    out = []
    for t in times:
        if t == 0.0:
            out.append(mesh.vertices)
            continue
        seeds = norm.to_normalized(mesh.vertices)
        traj = integrate(model, seeds, 0.0, t, max(1, round(steps * t)))
        out.append(norm.to_world(traj.endpoints))
    return out


@pytest.mark.parametrize("model,steps", [
    (_small_model(np.float32), 24),
    (LinearField(0.7), 16),  # a dyadic grid: every boundary is exact in f64
], ids=["f32-model", "f64-linear"])
def test_deform_mesh_equals_per_time_integrate_on_the_step_grid(model, steps):
    mesh = icosphere(5.0, subdivisions=1)
    norm = DomainNormalizer((-8.0,) * 3, (8.0,) * 3)
    times = [k / steps for k in (18, 6, 12, 6, 0, steps, 1)]
    got = deform_mesh(model, mesh, times, steps, norm)
    ref = _deform_each_time(model, mesh, times, steps, norm)
    for deformed, want in zip(got, ref):
        assert np.array_equal(deformed.vertices, want)


def test_deform_mesh_single_off_grid_time_equals_integrate():
    mesh = icosphere(5.0, subdivisions=1)
    norm = DomainNormalizer((-8.0,) * 3, (8.0,) * 3)
    model = _small_model(np.float64)
    (got,) = deform_mesh(model, mesh, [0.3], 24, norm)
    (want,) = _deform_each_time(model, mesh, [0.3], 24, norm)
    assert np.array_equal(got.vertices, want)


# ------------------------------------------------------------- gradients

def test_endpoint_gradient_through_integration_matches_fd():
    sizes = field.default_layer_sizes(hidden_layers=2, hidden_width=8)
    model = field.init_weights(7, sizes, omega=3.0, dtype=np.float64)
    seeds = np.random.default_rng(11).uniform(-0.5, 0.5, (4, 3))
    targets = np.random.default_rng(12).uniform(-0.5, 0.5, (4, 3))

    def loss_value():
        with ad.Tape() as tape:
            path = euler_path(model, seeds, np.linspace(0.0, 1.0, 4))
            loss = mean_square(path[-1], targets)
        return float(loss.value)

    with ad.Tape() as tape:
        path = euler_path(model, seeds, np.linspace(0.0, 1.0, 4))
        loss = mean_square(path[-1], targets)
        tape.backward(loss)
        analytic = [w.grad.copy() for w in model.weights]
    for w, got in zip(model.weights, analytic):
        num = fd_grad(lambda: loss_value(), w.value, eps=1e-6)
        assert rel_err(got, num) < 1e-6


def test_seed_gradient_through_integration_matches_fd():
    sizes = field.default_layer_sizes(hidden_layers=2, hidden_width=8)
    model = field.init_weights(5, sizes, omega=3.0, dtype=np.float64)
    seeds = np.random.default_rng(4).uniform(-0.5, 0.5, (3, 3))

    def run(node=False):
        with ad.Tape() as tape:
            root = ad.constant(seeds)
            path = euler_path(model, root, np.linspace(0.0, 1.0, 5))
            loss = mean_square(path[-1])
            if node:
                tape.backward(loss)
                return root.grad.copy()
        return float(loss.value)

    analytic = run(node=True)
    numeric = fd_grad(lambda: run(), seeds, eps=1e-6)
    assert rel_err(analytic, numeric) < 1e-6


# ------------------------------------------------------------------- CSV

def test_trajectory_csv_round_trips_exact_floats(tmp_path):
    seeds = np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]])
    traj = integrate(ConstantField([0.25, 0, 0]), seeds, 0.0, 1.0, steps=2)
    norm = DomainNormalizer((0.0, -3.0, 1.0), (7.0, 5.0, 2.5))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(norm.to_world(traj.points), traj.times, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["point_id", "step", "t", "x", "y", "z"]
    assert len(rows) == 1 + 2 * 3
    got = np.array([[float(r[3]), float(r[4]), float(r[5])] for r in rows[1:]])
    assert np.array_equal(got.reshape(2, 3, 3),
                          norm.to_world(traj.points.reshape(-1, 3)).reshape(2, 3, 3))


def test_trajectory_csv_world_units(tmp_path):
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    traj = integrate(ConstantField([0.25, 0, 0]), np.zeros((1, 3)), 0.0, 1.0, 2)
    path = tmp_path / "traj_mm.csv"
    write_trajectory_csv(norm.to_world(traj.points), traj.times, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[-1][3]) == pytest.approx(2.0, abs=1e-12)
