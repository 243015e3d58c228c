"""Euler integration: exactness on analytic fields, convergence order,
composition, frame-time alignment, mesh advection, and gradient flow
through the unrolled recursion."""
import csv
import math

import numpy as np
import pytest

import cycleflow.autodiff as ad
from cycleflow import field
from cycleflow.errors import NumericalError
from cycleflow.flow import (
    Trajectory,
    deform_mesh,
    euler_path,
    flow_at_frames,
    flow_at_frames_nodes,
    frame_step_times,
    integrate,
    inverse_map,
    write_trajectory_csv,
)
from cycleflow.mesh import TriangleMesh
from cycleflow.volume import DomainNormalizer

from conftest import fd_grad, make_cube_mesh, rel_err


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
        return ad.scale(x, self.a)


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
    assert traj.n_points == 2
    assert traj.n_steps == 3
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
    with pytest.raises(ValueError):
        integrate(ConstantField([0, 0, 0]), [[0.0, math.nan, 0.0]], 0.0, 1.0, 4)


def test_non_finite_velocity_raises():
    with pytest.raises(NumericalError, match="non-finite velocity at step"):
        integrate(NanAfterField(0.5), np.zeros((1, 3)), 0.0, 1.0, steps=4)


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


def test_frame_step_times_validation():
    with pytest.raises(ValueError):
        frame_step_times([0.0], 1)
    with pytest.raises(ValueError):
        frame_step_times([0.0, 0.5, 0.5], 1)
    with pytest.raises(ValueError):
        frame_step_times([0.0, 1.0], 0)


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


def test_flow_at_frames_nodes_returns_tape_free_nodes():
    nodes = flow_at_frames_nodes(ConstantField([0.5, 0, 0]), np.zeros((2, 3)),
                                 [0.0, 0.5, 1.0])
    assert len(nodes) == 3
    assert all(isinstance(n, ad.Node) for n in nodes)


# ------------------------------------------------------------ inverse map

def test_inverse_map_at_time_zero_is_copy():
    targets = np.random.default_rng(3).uniform(-1, 1, (4, 3))
    got = inverse_map(ConstantField([1, 1, 1]), targets, 0.0, steps=4)
    assert np.array_equal(got, targets)
    got[0, 0] = 99.0
    assert targets[0, 0] != 99.0


def test_inverse_map_undoes_constant_flow():
    seeds = np.array([[0.125, -0.25, 0.5]])
    model = ConstantField([0.25, 0.125, -0.5])
    fwd = integrate(model, seeds, 0.0, 0.75, steps=4)
    assert np.array_equal(inverse_map(model, fwd.endpoints, 0.75, 4), seeds)


# ----------------------------------------------------------- mesh advection

def test_deform_mesh_at_time_zero_is_identity_copy():
    mesh = make_cube_mesh(side=2.0, origin=(-1.0, -1.0, -1.0))
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    out = deform_mesh(ConstantField([1, 0, 0]), mesh, 0.0, 4, norm)
    assert np.array_equal(out.vertices, mesh.vertices)
    assert out.vertices is not mesh.vertices


def test_deform_mesh_translates_by_world_displacement():
    mesh = make_cube_mesh(side=2.0, origin=(-1.0, -1.0, -1.0))
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    # 0.25 normalized units * 8 mm half-extent = 2 mm, exact in binary.
    out = deform_mesh(ConstantField([0.25, 0.0, 0.0]), mesh, 1.0, 4, norm)
    assert np.array_equal(out.vertices, mesh.vertices + [2.0, 0.0, 0.0])
    assert np.array_equal(out.faces, mesh.faces)


def test_deform_mesh_radial_stub_matches_analytic_radius():
    # The pulsing field has a closed-form flow (pure radial scaling), so
    # vertex radii after integration have an exact oracle.
    from cycleflow.mesh import icosphere
    from conftest import RadialPulseField

    model = RadialPulseField(amp=0.1)
    norm = DomainNormalizer((-8.0,) * 3, (8.0,) * 3)
    mesh = icosphere(5.0, subdivisions=2)
    t = 0.25
    out = deform_mesh(model, mesh, t, steps=128, normalizer=norm)
    radii = np.linalg.norm(out.vertices, axis=1)
    expected = 5.0 * model.scale_factor(t)
    assert np.abs(radii - expected).max() / expected < 1e-3


def test_deform_mesh_warns_outside_bounds():
    mesh = make_cube_mesh(side=2.0, origin=(10.0, 0.0, 0.0))
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    with pytest.warns(RuntimeWarning, match="outside"):
        deform_mesh(ConstantField([0, 0, 0]), mesh, 0.5, 2, norm)


# ------------------------------------------------------------- gradients

def test_endpoint_gradient_through_integration_matches_fd():
    sizes = field.default_layer_sizes(hidden_layers=2, hidden_width=8)
    model = field.init_weights(7, sizes, omega=3.0, dtype=np.float64)
    seeds = np.random.default_rng(11).uniform(-0.5, 0.5, (4, 3))
    targets = np.random.default_rng(12).uniform(-0.5, 0.5, (4, 3))

    def loss_value():
        with ad.Tape() as tape:
            path = euler_path(model, seeds, np.linspace(0.0, 1.0, 4))
            loss = ad.mse(path[-1], ad.constant(targets))
        return float(loss.value)

    with ad.Tape() as tape:
        path = euler_path(model, seeds, np.linspace(0.0, 1.0, 4))
        loss = ad.mse(path[-1], ad.constant(targets))
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
            loss = ad.sum_all(ad.mul(path[-1], path[-1]))
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
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["point_id", "step", "t", "x", "y", "z"]
    assert len(rows) == 1 + 2 * 3
    got = np.array([[float(r[3]), float(r[4]), float(r[5])] for r in rows[1:]])
    assert np.array_equal(got.reshape(2, 3, 3), traj.points)


def test_trajectory_csv_world_units(tmp_path):
    norm = DomainNormalizer((-8.0, -8.0, -8.0), (8.0, 8.0, 8.0))
    traj = integrate(ConstantField([0.25, 0, 0]), np.zeros((1, 3)), 0.0, 1.0, 2)
    path = tmp_path / "traj_mm.csv"
    write_trajectory_csv(traj, path, normalizer=norm)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[-1][3]) == pytest.approx(2.0, abs=1e-12)
