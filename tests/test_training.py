"""Objective terms, Adam, the fit loop, config files, and loss reports."""
import json
import math
import tracemalloc

import numpy as np
import pytest

import cycleflow.autodiff as ad
from cycleflow import field
from cycleflow.errors import ConfigError, NumericalError, ValidationError
from cycleflow.training import (
    AdamState,
    FitConfig,
    FitReport,
    adam_step,
    fit,
    load_fit_config,
    read_loss_csv,
    sample_points,
    total_loss,
    write_fit_summary,
    write_loss_csv,
)
from cycleflow.flow import flow_at_frames
from cycleflow.volume import (GrowthPattern, Volume4D, make_sphere_series,
                              sample_trilinear)

from conftest import bias_model, fd_grad, rel_err


class ConstantField:
    dtype = np.float64

    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def __call__(self, x, t):
        return ad.constant(np.broadcast_to(self.v, x.value.shape).copy())


def flat_volume(levels, n=6):
    """Each frame is spatially constant, so trilinear sampling is exact."""
    frames = np.stack([np.full((n, n, n), c, dtype=np.float32) for c in levels])
    times = np.linspace(0.0, 1.0, len(levels))
    return Volume4D(frames, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), times)


def tiny_volume(seed=0, n_frames=3, n=6):
    rng = np.random.default_rng(seed)
    frames = rng.uniform(0.0, 1.0, (n_frames, n, n, n)).astype(np.float32)
    times = np.linspace(0.0, 1.0, n_frames)
    return Volume4D(frames, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), times)


def tiny_config(**kw):
    base = dict(epochs=3, points_per_epoch=16, hidden_layers=2, hidden_width=8)
    base.update(kw)
    return FitConfig(**base)


# ------------------------------------------------------------------ config

def test_fit_config_defaults():
    cfg = FitConfig()
    assert cfg.epochs == 1000
    assert cfg.points_per_epoch == 5000
    assert cfg.learning_rate == 3e-5
    assert cfg.omega == 6.0
    assert cfg.hidden_layers == 3
    assert cfg.hidden_width == 256
    assert cfg.cycle_weight == 1.0
    assert cfg.cycle_enabled is True
    assert cfg.time_encoding is True
    assert cfg.dtype == np.float32


def test_fit_config_validation():
    for bad in (
        dict(epochs=0),
        dict(seed=-1),
        dict(points_per_epoch=0),
        dict(learning_rate=0.0),
        dict(cycle_weight=-1.0),
        dict(omega=0.0),
        dict(steps_per_frame=0),
        dict(sampling="everywhere"),
        dict(sampling="foreground"),
        dict(hidden_layers=0),
        dict(hidden_width=0),
        dict(precision="f16"),
        dict(omega=math.nan),
        dict(omega=math.inf),
        dict(learning_rate=math.nan),
        dict(learning_rate=math.inf),
        dict(cycle_weight=math.nan),
        dict(cycle_weight=math.inf),
        dict(omega=1e-40),                      # init bound overflows f32
        dict(omega=5e-324),                     # init bound is inf
        dict(omega=1e-309, precision="f64"),    # init range overflows f64
    ):
        with pytest.raises(ValueError):
            FitConfig(**bad)


def test_precision_selects_dtype():
    assert FitConfig(precision="f64").dtype == np.float64


# ---------------------------------------------------------------- sampling

def test_sample_points_deterministic():
    vol = tiny_volume()
    a = sample_points(vol, 50, "uniform", seed=(3, 7))
    b = sample_points(vol, 50, "uniform", seed=(3, 7))
    c = sample_points(vol, 50, "uniform", seed=(3, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_points_uniform_in_cube():
    pts = sample_points(tiny_volume(), 500, "uniform", seed=1)
    assert pts.shape == (500, 3)
    assert pts.min() >= -1.0 and pts.max() <= 1.0


def test_sample_points_band_targets_soft_boundary():
    # Frame 0 is 1 in the +x half, 0 in the -x half, with one intermediate
    # slab at ix == 5; the band half of the batch must land on that slab.
    n = 9
    frames = np.zeros((2, n, n, n), dtype=np.float32)
    frames[:, :, :, 6:] = 1.0
    frames[:, :, :, 5] = 0.5
    vol = Volume4D(frames, (1.0,) * 3, (0.0,) * 3, [0.0, 1.0])
    pts = sample_points(vol, 200, "band", seed=2)
    band = pts[:100]
    # voxel ix == 5 of 9 maps to x = 0.25, jittered by half a voxel (0.125)
    assert band[:, 0].min() >= 0.25 - 0.126
    assert band[:, 0].max() <= 0.25 + 0.126
    assert np.abs(pts).max() <= 1.0


def test_sample_points_band_needs_intermediate_intensities():
    vol = flat_volume([0.0, 1.0])  # hard 0/1 framing, no ramp anywhere
    with pytest.raises(ValidationError, match="band"):
        sample_points(vol, 10, "band", seed=0)


def test_sample_points_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_points(tiny_volume(), 0, "uniform")
    with pytest.raises(ValueError):
        sample_points(tiny_volume(), 10, "everywhere")
    with pytest.raises(ValueError):
        sample_points(tiny_volume(), 10, "foreground")


# ------------------------------------------------------------- loss terms

def test_data_loss_on_flat_frames_is_exact():
    # Zero velocity keeps points still; constant frames make the trilinear
    # read exact, so the loss is sum_i (c_i - c_last)^2 in exact arithmetic.
    vol = flat_volume([0.25, 0.5, 1.0])
    pts = sample_points(vol, 8, "uniform", seed=0)
    _, data, _ = total_loss(ConstantField([0.0, 0.0, 0.0]), vol, pts)
    assert float(data.value) == (0.25 - 1.0) ** 2 + (0.5 - 1.0) ** 2


def test_cycle_loss_of_constant_field_is_speed_squared():
    # five frames give four Euler steps of 1/4 over the full period
    vol = flat_volume([0.5] * 5)
    pts = np.zeros((5, 3))
    _, _, cyc = total_loss(ConstantField([0.5, 0.0, -0.25]), vol, pts)
    assert float(cyc.value) == 0.5 ** 2 + 0.25 ** 2


def test_cycle_loss_of_still_field_is_zero():
    vol = flat_volume([0.25, 0.5, 1.0])
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (6, 3))
    _, _, cyc = total_loss(ConstantField([0.0, 0.0, 0.0]), vol, pts)
    assert float(cyc.value) == 0.0


def test_total_loss_zero_weight_equals_data_exactly():
    vol = tiny_volume()
    pts = sample_points(vol, 12, "uniform", seed=3)
    model = ConstantField([0.125, -0.25, 0.0625])
    total, data, cyc = total_loss(model, vol, pts, cycle_weight=0.0)
    assert cyc is not None
    assert float(total.value) == float(data.value)


def test_total_loss_disabled_cycle_returns_data_node():
    vol = tiny_volume()
    pts = sample_points(vol, 12, "uniform", seed=3)
    total, data, cyc = total_loss(ConstantField([0.1, 0.0, 0.0]), vol, pts,
                                  cycle_enabled=False)
    assert cyc is None
    assert total is data


def test_total_loss_matches_separate_terms():
    # Both terms recomputed from plain trajectories and plain sampling.
    vol = tiny_volume(seed=5, n_frames=4)
    pts = sample_points(vol, 10, "uniform", seed=9)
    model = ConstantField([0.125, -0.0625, 0.25])
    total, data, cyc = total_loss(model, vol, pts, cycle_weight=2.5)
    traj = flow_at_frames(model, pts, vol.frame_times)
    ref = sample_trilinear(vol.frames[-1], traj[:, -1])
    d = sum(np.mean((sample_trilinear(vol.frames[i], traj[:, i]) - ref) ** 2)
            for i in range(vol.n_frames - 1))
    c = np.mean(np.sum((pts - traj[:, -1]) ** 2, axis=1))
    assert float(data.value) == pytest.approx(d, rel=1e-12)
    assert float(cyc.value) == pytest.approx(c, rel=1e-12)
    assert float(total.value) == float(data.value) + 2.5 * float(cyc.value)


def test_total_loss_gradient_matches_fd():
    # End-to-end check through sampling, integration, and both loss terms.
    vol = tiny_volume(seed=2, n_frames=3, n=6)
    pts = sample_points(vol, 4, "uniform", seed=1)
    sizes = field.default_layer_sizes(hidden_layers=2, hidden_width=6)
    model = field.init_weights(3, sizes, omega=4.0, dtype=np.float64)

    def value():
        with ad.Tape():
            total, _, _ = total_loss(model, vol, pts, cycle_weight=0.7)
        return float(total.value)

    with ad.Tape() as tape:
        total, _, _ = total_loss(model, vol, pts, cycle_weight=0.7)
        tape.backward(total)
        grads = [p.grad.copy() for p in model.parameters]
    for p, got in zip(model.parameters, grads):
        num = fd_grad(lambda: value(), p.value, eps=1e-6)
        assert rel_err(got, num) < 1e-5


@pytest.mark.parametrize("cycle", [True, False], ids=["cycle", "no-cycle"])
def test_total_loss_seed_gradient_matches_fd(cycle):
    # the seeds reach the objective three ways: the Euler steps, the frame-0
    # read, and (with the cycle on) the cycle penalty's x0 - xN
    vol = tiny_volume(seed=4, n_frames=3, n=6)
    pts = sample_points(vol, 4, "uniform", seed=2)
    sizes = field.default_layer_sizes(hidden_layers=2, hidden_width=6)
    model = field.init_weights(6, sizes, omega=4.0, dtype=np.float64)

    def value():
        return float(total_loss(model, vol, pts, 0.7, cycle)[0].value)

    seeds = ad.constant(pts.copy())
    with ad.Tape() as tape:
        total, _, _ = total_loss(model, vol, seeds, 0.7, cycle)
        tape.backward(total)
    assert rel_err(seeds.grad, fd_grad(value, pts, eps=1e-6)) < 1e-5


@pytest.mark.filterwarnings("ignore:evaluating velocity field outside the slack")
@pytest.mark.parametrize("steps_per_frame", [1, 3])
def test_total_loss_refuses_positions_that_overflow_the_model_dtype(steps_per_frame):
    pattern = GrowthPattern("periodic", 4.0, amplitude_mm=1.0)
    vol, _ = make_sphere_series(pattern, 16, 1.0, 25, smoothing_mm=2.0)
    points = np.random.default_rng(0).uniform(-1.0, 1.0, (32, 3))
    model = bias_model(np.finfo(np.float32).max)
    with ad.Tape(), pytest.raises(NumericalError, match="non-finite position at step"):
        total_loss(model, vol, points, steps_per_frame=steps_per_frame)


@pytest.mark.parametrize("cycle", [True, False], ids=["cycle", "no-cycle"])
def test_total_loss_records_one_node_per_kernel(cycle):
    # per Euler step a field call and the step; one read per frame; one
    # objective: 2 * s * (N - 1) + N + 1 records
    n_frames, steps = 5, 2
    vol = tiny_volume(seed=1, n_frames=n_frames)
    model = field.init_weights(0, field.default_layer_sizes(1, 4), omega=3.0)
    pts = sample_points(vol, 6, "uniform", seed=0)
    with ad.Tape() as tape:
        total_loss(model, vol, pts, 0.5, cycle, steps_per_frame=steps)
        assert len(tape) == 2 * steps * (n_frames - 1) + n_frames + 1 == 22


# ------------------------------------------------------------------- Adam

def test_adam_single_step_hand_computed():
    p = np.array([1.0])
    state = AdamState.for_params([p])
    adam_step([p], [np.array([0.5])], state, lr=0.1)
    # Bias correction makes the first step lr * g / (|g| + eps).
    assert p[0] == pytest.approx(0.9, abs=1e-7)
    assert state.step == 1


def test_adam_constant_gradient_steps_are_lr_sized():
    p = np.array([0.0])
    g = np.array([2.0])
    state = AdamState.for_params([p])
    for k in range(3):
        adam_step([p], [g], state, lr=0.01)
        assert p[0] == pytest.approx(-0.01 * (k + 1), rel=1e-6)


def test_adam_updates_in_place_and_validates():
    p = np.zeros((2, 2))
    state = AdamState.for_params([p])
    ref = p
    adam_step([p], [np.ones((2, 2))], state, lr=0.1)
    assert ref is p and not np.array_equal(p, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        adam_step([p], [np.ones((2, 2)), np.ones(3)], state, lr=0.1)
    with pytest.raises(ValueError):
        adam_step([p], [np.ones(4)], state, lr=0.1)


# -------------------------------------------------------------------- fit

def test_fit_is_deterministic():
    vol = tiny_volume()
    cfg = tiny_config()
    m1, r1 = fit(vol, cfg)
    m2, r2 = fit(vol, cfg)
    assert r1.total_loss == r2.total_loss
    for a, b in zip(m1.parameters, m2.parameters):
        assert np.array_equal(a.value, b.value)


def test_fit_history_shapes_and_identity():
    vol = tiny_volume()
    _, rep = fit(vol, tiny_config(cycle_weight=0.5))
    assert rep.epochs == 3
    assert len(rep.data_loss) == len(rep.cycle_loss) == len(rep.total_loss) == 3
    for d, c, t in zip(rep.data_loss, rep.cycle_loss, rep.total_loss):
        assert math.isfinite(t)
        assert t == d + 0.5 * c


def test_fit_decreases_loss_on_easy_problem():
    # A strong static contrast (all frames equal) is fit by the zero flow,
    # so a short run must reduce the loss from its random start.
    rng = np.random.default_rng(7)
    frame = rng.uniform(0.0, 1.0, (6, 6, 6)).astype(np.float32)
    vol = Volume4D(np.stack([frame] * 3), (1.0,) * 3, (0.0,) * 3, [0.0, 0.5, 1.0])
    _, rep = fit(vol, tiny_config(epochs=60, learning_rate=1e-3, seed=4))
    assert rep.total_loss[-1] < rep.total_loss[0]


def test_fit_without_cycle_flags_ignored_weight():
    vol = tiny_volume()
    _, rep = fit(vol, tiny_config(cycle_enabled=False, cycle_weight=2.0))
    assert rep.cycle_weight_ignored is True
    assert rep.cycle_loss == [0.0, 0.0, 0.0]


def test_fit_raises_on_non_finite_loss():
    vol = tiny_volume()
    vol.frames[:] = np.nan
    with pytest.raises(NumericalError, match="non-finite loss at epoch 0"):
        fit(vol, tiny_config())


def test_fit_raises_when_adam_overflows_the_weights():
    # a step of 1e308 is past float32's range
    with pytest.raises(NumericalError, match="non-finite weights after epoch 0"):
        fit(tiny_volume(), tiny_config(learning_rate=1e308))


@pytest.mark.parametrize("key", ["hidden_width", "points_per_epoch", "epochs",
                                 "steps_per_frame", "hidden_layers"])
def test_fit_config_rejects_counts_past_the_array_dimension_limit(key):
    with pytest.raises(ConfigError, match=f"{key} must be at most"):
        tiny_config(**{key: 2 ** 63})


def _fit_peak_bytes(epochs):
    vol = tiny_volume(n_frames=9, n=16)
    cfg = tiny_config(epochs=epochs, points_per_epoch=500, hidden_width=64)
    tracemalloc.start()
    try:
        fit(vol, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_holds_one_epochs_graph_at_a_time():
    # the losses kept per epoch must not pin that epoch's graph (saved
    # phases of every field call) through the next one
    assert _fit_peak_bytes(3) <= 1.2 * _fit_peak_bytes(1)


def test_one_acceptance_scale_step_peaks_under_100_mb():
    # a fit holds every Euler step's saved activations until the backward:
    # one phase per hidden layer, 2000 x 128 float32 each
    pattern = GrowthPattern("periodic", 19.0, amplitude_mm=0.75)
    vol, _ = make_sphere_series(pattern, 48, 1.0, 25, smoothing_mm=4.0)
    model = field.init_weights(1, field.default_layer_sizes(3, 128), omega=6.0,
                               dtype=np.float32)
    pts = sample_points(vol, 2000, "band", seed=(1, 0))
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            total, _, _ = total_loss(model, vol, pts, 2.0, True)
            tape.backward(total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100e6


def test_one_acceptance_scale_step_peaks_under_60_mb():
    # of the three hidden phases per field call only layers 2 and 3's are
    # saved; the backward rebuilds layer 1's from the 5-wide input (79.9 MB
    # when all three were kept)
    pattern = GrowthPattern("periodic", 19.0, amplitude_mm=0.75)
    vol, _ = make_sphere_series(pattern, 48, 1.0, 25, smoothing_mm=4.0)
    model = field.init_weights(1, field.default_layer_sizes(3, 128), omega=6.0,
                               dtype=np.float32)
    pts = sample_points(vol, 2000, "band", seed=(1, 0))
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            total, _, _ = total_loss(model, vol, pts, 2.0, True)
            tape.backward(total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_a_steady_epoch_on_one_tape_allocates_under_10_mb():
    # a fit's tape keeps every taped field call's phases for the next epoch,
    # which writes into them instead of allocating 72 MB of fresh arrays;
    # its loss and gradients keep a fresh model's bits on a fresh tape
    pattern = GrowthPattern("periodic", 19.0, amplitude_mm=0.75)
    vol, _ = make_sphere_series(pattern, 48, 1.0, 25, smoothing_mm=4.0)

    def model():
        return field.init_weights(1, field.default_layer_sizes(3, 128), omega=6.0,
                                  dtype=np.float32)

    def epoch(model, tape, seed):
        pts = sample_points(vol, 2000, "band", seed=(1, seed))
        with tape:
            total, _, _ = total_loss(model, vol, pts, 2.0, True)
            tape.backward(total)
        return [total.value, *(p.grad for p in model.parameters)]

    warm, tape = model(), ad.Tape()
    epoch(warm, tape, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = epoch(warm, tape, 1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    want = epoch(model(), ad.Tape(), 1)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


# ----------------------------------------------------------- config files

def test_load_fit_config_file_and_overrides(tmp_path):
    path = tmp_path / "fit.cfg"
    path.write_text(
        "# training setup\n"
        "epochs = 12\n"
        "learning_rate = 1e-4   # inline comment\n"
        "sampling = band\n"
        "time_encoding = off\n"
        "\n"
        "cycle_weight = 0.25\n"
    )
    cfg = load_fit_config(path, overrides={"epochs": 5, "seed": None})
    assert cfg.epochs == 5          # override wins
    assert cfg.learning_rate == 1e-4
    assert cfg.sampling == "band"
    assert cfg.time_encoding is False
    assert cfg.cycle_weight == 0.25
    assert cfg.seed == 0            # None override skipped -> default


def test_load_fit_config_defaults_without_file():
    assert load_fit_config() == FitConfig()


def test_load_fit_config_unknown_key(tmp_path):
    path = tmp_path / "fit.cfg"
    path.write_text("momentum = 0.9\n")
    with pytest.raises(ConfigError, match=r"fit\.cfg:1.*momentum"):
        load_fit_config(path)
    with pytest.raises(ConfigError, match="momentum"):
        load_fit_config(None, overrides={"momentum": 0.9})


def test_load_fit_config_bad_values(tmp_path):
    path = tmp_path / "fit.cfg"
    path.write_text("epochs = soon\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_fit_config(path)
    path.write_text("cycle_enabled = maybe\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_fit_config(path)
    path.write_text("epochs\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_fit_config(path)
    path.write_text("epochs = 0\n")
    with pytest.raises(ConfigError):
        load_fit_config(path)


# ---------------------------------------------------------------- reports

def test_loss_csv_round_trips_and_is_deterministic(tmp_path):
    vol = tiny_volume()
    _, rep = fit(vol, tiny_config())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_loss_csv(rep, p1)
    write_loss_csv(rep, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "epoch,data_loss,cycle_loss,total_loss"
    assert len(lines) == 1 + rep.epochs
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[3]) == rep.total_loss[0]


def test_read_loss_csv_gives_back_the_reports_floats_bit_for_bit(tmp_path):
    # repr round-trips every float64; the extremes are the risky ones
    report = FitReport(data_loss=[0.1, 1 / 3, 5e-324, 1.7976931348623157e308],
                       cycle_loss=[0.0, 2.5e-8, math.pi, 2.0 ** -1022],
                       total_loss=[0.1 + 0.2, math.e, 1e-300, 123456789.123456789],
                       config=FitConfig())
    path = tmp_path / "loss.csv"
    write_loss_csv(report, path)
    epoch, data, cycle, total = read_loss_csv(path)
    assert epoch.tolist() == [0.0, 1.0, 2.0, 3.0]
    for got, want in [(data, report.data_loss), (cycle, report.cycle_loss),
                      (total, report.total_loss)]:
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_fit_summary_json(tmp_path):
    vol = tiny_volume()
    _, rep = fit(vol, tiny_config(cycle_enabled=False))
    path = tmp_path / "summary.json"
    write_fit_summary(rep, path)
    data = json.loads(path.read_text())
    assert data["epochs"] == 3
    assert data["final_total_loss"] == rep.total_loss[-1]
    assert data["config"]["hidden_width"] == 8
    assert data["cycle_weight_ignored"] is True
