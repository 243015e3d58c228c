import math
import threading

import numpy as np
import pytest

import cycleflow.autodiff as ad
from cycleflow.errors import FormatError
from cycleflow.field import (VelocityFieldModel, default_layer_sizes,
                             encode_time, init_weights, load_checkpoint,
                             save_checkpoint, velocity)
from conftest import BAD_CHECKPOINTS, fd_grad, rel_err, rewrite_container


def tiny_model(seed=0, time_encoding=True, dtype=np.float64, width=8, layers=2):
    sizes = default_layer_sizes(layers, width, time_encoding)
    return init_weights(seed, sizes, omega=6.0, time_encoding=time_encoding,
                        dtype=dtype)


# --- time encoding --------------------------------------------------------


def test_encode_time_anchors():
    assert encode_time(0.0, 1.0) == (1.0, 0.0)
    assert encode_time(1.0, 1.0) == (1.0, 0.0)
    c, s = encode_time(0.25, 1.0)
    assert abs(c) < 1e-15 and s == pytest.approx(1.0, abs=1e-15)


def test_encode_time_wraps_bit_identically():
    # dyadic times survive adding the period without any rounding, so the
    # encoder must see identical inputs and produce identical bits
    for k in range(0, 1024, 37):
        t = k / 1024.0
        assert encode_time(t, 1.0) == encode_time(t + 1.0, 1.0)
        assert encode_time(t, 1.0) == encode_time(t - 1.0, 1.0)


def test_encode_time_on_unit_circle():
    rng = np.random.default_rng(5)
    for t in rng.uniform(-3, 3, size=200):
        c, s = encode_time(float(t), 1.0)
        assert abs(c * c + s * s - 1.0) < 1e-12


def test_encode_time_rejects_bad_period():
    with pytest.raises(ValueError):
        encode_time(0.5, 0.0)
    with pytest.raises(ValueError):
        encode_time(0.5, -1.0)


# --- initialization -------------------------------------------------------


def test_init_is_deterministic():
    a = tiny_model(seed=42)
    b = tiny_model(seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa.value, wb.value)


def test_different_seeds_differ():
    a = tiny_model(seed=1)
    b = tiny_model(seed=2)
    assert any(not np.array_equal(wa.value, wb.value)
               for wa, wb in zip(a.weights, b.weights))


def test_init_weight_bounds():
    model = init_weights(0, default_layer_sizes(3, 256), omega=6.0)
    first = model.weights[0].value
    assert np.abs(first).max() <= 1.0 / 5.0
    for w in model.weights[1:]:
        fan_in = w.value.shape[0]
        assert np.abs(w.value).max() <= math.sqrt(6.0 / fan_in) / 6.0
    for b in model.biases:
        assert np.array_equal(b.value, np.zeros_like(b.value))


def test_default_layer_sizes():
    assert default_layer_sizes(3, 256, True) == [5, 256, 256, 256, 3]
    assert default_layer_sizes(3, 256, False) == [4, 256, 256, 256, 3]


# --- forward pass ---------------------------------------------------------


def test_velocity_output_shape():
    model = tiny_model()
    pts = np.zeros((7, 3))
    assert velocity(model, pts, 0.3).shape == (7, 3)


def test_batch_equals_per_point():
    model = tiny_model(seed=3)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(10, 3))
    batched = velocity(model, pts, 0.7)
    for i in range(10):
        single = velocity(model, pts[i:i + 1], 0.7)
        # semantically identical; BLAS may reorder sums across batch shapes
        assert np.allclose(batched[i], single[0], rtol=1e-12, atol=1e-14)


def test_velocity_periodic_in_time():
    model = tiny_model(seed=4)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(16, 3))
    for k in (0, 13, 511, 1023):
        t = k / 1024.0
        assert np.array_equal(velocity(model, pts, t),
                              velocity(model, pts, t + 1.0))


def test_raw_time_mode_is_not_periodic():
    model = tiny_model(seed=4, time_encoding=False)
    pts = np.array([[0.2, -0.1, 0.4]])
    assert not np.array_equal(velocity(model, pts, 0.0),
                              velocity(model, pts,  1.0))


def test_spatial_continuity():
    model = tiny_model(seed=9)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(50, 3))
    delta = 1e-6
    moved = velocity(model, pts + delta, 0.5)
    base = velocity(model, pts, 0.5)
    # smooth field: displacement response bounded by a modest Lipschitz factor
    assert np.abs(moved - base).max() < 1e-3


def test_rejects_wrong_input_width():
    model = tiny_model()
    with pytest.raises(ValueError):
        model(np.zeros((2, 4)), 0.0)


def test_rejects_nonfinite_points():
    model = tiny_model()
    with pytest.raises(ValueError, match="non-finite"):
        model(np.array([[np.nan, 0.0, 0.0]]), 0.0)


def test_warns_outside_slack_domain():
    model = tiny_model()
    with pytest.warns(RuntimeWarning):
        model(np.array([[2.0, 0.0, 0.0]]), 0.0)


def test_other_threads_do_not_record_on_an_active_tape():
    model = tiny_model(seed=5)
    pts = np.zeros((4, 3))
    results = []
    worker = threading.Thread(
        target=lambda: results.append(velocity(model, pts, 0.25)))
    with ad.Tape() as tape:
        model(pts, 0.25)
        recorded = len(tape)
        worker.start()
        worker.join()
        assert len(tape) == recorded
    assert np.array_equal(results[0], velocity(model, pts, 0.25))


def test_model_validates_construction():
    with pytest.raises(ValueError, match="input width"):
        VelocityFieldModel([np.zeros((3, 8)), np.zeros((8, 3))],
                           [np.zeros(8), np.zeros(3)], omega=6.0)
    with pytest.raises(ValueError, match="3 velocity components"):
        VelocityFieldModel([np.zeros((5, 8)), np.zeros((8, 2))],
                           [np.zeros(8), np.zeros(2)], omega=6.0)
    with pytest.raises(ValueError, match="finite"):
        VelocityFieldModel([np.full((5, 8), np.nan), np.zeros((8, 3))],
                           [np.zeros(8), np.zeros(3)], omega=6.0)
    with pytest.raises(ValueError, match="omega"):
        VelocityFieldModel([np.zeros((5, 8)), np.zeros((8, 3))],
                           [np.zeros(8), np.zeros(3)], omega=0.0)


def test_mean_speed_gradient_matches_fd():
    model = tiny_model(seed=11, width=6, layers=2)
    pts = np.random.default_rng(4).uniform(-0.8, 0.8, size=(5, 3))

    def loss_value():
        out = model(pts, 0.4)
        return float(ad.mse(out, ad.constant(np.zeros_like(out.value))).value)

    with ad.Tape() as tape:
        out = model(pts, 0.4)
        tape.backward(ad.mse(out, ad.constant(np.zeros_like(out.value))))

    for p in model.parameters:
        num = fd_grad(loss_value, p.value, eps=1e-6)
        assert rel_err(p.grad, num) < 1e-5


# --- checkpoint container -------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = tiny_model(seed=21, dtype=np.float32)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for wa, wb in zip(model.weights, loaded.weights):
        assert np.array_equal(wa.value, wb.value)
    assert loaded.omega == model.omega
    assert loaded.period == model.period
    assert loaded.time_encoding == model.time_encoding


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXXXXXX" + b"\x00" * 16)
    with pytest.raises(FormatError, match="offset 0"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    model = tiny_model(seed=21, dtype=np.float32)
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    model = tiny_model(seed=21, dtype=np.float32)
    path = tmp_path / "trail.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_checkpoint_malformed_header_or_weights(tmp_path, case):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model(seed=21, dtype=np.float32), path)
    rewrite_container(path, path, **BAD_CHECKPOINTS[case])
    with pytest.raises(FormatError):
        load_checkpoint(path)

