import contextlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cycleflow
import cycleflow.autodiff as ad
from cycleflow import field
from cycleflow.errors import FormatError, NumericalError, ValidationError
from cycleflow.field import (VelocityFieldModel, default_layer_sizes,
                             encode_time, init_weights, load_checkpoint,
                             save_checkpoint, velocity)
from cycleflow.flow import euler_path
from conftest import (BAD_CHECKPOINTS, BLAS_THREAD_VARS, HEADER_ONLY, dot, fd_grad,
                      mean_square, position_error, rel_err, rewrite_container)


def tiny_model(seed=0, time_encoding=True, dtype=np.float64, width=8, layers=2):
    sizes = default_layer_sizes(layers, width, time_encoding)
    return init_weights(seed, sizes, omega=6.0, time_encoding=time_encoding,
                        dtype=dtype)


def one_pass(model, pts, t):
    """The untaped forward as plain expressions, in one pass over pts."""
    dt = model.dtype
    tcols = (np.array(encode_time(t), dt) if model.time_encoding
             else np.array([t], dt))
    h = np.concatenate([np.asarray(pts, dt), np.tile(tcols, (len(pts), 1))], axis=1)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.sin(model.omega * (h @ w.value + b.value))
    return h @ model.weights[-1].value + model.biases[-1].value


# --- time encoding --------------------------------------------------------


def test_encode_time_anchors():
    assert encode_time(0.0) == (1.0, 0.0)
    assert encode_time(1.0) == (1.0, 0.0)
    c, s = encode_time(0.25)
    assert abs(c) < 1e-15 and s == pytest.approx(1.0, abs=1e-15)


def test_encode_time_wraps_bit_identically():
    # dyadic times survive adding 1 without any rounding, so the
    # encoder must see identical inputs and produce identical bits
    for k in range(0, 1024, 37):
        t = k / 1024.0
        assert encode_time(t) == encode_time(t + 1.0)
        assert encode_time(t) == encode_time(t - 1.0)


@pytest.mark.parametrize("t", [-5e-324, -1e-20, -0.25, -1.0, -3.0])
def test_encode_time_wraps_negative_times_into_the_period_exactly(t):
    # a negative t whose wrap rounds up to 1, or lands on -0.0, still gives
    # the bytes of t + 1: angle +0.0 for both
    assert np.array(encode_time(t)).tobytes() == np.array(encode_time(t + 1.0)).tobytes()


def test_encode_time_on_unit_circle():
    rng = np.random.default_rng(5)
    for t in rng.uniform(-3, 3, size=200):
        c, s = encode_time(float(t))
        assert abs(c * c + s * s - 1.0) < 1e-12


def time_error(t, dtype=np.float64) -> str:
    """The one message refusing a time that is not finite in dtype."""
    return f"time must be finite in {np.dtype(dtype)}, got {t}"


@pytest.mark.parametrize("wrap", [encode_time, field.wrap_time], ids=["encode", "wrap"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_encode_time_refuses_a_non_finite_time(t, wrap):
    # refused before fmod: NaN would encode as (nan, nan), inf raise a math domain error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            wrap(t)
    assert str(info.value) == time_error(t)


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


def test_velocity_matches_a_layer_by_layer_reference():
    model = tiny_model(seed=8, layers=3)
    pts = np.random.default_rng(8).uniform(-1, 1, size=(6, 3))
    c, s = encode_time(0.35)
    h = np.concatenate([pts, np.tile([c, s], (6, 1))], axis=1)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.sin(6.0 * (h @ w.value + b.value))
    want = h @ model.weights[-1].value + model.biases[-1].value
    assert np.array_equal(velocity(model, pts, 0.35), want)
    with ad.Tape():
        assert np.array_equal(model(pts, 0.35).value, want)


@pytest.mark.parametrize("dtype,rows,width", [
    pytest.param(np.float32, 7, 16, id="float32"),
    pytest.param(np.float64, 7, 16, id="float64"),
    pytest.param(np.float32, 2000, 128, id="float32-2000x128"),
    pytest.param(np.float64, 2000, 128, id="float64-2000x128"),
])
def test_taped_call_matches_the_out_of_place_formula(dtype, rows, width):
    # the forward and backward passes work in place, in the row parts [:k]
    # and [k:], and the backward rebuilds each layer's input and slope from
    # its phase; outputs and gradients must equal the plain expressions,
    # which keep the slope from the forward, bit for bit, also at the fit's
    # BLAS shapes.  Each part sums its weight gradient as 256-row products
    # left to right, and part 2's parameter gradients are added to part 1's
    model = tiny_model(seed=9, dtype=dtype, width=width, layers=3)
    rng = np.random.default_rng(9)
    for b in model.biases:  # they start at zero
        b.value[:] = rng.uniform(-0.5, 0.5, b.value.shape)
    pts = rng.uniform(-1, 1, size=(rows, 3)).astype(dtype)
    up = rng.normal(size=(rows, 3)).astype(dtype)
    c, s = encode_time(0.6)
    h = np.concatenate([pts, np.tile(np.array([c, s], dtype), (rows, 1))], axis=1)
    saved = []
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        phase = model.omega * (h @ w.value + b.value)
        saved.append((h, model.omega * np.cos(phase)))
        h = np.sin(phase)
    want = h @ model.weights[-1].value + model.biases[-1].value

    def xtg(x, g):
        acc = x[:256].T @ g[:256]
        for s in range(256, len(x), 256):
            acc = acc + x[s:s + 256].T @ g[s:s + 256]
        return acc

    k = 256 * round(rows / 512)
    grads, g_pts = None, []
    for a, b in ([(0, k), (k, rows)] if 0 < k < rows else [(0, rows)]):
        part = [up[a:b].sum(axis=0), xtg(h[a:b], up[a:b])]
        g = up[a:b] @ model.weights[-1].value.T
        for (x, slope), w in zip(reversed(saved), reversed(model.weights[:-1])):
            g = g * slope[a:b]
            part += [g.sum(axis=0), xtg(x[a:b], g)]
            g = g @ w.value.T
        g_pts.append(g[:, :3])
        grads = part if grads is None else [p + q for p, q in zip(grads, part)]

    points = ad.constant(pts)
    with ad.Tape() as tape:
        out = model(points, 0.6)
        tape.backward(dot(out, up))
    assert np.array_equal(out.value, want)
    assert np.array_equal(points.grad, np.concatenate(g_pts))
    for p, want_grad in zip(model.parameters, reversed(grads)):
        assert np.array_equal(p.grad, want_grad)


def test_velocity_is_in_the_model_dtype():
    pts = np.random.default_rng(6).uniform(-1, 1, size=(9, 3))
    assert pts.dtype == np.float64
    model32 = tiny_model(seed=2, dtype=np.float32)
    v = velocity(model32, pts, 0.3)
    assert v.dtype == np.float32
    assert np.array_equal(v, velocity(model32, pts.astype(np.float32), 0.3))
    assert velocity(tiny_model(seed=2), pts, 0.3).dtype == np.float64


def test_rejects_wrong_input_width():
    model = tiny_model()
    with pytest.raises(ValueError):
        model(np.zeros((2, 4)), 0.0)


def test_rejects_nonfinite_points():
    model = tiny_model()
    with pytest.raises(ValidationError) as info:
        model(np.array([[np.nan, 0.0, 0.0]]), 0.0)
    assert str(info.value) == position_error(np.float64)


# NaN and inf in both time modes, and a raw time past the model's dtype, which
# would enter the network as inf (an encoded one is wrapped in float64 first)
NON_FINITE_TIMES = [(t, te, dt) for t in (math.nan, math.inf, -math.inf)
                    for te in (True, False) for dt in (np.float32, np.float64)]
NON_FINITE_TIMES.append((1e39, False, np.float32))


@pytest.mark.parametrize("t,time_encoding,dtype", NON_FINITE_TIMES, ids=[
    f"{t}-{'encoded' if te else 'raw-time'}-{np.dtype(dt)}" for t, te, dt in NON_FINITE_TIMES])
def test_velocity_refuses_a_non_finite_time(t, time_encoding, dtype):
    # refused before either mode builds its time columns: NaN would give NaN
    # velocities, inf a math domain error (encoded) or invalid-value warnings (raw)
    model = tiny_model(time_encoding=time_encoding, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            velocity(model, np.zeros((3, 3)), t)
    assert str(info.value) == time_error(t, np.float64 if time_encoding else dtype)


# one model per time mode and dtype; coordinates are drawn over the model
# dtype's whole finite range, where a finite input can overflow the first
# layer's phase (from about 3e38 in a float32 model)
_INPUT_MODELS = {(te, dt): tiny_model(seed=3, time_encoding=te, dtype=dt)
                 for te in (True, False) for dt in (np.float32, np.float64)}
# 1e39 and 1e300 are past float32; 3e38 is not, but overflows its first layer
_SPECIAL = [math.nan, math.inf, -math.inf, 1e39, -1e39, 1e300, 3e38, -3e38]
_COORDINATES = {dt: st.one_of(st.floats(-float(np.finfo(dt).max), float(np.finfo(dt).max)),
                              st.sampled_from(_SPECIAL)) for dt in (np.float32, np.float64)}
_TIMES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e39, -1e39, 1e300]))


# 300 examples: about one in five reaches the network, some of those past its range
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(key=st.sampled_from(list(_INPUT_MODELS)), as_node=st.booleans(), t=_TIMES,
       data=st.data())
def test_the_field_gives_finite_velocities_or_the_one_input_error(key, as_node, t, data):
    model, coordinate = _INPUT_MODELS[key], _COORDINATES[key[1]]
    rows = data.draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                              min_size=1, max_size=4))
    pts = np.array(rows, dtype=np.float64)
    t_dtype = np.float64 if model.time_encoding else model.dtype
    with np.errstate(over="ignore"):
        pts_fit = np.isfinite(pts.astype(model.dtype)).all()
        t_fit = np.isfinite(np.dtype(t_dtype).type(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not pts_fit:  # positions are checked first
            with pytest.raises(ValidationError) as info:
                model(ad.constant(pts) if as_node else pts, t)
            assert str(info.value) == position_error(model.dtype)
        elif not t_fit:
            with pytest.raises(ValueError) as info:
                model(ad.constant(pts) if as_node else pts, t)
            assert str(info.value) == time_error(t, t_dtype)
        else:  # finite velocities, or one error when a layer overflows
            try:
                v = model(ad.constant(pts) if as_node else pts, t).value
            except NumericalError as exc:
                assert str(exc) == f"non-finite velocity in {np.dtype(model.dtype)} at t={t}"
            else:
                assert v.shape == pts.shape and v.dtype == model.dtype
                assert np.isfinite(v).all()


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_a_velocity_that_overflows_the_model_dtype_is_one_numerical_error(taped):
    # 3e38 is finite in float32, so positions passes it, but the first
    # layer's phase overflows and its sine is NaN: refused without a warning
    model = tiny_model(dtype=np.float32)
    with warnings.catch_warnings(), ad.Tape() if taped else contextlib.nullcontext():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as info:
            velocity(model, np.full((1, 3), 3e38), 0.3)
    assert str(info.value) == "non-finite velocity in float32 at t=0.3"


def test_warns_outside_slack_domain():
    # an Euler pass scans each position it evaluates the field at, and warns
    # once per pass, though all four of them lie past the slack
    model = tiny_model()
    outside = np.array([[2.0, 0.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="slack domain") as record:
        euler_path(model, outside, np.linspace(0.0, 1.0, 5))
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model(outside, 0.0)  # a field call alone scans nothing


def test_other_threads_do_not_record_on_an_active_tape():
    model = tiny_model(seed=5)
    pts = np.zeros((4, 3))
    results = []
    worker = threading.Thread(
        target=lambda: results.append(velocity(model, pts, 0.25)))
    with ad.Tape() as tape:
        model(pts, 0.25)
        assert len(tape) == 1  # the whole network is one node
        worker.start()
        worker.join()
        assert len(tape) == 1
    assert np.array_equal(results[0], velocity(model, pts, 0.25))


# --- row parts of a call, and the pool thread -------------------------------


@pytest.fixture
def pool_on(monkeypatch):
    """Run the second part of a split call on the pool thread, as the field
    does wherever NumPy's OpenBLAS exports set_num_threads."""
    monkeypatch.setattr(field, "_PARALLEL", True)


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to two threads through its export, whatever the
    environment asked for; the count it had comes back afterwards."""
    before = field.openblas("get_num_threads")
    if before is None:
        pytest.skip("NumPy's BLAS is not OpenBLAS")
    field.openblas("set_num_threads", 2)
    yield
    field.openblas("set_num_threads", before)

_SPLIT_MODELS = {"f32": dict(dtype=np.float32), "f64": dict(dtype=np.float64),
                 "raw-time": dict(dtype=np.float32, time_encoding=False)}


@pytest.mark.parametrize("kind", list(_SPLIT_MODELS))
@pytest.mark.parametrize("rows", [500, 1024, 1025, 2048, 2049, 2562, 8191, 8192,
                                  8193, 16383, 110592])
def test_untaped_call_is_bit_equal_to_the_never_split_taped_call(rows, kind,
                                                                  monkeypatch):
    # a call's bits depend on its row count alone: the reference is one plain
    # pass over each 1024-row slice of the parts [:k] and [k:], k = 256 *
    # round(rows / 512), with the pool thread on and off; 128 wide, as the
    # acceptance networks are; one hidden layer keeps the 110592-row float64
    # reference small
    layers = 1 if rows == 110592 else 2
    model = tiny_model(seed=12, width=128, layers=layers, **_SPLIT_MODELS[kind])
    pts = np.random.default_rng(rows).uniform(-1, 1, size=(rows, 3))
    k = 256 * round(rows / 512)
    want = np.concatenate([one_pass(model, part[s:s + 1024], 0.4)
                           for part in (pts[:k], pts[k:]) for s in range(0, len(part), 1024)])
    for parallel in (False, True):
        monkeypatch.setattr(field, "_PARALLEL", parallel)
        got = velocity(model, pts, 0.4)
        assert got.dtype == want.dtype == model.dtype
        assert np.array_equal(got, want)


class SpyPool:
    """Stands in for the field's worker pool and records each submission."""

    def __init__(self, pool):
        self.pool, self.submitted = pool, []

    def submit(self, fn, *args):
        _, start, stop = args
        self.submitted.append(stop - start)  # rows of the worker's part
        return self.pool.submit(fn, *args)


def test_split_calls_submit_to_the_pool_only_with_one_blas_thread(monkeypatch):
    spy = SpyPool(field._pool)
    monkeypatch.setattr(field, "_pool", spy)
    model = tiny_model(seed=13, width=16)
    rng = np.random.default_rng(13)

    def calls():
        # every call splits at 256*round(rows/512)
        for rows in (255, 256, 512, 2000):
            with ad.Tape() as tape:
                out = model(rng.uniform(-1, 1, size=(rows, 3)), 0.1)
                tape.backward(dot(out, 1.0))
        for rows in (2562, 8191, 8192, 9001):
            velocity(model, rng.uniform(-1, 1, size=(rows, 3)), 0.1)

    monkeypatch.setattr(field, "_PARALLEL", False)
    calls()
    assert spy.submitted == []
    monkeypatch.setattr(field, "_PARALLEL", True)
    calls()
    # each taped call submits its forward part, then its backward part
    assert spy.submitted == [256, 256, 976, 976, 1282, 4095, 4096, 4393]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_taped_call_has_the_same_bits_on_the_pool_and_in_turn(dtype, monkeypatch):
    model = tiny_model(seed=18, dtype=dtype, width=128, layers=3)
    rng = np.random.default_rng(18)
    pts = rng.uniform(-1, 1, size=(2000, 3)).astype(dtype)
    up = rng.normal(size=(2000, 3)).astype(dtype)
    runs = []
    for parallel in (False, True):
        monkeypatch.setattr(field, "_PARALLEL", parallel)
        points = ad.constant(pts)
        for p in model.parameters:
            p.grad = None
        with ad.Tape() as tape:
            out = model(points, 0.45)
            tape.backward(dot(out, up))
        runs.append([out.value, points.grad, *(p.grad for p in model.parameters)])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


# --- a taped call's arrays, reused from its tape -----------------------------


def _taped_step(model, tape, pts, up):
    """End positions and every gradient of three taped Euler steps on tape,
    as plain arrays: each step's call takes its arrays while the earlier
    calls still hold theirs."""
    points = ad.constant(pts)
    with tape:
        end = euler_path(model, points, np.linspace(0.0, 0.3, 4))[-1]
        tape.backward(dot(end, up))
    return [end.value, points.grad, *(p.grad for p in model.parameters)]


def _spare_ids(tape):
    return {id(a) for arrays in tape._spare.values() for a in arrays}


def _unequal_widths(dtype):
    """A 5 -> 16 -> 24 -> 3 model with nonzero biases, a 700-row batch (split
    as 256 + 444 rows) and an output gradient."""
    rng = np.random.default_rng(21)
    sizes = [(5, 16), (16, 24), (24, 3)]
    model = VelocityFieldModel([rng.uniform(-0.5, 0.5, s).astype(dtype) for s in sizes],
                               [rng.uniform(-0.5, 0.5, s[1]).astype(dtype) for s in sizes],
                               omega=6.0)
    pts = rng.uniform(-1, 1, size=(700, 3)).astype(dtype)
    return model, pts, rng.normal(size=(700, 3)).astype(dtype)


def _same_bits(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_warm_tape_gives_a_cold_tapes_bits_at_unequal_widths(dtype, pool_on):
    model, pts, up = _unequal_widths(dtype)
    cold = _taped_step(model, ad.Tape(), pts, up)
    tape = ad.Tape()
    _taped_step(model, tape, pts[::-1].copy(), up)  # other values, same shapes
    spare = _spare_ids(tape)
    # per call and part, one array per hidden phase past layer 1's; per part,
    # one flat array and one for layer 1's phase, which the backward rebuilds
    assert len(spare) == 3 * 2 * 1 + 2 + 2
    assert _same_bits(_taped_step(model, tape, pts, up), cold)
    assert _spare_ids(tape) == spare  # the warm call allocated none of its own


def test_a_taped_call_spares_no_first_layer_phase_but_the_rebuilt_one(pool_on):
    # the forward keeps no (rows, 16) phase of layer 1; the backward rebuilds
    # it into one array per part, which each later call's backward takes again
    model, pts, up = _unequal_widths(np.float32)
    tape = ad.Tape()
    _taped_step(model, tape, pts, up)
    shapes = [a.shape for arrays in tape._spare.values() for a in arrays]
    assert sorted(s for s in shapes if s[1:] == (16,)) == [(256, 16), (444, 16)]


def test_a_tape_entered_again_after_a_call_without_its_backward_gives_cold_bits(pool_on):
    model, pts, up = _unequal_widths(np.float32)
    cold = _taped_step(model, ad.Tape(), pts, up)
    tape = ad.Tape()
    _taped_step(model, tape, pts, up)
    with tape:  # an epoch that ends before its backward
        model(ad.constant(pts[::-1].copy()), 0.7)
    assert _same_bits(_taped_step(model, tape, pts, up), cold)


def test_a_failed_backward_gives_nothing_back(pool_on, monkeypatch):
    model, pts, up = _unequal_widths(np.float32)
    cold = _taped_step(model, ad.Tape(), pts, up)
    tape = ad.Tape()
    _taped_step(model, tape, pts, up)
    taken = []
    take = tape.take
    monkeypatch.setattr(tape, "take", lambda *a: taken.append(take(*a)) or taken[-1])

    def xtg_failing_on_the_pool_thread(x, g):
        if threading.current_thread().name.startswith("cycleflow-field"):
            raise FloatingPointError("backward part failed")
        return xtg(x, g)

    xtg = field._xtg
    monkeypatch.setattr(field, "_xtg", xtg_failing_on_the_pool_thread)
    with pytest.raises(FloatingPointError, match="part failed"):
        _taped_step(model, tape, pts[::-1].copy(), up)
    # every array the failed call wrote, in its forward or its backward,
    # left the tape's spares for good
    assert not _spare_ids(tape) & {id(a) for a in taken}
    monkeypatch.setattr(field, "_xtg", xtg)
    assert _same_bits(_taped_step(model, tape, pts, up), cold)


def _fresh_interpreter(first_import, env):
    """What a fresh interpreter sees that imports first_import, then
    cycleflow, with only env's BLAS thread variables set: those variables
    after the imports, field._PARALLEL, whether OpenBLAS exports
    set_num_threads, and the thread count OpenBLAS reports before a split
    call, inside each of its parts and after it."""
    code = (f"import json, os, {first_import}, cycleflow.field as f; "
            f"env = [os.environ.get(v) for v in {BLAS_THREAD_VARS}]; "
            "count = lambda *_: f.openblas('get_num_threads'); before = count(); "
            "inside = f._in_parts(count, 1, 2); print(json.dumps([env, f._PARALLEL, "
            "f._EXPORTS['set_num_threads'] is not None, before, inside, count()]))")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(cycleflow.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**base, "PYTHONPATH": src, **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_numpy_first_leaves_the_environment_alone():
    assert _fresh_interpreter("numpy", {})[0] == [None, None, None, None]


# (module imported first, BLAS thread variables): in each import order and
# setting, importing cycleflow sets no variable, and OpenBLAS runs one thread
# only inside a split call
THREAD_SETTINGS = {
    "cycleflow-unset": ("cycleflow", {}),
    "cycleflow-openblas-2": ("cycleflow", {"OPENBLAS_NUM_THREADS": "2"}),
    "cycleflow-openblas-empty": ("cycleflow", {"OPENBLAS_NUM_THREADS": ""}),
    "cycleflow-openblas-0": ("cycleflow", {"OPENBLAS_NUM_THREADS": "0"}),
    "numpy-unset": ("numpy", {}),
    "numpy-omp-1": ("numpy", {"OMP_NUM_THREADS": "1"}),
    "numpy-openblas-0-omp-1": ("numpy", {"OPENBLAS_NUM_THREADS": "0",
                                         "OMP_NUM_THREADS": "1"}),
    "numpy-goto-1": ("numpy", {"GOTO_NUM_THREADS": "1"}),
    "numpy-mkl-1-omp-2": ("numpy", {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}),
}


@pytest.mark.parametrize("setting", sorted(THREAD_SETTINGS))
def test_the_parts_share_the_cores_exactly_when_openblas_runs_one_thread(setting):
    first_import, env = THREAD_SETTINGS[setting]
    seen, parallel, exported, before, inside, after = _fresh_interpreter(first_import, env)
    assert seen == [env.get(v) for v in BLAS_THREAD_VARS]
    assert parallel == exported
    assert inside == ([1, 1] if parallel else [before, before])
    assert after == before


def _count_pins(monkeypatch):
    """The list of thread counts OpenBLAS reports inside each entry of the
    field's pin from now on."""
    counts, pin = [], field._one_blas_thread

    @contextlib.contextmanager
    def counted():
        with pin():
            counts.append(field.openblas("get_num_threads"))
            yield

    monkeypatch.setattr(field, "_one_blas_thread", counted)
    return counts


def _fit_and_eval(job):
    """Run job, "velocity", "fit" or "evaluate_fit", on small inputs whose
    field calls split."""
    pattern = cycleflow.GrowthPattern("periodic", 2.0, amplitude_mm=0.5)
    volume, meshes = cycleflow.make_sphere_series(pattern, 8, 1.0, 3, smoothing_mm=1.5)
    config = cycleflow.FitConfig(epochs=2, points_per_epoch=600, hidden_layers=1,
                                 hidden_width=16)
    if job == "velocity":
        velocity(tiny_model(seed=19, width=16), np.zeros((9000, 3)), 0.3)
    elif job == "fit":
        cycleflow.fit(volume, config)
    else:
        cycleflow.evaluate_fit(tiny_model(seed=19, width=16), volume, meshes)


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("job", ["velocity", "fit", "evaluate_fit"])
def test_the_blas_thread_count_comes_back_after_a_job(job, fails, two_blas_threads,
                                                      monkeypatch):
    counts = _count_pins(monkeypatch)
    if fails:
        layers = VelocityFieldModel._layers

        def layers_failing_on_the_pool_thread(self, *args):
            if threading.current_thread().name.startswith("cycleflow-field"):
                raise FloatingPointError("part failed")
            return layers(self, *args)

        monkeypatch.setattr(VelocityFieldModel, "_layers",
                            layers_failing_on_the_pool_thread)
        with pytest.raises(FloatingPointError, match="part failed"):
            _fit_and_eval(job)
    else:
        _fit_and_eval(job)
    assert counts and set(counts) == {1}
    assert field.openblas("get_num_threads") == 2


def test_the_worker_half_runs_under_the_callers_errstate(pool_on):
    # float32 weights of 1e38 overflow the first layer, and sin(inf) is
    # invalid: both halves run under the call's errstate, so neither warns
    # (a warning in the worker would come back as the error), and the NaN
    # velocities are refused once
    model = tiny_model(seed=14, dtype=np.float32, width=16)
    model.weights[0].value[:] = 1e38
    pts = np.random.default_rng(14).uniform(0.5, 1.0, size=(9000, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite velocity in float32 at t=0.2"):
            velocity(model, pts, 0.2)


def test_a_worker_error_is_raised_on_the_callers_thread(pool_on, two_blas_threads):
    model = tiny_model(seed=15, dtype=np.float32, width=16)
    layers = model._layers

    def failing_in_the_worker(h, out, take=None):
        if threading.current_thread().name.startswith("cycleflow-field"):
            raise FloatingPointError("worker")
        return layers(h, out, take)

    model._layers = failing_in_the_worker
    pts = np.random.default_rng(15).uniform(0.5, 1.0, size=(9000, 3))
    with pytest.raises(FloatingPointError, match="worker"):
        velocity(model, pts, 0.2)
    assert field.openblas("get_num_threads") == 2  # the pin let go
    # the pool is still usable afterwards
    model = tiny_model(seed=15, width=16)
    assert np.array_equal(velocity(model, pts, 0.2), one_pass(model, pts, 0.2))


def _pool_threads():
    return sum(t.name.startswith("cycleflow-field") for t in threading.enumerate())


def _put_result(queue, fn, args):
    queue.put(fn(*args))


def _in_forked_child(fn, *args):
    """fn(*args) as a forked child process computes it."""
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_put_result, args=(queue, fn, args))
    child.start()
    try:
        got = queue.get(timeout=60)  # drained before the join
        child.join(timeout=60)
        assert not child.is_alive()
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    return got


def test_a_forked_child_builds_its_own_pool(pool_on):
    model = tiny_model(seed=16, width=32)
    pts = np.random.default_rng(16).uniform(-1, 1, size=(9000, 3))
    want = velocity(model, pts, 0.7)
    assert _pool_threads() == 1  # the parent's worker thread is running
    assert np.array_equal(_in_forked_child(velocity, model, pts, 0.7), want)


def _counts_around_a_split_call(model, pts):
    """The BLAS thread count before a split call, inside its parts and after
    it, and the call's velocities."""
    before = field.openblas("get_num_threads")
    inside = field._in_parts(lambda a, b: field.openblas("get_num_threads"), 1, 2)
    v = velocity(model, pts, 0.7)
    return before, inside, field.openblas("get_num_threads"), v


def test_a_child_forked_inside_a_pin_splits_and_gets_the_count_back(pool_on,
                                                                     two_blas_threads):
    # the child has no holder of the parent's open pin: it starts at the
    # count that pin saved, and its own split call pins and lets go
    model = tiny_model(seed=16, width=32)
    pts = np.random.default_rng(16).uniform(-1, 1, size=(9000, 3))
    want = velocity(model, pts, 0.7)
    with field._one_blas_thread():
        before, inside, after, got = _in_forked_child(_counts_around_a_split_call,
                                                      model, pts)
        assert field.openblas("get_num_threads") == 1  # the parent's pin holds
    assert before == after == 2 and inside == [1, 1]
    assert np.array_equal(got, want)
    assert field.openblas("get_num_threads") == 2


def test_two_threads_split_at_once_with_serial_bits_and_the_count_back(
        pool_on, two_blas_threads, monkeypatch):
    # a third thread's BLAS calls run meanwhile, one-threaded while a pin holds
    model = tiny_model(seed=20, width=32)
    rng = np.random.default_rng(20)
    batches = [rng.uniform(-1, 1, size=(rows, 3)) for rows in (2000, 9000)]
    monkeypatch.setattr(field, "_PARALLEL", False)
    want = [velocity(model, pts, 0.6) for pts in batches]
    monkeypatch.setattr(field, "_PARALLEL", True)
    counts = _count_pins(monkeypatch)
    results, products, done = ([], []), [], threading.Event()
    square = rng.normal(size=(300, 300))

    def call(i):
        for _ in range(20):
            results[i].append(velocity(model, batches[i], 0.6))

    def multiply():
        while not done.is_set():
            products.append(np.matmul(square, square))

    workers = [threading.Thread(target=call, args=(i,)) for i in (0, 1)]
    third = threading.Thread(target=multiply)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so the pin's entries and exits interleave
    try:
        for t in (third, *workers):
            t.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        done.set()
        third.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not third.is_alive()
    assert all(np.array_equal(r, want[i]) for i in (0, 1) for r in results[i])
    assert len(counts) == 40 and set(counts) == {1}
    assert products
    assert field.openblas("get_num_threads") == 2


def test_concurrent_callers_share_one_worker_thread(pool_on):
    model = tiny_model(seed=17, width=32)
    pts = np.random.default_rng(17).uniform(-1, 1, size=(9000, 3))
    want = one_pass(model, pts, 0.9)
    results = [None] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run(i):
            results[i] = velocity(model, pts, 0.9)

        workers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert _pool_threads() == 1
    assert all(np.array_equal(r, want) for r in results)


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
    for omega in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="omega"):
            VelocityFieldModel([np.zeros((5, 8)), np.zeros((8, 3))],
                               [np.zeros(8), np.zeros(3)], omega=omega)
        # before any draw: an infinite omega would give NaN velocities, a NaN
        # one NumPy's OverflowError
        with warnings.catch_warnings(), pytest.raises(ValueError, match="omega"):
            warnings.simplefilter("error")
            init_weights(0, [5, 8, 3], omega=omega)


def test_mean_speed_gradient_matches_fd():
    model = tiny_model(seed=11, width=6, layers=2)
    pts = np.random.default_rng(4).uniform(-0.8, 0.8, size=(5, 3))

    def loss_value():
        out = model(pts, 0.4)
        return float(mean_square(out).value)

    points = ad.constant(pts)
    with ad.Tape() as tape:
        out = model(points, 0.4)
        tape.backward(mean_square(out))

    for p in model.parameters:
        num = fd_grad(loss_value, p.value, eps=1e-6)
        assert rel_err(p.grad, num) < 1e-5
    assert rel_err(points.grad, fd_grad(loss_value, pts, eps=1e-6)) < 1e-5


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
    assert loaded.time_encoding == model.time_encoding


def test_checkpoint_round_trip_keeps_f64(tmp_path):
    model = tiny_model(seed=21, dtype=np.float64)
    path = tmp_path / "a.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.dtype == np.float64
    for wa, wb in zip(model.parameters, loaded.parameters):
        assert np.array_equal(wa.value, wb.value)
    save_checkpoint(loaded, tmp_path / "b.ckpt")
    assert (tmp_path / "b.ckpt").read_bytes() == path.read_bytes()


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


@pytest.mark.parametrize("case", sorted(HEADER_ONLY & BAD_CHECKPOINTS.keys()))
def test_a_bad_checkpoint_header_is_reported_before_a_short_payload(tmp_path, case):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model(seed=21, dtype=np.float32), path)
    rewrite_container(path, path, **BAD_CHECKPOINTS[case])
    with pytest.raises(FormatError) as whole:
        load_checkpoint(path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError) as short:
        load_checkpoint(path)
    assert str(short.value) == str(whole.value)
