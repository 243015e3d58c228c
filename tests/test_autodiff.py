import weakref

import numpy as np
import pytest

import cycleflow.autodiff as ad
from cycleflow.field import default_layer_sizes, init_weights
from cycleflow.volume import _trilinear_kernel, gather_trilinear
from conftest import dot, mean_square


def tiny_model(seed):
    return init_weights(seed, default_layer_sizes(2, 6), omega=6.0,
                        dtype=np.float64)


def double(x):
    """A non-scalar tape node 2 * x."""
    return ad.record(x.value * 2.0, (x,), lambda g: (g * 2.0,))


# --- backward semantics ---------------------------------------------------


def test_backward_sum_gives_ones():
    x = ad.constant(np.arange(12.0).reshape(3, 4))
    with ad.Tape() as tape:
        tape.backward(dot(x, 1.0))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_requires_scalar_root():
    x = ad.constant(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = double(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)


def test_backward_requires_root_on_tape():
    x = ad.constant(np.ones(3))
    with ad.Tape() as tape:
        dot(x, 1.0)
    off_tape = dot(x, 1.0)  # recorded on no tape
    with pytest.raises(ValueError, match="not on this tape"):
        tape.backward(off_tape)


def test_unreachable_leaf_gets_exact_zero():
    x = ad.constant(np.ones(3))
    z = ad.constant(np.ones(3))
    with ad.Tape() as tape:
        root = dot(x, 1.0)
        dot(z, 1.0)  # unrelated subgraph on the same tape
        tape.backward(root)
    assert np.array_equal(z.grad, np.zeros(3))
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_is_linear():
    rng = np.random.default_rng(3)
    xv = rng.uniform(-0.5, 0.5, size=(4, 3))
    model = tiny_model(seed=3)
    a, b = 2.5, -1.25

    def grad_of(scale_f, scale_g):
        x = ad.constant(xv.copy())
        with ad.Tape() as tape:
            f = mean_square(x)
            g = mean_square(model(x, 0.3))
            root = ad.record(scale_f * f.value + scale_g * g.value, (f, g),
                             lambda r: (r * scale_f, r * scale_g))
            tape.backward(root)
        return x.grad

    combined = grad_of(a, b)
    expected = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    assert np.allclose(combined, expected, rtol=1e-12, atol=1e-12)


def test_replay_is_bit_identical():
    rng = np.random.default_rng(7)
    xv = rng.uniform(-0.5, 0.5, size=(5, 3))
    model = tiny_model(seed=7)

    def run():
        x = ad.constant(xv.copy())
        with ad.Tape() as tape:
            root = mean_square(model(x, 0.6))
            tape.backward(root)
        return [root.value.copy(), x.grad.copy()] + [
            p.grad.copy() for p in model.parameters]

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_tape_is_single_owner():
    with ad.Tape():
        with pytest.raises(RuntimeError, match="single-owner"):
            with ad.Tape():
                pass


def test_no_recording_outside_tape():
    x = ad.constant(np.ones((2, 2)))
    double(x)
    with ad.Tape() as tape:
        double(x)
        assert len(tape) == 1


def test_tape_clear_drops_nodes():
    # backward drops every record, and with it what the record saved
    saved = np.ones(3)
    freed = weakref.ref(saved)
    x = ad.constant(np.arange(3.0))
    with ad.Tape() as tape:
        root = dot(ad.record(x.value * saved, (x,),
                             lambda g, s=saved: (g * s,)), 1.0)
        del saved
        assert len(tape) == 2
        tape.backward(root)
        assert len(tape) == 0
    assert freed() is None
    assert np.array_equal(x.grad, np.ones(3))


def test_a_tape_hands_back_given_arrays_by_shape_and_dtype():
    tape = ad.Tape()
    a32, a64 = np.ones((4, 3), np.float32), np.ones((4, 3))
    tape.give([a32, a64])
    assert tape.take((4, 3), np.float64) is a64
    assert tape.take((4, 3), np.float32) is a32
    fresh = tape.take((4, 3), np.float32)  # none spare: a new array
    assert fresh is not a32 and fresh.shape == (4, 3) and fresh.dtype == np.float32
    assert tape.take((3, 4), np.float64).shape == (3, 4)
    # the arrays outlive an exit and serve the tape when it records again,
    # while each entry starts a new graph
    with tape:
        double(ad.constant(np.ones(2)))
    tape.give([a32])
    with tape:
        assert len(tape) == 0
        assert tape.take((4, 3), "float32") is a32


def test_a_failed_backward_leaves_no_records_for_the_next_in_the_same_entry():
    # a failed sweep must not leave the graph it did not reach, whose nodes
    # may hold a gradient that a later backward would pass into the weights
    model, x = tiny_model(2), ad.constant(np.linspace(-0.5, 0.5, 12).reshape(4, 3))

    def grads(tape):
        tape.backward(dot(model(x, 0.3), 1.0))
        return [p.grad for p in model.parameters]

    with ad.Tape() as tape:
        want = grads(tape)
    with ad.Tape() as tape:
        y = model(x, 0.3)
        f = ad.record(np.asarray(0.0), (y,), lambda g: 1 / 0)
        root = ad.record(np.asarray(y.value.sum()), (y, f),
                         lambda g: (np.ones_like(y.value), g))
        with pytest.raises(ZeroDivisionError):
            tape.backward(root)  # y holds a gradient when f's backward raises
        got = grads(tape)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


def test_repeated_backward_is_reproducible():
    # a spent tape refuses a second backward; recording again reproduces it
    def grad_on_a_fresh_tape():
        x = ad.constant(np.arange(4.0))
        with ad.Tape() as tape:
            root = mean_square(x)
            tape.backward(root)
            with pytest.raises(ValueError, match="not on this tape"):
                tape.backward(root)
        return x.grad

    g1 = grad_on_a_fresh_tape()
    assert np.array_equal(g1, 0.5 * np.arange(4.0))
    assert np.array_equal(g1, grad_on_a_fresh_tape())


def test_backward_skips_nodes_without_gradient_and_keeps_only_leaf_grads():
    x = ad.constant(np.arange(3.0))
    calls = []

    def never(g):
        calls.append(g)
        return (g,)

    with ad.Tape() as tape:
        sq = double(x)
        root = dot(sq, 1.0)
        side = ad.record(np.ones(3), (x,), never)  # the root does not use it
        tape.backward(root)
    assert calls == []
    assert sq.grad is None and root.grad is None and side.grad is None
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_f32_leaf_rounds_float64_contributions_into_f32_grad():
    frame = np.random.default_rng(1).uniform(0, 1, (4, 5, 6)).astype(np.float32)
    pts = np.random.default_rng(2).uniform(-0.9, 0.9, (7, 3)).astype(np.float32)
    x = ad.constant(pts)
    with ad.Tape() as tape:
        first = dot(gather_trilinear(frame, x), 1.0)
        second = dot(gather_trilinear(frame[::-1], x), 1.0)
        tape.backward(ad.record(first.value + second.value, (first, second),
                                lambda g: (g, g)))
    _, g1 = _trilinear_kernel(frame, pts, want_grad=True)
    _, g2 = _trilinear_kernel(frame[::-1], pts, want_grad=True)
    assert g1.dtype == np.float64 and x.grad.dtype == np.float32
    # the later-recorded gather writes first (cast), the earlier one is
    # added in float64 and rounded back, as an in-place += would
    assert np.array_equal(x.grad, (g2.astype(np.float32) + g1).astype(np.float32))
