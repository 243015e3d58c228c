import weakref

import numpy as np
import pytest

import cycleflow.autodiff as ad
from cycleflow.field import default_layer_sizes, init_weights
from cycleflow.volume import _trilinear_kernel, gather_trilinear
from conftest import fd_grad, rel_err


def tiny_model(seed):
    return init_weights(seed, default_layer_sizes(2, 6), omega=6.0,
                        dtype=np.float64)


def run_backward(build):
    """Execute build() under a fresh tape, run backward on its root."""
    with ad.Tape() as tape:
        root, leaves = build()
        tape.backward(root)
    return root, leaves


def check_op_grad(make_leaves, op, trials=20, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        arrays = make_leaves(rng)
        leaves = [ad.constant(a) for a in arrays]
        with ad.Tape() as tape:
            root = ad.sum_all(op(*leaves))
            tape.backward(root)
        for arr, leaf in zip(arrays, leaves):
            def f(leaf_arr=arr):
                fresh = [ad.constant(a) for a in arrays]
                return float(ad.sum_all(op(*fresh)).value)
            num = fd_grad(f, arr)
            assert rel_err(leaf.grad, num) < tol


# --- value semantics ------------------------------------------------------


def test_mse_values():
    a = ad.constant([1.0, 1.0])
    assert ad.mse(a, a).value == 0.0
    assert ad.mse(a, ad.constant([0.0, 0.0])).value == 1.0
    with pytest.raises(ValueError):
        ad.mse(a, ad.constant([0.0]))


def test_scale_values():
    x = ad.constant(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(ad.scale(x, 2.0).value, 2.0 * x.value)


# --- gradient oracles -----------------------------------------------------


def test_elementwise_grads_match_fd():
    two = lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
    check_op_grad(two, ad.add)
    check_op_grad(two, ad.sub)
    check_op_grad(two, ad.mul)
    check_op_grad(lambda rng: [rng.normal(size=(3, 4))],
                  lambda x: ad.scale(x, -1.7))


def test_mse_grad_matches_fd():
    check_op_grad(lambda rng: [rng.normal(size=100), rng.normal(size=100)],
                  ad.mse, trials=5)


# --- backward semantics ---------------------------------------------------


def test_backward_sum_gives_ones():
    x = ad.constant(np.arange(12.0).reshape(3, 4))
    with ad.Tape() as tape:
        tape.backward(ad.sum_all(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_mse_against_zero():
    x = ad.constant(np.array([3.0]))
    with ad.Tape() as tape:
        tape.backward(ad.mse(x, ad.constant(np.array([0.0]))))
    assert x.grad[0] == 6.0


def test_backward_requires_scalar_root():
    x = ad.constant(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = ad.add(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)


def test_backward_requires_root_on_tape():
    x = ad.constant(np.ones(3))
    with ad.Tape() as tape:
        ad.sum_all(x)
    off_tape = ad.sum_all(x)  # recorded on no tape
    with pytest.raises(ValueError, match="not on this tape"):
        tape.backward(off_tape)


def test_unreachable_leaf_gets_exact_zero():
    x = ad.constant(np.ones(3))
    z = ad.constant(np.ones(3))
    with ad.Tape() as tape:
        root = ad.sum_all(x)
        ad.sum_all(z)  # unrelated subgraph on the same tape
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
            f = ad.sum_all(ad.mul(x, x))
            g = ad.mse(model(x, 0.3), ad.constant(np.zeros((4, 3))))
            root = ad.add(ad.scale(f, scale_f), ad.scale(g, scale_g))
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
            root = ad.mse(model(x, 0.6), ad.constant(np.zeros((5, 3))))
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
    ad.add(x, x)
    with ad.Tape() as tape:
        ad.add(x, x)
        assert len(tape) == 1


def test_tape_clear_drops_nodes():
    # backward drops every record, and with it what the record saved
    saved = np.ones(3)
    freed = weakref.ref(saved)
    x = ad.constant(np.arange(3.0))
    with ad.Tape() as tape:
        root = ad.sum_all(ad.record(x.value * saved, (x,),
                                    lambda g, s=saved: (g * s,)))
        del saved
        assert len(tape) == 2
        tape.backward(root)
        assert len(tape) == 0
    assert freed() is None
    assert np.array_equal(x.grad, np.ones(3))


def test_repeated_backward_is_reproducible():
    # a spent tape refuses a second backward; recording again reproduces it
    def grad_on_a_fresh_tape():
        x = ad.constant(np.arange(4.0))
        with ad.Tape() as tape:
            root = ad.sum_all(ad.mul(x, x))
            tape.backward(root)
            with pytest.raises(ValueError, match="not on this tape"):
                tape.backward(root)
        return x.grad

    g1 = grad_on_a_fresh_tape()
    assert np.array_equal(g1, 2.0 * np.arange(4.0))
    assert np.array_equal(g1, grad_on_a_fresh_tape())


def test_backward_skips_nodes_without_gradient_and_keeps_only_leaf_grads():
    x = ad.constant(np.arange(3.0))
    calls = []

    def never(g):
        calls.append(g)
        return (g,)

    with ad.Tape() as tape:
        sq = ad.mul(x, x)
        root = ad.sum_all(sq)
        side = ad.record(np.ones(3), (x,), never)  # the root does not use it
        tape.backward(root)
    assert calls == []
    assert sq.grad is None and root.grad is None and side.grad is None
    assert np.array_equal(x.grad, 2.0 * np.arange(3.0))


def test_f32_leaf_rounds_float64_contributions_into_f32_grad():
    frame = np.random.default_rng(1).uniform(0, 1, (4, 5, 6)).astype(np.float32)
    pts = np.random.default_rng(2).uniform(-0.9, 0.9, (7, 3)).astype(np.float32)
    x = ad.constant(pts)
    with ad.Tape() as tape:
        first = ad.sum_all(gather_trilinear(frame, x))
        second = ad.sum_all(gather_trilinear(frame[::-1], x))
        tape.backward(ad.add(first, second))
    _, g1 = _trilinear_kernel(frame, pts, want_grad=True)
    _, g2 = _trilinear_kernel(frame[::-1], pts, want_grad=True)
    assert g1.dtype == np.float64 and x.grad.dtype == np.float32
    # the later-recorded gather writes first (cast), the earlier one is
    # added in float64 and rounded back, as an in-place += would
    assert np.array_equal(x.grad, (g2.astype(np.float32) + g1).astype(np.float32))
