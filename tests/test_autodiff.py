import numpy as np
import pytest

import cycleflow.autodiff as ad
from conftest import fd_grad, rel_err


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


def test_affine_identity():
    x = ad.constant(np.array([[1.0, 0.0]]))
    w = ad.constant(np.eye(2))
    b = ad.constant(np.zeros(2))
    assert np.array_equal(ad.affine(x, w, b).value, [[1.0, 0.0]])


def test_affine_scalar():
    out = ad.affine(ad.constant([[2.0]]), ad.constant([[3.0]]), ad.constant([1.0]))
    assert out.value[0, 0] == 7.0


def test_affine_shape_mismatch():
    with pytest.raises(ValueError):
        ad.affine(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))),
                  ad.constant(np.ones(3)))


def test_sin_activation_values():
    assert ad.sin_activation(ad.constant(np.zeros((1, 1))), 30.0).value[0, 0] == 0.0
    out = ad.sin_activation(ad.constant([[np.pi / 12]]), 6.0)
    assert out.value[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_sin_activation_needs_positive_omega():
    with pytest.raises(ValueError):
        ad.sin_activation(ad.constant([[0.0]]), 0.0)


def test_mse_values():
    a = ad.constant([1.0, 1.0])
    assert ad.mse(a, a).value == 0.0
    assert ad.mse(a, ad.constant([0.0, 0.0])).value == 1.0
    with pytest.raises(ValueError):
        ad.mse(a, ad.constant([0.0]))


def test_scale_and_concat_values():
    x = ad.constant(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(ad.scale(x, 2.0).value, 2.0 * x.value)
    y = ad.constant(np.ones((2, 2)))
    assert ad.concat_cols(x, y).value.shape == (2, 5)
    with pytest.raises(ValueError):
        ad.concat_cols(x, ad.constant(np.ones((3, 2))))


# --- gradient oracles -----------------------------------------------------


def test_affine_grad_matches_fd():
    check_op_grad(
        lambda rng: [rng.normal(size=(4, 3)), rng.normal(size=(3, 2)),
                     rng.normal(size=2)],
        ad.affine)


def test_sin_activation_grad_matches_fd():
    check_op_grad(lambda rng: [rng.normal(size=(5, 4))],
                  lambda x: ad.sin_activation(x, 6.0))


def test_sin_grad_value_at_known_point():
    x = ad.constant(np.array([[0.3]]))
    with ad.Tape() as tape:
        tape.backward(ad.sum_all(ad.sin_activation(x, 6.0)))
    assert x.grad[0, 0] == pytest.approx(6.0 * np.cos(1.8), rel=1e-12)


def test_elementwise_grads_match_fd():
    two = lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
    check_op_grad(two, ad.add)
    check_op_grad(two, ad.sub)
    check_op_grad(two, ad.mul)
    check_op_grad(lambda rng: [rng.normal(size=(3, 4))],
                  lambda x: ad.scale(x, -1.7))
    check_op_grad(lambda rng: [rng.normal(size=(3, 2)), rng.normal(size=(3, 3))],
                  ad.concat_cols)


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
    xv = rng.normal(size=(4, 2))
    a, b = 2.5, -1.25

    def grad_of(scale_f, scale_g):
        x = ad.constant(xv.copy())
        with ad.Tape() as tape:
            f = ad.sum_all(ad.mul(x, x))
            g = ad.mse(ad.sin_activation(x, 2.0), ad.constant(np.zeros((4, 2))))
            root = ad.add(ad.scale(f, scale_f), ad.scale(g, scale_g))
            tape.backward(root)
        return x.grad

    combined = grad_of(a, b)
    expected = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    assert np.allclose(combined, expected, rtol=1e-12, atol=1e-12)


def test_replay_is_bit_identical():
    rng = np.random.default_rng(7)
    xv = rng.normal(size=(5, 3))

    def run():
        x = ad.constant(xv.copy())
        with ad.Tape() as tape:
            root = ad.mse(ad.sin_activation(x, 6.0), ad.constant(np.zeros((5, 3))))
            tape.backward(root)
        return root.value.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


def test_tape_is_single_owner():
    with ad.Tape():
        with pytest.raises(RuntimeError, match="single-owner"):
            with ad.Tape():
                pass


def test_no_recording_outside_tape():
    x = ad.constant(np.ones((2, 2)))
    y = ad.add(x, x)
    assert y.parents == ()
    with ad.Tape() as tape:
        ad.add(x, x)
        assert len(tape) == 1


def test_tape_clear_drops_nodes():
    with ad.Tape() as tape:
        ad.sum_all(ad.constant(np.ones(3)))
        assert len(tape) == 1
    tape.clear()
    assert len(tape) == 0


def test_repeated_backward_is_reproducible():
    x = ad.constant(np.arange(4.0))
    with ad.Tape() as tape:
        root = ad.sum_all(ad.mul(x, x))
        tape.backward(root)
        g1 = x.grad.copy()
        tape.backward(root)
    assert np.array_equal(g1, x.grad)
