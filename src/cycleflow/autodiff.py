"""Minimal reverse-mode gradient engine over dense numpy arrays.

The operation set is fixed and matches exactly what the motion-estimation
loss graph needs besides its two fused nodes: elementwise arithmetic,
scaling by a constant, and reductions.  The elementwise ops require
conforming shapes (no broadcasting), so each backward rule stays
individually testable.  The two fused nodes record onto the same tape
through ``record``: the whole sine MLP (field module) and the
differentiable trilinear gather (volume module).
"""
from __future__ import annotations

import contextvars

import numpy as np

# per thread (and per task), so a tape records only its own thread's ops
_active_tape = contextvars.ContextVar("active_tape", default=None)


class Node:
    """A value in the computation graph.

    Leaves carry parameters or constants.  Interior nodes keep references
    to their parents and a closure that maps the upstream gradient to one
    contribution per parent.  ``grad`` is filled by ``Tape.backward``, in
    the node's own dtype; after a backward only leaves hold one.
    """

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value)
        self.grad = None
        self.parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape}, dtype={self.value.dtype})"


def constant(value, dtype=None) -> Node:
    """Wrap an array as a leaf node (no copy when already an ndarray)."""
    return Node(np.asarray(value, dtype=dtype))


def recording() -> bool:
    """Whether a tape is recording in this thread."""
    return _active_tape.get() is not None


def record(value, parents, backward) -> Node:
    """A node for value; appended to the active tape, if any, with its
    parents and backward closure, and a plain unrecorded leaf otherwise."""
    tape = _active_tape.get()
    if tape is None:
        return Node(value)
    node = Node(value, parents, backward)
    tape._nodes.append(node)
    return node


def _accumulate(node: Node, contribution):
    # the first write takes a copy cast to the node's dtype; later writes
    # add in the promoted dtype and round back, as an in-place += does
    if node.grad is None:
        node.grad = np.broadcast_to(contribution, node.value.shape).astype(
            node.value.dtype)
    else:
        node.grad += contribution


class Tape:
    """Ordered record of executed operations.

    Single-owner: only one tape may record at a time in a thread (enforced
    on entry); other threads never record onto it.
    Backward traversal walks the record in reverse execution order, which
    is a valid topological order by construction.
    """

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        if _active_tape.get() is not None:
            raise RuntimeError("a tape is already recording; tapes are single-owner")
        self._token = _active_tape.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _active_tape.reset(self._token)
        return False

    def __len__(self):
        return len(self._nodes)

    def clear(self):
        """Drop all recorded nodes so their buffers can be reclaimed."""
        self._nodes.clear()

    def backward(self, root: Node):
        """Accumulate d(root)/d(leaf) into ``grad`` of every leaf on the tape.

        Gradients are created on first write, so a recorded node that the
        root does not depend on never receives one and is skipped; each
        recorded node drops its gradient once it has passed it on.  Leaves
        the root cannot reach end with exact zeros, and a repeated call
        starts afresh, so it reproduces the first.
        """
        if root.value.size != 1:
            raise ValueError("backward root must be scalar-valued")
        recorded = {id(n) for n in self._nodes}
        if id(root) not in recorded:
            raise ValueError("root node is not on this tape")
        leaves = {}
        for n in self._nodes:
            n.grad = None
            for p in n.parents:
                if id(p) not in recorded:
                    leaves[id(p)] = p
        for leaf in leaves.values():
            leaf.grad = None

        root.grad = np.ones_like(root.value)
        for n in reversed(self._nodes):
            if n.grad is None:
                continue
            for p, c in zip(n.parents, n._backward(n.grad)):
                _accumulate(p, c)
            n.grad = None
        for leaf in leaves.values():
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.value)


# ---------------------------------------------------------------------------
# operations


def _check_shapes(name, a: Node, b: Node):
    if a.value.shape != b.value.shape:
        raise ValueError(f"{name} shape mismatch: {a.value.shape} vs {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _check_shapes("add", a, b)
    return record(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a: Node, b: Node) -> Node:
    _check_shapes("sub", a, b)
    return record(a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a: Node, b: Node) -> Node:
    """Elementwise product of same-shape arrays."""
    _check_shapes("mul", a, b)
    return record(a.value * b.value, (a, b),
                  lambda g: (g * b.value, g * a.value))


def scale(x: Node, c: float) -> Node:
    """Multiply by a plain (non-differentiated) scalar."""
    c = float(c)
    return record(x.value * c, (x,), lambda g: (g * c,))


def sum_all(x: Node) -> Node:
    """Sum of all elements (scalar node)."""
    return record(np.asarray(x.value.sum()), (x,), lambda g: (g,))


def mse(a: Node, b: Node) -> Node:
    """Mean of squared elementwise differences (scalar node)."""
    _check_shapes("mse", a, b)
    diff = a.value - b.value

    def backward(g):
        c = g * (2.0 / diff.size) * diff
        return c, -c

    return record(np.asarray(np.mean(diff * diff)), (a, b), backward)
