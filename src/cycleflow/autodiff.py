"""Minimal reverse-mode gradient engine over dense numpy arrays.

The operation set is fixed and matches exactly what the motion-estimation
loss graph needs: affine maps, sinusoidal activation, elementwise
arithmetic, column concatenation, and reductions.  There is deliberately
no broadcasting; every shape must conform exactly so each backward rule
stays individually testable.  The differentiable trilinear gather lives
in the volume module and records onto the same tape.
"""
from __future__ import annotations

import contextvars

import numpy as np

# per thread (and per task), so a tape records only its own thread's ops
_active_tape = contextvars.ContextVar("active_tape", default=None)


class Node:
    """A value in the computation graph.

    Leaves carry parameters or constants.  Interior nodes keep references
    to their parents and a closure that pushes the upstream gradient back
    to them.  ``grad`` is materialized lazily by ``Tape.backward``.
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
        """Accumulate d(root)/d(node) into ``grad`` of every ancestor of root.

        Every node touched by the tape (including leaf parents) gets its
        gradient zeroed first, so leaves not reachable from the root end up
        holding exact zeros and repeated calls are reproducible.
        """
        if root.value.size != 1:
            raise ValueError("backward root must be scalar-valued")
        recorded = {id(n) for n in self._nodes}
        if id(root) not in recorded:
            raise ValueError("root node is not on this tape")

        seen = set()
        for n in self._nodes:
            for m in (n, *n.parents):
                if id(m) not in seen:
                    seen.add(id(m))
                    m.grad = np.zeros_like(m.value)

        # restrict propagation to ancestors of root so unrelated subgraphs
        # recorded on the same tape cannot leak gradient into it
        ancestors = set()
        stack = [root]
        while stack:
            n = stack.pop()
            if id(n) in ancestors:
                continue
            ancestors.add(id(n))
            stack.extend(n.parents)

        root.grad = np.ones_like(root.value)
        for n in reversed(self._nodes):
            if n._backward is not None and id(n) in ancestors:
                n._backward(n.grad)


def _record(node: Node) -> Node:
    _active_tape.get()._nodes.append(node)
    return node


def _tracing() -> bool:
    return _active_tape.get() is not None


# ---------------------------------------------------------------------------
# operations


def affine(x: Node, w: Node, b: Node) -> Node:
    """Row-wise affine map: value = x @ w + b."""
    if x.value.ndim != 2 or w.value.ndim != 2 or b.value.ndim != 1:
        raise ValueError("affine expects x (B,Fin), w (Fin,Fout), b (Fout,)")
    if x.value.shape[1] != w.value.shape[0] or b.value.shape[0] != w.value.shape[1]:
        raise ValueError(
            f"affine shape mismatch: x {x.value.shape}, w {w.value.shape}, b {b.value.shape}"
        )
    out = x.value @ w.value + b.value
    if not _tracing():
        return Node(out)

    def backward(g):
        x.grad += g @ w.value.T
        w.grad += x.value.T @ g
        b.grad += g.sum(axis=0)

    return _record(Node(out, (x, w, b), backward))


def sin_activation(x: Node, omega: float) -> Node:
    """Elementwise sin(omega * x)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    out = np.sin(omega * x.value)
    if not _tracing():
        return Node(out)

    def backward(g):
        x.grad += g * (omega * np.cos(omega * x.value))

    return _record(Node(out, (x,), backward))


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    out = a.value + b.value
    if not _tracing():
        return Node(out)

    def backward(g):
        a.grad += g
        b.grad += g

    return _record(Node(out, (a, b), backward))


def sub(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError(f"sub shape mismatch: {a.value.shape} vs {b.value.shape}")
    out = a.value - b.value
    if not _tracing():
        return Node(out)

    def backward(g):
        a.grad += g
        b.grad -= g

    return _record(Node(out, (a, b), backward))


def mul(a: Node, b: Node) -> Node:
    """Elementwise product of same-shape arrays."""
    if a.value.shape != b.value.shape:
        raise ValueError(f"mul shape mismatch: {a.value.shape} vs {b.value.shape}")
    out = a.value * b.value
    if not _tracing():
        return Node(out)

    def backward(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return _record(Node(out, (a, b), backward))


def scale(x: Node, c: float) -> Node:
    """Multiply by a plain (non-differentiated) scalar."""
    c = float(c)
    out = x.value * c
    if not _tracing():
        return Node(out)

    def backward(g):
        x.grad += g * c

    return _record(Node(out, (x,), backward))


def concat_cols(a: Node, b: Node) -> Node:
    """Concatenate two 2-D blocks along the column axis."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[0] != b.value.shape[0]:
        raise ValueError(
            f"concat_cols expects matching row counts: {a.value.shape} vs {b.value.shape}"
        )
    out = np.concatenate([a.value, b.value], axis=1)
    if not _tracing():
        return Node(out)
    ca = a.value.shape[1]

    def backward(g):
        a.grad += g[:, :ca]
        b.grad += g[:, ca:]

    return _record(Node(out, (a, b), backward))


def sum_all(x: Node) -> Node:
    """Sum of all elements (scalar node)."""
    out = np.asarray(x.value.sum())
    if not _tracing():
        return Node(out)

    def backward(g):
        x.grad += g

    return _record(Node(out, (x,), backward))


def mse(a: Node, b: Node) -> Node:
    """Mean of squared elementwise differences (scalar node)."""
    if a.value.shape != b.value.shape:
        raise ValueError(f"mse shape mismatch: {a.value.shape} vs {b.value.shape}")
    diff = a.value - b.value
    out = np.asarray(np.mean(diff * diff))
    if not _tracing():
        return Node(out)
    inv = 2.0 / diff.size

    def backward(g):
        c = g * inv * diff
        a.grad += c
        b.grad -= c

    return _record(Node(out, (a, b), backward))
