"""Minimal reverse-mode tape over dense numpy arrays.

It holds no operation set.  Each record is one fused kernel of the fixed
motion-estimation graph, recorded through ``record`` with its backward next
to its forward: the whole sine MLP (field module), the Euler step (flow
module), the trilinear gather (volume module) and the objective (training
module).  The tape, not the nodes, holds the graph's edges, and
``Tape.backward`` spends them.  It also keeps the arrays a backward has spent
(``take``/``give``), so a tape reused over a fit's epochs allocates them once.
"""
from __future__ import annotations

import contextvars

import numpy as np

# per thread (and per task), so a tape records only its own thread's kernels
_active_tape = contextvars.ContextVar("active_tape", default=None)


class Node:
    """A value in the computation graph and its gradient; the edges live on
    the tape that recorded it.  ``grad`` is filled by ``Tape.backward``, in
    the node's own dtype; after a backward only leaves hold one."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value)
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape}, dtype={self.value.dtype})"


def constant(value, dtype=None) -> Node:
    """Wrap an array as a leaf node (no copy when already an ndarray)."""
    return Node(np.asarray(value, dtype=dtype))


def active_tape():
    """The tape recording in this thread, or None."""
    return _active_tape.get()


def record(value, parents, backward) -> Node:
    """A node for value, which the active tape, if any, records with its
    parents and the closure mapping its gradient to one per parent."""
    node = Node(value)
    tape = _active_tape.get()
    if tape is not None:
        tape._records.append((node, parents, backward))
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
    """The graph: one (node, parents, backward) record per executed kernel.

    Single-owner: only one tape may record at a time in a thread (enforced
    on entry); other threads never record onto it.  Each entry starts a new
    graph, but a tape keeps its spare arrays.  Backward traversal walks the
    records in reverse execution order, a topological order by construction.
    """

    def __init__(self):
        self._records = []
        self._spare = {}  # (shape, dtype) -> arrays handed back by give

    def take(self, shape, dtype):
        """A spare array of that shape and dtype, else a new one; thread-safe."""
        try:
            return self._spare[shape, np.dtype(dtype)].pop()
        except (KeyError, IndexError):
            return np.empty(shape, dtype)

    def give(self, arrays):
        """Keep arrays nothing reads again for later takes, while the tape lives."""
        for a in arrays:
            self._spare.setdefault((a.shape, a.dtype), []).append(a)

    def __enter__(self):
        if _active_tape.get() is not None:
            raise RuntimeError("a tape is already recording; tapes are single-owner")
        self._records = []  # what an earlier entry left, had its backward not run or failed
        self._token = _active_tape.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _active_tape.reset(self._token)
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, root: Node):
        """Accumulate d(root)/d(leaf) into ``grad`` of every leaf on the tape.

        The sweep pops each record as it reaches it, so what a record saved is
        freed or given back once its gradient has passed; the tape is empty on
        return or raise.  Gradients are created on first write: a recorded node
        the root does not depend on never gets one and is skipped, and each
        drops its gradient once passed on.  Unreached leaves get exact zeros.
        """
        if root.value.size != 1:
            raise ValueError("backward root must be scalar-valued")
        recorded = {id(node) for node, _, _ in self._records}
        if id(root) not in recorded:
            raise ValueError("root node is not on this tape")
        leaves = {id(p): p for _, parents, _ in self._records
                  for p in parents if id(p) not in recorded}
        for leaf in leaves.values():
            leaf.grad = None

        root.grad = np.ones_like(root.value)
        try:
            while self._records:
                node, parents, backward = self._records.pop()
                if node.grad is None:
                    continue
                for p, c in zip(parents, backward(node.grad)):
                    _accumulate(p, c)
                node.grad = None
        finally:  # if a backward raised, what it left must not reach the next
            self._records.clear()
        for leaf in leaves.values():
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.value)
