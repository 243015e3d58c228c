import math
from pathlib import Path

import numpy as np
import pytest

import cycleflow.autodiff as ad
from cycleflow.container import read_container, write_container
from cycleflow.mesh import TriangleMesh

# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the run summary so the verdicts stay visible even under
# pytest's default output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f with respect to array x.

    Mutates x in place while probing, restoring every entry, so f must
    read x afresh on each call.
    """
    x = np.asarray(x)
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def rel_err(analytic, numeric):
    """Largest deviation relative to the gradient scale (normwise relative
    error), so near-zero entries carrying only finite-difference noise
    cannot dominate."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def make_cube_mesh(side=1.0, origin=(0.0, 0.0, 0.0)):
    """Closed unit cube, outward-oriented, 12 triangles."""
    o = np.asarray(origin, dtype=np.float64)
    verts = o + side * np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ], dtype=np.float64)
    faces = np.array([
        [0, 2, 1], [0, 3, 2],      # bottom (-z)
        [4, 5, 6], [4, 6, 7],      # top (+z)
        [0, 1, 5], [0, 5, 4],      # front (-y)
        [2, 3, 7], [2, 7, 6],      # back (+y)
        [0, 4, 7], [0, 7, 3],      # left (-x)
        [1, 2, 6], [1, 6, 5],      # right (+x)
    ], dtype=np.int64)
    return TriangleMesh(verts, faces)


class RadialPulseField:
    """Analytic pulsing field v(x, t) = (rho'(t) / rho(t)) * x.

    Its exact flow scales every position by rho(t)/rho(0) with
    rho(t) = 1 + amp * sin(2*pi*t), giving a closed-form oracle for
    integrator error and mesh-advection tests.
    """

    dtype = np.float64
    period = 1.0

    def __init__(self, amp=0.2):
        if not 0.0 < amp < 1.0:
            raise ValueError("amp must be in (0, 1)")
        self.amp = amp

    def rho(self, t):
        return 1.0 + self.amp * math.sin(2.0 * math.pi * t)

    def scale_factor(self, t):
        """Exact flow magnification from time 0 to t (rho(0) = 1)."""
        return self.rho(t)

    def __call__(self, x, t):
        drho = 2.0 * math.pi * self.amp * math.cos(2.0 * math.pi * t)
        return ad.scale(x, drho / self.rho(t))


def rewrite_container(src, dst, header=None, payload=None):
    """Copy a .v4d or .ckpt file, passing its header dict and its float32
    payload through the given edit functions."""
    magic = Path(src).read_bytes()[:8]
    head, data, offset = read_container(src, magic)
    values = np.frombuffer(data, dtype="<f4", offset=offset)
    write_container(dst, magic, header(head) if header else head,
                    [payload(values) if payload else values])
    return dst


# Malformed inputs, each of which a reader must reject with FormatError or
# ValidationError (and the CLI with exit code 3).  Container cases are
# rewrite_container edits of a valid file; OBJ cases are whole files.
BAD_CHECKPOINTS = {
    "header-not-object": dict(header=lambda h: 3),
    "missing-omega": dict(header=lambda h: {k: v for k, v in h.items() if k != "omega"}),
    "ill-typed-layer-sizes": dict(header=lambda h: {**h, "layer_sizes": [5, "x", 3]}),
    "zero-period": dict(header=lambda h: {**h, "period": 0.0}),
    "non-finite-weights": dict(payload=lambda p: np.full_like(p, np.nan)),
}
BAD_VOLUMES = {
    "shape-not-ints": dict(header=lambda h: {**h, "shape": ["a", 2, 2]}),
    "shape-of-two-axes": dict(header=lambda h: {**h, "shape": [2, 2]}),
    "nan-voxel": dict(payload=lambda p: np.r_[np.nan, p[1:]]),
    "inf-voxel": dict(payload=lambda p: np.r_[np.inf, p[1:]]),
}
_TRIANGLE = b"v 0 0 0\nv 1 0 0\nv 0 1 0\n"
BAD_MESHES = {
    "not-utf8": _TRIANGLE + b"# \xff\xfe\nf 1 2 3\n",
    "nan-coordinate": b"v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n",
    "inf-coordinate": b"v 0 0 0\nv 1 0 0\nv 0 inf 0\nf 1 2 3\n",
    "degenerate-face": _TRIANGLE + b"f 1 2 2\n",
}


@pytest.fixture
def cube_mesh():
    return make_cube_mesh()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
