import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cycleflow
import cycleflow.autodiff as ad
from cycleflow.container import read_container, write_container
from cycleflow.field import VelocityFieldModel
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


# Address-space cap of every run_cli child, as with `ulimit -v 4194304`.
CHILD_ADDRESS_CAP = 4 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_CAP, CHILD_ADDRESS_CAP))


def run_cli(argv, env=None):
    """Run ``python -m cycleflow.cli argv`` in a child process whose address
    space is capped at CHILD_ADDRESS_CAP bytes; returns the CompletedProcess
    with text stdout and stderr.

    The cap makes an oversize allocation fail at once with MemoryError.
    Never run an oversize option value without it: under overcommit, a
    request that fits in virtual memory but not in RAM gets the process
    killed, and it takes memory from everything else on the machine.
    ``env`` adds or replaces environment variables of the child; a None
    value removes one.
    """
    src = str(Path(cycleflow.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "cycleflow.cli", *map(str, argv)],
        env={k: v for k, v in {**os.environ, "PYTHONPATH": path, **(env or {})}.items()
             if v is not None},
        preexec_fn=_cap_address_space, capture_output=True, text=True,
        timeout=300)


# the environment variables that set a BLAS thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# run_cli env of a child with no BLAS thread variable set
NO_BLAS_THREAD_VARS = dict.fromkeys(BLAS_THREAD_VARS)


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


def dot(x, w):
    """Scalar tape node sum(w * x) for a constant array w (broadcast to x's
    shape): a test loss whose gradient with respect to x is exactly w."""
    w = np.broadcast_to(w, x.value.shape)
    return ad.record(np.asarray((x.value * w).sum()), (x,), lambda g: (g * w,))


def mean_square(x, target=0.0):
    """Scalar tape node mean((x - target)^2) for a constant target."""
    diff = x.value - target
    return ad.record(np.asarray(np.mean(diff * diff)), (x,),
                     lambda g: (g * (2.0 / diff.size) * diff,))


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
        c = drho / self.rho(t)
        return ad.record(x.value * c, (x,), lambda g: (g * c,))


def position_error(dtype) -> str:
    """The one message refusing positions that are not finite in dtype."""
    return (f"positions are not finite in {np.dtype(dtype)}: NaN or inf given, or past "
            "its range (far outside the normalized domain)")


def bias_model(bias, dtype=np.float32):
    """A 5-4-3 model with zero weights, in dtype: its velocity is the output
    bias, the same 3-vector at every position and time."""
    weights = [np.zeros((5, 4), dtype), np.zeros((4, 3), dtype)]
    biases = [np.zeros(4, dtype), np.full(3, bias, dtype)]
    return VelocityFieldModel(weights, biases, omega=6.0)


def rewrite_container(src, dst, header=None, payload=None):
    """Copy a .v4d or .ckpt file, passing its header dict and its float32
    payload through the given edit functions."""
    magic = Path(src).read_bytes()[:8]
    with read_container(src, magic) as (head, fh):
        values = np.frombuffer(fh.read(), dtype="<f4")
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
    # every cycle is [0, 1]: a header period of any other value is refused
    "zero-period": dict(header=lambda h: {**h, "period": 0.0}),
    "half-period": dict(header=lambda h: {**h, "period": 0.5}),
    "double-period": dict(header=lambda h: {**h, "period": 2}),
    "period-true": dict(header=lambda h: {**h, "period": True}),
    "non-finite-weights": dict(payload=lambda p: np.full_like(p, np.nan)),
    "unknown-dtype": dict(header=lambda h: {**h, "dtype": "f16le"}),
    "dtype-not-a-string": dict(header=lambda h: {**h, "dtype": ["f32le"]}),
    "f64-dtype-over-f32-payload": dict(header=lambda h: {**h, "dtype": "f64le"}),
}
BAD_VOLUMES = {
    "shape-not-ints": dict(header=lambda h: {**h, "shape": ["a", 2, 2]}),
    "shape-of-two-axes": dict(header=lambda h: {**h, "shape": [2, 2]}),
    "nan-voxel": dict(payload=lambda p: np.r_[np.nan, p[1:]]),
    "inf-voxel": dict(payload=lambda p: np.r_[np.inf, p[1:]]),
    "nan-last-voxel": dict(payload=lambda p: np.r_[p[:-1], np.nan]),
}
# the cases above whose error a reader finds before the payload's size
HEADER_ONLY = {"header-not-object", "missing-omega", "ill-typed-layer-sizes",
               "zero-period", "half-period", "double-period", "period-true",
               "unknown-dtype", "dtype-not-a-string",
               "shape-not-ints", "shape-of-two-axes"}
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
