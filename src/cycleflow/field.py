"""Sine-activated MLP velocity field over space and circle-encoded time.

The model maps a batch of positions in the normalized cube plus one time
value to one 3-D velocity per position.  With time encoding enabled, time
t enters as (cos 2*pi*t, sin 2*pi*t), so the field is exactly periodic over
the cycle [0, 1]; with encoding disabled the raw time is appended (the
non-periodic ablation mode).  Every call, taped or not, runs as two row
parts cut by one rule, on two threads while OpenBLAS is pinned to one.
"""
from __future__ import annotations

import contextlib
import contextvars
import ctypes
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import autodiff as ad
from .container import (check_header, check_payload, is_count, is_number,
                        list_of, read_container, read_into, write_container)
from .errors import FormatError, NumericalError, ValidationError

CHECKPOINT_MAGIC = b"NFCKPT01"
# header "dtype" -> payload dtype; a model is saved in its own precision
CHECKPOINT_DTYPES = {"f32le": "<f4", "f64le": "<f8"}

# rows per weight-gradient product in a taped backward, whose chunks are then
# added left to right: a 256-row reduction fits one OpenBLAS K block, so the
# BLAS thread count cannot reorder its sum, and fit bytes depend on the row
# count alone (512-row chunks lost the bits in 42 of 72 shapes tried)
_CHUNK = 256
_SLICE = 1024  # rows per slice of an untaped part, which stays in cache through all layers


def _export(name, restype, *argtypes):
    """NumPy's OpenBLAS export ``name`` as a ctypes function, or None without
    OpenBLAS.  Looked up on NumPy's linalg extension, whose handle searches its
    linked libraries (POSIX), then in numpy.libs (Windows does not)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in [np.linalg._umath_linalg.__file__, *glob.glob(libs)]:
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)  # NumPy has it loaded: the same handle
            for export in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                           f"openblas_{name}64_", f"openblas_{name}"):
                if hasattr(lib, export):
                    call = getattr(lib, export)
                    call.argtypes, call.restype = argtypes, restype
                    return call
    return None


_EXPORTS = {"get_num_threads": _export("get_num_threads", ctypes.c_int),
            "set_num_threads": _export("set_num_threads", None, ctypes.c_int),
            "get_corename": _export("get_corename", ctypes.c_char_p)}
_PARALLEL = _EXPORTS["set_num_threads"] is not None  # else (MKL, Accelerate) in turn


def openblas(name, *args):
    """What the OpenBLAS export ``name`` returns for args, or None without OpenBLAS."""
    return _EXPORTS[name] and _EXPORTS[name](*args)


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS runs one thread inside, process-wide; the first of concurrent
    holders saves the count, and the last to leave, raising or not, restores it."""
    global _pins, _saved
    with _pin_lock:
        if not _pins:
            _saved = openblas("get_num_threads")
            openblas("set_num_threads", 1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if not _pins:
                openblas("set_num_threads", _saved)


def _finite_time(t, dtype=np.float64) -> float:
    """t as a float; ValueError unless it is finite in dtype."""
    with np.errstate(over="ignore"):  # past the range is inf, refused here
        if not np.isfinite(np.dtype(dtype).type(t := float(t))):
            raise ValueError(f"time must be finite in {np.dtype(dtype)}, got {t}")
    return t


def wrap_time(t: float) -> float:
    """t mod 1 by fmod, in [0, 1): never -0.0, nor a tiny negative rest that
    adding 1 rounds up to 1.  ValueError unless t is finite."""
    frac = math.fmod(_finite_time(t), 1.0)
    if frac < 0.0:
        frac += 1.0
    return 0.0 if frac in (0.0, 1.0) else frac


def encode_time(t: float) -> tuple[float, float]:
    """Map a time value onto the unit circle: (cos, sin) of 2*pi*t.

    The time is wrapped by ``wrap_time`` before the angle is formed, so t
    and t mod 1 produce bit-identical output and t = 1 lands exactly on
    (1, 0); a non-finite t is a ValueError.
    """
    angle = 2.0 * math.pi * wrap_time(t)
    return math.cos(angle), math.sin(angle)


class VelocityFieldModel:
    """MLP with sine activations on every hidden layer and a linear output.

    Weights and biases are held as autodiff leaf nodes so the optimizer can
    update them in place.  A call under a recording tape is one tape node
    that computes its own backward (see ``__call__``); a model evaluated
    outside a recording tape is a pure function and safe for concurrent use.
    """

    def __init__(self, weights, biases, omega, time_encoding=True):
        _check_layout([w.shape[0] for w in weights[:1]] + [w.shape[1] for w in weights],
                      omega, time_encoding)
        for w, b in zip(weights, biases, strict=True):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias width must match layer output width")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("model weights must be finite")
        self.weights = [ad.Node(np.asarray(w)) for w in weights]
        self.biases = [ad.Node(np.asarray(b)) for b in biases]
        self.omega = float(omega)
        self.time_encoding = bool(time_encoding)

    @property
    def layer_sizes(self):
        return [self.weights[0].value.shape[0]] + [w.value.shape[1] for w in self.weights]

    @property
    def dtype(self):
        return self.weights[0].value.dtype

    @property
    def parameters(self):
        """All trainable leaves, in a fixed order: each layer's weights, then its bias."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def __call__(self, points, t: float) -> ad.Node:
        """Velocity at a batch of positions (B,3), which ``positions`` takes,
        at one time value, in the model's dtype.  The time must be finite (else
        a ValueError): an encoded one in float64, a raw one in the model's dtype.
        A velocity that is not finite there (a layer overflowed) is a NumericalError.

        Under a tape the whole network records as one node whose parents are
        the points and the parameters.  It saves the input and the phase omega*z
        of each hidden layer but the first; its backward rebuilds that one from
        the input, and each sine and slope from the phases.  These and the sines'
        scratch come from the tape's spares, and go back once the backward is done.
        Every call runs as the row parts [:k] and [k:], k = 256 *
        round(B / 512), or whole when k is 0.  Taped, both parts run forward
        and backward, and part 2's parameter gradients add to part 1's;
        untaped, each part runs in _SLICE-row slices and saves nothing.  So
        a call's bits depend on B alone.  See _in_parts for where each part
        runs.
        """
        dt = self.dtype
        pts, t = positions(points, dt), _finite_time(t, np.float64 if self.time_encoding else dt)
        n = pts.value.shape[0]
        if self.time_encoding:
            tcols = np.empty((n, 2), dtype=dt)
            tcols[:] = encode_time(t)
        else:
            tcols = np.full((n, 1), t, dtype=dt)
        h = np.concatenate([pts.value, tcols], axis=1)
        out = np.empty((n, 3), dtype=dt)
        k = _CHUNK * round(n / (2 * _CHUNK))
        tape = ad.active_tape()
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, once
            if tape is None:
                _in_parts(lambda a, b: [self._layers(h[a:b][s:s + _SLICE],
                                                     out[a:b][s:s + _SLICE])
                                        for s in range(0, b - a, _SLICE)], k, n)
            else:
                saved = _in_parts(lambda a, b: self._layers(h[a:b], out[a:b], tape.take), k, n)
        if not np.isfinite(out).all():
            raise NumericalError(f"non-finite velocity in {np.dtype(dt)} at t={t}")
        if tape is None:
            return ad.constant(out)
        tape.give(part.pop() for part in saved)  # the sines' flat arrays

        def backward(g):
            parts = _in_parts(lambda a, b: self._backward(  # part 2 starts past row 0
                h[a:b], saved[a > 0], g[a:b], tape.take), k, n)
            tape.give(buf for part in saved for buf in part)  # both parts are done
            g_pts, grads = parts[0]
            if len(parts) == 2:
                g_pts = np.concatenate([g_pts, parts[1][0]])
                for acc, more in zip(grads, parts[1][1]):
                    acc += more
            return [g_pts, *grads]

        return ad.record(out, (pts, *self.parameters), backward)

    def _layers(self, h, out, take=None):
        """Velocities of rows h into out.  A taped call passes its tape's take,
        and gets back the arrays from it that hold each hidden phase past layer
        1's and, last, the flat array that took layer 1's phase and every sine.
        Plain NumPy only (nothing a profiler wraps), so the pool thread may run it."""
        if take is not None:
            shapes = [(len(h), w.value.shape[1]) for w in self.weights[:-1]]
            saved = [take(s, h.dtype) for s in shapes[1:]]
            saved.append(take((max(r * c for r, c in shapes),), h.dtype))
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            if take is None:
                phase = h @ w.value
            else:  # layer 1's phase goes into the flat array, so is not kept
                flat = saved[-1][:len(h) * w.value.shape[1]].reshape(len(h), -1)
                phase = np.matmul(h, w.value, out=saved[i - 1] if i else flat)
            phase += b.value
            phase *= self.omega
            h = np.sin(phase, out=phase if take is None or not i else flat)
        np.add(h @ self.weights[-1].value, self.biases[-1].value, out=out)
        return None if take is None else saved

    def _backward(self, h, saved, g, take):
        """Point and parameter gradients of rows h for their output gradient g;
        plain NumPy, like _layers.  Layer 1's phase is rebuilt first, by the
        forward's ops, into an array from take, put before the phases _layers
        saved.  Each phase gives its slope to a flat array from take (appended),
        then becomes its sine, then its input's gradient; weights' go by _xtg."""
        w = self.weights[0].value
        saved.insert(0, np.matmul(h, w, out=take((len(h), w.shape[1]), h.dtype)))
        saved[0] += self.biases[0].value
        saved[0] *= self.omega
        flat = take((max(p.size for p in saved),), h.dtype)
        grads = []  # parameter grads, last first
        for i in reversed(range(len(self.weights))):
            if i < len(saved):
                g *= slope  # g is held in saved[i]
            if i:  # one read of the phase below gives the slope, then the input
                x = saved[i - 1]
                slope = np.cos(x, out=flat[:x.size].reshape(x.shape))
                slope *= self.omega
                np.sin(x, out=x)
            grads += [g.sum(axis=0), _xtg(x if i else h, g)]
            g = np.matmul(g, self.weights[i].value.T, out=x if i else None)
        saved.append(flat)
        return g[:, :3], grads[::-1]


def positions(points, dtype) -> ad.Node:
    """points (an array, or a Node, cast by a recorded node) as a (B,3) Node in
    dtype: the one check of what enters the field.  ValidationError unless each
    coordinate is finite in dtype: NaN or inf given, or cast past its range."""
    with np.errstate(over="ignore"):  # past the range is inf, refused below
        if not isinstance(points, ad.Node):
            points = ad.constant(points, dtype)
        elif points.value.dtype != dtype:
            points = ad.record(points.value.astype(dtype), (points,), lambda g: (g,))
    if points.value.ndim != 2 or points.value.shape[1] != 3:
        raise ValueError(f"points must have shape (B,3), got {points.value.shape}")
    if not np.isfinite(points.value).all():
        raise ValidationError(f"positions are not finite in {np.dtype(dtype)}: NaN or inf "
                              "given, or past its range (far outside the normalized domain)")
    return points


def _check_layout(layer_sizes, omega, time_encoding):
    """ValueError unless a model of these layer sizes and settings can be built."""
    if len(layer_sizes) < 3:
        raise ValueError("need at least one hidden layer and one output layer")
    expected_in = 5 if time_encoding else 4
    if layer_sizes[0] != expected_in:
        raise ValueError(f"first layer expects input width {expected_in}, got {layer_sizes[0]}")
    if layer_sizes[-1] != 3:
        raise ValueError("output layer must produce 3 velocity components")
    if not 0 < omega < math.inf:  # False for NaN too
        raise ValueError(f"omega must be positive and finite, got {omega}")


def _xtg(x, g):
    """x.T @ g as a sum of _CHUNK-row products taken left to right."""
    acc = x[:_CHUNK].T @ g[:_CHUNK]
    for s in range(_CHUNK, len(x), _CHUNK):
        acc += x[s:s + _CHUNK].T @ g[s:s + _CHUNK]
    return acc


def _in_parts(run, k, n):
    """[run(0, k), run(k, n)], or [run(0, n)] when k is 0 or n.  With _PARALLEL
    run(k, n) goes to the pool thread, under the caller's np.errstate and inside
    _one_blas_thread; else both parts run here in turn, with the same bits."""
    if k in (0, n):
        return [run(0, n)]
    if not _PARALLEL:
        return [run(0, k), run(k, n)]
    with _one_blas_thread():
        second = _pool.submit(contextvars.copy_context().run, run, k, n)
        try:
            first = run(0, k)
        finally:
            last = second.result()  # waits for the worker; re-raises its error here
    return [first, last]


def _start(forked=False):
    """The pool's one worker thread, started on the first submit, and the pin; a forked
    child has neither the thread nor an open pin's holders, but the count it saved."""
    global _pool, _pin_lock, _pins
    if forked and _pins:
        openblas("set_num_threads", _saved)
    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cycleflow-field")
    _pin_lock, _pins = threading.Lock(), 0


_start()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _start(forked=True))


def init_weights(seed: int, layer_sizes, omega: float, time_encoding: bool = True,
                 dtype=np.float32) -> VelocityFieldModel:
    """Build a model with the sine-network initialization scheme.

    First layer uniform(-1/fan_in, 1/fan_in); every later layer
    uniform(-sqrt(6/fan_in)/omega, sqrt(6/fan_in)/omega).  Biases start at
    zero.  Deterministic for a given seed.
    """
    sizes = list(layer_sizes)
    _check_layout(sizes, omega, time_encoding)  # before a NaN or inf omega sizes a draw
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = 1.0 / fan_in if i == 0 else math.sqrt(6.0 / fan_in) / omega
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        weights.append(w.astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return VelocityFieldModel(weights, biases, omega, time_encoding)


def default_layer_sizes(hidden_layers: int = 3, hidden_width: int = 256,
                        time_encoding: bool = True):
    in_dim = 5 if time_encoding else 4
    return [in_dim] + [hidden_width] * hidden_layers + [3]


def velocity(model: VelocityFieldModel, points, t: float) -> np.ndarray:
    """Plain-array forward pass (no gradient bookkeeping needed by caller)."""
    return model(points, t).value


# ---------------------------------------------------------------------------
# checkpoint container (framing in container.py): the header holds the layer
# sizes and time settings; the payload is, per layer, the weight matrix
# followed by the bias vector


def save_checkpoint(model: VelocityFieldModel, path):
    code = "f64le" if model.dtype == np.float64 else "f32le"
    header = {
        "layer_sizes": model.layer_sizes,
        "omega": model.omega,
        "period": 1.0,  # every cycle is [0, 1]
        "time_encoding": model.time_encoding,
        "endian": "little",
        "dtype": code,
    }
    write_container(path, CHECKPOINT_MAGIC, header, [p.value for p in model.parameters],
                    CHECKPOINT_DTYPES[code])


def load_checkpoint(path) -> VelocityFieldModel:
    """Read a checkpoint: its header and the layers it describes are checked
    before the payload's size, and the payload is read straight into the
    weights and biases, whose values are checked last."""
    with read_container(path, CHECKPOINT_MAGIC) as (header, fh):
        check_header(path, header, {
            "layer_sizes": list_of(is_count), "omega": is_number,
            "period": lambda v: type(v) in (int, float) and v == 1,
            "time_encoding": lambda v: type(v) is bool,
            "dtype": lambda v: type(v) is str and v in CHECKPOINT_DTYPES,
            "endian": lambda v: v == "little"})
        sizes, dtype = header["layer_sizes"], np.dtype(CHECKPOINT_DTYPES[header["dtype"]])
        settings = header["omega"], header["time_encoding"]
        layers = list(zip(sizes, sizes[1:]))  # (fan_in, fan_out): weights, then bias
        try:  # check_payload's FormatError is no ValueError, so it passes as is
            _check_layout(sizes, *settings)
            check_payload(path, fh, dtype.itemsize * sum((i + 1) * o for i, o in layers))
            arrays = [read_into(path, fh, np.empty(shape, dtype))
                      for i, o in layers for shape in ((i, o), (o,))]
            return VelocityFieldModel(arrays[::2], arrays[1::2], *settings)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
