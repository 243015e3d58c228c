"""Sine-activated MLP velocity field over space and circle-encoded time.

The model maps a batch of positions in the normalized cube plus one time
value to one 3-D velocity per position.  With time encoding enabled the
time enters as a point on the unit circle, which makes the field exactly
periodic; with encoding disabled the raw time is appended instead (the
non-periodic ablation mode).  Large untaped calls use a second thread.
"""
from __future__ import annotations

import contextvars
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import autodiff as ad
from .container import (check_header, is_count, is_number, list_of,
                        read_container, write_container)
from .errors import FormatError

CHECKPOINT_MAGIC = b"NFCKPT01"
# header "dtype" -> payload dtype; a model is saved in its own precision
CHECKPOINT_DTYPES = {"f32le": "<f4", "f64le": "<f8"}

# positions may drift past the nominal [-1,1] cube during integration; the
# MLP is defined everywhere, so evaluation proceeds with a logged warning
DOMAIN_SLACK = 1.5
_HALF = 4096  # least rows per half of a split call; flow.inverse_map says why


def encode_time(t: float, period: float) -> tuple[float, float]:
    """Map a time value onto the unit circle: (cos, sin) of 2*pi*t/period.

    The time is wrapped by ``fmod`` before the angle is formed, so t and
    t mod period produce bit-identical output and t = period lands exactly
    on (1, 0).
    """
    if period <= 0:
        raise ValueError("period must be positive")
    frac = math.fmod(float(t), period)
    if frac < 0.0:
        frac += period
    angle = 2.0 * math.pi * frac / period
    return math.cos(angle), math.sin(angle)


class VelocityFieldModel:
    """MLP with sine activations on every hidden layer and a linear output.

    Weights and biases are held as autodiff leaf nodes so the optimizer can
    update them in place.  A call under a recording tape is one tape node
    that computes its own backward (see ``__call__``); a model evaluated
    outside a recording tape is a pure function and safe for concurrent use.
    """

    def __init__(self, weights, biases, omega, period=1.0, time_encoding=True):
        if len(weights) != len(biases) or len(weights) < 2:
            raise ValueError("need at least one hidden layer and one output layer")
        expected_in = 5 if time_encoding else 4
        if weights[0].shape[0] != expected_in:
            raise ValueError(
                f"first layer expects input width {expected_in}, got {weights[0].shape[0]}"
            )
        if weights[-1].shape[1] != 3:
            raise ValueError("output layer must produce 3 velocity components")
        for w, b in zip(weights, biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias width must match layer output width")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("model weights must be finite")
        if omega <= 0:
            raise ValueError("omega must be positive")
        if period <= 0:
            raise ValueError("period must be positive")
        self.weights = [ad.Node(np.asarray(w)) for w in weights]
        self.biases = [ad.Node(np.asarray(b)) for b in biases]
        self.omega = float(omega)
        self.period = float(period)
        self.time_encoding = bool(time_encoding)

    @property
    def layer_sizes(self):
        return [self.weights[0].value.shape[0]] + [w.value.shape[1] for w in self.weights]

    @property
    def dtype(self):
        return self.weights[0].value.dtype

    @property
    def parameters(self):
        """All trainable leaves, in a fixed order."""
        params = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def __call__(self, points, t: float) -> ad.Node:
        """Velocity at a batch of positions (B,3) at one time value, in the
        model's dtype; plain-array points are converted to it and checked finite.

        Under a tape the whole network records as one node whose parents
        are the points and the parameters.  It saves the input and each hidden
        phase omega*z, from which its backward rebuilds each sine and slope.
        Untaped, 2 * _HALF rows or more run rows [n//2:] on the pool thread,
        under the caller's np.errstate; taped calls stay whole for the gradients.
        """
        pts = points if isinstance(points, ad.Node) else ad.constant(points, self.dtype)
        if pts.value.ndim != 2 or pts.value.shape[1] != 3:
            raise ValueError(f"points must have shape (B,3), got {pts.value.shape}")
        if pts is not points and not np.isfinite(pts.value).all():
            raise ValueError("non-finite input positions")
        if np.abs(pts.value).max(initial=0.0) > DOMAIN_SLACK:
            warnings.warn(
                "evaluating velocity field outside the slack domain cube",
                RuntimeWarning,
            )
        n = pts.value.shape[0]
        dt = self.dtype
        if self.time_encoding:
            c, s = encode_time(t, self.period)
            tcols = np.empty((n, 2), dtype=dt)
            tcols[:, 0] = c
            tcols[:, 1] = s
        else:
            tcols = np.full((n, 1), t, dtype=dt)
        h = np.concatenate([pts.value, tcols], axis=1)
        out = np.empty((n, 3), dtype=dt)
        saved = [] if ad.recording() else None
        if saved is None and n >= 2 * _HALF:
            k = n // 2
            half = _pool.submit(contextvars.copy_context().run,
                                self._layers, h[k:], None, out[k:])
            try:
                self._layers(h[:k], None, out[:k])
            finally:
                half.result()  # waits for the worker; re-raises its error here
            return ad.constant(out)
        self._layers(h, saved, out)

        def backward(g):
            grads = []  # parameter grads, last first
            for i in reversed(range(len(self.weights))):
                if i < len(saved):
                    g *= slope  # g is a fresh matmul result
                if i:  # one read of the phase below gives the input and slope
                    x, slope = np.sin(saved[i - 1]), np.cos(saved[i - 1])
                    slope *= self.omega
                grads += [g.sum(axis=0), (x if i else h).T @ g]
                g = g @ self.weights[i].value.T
            return [g[:, :3], *reversed(grads)]

        return ad.record(out, (pts, *self.parameters), backward)

    def _layers(self, h, saved, out):
        """Velocities of rows h into out; hidden phases go to the list saved.
        Plain NumPy only (nothing a profiler wraps), so the pool thread may run it."""
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            phase = h @ w.value
            phase += b.value
            phase *= self.omega
            if saved is not None:
                saved.append(phase)  # so the sine gets an array of its own
            h = np.sin(phase, out=phase if saved is None else None)
        np.add(h @ self.weights[-1].value, self.biases[-1].value, out=out)


def _start_pool():  # one worker thread per process, started on the first submit
    global _pool
    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cycleflow-field")


_start_pool()
if hasattr(os, "register_at_fork"):  # a forked child has no copy of the thread
    os.register_at_fork(after_in_child=_start_pool)


def init_weights(seed: int, layer_sizes, omega: float, period: float = 1.0,
                 time_encoding: bool = True, dtype=np.float32) -> VelocityFieldModel:
    """Build a model with the sine-network initialization scheme.

    First layer uniform(-1/fan_in, 1/fan_in); every later layer
    uniform(-sqrt(6/fan_in)/omega, sqrt(6/fan_in)/omega).  Biases start at
    zero.  Deterministic for a given seed.
    """
    sizes = list(layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        if i == 0:
            bound = 1.0 / fan_in
        else:
            bound = math.sqrt(6.0 / fan_in) / omega
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        weights.append(w.astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return VelocityFieldModel(weights, biases, omega, period, time_encoding)


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
        "period": model.period,
        "time_encoding": model.time_encoding,
        "endian": "little",
        "dtype": code,
    }
    arrays = [a.value for pair in zip(model.weights, model.biases) for a in pair]
    write_container(path, CHECKPOINT_MAGIC, header, arrays, CHECKPOINT_DTYPES[code])


def load_checkpoint(path) -> VelocityFieldModel:
    header, data, offset = read_container(path, CHECKPOINT_MAGIC)
    check_header(path, header, {
        "layer_sizes": list_of(is_count), "omega": is_number, "period": is_number,
        "time_encoding": lambda v: type(v) is bool,
        "dtype": lambda v: type(v) is str and v in CHECKPOINT_DTYPES,
        "endian": lambda v: v == "little"})
    sizes = header["layer_sizes"]
    dtype = np.dtype(CHECKPOINT_DTYPES[header["dtype"]])
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        if offset + (fan_in + 1) * fan_out * dtype.itemsize > len(data):
            raise FormatError(f"{path}: truncated weight payload at offset {offset}")
        w = np.frombuffer(data, dtype=dtype, count=fan_in * fan_out, offset=offset)
        offset += fan_in * fan_out * dtype.itemsize
        b = np.frombuffer(data, dtype=dtype, count=fan_out, offset=offset)
        offset += fan_out * dtype.itemsize
        weights.append(w.reshape(fan_in, fan_out).copy())
        biases.append(b.copy())
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes after weights")
    try:
        return VelocityFieldModel(weights, biases, omega=header["omega"],
                                  period=header["period"],
                                  time_encoding=header["time_encoding"])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
