"""Objective assembly and optimization.

The loss couples every frame to the last one along forward trajectories:
points advected from t=0 are scored on intensity constancy
sum_i mean_P (I_{t_i}(x_i) - I_T(x_{N-1}))^2, plus an optional
cycle-return penalty mean_P ||P - phi_T(P)||^2 that forces full-period
trajectories back to their seeds.  Both terms share one Euler pass, so
enabling the penalty costs nothing extra.  Optimization is plain Adam
over the unrolled recursion.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericalError, ValidationError
from .field import VelocityFieldModel, default_layer_sizes, init_weights
from .flow import flow_at_frames_nodes
from .volume import Volume4D, gather_trilinear

SAMPLING_STRATEGIES = ("uniform", "foreground", "band")
PRECISIONS = ("f32", "f64")
LOSS_COLUMNS = ("epoch", "data_loss", "cycle_loss", "total_loss")


@dataclass(frozen=True)
class FitConfig:
    """Every knob of one optimization run.

    ``cycle_weight`` is the regularization constant on the cycle-return
    penalty; it is ignored when ``cycle_enabled`` is false (reported in
    the fit summary).  ``precision`` selects the training dtype.
    """

    cycle_weight: float = 1.0
    epochs: int = 1000
    points_per_epoch: int = 5000
    learning_rate: float = 3e-5
    seed: int = 0
    omega: float = 6.0
    steps_per_frame: int = 1
    time_encoding: bool = True
    cycle_enabled: bool = True
    sampling: str = "uniform"
    hidden_layers: int = 3
    hidden_width: int = 256
    precision: str = "f32"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.points_per_epoch < 1:
            raise ConfigError("points_per_epoch must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if not 0.0 <= self.cycle_weight < math.inf:
            raise ConfigError("cycle_weight must be non-negative and finite")
        if not 0.0 < self.omega < math.inf:
            raise ConfigError("omega must be positive and finite")
        if self.steps_per_frame < 1:
            raise ConfigError("steps_per_frame must be >= 1")
        if self.sampling not in SAMPLING_STRATEGIES:
            raise ConfigError(f"sampling must be one of {SAMPLING_STRATEGIES}")
        if self.hidden_layers < 1 or self.hidden_width < 1:
            raise ConfigError("hidden_layers and hidden_width must be >= 1")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}")
        # later layers draw weights from a finite range ±sqrt(6/width)/omega
        bound = math.sqrt(6.0 / self.hidden_width) / self.omega
        with np.errstate(over="ignore"):
            if not (math.isfinite(2.0 * bound) and np.isfinite(self.dtype(bound))):
                raise ConfigError(f"omega {self.omega} is too small: the weight "
                                  f"init bound {bound} overflows {self.precision}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64


@dataclass
class FitReport:
    """Loss history and run metadata for one fit."""

    data_loss: list
    cycle_loss: list
    total_loss: list
    config: FitConfig
    cycle_weight_ignored: bool = False
    checkpoint_path: str | None = None

    @property
    def epochs(self) -> int:
        return len(self.total_loss)


def sample_points(volume: Volume4D, n: int, strategy: str = "uniform",
                  seed=0) -> np.ndarray:
    """Draw n query points in [-1,1]^3 as an (n, 3) float64 array;
    deterministic for a given seed.

    ``uniform`` is i.i.d. over the cube.  ``foreground`` draws half the
    batch from voxels whose frame-0 intensity exceeds 0.1 (jittered within
    the voxel cell), which concentrates the budget where the image has
    gradients on mostly-empty grids.  ``band`` draws half the batch from
    voxels whose frame-0 intensity is strictly between 0.05 and 0.95 —
    the soft-boundary region where interpolation gradients live — which
    symmetrically covers both sides of a moving interface (unlike
    ``foreground``, which over-weights the flat interior).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if strategy not in SAMPLING_STRATEGIES:
        raise ValueError(f"sampling must be one of {SAMPLING_STRATEGIES}")
    rng = np.random.default_rng(seed)
    if strategy == "uniform":
        return rng.uniform(-1.0, 1.0, size=(n, 3))

    if strategy == "band":
        mask = (volume.frames[0] > 0.05) & (volume.frames[0] < 0.95)
        empty = "band sampling needs frame-0 intensities strictly between 0.05 and 0.95"
    else:
        mask = volume.frames[0] > 0.1
        empty = "foreground sampling needs frame-0 intensity > 0.1 somewhere"
    idx = np.argwhere(mask)  # rows of (iz, iy, ix)
    if idx.shape[0] == 0:
        raise ValidationError(empty)
    n_fg = n // 2
    n_uni = n - n_fg
    uni = rng.uniform(-1.0, 1.0, size=(n_uni, 3))
    rows = idx[rng.integers(0, idx.shape[0], size=n_fg)]
    jitter = rng.uniform(-0.5, 0.5, size=(n_fg, 3))
    d, h, w = volume.grid_shape
    counts = np.array([w, h, d], dtype=np.float64)
    vox = rows[:, ::-1].astype(np.float64) + jitter  # to (ix, iy, iz) order
    fg = np.clip(2.0 * vox / (counts - 1.0) - 1.0, -1.0, 1.0)
    return np.concatenate([fg, uni], axis=0)


def total_loss(model: VelocityFieldModel, volume: Volume4D, points,
               cycle_weight: float = 1.0, cycle_enabled: bool = True,
               steps_per_frame: int = 1):
    """The objective; one Euler pass over the (n, 3) seed array feeds both
    terms.

    Returns (total, data, cycle) nodes; cycle is None when disabled.  With
    weight 0 the total equals the data term exactly.
    """
    nodes = flow_at_frames_nodes(model, points, volume.frame_times, steps_per_frame)
    ref = gather_trilinear(volume.frames[-1], nodes[-1])
    data = None
    for i in range(volume.n_frames - 1):
        term = ad.mse(gather_trilinear(volume.frames[i], nodes[i]), ref)
        data = term if data is None else ad.add(data, term)
    if not cycle_enabled:
        return data, data, None
    d = ad.sub(nodes[0], nodes[-1])
    cyc = ad.scale(ad.sum_all(ad.mul(d, d)), 1.0 / nodes[0].value.shape[0])
    return ad.add(data, ad.scale(cyc, cycle_weight)), data, cyc


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls([np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params], 0)


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Standard bias-corrected Adam update, in place on the param arrays."""
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ValueError("params/grads/state length mismatch")
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape or p.shape != m.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return state


def fit(volume: Volume4D, config: FitConfig):
    """Optimize a fresh model on one volume; returns (model, FitReport)."""
    sizes = default_layer_sizes(config.hidden_layers, config.hidden_width,
                                config.time_encoding)
    model = init_weights(config.seed, sizes, config.omega, period=volume.period,
                         time_encoding=config.time_encoding, dtype=config.dtype)
    params = model.parameters
    state = AdamState.for_params([p.value for p in params])
    data_hist, cycle_hist, total_hist = [], [], []
    for epoch in range(config.epochs):
        pts = sample_points(volume, config.points_per_epoch, config.sampling,
                            seed=(config.seed, epoch))
        with ad.Tape() as tape:
            total, data, cyc = total_loss(
                model, volume, pts, config.cycle_weight, config.cycle_enabled,
                config.steps_per_frame)
            tv = float(total.value)
            if not math.isfinite(tv):
                raise NumericalError(f"non-finite loss at epoch {epoch}")
            tape.backward(total)
        adam_step([p.value for p in params], [p.grad for p in params],
                  state, config.learning_rate)
        data_hist.append(float(data.value))
        cycle_hist.append(float(cyc.value) if cyc is not None else 0.0)
        total_hist.append(tv)
    report = FitReport(
        data_loss=data_hist,
        cycle_loss=cycle_hist,
        total_loss=total_hist,
        config=config,
        cycle_weight_ignored=(not config.cycle_enabled and config.cycle_weight > 0),
    )
    return model, report


# ---------------------------------------------------------------------------
# config file + report serialization

# config key -> type, one entry per FitConfig field
_HINTS = get_type_hints(FitConfig)
_CONFIG_TYPES = {f.name: _HINTS[f.name] for f in fields(FitConfig)}

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _convert(key: str, raw: str):
    kind = _CONFIG_TYPES[key]
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for config key {key!r}: {exc}") from exc


def load_fit_config(path=None, overrides=None) -> FitConfig:
    """Build a FitConfig from a flat ``key = value`` file plus overrides.

    Keys are exactly the FitConfig field names; '#' starts a comment.
    Override values (e.g. from command-line flags) win over file values;
    a string override is converted as a file value is, so ``"off"`` means
    False in both.
    """
    values = {}
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (s.strip() for s in text.split("=", 1))
                if key not in _CONFIG_TYPES:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _convert(key, raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _convert(key, val) if isinstance(val, str) else val
    return FitConfig(**values)


def write_loss_csv(report: FitReport, path):
    """Per-epoch losses; float fields use repr so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOSS_COLUMNS)
        for e in range(report.epochs):
            writer.writerow([e, repr(report.data_loss[e]),
                             repr(report.cycle_loss[e]),
                             repr(report.total_loss[e])])


def write_fit_summary(report: FitReport, path):
    summary = {
        "config": asdict(report.config),
        "epochs": report.epochs,
        "final_data_loss": report.data_loss[-1],
        "final_cycle_loss": report.cycle_loss[-1],
        "final_total_loss": report.total_loss[-1],
        "cycle_weight_ignored": report.cycle_weight_ignored,
        "checkpoint": report.checkpoint_path,
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
