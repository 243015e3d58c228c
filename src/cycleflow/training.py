"""Objective assembly and optimization.

The loss couples every frame to the last one along forward trajectories:
points advected from t=0 are scored on intensity constancy
sum_i mean_P (I_{t_i}(x_i) - I_1(x_{N-1}))^2, plus an optional
cycle-return penalty mean_P ||P - phi_1(P)||^2 that forces trajectories
over the whole cycle [0, 1] back to their seeds.  Both terms share one
Euler pass, so enabling the penalty costs nothing extra.  The weighted sum
of both terms is one tape node, whose backward hands each frame read and
the path's two ends their gradients.  Optimization is plain Adam over the
unrolled recursion.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, FormatError, NumericalError, ValidationError
from .field import VelocityFieldModel, default_layer_sizes, init_weights
from .flow import flow_at_frames_nodes
from .volume import Volume4D, gather_trilinear

SAMPLING_STRATEGIES = ("uniform", "foreground", "band")
PRECISIONS = ("f32", "f64")
LOSS_COLUMNS = ("epoch", "data_loss", "cycle_loss", "total_loss")
# counts become array dimensions and enter float arithmetic; the seed does not
_COUNTS = ("epochs", "points_per_epoch", "steps_per_frame", "hidden_layers",
           "hidden_width")
_MAX_COUNT = np.iinfo(np.intp).max
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and eps


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
        for name in _COUNTS:
            if getattr(self, name) > _MAX_COUNT:
                raise ConfigError(f"{name} must be at most {_MAX_COUNT}")
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
    checkpoint_path: str | None = None

    @property
    def epochs(self) -> int:
        return len(self.total_loss)

    @property
    def cycle_weight_ignored(self) -> bool:
        return not self.config.cycle_enabled and self.config.cycle_weight > 0


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
    uni = rng.uniform(-1.0, 1.0, size=(n - n_fg, 3))
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
    """The objective; one Euler pass over the (n, 3) seeds (an array, or a
    Node to get their gradient) feeds both terms, and the terms and their
    weighting record as one tape node over the frame gathers and the
    path's ends.

    Returns (total, data, cycle): total is that node, data and cycle are
    untaped constants.  With the cycle disabled it returns (total, total,
    None).  With weight 0 the total equals the data term exactly.
    """
    nodes = flow_at_frames_nodes(model, points, volume.frame_times, steps_per_frame)
    reads = [gather_trilinear(f, x) for f, x in zip(volume.frames, nodes)]
    # float64 intensities: one mean square per frame, summed left to right
    diffs = [r.value - reads[-1].value for r in reads[:-1]]
    data = sum(np.mean(diff * diff) for diff in diffs)
    total, parents = data, reads
    if cycle_enabled:
        d = nodes[0].value - nodes[-1].value  # the model's dtype, as is the penalty
        inv_b = 1.0 / len(d)
        cyc = (d * d).sum() * inv_b
        total, parents = data + cyc * cycle_weight, reads + [nodes[0], nodes[-1]]

    def backward(g):
        cs = [g * (2.0 / diff.size) * diff for diff in diffs]
        # the reference read's gradient, summed from the last frame down
        grads = [*cs, sum((-c for c in cs[-2::-1]), -cs[-1])]
        if cycle_enabled:
            gd = g.astype(d.dtype) * cycle_weight * inv_b * d * 2
            grads += [gd, -gd]
        return grads

    node = ad.record(total, parents, backward)
    if not cycle_enabled:
        return node, node, None
    return node, ad.constant(data), ad.constant(cyc)


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


def adam_step(params, grads, state: AdamState, lr: float):
    """Standard bias-corrected Adam update, in place on the param arrays."""
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ValueError("params/grads/state length mismatch")
    state.step += 1
    bc1 = 1.0 - _BETA1 ** state.step
    bc2 = 1.0 - _BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape or p.shape != m.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
    return state


def fit(volume: Volume4D, config: FitConfig):
    """Optimize a fresh model on one volume; returns (model, FitReport)."""
    sizes = default_layer_sizes(config.hidden_layers, config.hidden_width,
                                config.time_encoding)
    model = init_weights(config.seed, sizes, config.omega, config.time_encoding,
                         config.dtype)
    params = model.parameters
    state = AdamState.for_params([p.value for p in params])
    data_hist, cycle_hist, total_hist = [], [], []
    tape = ad.Tape()  # every epoch's field calls reuse the arrays of the last
    for epoch in range(config.epochs):
        pts = sample_points(volume, config.points_per_epoch, config.sampling,
                            seed=(config.seed, epoch))
        # a wild omega, cycle weight or learning rate overflows somewhere in
        # the step; the checks on the velocities, the loss and the weights
        # report it, so the overflow itself need not warn
        with tape, np.errstate(over="ignore", invalid="ignore"):
            total, data, cyc = total_loss(
                model, volume, pts, config.cycle_weight, config.cycle_enabled,
                config.steps_per_frame)
            tv = float(total.value)
            if not math.isfinite(tv):
                raise NumericalError(f"non-finite loss at epoch {epoch}")
            tape.backward(total)
            adam_step([p.value for p in params], [p.grad for p in params],
                      state, config.learning_rate)
        if not all(np.isfinite(p.value).all() for p in params):
            raise NumericalError(f"non-finite weights after epoch {epoch}: "
                                 "the step overflowed the model dtype")
        data_hist.append(float(data.value))
        cycle_hist.append(float(cyc.value) if cyc is not None else 0.0)
        total_hist.append(tv)
    return model, FitReport(data_hist, cycle_hist, total_hist, config)


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
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from exc
        for lineno, line in enumerate(lines, start=1):
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
        for e, row in enumerate(zip(report.data_loss, report.cycle_loss, report.total_loss)):
            writer.writerow([e, *map(repr, row)])


def read_loss_csv(path):
    """The epoch, data, cycle and total loss columns of a loss.csv as
    write_loss_csv writes it: the LOSS_COLUMNS header, then 2 or more rows of
    4 finite numbers; FormatError naming the first line that is not."""
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        reader, rows = csv.reader(fh), []
        try:
            if next(reader, None) != list(LOSS_COLUMNS):
                raise ValueError(f"not the header {','.join(LOSS_COLUMNS)}")
            for row in reader:
                rows.append([float(v) for v in row])
                if len(row) != len(LOSS_COLUMNS) or not np.isfinite(rows[-1]).all():
                    raise ValueError(f"need {len(LOSS_COLUMNS)} finite numbers")
            if len(rows) < 2:
                raise ValueError("a loss history needs 2 or more rows")
        except (ValueError, csv.Error) as exc:
            raise FormatError(f"{path}:{max(reader.line_num, 1)}: {exc}") from exc
    return np.array(rows).T


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
