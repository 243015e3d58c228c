"""Explicit Euler integration of the learned velocity ODE.

Positions live in normalized [-1,1]^3 coordinates throughout; meshes are
converted at the boundary by a DomainNormalizer.  Under an active tape each
Euler step records two nodes (the field call and the step x + h * v), so the
backward pass is the discrete adjoint of the unrolled integrator: the
endpoint is differentiable with respect to both the model weights and the
seed positions.

Every Euler step, taped or not, runs in the model's dtype: an f32
checkpoint integrates in float32, an f64 one in float64.  The arrays
returned to callers are float64, and their row 0 is the caller's seeds
bit for bit.

inverse_map, the PSNR warp's backward map, runs row_blocks of 8192-16383
rows, each split into two parts by the field's one rule, and keeps only
endpoints; the warp streams those blocks, building each one's voxel centres.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericalError
from .field import positions
from .mesh import TriangleMesh

_BLOCK = 8192  # least rows per inverse_map block: every block has 8192-16383
DOMAIN_SLACK = 1.5  # |coordinate| past which a pass warns; the field is defined everywhere
_MAX_BOUNDARIES = np.iinfo(np.intp).max // 8  # float64 step times one array can hold


@dataclass
class Trajectory:
    """Per-point positions at every Euler step boundary.

    points has shape (B, S+1, 3) in normalized coordinates; times has
    shape (S+1,) and is strictly monotonic (decreasing for backward runs).
    points is float64: points[:, 0, :] is exactly the seed batch, and the
    later rows widen steps taken in the model's dtype.
    """

    points: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.points.ndim != 3 or self.points.shape[2] != 3:
            raise ValueError(f"points must be (B,S+1,3), got {self.points.shape}")
        if self.times.shape != (self.points.shape[1],):
            raise ValueError("times length must match step count + 1")
        d = np.diff(self.times)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("times must be strictly monotonic")

    @property
    def seeds(self) -> np.ndarray:
        return self.points[:, 0, :]

    @property
    def endpoints(self) -> np.ndarray:
        return self.points[:, -1, :]


@np.errstate(over="ignore", invalid="ignore")  # the checks below report it
def euler_path(model, seeds, times) -> list:
    """Core unrolled Euler recursion x_{k+1} = x_k + h_k * H(x_k, t_k).

    seeds is an (B,3) autodiff Node or array, taken by field.positions into
    the model's dtype (its one check refuses seeds that are not finite
    there); times is the full array of step boundaries from
    frame_step_times, not re-checked here.  Returns the list of position
    Nodes at every boundary, seeds first, recorded only under an active
    tape.  Each later position's largest |coordinate| is taken once, here:
    a non-finite step is a NumericalError naming the step, and a pass that
    runs the field past DOMAIN_SLACK warns once.
    """
    x = positions(seeds, model.dtype)
    path, reach, warn = [x], np.abs(x.value).max(initial=0.0), True
    for k in range(times.size - 1):
        if reach > DOMAIN_SLACK and warn:
            warnings.warn("evaluating velocity field outside the slack domain cube",
                          RuntimeWarning)
            warn = False
        h = float(times[k + 1] - times[k])
        v = model(x, float(times[k]))
        x = ad.record(x.value + v.value * h, (x, v), lambda g, h=h: (g, g * h))
        reach = np.abs(x.value).max(initial=0.0)
        if not math.isfinite(reach):  # so is x wherever v is not finite
            what = "position" if np.isfinite(v.value).all() else "velocity"
            raise NumericalError(f"non-finite {what} at step {k} (t={times[k]})")
        path.append(x)
    return path


def _stack_rows(seeds, nodes) -> np.ndarray:
    """(B, len(nodes), 3) float64: row 0 is the caller's seeds, the later
    rows widen the model-dtype positions."""
    rows = [np.asarray(seeds, dtype=np.float64)] + [n.value for n in nodes[1:]]
    return np.stack(rows, axis=1)


def integrate(model, seeds, t_start: float, t_end: float, steps: int) -> Trajectory:
    """Euler-integrate seed points from t_start to t_end in S uniform steps
    (frame_step_times refuses S < 1 and t_start == t_end, euler_path bad seeds)."""
    times = frame_step_times([t_start, t_end], steps)
    path = euler_path(model, seeds, times)
    return Trajectory(_stack_rows(seeds, path), times)


def frame_step_times(frame_times, steps_per_frame) -> np.ndarray:
    """Step boundaries of every Euler pass, holding each frame time bit for
    bit (increasing or decreasing), so frame samples are free of interpolation.

    steps_per_frame is one step count for every gap between consecutive
    frame times, or one count per gap; each gap is cut into that many equal
    steps.  ValueError unless the frame times and their gaps are finite and
    the grid strictly monotonic; MemoryError when no array can hold the grid.
    """
    frame_times = np.asarray(frame_times, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # a gap past the float range
        gaps = np.diff(frame_times.ravel())
    if frame_times.ndim != 1 or gaps.size < 1 or not np.isfinite(gaps).all():
        raise ValueError("need two or more finite frame times, with finite gaps")
    counts = np.broadcast_to(steps_per_frame, (frame_times.size - 1,))
    if not np.all(counts >= 1):
        raise ConfigError("steps_per_frame must be >= 1")
    # in Python ints, so no count wraps or overflows its cast (a float count may be inf)
    if 1 + sum(int(min(n, _MAX_BOUNDARIES)) for n in counts) > _MAX_BOUNDARIES:
        raise MemoryError(f"more than {_MAX_BOUNDARIES} step boundaries")
    # linspace ends exactly on its stop, so each frame time is a boundary
    times = np.concatenate([frame_times[:1]] + [
        np.linspace(a, b, int(n) + 1)[1:]
        for a, b, n in zip(frame_times[:-1], frame_times[1:], counts)])
    d = np.diff(times)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ConfigError("step times are not strictly monotonic: steps round to 0 "
                          "or the frame times are unordered or repeated")
    return times


def flow_at_frames_nodes(model, seeds, frame_times, steps_per_frame=1) -> list:
    """Positions at each increasing frame time as autodiff Nodes, length N."""
    times = frame_step_times(frame_times, steps_per_frame)
    if times[0] > times[-1]:
        raise ValueError("frame times must be increasing")
    path = euler_path(model, seeds, times)
    return [path[k] for k in np.searchsorted(times, frame_times)]


def flow_at_frames(model, seeds, frame_times, steps_per_frame=1) -> np.ndarray:
    """Positions of the seed batch at every frame time, as (B, N, 3)."""
    nodes = flow_at_frames_nodes(model, seeds, frame_times, steps_per_frame)
    return _stack_rows(seeds, nodes)


def inverse_map(model, targets, t: float, steps: int) -> np.ndarray:
    """Approximate preimages under the flow: integrate backward from t to 0
    in S uniform steps; returns the (B, 3) float64 endpoints.

    The rows run through euler_path in row_blocks(B), near-equal blocks of
    _BLOCK to 2*_BLOCK - 1 rows (a shorter batch stays whole), each
    keeping only its endpoints; the field runs each as two parts, on two
    threads with OpenBLAS pinned to one.  Every block's bits depend on its
    row count alone, so the result's bits depend on B alone.  At t = 0 the
    copy evaluates no field, but field.positions still refuses bad targets.
    """
    targets = np.asarray(targets)
    if t == 0.0:
        positions(targets, model.dtype)
        return targets.astype(np.float64)
    times = frame_step_times([t, 0.0], steps)
    out = np.empty(targets.shape)
    for rows in row_blocks(len(targets)):
        out[rows] = euler_path(model, targets[rows], times)[-1].value
    return out


def row_blocks(n: int) -> list:
    """inverse_map's max(1, n // _BLOCK) blocks of n rows, as slices, by
    np.array_split's rule: the first n % k of the k are one row longer."""
    k = max(1, n // _BLOCK)
    stops = [i * (n // k) + min(i, n % k) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(stops, stops[1:])]


def deform_mesh(model, mesh: TriangleMesh, times, steps: int,
                normalizer) -> list:
    """Advect mesh vertices (world mm) forward from time 0 to each time in
    times, with one Euler pass for all of them.

    The pass runs through 0 and every distinct requested time; each gap
    between consecutive ones takes max(1, round(steps * gap)) equal steps,
    so a single time t takes max(1, round(steps * t)).  Returns one mesh per
    requested time, in the given order and duplicates included.  Face
    topology is untouched; t=0 returns an identical copy.
    """
    if not 1 <= steps <= np.iinfo(np.intp).max:
        raise ConfigError(f"steps must be between 1 and {np.iinfo(np.intp).max}")
    times = [float(t) for t in times]
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError("times must be finite and non-negative")
    knots = np.unique([0.0, *times])
    if knots.size == 1:
        return [mesh.copy() for _ in times]
    norm_verts = normalizer.to_normalized(mesh.vertices)
    if np.abs(norm_verts).max() > 1.0:
        warnings.warn("mesh vertices outside the volume's world bounds",
                      RuntimeWarning, stacklevel=2)
    counts = np.maximum(1, np.rint(steps * np.diff(knots)))  # frame_step_times casts them
    track = flow_at_frames(model, norm_verts, knots, counts)
    return [mesh.copy() if t == 0.0 else TriangleMesh(
        normalizer.to_world(track[:, np.searchsorted(knots, t)]), mesh.faces.copy())
        for t in times]


def write_trajectory_csv(points, times, path):
    """Dump (B, S+1, 3) world-mm positions at times (S+1,) as point_id,
    step, t, x, y, z rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_id", "step", "t", "x", "y", "z"])
        for i in range(points.shape[0]):
            for k in range(points.shape[1]):
                x, y, z = points[i, k]
                writer.writerow([i, k, repr(float(times[k])),
                                 repr(float(x)), repr(float(y)), repr(float(z))])
