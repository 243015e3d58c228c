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

inverse_map, the PSNR warp's backward map, runs blocks of 8192-16383 rows as
two halves on two threads and keeps only endpoints; it says why bits hold.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericalError, ValidationError
from .mesh import TriangleMesh

_BLOCK = 8192  # least rows per inverse_map block: every block has 8192-16383


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

    seeds is an (B,3) autodiff Node or array (converted to the model's
    dtype); times is the full array of step boundaries.  Returns the list
    of position Nodes at every boundary, seeds first, recorded only under an
    active tape.  Each position is checked once, here, in the model's dtype:
    non-finite seeds (a float32 model overflows past ~3.4e38) are a
    ValidationError, and a non-finite step a NumericalError naming the step.
    """
    x = seeds if isinstance(seeds, ad.Node) else ad.constant(seeds, model.dtype)
    if not np.isfinite(x.value).all():
        raise ValidationError(f"seed positions overflow {x.value.dtype}: they lie "
                              "far outside the normalized domain")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two time boundaries")
    d = np.diff(times)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError("time boundaries must be strictly monotonic")
    path = [x]
    for k in range(times.size - 1):
        h = float(times[k + 1] - times[k])
        v = model(x, float(times[k]))
        x = ad.record(x.value + v.value * h, (x, v), lambda g, h=h: (g, g * h))
        if not np.isfinite(x.value).all():  # so is x wherever v is not finite
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
    (euler_path refuses S < 1 and t_start == t_end)."""
    seeds = np.asarray(seeds)
    if not np.isfinite(seeds).all():
        raise ValueError("non-finite seed positions")
    times = np.linspace(t_start, t_end, steps + 1)
    path = euler_path(model, seeds, times)
    return Trajectory(_stack_rows(seeds, path), times)


def frame_step_times(frame_times, steps_per_frame) -> np.ndarray:
    """Step boundaries that pass exactly through every frame time, so frame
    samples are free of interpolation.

    steps_per_frame is one step count for every gap between consecutive
    frame times, or one count per gap; each gap is cut into that many equal
    steps.
    """
    frame_times = np.asarray(frame_times, dtype=np.float64)
    if frame_times.ndim != 1 or frame_times.size < 2:
        raise ValueError("need at least two frame times")
    if not np.all(np.diff(frame_times) > 0):
        raise ValueError("frame times must be strictly increasing")
    counts = np.broadcast_to(steps_per_frame, (frame_times.size - 1,))
    if not np.all(counts >= 1):
        raise ConfigError("steps_per_frame must be >= 1")
    pieces = [frame_times[:1]]
    for a, b, n in zip(frame_times[:-1], frame_times[1:], counts):
        pieces.append(np.linspace(a, b, int(n) + 1)[1:])
    return np.concatenate(pieces)


def flow_at_frames_nodes(model, seeds, frame_times, steps_per_frame=1) -> list:
    """Positions at each frame time as autodiff Nodes (length N list)."""
    times = frame_step_times(frame_times, steps_per_frame)
    path = euler_path(model, seeds, times)
    # linspace ends exactly on its stop, so every frame time is a boundary
    return [path[k] for k in np.searchsorted(times, frame_times)]


def flow_at_frames(model, seeds, frame_times, steps_per_frame=1) -> np.ndarray:
    """Positions of the seed batch at every frame time, as (B, N, 3)."""
    nodes = flow_at_frames_nodes(model, seeds, frame_times, steps_per_frame)
    return _stack_rows(seeds, nodes)


def inverse_map(model, targets, t: float, steps: int) -> np.ndarray:
    """Approximate preimages under the flow: integrate backward from t to 0
    in S uniform steps; returns the (B, 3) float64 endpoints.

    The rows run through euler_path in max(1, B // _BLOCK) near-equal blocks
    of _BLOCK to 2*_BLOCK - 1 rows (a shorter batch stays whole), each
    keeping only its endpoints; the field runs each as two halves of 4096 to
    8191 rows on two threads.  For 128- and 256-wide networks the result is
    bit-equal to one whole-batch pass, taped or not: halves this long take the
    whole batch's BLAS kernels (OpenBLAS 0.3.31).  Other widths, such as 64 or
    a float64 250, can take other kernels per block and round apart.
    """
    targets = np.asarray(targets)
    if not np.isfinite(targets).all():
        raise ValueError("non-finite seed positions")
    if t == 0.0:
        return targets.astype(np.float64)
    times = np.linspace(t, 0.0, steps + 1)
    out = np.empty(targets.shape)
    stop = 0
    for block in np.array_split(targets, max(1, len(targets) // _BLOCK)):
        start, stop = stop, stop + len(block)
        out[start:stop] = euler_path(model, block, times)[-1].value
    return out


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
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    times = [float(t) for t in times]
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError("times must be finite and non-negative")
    knots = np.unique([0.0, *times])
    if knots.size == 1:
        return [mesh.copy() for _ in times]
    norm_verts = normalizer.to_normalized(mesh.vertices)
    if np.abs(norm_verts).max() > 1.0:
        import warnings
        warnings.warn("mesh vertices outside the volume's world bounds",
                      RuntimeWarning, stacklevel=2)
    counts = np.maximum(1, np.rint(steps * np.diff(knots))).astype(int)
    track = flow_at_frames(model, norm_verts, knots, counts)
    out = []
    for t in times:
        if t == 0.0:
            out.append(mesh.copy())
        else:
            k = np.searchsorted(knots, t)
            out.append(TriangleMesh(normalizer.to_world(track[:, k]),
                                    mesh.faces.copy()))
    return out


def write_trajectory_csv(trajectory: Trajectory, path, normalizer):
    """Dump a trajectory as point_id, step, t, x, y, z rows in world mm."""
    shape = trajectory.points.shape
    pts = normalizer.to_world(trajectory.points.reshape(-1, 3)).reshape(shape)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_id", "step", "t", "x", "y", "z"])
        for i in range(pts.shape[0]):
            for k in range(pts.shape[1]):
                x, y, z = pts[i, k]
                writer.writerow([i, k, repr(float(trajectory.times[k])),
                                 repr(float(x)), repr(float(y)), repr(float(z))])
