"""Explicit Euler integration of the learned velocity ODE.

Positions live in normalized [-1,1]^3 coordinates throughout; meshes are
converted at the boundary by a DomainNormalizer.  The integration loop is
built from autodiff ops, so running it under an active tape makes the
endpoint differentiable with respect to both the model weights and the
seed positions.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericalError
from .mesh import TriangleMesh


@dataclass
class Trajectory:
    """Per-point positions at every Euler step boundary.

    points has shape (B, S+1, 3) in normalized coordinates; times has
    shape (S+1,) and is strictly monotonic (decreasing for backward runs).
    points[:, 0, :] is exactly the seed batch.
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
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_steps(self) -> int:
        return self.points.shape[1] - 1

    @property
    def seeds(self) -> np.ndarray:
        return self.points[:, 0, :]

    @property
    def endpoints(self) -> np.ndarray:
        return self.points[:, -1, :]


def euler_path(model, seeds, times) -> list:
    """Core unrolled Euler recursion x_{k+1} = x_k + h_k * H(x_k, t_k).

    seeds is an (B,3) autodiff Node or array; times is the full array of
    step boundaries.  Returns the list of position Nodes at every
    boundary, seeds first.  Recording happens only under an active tape.
    """
    x = seeds if isinstance(seeds, ad.Node) else ad.constant(seeds)
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
        if not np.isfinite(v.value).all():
            raise NumericalError(f"non-finite velocity at step {k} (t={times[k]})")
        x = ad.add(x, ad.scale(v, h))
        path.append(x)
    return path


def integrate(model, seeds, t_start: float, t_end: float, steps: int) -> Trajectory:
    """Euler-integrate seed points from t_start to t_end in S uniform steps."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    seeds = np.asarray(seeds, dtype=np.float64)
    if not np.isfinite(seeds).all():
        raise ValueError("non-finite seed positions")
    if t_end == t_start:
        raise ValueError("t_start and t_end must differ")
    times = np.linspace(t_start, t_end, steps + 1)
    path = euler_path(model, seeds, times)
    return Trajectory(np.stack([p.value for p in path], axis=1), times)


def frame_step_times(frame_times, steps_per_frame: int) -> np.ndarray:
    """Step boundaries whose every steps_per_frame-th entry is exactly a
    frame time, so frame samples are free of interpolation."""
    frame_times = np.asarray(frame_times, dtype=np.float64)
    if frame_times.ndim != 1 or frame_times.size < 2:
        raise ValueError("need at least two frame times")
    if not np.all(np.diff(frame_times) > 0):
        raise ValueError("frame times must be strictly increasing")
    if steps_per_frame < 1:
        raise ValueError("steps_per_frame must be >= 1")
    pieces = [frame_times[:1]]
    for a, b in zip(frame_times[:-1], frame_times[1:]):
        pieces.append(np.linspace(a, b, steps_per_frame + 1)[1:])
    return np.concatenate(pieces)


def flow_at_frames_nodes(model, seeds, frame_times, steps_per_frame: int = 1) -> list:
    """Positions at each frame time as autodiff Nodes (length N list)."""
    times = frame_step_times(frame_times, steps_per_frame)
    path = euler_path(model, seeds, times)
    return [path[i * steps_per_frame] for i in range(len(frame_times))]


def flow_at_frames(model, seeds, frame_times, steps_per_frame: int = 1) -> np.ndarray:
    """Positions of the seed batch at every frame time, as (B, N, 3)."""
    seeds = np.asarray(seeds, dtype=np.float64)
    nodes = flow_at_frames_nodes(model, seeds, frame_times, steps_per_frame)
    return np.stack([n.value for n in nodes], axis=1)


def inverse_map(model, targets, t: float, steps: int) -> np.ndarray:
    """Approximate preimages under the flow: integrate backward from t to 0."""
    if t == 0.0:
        return np.asarray(targets, dtype=np.float64).copy()
    return integrate(model, targets, t, 0.0, steps).endpoints


def deform_mesh(model, mesh: TriangleMesh, t: float, steps: int,
                normalizer) -> TriangleMesh:
    """Advect mesh vertices (world mm) forward from time 0 to t.

    Face topology is untouched.  t=0 returns an identical copy without
    integrating.
    """
    if t == 0.0:
        return mesh.copy()
    norm_verts = normalizer.to_normalized(mesh.vertices)
    if np.abs(norm_verts).max() > 1.0:
        import warnings
        warnings.warn("mesh vertices outside the volume's world bounds",
                      RuntimeWarning, stacklevel=2)
    traj = integrate(model, norm_verts, 0.0, t, steps)
    return TriangleMesh(normalizer.to_world(traj.endpoints), mesh.faces.copy())


def write_trajectory_csv(trajectory: Trajectory, path, normalizer=None):
    """Dump a trajectory as point_id, step, t, x, y, z rows (world mm when a
    normalizer is supplied, otherwise normalized coordinates)."""
    pts = trajectory.points
    if normalizer is not None:
        pts = normalizer.to_world(pts.reshape(-1, 3)).reshape(pts.shape)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_id", "step", "t", "x", "y", "z"])
        for i in range(pts.shape[0]):
            for k in range(pts.shape[1]):
                x, y, z = pts[i, k]
                writer.writerow([i, k, repr(float(trajectory.times[k])),
                                 repr(float(x)), repr(float(y)), repr(float(z))])
