"""4D image container, differentiable trilinear sampling, coordinate
normalization, the synthetic breathing-sphere generator, and V4D file I/O.

Conventions: a frame is stored as a (D,H,W) float32 array indexed
``frame[iz, iy, ix]``; ``spacing`` and ``origin`` are in world-axis order
(x, y, z).  The world position of voxel (ix,iy,iz) is
``origin + (ix*sx, iy*sy, iz*sz)``.  Frame times are normalized so a full
cycle spans [0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .container import (check_header, is_count, is_number, list_of,
                        read_container, write_container)
from .errors import ConfigError, FormatError, NumericalError, ValidationError
from .mesh import TriangleMesh, icosphere

V4D_MAGIC = b"V4DVOL01"
_SAMPLE_BLOCK = 16384  # rows per trilinear kernel call in sample_trilinear


@dataclass
class Volume4D:
    """A time series of co-registered scalar 3D grids over one cycle."""

    frames: np.ndarray       # (N, D, H, W) float32
    spacing: tuple           # (sx, sy, sz) mm per voxel
    origin: tuple            # (ox, oy, oz) world mm of voxel (0,0,0)
    frame_times: np.ndarray  # (N,) normalized, strictly increasing, 0 .. 1

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        self.spacing = tuple(float(s) for s in self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        self.frame_times = np.asarray(self.frame_times, dtype=np.float64)
        self.validate()

    def validate(self):
        if self.frames.ndim != 4:
            raise ValidationError(f"frames must be (N,D,H,W), got {self.frames.shape}")
        n, d, h, w = self.frames.shape
        if n < 2:
            raise ValidationError("need at least 2 frames")
        if min(d, h, w) < 2:
            raise ValidationError("each grid axis needs at least 2 voxels")
        if not np.isfinite(self.frames).all():
            raise ValidationError("frames must be finite (no NaN or inf voxels)")
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValidationError(f"spacing must be 3 positive values, got {self.spacing}")
        if len(self.origin) != 3:
            raise ValidationError("origin must have 3 components")
        if self.frame_times.shape != (n,):
            raise ValidationError("frame_times length must match frame count")
        if not np.all(np.diff(self.frame_times) > 0):
            raise ValidationError("frame_times must be strictly increasing")
        if self.frame_times[0] != 0.0 or self.frame_times[-1] != 1.0:
            raise ValidationError("frame_times must start at 0 and end at 1")
        try:
            DomainNormalizer.from_volume(self)
        except ConfigError as exc:  # the same bounds, read from a file
            raise ValidationError(f"grid world bounds: {exc}") from None

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def grid_shape(self):
        """(D, H, W) voxel counts."""
        return self.frames.shape[1:]

    @property
    def period(self) -> float:
        return float(self.frame_times[-1])

    def world_bounds(self):
        """(lo, hi) world-mm corners of the voxel-center bounding box."""
        d, h, w = self.grid_shape
        counts = np.array([w, h, d], dtype=np.float64)  # world-axis order
        lo = np.asarray(self.origin, dtype=np.float64)
        with np.errstate(over="ignore"):
            hi = lo + (counts - 1) * np.asarray(self.spacing, dtype=np.float64)
        return lo, hi


class DomainNormalizer:
    """Linear map between world mm and the centered cube [-1,1]^3."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if self.lo.shape != (3,) or self.hi.shape != (3,):
            raise ConfigError("bounds must be 3-vectors")
        with np.errstate(over="ignore", invalid="ignore"):
            self.half = (self.hi - self.lo) / 2.0
            self.center = (self.hi + self.lo) / 2.0
        if not (np.isfinite(self.half).all() and np.isfinite(self.center).all()):
            raise ConfigError("bounds, their extent and centre must be finite")
        if not np.all(self.half > 0):
            raise ConfigError("bounds need a half extent (hi - lo) / 2 above 0 on every axis")

    @classmethod
    def from_volume(cls, volume: Volume4D) -> "DomainNormalizer":
        return cls(*volume.world_bounds())

    def to_normalized(self, world) -> np.ndarray:
        with np.errstate(over="ignore"):
            norm = (np.asarray(world, dtype=np.float64) - self.center) / self.half
        if not np.isfinite(norm).all():
            raise ValidationError("points lie too far outside the bounds to normalize")
        return norm

    def to_world(self, norm) -> np.ndarray:
        with np.errstate(over="ignore"):
            world = np.asarray(norm, dtype=np.float64) * self.half + self.center
        if not np.isfinite(world).all():
            raise NumericalError("positions overflow float64 in world mm")
        return world


# ---------------------------------------------------------------------------
# trilinear sampling


def _trilinear_kernel(frame, pts, want_grad):
    """Interpolate one frame at normalized points (B,3) in x,y,z order.

    Returns (values, grads) where grads is d(value)/d(normalized point),
    or None when not requested.  Sampling clamps to the border; the
    gradient is exactly zero for coordinates outside the grid.
    """
    d, h, w = frame.shape
    n = np.array([w, h, d], dtype=np.float64)  # voxel counts in x,y,z order
    u = (np.asarray(pts) + 1.0) * 0.5 * (n - 1.0)
    inside = (u >= 0.0) & (u <= n - 1.0)
    uc = np.clip(u, 0.0, n - 1.0)
    i0 = np.minimum(uc.astype(np.int64), (n - 2.0).astype(np.int64))
    f = uc - i0
    ix, iy, iz = i0[:, 0], i0[:, 1], i0[:, 2]
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]

    c000 = frame[iz, iy, ix]
    c100 = frame[iz, iy, ix + 1]
    c010 = frame[iz, iy + 1, ix]
    c110 = frame[iz, iy + 1, ix + 1]
    c001 = frame[iz + 1, iy, ix]
    c101 = frame[iz + 1, iy, ix + 1]
    c011 = frame[iz + 1, iy + 1, ix]
    c111 = frame[iz + 1, iy + 1, ix + 1]

    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    values = c0 * (1 - fz) + c1 * fz

    if not want_grad:
        return values, None

    dvdx = ((c100 - c000) * (1 - fy) + (c110 - c010) * fy) * (1 - fz) \
        + ((c101 - c001) * (1 - fy) + (c111 - c011) * fy) * fz
    dvdy = (c10 - c00) * (1 - fz) + (c11 - c01) * fz
    dvdz = c1 - c0
    grads = np.stack([dvdx, dvdy, dvdz], axis=1)
    grads *= (n - 1.0) * 0.5
    grads *= inside
    return values, grads


def sample_trilinear(frame, points) -> np.ndarray:
    """Trilinear intensities of one (D,H,W) frame at normalized points (B,3),
    in blocks of _SAMPLE_BLOCK rows; rows are independent, so blocks keep bits."""
    pts = np.atleast_2d(np.asarray(points))
    if not np.isfinite(pts).all():
        raise ValueError("non-finite sample point")
    return np.concatenate([
        _trilinear_kernel(frame, pts[i:i + _SAMPLE_BLOCK], want_grad=False)[0]
        for i in range(0, max(1, len(pts)), _SAMPLE_BLOCK)])


def gather_trilinear(frame, points: ad.Node) -> ad.Node:
    """Differentiable gather at euler_path's positions, checked finite there:
    a (B,) node whose gradient flows to the points, not to the frame (data)."""
    values, grads = _trilinear_kernel(frame, points.value,
                                      want_grad=ad.recording())
    return ad.record(values, (points,), lambda g: (g[:, None] * grads,))


# ---------------------------------------------------------------------------
# synthetic breathing-sphere series


@dataclass(frozen=True)
class GrowthPattern:
    """Radius schedule for the synthetic sphere: linear, exponential, or
    periodic (sinusoidal about the base radius, starting at the trough)."""

    kind: str
    base_radius_mm: float
    rate: float = 0.0           # linear / exponential growth rate
    amplitude_mm: float = 0.0   # sinusoid amplitude for the periodic kind

    def __post_init__(self):
        if self.kind not in ("linear", "exponential", "periodic"):
            raise ConfigError(f"unknown growth kind {self.kind!r}")
        for name in ("base_radius_mm", "rate", "amplitude_mm"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if self.base_radius_mm <= 0:
            raise ConfigError("base radius must be positive")
        # radius must stay finite and positive over the whole cycle; linear
        # and exponential radii run monotonically from r0, so t=1 decides
        if self.kind != "periodic":
            radius_at(self, 1.0)
        elif abs(self.amplitude_mm) >= self.base_radius_mm:
            raise ConfigError("periodic amplitude must stay below the base radius")
        elif not math.isfinite(self.base_radius_mm + abs(self.amplitude_mm)):
            raise ConfigError("periodic peak radius overflows")


def radius_at(pattern: GrowthPattern, t: float) -> float:
    """Sphere radius in mm at normalized time t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ConfigError(f"t must lie in [0,1], got {t}")
    r0 = pattern.base_radius_mm
    if pattern.kind == "linear":
        r = r0 * (1.0 + pattern.rate * t)
    elif pattern.kind == "exponential":
        try:
            r = r0 * math.exp(pattern.rate * t)
        except OverflowError:
            r = math.inf
    else:
        # wrap first so t=1 reproduces t=0 bit-identically; the cycle
        # starts at the minimum radius (cyclic acquisitions are conventionally
        # phase-aligned to an extremum), so r0 is the cycle-mean radius
        frac = math.fmod(t, 1.0)
        r = r0 - pattern.amplitude_mm * math.cos(2.0 * math.pi * frac)
    if not 0.0 < r < math.inf:
        raise ConfigError(f"non-positive or non-finite radius {r} at t={t}")
    return r


def make_sphere_series(pattern: GrowthPattern, grid_shape, spacing,
                       n_frames: int, smoothing_mm: float | None = None):
    """Generate a soft-occupancy sphere sequence plus matching surface meshes.

    Each frame is 1 inside the sphere, 0 outside, with a linear ramp of the
    given width across the boundary (a hard mask would have zero
    interpolation gradient almost everywhere).  Returns (Volume4D, meshes).
    """
    if n_frames < 2:
        raise ConfigError("need at least 2 frames")
    if isinstance(grid_shape, int):
        grid_shape = (grid_shape, grid_shape, grid_shape)
    d, h, w = (int(v) for v in grid_shape)
    if min(d, h, w) < 2:
        raise ConfigError("each grid axis needs at least 2 voxels")
    spacing = tuple(float(s) for s in (spacing if hasattr(spacing, "__len__")
                                       else (spacing, spacing, spacing)))
    sx, sy, sz = spacing
    if smoothing_mm is None:
        smoothing_mm = 2.0 * min(spacing)
    if not all(0.0 < v < math.inf for v in (*spacing, smoothing_mm)):
        raise ConfigError("spacing and smoothing width must be positive and finite")

    center = np.array([(w - 1) * sx / 2.0, (h - 1) * sy / 2.0, (d - 1) * sz / 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        zz = sz * np.arange(d, dtype=np.float64)[:, None, None]
        yy = sy * np.arange(h, dtype=np.float64)[None, :, None]
        xx = sx * np.arange(w, dtype=np.float64)[None, None, :]
        dist = np.sqrt((xx - center[0]) ** 2 + (yy - center[1]) ** 2
                       + (zz - center[2]) ** 2)

    times = np.linspace(0.0, 1.0, n_frames)
    radii = [radius_at(pattern, float(t)) for t in times]
    half_extent = min((w - 1) * sx, (h - 1) * sy, (d - 1) * sz) / 2.0
    if max(radii) + smoothing_mm / 2.0 > half_extent:
        raise ValidationError(
            f"sphere (max radius {max(radii):.6g} mm + ramp) exceeds grid bounds "
            f"(half extent {half_extent:.6g} mm)"
        )
    if not np.isfinite(dist).all():
        raise ValidationError(f"voxel distances overflow at spacing {spacing} mm")

    frames = np.empty((n_frames, d, h, w), dtype=np.float32)
    meshes = []
    for i, r in enumerate(radii):
        # a subnormal width overflows the ramp to +-inf; the clip maps that
        # to the 0/1 limit of a vanishing ramp
        with np.errstate(over="ignore"):
            occupancy = np.clip((r + smoothing_mm / 2.0 - dist) / smoothing_mm, 0.0, 1.0)
        frames[i] = occupancy.astype(np.float32)
        meshes.append(icosphere(r, center=center))
    if not (frames[0] > 0.0).any():
        raise ValidationError("no voxel centre lies inside the frame-0 sphere "
                              "or its ramp")

    vol = Volume4D(frames, spacing, (0.0, 0.0, 0.0), times)
    return vol, meshes


# ---------------------------------------------------------------------------
# V4D container (framing in container.py): the header holds the grid shape,
# spacing, origin and frame times; the payload is the frames in x-fastest order


def write_v4d(volume: Volume4D, path):
    header = {
        "shape": [int(v) for v in volume.grid_shape],
        "spacing_mm": list(volume.spacing),
        "origin_mm": list(volume.origin),
        "frame_times": [float(t) for t in volume.frame_times],
        "dtype": "f32le",
    }
    write_container(path, V4D_MAGIC, header, [volume.frames])


def read_v4d(path) -> Volume4D:
    header, data, offset = read_container(path, V4D_MAGIC)
    numbers = list_of(is_number)
    check_header(path, header, {
        "shape": list_of(is_count, 3), "spacing_mm": numbers, "origin_mm": numbers,
        "frame_times": numbers, "dtype": lambda v: v == "f32le"})
    d, h, w = header["shape"]
    n = len(header["frame_times"])
    expected = n * d * h * w * 4
    if len(data) - offset != expected:
        raise FormatError(
            f"{path}: payload is {len(data) - offset} bytes at offset {offset}, "
            f"expected {expected}"
        )
    frames = np.frombuffer(data, dtype="<f4", offset=offset).reshape(n, d, h, w).copy()
    return Volume4D(frames, header["spacing_mm"], header["origin_mm"],
                    header["frame_times"])
