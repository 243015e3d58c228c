"""Evaluation: mesh Hausdorff distance, PSNR, volume curves, periodicity.

Hausdorff is symmetric vertex-to-surface: each vertex of one mesh is
measured against the exact nearest point on any triangle of the other.
Two interchangeable routes share one point-triangle kernel: a brute-force
all-pairs scan, and an indexed search, in NumPy alone, that prunes
triangles without changing the result.  The indexed route is batched — one
near-centroid search, one grid of triangle centroids per block of vertices,
and the kernel over the flattened (vertex, triangle) candidate pairs — and
is validated against the brute one.  It exits early: blocks are refined in
descending order of the near-centroid upper bound and the search stops once
no bound left exceeds the largest exact distance found (the early break of
Taha & Hanbury, TPAMI 2015).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .flow import flow_at_frames, integrate, inverse_map, row_blocks
from .mesh import TriangleMesh, mesh_volume, signed_volume
from .volume import DomainNormalizer, Volume4D, VolumeGrid, sample_trilinear

_CHUNK = 8  # vertices per brute-force block: ~1 MB (B,T,3) temporaries at T=5120
_BALL_BLOCK = 128  # vertices refined at once: at most 128*T candidates
_PAIRS = 16384  # (vertex, triangle) pairs per kernel call
_WINDOW = 8  # Morton-sorted centroids that start each vertex's walk
_CELLS = 1 << 20  # most grid cells per axis: cell keys stay below 2**61
_NEIGHBOURS = np.stack(np.meshgrid(*[(-1, 0, 1)] * 3, indexing="ij"), -1).reshape(27, 3)
# Hausdorff's barycentric projection multiplies squared edge lengths, fourth
# powers of the coordinates: below 1e75 mm they stay finite in float64
_MAX_MM = 1e75


def _dot(x, y):
    # einsum rather than (x * y).sum(-1): faster on 3-vectors, and the sum
    # rounds differently in the last bit, which would change eval.csv bytes
    return np.einsum("...d,...d->...", x, y)


def _point_segment_sq(p, a, b):
    """Squared distance from points p (...,3) to segments a->b (...,3)."""
    ab = b - a
    denom = _dot(ab, ab)
    denom = np.where(denom > 0.0, denom, 1.0)
    t = np.clip(_dot(p - a, ab) / denom, 0.0, 1.0)
    d = p - (a + t[..., None] * ab)
    return _dot(d, d)


def _point_triangle_sq(p, tri):
    """Squared distance from points p (...,3) to triangles tri (...,3,3).

    Leading axes broadcast: pairs are (M,3) against (M,3,3), all pairs
    (B,1,3) against (1,T,3,3).  Barycentric projection onto the triangle
    plane where the foot lies inside; otherwise the minimum over the three
    edge segments.
    """
    v0, v1, v2 = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    e0, e1 = v1 - v0, v2 - v0
    d00, d01, d11 = _dot(e0, e0), _dot(e0, e1), _dot(e1, e1)
    denom = d00 * d11 - d01 * d01
    safe = denom > 1e-300
    denom = np.where(safe, denom, 1.0)

    w = p - v0
    wp0, wp1 = _dot(w, e0), _dot(w, e1)
    u = (d11 * wp0 - d01 * wp1) / denom
    v = (d00 * wp1 - d01 * wp0) / denom
    inside = (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & safe

    dp = p - (v0 + u[..., None] * e0 + v[..., None] * e1)
    edge_sq = np.minimum(
        _point_segment_sq(p, v0, v1),
        np.minimum(_point_segment_sq(p, v1, v2), _point_segment_sq(p, v0, v2)),
    )
    return np.where(inside, _dot(dp, dp), edge_sq)


def point_surface_distance(points, mesh: TriangleMesh) -> np.ndarray:
    """Exact distance from each point to the nearest triangle (brute force)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tri = mesh.vertices[mesh.faces][None]
    out = np.empty(points.shape[0])
    for s in range(0, points.shape[0], _CHUNK):
        block = points[s:s + _CHUNK, None, :]
        out[s:s + _CHUNK] = np.sqrt(_point_triangle_sq(block, tri).min(axis=1))
    return out


def _directed_hausdorff_brute(a: TriangleMesh, b: TriangleMesh) -> float:
    return float(point_surface_distance(a.vertices, b).max())


def hausdorff_brute(a: TriangleMesh, b: TriangleMesh) -> float:
    """Symmetric vertex-to-surface Hausdorff by exhaustive scan."""
    if a.faces.shape[0] == 0 or b.faces.shape[0] == 0:
        raise ValidationError("hausdorff needs meshes with faces")
    return max(_directed_hausdorff_brute(a, b), _directed_hausdorff_brute(b, a))


def _morton(q):
    """Interleave the bits of (N,3) integers below 2**21 into one key each."""
    q = q.astype(np.uint64)
    for shift, mask in ((32, 0x1F00000000FFFF), (16, 0x1F0000FF0000FF),
                        (8, 0x100F00F00F00F00F), (4, 0x10C30C30C30C30C3),
                        (2, 0x1249249249249249)):
        q = (q | q << np.uint64(shift)) & np.uint64(mask)
    return q[:, 0] | q[:, 1] << np.uint64(1) | q[:, 2] << np.uint64(2)


def _edge_neighbours(faces):
    """(T,3): the triangle across each edge of each triangle.  A boundary
    edge leads back to its own triangle; the triangles on a non-manifold
    edge pair off in sorted order."""
    ends = np.roll(faces, -1, axis=1)
    keys = (np.minimum(faces, ends) * (int(faces.max()) + 1)
            + np.maximum(faces, ends)).ravel()
    by_key = np.argsort(keys)
    i = np.flatnonzero(keys[by_key][1:] == keys[by_key][:-1])
    twin = np.arange(keys.size)
    twin[by_key[i]], twin[by_key[i + 1]] = by_key[i + 1], by_key[i]
    return (twin // 3).reshape(-1, 3)


def _near_centroid(pts, centroids, faces):
    """Index of a centroid near each point, for its upper bound.

    Each point starts from the nearest of the _WINDOW centroids around it in
    Morton order, then walks across triangle edges while a neighbour's
    centroid is strictly nearer.  The walk ends at the nearest centroid of
    all for nearly every point of a surface; any triangle gives a bound.
    """
    lo, hi = centroids.min(axis=0), centroids.max(axis=0)
    extent = float((hi - lo).max()) or 1.0

    def keys(x):  # clipped into the centroids' box: quotients in [0, 1]
        return _morton((np.clip(x, lo, hi) - lo) / extent * (2 ** 21 - 1))

    def nearest(p, cand):  # the first of the nearest candidates, per row
        d2 = sum((centroids[:, k][cand] - p[:, k, None]) ** 2 for k in range(3))
        return cand[np.arange(cand.shape[0]), d2.argmin(axis=1)]

    codes = keys(centroids)
    order = np.argsort(codes)
    w = min(_WINDOW, order.size)
    at = np.clip(np.searchsorted(codes[order], keys(pts)) - w // 2, 0, order.size - w)
    near = nearest(pts, order[at[:, None] + np.arange(w)])
    across = _edge_neighbours(faces)
    moving = np.arange(pts.shape[0])
    while moving.size:
        here = near[moving]
        step = nearest(pts[moving], np.column_stack([here, across[here]]))
        near[moving] = step
        moving = moving[step != here]
    return near


def _ball_pairs(pts, reach, centroids):
    """(point, triangle) pairs that include every triangle whose centroid
    lies within ``reach`` of the point, for one block of points.

    Centroids are binned on cubic cells at least as wide as the largest
    reach, so such a centroid lies in the point's cell or one of its 26
    neighbours: a cell's triangles are one ``searchsorted`` range of the
    sorted cell keys.  At most _CELLS cells per axis keep the keys in int64
    and every cell quotient finite, from 1e-300 to 1e75 mm.
    """
    lo = centroids.min(axis=0)
    extent = float((centroids.max(axis=0) - lo).max())
    # the 1e-6 margin absorbs rounding in the quotients (x - lo) / h, whose
    # floors must differ by at most one for points within reach
    h = max(float(reach.max()) * (1.0 + 1e-6), extent / _CELLS)
    n = int(extent / h) + 3  # cells per axis, with an empty one on each side

    def cells(x):
        return np.clip(np.floor((x - lo) / h), 0, n - 3).astype(np.int64) + 1

    def keys(c):
        return (c[..., 2] * n + c[..., 1]) * n + c[..., 0]

    tri_keys = keys(cells(centroids))
    by_key = np.argsort(tri_keys)
    tri_keys = tri_keys[by_key]
    wanted = keys(cells(pts)[:, None, :] + _NEIGHBOURS).ravel()
    first = np.searchsorted(tri_keys, wanted, "left")
    counts = np.searchsorted(tri_keys, wanted, "right") - first
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(wanted.size) // len(_NEIGHBOURS), counts)
    cand = by_key[np.arange(ends[-1]) + np.repeat(first + counts - ends, counts)]
    return owner, cand


def _directed_hausdorff_indexed(a: TriangleMesh, b: TriangleMesh) -> float:
    """Directed Hausdorff using a cell grid over triangle centroids of b.

    The exact distance to the triangle of a near centroid gives each vertex
    an upper bound d.  No point of a triangle is farther from its centroid
    than its farthest corner, at most r_max away, so a triangle whose
    surface comes closer than d has its centroid within d + r_max: binning
    the centroids per block of vertices yields candidates that provably
    include the true nearest triangle, and the candidates whose centroid
    lies beyond that reach are dropped before the kernel runs.  The
    (vertex, triangle) pairs are evaluated in fixed-size blocks and reduced
    to a per-vertex minimum; a pair seen twice cannot change a minimum.
    Each pair goes through the brute-force scan's kernel with the same
    arithmetic, so both routes return the same value.

    Only the maximum is wanted, so vertices are refined in blocks in
    descending order of d, and the search stops before the first block
    whose largest d is at most ``top``, the largest exact distance so far:
    every vertex left has an exact distance at most its d, hence at most
    ``top``, and the result equals the unpruned maximum.  A mesh that
    collapses to a point, where every ball holds every triangle, thus
    refines one block instead of all of them.
    """
    tri = b.vertices[b.faces]               # (T,3,3)
    centroids = tri.mean(axis=1)
    r_max = float(np.sqrt(((tri - centroids[:, None, :]) ** 2).sum(axis=2)).max())
    pts = a.vertices
    best = _point_triangle_sq(pts, tri[_near_centroid(pts, centroids, b.faces)])
    reach = np.sqrt(best) + r_max
    order = np.argsort(-best, kind="stable")
    bound = best[order]  # upper bounds, before refinement lowers best
    top = 0.0
    for s in range(0, pts.shape[0], _BALL_BLOCK):
        if bound[s] <= top:
            break
        block = order[s:s + _BALL_BLOCK]
        owner, cand = _ball_pairs(pts[block], reach[block], centroids)
        owner = block[owner]
        for c in range(0, owner.size, _PAIRS):
            o, t = owner[c:c + _PAIRS], cand[c:c + _PAIRS]
            d2 = sum((centroids[:, k][t] - pts[:, k][o]) ** 2 for k in range(3))
            # the 1e-6 margin absorbs rounding on both sides of the test
            within = d2 <= reach[o] ** 2 * (1.0 + 1e-6)
            o, t = o[within], t[within]
            np.minimum.at(best, o, _point_triangle_sq(pts[o], tri[t]))
        top = max(top, float(best[block].max()))
    return float(np.sqrt(top))


def hausdorff(a: TriangleMesh, b: TriangleMesh) -> float:
    """Symmetric vertex-to-surface Hausdorff distance in mm (accelerated)."""
    if a.faces.shape[0] == 0 or b.faces.shape[0] == 0:
        raise ValidationError("hausdorff needs meshes with faces")
    return max(_directed_hausdorff_indexed(a, b), _directed_hausdorff_indexed(b, a))


def psnr(a, b) -> float:
    """10*log10(peak^2/MSE) in dB; peak is the reference frame b's maximum.

    Identical inputs return +inf.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    peak = float(b.max())
    if peak <= 0.0:
        raise ValidationError("psnr reference frame has no positive peak")
    sq = np.subtract(a, b, dtype=np.float64)  # the one float64 array
    sq *= sq
    mse = float(np.mean(sq))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


# ---------------------------------------------------------------------------
# whole-fit evaluation


@dataclass
class EvalReport:
    """Per-frame metrics plus cycle-level summaries.

    hsd_mm entries are NaN at frames without ground-truth meshes; psnr_db
    is NaN when image metrics were skipped.
    """

    frame_times: np.ndarray
    hsd_mm: np.ndarray
    psnr_db: np.ndarray
    volume_mm3: np.ndarray
    gt_volume_mm3: np.ndarray
    periodicity_error_mm: float

    @property
    def mean_hsd_mm(self) -> float:
        vals = self.hsd_mm[np.isfinite(self.hsd_mm)]
        return float(vals.mean()) if vals.size else math.nan

    @property
    def max_hsd_mm(self) -> float:
        vals = self.hsd_mm[np.isfinite(self.hsd_mm)]
        return float(vals.max()) if vals.size else math.nan


def periodicity_error(model, normalizer: DomainNormalizer, steps: int) -> float:
    """Mean world-mm distance between 500 probe points and their endpoints
    after one cycle, t = 0 to 1 (zero for a perfectly periodic flow).  The
    probes are fixed: uniform in [-1, 1]^3, drawn from seed 1234."""
    probes = np.random.default_rng(1234).uniform(-1.0, 1.0, size=(500, 3))
    traj = integrate(model, probes, 0.0, 1.0, steps)
    start = normalizer.to_world(traj.seeds)
    end = normalizer.to_world(traj.endpoints)
    return float(np.linalg.norm(end - start, axis=1).mean())


def _warped_first_frame(model, volume: Volume4D, frame_index: int,
                        steps_per_frame: int) -> np.ndarray:
    """Frame 0 warped onto frame i's grid by backward-mapping the voxel
    centers in [-1, 1]^3, z slowest, one row_blocks block at a time: each
    block is one inverse_map block, so its bits are the whole grid's."""
    t = float(volume.frame_times[frame_index])
    axes = [np.linspace(-1.0, 1.0, k) for k in volume.grid_shape]
    out = np.empty(volume.grid_shape, dtype=np.float32)
    for rows in row_blocks(out.size):
        z, y, x = np.unravel_index(np.arange(rows.start, rows.stop), out.shape)
        centers = np.column_stack([axes[2][x], axes[1][y], axes[0][z]])
        src = inverse_map(model, centers, t, steps=max(1, frame_index * steps_per_frame))
        out.reshape(-1)[rows] = sample_trilinear(volume.frames[0], src)
    return out


def _bounded(mesh: TriangleMesh, what: str) -> TriangleMesh:
    if not np.abs(mesh.vertices).max(initial=0.0) < _MAX_MM:
        raise ValidationError(f"{what} has a vertex coordinate of {_MAX_MM:g} mm "
                              "or more: Hausdorff distances would overflow")
    return mesh


def evaluate_fit(model, volume: VolumeGrid, gt_meshes, steps_per_frame: int = 1,
                 with_psnr: bool = True) -> EvalReport:
    """Deform the t=0 mesh across the cycle and score it against ground truth.

    gt_meshes is a per-frame list; entries may be None where no reference
    exists (those frames get NaN HSD).  The first entry must be present —
    it is the mesh that gets advected.  Every vertex, given or deformed, must
    lie within 1e75 mm of the origin on each axis.  Only the PSNR reads
    voxels: without it, a VolumeGrid from read_v4d_grid is enough.
    """
    if with_psnr and not isinstance(volume, Volume4D):
        raise ConfigError("with_psnr needs the voxels that read_v4d reads")
    n = volume.n_frames
    if len(gt_meshes) != n:
        raise ValidationError(f"need one mesh slot per frame ({n}), got {len(gt_meshes)}")
    if gt_meshes[0] is None:
        raise ValidationError("the frame-0 mesh is required")
    for i, mesh in enumerate(gt_meshes):
        if mesh is not None:
            _bounded(mesh, f"mesh {i}")
    normalizer = DomainNormalizer.from_volume(volume)
    base = gt_meshes[0]
    seeds = normalizer.to_normalized(base.vertices)
    track = flow_at_frames(model, seeds, volume.frame_times, steps_per_frame)

    # mesh_volume checks each given mesh for closedness; the deformed meshes
    # share the frame-0 faces, so their volumes skip the check
    gt_vols = np.array([math.nan if m is None else mesh_volume(m) for m in gt_meshes])
    hsd = np.full(n, math.nan)
    vols = np.empty(n)
    psnrs = np.full(n, math.nan)
    for i in range(n):
        deformed = _bounded(TriangleMesh(normalizer.to_world(track[:, i, :]),
                                         base.faces.copy()),
                            f"the mesh deformed to frame {i}")
        vols[i] = signed_volume(deformed)
        if gt_meshes[i] is not None:
            hsd[i] = hausdorff(deformed, gt_meshes[i])
        if with_psnr:
            warped = (volume.frames[0] if i == 0 else
                      _warped_first_frame(model, volume, i, steps_per_frame))
            psnrs[i] = psnr(warped, volume.frames[i])

    cycle_err = periodicity_error(model, normalizer, steps=(n - 1) * steps_per_frame)
    return EvalReport(volume.frame_times.copy(), hsd, psnrs, vols, gt_vols,
                      cycle_err)


def write_eval_csv(report: EvalReport, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "t", "hsd_mm", "psnr_db", "volume_mm3",
                         "gt_volume_mm3"])
        columns = (report.frame_times, report.hsd_mm, report.psnr_db, report.volume_mm3,
                   report.gt_volume_mm3)
        for i, row in enumerate(zip(*columns)):
            writer.writerow([i, *(repr(float(x)) for x in row)])


def _json_safe(x: float):
    return x if math.isfinite(x) else repr(x)


def write_eval_summary(report: EvalReport, path):
    finite_psnr = report.psnr_db[np.isfinite(report.psnr_db)]
    summary = {
        "mean_hsd_mm": _json_safe(report.mean_hsd_mm),
        "max_hsd_mm": _json_safe(report.max_hsd_mm),
        "mean_psnr_db": float(finite_psnr.mean()) if finite_psnr.size else None,
        "periodicity_error_mm": report.periodicity_error_mm,
        "frames": len(report.frame_times),
        "psnr_peak_convention": "reference frame maximum",
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
