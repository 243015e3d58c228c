"""Evaluation: mesh Hausdorff distance, PSNR, volume curves, periodicity.

Hausdorff is symmetric vertex-to-surface: each vertex of one mesh is
measured against the exact nearest point on any triangle of the other.
Two interchangeable routes share one point-triangle kernel: a brute-force
all-pairs scan, and a KD-tree search that prunes triangles without changing
the result.  The KD-tree route is batched — one nearest-centroid query, one
ball query per block of vertices, and the kernel over the flattened (vertex,
triangle) candidate pairs — and is validated against the brute one.  It exits
early: blocks are refined in descending order of the nearest-centroid upper
bound and the search stops once no bound left exceeds the largest exact
distance found (the early break of Taha & Hanbury, TPAMI 2015).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError
from .flow import flow_at_frames, integrate, inverse_map
from .mesh import TriangleMesh, mesh_volume, signed_volume
from .volume import DomainNormalizer, Volume4D, sample_trilinear

_CHUNK = 8  # vertices per brute-force block: ~1 MB (B,T,3) temporaries at T=5120
_BALL_BLOCK = 128  # vertices per ball query: at most 128*T candidates at once
_PAIRS = 16384  # (vertex, triangle) pairs per kernel call
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
    e0 = v1 - v0
    e1 = v2 - v0
    d00 = _dot(e0, e0)
    d01 = _dot(e0, e1)
    d11 = _dot(e1, e1)
    denom = d00 * d11 - d01 * d01
    safe = denom > 1e-300
    denom = np.where(safe, denom, 1.0)

    w = p - v0
    wp0 = _dot(w, e0)
    wp1 = _dot(w, e1)
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


def _directed_hausdorff_indexed(a: TriangleMesh, b: TriangleMesh) -> float:
    """Directed Hausdorff using a KD-tree over triangle centroids of b.

    The exact distance to the triangle with the nearest centroid gives each
    vertex an upper bound d.  No point of a triangle is farther from its
    centroid than its farthest corner, at most r_max away, so a triangle
    whose surface comes closer than d has its centroid within d + r_max: one
    ball query per block of vertices yields candidates that provably include
    the true nearest triangle (1e-12 absorbs rounding in the tree's
    comparison).  The ragged candidate lists are flattened to (vertex,
    triangle) pairs, evaluated in fixed-size blocks and reduced to a
    per-vertex minimum; a pair seen twice cannot change a minimum.  Each
    pair goes through the brute-force scan's kernel with the same
    arithmetic, so both routes return the same value.

    Only the maximum is wanted, so vertices are refined in blocks in
    descending order of d, and the search stops before the first block
    whose largest d is at most ``top``, the largest exact distance so far:
    every vertex left has an exact distance at most its d, hence at most
    ``top``, and the result equals the unpruned maximum.  A mesh that
    collapses to a point, where every ball holds every triangle, thus
    refines one block instead of all of them.
    """
    from scipy.spatial import cKDTree  # only Hausdorff needs SciPy
    tri = b.vertices[b.faces]               # (T,3,3)
    centroids = tri.mean(axis=1)
    r_max = float(np.sqrt(((tri - centroids[:, None, :]) ** 2).sum(axis=2)).max())
    tree = cKDTree(centroids)
    pts = a.vertices
    best = _point_triangle_sq(pts, tri[tree.query(pts)[1]])
    reach = np.sqrt(best) + r_max + 1e-12
    order = np.argsort(-best, kind="stable")
    bound = best[order]  # upper bounds, before refinement lowers best
    top = 0.0
    for s in range(0, pts.shape[0], _BALL_BLOCK):
        if bound[s] <= top:
            break
        block = order[s:s + _BALL_BLOCK]
        balls = tree.query_ball_point(pts[block], reach[block])
        counts = np.fromiter(map(len, balls), np.intp, len(balls))
        owner = np.repeat(block, counts)
        cand = np.fromiter(chain.from_iterable(balls), np.intp, owner.size)
        for c in range(0, owner.size, _PAIRS):
            o = owner[c:c + _PAIRS]
            np.minimum.at(best, o, _point_triangle_sq(pts[o], tri[cand[c:c + _PAIRS]]))
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
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    peak = float(b.max())
    if peak <= 0.0:
        raise ValidationError("psnr reference frame has no positive peak")
    mse = float(np.mean((a - b) ** 2))
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


def periodicity_error(model, normalizer: DomainNormalizer, steps: int,
                      seed: int = 1234) -> float:
    """Mean world-mm distance between 500 random probe points and their
    full-period trajectory endpoints (zero for a perfectly periodic flow)."""
    rng = np.random.default_rng(seed)
    probes = rng.uniform(-1.0, 1.0, size=(500, 3))
    traj = integrate(model, probes, 0.0, model.period, steps)
    start = normalizer.to_world(traj.seeds)
    end = normalizer.to_world(traj.endpoints)
    return float(np.linalg.norm(end - start, axis=1).mean())


def _warped_first_frame(model, volume: Volume4D, frame_index: int,
                        steps_per_frame: int) -> np.ndarray:
    """Frame 0 warped onto frame i's grid by backward-mapping voxel centers."""
    d, h, w = volume.grid_shape
    gz, gy, gx = np.meshgrid(*(np.linspace(-1.0, 1.0, k) for k in (d, h, w)),
                             indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    t = float(volume.frame_times[frame_index])
    src = inverse_map(model, grid, t, steps=max(1, frame_index * steps_per_frame))
    vals = sample_trilinear(volume.frames[0], src)
    return vals.reshape(d, h, w).astype(np.float32)


def _bounded(mesh: TriangleMesh, what: str) -> TriangleMesh:
    if not np.abs(mesh.vertices).max(initial=0.0) < _MAX_MM:
        raise ValidationError(f"{what} has a vertex coordinate of {_MAX_MM:g} mm "
                              "or more: Hausdorff distances would overflow")
    return mesh


def evaluate_fit(model, volume: Volume4D, gt_meshes, steps_per_frame: int = 1,
                 with_psnr: bool = True) -> EvalReport:
    """Deform the t=0 mesh across the cycle and score it against ground truth.

    gt_meshes is a per-frame list; entries may be None where no reference
    exists (those frames get NaN HSD).  The first entry must be present —
    it is the mesh that gets advected.  Every vertex, given or deformed, must
    lie within 1e75 mm of the origin on each axis.
    """
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

    period_err = periodicity_error(model, normalizer, steps=(n - 1) * steps_per_frame)
    return EvalReport(volume.frame_times.copy(), hsd, psnrs, vols, gt_vols,
                      period_err)


def write_eval_csv(report: EvalReport, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "t", "hsd_mm", "psnr_db", "volume_mm3",
                         "gt_volume_mm3"])
        for i, t in enumerate(report.frame_times):
            writer.writerow([
                i, repr(float(t)),
                repr(float(report.hsd_mm[i])),
                repr(float(report.psnr_db[i])),
                repr(float(report.volume_mm3[i])),
                repr(float(report.gt_volume_mm3[i])),
            ])


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
