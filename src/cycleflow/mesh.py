"""Triangle meshes in world millimeters: container, OBJ I/O, signed volume."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError, ValidationError


@dataclass
class TriangleMesh:
    """Vertices (V,3) in world mm and faces (F,3) with CCW outward winding."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V,3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError(f"faces must be (F,3), got {self.faces.shape}")
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise ValueError("face index out of range")
            degenerate = (self.faces == np.roll(self.faces, 1, axis=1)).any(axis=1)
            if degenerate.any():
                raise ValueError(f"{int(degenerate.sum())} degenerate faces")

    def copy(self) -> "TriangleMesh":
        return TriangleMesh(self.vertices.copy(), self.faces.copy())


def boundary_edge_count(mesh: TriangleMesh) -> int:
    """Number of directed edges whose opposite edge is missing (0 = closed)."""
    f = mesh.faces
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    v = len(mesh.vertices)
    fwd = edges[:, 0] * v + edges[:, 1]
    rev = edges[:, 1] * v + edges[:, 0]
    return int((~np.isin(rev, fwd)).sum())


def mesh_volume(mesh: TriangleMesh) -> float:
    """Enclosed volume in mm^3 via signed origin-based tetrahedra.

    Positive for consistent CCW outward orientation; raises for open meshes
    because a silent wrong volume is worse than an error.
    """
    n_open = boundary_edge_count(mesh)
    if n_open:
        raise ValidationError(f"open mesh: {n_open} boundary edges")
    return signed_volume(mesh)


def signed_volume(mesh: TriangleMesh) -> float:
    """``mesh_volume`` without the closedness check, for meshes whose faces
    are already known to be closed."""
    a, b, c = (mesh.vertices[mesh.faces[:, k]] for k in range(3))
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


@lru_cache(maxsize=None)
def _unit_icosphere(subdivisions: int):
    """Read-only (vertices, faces) of the subdivided unit icosahedron."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)

    for _ in range(subdivisions):
        # edges (i,j), (j,k), (k,i) of each face, in order; each new vertex
        # is an edge midpoint, numbered in the order the edges first appear
        edges = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2)
        keys = edges.min(axis=1) * len(verts) + edges.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first))  # of each edge's first appearance
        a, b = edges[np.sort(first)].T
        m = verts[a] + verts[b]
        m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]  # np.linalg.norm(row)'s bits
        ij, jk, ki = (len(verts) + rank[inverse]).reshape(-1, 3).T
        i, j, k = faces.T
        faces = np.stack([i, ij, ki, j, jk, ij, k, ki, jk, ij, jk, ki],
                         axis=1).reshape(-1, 3)
        verts = np.concatenate([verts, m])

    verts.flags.writeable = False
    faces.flags.writeable = False
    return verts, faces


def icosphere(radius: float, center=(0.0, 0.0, 0.0), subdivisions: int = 4) -> TriangleMesh:
    """Subdivided icosahedron with all vertices on the sphere surface.

    The unit sphere is built once per subdivision level and cached; each
    call scales it into new arrays.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    verts, faces = _unit_icosphere(subdivisions)
    return TriangleMesh(verts * radius + np.asarray(center, dtype=np.float64),
                        faces.copy())


@lru_cache(maxsize=1)
def _face_block(faces: bytes) -> str:
    f = np.frombuffer(faces, dtype=np.int64) + 1
    return "f %d %d %d\n" * (len(f) // 3) % tuple(f.tolist())


def write_obj(mesh: TriangleMesh, path):
    """ASCII OBJ with v/f records only; 9 significant digits per coordinate.
    The face block is formatted once per run of meshes with equal faces."""
    v = mesh.vertices
    with open(path, "w", encoding="ascii") as fh:
        fh.write("v %.9g %.9g %.9g\n" * len(v) % tuple(v.ravel().tolist()))
        fh.write(_face_block(mesh.faces.astype(np.int64).tobytes()))


def read_obj(path) -> TriangleMesh:
    """Parse the v/f subset of OBJ; triangular faces only."""
    verts, faces, face_lines = [], [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        kind = tokens[0]
        if kind == "v":
            if len(tokens) < 4:
                raise FormatError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                x, y, z = float(tokens[1]), float(tokens[2]), float(tokens[3])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad vertex coordinate") from exc
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise FormatError(f"{path}:{lineno}: non-finite vertex coordinate")
            verts.append((x, y, z))
        elif kind == "f":
            if len(tokens) != 4:
                raise FormatError(f"{path}:{lineno}: only triangular faces are supported")
            try:
                a, b, c = (int(t.partition("/")[0]) for t in tokens[1:])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad face index") from exc
            if a <= 0 or b <= 0 or c <= 0:
                raise FormatError(f"{path}:{lineno}: face index must be positive")
            if a == b or b == c or a == c:
                raise FormatError(f"{path}:{lineno}: degenerate face")
            faces.append((a, b, c))
            face_lines.append(lineno)
        # other record kinds (vn, vt, o, ...) are outside the subset: skipped
    if not verts or not faces:
        raise FormatError(f"{path}: no geometry")
    try:
        idx = np.array(faces, dtype=np.int64)
        bad = np.flatnonzero(idx.max(axis=1) > len(verts))
    except OverflowError:  # an index past int64 addresses no vertex
        bad = [k for k, face in enumerate(faces) if max(face) > len(verts)]
    if len(bad):
        raise FormatError(f"{path}:{face_lines[bad[0]]}: face index out of range")
    return TriangleMesh(np.array(verts, dtype=np.float64), idx - 1)
