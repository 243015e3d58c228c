"""Triangle meshes in world millimeters: container, OBJ I/O, signed volume."""
from __future__ import annotations

import math
from dataclasses import dataclass

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
            degenerate = (
                (self.faces[:, 0] == self.faces[:, 1])
                | (self.faces[:, 1] == self.faces[:, 2])
                | (self.faces[:, 0] == self.faces[:, 2])
            )
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
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def icosphere(radius: float, center=(0.0, 0.0, 0.0), subdivisions: int = 4) -> TriangleMesh:
    """Subdivided icosahedron with all vertices on the sphere surface."""
    if radius <= 0:
        raise ValueError("radius must be positive")
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
        verts_list = list(verts)
        midpoint_cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key in midpoint_cache:
                return midpoint_cache[key]
            m = verts_list[i] + verts_list[j]
            m /= np.linalg.norm(m)
            verts_list.append(m)
            idx = len(verts_list) - 1
            midpoint_cache[key] = idx
            return idx

        new_faces = []
        for i, j, k in faces:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces.extend([[i, ij, ki], [j, jk, ij], [k, ki, jk], [ij, jk, ki]])
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=np.int64)

    verts = verts * radius + np.asarray(center, dtype=np.float64)
    return TriangleMesh(verts, faces)


def write_obj(mesh: TriangleMesh, path):
    """ASCII OBJ with v/f records only; 9 significant digits per coordinate."""
    with open(path, "w", encoding="ascii") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for a, b, c in mesh.faces + 1:
            fh.write(f"f {a} {b} {c}\n")


def read_obj(path) -> TriangleMesh:
    """Parse the v/f subset of OBJ; triangular faces only."""
    verts, faces = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "v":
            if len(tokens) < 4:
                raise FormatError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                verts.append([float(t) for t in tokens[1:4]])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad vertex coordinate") from exc
            if not all(map(math.isfinite, verts[-1])):
                raise FormatError(f"{path}:{lineno}: non-finite vertex coordinate")
        elif kind == "f":
            if len(tokens) != 4:
                raise FormatError(
                    f"{path}:{lineno}: only triangular faces are supported"
                )
            try:
                idx = [int(t.split("/")[0]) for t in tokens[1:4]]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad face index") from exc
            if any(i <= 0 for i in idx):
                raise FormatError(f"{path}:{lineno}: face index must be positive")
            if len(set(idx)) < 3:
                raise FormatError(f"{path}:{lineno}: degenerate face")
            faces.append(([i - 1 for i in idx], lineno))
        # other record kinds (vn, vt, o, ...) are outside the subset: skipped
    if not verts or not faces:
        raise FormatError(f"{path}: no geometry")
    for idx, lineno in faces:
        if max(idx) >= len(verts):
            raise FormatError(f"{path}:{lineno}: face index out of range")
    return TriangleMesh(
        np.asarray(verts, dtype=np.float64),
        np.asarray([idx for idx, _ in faces], dtype=np.int64),
    )
