"""Correctness checks on the files a benchmark run leaves behind.

Standard library only, so ``run.py`` checks outputs without importing the
code under test.  Each check returns ``(ok, detail)``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_files(out_dir):
    """Path -> SHA-256 of every input and output a stage's manifest lists."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    return {**manifest["inputs"], **manifest["outputs"]}


def manifest_matches(out_dir):
    """Every input and output hash in ``manifest.json`` matches the file."""
    listed = _manifest_files(out_dir)
    bad = [p for p, digest in listed.items() if sha256(p) != digest]
    return not bad and bool(listed), f"{len(listed)} files, mismatched: {bad}"


def manifest_bytes(out_dir):
    """Bytes of the files a stage's manifest hashed."""
    return sum(os.path.getsize(p) for p in _manifest_files(out_dir))


def read_losses(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [[float(r[k]) for k in ("data_loss", "cycle_loss", "total_loss")]
            for r in rows]


def loss_csv_ok(path):
    """Losses are finite and the last total loss is below the first."""
    try:
        rows = read_losses(path)
    except (KeyError, ValueError) as exc:
        return False, f"unreadable: {exc}"
    if not rows:
        return False, "no epochs"
    finite = all(math.isfinite(v) for row in rows for v in row)
    first, last = rows[0][2], rows[-1][2]
    return finite and last < first, f"{len(rows)} epochs, total {first} -> {last}"


def identical(paths):
    """All files are byte-identical."""
    digests = {sha256(p) for p in paths}
    return len(digests) == 1 and len(paths) > 0, f"{len(paths)} files"


def face_count(path):
    with open(path) as fh:
        return sum(1 for line in fh if line.startswith("f "))


def deformed_faces_ok(out_dir, reference, times):
    """One deformed OBJ per requested time, each with the reference's faces."""
    expected = face_count(reference)
    objs = sorted(n for n in os.listdir(out_dir) if n.startswith("deformed_"))
    counts = {face_count(os.path.join(out_dir, n)) for n in objs}
    ok = len(objs) == times and counts == {expected}
    return ok, f"{len(objs)} meshes, face counts {sorted(counts)} vs {expected}"


def eval_summary_ok(path, psnr):
    """The eval summary's scores are finite numbers."""
    with open(path) as fh:
        summary = json.load(fh)
    keys = ["mean_hsd_mm", "max_hsd_mm", "periodicity_error_mm"]
    keys += ["mean_psnr_db"] if psnr else []
    values = [summary.get(k) for k in keys]
    ok = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    return ok, dict(zip(keys, values))
