"""Record the SHA-256 of every artifact of one small fixed CLI chain.

Run from anywhere::

    python3 tools/record_hashes.py

It runs CHAIN, each command in a fresh ``python -m cycleflow.cli`` process on
this checkout's ``src``, with relative paths from one temporary working
directory, and stores the digests in tests/pipeline_hashes.json under the
run's key: the NumPy version and what the manifests' ``blas`` field names
(the BLAS build, OpenBLAS's core and NumPy's SIMD level).  It runs the chain
once with the core OpenBLAS picks for this CPU and once more for each of
CORETYPES, so one x86-64 host with AVX-512 records the entries of an
AVX2-only one too; entries of other keys are kept.  For each key it prints
the files whose digest differs from the stored entry, or that the key is new.
tests/test_pipeline_hashes.py runs the same chain and compares.  A change that
moves bits on purpose reruns this script and says which files moved and why.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
HASHES = ROOT / "tests" / "pipeline_hashes.json"

# gen at 24^3 with 9 frames, a 3x128 band fit of 5 epochs, deform to 3 times
# with probes, and a PSNR eval with the loss history
CHAIN = [
    ["gen", "--grid", "24", "--frames", "9", "--radius", "7", "--amplitude", "1.5",
     "--out-dir", "gen"],
    ["fit", "gen/volume.v4d", "--epochs", "5", "--points", "2000",
     "--hidden-layers", "3", "--hidden-width", "128", "--sampling", "band",
     "--seed", "1", "--out-dir", "fit"],
    ["deform", "fit/model.ckpt", "gen/mesh_000.obj", "--times", "0.25,0.5,0.75",
     "--volume", "gen/volume.v4d", "--probes", "10", "--out-dir", "deform"],
    ["eval", "fit/model.ckpt", "gen/volume.v4d", "--meshes", "gen",
     "--loss-csv", "fit/loss.csv", "--out-dir", "eval"],
]


# OPENBLAS_CORETYPE values recorded besides the CPU's own core
CORETYPES = ["Haswell"]


def run_chain(workdir, **env_vars) -> None:
    """Run CHAIN in workdir, with env_vars set in each command's environment;
    RuntimeError names a command that failed."""
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    for argv in CHAIN:
        proc = subprocess.run([sys.executable, "-m", "cycleflow.cli", *argv],
                              cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=300)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")


def digest(path: Path) -> str:
    """SHA-256 of a file; a manifest is hashed as written but without
    wall_time_s, the one field that differs between runs."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        del manifest["wall_time_s"]
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def digests(workdir) -> dict:
    """{relative path: digest} of every file the chain left in workdir."""
    workdir = Path(workdir)
    return {p.relative_to(workdir).as_posix(): digest(p)
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def moved(got: dict, stored: dict) -> list:
    """The paths whose digest differs between two {path: digest} maps,
    including those that only one of them holds."""
    return sorted(p for p in got.keys() | stored.keys() if got.get(p) != stored.get(p))


def build_key(workdir) -> str:
    """What the bytes depend on: NumPy's version and the BLAS build and CPU
    kernels that the fit manifest records."""
    blas = json.loads((Path(workdir) / "fit" / "manifest.json").read_text())["blas"]
    return f"numpy {np.__version__}, {blas}"


def main() -> int:
    recorded = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    for env_vars in [{}] + [{"OPENBLAS_CORETYPE": c} for c in CORETYPES]:
        with tempfile.TemporaryDirectory() as workdir:
            run_chain(workdir, **env_vars)
            key, files = build_key(workdir), digests(workdir)
        if key in recorded:
            paths = moved(files, recorded[key])
            print(f"recorded {len(files)} digests for {key}; {len(paths)} moved:",
                  *paths, sep="\n  ")
        else:
            print(f"recorded {len(files)} digests for {key}, a new key")
        recorded[key] = files
    HASHES.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
