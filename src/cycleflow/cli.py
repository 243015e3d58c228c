"""Command-line front end: gen | fit | deform | eval.

Each command computes everything first; ``_finish`` then creates the output
directory, runs the output writers in order and writes a run manifest
(config snapshot, input/output SHA-256 hashes, tool version, wall time), so
runs are auditable and a refused run leaves no directory.

Option values are checked by the library functions they enter; only the
CLI's own options (--times, the --bounds string, --probes, --volume and
--meshes) are checked here.  Numbers in flags, --times, --bounds and config
files go through int() and float(), which read ``1_0`` as 10 and accept
non-ASCII decimal digits.  Exit codes: 0 success, else the exit_code of the
CycleflowError raised (2 usage/config, 3 data/format, 4 numerical failure),
3 for an unreadable file, and 2 for options that ask for more memory than is
available.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, fields
from functools import partial

import numpy as np

from . import __version__
from .errors import ConfigError, CycleflowError, FormatError
from .field import load_checkpoint, save_checkpoint
from .flow import deform_mesh, integrate, write_trajectory_csv
from .mesh import read_obj, write_obj
from .metrics import evaluate_fit, write_eval_csv, write_eval_summary
from .svgplot import line_plot
from .training import (LOSS_COLUMNS, FitConfig, fit, load_fit_config,
                       write_fit_summary, write_loss_csv)
from .volume import (DomainNormalizer, GrowthPattern, make_sphere_series,
                     read_v4d, write_v4d)

OUT_DIR_ENV = "CYCLEFLOW_OUT"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _finish(args, command, config, seed, inputs, writers, started):
    """Create --out-dir, run each (file name, writer(path)) pair in order,
    then write manifest.json hashing the inputs and outputs; returns the
    output paths."""
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = []
    for name, write in writers:
        outputs.append(os.path.join(args.out_dir, name))
        write(outputs[-1])
    manifest = {
        "tool": "cycleflow",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "wall_time_s": time.perf_counter() - started,
    }
    with open(os.path.join(args.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return outputs


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    started = time.perf_counter()
    pattern = GrowthPattern(args.pattern, args.radius, rate=args.rate,
                            amplitude_mm=args.amplitude)
    vol, meshes = make_sphere_series(
        pattern, args.grid, args.spacing, args.frames,
        smoothing_mm=args.smoothing)
    writers = [("volume.v4d", partial(write_v4d, vol))] + [
        (f"mesh_{i:03d}.obj", partial(write_obj, mesh))
        for i, mesh in enumerate(meshes)]
    config = {
        "pattern": args.pattern, "grid": args.grid, "frames": args.frames,
        "spacing": args.spacing, "radius": args.radius, "rate": args.rate,
        "amplitude": args.amplitude, "smoothing": args.smoothing,
    }
    outputs = _finish(args, "gen", config, None, [], writers, started)
    print(f"wrote {len(outputs)} files to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    started = time.perf_counter()
    overrides = {f.name: getattr(args, f.name) for f in fields(FitConfig)}
    config = load_fit_config(args.config, overrides)
    volume = read_v4d(args.volume)
    for key, val in sorted(asdict(config).items()):
        print(f"{key} = {val}")
    model, report = fit(volume, config)
    if report.cycle_weight_ignored:
        print("note: cycle_weight is ignored because cycle_enabled is off")
    report.checkpoint_path = os.path.join(args.out_dir, "model.ckpt")
    inputs = [args.volume] + ([args.config] if args.config else [])
    _finish(args, "fit", asdict(config), config.seed, inputs,
            [("model.ckpt", partial(save_checkpoint, model)),
             ("loss.csv", partial(write_loss_csv, report)),
             ("fit_summary.json", partial(write_fit_summary, report))], started)
    print(f"final total loss {report.total_loss[-1]:.6g} after {report.epochs} "
          f"epochs ({time.perf_counter() - started:.1f}s)")
    return 0


# ---------------------------------------------------------------------------
# deform


def _parse_times(spec: str, wrap: bool):
    times = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            t = float(tok)
        except ValueError as exc:
            raise ConfigError(f"--times: not a number: {tok!r}") from exc
        if not math.isfinite(t):
            raise ConfigError(f"--times: {tok!r} is not a finite time")
        if wrap:
            t = math.fmod(t, 1.0)
            if t < 0.0:
                t += 1.0
        elif not 0.0 <= t <= 1.0:
            raise ConfigError(
                f"--times: {t} outside [0,1]; pass --wrap for periodic wrapping")
        times.append(0.0 if t == 0.0 else t)  # no -0.0 in names or manifest
    if not times:
        raise ConfigError("--times: no values given")
    return times


def _bounds_from_args(args) -> DomainNormalizer:
    if args.volume is not None:
        return DomainNormalizer.from_volume(read_v4d(args.volume))
    if args.bounds is not None:
        parts = [p.strip() for p in args.bounds.split(",")]
        if len(parts) != 6:
            raise ConfigError("--bounds needs 6 comma-separated numbers "
                              "(x0,y0,z0,x1,y1,z1)")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"--bounds: {exc}") from exc
        return DomainNormalizer(vals[:3], vals[3:])
    raise ConfigError("deform needs --volume or --bounds to fix the world domain")


def cmd_deform(args) -> int:
    started = time.perf_counter()
    if args.probes < 0:
        raise ConfigError("--probes must not be negative")
    times = _parse_times(args.times, args.wrap)
    model = load_checkpoint(args.checkpoint)
    mesh = read_obj(args.mesh)
    normalizer = _bounds_from_args(args)
    deformed_meshes = deform_mesh(model, mesh, times, args.steps, normalizer)
    writers = [(f"deformed_{i:03d}_t{t:.6f}.obj", partial(write_obj, deformed))
               for i, (t, deformed) in enumerate(zip(times, deformed_meshes))]
    if args.probes > 0:
        seeds = normalizer.to_normalized(
            mesh.vertices[:: max(1, mesh.vertices.shape[0] // args.probes)])
        traj = integrate(model, seeds, 0.0, 1.0, args.steps)
        normalizer.to_world(traj.points)  # refuses an overflow before _finish writes
        writers.append(("trajectories.csv", partial(
            write_trajectory_csv, traj, normalizer=normalizer)))
    inputs = [args.checkpoint, args.mesh] + ([args.volume] if args.volume else [])
    config = {"times": times, "steps": args.steps, "wrap": args.wrap,
              "probes": args.probes}
    outputs = _finish(args, "deform", config, None, inputs, writers, started)
    print(f"wrote {len(outputs)} files to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _load_gt_meshes(mesh_dir, n_frames):
    """One mesh or None per frame (evaluate_fit refuses a missing mesh_000)
    and the paths read."""
    if mesh_dir is None:
        raise ConfigError("eval needs --meshes pointing at mesh_NNN.obj files")
    paths = [os.path.join(mesh_dir, f"mesh_{i:03d}.obj") for i in range(n_frames)]
    meshes = [read_obj(p) if os.path.exists(p) else None for p in paths]
    return meshes, [p for p, m in zip(paths, meshes) if m is not None]


def _read_loss_history(path):
    """The columns of a fit's loss.csv; FormatError for any other file."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty file only warns
        try:
            hist = np.genfromtxt(path, delimiter=",", names=True)
        except (ValueError, UserWarning) as exc:
            raise FormatError(f"{path}: unreadable loss history: {exc}") from exc
    if hist.dtype.names is None or not set(LOSS_COLUMNS) <= set(hist.dtype.names):
        raise FormatError(f"{path}: loss history needs the columns "
                          f"{','.join(LOSS_COLUMNS)}")
    cols = {name: np.atleast_1d(hist[name]) for name in LOSS_COLUMNS}
    if hist.size < 2 or not all(np.isfinite(c).all() for c in cols.values()):
        raise FormatError(f"{path}: loss history needs 2 or more rows of numbers")
    return cols


def cmd_eval(args) -> int:
    started = time.perf_counter()
    model = load_checkpoint(args.checkpoint)
    volume = read_v4d(args.volume)
    meshes, mesh_paths = _load_gt_meshes(args.meshes, volume.n_frames)
    losses = _read_loss_history(args.loss_csv) if args.loss_csv else None
    report = evaluate_fit(model, volume, meshes,
                          steps_per_frame=args.steps_per_frame,
                          with_psnr=not args.no_psnr)
    series = [("predicted", report.frame_times, report.volume_mm3)]
    if np.isfinite(report.gt_volume_mm3).sum() >= 2:
        keep = np.isfinite(report.gt_volume_mm3)
        series.append(("reference", report.frame_times[keep],
                       report.gt_volume_mm3[keep]))
    writers = [("eval.csv", partial(write_eval_csv, report)),
               ("eval_summary.json", partial(write_eval_summary, report)),
               ("volume_curve.svg", partial(
                   line_plot, series, title="Mesh volume over the cycle",
                   xlabel="t", ylabel="volume (mm^3)"))]
    if losses is not None:
        writers.append(("loss_history.svg", partial(
            line_plot,
            [("total", losses["epoch"], losses["total_loss"]),
             ("data", losses["epoch"], losses["data_loss"]),
             ("cycle", losses["epoch"], losses["cycle_loss"])],
            title="Loss history", xlabel="epoch", ylabel="loss")))
    inputs = [args.checkpoint, args.volume, *mesh_paths] + \
        ([args.loss_csv] if args.loss_csv else [])
    config = {"meshes": args.meshes, "steps_per_frame": args.steps_per_frame,
              "no_psnr": args.no_psnr}
    _finish(args, "eval", config, None, inputs, writers, started)
    print(f"mean HSD {report.mean_hsd_mm:.3f} mm, "
          f"periodicity error {report.periodicity_error_mm:.3f} mm")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleflow",
        description="Fit a periodic neural velocity field to a 4D image "
                    "sequence and deform meshes through the cycle.")
    parser.add_argument("--version", action="version",
                        version=f"cycleflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    out_default = os.environ.get(OUT_DIR_ENV, ".")

    p = sub.add_parser("gen", help="generate a synthetic sphere series")
    p.add_argument("--pattern", choices=("linear", "exponential", "periodic"),
                   default="periodic")
    p.add_argument("--grid", type=int, default=48, help="cubic grid size")
    p.add_argument("--frames", type=int, default=25)
    p.add_argument("--spacing", type=float, default=1.0, help="mm per voxel")
    p.add_argument("--radius", type=float, default=10.0, help="base radius mm")
    p.add_argument("--rate", type=float, default=0.3,
                   help="linear/exponential growth rate")
    p.add_argument("--amplitude", type=float, default=2.0,
                   help="sinusoid amplitude mm (periodic pattern)")
    p.add_argument("--smoothing", type=float, default=None,
                   help="boundary ramp width mm (default 2 voxels)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="fit a velocity field to a volume")
    p.add_argument("volume", help="input .v4d file")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--cycle-weight", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--points", type=int, default=None, dest="points_per_epoch",
                   metavar="POINTS", help="sample points per epoch")
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--steps-per-frame", type=int, default=None)
    p.add_argument("--sampling", choices=("uniform", "foreground", "band"),
                   default=None)
    p.add_argument("--hidden-layers", type=int, default=None)
    p.add_argument("--hidden-width", type=int, default=None)
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.add_argument("--time-encoding", choices=("on", "off"), default=None)
    p.add_argument("--cycle", choices=("on", "off"), default=None,
                   dest="cycle_enabled",
                   help="enable/disable the cycle-return penalty")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("deform", help="advect a mesh to requested times")
    p.add_argument("checkpoint")
    p.add_argument("mesh", help="OBJ mesh at t=0")
    p.add_argument("--times", required=True,
                   help="comma-separated times in [0,1]")
    p.add_argument("--steps", type=int, default=24,
                   help="Euler steps per unit time: one pass serves every "
                        "time, and each gap between sorted times (from 0) "
                        "takes max(1, round(steps*gap)) steps")
    p.add_argument("--wrap", action="store_true",
                   help="wrap out-of-range times periodically")
    p.add_argument("--volume", default=None,
                   help="volume defining the world domain")
    p.add_argument("--bounds", default=None,
                   help="world bounds x0,y0,z0,x1,y1,z1 (mm)")
    p.add_argument("--probes", type=int, default=0,
                   help="also write a trajectory CSV for ~this many vertices")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("eval", help="score a fit against ground truth")
    p.add_argument("checkpoint")
    p.add_argument("volume", help="input .v4d file")
    p.add_argument("--meshes", default=None,
                   help="directory holding mesh_NNN.obj ground truth")
    p.add_argument("--steps-per-frame", type=int, default=1)
    p.add_argument("--no-psnr", action="store_true",
                   help="skip the warped-image PSNR (slow on big grids)")
    p.add_argument("--loss-csv", default=None,
                   help="loss history CSV to plot alongside")
    p.set_defaults(func=cmd_eval)
    for p in sub.choices.values():
        p.add_argument("--out-dir", default=out_default)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CycleflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: the options ask for more memory than is available",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
