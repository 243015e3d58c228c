"""One benchmark process: the set-up, or the timed stages, of one workload.

``run.py`` starts this file with ``PYTHONPATH=src`` and the BLAS thread
count pinned in the environment, so ``cycleflow`` and NumPy are imported
here, fresh, under those settings.  Usage::

    python3 perfbench/child.py SPEC.json

SPEC names the mode (``setup`` or ``stages``), the workload, the seed, the
working directory and whether to trace; the result goes to SPEC's ``out``
path as JSON.  CLI output goes to this process's stdout, which ``run.py``
sends to a log file.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np
import scipy

import cycleflow
from cycleflow import cli
from cycleflow.field import load_checkpoint
from cycleflow.mesh import read_obj
from cycleflow.metrics import hausdorff, hausdorff_brute, periodicity_error
from cycleflow.volume import DomainNormalizer, read_v4d

import spans
from workloads import BRUTE_PAIR, WORKLOADS

MIN_REPS, MAX_REPS = 2, 8  # a stage's median needs two runs; eight are plenty


class Runner:
    """Runs CLI command lines in this process, timing each call."""

    def __init__(self, trace):
        self.rec = spans.Recorder() if trace else None
        self.patches = spans.install(self.rec) if trace else []
        self.calls = []

    def run(self, stage, argv, run_id):
        span = None
        t0 = time.perf_counter()
        if self.rec is not None:
            self.rec.run = run_id
            span = self.rec.open(f"cli.{stage}")
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not an abort
            print(f"{stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
        finally:
            if span is not None:
                self.rec.close(span)
        dt = time.perf_counter() - t0
        out_dir = argv[argv.index("--out-dir") + 1]
        self.calls.append({"stage": stage, "run": run_id, "rc": rc,
                           "seconds": dt, "out_dir": out_dir})
        return dt

    def close(self):
        spans.restore(self.patches)
        self.patches = []
        return self.rec.spans if self.rec is not None else []


def run_setup(spec, runner):
    """Repeat the set-up; each repetition writes its own directory."""
    workload = WORKLOADS[spec["workload"]]
    times = []
    for r in range(spec["reps"]):
        rep_dir = os.path.join(spec["work"], f"setup{r}")
        times.append(sum(runner.run(argv[0], argv, f"setup#{r}")
                         for argv in workload.setup_argv(rep_dir, spec["seed"])))
    setup_dir = os.path.join(spec["work"], "setup0")
    gt = os.path.join(setup_dir, "gt")
    os.makedirs(gt, exist_ok=True)
    for i in workload.gt_frames:
        name = f"mesh_{i:03d}.obj"
        shutil.copyfile(os.path.join(setup_dir, "phantom", name),
                        os.path.join(gt, name))
    return {"setup_s": times}


def run_stages(spec, runner):
    """Each stage repeats until it has run ``seconds`` and MIN_REPS times
    (at most MAX_REPS times), or exactly ``reps[stage]`` times when given."""
    workload = WORKLOADS[spec["workload"]]
    times = {}
    for stage in workload.stages:
        times[stage] = []
        fixed = (spec.get("reps") or {}).get(stage)
        while True:
            k = len(times[stage])
            out_dir = os.path.join(spec["work"], f"{spec['prefix']}{stage}{k}")
            argv = workload.stage_argv(stage, spec["setup_dir"], out_dir,
                                       spec["seed"])
            times[stage].append(runner.run(stage, argv, f"{stage}#{k}"))
            if fixed is not None:
                if len(times[stage]) >= fixed:
                    break
            elif (sum(times[stage]) >= spec["seconds"]
                  and len(times[stage]) >= MIN_REPS
                  or len(times[stage]) >= MAX_REPS):
                break
    return {"stage_s": times,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


# ---------------------------------------------------------------------------
# checks and records made after the timed region


def environment(root):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = os.path.realpath(os.path.join(root, "src", "cycleflow"))
    where = os.path.realpath(os.path.dirname(cycleflow.__file__))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "cycleflow_file": os.path.realpath(cycleflow.__file__),
            "cycleflow_from_src": where == src}


def hausdorff_matches_brute(spec):
    """KD-tree Hausdorff equals the brute-force scan on one deformed frame."""
    deform_dir = os.path.join(spec["work"], f"{spec['prefix']}deform0")
    name = next(n for n in sorted(os.listdir(deform_dir))
                if n.startswith(f"deformed_{BRUTE_PAIR - 1:03d}_"))
    a = read_obj(os.path.join(deform_dir, name))
    b = read_obj(os.path.join(spec["setup_dir"], "phantom",
                              f"mesh_{BRUTE_PAIR:03d}.obj"))
    fast, brute = hausdorff(a, b), hausdorff_brute(a, b)
    return {"kdtree_mm": fast, "brute_mm": brute,
            "ok": abs(fast - brute) <= 1e-9}


def fit_periodicity_error(spec):
    """The periodicity error eval would report for the first timed fit."""
    out_dir = os.path.join(spec["work"], f"{spec['prefix']}fit0")
    model = load_checkpoint(os.path.join(out_dir, "model.ckpt"))
    volume = read_v4d(os.path.join(spec["setup_dir"], "phantom", "volume.v4d"))
    return periodicity_error(model, DomainNormalizer.from_volume(volume),
                             steps=volume.n_frames - 1)


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    runner = Runner(spec["trace"])
    try:
        if spec["mode"] == "setup":
            result = run_setup(spec, runner)
        else:
            result = run_stages(spec, runner)
    finally:
        result_spans = runner.close()
    result["calls"] = runner.calls
    result["spans"] = result_spans
    if spec.get("checks"):
        result["env"] = environment(spec["root"])
        stages = WORKLOADS[spec["workload"]].stages
        if "deform" in stages:
            result["brute"] = hausdorff_matches_brute(spec)
        if "fit" in stages:
            result["periodicity_error_mm"] = fit_periodicity_error(spec)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
