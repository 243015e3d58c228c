"""cycleflow benchmark: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-accept --seed 1 --seconds 10 --trace 0

Workloads: fit-accept, track-mesh, warp-image (see RATIONALE.md).  The run
sets up the workload in one fresh process, times its CLI stages in another,
and checks every output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the stages once more with spans around each module's
public functions and reports per-layer metrics.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, with the environment and spans, is written under
``.perfbench_work/<workload>/``.  Exit code 1 means a correctness check
failed, 2 that this is not a cycleflow checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
BUDGET_S = 170.0   # every child must finish by then; the run must end in 180 s
SETUP_REPS = 3
# One BLAS thread, of the nproc allowed: with two, any other process on the
# second core stalls every matrix product (fits ran up to 10x slower), while
# a single thread loses under 15% on these 128-wide layers.
BLAS_THREADS = 1

E2E_UNITS = {"setup_s": "s", "stage_s": "s", "peak_rss_mb": "MB"}


def unit_of(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(("_ms.p50", "_ms.p90")):
        return "ms"
    for suffix, unit in (("gflop_per_s", "GFLOP/s"), ("vertices_per_s", "1/s"),
                         ("gflop", "GFLOP"), ("_frac", "fraction"),
                         ("backward_over_forward", "ratio"), ("bytes_read", "B"),
                         ("bytes_written", "B"), ("bytes_hashed", "B"),
                         ("_mm", "mm"), ("_db", "dB"), ("_loss", "loss")):
        if name.endswith(suffix):
            return unit
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    return "count"


class Ops:
    """Operations attempted by the run; a failed one fails the run."""

    def __init__(self):
        self.items = []

    def add(self, name, check, *args):
        try:
            ok, detail = check(*args)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.items.append({"name": name, "ok": bool(ok), "detail": str(detail)})
        return ok

    @property
    def failed(self):
        return [op for op in self.items if not op["ok"]]


def git_record(root):
    if not (root / ".git").exists():
        return {"git_sha": "unknown", "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=20).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=root, text=True,
                               capture_output=True, timeout=20).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha or "unknown", "git_dirty": bool(dirty)}


class Children:
    """Starts child.py with cycleflow's src/ on the path and BLAS pinned."""

    def __init__(self, root, work, threads):
        self.root, self.work = root, work
        self.deadline = time.monotonic() + BUDGET_S
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "CYCLEFLOW_OUT")}
        env["PYTHONPATH"] = str(root / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        self.env = env

    def run(self, tag, **spec):
        spec.update(root=str(self.root), work=str(self.work),
                    out=str(self.work / f"{tag}.result.json"))
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        remaining = self.deadline - time.monotonic()
        with open(self.work / f"{tag}.log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path)],
                    cwd=self.root, env=self.env, stdout=log,
                    stderr=subprocess.STDOUT, timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                return None, f"{tag}: timed out"
        if proc.returncode != 0:
            return None, f"{tag}: exit {proc.returncode}, see {tag}.log"
        return json.loads(Path(spec["out"]).read_text()), f"{tag}: ok"


def check_calls(ops, workload, result, setup_dir):
    """Exit code, manifest and per-stage output checks of every CLI call."""
    for call in result["calls"]:
        out = call["out_dir"]
        tag = f"{call['run']} {call['stage']}"
        ops.add(f"{tag}: exit code 0", lambda c: (c["rc"] == 0, c["rc"]), call)
        ops.add(f"{tag}: manifest hashes", checks.manifest_matches, out)
        if call["stage"] == "fit":
            ops.add(f"{tag}: loss.csv", checks.loss_csv_ok,
                    os.path.join(out, "loss.csv"))
        elif call["stage"] == "deform":
            ops.add(f"{tag}: deformed faces", checks.deformed_faces_ok, out,
                    os.path.join(setup_dir, "phantom", "mesh_000.obj"),
                    workload.frames - 1)
        elif call["stage"] == "eval":
            ops.add(f"{tag}: eval summary finite", checks.eval_summary_ok,
                    os.path.join(out, "eval_summary.json"), workload.psnr)


def identical_across(ops, label, calls, stage, filename):
    paths = [os.path.join(c["out_dir"], filename)
             for c in calls if c["stage"] == stage]
    if len(paths) > 1:
        ops.add(f"{label}: {stage} {filename} identical across runs",
                checks.identical, paths)


def quality(setup_dir, stage_calls, stages_result):
    """Result quality of the first untraced run of each stage."""
    first = {c["stage"]: c["out_dir"] for c in reversed(stage_calls)}
    fit_dir = first.get("fit", os.path.join(setup_dir, "fit"))
    q = {"quality.final_total_loss":
         checks.read_losses(os.path.join(fit_dir, "loss.csv"))[-1][2],
         "quality.mean_hsd_mm": 0.0, "quality.mean_psnr_db": 0.0,
         "quality.periodicity_error_mm": stages_result.get(
             "periodicity_error_mm", 0.0)}
    if "eval" in first:
        with open(os.path.join(first["eval"], "eval_summary.json")) as fh:
            summary = json.load(fh)
        q["quality.mean_hsd_mm"] = summary["mean_hsd_mm"]
        q["quality.periodicity_error_mm"] = summary["periodicity_error_mm"]
        q["quality.mean_psnr_db"] = summary["mean_psnr_db"] or 0.0
    return q


def traced_metrics(stage_spans, setup_spans, untraced, bytes_hashed, quality_values):
    """Per-layer metrics of a traced run.

    ``untraced`` maps each timed stage to its untraced median; the traced
    stage time against their sum is the tracing overhead.
    """
    metrics = spans.layer_metrics(stage_spans, setup_spans)
    for stage in spans.STAGES:
        metrics[f"stage.{stage}_s"] = untraced.get(stage, 0.0)
    traced_s = sum(s["end"] - s["start"] for s in stage_spans
                   if s["parent"] is None)
    metrics["trace.stage_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / sum(untraced.values()) - 1.0
    metrics["cli.bytes_hashed"] = bytes_hashed
    metrics.update(quality_values)
    return metrics


def measure(args, root, work):
    """Run the workload; returns (metrics, ops, record)."""
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    kids = Children(root, work, threads)
    ops = Ops()
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": os.cpu_count(), "blas_threads": threads,
              **git_record(root)}
    base = dict(workload=workload.name, seed=args.seed, seconds=args.seconds)
    setup_dir = str(work / "setup0")

    setup, status = kids.run("setup", mode="setup", trace=traced,
                             reps=1 if traced else SETUP_REPS, **base)
    if not ops.add("setup process", lambda: (setup is not None, status)):
        return {}, ops, record
    check_calls(ops, workload, setup, setup_dir)
    for stage, name in (("gen", "volume.v4d"), ("fit", "model.ckpt"),
                        ("fit", "loss.csv")):
        identical_across(ops, "setup", setup["calls"], stage, name)

    stages, status = kids.run("stages", mode="stages", trace=False, checks=True,
                              prefix="", setup_dir=setup_dir, **base)
    if not ops.add("stages process", lambda: (stages is not None, status)):
        return {}, ops, record
    check_calls(ops, workload, stages, setup_dir)
    env = stages["env"]
    record.update(env=env, stage_runs={k: len(v) for k, v in
                                       stages["stage_s"].items()})
    ops.add("cycleflow imported from this checkout's src/",
            lambda: (env["cycleflow_from_src"], env["cycleflow_file"]))
    if "brute" in stages:
        ops.add("KD-tree hausdorff equals hausdorff_brute to 1e-9",
                lambda b: (b["ok"], b), stages["brute"])
    untraced = {k: statistics.median(v) for k, v in stages["stage_s"].items()}
    calls = list(stages["calls"])

    if not traced:
        metrics = {"setup_s": statistics.median(setup["setup_s"]),
                   "stage_s": sum(untraced.values()),
                   "peak_rss_mb": stages["peak_rss_kb"] / 1024.0}
    else:
        again, status = kids.run(
            "traced", mode="stages", trace=True, prefix="traced-",
            reps=dict.fromkeys(workload.stages, 1), setup_dir=setup_dir, **base)
        if not ops.add("traced process", lambda: (again is not None, status)):
            return {}, ops, record
        check_calls(ops, workload, again, setup_dir)
        if ops.failed:
            return {}, ops, record
        calls += again["calls"]
        metrics = traced_metrics(
            again["spans"], setup["spans"], untraced,
            sum(checks.manifest_bytes(c["out_dir"]) for c in again["calls"]),
            quality(setup_dir, stages["calls"], stages))
        attributed = sum(v for k, v in metrics.items() if ".self_s" in k)
        ops.add("module self times add up to the traced stage time",
                lambda: (abs(attributed - metrics["trace.stage_s"]) < 1e-6,
                         f"{attributed} vs {metrics['trace.stage_s']}"))
        (work / "spans.json").write_text(json.dumps(
            {"setup": setup["spans"], "stages": again["spans"]}))
    for stage in workload.stages:
        identical_across(ops, "stages", calls, stage, {
            "fit": "loss.csv", "deform": "trajectories.csv",
            "eval": "eval.csv"}[stage])
    return metrics, ops, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cycleflow" / "cli.py").is_file():
        print("error: src/cycleflow not found; run from a cycleflow checkout",
              file=sys.stderr)
        return 2
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    metrics, ops, record = measure(args, root, work)
    units = E2E_UNITS if not args.trace else {m: unit_of(m) for m in metrics}
    failed = len(ops.failed)
    record.update(metrics=metrics, ops=ops.items)
    (work / "result.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops.items)} operations, {failed} failed")
    for op in ops.failed:
        print(f"  FAILED {op['name']}: {op['detail']}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print("env " + json.dumps({k: v for k, v in record.items()
                               if k not in ("metrics", "ops")}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops.items), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
