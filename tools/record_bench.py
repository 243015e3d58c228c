"""Record perfbench's end-to-end metrics for a parent and a change checkout.

Run from anywhere::

    python3 tools/record_bench.py --parent ../parent --change . \\
        --workload track-mesh:10 --workload fit-accept:6 --first-seed 201 \\
        --out BENCH_22.json

Each ``--workload NAME:PAIRS`` runs ``perfbench/run.py --trace 0`` PAIRS
times on each side, in alternating pairs: pair k runs the parent first when k
is even and the change first when it is odd, both with seed first-seed + k.
Then each side runs once with ``--trace 1``, parent first, with seed
first-seed + PAIRS.  The last stdout line of every run is its JSON result.
The output file holds, per workload and side, the median and q1-q3 of
setup_s, stage_s and peak_rss_mb, every run's values, the failed-operation
counts, the traced run's per-layer metrics (single samples:
training.epoch_ms.p50, field.busy_s, ...) and its failed operations, and each
side's environment from ``.perfbench_work/<workload>/result.json``, with paths
relative to the checkout.  Per workload and metric it holds how many pairs
the change ran lower, whether that drop is resolved (see ``resolved``), and
whether the change's median is over the bound that the parent's
``BENCHMARK.json`` gives the metric in its ``end_to_end`` list (see
``over_bound``); and each side's line count of the ``.py`` files under
``src/`` (``src_lines``).  The run ends by printing those counts, then each
metric over its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "stage_s", "peak_rss_mb")
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    """One perfbench run in ``checkout``, untraced unless trace is 1; its
    last-line JSON and the environment part of its result.json."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed nothing "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads((checkout / ".perfbench_work" / workload
                         / "result.json").read_text())
    env = {k: v for k, v in record.items() if k not in ("metrics", "ops")}
    # paths inside the checkout are kept relative to it
    result["env"] = json.loads(json.dumps(env).replace(f"{checkout}{os.sep}", ""))
    result["exit"] = proc.returncode
    return result


def src_lines(checkout: Path) -> int:
    """Lines of the .py files under the checkout's src/."""
    return sum(len(p.read_bytes().splitlines())
               for p in (checkout / "src").rglob("*.py"))


def summarize(values) -> dict:
    """Median and inclusive quartiles of a list of numbers."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def resolved(parent: dict, change: dict, lower: int, pairs: int) -> bool:
    """Whether a lower change is shown by pairs of runs: at least ten pairs,
    the change lower in at least nine tenths of them (a tie counts for
    neither side), and its median below the parent's by more than the
    parent's q1-q3 width.  parent and change are ``summarize`` results."""
    return (pairs >= 10 and 10 * lower >= 9 * pairs
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"])


def over_bound(parent: dict, change: dict, bound: float) -> bool:
    """Whether the change's median exceeds the parent's by more than the
    bound, a fraction of the parent's median.  parent and change are
    ``summarize`` results."""
    return change["median"] - parent["median"] > bound * parent["median"]


def record_workload(parent: Path, change: Path, workload: str, pairs: int,
                    first_seed: int, seconds: int, bounds: dict) -> dict:
    checkouts = dict(zip(SIDES, (parent, change)))
    runs = {side: [] for side in SIDES}
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], workload, first_seed + k, seconds)
            runs[side].append(result)
            print(f"{workload} pair {k} {side}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in METRICS
                if m in result["metrics"]) + f", failed={result['failed']}",
                flush=True)
    traced = {}
    for side in SIDES:
        traced[side] = run_once(checkouts[side], workload, first_seed + pairs,
                                seconds, trace=1)
        print(f"{workload} traced {side}: {len(traced[side]['metrics'])} metrics, "
              f"failed={traced[side]['failed']}", flush=True)
    out = {"pairs": pairs, "seeds": [first_seed + k for k in range(pairs)],
           "traced_seed": first_seed + pairs}
    for side in SIDES:
        values = {m: [r["metrics"][m]["value"] for r in runs[side]
                      if m in r["metrics"]] for m in METRICS}
        out[side] = {
            "summary": {m: summarize(v) for m, v in values.items() if len(v) >= 2},
            "runs": values,
            "failed_operations": [r["failed"] for r in runs[side]],
            "traced": {m: v["value"] for m, v in traced[side]["metrics"].items()},
            "traced_failed_operations": traced[side]["failed"],
            "env": runs[side][0]["env"],
        }
    out["pairs_change_lower"] = {
        m: sum(c < p for p, c in zip(out["parent"]["runs"][m],
                                     out["change"]["runs"][m]))
        for m in METRICS}
    out["resolved"] = {
        m: m in out["parent"]["summary"] and m in out["change"]["summary"]
        and resolved(out["parent"]["summary"][m], out["change"]["summary"][m],
                     out["pairs_change_lower"][m], pairs)
        for m in METRICS}
    out["over_bound"] = {
        m: m in out["parent"]["summary"] and m in out["change"]["summary"]
        and m in bounds and over_bound(out["parent"]["summary"][m],
                                       out["change"]["summary"][m], bounds[m])
        for m in METRICS}
    return out


def parse_workload(spec: str):
    name, _, pairs = spec.partition(":")
    return name, int(pairs or 10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path,
                        help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        type=parse_workload, help="NAME:PAIRS, repeatable")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    bench = {"tool": "tools/record_bench.py", "seconds": args.seconds,
             "trace": 0, "src_lines": {side: src_lines(checkout) for side, checkout
                                       in zip(SIDES, (args.parent, args.change))},
             "workloads": {}}
    for name, pairs in args.workload:
        bench["workloads"][name] = record_workload(
            args.parent.resolve(), args.change.resolve(), name, pairs,
            args.first_seed, args.seconds, bounds)
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print("src/ lines: " + ", ".join(f"{side} {n}" for side, n
                                     in bench["src_lines"].items()), flush=True)
    for name, w in bench["workloads"].items():
        for m in (m for m in METRICS if w["over_bound"][m]):
            p, c = (w[side]["summary"][m]["median"] for side in SIDES)
            print(f"over bound: {name} {m} median {p:.4g} -> {c:.4g} "
                  f"({c / p - 1:+.1%}, bound {bounds[m]:.0%})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
