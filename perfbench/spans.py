"""Spans around cycleflow's public functions, kept in memory for traced runs.

``install`` replaces each entry point in the table below with a wrapper that
opens a span, calls the original and closes the span; ``restore`` puts the
originals back.  Only traced runs call ``install``, so untraced runs execute
cycleflow unchanged.  Each span records name, start, end, parent and run id,
plus the counts taken at that boundary (rows, steps, bytes, tape nodes).

Spans are patched where the caller looks the name up: ``cli`` imports
``read_v4d`` by name, so the wrapper goes on ``cycleflow.cli.read_v4d``.
A span's name is ``<module>.<function>``; its module is the layer that owns
its self time.
"""
from __future__ import annotations

import hashlib
import importlib
import math
import os
import time
from collections import defaultdict

MODULES = ("cli", "training", "autodiff", "field", "flow", "volume", "mesh",
           "metrics", "svgplot")
STAGES = ("fit", "deform", "eval")


class Recorder:
    """Open spans form a stack; a new span's parent is the innermost one."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []

    def open(self, name, **attrs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "run": self.run, "start": time.perf_counter(), "end": None,
                "attrs": attrs}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")


# ---------------------------------------------------------------------------
# counts taken at span boundaries; each gets (args, kwargs) of the call


def _value(x):
    return getattr(x, "value", x)


def _v4d_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _field_rows(args, kwargs):
    model, points = args[0], _value(args[1])
    sizes = model.layer_sizes
    rows = int(points.shape[0])
    return {"rows": rows,
            "flop": 2 * rows * sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))}


def _tape_nodes(args, kwargs):
    return {"nodes": len(args[0])}


def _euler_path(args, kwargs):
    seeds, times = _value(args[1]), args[2]
    steps = len(times) - 1
    # paths that share seeds, start time and step size could share one pass;
    # the step is rounded because linspace(0, t, n) gives it to within an ulp
    key = hashlib.blake2b(seeds.tobytes(), digest_size=16)
    key.update(f"{float(times[0]):.12g} {float(times[1] - times[0]):.12g}".encode())
    return {"points": int(seeds.shape[0]), "steps": steps,
            "group": key.hexdigest()}


def _inverse_map(args, kwargs):
    steps = kwargs["steps"] if "steps" in kwargs else args[3]
    return {"points": int(len(args[1])), "steps": int(steps)}


def _hausdorff(args, kwargs):
    return {"vertices": int(args[0].vertices.shape[0] + args[1].vertices.shape[0])}


def _out_of_cube(span, args, result):
    """Trajectory points (seeds excluded) outside the [-1,1]^3 cube."""
    span["attrs"]["out_of_cube"] = int(sum(
        int((abs(_value(x)) > 1.0).any(axis=1).sum()) for x in result[1:]))


def _obj_written(span, args, result):
    span["attrs"]["bytes"] = os.path.getsize(args[1])


# (owner, attribute, span name, counts before the call, counts after it)
ENTRY_POINTS = (
    ("cycleflow.cli", "make_sphere_series", "volume.make_sphere_series", None, None),
    ("cycleflow.cli", "write_v4d", "volume.write_v4d", None, None),
    ("cycleflow.cli", "read_v4d", "volume.read_v4d", _v4d_bytes, None),
    ("cycleflow.cli", "read_obj", "mesh.read_obj", None, None),
    ("cycleflow.cli", "write_obj", "mesh.write_obj", None, _obj_written),
    ("cycleflow.cli", "load_checkpoint", "field.load_checkpoint", None, None),
    ("cycleflow.cli", "save_checkpoint", "field.save_checkpoint", None, None),
    ("cycleflow.cli", "fit", "training.fit", None, None),
    ("cycleflow.cli", "deform_mesh", "flow.deform_mesh", None, None),
    ("cycleflow.cli", "integrate", "flow.integrate", None, None),
    ("cycleflow.cli", "evaluate_fit", "metrics.evaluate_fit", None, None),
    ("cycleflow.cli", "line_plot", "svgplot.line_plot", None, None),
    ("cycleflow.training", "sample_points", "training.sample_points", None, None),
    ("cycleflow.training", "total_loss", "training.total_loss", None, None),
    ("cycleflow.training", "adam_step", "training.adam_step", None, None),
    ("cycleflow.training", "gather_trilinear", "volume.gather_trilinear", None, None),
    ("cycleflow.autodiff:Tape", "backward", "autodiff.backward", _tape_nodes, None),
    ("cycleflow.field:VelocityFieldModel", "__call__", "field.forward",
     _field_rows, None),
    ("cycleflow.flow", "euler_path", "flow.euler_path", _euler_path,
     _out_of_cube),
    ("cycleflow.metrics", "flow_at_frames", "flow.flow_at_frames", None, None),
    ("cycleflow.metrics", "integrate", "flow.integrate", None, None),
    ("cycleflow.metrics", "inverse_map", "flow.inverse_map", _inverse_map, None),
    ("cycleflow.metrics", "sample_trilinear", "volume.sample_trilinear", None, None),
    ("cycleflow.metrics", "mesh_volume", "mesh.mesh_volume", None, None),
    ("cycleflow.metrics", "hausdorff", "metrics.hausdorff", _hausdorff, None),
    ("cycleflow.metrics", "psnr", "metrics.psnr", None, None),
    ("cycleflow.metrics", "periodicity_error", "metrics.periodicity_error",
     None, None),
)


def _owner(spec):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _wrap(rec, name, fn, before, after):
    def wrapper(*args, **kwargs):
        attrs = before(args, kwargs) if before else {}
        span = rec.open(name, **attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after:
            after(span, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(rec):
    """Wrap every entry point; returns the patch list ``restore`` undoes."""
    patches = []
    for spec, attr, name, before, after in ENTRY_POINTS:
        owner = _owner(spec)
        original = vars(owner)[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, _wrap(rec, name, original, before, after))
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# self time and per-layer metrics


def _duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Span id -> duration minus the part of it its children cover.

    Children run inside their parent on one thread, so their intervals are
    merged (clipped to the parent) before being subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = _duration(s) - covered
    return out


def module_self_times(spans, root_ids):
    """Self seconds per module, summed over the trees under ``root_ids``."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    totals = dict.fromkeys(MODULES, 0.0)
    for s in spans:
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        if root["id"] in root_ids:
            module = s["name"].split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + selfs[s["id"]]
    return totals


def _pct(values, q):
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _ratio(a, b):
    return a / b if b else 0.0


def _epoch_ms(spans):
    """Epoch k runs from its sample_points start to the next one's start;
    the last epoch of a fit ends with its last adam_step."""
    out = []
    fits = [s for s in spans if s["name"] == "training.fit"]
    for fit in fits:
        inside = [s for s in spans
                  if s["start"] >= fit["start"] and s["end"] <= fit["end"]]
        starts = sorted(s["start"] for s in inside
                        if s["name"] == "training.sample_points")
        adam_end = max((s["end"] for s in inside
                        if s["name"] == "training.adam_step"), default=None)
        if not starts or adam_end is None:
            continue
        for a, b in zip(starts, starts[1:] + [adam_end]):
            out.append((b - a) * 1e3)
    return out


def layer_metrics(stage_spans, setup_spans):
    """Per-layer metrics for one traced run.

    ``stage_spans`` come from the timed stages; ``setup_spans`` from the
    set-up.  Set-up layers (phantom generation and V4D reads) count both;
    every other metric counts the timed stages only.
    """
    by_name = defaultdict(list)
    for s in stage_spans:
        by_name[s["name"]].append(s)

    def busy(name):
        return sum(_duration(s) for s in by_name[name])

    def ms(name):
        return [_duration(s) * 1e3 for s in by_name[name]]

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    roots = {s["id"]: s for s in stage_spans if s["parent"] is None}
    selfs = self_times(stage_spans)
    modules = module_self_times(stage_spans, set(roots))
    m = {}

    backward = ms("autodiff.backward")
    m["autodiff.backward_ms.p50"] = _pct(backward, 50)
    m["autodiff.backward_ms.p90"] = _pct(backward, 90)
    m["autodiff.tape_nodes"] = _pct(
        [s["attrs"]["nodes"] for s in by_name["autodiff.backward"]], 50)
    m["autodiff.backward_over_forward"] = _ratio(
        busy("autodiff.backward"), busy("training.total_loss"))

    epochs = _epoch_ms(stage_spans)
    m["training.epoch_ms.p50"] = _pct(epochs, 50)
    m["training.epoch_ms.p90"] = _pct(epochs, 90)
    m["training.sample_ms.p50"] = _pct(ms("training.sample_points"), 50)
    m["training.total_loss_ms.p50"] = _pct(ms("training.total_loss"), 50)
    m["training.adam_ms.p50"] = _pct(ms("training.adam_step"), 50)

    flop = attr_sum("field.forward", "flop")
    m["field.calls"] = len(by_name["field.forward"])
    m["field.rows"] = attr_sum("field.forward", "rows")
    m["field.gflop"] = flop / 1e9
    m["field.busy_s"] = busy("field.forward")
    m["field.gflop_per_s"] = _ratio(flop / 1e9, m["field.busy_s"])

    paths = by_name["flow.euler_path"]
    point_steps = sum(s["attrs"]["points"] * s["attrs"]["steps"] for s in paths)
    shared = defaultdict(int)
    for s in paths:
        g = s["attrs"]["group"]
        shared[g] = max(shared[g], s["attrs"]["steps"])
    m["flow.euler_steps"] = sum(s["attrs"]["steps"] for s in paths)
    m["flow.point_steps"] = point_steps
    m["flow.out_of_cube_frac"] = _ratio(
        sum(s["attrs"]["out_of_cube"] for s in paths), point_steps)
    m["flow.useful_step_frac"] = _ratio(sum(shared.values()),
                                        m["flow.euler_steps"])
    m["flow.inverse_map_s"] = busy("flow.inverse_map")

    everything = stage_spans + setup_spans
    m["volume.gather_calls"] = len(by_name["volume.gather_trilinear"])
    m["volume.gather_busy_s"] = busy("volume.gather_trilinear")
    m["volume.sample_trilinear_s"] = busy("volume.sample_trilinear")
    reads = [s for s in everything if s["name"] == "volume.read_v4d"]
    m["volume.read_v4d_s"] = sum(_duration(s) for s in reads)
    m["volume.v4d_bytes_read"] = sum(s["attrs"]["bytes"] for s in reads)
    m["volume.make_sphere_series_s"] = sum(
        _duration(s) for s in everything
        if s["name"] == "volume.make_sphere_series")

    m["mesh.read_obj_s"] = busy("mesh.read_obj")
    m["mesh.write_obj_s"] = busy("mesh.write_obj")
    m["mesh.obj_bytes_written"] = attr_sum("mesh.write_obj", "bytes")
    m["mesh.mesh_volume_s"] = busy("mesh.mesh_volume")

    hsd = ms("metrics.hausdorff")
    m["metrics.hausdorff_calls"] = len(hsd)
    m["metrics.hausdorff_busy_s"] = busy("metrics.hausdorff")
    m["metrics.hausdorff_ms.p50"] = _pct(hsd, 50)
    m["metrics.hausdorff_vertices_per_s"] = _ratio(
        attr_sum("metrics.hausdorff", "vertices"), m["metrics.hausdorff_busy_s"])
    m["metrics.warp_busy_s"] = busy("flow.inverse_map") + busy(
        "volume.sample_trilinear")
    m["metrics.warp_point_steps"] = sum(
        s["attrs"]["points"] * s["attrs"]["steps"]
        for s in by_name["flow.inverse_map"])
    m["metrics.periodicity_s"] = busy("metrics.periodicity_error")
    m["metrics.psnr_s"] = busy("metrics.psnr")

    for stage in STAGES:
        m[f"cli.self_s.{stage}"] = sum(
            selfs[i] for i, s in roots.items() if s["name"] == f"cli.{stage}")
    m["svgplot.line_plot_s"] = busy("svgplot.line_plot")
    for module in MODULES[1:]:
        m[f"{module}.self_s"] = modules[module]
    return m
