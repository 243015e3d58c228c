"""Tests of the benchmark's own arithmetic, wrappers and checks.

They run no workload: span trees are synthetic and the CLI artifacts come
from a tiny ``gen`` + ``fit``.
"""
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "run": "fit#0", "attrs": attrs}


def _tree():
    """cli.fit [0,10] > training.fit [1,9] > epochs of sample/loss/backward/adam."""
    return [
        _span(0, "cli.fit", 0.0, 10.0),
        _span(1, "training.fit", 1.0, 9.0, 0),
        _span(2, "training.sample_points", 1.0, 1.5, 1),
        _span(3, "training.total_loss", 1.5, 3.0, 1),
        _span(4, "field.forward", 2.0, 2.5, 3, rows=10, flop=100),
        _span(5, "autodiff.backward", 3.0, 4.0, 1, nodes=7),
        _span(6, "training.adam_step", 4.0, 4.5, 1),
        _span(7, "training.sample_points", 5.0, 5.5, 1),
        _span(8, "training.adam_step", 8.0, 8.5, 1),
    ]


def test_self_time_of_synthetic_tree():
    tree = _tree()
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(2.0)             # 10 - 8 covered by training.fit
    assert selfs[1] == pytest.approx(8.0 - 4.5)       # children cover [1,4.5], [5,5.5], [8,8.5]
    assert selfs[3] == pytest.approx(1.0)             # 1.5 minus the 0.5 forward
    assert selfs[4] == pytest.approx(0.5)
    modules = spans.module_self_times(tree, {0})
    assert modules["cli"] == pytest.approx(2.0)
    assert modules["field"] == pytest.approx(0.5)
    assert modules["autodiff"] == pytest.approx(1.0)
    assert sum(modules.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children():
    tree = [_span(0, "cli.eval", 0.0, 10.0), _span(1, "mesh.a", 1.0, 4.0, 0),
            _span(2, "mesh.b", 3.0, 6.0, 0), _span(3, "mesh.c", 9.0, 12.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_epochs_run_from_sample_to_sample_and_end_at_last_adam():
    metrics = spans.layer_metrics(_tree(), [])
    # epochs [1, 5) and [5, 8.5): 4000 ms and 3500 ms
    assert metrics["training.epoch_ms.p50"] == pytest.approx(3500.0)
    assert metrics["training.epoch_ms.p90"] == pytest.approx(4000.0)
    assert metrics["autodiff.tape_nodes"] == 7
    assert metrics["autodiff.backward_over_forward"] == pytest.approx(1.0 / 1.5)
    assert metrics["field.gflop"] == pytest.approx(1e-7)


def _quality(tmp_path):
    fit = tmp_path / "fit"
    fit.mkdir()
    (fit / "loss.csv").write_text(
        "epoch,data_loss,cycle_loss,total_loss\n0,1.0,0.5,2.0\n1,0.5,0.25,1.0\n")
    ev = tmp_path / "eval0"
    ev.mkdir()
    (ev / "eval_summary.json").write_text(json.dumps(
        {"mean_hsd_mm": 1.5, "periodicity_error_mm": 2.5, "mean_psnr_db": None}))
    calls = [{"stage": "eval", "out_dir": str(ev)}]
    return run.quality(str(tmp_path), calls, {})


def test_printed_metric_names_match_benchmark_json(tmp_path):
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert len(layers) == len(bench["per_layer"])
    assert run.E2E_UNITS == e2e

    quality = _quality(tmp_path)
    assert quality["quality.final_total_loss"] == 1.0
    assert quality["quality.mean_psnr_db"] == 0.0
    traced = run.traced_metrics(_tree(), [], {"fit": 9.0}, 123, quality)
    assert {name: run.unit_of(name) for name in traced} == layers
    assert traced["trace.stage_s"] == pytest.approx(10.0)
    assert traced["trace.overhead_frac"] == pytest.approx(10.0 / 9.0 - 1.0)


def test_wrappers_record_spans_and_restore_originals():
    from cycleflow.field import init_weights
    from cycleflow.flow import integrate

    def current():
        return [spans._owner(spec).__dict__[attr] for spec, attr, *_ in
                spans.ENTRY_POINTS]

    before = current()
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        assert all(a is not b for a, b in zip(before, current()))
        model = init_weights(0, [5, 8, 3], 6.0)
        integrate(model, np.zeros((4, 3)), 0.0, 1.0, 3)
    finally:
        spans.restore(patches)
    assert all(a is b for a, b in zip(before, current()))
    names = [s["name"] for s in rec.spans]
    assert names == ["flow.euler_path"] + ["field.forward"] * 3
    assert rec.spans[0]["attrs"]["steps"] == 3
    assert all(s["parent"] == 0 and s["attrs"]["rows"] == 4 for s in rec.spans[1:])


def test_corrupted_artifact_fails_its_check(tmp_path):
    from cycleflow.cli import main

    out = tmp_path / "fit"
    assert main(["gen", "--grid", "10", "--frames", "3", "--radius", "2",
                 "--amplitude", "0.5", "--out-dir", str(tmp_path / "gen")]) == 0
    assert main(["fit", str(tmp_path / "gen" / "volume.v4d"), "--epochs", "3",
                 "--points", "64", "--hidden-width", "8", "--hidden-layers", "1",
                 "--out-dir", str(out)]) == 0
    loss = out / "loss.csv"
    assert checks.manifest_matches(str(out))[0]
    assert checks.loss_csv_ok(str(loss))[1].startswith("3 epochs")

    copy = tmp_path / "copy.csv"
    shutil.copyfile(loss, copy)
    assert checks.identical([str(loss), str(copy)])[0]
    data = bytearray(copy.read_bytes())
    data[-3] ^= 0x01
    copy.write_bytes(bytes(data))
    assert not checks.identical([str(loss), str(copy)])[0]

    shutil.copyfile(copy, loss)
    assert not checks.manifest_matches(str(out))[0]


def test_run_refuses_a_directory_without_cycleflow(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fit-accept", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []
