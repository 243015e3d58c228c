"""tools/record_bench.py against stand-in checkouts whose perfbench/run.py
prints a fixed result, so no workload runs."""
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import record_bench  # noqa: E402

# peak_rss_mb, or a traced run's epoch time, is the seed plus an offset per
# checkout; the run order and trace flag go to a log
FAKE_RUN = '''
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, offset = int(args["--seed"]), float(open("offset").read())
with open("../order.log", "a") as fh:
    fh.write(os.path.basename(os.getcwd()) + ":" + args["--trace"] + "\\n")
work = os.path.join(".perfbench_work", args["--workload"])
os.makedirs(work, exist_ok=True)
with open(os.path.join(work, "result.json"), "w") as fh:
    json.dump({"workload": args["--workload"], "nproc": 2, "metrics": {}, "ops": [],
               "file": os.path.join(os.getcwd(), "src", "x.py")}, fh)
metrics = {"setup_s": {"value": 1.0, "unit": "s"}, "stage_s": {"value": 2.0, "unit": "s"},
           "peak_rss_mb": {"value": seed + offset, "unit": "MB"}}
if args["--trace"] == "1":
    metrics = {"training.epoch_ms.p50": {"value": seed + offset, "unit": "ms"},
               "field.busy_s": {"value": 0.5, "unit": "s"}}
print("perfbench ...")
print(json.dumps({"correct": True, "attempted": 3, "failed": int(offset < 0),
                  "metrics": metrics}))
'''


BOUNDS = {"end_to_end": [{"name": "setup_s", "bound": 0.25},
                         {"name": "stage_s", "bound": 0.25},
                         {"name": "peak_rss_mb", "bound": 0.1}]}


def _checkout(root, offset, src_lines=2):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "x.py").write_text("x = 1\n" * src_lines)
    (root / "offset").write_text(str(offset))
    (root / "BENCHMARK.json").write_text(json.dumps(BOUNDS))
    return root


def test_summarize_gives_median_and_inclusive_quartiles():
    assert record_bench.summarize([4.0, 1.0, 3.0, 2.0, 5.0]) == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}


def test_pairs_alternate_and_each_side_is_summarized(tmp_path):
    parent = _checkout(tmp_path / "parent", 0.5)
    change = _checkout(tmp_path / "change", -0.5)
    out = tmp_path / "BENCH.json"
    assert record_bench.main(["--parent", str(parent), "--change", str(change),
                              "--workload", "track-mesh:3", "--first-seed", "7",
                              "--out", str(out)]) == 0
    assert (tmp_path / "order.log").read_text().split() == \
        ["parent:0", "change:0", "change:0", "parent:0", "parent:0", "change:0",
         "parent:1", "change:1"]
    w = json.loads(out.read_text())["workloads"]["track-mesh"]
    assert w["seeds"] == [7, 8, 9]
    assert w["parent"]["runs"]["peak_rss_mb"] == [7.5, 8.5, 9.5]
    assert w["change"]["summary"]["peak_rss_mb"] == \
        {"median": 7.5, "q1": 7.0, "q3": 8.0, "n": 3}
    assert w["pairs_change_lower"] == {"setup_s": 0, "stage_s": 0, "peak_rss_mb": 3}
    assert w["change"]["failed_operations"] == [1, 1, 1]
    # one traced run per side, on the seed after the pairs', kept apart from
    # the untraced medians
    assert w["traced_seed"] == 10
    assert w["parent"]["traced"] == {"training.epoch_ms.p50": 10.5, "field.busy_s": 0.5}
    assert w["change"]["traced"]["training.epoch_ms.p50"] == 9.5
    assert w["parent"]["traced_failed_operations"] == 0
    assert w["change"]["traced_failed_operations"] == 1
    assert w["parent"]["runs"]["stage_s"] == [2.0, 2.0, 2.0]
    assert w["parent"]["env"] == {"workload": "track-mesh", "nproc": 2,
                                  "file": os.path.join("src", "x.py")}


def test_a_run_that_prints_nothing_is_an_error(tmp_path):
    root = tmp_path / "empty"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("import sys; sys.exit(2)\n")
    with pytest.raises(RuntimeError, match="printed nothing"):
        record_bench.run_once(root, "track-mesh", 1, 12)


def test_a_drop_is_resolved_by_nine_tenths_of_ten_pairs_and_a_gap_past_the_spread():
    parent = record_bench.summarize([10.0, 11.0, 12.0, 13.0, 14.0])  # q1-q3 is 2
    assert record_bench.resolved(parent, {"median": 9.9}, 9, 10)
    assert record_bench.resolved(parent, {"median": 9.9}, 18, 20)
    assert not record_bench.resolved(parent, {"median": 9.9}, 8, 10)  # 8 of 10
    assert not record_bench.resolved(parent, {"median": 9.9}, 17, 19)  # under 9/10
    assert not record_bench.resolved(parent, {"median": 10.0}, 10, 10)  # gap = spread
    assert not record_bench.resolved(parent, {"median": 0.0}, 6, 6)  # too few pairs


def test_each_metric_of_a_workload_gets_a_resolved_flag(tmp_path):
    # peak_rss_mb: parent seed + 0.5, change seed - 20, lower in 10 of 10
    # pairs by 20.5 MB, past the parent's q1-q3 width of 4.5; equal times tie
    parent = _checkout(tmp_path / "parent", 0.5)
    change = _checkout(tmp_path / "change", -20.0)
    out = tmp_path / "BENCH.json"
    assert record_bench.main(["--parent", str(parent), "--change", str(change),
                              "--workload", "fit-accept:10", "--first-seed", "7",
                              "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["fit-accept"]
    assert w["pairs_change_lower"] == {"setup_s": 0, "stage_s": 0, "peak_rss_mb": 10}
    assert w["resolved"] == {"setup_s": False, "stage_s": False, "peak_rss_mb": True}
    # lower in every pair by less than the parent's spread is not resolved
    change.joinpath("offset").write_text("-0.5")
    assert record_bench.main(["--parent", str(parent), "--change", str(change),
                              "--workload", "fit-accept:10", "--first-seed", "7",
                              "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["fit-accept"]
    assert w["pairs_change_lower"]["peak_rss_mb"] == 10
    assert w["resolved"]["peak_rss_mb"] is False


def test_a_median_past_its_bound_is_flagged_and_printed(tmp_path, capsys):
    # peak_rss_mb: parent seed + 0.5 has median 8.5 on seeds 7-9, so its
    # bound of 0.1 allows up to 9.35; equal times stay inside theirs
    parent = _checkout(tmp_path / "parent", 0.5)
    change = _checkout(tmp_path / "change", 1.5)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change),
            "--workload", "fit-accept:3", "--first-seed", "7", "--out", str(out)]
    assert record_bench.main(argv) == 0
    w = json.loads(out.read_text())["workloads"]["fit-accept"]
    assert w["over_bound"] == {"setup_s": False, "stage_s": False, "peak_rss_mb": True}
    assert capsys.readouterr().out.splitlines()[-1] == \
        "over bound: fit-accept peak_rss_mb median 8.5 -> 9.5 (+11.8%, bound 10%)"
    change.joinpath("offset").write_text("1.0")  # median 9.0, inside the bound
    assert record_bench.main(argv) == 0
    w = json.loads(out.read_text())["workloads"]["fit-accept"]
    assert w["over_bound"]["peak_rss_mb"] is False
    assert "over bound" not in capsys.readouterr().out


def test_the_src_line_count_of_each_side_is_recorded_and_printed(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", 0.5, src_lines=5)
    change = _checkout(tmp_path / "change", 0.5, src_lines=3)
    (change / "src" / "pkg" / "y.py").write_text("y = 2\n")
    (change / "src" / "pkg" / "notes.txt").write_text("not counted\n")
    out = tmp_path / "BENCH.json"
    assert record_bench.main(["--parent", str(parent), "--change", str(change),
                              "--workload", "track-mesh:2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 5, "change": 4}
    assert capsys.readouterr().out.splitlines()[-1] == "src/ lines: parent 5, change 4"
