"""End-to-end command-line runs: artifacts, manifests, and exit codes."""
import hashlib
import json

import numpy as np
import pytest

from cycleflow.cli import main
from cycleflow.mesh import read_obj
from cycleflow.volume import read_v4d

from conftest import rewrite_container

GEN_ARGS = ["gen", "--grid", "12", "--frames", "3", "--spacing", "1.0",
            "--radius", "3.0", "--pattern", "periodic", "--amplitude", "0.5"]
FIT_ARGS = ["--epochs", "2", "--points", "8", "--hidden-width", "8",
            "--hidden-layers", "2", "--seed", "3"]


def run_gen(tmp_path, extra=()):
    out = tmp_path / "gen"
    code = main(GEN_ARGS + list(extra) + ["--out-dir", str(out)])
    assert code == 0
    return out


def run_fit(tmp_path, gen_dir, extra=()):
    out = tmp_path / "fit"
    code = main(["fit", str(gen_dir / "volume.v4d")] + FIT_ARGS + list(extra)
                + ["--out-dir", str(out)])
    assert code == 0
    return out


# -------------------------------------------------------------------- gen

def test_gen_writes_volume_meshes_manifest(tmp_path, capsys):
    out = run_gen(tmp_path)
    assert (out / "volume.v4d").exists()
    for i in range(3):
        assert (out / f"mesh_{i:03d}.obj").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "cycleflow"
    assert manifest["command"] == "gen"
    assert manifest["config"]["frames"] == 3
    # recorded output hashes match the files on disk
    vpath = str(out / "volume.v4d")
    digest = hashlib.sha256((out / "volume.v4d").read_bytes()).hexdigest()
    assert manifest["outputs"][vpath] == digest
    vol = read_v4d(out / "volume.v4d")
    assert vol.n_frames == 3
    assert vol.grid_shape == (12, 12, 12)
    assert "wrote" in capsys.readouterr().out


def test_gen_rejects_bad_arguments(tmp_path):
    out = str(tmp_path / "x")
    assert main(["gen", "--radius", "-1", "--out-dir", out]) == 2
    assert main(["gen", "--frames", "1", "--out-dir", out]) == 2
    assert main(["gen", "--grid", "1", "--out-dir", out]) == 2
    assert main(["gen", "--spacing", "0", "--out-dir", out]) == 2
    assert main(["gen", "--smoothing", "-2", "--out-dir", out]) == 2
    # argparse rejects unknown choices with its own exit code 2
    assert main(["gen", "--pattern", "spiral", "--out-dir", out]) == 2


def test_gen_sphere_exceeding_grid_is_data_error(tmp_path):
    assert main(["gen", "--grid", "12", "--radius", "40",
                 "--out-dir", str(tmp_path / "x")]) == 3


# -------------------------------------------------------------------- fit

def test_fit_writes_artifacts_and_echoes_config(tmp_path, capsys):
    gen = run_gen(tmp_path)
    out = run_fit(tmp_path, gen)
    for name in ("model.ckpt", "loss.csv", "fit_summary.json", "manifest.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "hidden_width = 8" in stdout
    assert "final total loss" in stdout
    summary = json.loads((out / "fit_summary.json").read_text())
    assert summary["epochs"] == 2
    assert summary["config"]["seed"] == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["seed"] == 3
    assert str(gen / "volume.v4d") in manifest["inputs"]


def test_fit_is_reproducible_at_the_artifact_level(tmp_path):
    gen = run_gen(tmp_path)
    out1 = tmp_path / "fit1"
    out2 = tmp_path / "fit2"
    args = ["fit", str(gen / "volume.v4d")] + FIT_ARGS
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
    assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()


def test_fit_config_file_with_cli_override(tmp_path):
    gen = run_gen(tmp_path)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("epochs = 1\nhidden_width = 8\nhidden_layers = 2\n"
                   "points_per_epoch = 8\n")
    out = tmp_path / "fit"
    assert main(["fit", str(gen / "volume.v4d"), "--config", str(cfg),
                 "--epochs", "2", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "fit_summary.json").read_text())
    assert summary["epochs"] == 2                  # CLI override wins
    assert summary["config"]["hidden_width"] == 8  # file value kept


def test_fit_cycle_off_flag(tmp_path, capsys):
    gen = run_gen(tmp_path)
    out = run_fit(tmp_path, gen, extra=["--cycle", "off"])
    assert "cycle_weight is ignored" in capsys.readouterr().out
    summary = json.loads((out / "fit_summary.json").read_text())
    assert summary["config"]["cycle_enabled"] is False
    assert summary["final_cycle_loss"] == 0.0


def test_fit_band_sampling_flag(tmp_path):
    gen = run_gen(tmp_path)
    out = run_fit(tmp_path, gen, extra=["--sampling", "band"])
    summary = json.loads((out / "fit_summary.json").read_text())
    assert summary["config"]["sampling"] == "band"


def test_fit_error_exit_codes(tmp_path):
    gen = run_gen(tmp_path)
    vol = str(gen / "volume.v4d")
    out = str(tmp_path / "x")
    # unknown config key -> usage error
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("momentum = 0.9\n")
    assert main(["fit", vol, "--config", str(bad_cfg), "--out-dir", out]) == 2
    # missing input file -> data error
    assert main(["fit", str(tmp_path / "nope.v4d"), "--out-dir", out]) == 3
    # corrupt container -> data error
    broken = tmp_path / "broken.v4d"
    broken.write_bytes((gen / "volume.v4d").read_bytes()[:40])
    assert main(["fit", str(broken), "--out-dir", out]) == 3


def test_fit_non_finite_volume_is_data_error(tmp_path):
    gen = run_gen(tmp_path)
    vpath = rewrite_container(gen / "volume.v4d", tmp_path / "nan.v4d",
                              payload=lambda p: np.full_like(p, np.nan))
    assert main(["fit", str(vpath)] + FIT_ARGS
                + ["--out-dir", str(tmp_path / "x")]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_divergence_is_numerical_error(tmp_path):
    # one Adam step of size 1e300 overflows the float32 weights
    gen = run_gen(tmp_path)
    assert main(["fit", str(gen / "volume.v4d")] + FIT_ARGS
                + ["--learning-rate", "1e300", "--out-dir", str(tmp_path / "x")]) == 4


def test_fit_summary_and_hashes_repeat_in_one_out_dir(tmp_path):
    gen = run_gen(tmp_path)
    runs = []
    for _ in range(2):
        out = run_fit(tmp_path, gen)
        manifest = json.loads((out / "manifest.json").read_text())
        runs.append(((out / "fit_summary.json").read_bytes(), manifest["outputs"]))
    assert runs[0] == runs[1]
    assert "wall_time_s" not in json.loads(runs[0][0])


# ----------------------------------------------------------------- deform

def test_deform_writes_meshes_and_trajectories(tmp_path):
    gen = run_gen(tmp_path)
    fit_dir = run_fit(tmp_path, gen)
    out = tmp_path / "def"
    code = main(["deform", str(fit_dir / "model.ckpt"), str(gen / "mesh_000.obj"),
                 "--times", "0,0.5", "--steps", "4", "--probes", "5",
                 "--volume", str(gen / "volume.v4d"), "--out-dir", str(out)])
    assert code == 0
    m0 = out / "deformed_000_t0.000000.obj"
    m1 = out / "deformed_001_t0.500000.obj"
    assert m0.exists() and m1.exists()
    src = read_obj(gen / "mesh_000.obj")
    # t=0 must reproduce the input mesh (up to OBJ text precision)
    back = read_obj(m0)
    assert np.abs(back.vertices - src.vertices).max() < 1e-6
    traj = (out / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "point_id,step,t,x,y,z"
    assert len(traj) > 1


def test_deform_accepts_explicit_bounds(tmp_path):
    gen = run_gen(tmp_path)
    fit_dir = run_fit(tmp_path, gen)
    out = tmp_path / "def"
    assert main(["deform", str(fit_dir / "model.ckpt"),
                 str(gen / "mesh_000.obj"), "--times", "0.25",
                 "--bounds", "0,0,0,11,11,11", "--out-dir", str(out)]) == 0
    assert (out / "deformed_000_t0.250000.obj").exists()


def test_deform_time_wrapping(tmp_path):
    gen = run_gen(tmp_path)
    fit_dir = run_fit(tmp_path, gen)
    args = ["deform", str(fit_dir / "model.ckpt"), str(gen / "mesh_000.obj"),
            "--volume", str(gen / "volume.v4d"),
            "--out-dir", str(tmp_path / "def")]
    assert main(args + ["--times", "1.5"]) == 2          # out of range
    assert main(args + ["--times", "1.5", "--wrap"]) == 0
    assert (tmp_path / "def" / "deformed_000_t0.500000.obj").exists()


def test_deform_usage_errors(tmp_path):
    gen = run_gen(tmp_path)
    fit_dir = run_fit(tmp_path, gen)
    ckpt = str(fit_dir / "model.ckpt")
    mesh = str(gen / "mesh_000.obj")
    out = str(tmp_path / "x")
    vol = str(gen / "volume.v4d")
    assert main(["deform", ckpt, mesh, "--times", "abc",
                 "--volume", vol, "--out-dir", out]) == 2
    assert main(["deform", ckpt, mesh, "--times", "0.5",
                 "--out-dir", out]) == 2                  # no domain given
    assert main(["deform", ckpt, mesh, "--times", "0.5",
                 "--bounds", "1,2,3", "--out-dir", out]) == 2
    assert main(["deform", ckpt, mesh, "--times", "0.5", "--steps", "0",
                 "--volume", vol, "--out-dir", out]) == 2


def test_deform_data_errors(tmp_path):
    gen = run_gen(tmp_path)
    fit_dir = run_fit(tmp_path, gen)
    mesh = str(gen / "mesh_000.obj")
    vol = str(gen / "volume.v4d")
    out = str(tmp_path / "x")
    assert main(["deform", str(tmp_path / "missing.ckpt"), mesh,
                 "--times", "0.5", "--volume", vol, "--out-dir", out]) == 3
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a checkpoint at all")
    assert main(["deform", str(garbage), mesh, "--times", "0.5",
                 "--volume", vol, "--out-dir", out]) == 3
    assert main(["deform", str(fit_dir / "model.ckpt"), str(tmp_path / "no.obj"),
                 "--times", "0.5", "--volume", vol, "--out-dir", out]) == 3


# ------------------------------------------------------------------- eval

def test_eval_writes_reports_and_plots(tmp_path, capsys):
    gen = run_gen(tmp_path)
    fit_dir = run_fit(tmp_path, gen)
    out = tmp_path / "eval"
    code = main(["eval", str(fit_dir / "model.ckpt"), str(gen / "volume.v4d"),
                 "--meshes", str(gen), "--no-psnr",
                 "--loss-csv", str(fit_dir / "loss.csv"),
                 "--out-dir", str(out)])
    assert code == 0
    for name in ("eval.csv", "eval_summary.json", "volume_curve.svg",
                 "loss_history.svg", "manifest.json"):
        assert (out / name).exists()
    assert "mean HSD" in capsys.readouterr().out
    rows = (out / "eval.csv").read_text().splitlines()
    assert rows[0] == "frame,t,hsd_mm,psnr_db,volume_mm3,gt_volume_mm3"
    assert len(rows) == 1 + 3
    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["frames"] == 3
    assert np.isfinite(summary["mean_hsd_mm"])


def test_eval_requires_mesh_directory(tmp_path):
    gen = run_gen(tmp_path)
    fit_dir = run_fit(tmp_path, gen)
    ckpt = str(fit_dir / "model.ckpt")
    vol = str(gen / "volume.v4d")
    assert main(["eval", ckpt, vol, "--out-dir", str(tmp_path / "x")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval", ckpt, vol, "--meshes", str(empty),
                 "--out-dir", str(tmp_path / "x")]) == 3


# ------------------------------------------------------------------ misc

def test_version_and_usage(capsys):
    assert main(["--version"]) == 0
    assert "cycleflow" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_out_dir_env_default(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("CYCLEFLOW_OUT", str(target))
    assert main(GEN_ARGS) == 0
    assert (target / "volume.v4d").exists()
