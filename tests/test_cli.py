"""End-to-end command-line runs: artifacts, manifests, and exit codes."""
import csv
import hashlib
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from cycleflow.cli import main
from cycleflow.field import save_checkpoint
from cycleflow.mesh import read_obj
from cycleflow.volume import read_v4d

from conftest import bias_model, rewrite_container, run_cli

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


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


@pytest.mark.parametrize("times", [["--times=-0"], ["--times=-1", "--wrap"]],
                         ids=["minus-zero", "wrapped-minus-one"])
def test_deform_writes_no_negative_zero_time(tmp_path, times):
    gen = run_gen(tmp_path)
    fit_dir = run_fit(tmp_path, gen)
    out = tmp_path / "def"
    assert main(["deform", str(fit_dir / "model.ckpt"), str(gen / "mesh_000.obj"),
                 "--volume", str(gen / "volume.v4d"), "--out-dir", str(out)]
                + times) == 0
    names = sorted(p.name for p in out.glob("deformed_*.obj"))
    assert names == ["deformed_000_t0.000000.obj"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [math.copysign(1.0, t) for t in manifest["config"]["times"]] == [1.0]


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


@pytest.mark.parametrize("rows", [
    [(1e17, 1e17, 1e17)] * 3,                    # flat far past the unit step
    [(0.0, 0.0, -1e308), (0.0, 0.0, 1e308)],     # a span past the float range
], ids=["flat-1e17", "span-2e308"])
def test_eval_plots_any_finite_loss_history(tmp_path, rows):
    gen = run_gen(tmp_path)
    ckpt = run_fit(tmp_path, gen) / "model.ckpt"
    loss_csv = tmp_path / "loss.csv"
    loss_csv.write_text("epoch,data_loss,cycle_loss,total_loss\n" + "".join(
        f"{e},{d!r},{c!r},{t!r}\n" for e, (d, c, t) in enumerate(rows)))
    out = tmp_path / "eval"
    proc = run_cli(["eval", ckpt, gen / "volume.v4d", "--meshes", gen,
                    "--no-psnr", "--loss-csv", loss_csv, "--out-dir", out])
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(out / "loss_history.svg") in manifest["outputs"]


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


# ------------------------------------------------ overflowing positions

@pytest.fixture(scope="module")
def phantom(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom") / "gen"
    assert main(["gen", "--grid", "12", "--frames", "3", "--radius", "3",
                 "--smoothing", "1", "--out-dir", str(out)]) == 0
    return out


def _refused_with_exit_4(proc, out):
    """The one error line of a run that exits 4 and writes nothing."""
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1, proc.stderr
    assert not out.exists()
    return errors[0]


# the bounds put the mesh's normalized seeds at about 1e38 (f32) or 1e307
# (f64), and the bias carries them past the dtype's maximum: with --steps 1
# on the one (last) step, with --steps 4 on a middle one
OVERFLOWING_STEPS = {
    f"deform-{name}-steps-{steps}": (dtype, bias, bounds, steps)
    for name, dtype, bias, bounds in [("f32", np.float32, 3.2e38, 8.5e-38),
                                      ("f64", np.float64, 1.7e308, 1.5e-307)]
    for steps in (1, 4)}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_STEPS) + ["eval-f32-max"])
def test_an_euler_position_that_overflows_the_model_dtype_exits_4(phantom, tmp_path,
                                                                  case):
    out, ckpt = tmp_path / "out", tmp_path / "model.ckpt"
    if case in OVERFLOWING_STEPS:
        dtype, bias, extent, steps = OVERFLOWING_STEPS[case]
        save_checkpoint(bias_model(bias, dtype), ckpt)
        argv = ["deform", ckpt, phantom / "mesh_000.obj", "--times", "1",
                f"--bounds=0,0,0,{extent},{extent},{extent}", "--steps", steps]
    else:
        save_checkpoint(bias_model(np.finfo(np.float32).max), ckpt)
        argv = ["eval", ckpt, phantom / "volume.v4d", "--meshes", phantom,
                "--steps-per-frame", "5"]
    line = _refused_with_exit_4(run_cli(argv + ["--out-dir", out]), out)
    assert "non-finite position at step" in line


@pytest.mark.parametrize("extra", [["--times", "1"], ["--times", "0.5", "--probes", "2"]],
                         ids=["mesh", "trajectory-only"])
def test_a_position_that_overflows_world_mm_exits_4(phantom, tmp_path, extra):
    # normalized positions reach 5e307 at t = 1, 2.5e307 at t = 0.5; the
    # 5.5 mm half extent takes only the first past float64 in world mm
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(bias_model(5e307, np.float64), ckpt)
    out = tmp_path / "out"
    proc = run_cli(["deform", ckpt, phantom / "mesh_000.obj", "--volume",
                    phantom / "volume.v4d", *extra, "--out-dir", out])
    assert "world mm" in _refused_with_exit_4(proc, out)


# ------------------------------------------------------------------ misc

def assert_out_dir_matches_manifest(out, inputs):
    """The out-dir holds exactly the manifest's outputs plus manifest.json,
    every hash matches its file, and the inputs are exactly ``inputs``."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(str(p) for p in out.iterdir()) == \
        sorted([*manifest["outputs"], str(out / "manifest.json")])
    assert sorted(manifest["inputs"]) == sorted(str(p) for p in inputs)
    for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
        assert sha256(path) == digest, path


def test_each_out_dir_holds_exactly_what_its_manifest_lists(tmp_path):
    gen = run_gen(tmp_path)
    assert_out_dir_matches_manifest(gen, [])
    vol, mesh = gen / "volume.v4d", gen / "mesh_000.obj"
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("cycle_weight = 0.5\n")
    fit_dir = run_fit(tmp_path, gen, extra=["--config", str(cfg)])
    assert_out_dir_matches_manifest(fit_dir, [vol, cfg])
    ckpt, loss_csv = fit_dir / "model.ckpt", fit_dir / "loss.csv"
    out = tmp_path / "def"
    assert main(["deform", str(ckpt), str(mesh), "--times", "0.25,0.75",
                 "--probes", "3", "--volume", str(vol), "--out-dir", str(out)]) == 0
    assert (out / "trajectories.csv").exists()
    assert_out_dir_matches_manifest(out, [ckpt, mesh, vol])
    out = tmp_path / "eval"
    assert main(["eval", str(ckpt), str(vol), "--meshes", str(gen),
                 "--loss-csv", str(loss_csv), "--out-dir", str(out)]) == 0
    assert (out / "loss_history.svg").exists()
    assert_out_dir_matches_manifest(
        out, [ckpt, vol, loss_csv, *(gen / f"mesh_{i:03d}.obj" for i in range(3))])


def test_deform_and_eval_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a 64-wide network on a 16^3 grid gives GEMMs large enough for
    # OpenBLAS to split them across threads
    gen = run_gen(tmp_path, extra=["--grid", "16"])
    fit_dir = run_fit(tmp_path, gen, extra=["--hidden-width", "64"])
    ckpt, vol = fit_dir / "model.ckpt", gen / "volume.v4d"
    commands = {"deform": ["deform", ckpt, gen / "mesh_000.obj", "--times",
                           "0.3,0.8", "--probes", "50", "--volume", vol],
                "eval": ["eval", ckpt, vol, "--meshes", gen]}
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        for name, argv in commands.items():
            proc = run_cli(argv + ["--out-dir", out / name],
                           env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
        digests.append({p.relative_to(out).as_posix(): sha256(p)
                        for p in out.rglob("*")
                        if p.is_file() and p.name != "manifest.json"})
    assert len(digests[0]) == 2 + 1 + 3  # 2 meshes, trajectories, eval's 3 files
    assert digests[0] == digests[1]


def test_psnr_eval_bytes_do_not_depend_on_blas_threads_or_hash_seed(tmp_path):
    # a 24^3 grid is one warp block of 13824 voxels, which the field runs
    # as two halves on two threads
    gen = run_gen(tmp_path, extra=["--grid", "24"])
    fit_dir = run_fit(tmp_path, gen, extra=["--hidden-width", "128"])
    digests = set()
    for threads, seed in itertools.product("12", "01"):
        out = tmp_path / f"eval-{threads}-{seed}"
        proc = run_cli(["eval", fit_dir / "model.ckpt", gen / "volume.v4d",
                        "--meshes", gen, "--out-dir", out],
                       env={"OPENBLAS_NUM_THREADS": threads, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        digests.add((sha256(out / "eval.csv"), sha256(out / "eval_summary.json")))
    with open(out / "eval.csv", newline="") as fh:
        psnrs = [float(row["psnr_db"]) for row in csv.DictReader(fh)]
    assert all(math.isfinite(p) for p in psnrs[1:])
    assert len(digests) == 1


def test_whole_chain_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # gen, fit, deform and eval each in a fresh process under two hash
    # seeds, into the same paths (fit_summary.json names the checkpoint)
    out = tmp_path / "chain"
    gen, fit = out / "gen", out / "fit"
    vol, ckpt = gen / "volume.v4d", fit / "model.ckpt"
    stages = [[*GEN_ARGS, "--out-dir", gen],
              ["fit", vol, *FIT_ARGS, "--out-dir", fit],
              ["deform", ckpt, gen / "mesh_000.obj", "--times", "0.3,0.8",
               "--probes", "5", "--volume", vol, "--out-dir", out / "deform"],
              ["eval", ckpt, vol, "--meshes", gen, "--loss-csv", fit / "loss.csv",
               "--out-dir", out / "eval"]]
    digests = []
    for seed in "01":
        for argv in stages:
            proc = run_cli(argv, env={"PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
        digests.append({p.relative_to(out).as_posix(): sha256(p)
                        for p in out.rglob("*")
                        if p.is_file() and p.name != "manifest.json"})
        shutil.rmtree(out)
    # gen 4, fit 3, deform 3, eval 4
    assert len(digests[0]) == 14
    assert digests[0] == digests[1]


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
