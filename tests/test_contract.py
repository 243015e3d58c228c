"""Input contract: every malformed file or option value ends in a documented
exit code (CLI) or a FormatError / ValidationError (readers), never in a
traceback, and a run that succeeds writes only readable, finite numbers."""
import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import shutil
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycleflow.cli import _bounds_from_args, _parse_times, main
from cycleflow.container import write_container
from cycleflow.errors import ConfigError, FormatError, ValidationError
from cycleflow.field import (CHECKPOINT_MAGIC, VelocityFieldModel, init_weights,
                             load_checkpoint, save_checkpoint)
from cycleflow.mesh import icosphere, read_obj, write_obj
from cycleflow.training import FitConfig, load_fit_config
from cycleflow.volume import V4D_MAGIC, Volume4D, read_v4d, read_v4d_grid, write_v4d

from conftest import (BAD_CHECKPOINTS, BAD_MESHES, BAD_VOLUMES, CHILD_ADDRESS_CAP,
                      make_cube_mesh, rewrite_container, run_cli)

GEN_ARGS = ["gen", "--grid", "12", "--frames", "3", "--spacing", "1.0",
            "--radius", "3.0", "--amplitude", "0.5"]
FIT_ARGS = ["--epochs", "1", "--points", "8", "--hidden-width", "8",
            "--hidden-layers", "2"]


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A generated volume with its meshes and a checkpoint fitted to it."""
    root = tmp_path_factory.mktemp("good")
    assert main(GEN_ARGS + ["--out-dir", str(root / "gen")]) == 0
    assert main(["fit", str(root / "gen" / "volume.v4d")] + FIT_ARGS
                + ["--out-dir", str(root / "fit")]) == 0
    return {"v4d": root / "gen" / "volume.v4d", "ckpt": root / "fit" / "model.ckpt",
            "meshes": root / "gen"}


def _command(command, files, out):
    """Arguments of one subcommand that reads the given input files."""
    v4d, ckpt, meshes = files["v4d"], files["ckpt"], files["meshes"]
    deform = ["deform", ckpt, meshes / "mesh_000.obj", "--times", "0.5"]
    args = {
        "gen": GEN_ARGS,
        "fit": ["fit", v4d] + FIT_ARGS,
        "deform": deform + ["--volume", v4d],
        "deform-bounds": deform + ["--bounds", "0,0,0,11,11,11"],
        "eval": ["eval", ckpt, v4d, "--meshes", meshes, "--no-psnr"],
    }[command]
    return [str(a) for a in args] + ["--out-dir", str(out)]


CASES = ([("v4d", c, cmd) for c in sorted(BAD_VOLUMES) for cmd in ("fit", "deform", "eval")]
         + [("ckpt", c, cmd) for c in sorted(BAD_CHECKPOINTS) for cmd in ("deform", "eval")]
         + [("obj", c, cmd) for c in sorted(BAD_MESHES) for cmd in ("deform", "eval")])


@pytest.mark.parametrize("kind,case,command", CASES)
def test_cli_rejects_malformed_input_with_an_exit_code(good, tmp_path, kind, case,
                                                       command, capsys):
    files = dict(good)
    if kind == "obj":
        files["meshes"] = tmp_path / "meshes"
        shutil.copytree(good["meshes"], files["meshes"])
        (files["meshes"] / "mesh_000.obj").write_bytes(BAD_MESHES[case])
    else:
        bad = {"v4d": BAD_VOLUMES, "ckpt": BAD_CHECKPOINTS}[kind][case]
        files[kind] = rewrite_container(good[kind], tmp_path / f"bad.{kind}", **bad)
    assert main(_command(command, files, tmp_path / "out")) == 3
    # a command reads several files, so its error names the bad one
    name = files["meshes"] / "mesh_000.obj" if kind == "obj" else files[kind]
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}:") and err.count("\n") == 1
    assert "period" not in case or "bad header value period=" in err


_LOSS_HEADER = b"epoch,data_loss,cycle_loss,total_loss\n"
# case -> (the line its error names, the file)
BAD_LOSS_CSVS = {
    "wrong-columns": (1, b"a,b\n1,2\n3,4\n"),
    "empty": (1, b""),
    "header-only": (1, _LOSS_HEADER),
    "one-row": (2, _LOSS_HEADER + b"0,1,2,3\n"),
    "ragged": (3, _LOSS_HEADER + b"0,1,2,3\n1,2\n"),
    "extra-column": (3, _LOSS_HEADER + b"0,1,2,3\n1,2,3,4,5\n"),
    "comment-before-header": (1, b"# losses\n" + _LOSS_HEADER + b"0,1,2,3\n1,2,3,4\n"),
    "not-a-number": (2, _LOSS_HEADER + b"0,x,2,3\n1,2,3,4\n"),
    "not-finite": (3, _LOSS_HEADER + b"0,1,2,3\n1,2,inf,4\n"),
    "not-utf8": (1, b"\xff\xfe,a\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_LOSS_CSVS))
def test_eval_rejects_a_malformed_loss_csv(good, tmp_path, case, capsys):
    line, data = BAD_LOSS_CSVS[case]
    loss_csv = tmp_path / "loss.csv"
    loss_csv.write_bytes(data)
    argv = _command("eval", good, tmp_path / "out") + ["--loss-csv", str(loss_csv)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {loss_csv}:{line}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("missing", ["mesh-000", "directory"])
def test_eval_without_a_frame_0_mesh_names_the_file_it_looked_for(good, tmp_path,
                                                               missing, capsys):
    meshes = tmp_path / "meshes"
    if missing == "mesh-000":
        shutil.copytree(good["meshes"], meshes)
        (meshes / "mesh_000.obj").unlink()
    assert main(_command("eval", dict(good, meshes=meshes), tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(meshes / "mesh_000.obj") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_a_step_count_too_fine_for_a_frame_gap_exits_2(good, tmp_path, command, capsys):
    # two steps from t = 0 to t = 5e-324 are each 0 long
    v4d = tmp_path / "tiny-gap.v4d"
    write_v4d(Volume4D(np.zeros((3, 8, 8, 8), np.float32), (1, 1, 1), (0, 0, 0),
                       [0.0, 5e-324, 1.0]), v4d)
    args = {"fit": ["fit", v4d] + FIT_ARGS,
            "eval": ["eval", good["ckpt"], v4d, "--meshes", good["meshes"], "--no-psnr"]}
    out = tmp_path / "out"
    argv = [str(a) for a in args[command]] + ["--steps-per-frame", "2", "--out-dir", str(out)]
    assert main(argv) == 2
    out_text, err = capsys.readouterr()
    assert err.startswith("error: step times are not strictly monotonic") and \
        err.count("\n") == 1, err
    assert out_text == ""  # fit refuses the grid before it prints its config
    assert not out.exists()


def test_fit_refuses_a_step_grid_no_array_can_hold_before_it_prints(good, tmp_path,
                                                                    capsys):
    out = tmp_path / "out"
    argv = [str(a) for a in ("fit", good["v4d"], *FIT_ARGS, "--steps-per-frame",
                             np.iinfo(np.intp).max, "--out-dir", out)]
    assert main(argv) == 2
    out_text, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out_text == ""
    assert not out.exists()


@pytest.mark.parametrize("wrap", [[], ["--wrap"]], ids=["plain", "wrap"])
@pytest.mark.parametrize("time", ["inf", "-inf", "nan"])
def test_deform_rejects_a_non_finite_time(good, tmp_path, time, wrap, capsys):
    # "--times=-inf", or argparse would read "-inf" as an option
    argv = [str(a) for a in ("deform", good["ckpt"], good["meshes"] / "mesh_000.obj",
                             f"--times={time}", "--volume", good["v4d"],
                             "--out-dir", tmp_path)]
    assert main(argv + wrap) == 2
    assert capsys.readouterr().err.startswith("error: ")


BAD_OPTION_VALUES = {
    "fit-negative-seed": ("fit", ["--seed=-1"]),
    "eval-zero-steps-per-frame": ("eval", ["--steps-per-frame=0"]),
    "deform-negative-probes": ("deform", ["--probes=-3"]),
    "fit-nan-omega": ("fit", ["--omega=nan"]),
    "fit-inf-omega": ("fit", ["--omega=inf"]),
    "fit-nan-learning-rate": ("fit", ["--learning-rate=nan"]),
    "fit-inf-cycle-weight": ("fit", ["--cycle-weight=inf"]),
    "fit-nan-cycle-weight": ("fit", ["--cycle-weight=nan"]),
    "gen-nan-radius": ("gen", ["--radius=nan"]),
    "gen-nan-spacing": ("gen", ["--spacing=nan"]),
    "gen-nan-smoothing": ("gen", ["--smoothing=nan"]),
    "gen-nan-linear-rate": ("gen", ["--pattern=linear", "--rate=nan"]),
    "gen-overflowing-exponential-rate": ("gen", ["--pattern=exponential", "--rate=800"]),
    "gen-underflowing-exponential-rate": ("gen", ["--pattern=exponential",
                                                  "--rate=-800"]),
    "fit-omega-overflowing-f32-init": ("fit", ["--omega=1e-40"]),
    "fit-omega-overflowing-init": ("fit", ["--omega=5e-324"]),
    "fit-omega-overflowing-f64-init": ("fit", ["--omega=5e-309", "--precision=f64"]),
    "deform-inf-bounds": ("deform-bounds", ["--bounds=0,0,0,inf,inf,inf"]),
    "deform-overflowing-bounds": (
        "deform-bounds", ["--bounds=-1e308,-1e308,-1e308,1e308,1e308,1e308"]),
    "gen-one-frame": ("gen", ["--frames=1"]),
    "gen-one-voxel-grid": ("gen", ["--grid=1"]),
    "gen-zero-spacing": ("gen", ["--spacing=0"]),
    "gen-negative-smoothing": ("gen", ["--smoothing=-2"]),
    "gen-negative-radius": ("gen", ["--radius=-1"]),
    "gen-nan-periodic-amplitude": ("gen", ["--pattern=periodic", "--amplitude=nan"]),
    "deform-zero-steps": ("deform", ["--steps=0"]),
    "deform-underflowing-bounds": ("deform-bounds", ["--bounds=0,0,0,5e-324,5e-324,5e-324"]),
    "fit-oversize-hidden-width": ("fit", ["--hidden-width=" + "9" * 400]),
    "fit-oversize-points": ("fit", ["--points=" + "9" * 400]),
    "deform-oversize-steps": ("deform", ["--steps=" + "9" * 400]),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTION_VALUES))
def test_cli_rejects_an_out_of_range_option(good, tmp_path, case, capsys):
    command, extra = BAD_OPTION_VALUES[case]
    assert main(_command(command, good, tmp_path / "out") + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [["--spacing=1e300"],
                                   ["--radius=1e-300", "--smoothing=1e-300",
                                    "--amplitude=0"]],
                         ids=["overflowing-spacing", "sub-voxel-sphere"])
def test_gen_refuses_a_blank_phantom(good, tmp_path, extra, capsys):
    out = tmp_path / "out"
    assert main(_command("gen", good, out) + extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("spacing", ["1e308", "5e-324"])
def test_a_volume_whose_world_bounds_overflow_is_a_data_error(good, tmp_path,
                                                              spacing, capsys):
    bad = rewrite_container(good["v4d"], tmp_path / "bad.v4d",
                            header=lambda h: {**h, "spacing_mm": [float(spacing), 1, 1]})
    for command in ("deform", "eval"):
        out = tmp_path / command
        assert main(_command(command, {**good, "v4d": bad}, out)) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_gen_with_a_subnormal_smoothing_writes_a_hard_mask(tmp_path):
    # the ramp (r + w/2 - dist) / w overflows for w = 5e-324; the clip takes
    # it to the 0/1 limit of a vanishing ramp, with no warning
    out = tmp_path / "out"
    assert main(["gen", "--grid", "8", "--frames", "3", "--radius", "1.5",
                 "--amplitude", "0.4", "--smoothing", "5e-324",
                 "--out-dir", str(out)]) == 0
    frames = read_v4d(out / "volume.v4d").frames
    assert np.isin(frames, [0.0, 1.0]).all()


def test_gen_reports_a_huge_radius_in_a_short_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen", "--radius", "1e308", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()[0]) < 200
    assert not out.exists()


def _far_mesh_dir(good, tmp_path, x="1e300"):
    meshes = tmp_path / "meshes"
    shutil.copytree(good["meshes"], meshes)
    obj = meshes / "mesh_000.obj"
    lines = obj.read_text().splitlines(keepends=True)
    obj.write_text(f"v {x} 0 0\n" + "".join(lines[1:]))
    return meshes


# a normalized seed past ~3.4e38 is inf in a float32 model, and one past
# ~1.8e308 is inf in float64 already
FAR_SEEDS = {
    "deform-tiny-bounds": ["--bounds=0,0,0,1e-300,1e-300,1e-300"],
    "deform-probes-at-time-zero": ["--times=0", "--probes=1",
                                   "--bounds=0,0,0,10,10,1e-300"],
    "deform-subnormal-bounds": ["--bounds=0,0,0,10,10,5e-323"],
}


@pytest.mark.parametrize("case", sorted(FAR_SEEDS) + ["eval-far-vertex"])
def test_seeds_overflowing_the_model_dtype_are_a_data_error(good, tmp_path, case,
                                                            capsys):
    out = tmp_path / "out"
    if case in FAR_SEEDS:
        argv = _command("deform-bounds", good, out) + FAR_SEEDS[case]
    else:
        argv = _command("eval", {**good, "meshes": _far_mesh_dir(good, tmp_path)},
                        out)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def f64_ckpt(good, tmp_path_factory):
    """A float64 checkpoint, whose seeds do not overflow before 1e308."""
    out = tmp_path_factory.mktemp("f64")
    assert main(["fit", str(good["v4d"]), "--epochs", "1", "--points", "8",
                 "--hidden-width", "16", "--hidden-layers", "1",
                 "--precision", "f64", "--out-dir", str(out)]) == 0
    return out / "model.ckpt"


@pytest.mark.parametrize("case", ["vertex-1e200", "vertex-1e80", "wide-volume"])
def test_eval_refuses_mesh_coordinates_that_overflow_hausdorff(good, f64_ckpt, tmp_path,
                                                               case, capsys):
    # Hausdorff's barycentric terms are fourth powers of the coordinates; a
    # 1e90 mm voxel spacing carries the deformed mesh that far out
    files = {**good, "ckpt": f64_ckpt}
    if case == "wide-volume":
        files["v4d"] = rewrite_container(
            good["v4d"], tmp_path / "wide.v4d",
            header=lambda h: {**h, "spacing_mm": [1e90, 1, 1]})
    else:
        files["meshes"] = _far_mesh_dir(good, tmp_path, case.split("-")[1])
    out = tmp_path / "out"
    assert main(_command("eval", files, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["omega = nan", "learning_rate = inf",
                                  "cycle_weight = nan", "omega = 1e-40"])
def test_fit_rejects_a_non_finite_config_file_value(good, tmp_path, line, capsys):
    config = tmp_path / "fit.cfg"
    config.write_text(line + "\n")
    argv = _command("fit", good, tmp_path / "out") + ["--config", str(config)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_fit_refuses_a_config_file_that_is_not_utf8(good, tmp_path, capsys):
    config = tmp_path / "fit.cfg"
    config.write_bytes(b"epochs = 2\n\xff\n")
    out = tmp_path / "out"
    assert main(_command("fit", good, out) + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(config) in err and "UTF-8" in err
    assert not out.exists()


# the first four ask NumPy for far more than the child's 4 GiB address space:
# 74.5 GiB, 745 GiB, 21.8 TiB and 37.3 GiB in its first large allocation; the
# rest ask for more Euler step times than any array can hold, in step counts
# that wrap int64 or overflow its cast
_EVAL = ["eval", "{ckpt}", "{v4d}", "--meshes", "{meshes}", "--no-psnr"]
_DEFORM = ["deform", "{ckpt}", "{mesh}", "--volume", "{v4d}"]
OVERSIZE = {
    "gen-grid": ["gen", "--grid", "100000", "--frames", "2"],
    "gen-frames": ["gen", "--grid", "12", "--frames", "100000000000"],
    "fit-points": ["fit", "{v4d}", "--points", "1000000000000"],
    "fit-hidden-width": ["fit", "{v4d}", "--hidden-width", "1000000000"],
    "fit-steps-per-frame": ["fit", "{v4d}", "--steps-per-frame", "9223372036854775807"],
    "eval-steps-per-frame": _EVAL + ["--steps-per-frame", "9223372036854775807"],
    "eval-400-digit-steps-per-frame": _EVAL + ["--steps-per-frame", "9" * 400],
    "deform-steps": _DEFORM + ["--times", "0.5", "--steps", "4611686018427387904"],
    "deform-steps-past-the-cast": _DEFORM + ["--times", "1", "--steps",
                                             "9223372036854775807"],
    "deform-probe-steps": _DEFORM + ["--times", "0", "--steps", "9223372036854775807",
                                     "--probes", "1"],
    "deform-probe-steps-too-big": _DEFORM + ["--times", "0", "--steps",
                                             "4611686018427387904", "--probes", "1"],
}


@pytest.mark.parametrize("case", sorted(OVERSIZE))
def test_an_oversize_request_exits_2_with_one_error_line(good, tmp_path, case):
    out = tmp_path / "out"
    files = {"{v4d}": good["v4d"], "{ckpt}": good["ckpt"], "{meshes}": good["meshes"],
             "{mesh}": good["meshes"] / "mesh_000.obj"}
    argv = [str(files.get(a, a)) for a in OVERSIZE[case]]
    proc = run_cli(argv + ["--out-dir", out])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: the options ask for more memory than is available\n"
    assert not out.exists()


# a bad header field over the sparse payload that the rest of the header
# implies, past the child's 4 GiB address space: 4.4 GB of weights for a
# 5-33000-33000-3 checkpoint, 8 GiB of voxels for 2 frames of 1024^3
SPARSE = {
    "ckpt": (CHECKPOINT_MAGIC, {"layer_sizes": [5, 33000, 33000, 3], "omega": "six",
                                "period": 1.0, "time_encoding": True,
                                "endian": "little", "dtype": "f32le"},
             4 * (6 * 33000 + 33001 * 33000 + 33001 * 3), "bad header value omega"),
    "v4d": (V4D_MAGIC, {"shape": [1024, 1024, 1024], "spacing_mm": [-1, 1, 1],
                        "origin_mm": [0, 0, 0], "frame_times": [0.0, 1.0],
                        "dtype": "f32le"}, 4 * 2 * 1024 ** 3, "spacing"),
}


@pytest.mark.parametrize("kind,command", [("ckpt", "deform"), ("v4d", "fit"),
                                          ("v4d", "deform")])
def test_a_bad_header_over_a_huge_payload_exits_3_naming_its_field(good, tmp_path,
                                                                   kind, command):
    magic, header, payload, field = SPARSE[kind]
    assert payload > CHILD_ADDRESS_CAP
    path = tmp_path / f"huge.{kind}"
    write_container(path, magic, header, [])
    os.truncate(path, path.stat().st_size + payload)  # sparse: no block written
    proc = run_cli(_command(command, {**good, kind: path}, tmp_path / "out"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: {path}: {field}")


# ---------------------------------------------------------------- fuzzing


_KEYS = st.sampled_from([f.name for f in fields(FitConfig)])
_VALUES = st.sampled_from(["2", "0", "-1", "1_0", "\u0663", "3e-5", "1e-320", "nan",
                           "inf", "on", "off", "band", "f64", "", "1" + "0" * 30])
_CONFIG_LINES = st.one_of(
    st.builds(lambda k, v: f"{k} = {v}".encode(), _KEYS, _VALUES),
    st.binary(max_size=24),  # mostly not UTF-8
    st.builds(lambda k, n: f"{k} = ".encode() + b"9" * n, _KEYS,
              st.integers(4000, 20000)),  # long lines, past int()'s digit limit
    st.builds(lambda n: b"# " + b"x" * n, st.integers(0, 20000)),
    st.sampled_from([b"\x00", b"epochs = 2\x00", b"# \xff\xfe", b"epochs = 2 # \xc3",
                     b"\xef\xbb\xbfepochs = 2", b"=", b"epochs"]),
)
_CONFIG_FILES = st.lists(
    st.tuples(_CONFIG_LINES, st.sampled_from([b"\n", b"\r", b"\r\n", b""])),
    max_size=6).map(lambda pairs: b"".join(line + end for line, end in pairs))


def test_config_file_bytes_load_or_refuse_cleanly(tmp_path):
    path = tmp_path / "fit.cfg"

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_CONFIG_FILES)
    def load(data):
        path.write_bytes(data)
        try:
            assert isinstance(load_fit_config(path), FitConfig)
        except ConfigError:
            pass

    load()


# one field of a --times or --bounds value: numbers in and out of range,
# the spellings int() and float() accept (1_0, non-ASCII digits, padding),
# non-finite values and free text
_FIELDS = st.one_of(
    st.sampled_from(["", " ", "0", "1", "-0.0", "0.25", " 0.5\t", "2", "-1",
                     "1_0", "0_5", "\u0663", "\uff10.\uff15", "\u0660.\u0665",
                     "nan", "-nan", "inf", "1e999", "-1e999", "1e-400", "5e-324",
                     "1e308", "-1e308", "0x1", "1,0", "--", "1e", "\x00"]),
    st.floats().map(repr),
    st.text(max_size=6))
# six fields, low corner first, so that some draws make valid bounds
_CORNERS = st.tuples(
    st.lists(st.sampled_from(["-1", " -0.5", "0", "-0.0", "-1e308", "-1_0"]),
             min_size=3, max_size=3),
    st.lists(st.sampled_from(["1_0", "\u0663", "\uff11\uff12 ", "0.5", "1e308",
                              "1e999", "nan", "0"]), min_size=3, max_size=3))
_FIELD_LISTS = st.one_of(st.lists(_FIELDS, max_size=8),
                         _CORNERS.map(lambda c: c[0] + c[1])).map(",".join)


def test_times_and_bounds_strings_parse_or_refuse_cleanly():
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_FIELD_LISTS, st.booleans())
    def parse(spec, wrap):
        try:
            times = _parse_times(spec, wrap)
        except ConfigError:
            pass
        else:
            assert times and all(0.0 <= t <= 1.0 for t in times)
        try:
            bounds = _bounds_from_args(argparse.Namespace(volume=None, bounds=spec))
        except ConfigError:
            pass
        else:
            assert np.all(bounds.half > 0) and np.isfinite(bounds.center).all()

    parse()


def _valid_files(root):
    frames = np.random.default_rng(0).uniform(0, 1, (2, 3, 3, 3))
    write_v4d(Volume4D(frames, (1, 1, 1), (0, 0, 0), [0.0, 1.0]), root / "a.v4d")
    save_checkpoint(init_weights(1, [5, 4, 3], omega=6.0), root / "a.ckpt")
    write_obj(make_cube_mesh(), root / "a.obj")
    return {read_v4d: root / "a.v4d", read_v4d_grid: root / "a.v4d",
            load_checkpoint: root / "a.ckpt", read_obj: root / "a.obj"}


def _v4d_outcome(reader, path):
    """A V4D reader's grid fields, or its error class and message."""
    try:
        vol = reader(path)
    except (FormatError, ValidationError) as exc:
        return type(exc), str(exc)
    return vol.grid_shape, vol.spacing, vol.origin, vol.frame_times.tolist()


@pytest.mark.parametrize("reader", [read_v4d, read_v4d_grid, load_checkpoint, read_obj],
                         ids=["v4d", "v4d-grid", "ckpt", "obj"])
def test_single_byte_mutations_are_read_or_rejected(tmp_path_factory, reader):
    root = tmp_path_factory.mktemp(reader.__name__)
    source = _valid_files(root)[reader]
    original = source.read_bytes()
    mutant = root / ("mutant" + source.suffix)

    # half the replacement bytes come from the file itself (digits, brackets,
    # separators), which reach the semantic checks more often than noise
    byte = st.one_of(st.sampled_from(sorted(set(original))), st.integers(0, 255))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, len(original) - 1), byte)
    def mutate_and_read(pos, byte):
        mutant.write_bytes(original[:pos] + bytes([byte]) + original[pos + 1:])
        if reader is read_v4d_grid:  # the same grid, or the same first error
            assert _v4d_outcome(reader, mutant) == _v4d_outcome(read_v4d, mutant)
            return
        try:
            reader(mutant)
        except (FormatError, ValidationError):
            pass

    mutate_and_read()


# each gen float option takes a value from its working range (two times in
# three, so that some draws pass) or a wild finite one
_GEN_FLOATS = {"radius": (0.5, 2.0), "spacing": (0.5, 2.0), "rate": (-0.5, 0.5),
               "amplitude": (0.0, 0.4), "smoothing": (0.5, 2.0)}
_WILD = st.one_of(st.sampled_from([1e308, -1e308, 1e-300, 5e-324, -0.0]),
                  st.floats(allow_nan=False, allow_infinity=False))


def test_gen_writes_readable_files_or_refuses_cleanly(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen")
    runs = itertools.count()

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(["linear", "exponential", "periodic"]),
           st.fixed_dictionaries({k: st.one_of(st.floats(*r), st.floats(*r), _WILD)
                                  for k, r in _GEN_FLOATS.items()}))
    def gen(pattern, values):
        out = root / str(next(runs))
        argv = ["gen", "--grid", "8", "--frames", "3", "--pattern", pattern,
                "--out-dir", str(out)] + [f"--{k}={v!r}" for k, v in values.items()]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert read_v4d(out / "volume.v4d").n_frames == 3
            assert len([read_obj(p) for p in out.glob("*.obj")]) == 3
        else:
            assert code in (2, 3), err.getvalue()
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()
            assert not out.exists()

    gen()


def _csv_numbers(path, allow_nan=()):
    """Every cell of a CSV file as a float; NaN only in the named columns."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        for key, cell in row.items():
            value = float(cell)
            assert math.isfinite(value) or (key in allow_nan and math.isnan(value)), \
                (path.name, key, cell)


def _json_numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _json_numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _json_numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _check_outputs(out, allow_nan=()):
    """Every file a successful run left is readable and holds finite numbers
    (load_checkpoint refuses non-finite weights)."""
    for path in out.iterdir():
        if path.suffix == ".obj":
            read_obj(path)
        elif path.suffix == ".ckpt":
            load_checkpoint(path)
        elif path.suffix == ".csv":
            _csv_numbers(path, allow_nan)
        elif path.suffix == ".json":
            data = json.loads(path.read_text())
            assert all(math.isfinite(v) for v in _json_numbers(data)), path.name
            assert not any(v in ("nan", "inf", "-inf") for v in data.values()), path.name
        else:
            assert path.suffix == ".svg", path.name
            text = path.read_text()
            assert "nan" not in text and "inf" not in text, path.name


def _run(argv, out, allow_nan=()):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv] + ["--out-dir", str(out)])
    if code == 0:
        _check_outputs(out, allow_nan)
    else:
        assert code in (2, 3, 4), err.getvalue()
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
        assert not out.exists()


def _mostly(lo, hi):
    """A float from [lo, hi] seven times in eight, else a wild finite one."""
    return st.integers(0, 7).flatmap(lambda k: st.floats(lo, hi) if k else _WILD)


# the fixture's meshes lie inside 2..9 mm on every axis: bounds drawn from
# these ranges hold them, wild ones mostly do not
_LO, _HI = _mostly(-2.0, 1.0), _mostly(10.0, 14.0)


def _up_to_max(dtype):
    """(dtype, value): a signed fraction of the dtype's largest finite value."""
    top = float(np.finfo(dtype).max)
    return st.tuples(st.just(dtype), st.builds(lambda sign, f: sign * f * top,
                                               st.sampled_from([1.0, -1.0]),
                                               st.floats(0.0, 1.0)))


# the checkpoint's output-layer bias: the fixture's own three times in four,
# else one of any magnitude up to the f32 or the f64 maximum, in that dtype
_BIASES = st.integers(0, 3).flatmap(
    lambda k: st.none() if k else st.one_of(_up_to_max(np.float32),
                                            _up_to_max(np.float64)))


def _with_bias(ckpt, bias, path):
    """ckpt, or for a drawn bias a copy at path in the bias's dtype, whose
    output layer adds that value to every velocity component."""
    if bias is None:
        return ckpt
    dtype, value = bias
    model = load_checkpoint(ckpt)
    weights = [w.value.astype(dtype) for w in model.weights]
    biases = [b.value.astype(dtype) for b in model.biases]
    biases[-1][:] = value
    save_checkpoint(VelocityFieldModel(weights, biases, model.omega, model.time_encoding),
                    path)
    return path


def test_deform_writes_readable_files_or_refuses_cleanly(good, tmp_path_factory):
    root = tmp_path_factory.mktemp("deform")
    runs = itertools.count()

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.lists(_mostly(0.0, 1.0), min_size=1, max_size=3), st.booleans(),
           st.lists(_LO, min_size=3, max_size=3), st.lists(_HI, min_size=3, max_size=3),
           st.integers(1, 8), st.integers(0, 5), _BIASES)
    def deform(times, wrap, lo, hi, steps, probes, bias):
        run = next(runs)
        ckpt = _with_bias(good["ckpt"], bias, root / f"model{run}.ckpt")
        argv = ["deform", ckpt, good["meshes"] / "mesh_000.obj",
                "--times=" + ",".join(map(repr, times)),
                "--bounds=" + ",".join(map(repr, lo + hi)),
                "--steps", steps, "--probes", probes] + (["--wrap"] if wrap else [])
        _run(argv, root / str(run))

    deform()


def test_eval_writes_readable_files_or_refuses_cleanly(good, tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    runs = itertools.count()
    # 162-vertex spheres keep each example short; a scale that collapses
    # mesh_000 to a point puts every triangle in every ball query, and the
    # Hausdorff early exit then refines about one block of vertices, not V*F
    # pairs, per direction
    sphere = icosphere(3.0, center=(5.5, 5.5, 5.5), subdivisions=2)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 3), _mostly(0.5, 2.0), _mostly(-2.0, 2.0), _BIASES)
    def evaluate(steps_per_frame, scale, shift, bias):
        run = next(runs)
        ckpt = _with_bias(good["ckpt"], bias, root / f"model{run}.ckpt")
        meshes = root / f"meshes{run}"
        meshes.mkdir()
        for i in (1, 2):
            write_obj(sphere, meshes / f"mesh_{i:03d}.obj")
        with np.errstate(over="ignore", invalid="ignore"):
            vertices = (sphere.vertices - 5.5) * scale + 5.5 + shift
        with open(meshes / "mesh_000.obj", "w") as fh:
            fh.writelines(f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in vertices)
            fh.writelines(f"f {a} {b} {c}\n" for a, b, c in sphere.faces + 1)
        argv = ["eval", ckpt, good["v4d"], "--meshes", meshes,
                "--no-psnr", "--steps-per-frame", steps_per_frame]
        _run(argv, root / str(run), allow_nan=("psnr_db",))

    evaluate()


def test_fit_writes_readable_files_or_refuses_cleanly(tmp_path_factory):
    root = tmp_path_factory.mktemp("fit")
    assert main(["gen", "--grid", "8", "--frames", "3", "--radius", "1.5",
                 "--amplitude", "0.4", "--out-dir", str(root / "gen")]) == 0
    runs = itertools.count()
    # the float options range over every finite float; the sizes stay small,
    # since a run costs time in proportion to them
    floats = {k: st.one_of(st.floats(*r), _WILD) for k, r in
              {"learning-rate": (1e-5, 1e-2), "omega": (1.0, 30.0),
               "cycle-weight": (0.0, 4.0)}.items()}

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.fixed_dictionaries(floats), st.integers(1, 2), st.integers(1, 200),
           st.integers(1, 16), st.integers(1, 2), st.sampled_from(["f32", "f64"]))
    def fit(values, epochs, points, width, layers, precision):
        argv = ["fit", root / "gen" / "volume.v4d", "--epochs", epochs,
                "--points", points, "--hidden-width", width, "--hidden-layers", layers,
                "--precision", precision] + [f"--{k}={v!r}" for k, v in values.items()]
        _run(argv, root / str(next(runs)))

    fit()
