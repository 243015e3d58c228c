"""Input contract: every malformed file ends in a documented exit code (CLI)
or a FormatError / ValidationError (readers), never in a traceback."""
import contextlib
import io
import itertools
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycleflow.cli import main
from cycleflow.errors import FormatError, ValidationError
from cycleflow.field import init_weights, load_checkpoint, save_checkpoint
from cycleflow.mesh import read_obj, write_obj
from cycleflow.volume import Volume4D, read_v4d, write_v4d

from conftest import (BAD_CHECKPOINTS, BAD_MESHES, BAD_VOLUMES, make_cube_mesh,
                      rewrite_container)

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
    assert capsys.readouterr().err.startswith("error: ")


_LOSS_HEADER = b"epoch,data_loss,cycle_loss,total_loss\n"
BAD_LOSS_CSVS = {
    "wrong-columns": b"a,b\n1,2\n3,4\n",
    "empty": b"",
    "header-only": _LOSS_HEADER,
    "one-row": _LOSS_HEADER + b"0,1,2,3\n",
    "ragged": _LOSS_HEADER + b"0,1,2,3\n1,2\n",
    "not-a-number": _LOSS_HEADER + b"0,x,2,3\n1,2,3,4\n",
    "not-utf8": b"\xff\xfe,a\n",
}


@pytest.mark.parametrize("case", sorted(BAD_LOSS_CSVS))
def test_eval_rejects_a_malformed_loss_csv(good, tmp_path, case, capsys):
    loss_csv = tmp_path / "loss.csv"
    loss_csv.write_bytes(BAD_LOSS_CSVS[case])
    argv = _command("eval", good, tmp_path / "out") + ["--loss-csv", str(loss_csv)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


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
}


@pytest.mark.parametrize("case", sorted(BAD_OPTION_VALUES))
def test_cli_rejects_an_out_of_range_option(good, tmp_path, case, capsys):
    command, extra = BAD_OPTION_VALUES[case]
    assert main(_command(command, good, tmp_path / "out") + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("line", ["omega = nan", "learning_rate = inf",
                                  "cycle_weight = nan", "omega = 1e-40"])
def test_fit_rejects_a_non_finite_config_file_value(good, tmp_path, line, capsys):
    config = tmp_path / "fit.cfg"
    config.write_text(line + "\n")
    argv = _command("fit", good, tmp_path / "out") + ["--config", str(config)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------- fuzzing


def _valid_files(root):
    frames = np.random.default_rng(0).uniform(0, 1, (2, 3, 3, 3))
    write_v4d(Volume4D(frames, (1, 1, 1), (0, 0, 0), [0.0, 1.0]), root / "a.v4d")
    save_checkpoint(init_weights(1, [5, 4, 3], omega=6.0), root / "a.ckpt")
    write_obj(make_cube_mesh(), root / "a.obj")
    return {read_v4d: root / "a.v4d", load_checkpoint: root / "a.ckpt",
            read_obj: root / "a.obj"}


@pytest.mark.parametrize("reader", [read_v4d, load_checkpoint, read_obj],
                         ids=["v4d", "ckpt", "obj"])
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
