"""Input contract: every malformed file ends in a documented exit code (CLI)
or a FormatError / ValidationError (readers), never in a traceback."""
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
    args = {
        "fit": ["fit", v4d] + FIT_ARGS,
        "deform": ["deform", ckpt, meshes / "mesh_000.obj", "--times", "0.5",
                   "--volume", v4d],
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
