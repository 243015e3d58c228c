"""The three benchmark workloads, as ``cycleflow`` command lines.

Every workload starts from the acceptance phantom that ``cycleflow gen``
makes (periodic pattern, radius 19 mm, amplitude 0.75 mm, smoothing 4 mm,
48^3 grid at 1 mm).  The workload seed is the ``fit --seed`` of both the
set-up checkpoint and the timed fit.  RATIONALE.md says why each workload
exists and which layers it loads.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

PHANTOM = ["--pattern", "periodic", "--radius", "19", "--amplitude", "0.75",
           "--smoothing", "4.0", "--grid", "48", "--spacing", "1"]

# acceptance configuration: 3x128 SIREN, 2000 band points, cycle penalty on
FIT = ["--hidden-layers", "3", "--hidden-width", "128", "--points", "2000",
       "--sampling", "band", "--cycle", "on", "--cycle-weight", "2.0",
       "--learning-rate", "3e-5", "--omega", "6"]

FIT_EPOCHS = 10     # one timed fit on fit-accept
SETUP_EPOCHS = 4    # the checkpoint the deform/eval workloads score
DEFORM_STEPS = 24   # Euler steps per unit time, one per frame interval
BRUTE_PAIR = 12     # deformed/ground-truth frame checked against brute force


@dataclass(frozen=True)
class Workload:
    """Set-up and timed stages of one workload."""

    name: str
    frames: int          # frames of the generated phantom
    setup_fit: bool      # set-up also fits the checkpoint
    gt_frames: tuple     # ground-truth meshes handed to eval
    stages: tuple        # timed CLI stages, run in this order
    psnr: bool = False   # eval scores the warped image too

    def setup_argv(self, rep_dir, seed):
        """CLI command lines of one set-up repetition, in order."""
        phantom = os.path.join(rep_dir, "phantom")
        cmds = [["gen", *PHANTOM, "--frames", str(self.frames),
                 "--out-dir", phantom]]
        if self.setup_fit:
            cmds.append(["fit", os.path.join(phantom, "volume.v4d"), *FIT,
                         "--epochs", str(SETUP_EPOCHS), "--seed", str(seed),
                         "--out-dir", os.path.join(rep_dir, "fit")])
        return cmds

    def stage_argv(self, stage, setup_dir, out_dir, seed):
        """CLI command line of one timed stage, reading set-up artifacts."""
        phantom = os.path.join(setup_dir, "phantom")
        volume = os.path.join(phantom, "volume.v4d")
        ckpt = os.path.join(setup_dir, "fit", "model.ckpt")
        if stage == "fit":
            return ["fit", volume, *FIT, "--epochs", str(FIT_EPOCHS),
                    "--seed", str(seed), "--out-dir", out_dir]
        if stage == "deform":
            times = ",".join(repr(i / DEFORM_STEPS)
                             for i in range(1, self.frames))
            return ["deform", ckpt, os.path.join(phantom, "mesh_000.obj"),
                    "--times", times, "--steps", str(DEFORM_STEPS),
                    "--probes", "50", "--volume", volume, "--out-dir", out_dir]
        if stage == "eval":
            argv = ["eval", ckpt, volume, "--meshes",
                    os.path.join(setup_dir, "gt"), "--out-dir", out_dir]
            return argv if self.psnr else argv + ["--no-psnr"]
        raise ValueError(f"unknown stage {stage!r}")


WORKLOADS = {
    w.name: w for w in (
        # the training step: tape backward, taped field, Euler loop, gather, Adam
        Workload("fit-accept", 25, False, (), ("fit",)),
        # mesh tracking: per-time deform from t=0, then KD-tree Hausdorff
        Workload("track-mesh", 25, True, (0, 12, 24),
                 ("deform", "eval")),
        # image warp: untaped field on every voxel, backward Euler, trilinear
        Workload("warp-image", 4, True, (0,), ("eval",), psnr=True),
    )
}
