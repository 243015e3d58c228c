"""cycleflow: one-shot periodic motion estimation for 4D image sequences.

Fits a sine-activated neural velocity field to a cyclic volume series by
differentiating through an unrolled Euler ODE flow, then deforms meshes
and volumes along the learned trajectories.
"""

__version__ = "0.1.0"

from .errors import (CycleflowError, ConfigError, FormatError,
                     NumericalError, ValidationError)
from .field import (VelocityFieldModel, encode_time, init_weights,
                    load_checkpoint, save_checkpoint, velocity)
from .flow import (Trajectory, deform_mesh, flow_at_frames, integrate,
                   inverse_map)
from .mesh import TriangleMesh, icosphere, mesh_volume, read_obj, write_obj
from .metrics import (EvalReport, evaluate_fit, hausdorff, hausdorff_brute,
                      periodicity_error, psnr)
from .training import (AdamState, FitConfig, FitReport, adam_step, fit,
                       load_fit_config, sample_points, total_loss)
from .volume import (DomainNormalizer, GrowthPattern, Volume4D, VolumeGrid,
                     make_sphere_series, radius_at, read_v4d, read_v4d_grid,
                     sample_trilinear, write_v4d)

__all__ = [
    "__version__",
    "CycleflowError", "ConfigError", "FormatError", "NumericalError",
    "ValidationError",
    "VelocityFieldModel", "encode_time", "init_weights", "load_checkpoint",
    "save_checkpoint", "velocity",
    "Trajectory", "deform_mesh", "flow_at_frames", "integrate", "inverse_map",
    "TriangleMesh", "icosphere", "mesh_volume", "read_obj", "write_obj",
    "EvalReport", "evaluate_fit", "hausdorff", "hausdorff_brute",
    "periodicity_error", "psnr",
    "AdamState", "FitConfig", "FitReport", "adam_step", "fit",
    "load_fit_config", "sample_points", "total_loss",
    "DomainNormalizer", "GrowthPattern", "Volume4D", "VolumeGrid",
    "make_sphere_series", "radius_at", "read_v4d", "read_v4d_grid",
    "sample_trilinear", "write_v4d",
]
