"""Matrix-free FFT-based spectral Galerkin solver for the periodic scalar
cell problem of homogenization."""

from .grid import GridSpec, next_fast_odd
from .green import ReferenceTensor, apply_G0, project_J, project_mean
from .material import CoefficientField, apply_A, load_voxel, sample_analytic, save_coefficients
from .transforms import (
    GridField,
    SpectralField,
    dft_forward,
    dft_inverse,
    interpolate,
    l2_inner,
    sobolev_norm,
    trig_eval,
    truncate,
)
from .solver import LoadCase, SolveReport, SolverConfig, residual_norm, solve_cg, solve_neumann
from .homogenize import EffectiveTensor, effective_tensor, flux_field

__all__ = [
    "GridSpec",
    "GridField",
    "SpectralField",
    "ReferenceTensor",
    "CoefficientField",
    "LoadCase",
    "SolverConfig",
    "SolveReport",
    "EffectiveTensor",
    "next_fast_odd",
    "apply_G0",
    "project_mean",
    "project_J",
    "apply_A",
    "sample_analytic",
    "load_voxel",
    "save_coefficients",
    "dft_forward",
    "dft_inverse",
    "interpolate",
    "truncate",
    "trig_eval",
    "sobolev_norm",
    "l2_inner",
    "solve_cg",
    "solve_neumann",
    "residual_norm",
    "effective_tensor",
    "flux_field",
]
