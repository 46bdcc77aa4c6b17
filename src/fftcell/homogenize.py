"""Effective-coefficient assembly from unit load cases.

Solves the discrete cell problem for each unit mean gradient E^a and
assembles the homogenized tensor through the discrete bilinear form,

    (A_eff)_ab = < A (E^a + e~^a), E^b + e~^b >,

with the discrete mean inner product.  By Galerkin orthogonality this
agrees with the mean-flux column <A (E^a + e~^a)>_b, which is checked in
the tests rather than assumed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .material import CoefficientField, apply_A
from .solver import LoadCase, SolveReport, SolverConfig, green_operator, solve
from .transforms import GridField, l2_inner


class ConvergenceError(RuntimeError):
    """A load case failed to converge; partial reports attached."""

    def __init__(self, message, reports):
        super().__init__(message)
        self.reports = reports


@dataclass(frozen=True)
class EffectiveTensor:
    matrix: np.ndarray
    per_case_reports: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))


def unit_loads(dim):
    return [LoadCase(tuple(np.eye(dim)[alpha])) for alpha in range(dim)]


def effective_tensor(a: CoefficientField, cfg: SolverConfig) -> EffectiveTensor:
    """Drive the d unit load cases, all on one Green operator, and
    assemble the effective tensor."""
    d = a.spec.dim
    green = green_operator(a, cfg)
    reports = []
    totals = []
    for load in unit_loads(d):
        report = solve(a, load, cfg, green=green)
        reports.append(report)
        if not report.converged:
            raise ConvergenceError(
                f"load case E={load.E} did not converge in "
                f"{report.iterations} iterations ({report.message})",
                tuple(reports),
            )
        totals.append(
            GridField(a.spec, report.solution.values + load.expand(a.spec).values)
        )
    matrix = np.empty((d, d))
    fluxes = [apply_A(a, e) for e in totals]
    for alpha in range(d):
        for beta in range(d):
            matrix[alpha, beta] = l2_inner(fluxes[alpha], totals[beta])
    return EffectiveTensor(matrix, tuple(reports))


def flux_field(a: CoefficientField, report: SolveReport, load: LoadCase) -> GridField:
    """Flux j = A (E + e~); its mean is the corresponding A_eff column."""
    if not report.converged:
        raise ValueError("flux field requires a converged solve report")
    total = GridField(a.spec, report.solution.values + load.expand(a.spec).values)
    return apply_A(a, total)


def mean_flux(j: GridField) -> np.ndarray:
    return j.values.reshape(j.spec.dim, -1).mean(axis=1)


def write_tensor_csv(path, matrix):
    """Row-major d x d CSV with full float round-trip precision."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in matrix:
            writer.writerow([f"{v:.17g}" for v in row])


def write_history_csv(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual"])
        for i, r in enumerate(history):
            writer.writerow([i, f"{r:.17g}"])
