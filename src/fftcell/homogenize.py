"""Effective-coefficient assembly from unit load cases.

Solves the discrete cell problem for each unit mean gradient E^a and
assembles the homogenized tensor through the discrete bilinear form,

    (A_eff)_ab = < A (E^a + e~^a), E^b + e~^b >,

with the discrete mean inner product, one row at a time through two
scratch fields.  By Galerkin orthogonality this
agrees with the mean-flux column <A (E^a + e~^a)>_b, which is checked in
the tests rather than assumed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .material import CoefficientField, apply_A, contract
from .solver import LoadCase, SolveReport, SolverConfig, green_operator, solve
from .transforms import GridField


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
    assemble the effective tensor.

    The assembly streams through two ``(d, *N)`` scratch fields: per row
    ``alpha`` it forms the total ``E^a + e~^a`` and its flux, then refills
    the first field with each total ``E^b + e~^b`` and sums the product
    into it.  The entries equal :func:`~fftcell.transforms.l2_inner` of
    the flux and total fields bit for bit.
    """
    d = a.spec.dim
    green = green_operator(a, cfg)
    reports = []
    loads = unit_loads(d)
    for load in loads:
        report = solve(a, load, cfg, green=green)
        reports.append(report)
        if not report.converged:
            raise ConvergenceError(
                f"load case E={load.E} did not converge in "
                f"{report.iterations} iterations ({report.message})",
                tuple(reports),
            )

    total = np.empty((d,) + a.spec.shape)
    flux = np.empty_like(total)

    def fill_total(beta):
        return np.add(reports[beta].solution.values, loads[beta].on(a.spec), out=total)

    matrix = np.empty((d, d))
    for alpha in range(d):
        contract(a.data, fill_total(alpha), out=flux)
        for beta in range(d):
            product = np.multiply(flux, fill_total(beta), out=total)
            matrix[alpha, beta] = float(product.sum() / a.spec.total)
    return EffectiveTensor(matrix, tuple(reports))


def flux_field(a: CoefficientField, report: SolveReport, load: LoadCase) -> GridField:
    """Flux j = A (E + e~); its mean is the corresponding A_eff column."""
    if not report.converged:
        raise ValueError("flux field requires a converged solve report")
    return apply_A(a, GridField(a.spec, report.solution.values + load.on(a.spec)))


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
