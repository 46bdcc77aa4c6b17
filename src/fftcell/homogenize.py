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

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .material import CoefficientField, apply_A, contract, write_csv
from .solver import LoadCase, SolveReport, SolverConfig, System, solve
from .transforms import GridField

# Grid points from which the load cases share the usable cores.  On a
# 2-core x86-64 host two threads lost to one at 81^2 and 85^2 and won from
# 87^2 on (CG), and won at 23^3 but not always at 19^3 and 21^3.
_PARALLEL_POINTS = 10_000


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


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one (``taskset`` sets it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def effective_tensor(a: CoefficientField, cfg: SolverConfig) -> EffectiveTensor:
    """Drive the d unit load cases, all on one :class:`~fftcell.solver.System`,
    and assemble the effective tensor.

    The cases run on ``w = min(d, _usable_cores())`` threads when the grid
    has at least ``_PARALLEL_POINTS`` points, and on the calling thread
    alone otherwise.  The calling thread solves cases ``0, w, 2w, ...`` and
    hands each other case to a worker, on scratch that it begins itself:
    scratch that the workers allocated would grow a malloc arena per
    thread.  The results are those of the serial loop bit for bit.  The
    first case in load order that fails raises :class:`ConvergenceError`
    with the reports up to it, or raises its exception again; no worker
    outlives the call.

    The system is dropped, then two ``(d, *N)`` scratch fields stream
    the assembly: per row ``alpha`` the total ``E^a + e~^a`` and its
    flux, then each total ``E^b + e~^b`` refills the first and the
    product is summed into it.  The entries equal
    :func:`~fftcell.transforms.l2_inner` of flux and total bit for bit.
    """
    d = a.spec.dim
    system = System(a, cfg)
    reports = []
    loads = unit_loads(d)
    w = min(d, _usable_cores()) if a.spec.total >= _PARALLEL_POINTS else 1
    with ThreadPoolExecutor(w - 1) if w > 1 else nullcontext() as workers:
        others = {
            alpha: workers.submit(solve, a, loads[alpha], cfg, system=system.begin())
            for alpha in range(d)
            if alpha % w
        }
        for alpha, load in enumerate(loads):
            if alpha in others:
                report = others[alpha].result()
            else:
                report = solve(a, load, cfg, system=system)
            reports.append(report)
            if not report.converged:
                raise ConvergenceError(
                    f"load case E={load.E} did not converge in "
                    f"{report.iterations} iterations ({report.message})",
                    tuple(reports),
                )
    del system

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
    write_csv(path, np.asarray(matrix, dtype=float).tolist())


def write_history_csv(path, history):
    write_csv(path, [("iteration", "residual"), *enumerate(map(float, history))])
