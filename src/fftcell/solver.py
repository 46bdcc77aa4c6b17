"""Matrix-free solvers for the fully discrete cell problem.

Two routes are provided for the same discrete solution:

* projected conjugate gradients on ``G A e~ = -G A E`` where G is the
  orthogonal curl-free projector (scalar reference only); the projector is
  embedded in the operator so CG runs on full grid-shaped vectors and every
  iterate stays in the curl-free zero-mean subspace,
* the classical fixed-point (Neumann-series) iteration
  ``e <- -Gamma0 (A - A0) e + E`` around a constant reference medium A0.

Each solve builds one :class:`~fftcell.green.GreenOperator` and applies it
in every iteration.  All norms are the discrete mean L2 norm, matching the
trigonometric polynomial L2 norm through the grid-value isometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .green import GreenOperator, ReferenceTensor
from .material import CoefficientField, apply_A
from .transforms import GridField, l2_norm

_DIVERGENCE_WINDOW = 10  # consecutive growth steps before declaring divergence


@dataclass(frozen=True)
class LoadCase:
    """Mean applied gradient E."""

    E: tuple

    def __post_init__(self):
        E = tuple(float(e) for e in self.E)
        if not all(np.isfinite(E)):
            raise ValueError(f"load case entries must be finite, got {E}")
        object.__setattr__(self, "E", E)

    @property
    def dim(self):
        return len(self.E)

    def expand(self, spec: GridSpec) -> GridField:
        """Constant grid expansion E_N."""
        if len(self.E) != spec.dim:
            raise ValueError("load case dimension does not match grid")
        return GridField.constant(spec, self.E)


@dataclass(frozen=True)
class SolverConfig:
    method: str = "cg"
    tol: float = 1e-6
    max_iter: int = 1000
    reference: ReferenceTensor | None = None  # CG accepts scalar only

    def __post_init__(self):
        if self.method not in ("cg", "neumann"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (0 < self.tol < 1):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if (
            self.method == "cg"
            and self.reference is not None
            and self.reference.scalar_mode is None
        ):
            # Non-scalar references make the projection non-orthogonal and
            # the projected CG theory does not cover them.
            raise ValueError("the CG route requires a scalar reference (lambda * I)")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: the fluctuation field and iteration history."""

    solution: GridField  # e~, mean-free and curl-free
    iterations: int
    residual_history: tuple
    converged: bool
    method: str
    message: str = ""
    iterates: tuple = ()  # per-iteration solutions, only when recorded


def apply_system(a: CoefficientField, u: GridField) -> GridField:
    """System operator ``G A u`` with the orthogonal (scalar-independent) G."""
    return GridField(a.spec, GreenOperator(a.spec).G0(apply_A(a, u).values))


def residual_norm(a: CoefficientField, load: LoadCase, candidate: GridField) -> float:
    """Discrete L2 norm of ``G A (candidate + E_N)``; zero iff it solves."""
    total = GridField(a.spec, candidate.values + load.expand(a.spec).values)
    return l2_norm(apply_system(a, total))


def _inner(spec, x, y):
    return float(np.sum(x * y) / spec.total)


def solve_cg(
    a: CoefficientField,
    load: LoadCase,
    cfg: SolverConfig,
    init: GridField | None = None,
    record_iterates: bool = False,
) -> SolveReport:
    """Conjugate gradients on the projected system.

    CG runs on ``G (A / C_A) x = -G (A / C_A) E / |E|_max``.  Neither
    scaling changes the iterates, and together they keep every norm near
    one, so coefficients and loads of any magnitude neither underflow nor
    overflow.  The solution is ``|E|_max x`` and ``residual_history`` is
    reported in the caller's units, ``|G A (e~ + E)|``.

    The reference stopping scale ``|r_0|`` is always the zero-init residual
    (the right-hand-side norm), so restarts with a warm start stop at the
    same absolute accuracy.  A scalar reference in ``cfg`` induces the same
    orthogonal projection, so it does not enter the iteration.  With
    ``record_iterates`` the report carries every solution iterate.
    """
    if cfg.method != "cg":
        raise ValueError("config method is not 'cg'")
    spec = a.spec
    # Gamma0 of the reference C_A I is G / C_A, which applies 1/C_A to the
    # operator output without a scaled copy of the coefficients.
    green = GreenOperator(spec, ReferenceTensor.scalar(a.C_A, spec.dim))
    E_max = float(np.max(np.abs(load.E))) or 1.0  # E = 0 gives rhs = 0
    units = a.C_A * E_max

    def operator(values):
        return green.gamma0(np.einsum("ab...,b...->a...", a.full_tensors, values))

    rhs = -operator(load.expand(spec).values / E_max)
    r0_norm = np.sqrt(_inner(spec, rhs, rhs))

    if init is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        # Sanitize user input drift back into the curl-free subspace.
        x = green.G0(init.values) / E_max
        r = rhs - operator(x)

    rr = _inner(spec, r, r)
    history = [units * np.sqrt(rr)]
    iterates = [GridField(spec, E_max * x)] if record_iterates else []

    def report(iterations, converged, message=""):
        return SolveReport(
            GridField(spec, E_max * x), iterations, tuple(history), converged, "cg",
            message=message, iterates=tuple(iterates),
        )

    if r0_norm == 0.0 or np.sqrt(rr) <= cfg.tol * r0_norm:
        return report(0, True)

    p = r.copy()
    for i in range(cfg.max_iter):
        Ap = operator(p)
        pAp = _inner(spec, p, Ap)
        if pAp <= 0:
            return report(
                i, False, f"operator lost positive definiteness (pAp={pAp:.3e})"
            )
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_new = _inner(spec, r, r)
        history.append(units * np.sqrt(rr_new))
        if record_iterates:
            iterates.append(GridField(spec, E_max * x))
        if np.sqrt(rr_new) <= cfg.tol * r0_norm:
            return report(i + 1, True)
        p *= rr_new / rr
        p += r
        rr = rr_new
    return report(cfg.max_iter, False)


def default_reference(a: CoefficientField) -> ReferenceTensor:
    """Classical reference choice ``A0 = (c_A + C_A)/2 * I``."""
    return ReferenceTensor.scalar(0.5 * (a.c_A + a.C_A), a.spec.dim)


def solve_neumann(
    a: CoefficientField, load: LoadCase, cfg: SolverConfig
) -> SolveReport:
    """Fixed-point iteration ``e <- -Gamma0 (A - A0) e + E``.

    Converges when the relative update norm drops below tol; sustained
    update growth over a window of iterations is reported as divergence
    (the spectral radius of the iteration operator exceeds one).
    """
    ref = cfg.reference if cfg.reference is not None else default_reference(a)
    spec = a.spec
    green = GreenOperator(spec, ref)
    E_vals = load.expand(spec).values
    contrast = a.full_tensors - ref.matrix.reshape(
        (spec.dim, spec.dim) + (1,) * spec.dim
    )

    e = E_vals.copy()
    scale = max(l2_norm(load.expand(spec)), np.finfo(float).tiny)
    history = []
    growth_streak = 0
    prev_update = None
    converged = False
    iterations = 0
    for i in range(cfg.max_iter):
        e_new = green.gamma0(np.einsum("ab...,b...->a...", contrast, e))
        np.subtract(E_vals, e_new, out=e_new)
        e -= e_new  # e_old - e_new: the update
        update = np.sqrt(_inner(spec, e, e))
        history.append(update)
        e = e_new
        iterations = i + 1
        if update <= cfg.tol * scale:
            converged = True
            break
        if prev_update is not None and update > prev_update:
            growth_streak += 1
            if growth_streak >= _DIVERGENCE_WINDOW:
                return SolveReport(
                    GridField(spec, e - E_vals),
                    iterations,
                    tuple(history),
                    False,
                    "neumann",
                    message=(
                        "divergent fixed-point iteration for reference tensor "
                        f"{ref.matrix.tolist()}"
                    ),
                )
        else:
            growth_streak = 0
        prev_update = update

    return SolveReport(
        GridField(spec, e - E_vals), iterations, tuple(history), converged, "neumann"
    )


def solve(a: CoefficientField, load: LoadCase, cfg: SolverConfig, init=None):
    if cfg.method == "cg":
        return solve_cg(a, load, cfg, init=init)
    return solve_neumann(a, load, cfg)
