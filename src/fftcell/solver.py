"""Matrix-free solver for the fully discrete cell problem.

One iteration loop solves the Galerkin system

    Gamma0 A e~ = -Gamma0 A E

for the fluctuation e~ in the curl-free zero-mean subspace.  Each solve
runs on one :class:`~fftcell.green.GreenOperator`, which a
homogenization shares between its load cases, and applies the operator
``x -> Gamma0 A x`` in place once per iteration.  The two methods are two
step rules of the same recurrence ``x += alpha p; r -= alpha Gamma0 A p``:

* **cg** -- conjugate gradients with Gamma0 of the reference ``C_A I``,
  which is the orthogonal curl-free projector G divided by C_A.  Every
  iterate stays in the solution subspace.
* **neumann** -- the classical fixed-point iteration
  ``e <- E - Gamma0 (A - A0) e`` around a constant reference A0.  As
  ``Gamma0 A0 e~ = e~`` on the subspace, it is Richardson's unit step
  ``x += r; r -= Gamma0 A r`` (``alpha = 1``, ``p = r``) with Gamma0 of A0.

Every vector of the recurrence lies in the range of Gamma0, the fields
``irfftn(n s)`` with one complex scalar ``s(k)`` per half-lattice mode,
so the loop runs on those scalars and synthesizes real fields only to
apply A and to report.

For both methods ``iterations`` counts the applied updates and
``residual_history`` starts with the initial residual.  All norms are the
discrete mean L2 norm of the real fields, matching the trigonometric
polynomial L2 norm through the grid-value isometry; they are summed on
the half lattice by Plancherel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .green import GreenOperator, ReferenceTensor
from .material import CoefficientField, apply_A, contract
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
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")
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
    """System operator ``G A u`` with the orthogonal G, Gamma0 of ``A0 = I``."""
    return GridField(a.spec, GreenOperator(a.spec).gamma0(apply_A(a, u).values))


def residual_norm(a: CoefficientField, load: LoadCase, candidate: GridField) -> float:
    """Discrete L2 norm of ``G A (candidate + E_N)``; zero iff it solves."""
    total = GridField(a.spec, candidate.values + load.expand(a.spec).values)
    return l2_norm(apply_system(a, total))


def default_reference(a: CoefficientField) -> ReferenceTensor:
    """Classical reference choice ``A0 = (c_A + C_A)/2 * I``."""
    return ReferenceTensor.scalar(0.5 * (a.c_A + a.C_A), a.spec.dim)


def _solver_reference(a: CoefficientField, cfg: SolverConfig) -> ReferenceTensor:
    if cfg.method == "cg":
        # Gamma0 of the reference C_A I is G / C_A, which applies 1/C_A to
        # the operator output without a scaled copy of the coefficients.
        return ReferenceTensor.scalar(a.C_A, a.spec.dim)
    return cfg.reference if cfg.reference is not None else default_reference(a)


def green_operator(a: CoefficientField, cfg: SolverConfig) -> GreenOperator:
    """The Green operator that :func:`solve` iterates with for ``a`` and
    ``cfg``; one operator serves every load case of a homogenization."""
    return GreenOperator(a.spec, _solver_reference(a, cfg))


def solve(
    a: CoefficientField,
    load: LoadCase,
    cfg: SolverConfig,
    record_iterates: bool = False,
    green: GreenOperator | None = None,
) -> SolveReport:
    """Solve the cell problem for one load case with ``cfg.method``.

    The loop runs on ``Gamma0 A x = -Gamma0 A E / |E|_max``.  For CG,
    Gamma0 of ``C_A I`` divides by C_A; neither scaling changes the
    iterates, and together they keep every norm near one, so coefficients
    and loads of any magnitude neither underflow nor overflow.  The
    solution is ``|E|_max x``.  ``residual_history`` is in the caller's
    units: ``|G A (e~ + E)|`` for CG and the update norm
    ``|Gamma0 A (e~ + E)|`` for Neumann.  A converged solve whose solution
    or history overflows float64 in those units is reported as failed.

    Every solve starts from ``x = 0``.  CG stops at ``|r| <= tol |r_0|``;
    a scalar reference in ``cfg`` induces the same orthogonal G and does
    not enter.  Neumann stops at an update norm ``<= tol |E|``.  A zero
    load is solved by ``x = 0`` in 0 iterations.  A solve fails at a
    non-finite residual, at ``max_iter``, for CG when ``pAp <= 0`` and for
    Neumann when the update grows over ``_DIVERGENCE_WINDOW`` steps in a
    row.  With ``record_iterates`` the report carries every solution
    iterate.

    ``green`` is the operator of :func:`green_operator`, built here when
    not given.  Every iterate lies in the range of ``Gamma0``, so the loop
    keeps ``x``, ``r``, ``p`` and ``Ap`` as the half-lattice scalars of
    :meth:`~fftcell.green.GreenOperator.synthesize`, ``d`` times smaller
    than the fields they stand for, and takes norms with
    :meth:`~fftcell.green.GreenOperator.inner`.  The operator passes
    through one real ``(d, *N)`` buffer (two for packed coefficients); only
    the reported solution and recorded iterates are synthesized.  No
    iteration allocates beyond the ``k_d = 0`` slices of the inner product
    and the ``(*N)`` scratch row of a packed :func:`~fftcell.material.contract`.
    """
    spec = a.spec
    cg = cfg.method == "cg"
    E_max = float(np.max(np.abs(load.E))) or 1.0  # E = 0 gives rhs = 0
    ref = _solver_reference(a, cfg)
    if green is None:
        green = GreenOperator(spec, ref)
    elif green.spec != spec or not np.array_equal(green.ref.matrix, ref.matrix):
        raise ValueError("green operator does not match the coefficients and config")
    units = a.C_A * E_max if cg else E_max
    field = load.expand(spec).values  # holds E / |E|_max until the first step
    field /= E_max
    # Packed contraction cannot write into its input.
    flux = field if a.data.ndim == spec.dim else np.empty_like(field)

    r = green.analyze(contract(a.data, field, out=flux))
    np.negative(r, out=r)  # the residual of x = 0
    Ap = np.empty_like(r)
    x = np.zeros_like(r)
    rr = green.inner(r, r)
    if cg:
        stop = cfg.tol * np.sqrt(rr)
    else:
        stop = cfg.tol * float(np.linalg.norm(np.divide(load.E, E_max)))
    history = [units * np.sqrt(rr)]

    def synthesized(out=None):
        solution = green.synthesize(x, out)
        solution *= E_max
        return solution

    iterates = [GridField(spec, synthesized())] if record_iterates else []

    def report(iterations, converged, message=""):
        solution = synthesized(field)
        finite = np.isfinite(history).all() and np.isfinite(solution).all()
        if converged and not finite:
            converged = False
            message = (
                f"float64 overflow: the solution or residual for |E|_max = {E_max:.3e}"
                " is not finite in the caller's units"
            )
        return SolveReport(
            GridField(spec, solution), iterations, tuple(history), converged,
            cfg.method, message=message, iterates=tuple(iterates),
        )

    p = r.copy() if cg else r  # the Neumann step is along the residual
    growth_streak = 0
    for i in range(cfg.max_iter + 1):
        if not np.isfinite(rr):
            return report(i, False, f"non-finite residual {history[-1]} at step {i}")
        if np.sqrt(rr) <= stop:
            return report(i, True)
        if growth_streak >= _DIVERGENCE_WINDOW:
            matrix = ref.matrix.tolist()
            return report(
                i, False, f"divergent fixed-point iteration for reference tensor {matrix}"
            )
        if i == cfg.max_iter:
            return report(i, False, "max_iter exceeded")
        green.synthesize(p, field)
        green.analyze(contract(a.data, field, out=flux), Ap)  # Gamma0 A p
        if cg:
            pAp = green.inner(p, Ap)
            if pAp <= 0:
                return report(
                    i, False, f"operator lost positive definiteness (pAp={pAp:.3e})"
                )
            alpha = rr / pAp
            r -= np.multiply(Ap, alpha, out=Ap)  # Ap is free from here on
            x += np.multiply(p, alpha, out=Ap)
        else:
            x += r
            r -= Ap
        rr_new = green.inner(r, r)
        history.append(units * np.sqrt(rr_new))
        if record_iterates:
            iterates.append(GridField(spec, synthesized()))
        if cg:
            p *= rr_new / rr
            p += r
        else:
            growth_streak = growth_streak + 1 if rr_new > rr else 0
        rr = rr_new


def solve_cg(
    a: CoefficientField,
    load: LoadCase,
    cfg: SolverConfig,
    record_iterates: bool = False,
) -> SolveReport:
    """Conjugate gradients: :func:`solve` with a ``method="cg"`` config."""
    if cfg.method != "cg":
        raise ValueError("config method is not 'cg'")
    return solve(a, load, cfg, record_iterates=record_iterates)


def solve_neumann(a: CoefficientField, load: LoadCase, cfg: SolverConfig) -> SolveReport:
    """Fixed-point iteration: :func:`solve` with a ``method="neumann"`` config."""
    if cfg.method != "neumann":
        raise ValueError("config method is not 'neumann'")
    return solve(a, load, cfg)
