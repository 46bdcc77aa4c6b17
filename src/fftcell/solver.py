"""Matrix-free solver for the fully discrete cell problem.

One iteration loop solves the Galerkin system

    Gamma0 A e~ = -Gamma0 A E

for the fluctuation e~ in the curl-free zero-mean subspace.  Each solve
runs on one :class:`System`, which a homogenization shares between its
load cases, and applies the operator ``x -> Gamma0 A x`` in place once
per iteration.  The two methods are two step rules of the same
recurrence ``x += alpha p; r -= alpha Gamma0 A p``:

* **cg** -- conjugate gradients with Gamma0 of the reference ``C_A I``,
  which is the orthogonal curl-free projector G divided by C_A.  Every
  iterate stays in the solution subspace.
* **neumann** -- the classical fixed-point iteration
  ``e <- E - Gamma0 (A - A0) e`` around a constant reference A0.  As
  ``Gamma0 A0 e~ = e~`` on the subspace, it is Richardson's unit step
  ``x += r; r -= Gamma0 A r`` (``alpha = 1``, ``p = r``) with Gamma0 of A0.

Both methods stop at ``|r| <= tol |r_0|``.  Scalar coefficients ``a``
around a scalar reference ``lambda I`` with ``tol >= 1e-7`` and
``a / lambda`` in float32's normal range get float32 operator products
and keep the float64 iteration counts by reliable updates: the float64
residual replaces the recursive one after every fall by 1e-3 and at
every would-be exit.  Every other solve runs in float64.  Either way
``converged=True`` rests on a float64 residual that meets the stop rule
(see :func:`solve`).  Float32 results differ from float64 ones by
rounding only: about 3e-9 of the largest solution entry and 1e-15 of
``A_eff`` at ``tol=1e-6`` on the CG benchmark fields.

For both methods ``iterations`` counts the applied updates and
``residual_history`` starts with the initial residual.  All norms are the
discrete mean L2 norm of the real fields, matching the trigonometric
polynomial L2 norm through the grid-value isometry; they are summed on
the half lattice by Plancherel.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .green import GreenOperator, ReferenceTensor, narrow_view
from .material import CoefficientField, contract
from .transforms import GridField, l2_norm

_DIVERGENCE_WINDOW = 10  # consecutive growth steps before declaring divergence
_SINGLE_TOL = 1e-7  # the smallest tol that float32 operator products serve
_RELIABLE = 1e-3  # fall of |r| below the best float64 residual that replaces it
_FLOOR = 16.0  # rounding floor of the initial residual, in eps times max |A E| / c(A0)


@dataclass(frozen=True)
class LoadCase:
    """Mean applied gradient E; :meth:`on` places it on a grid."""

    E: tuple

    def __post_init__(self):
        E = tuple(float(e) for e in self.E)
        if not all(np.isfinite(E)):
            raise ValueError(f"load case entries must be finite, got {E}")
        object.__setattr__(self, "E", E)

    def on(self, spec: GridSpec) -> np.ndarray:
        """E as a ``(d, 1, ..., 1)`` array that broadcasts against the ``(d, *N)``
        fields of ``spec``, so ``e~ + load.on(spec)`` is the total ``E + e~``;
        raises ValueError unless ``E`` has ``spec.dim`` entries."""
        if len(self.E) != spec.dim:
            raise ValueError("load case dimension does not match grid")
        return np.reshape(self.E, (spec.dim,) + (1,) * spec.dim)

    def expand(self, spec: GridSpec) -> GridField:
        """Constant grid expansion E_N."""
        return GridField.constant(spec, self.on(spec))


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
        if (
            isinstance(self.max_iter, bool)
            or not isinstance(self.max_iter, (int, np.integer))
            or self.max_iter < 1
        ):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        if self.reference is not None and not isinstance(self.reference, ReferenceTensor):
            raise ValueError(
                f"reference must be a ReferenceTensor or None, got {type(self.reference).__name__}"
            )
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
    true_residual: float = float("nan")  # float64 |Gamma0 A (e~ + E)| / |r_0| at exit
    float64_applications: int = 0  # float64 operator applications after r_0


class System:
    """The operator ``Gamma0 A`` that :func:`solve` iterates on for ``a``
    and ``cfg``; one serves every load case of a homogenization.

    Its :class:`~fftcell.green.GreenOperator` is that of ``C_A I`` for CG
    (Gamma0 ``G / C_A`` scales the output, not a copy of ``a``), of
    ``cfg.reference`` or :func:`default_reference` for Neumann, and of
    ``A0 = I`` without ``cfg``.  Scalar coefficients around ``lambda I``
    with ``cfg.tol >= _SINGLE_TOL`` (about twice float32's unit roundoff),
    a float32-normal ``c_A / lambda`` and a float32-finite ``C_A / lambda``
    also get a ``twin``, the float32 system of ``a / lambda`` around
    ``A0 = I``, which has no config.  A system is only read: :meth:`begin`
    binds a copy of it to one solve's scratch, so one system serves
    concurrent solves.
    """

    def __init__(self, a: CoefficientField, cfg: SolverConfig | None = None):
        self.a, self.cfg, self.coeffs = a, cfg, a.data
        if cfg is not None and cfg.method == "cg":
            ref = ReferenceTensor.scalar(a.C_A, a.spec.dim)
        else:  # Neumann's reference, or A0 = I without cfg
            ref = (cfg.reference or default_reference(a)) if cfg else None
        self.green = GreenOperator(a.spec, ref)
        self.twin = None
        lam = self.green.ref.scalar_mode  # Gamma0 of lambda I is G / lambda
        f32 = np.finfo(np.float32)  # its bounds compared as Python floats, uncast
        if cfg is not None and lam and a.data.ndim == a.spec.dim and cfg.tol >= _SINGLE_TOL and (
            float(f32.tiny) <= a.c_A / lam and a.C_A / lam <= float(f32.max)
        ):
            # Before single()'s direction: the other heap order added 2 MB of RSS at 49^3.
            coeffs = np.empty(a.spec.shape, np.float32)
            self.twin = twin = copy.copy(self)
            twin.cfg = None  # the system of a / lambda around A0 = I
            twin.green = self.green.single()
            twin.coeffs = np.divide(a.data, lam, out=coeffs)

    def begin(self, spectrum=None, values=None) -> System:
        """A copy bound to one solve's scratch, fresh when None: the complex
        half ``spectrum``, the real ``(d, *N)`` ``values`` that become the
        solution (packed data adds a ``flux`` and ``contract``'s ``row``)
        and a count of ``analyses``; the twin's copy runs in their views."""
        spec, work = self.a.spec, copy.copy(self)
        work.spectrum = self.green.scratch() if spectrum is None else spectrum
        work.values = work.flux = np.empty((spec.dim,) + spec.shape) if values is None else values
        work.row, work.analyses = None, 0
        if self.coeffs.ndim > spec.dim:
            work.flux, work.row = np.empty_like(work.values), np.empty(spec.shape)
        if self.twin:
            narrow = narrow_view(work.spectrum, np.complex64), narrow_view(work.values, np.float32)
            work.twin = self.twin.begin(*narrow)
        return work

    def analyze(self, values, out):
        """The half-lattice scalars of ``Gamma0 A values`` into ``out`` (a
        fresh array when None).  Only on a copy that :meth:`begin` returns,
        which holds the scratch."""
        self.analyses += 1
        flux = contract(self.coeffs, values, out=self.flux, row=self.row)
        return self.green.analyze(flux, out, self.spectrum)

    def apply(self, s, out):
        """``Gamma0 A synthesize(s)`` into ``out``, through the buffer;
        only on a copy that :meth:`begin` returns, as :meth:`analyze`."""
        return self.analyze(self.green.synthesize(s, self.values, self.spectrum), out)


def apply_system(a: CoefficientField, u: GridField) -> GridField:
    """System operator ``G A u`` with the orthogonal G, Gamma0 of ``A0 = I``."""
    if a.spec != u.spec:
        raise ValueError("coefficient field and grid field specs do not match")
    system = System(a).begin()
    s = system.analyze(u.values, None)
    return GridField(a.spec, system.green.synthesize(s, None, system.spectrum))


def residual_norm(a: CoefficientField, load: LoadCase, candidate: GridField) -> float:
    """Discrete L2 norm of ``G A (candidate + E_N)``; zero iff it solves."""
    return l2_norm(apply_system(a, GridField(a.spec, candidate.values + load.on(a.spec))))


def default_reference(a: CoefficientField) -> ReferenceTensor:
    """Classical reference choice ``A0 = (c_A + C_A)/2 * I``."""
    return ReferenceTensor.scalar(0.5 * (a.c_A + a.C_A), a.spec.dim)


def solve(
    a: CoefficientField,
    load: LoadCase,
    cfg: SolverConfig,
    record_iterates: bool = False,
    system: System | None = None,
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

    Every solve starts from ``x = 0`` and stops at ``|r| <= tol |r_0|``;
    for CG a scalar reference in ``cfg`` does not enter.  A load whose
    ``|r_0|`` is within ``_FLOOR`` eps of ``max |A E| / c(A0)``, the
    rounding of its own evaluation, is solved by ``x = 0`` in 0 iterations:
    a zero load, a uniform medium, a laminate loaded along its layers.  A
    solve fails at a non-finite residual, at ``max_iter``, for CG when
    ``pAp <= 0``, for Neumann when the update grows over
    ``_DIVERGENCE_WINDOW`` steps in a row, and at its attainable accuracy
    (below).  With ``record_iterates`` the report carries every solution
    iterate.

    Convergence is certified.  ``r`` is updated recursively, and rounding
    lets it drift from the true residual ``-Gamma0 A (E / |E|_max + x)``.
    So whenever ``r`` meets the stop rule, the true residual is recomputed
    in float64 and replaces ``r`` and its history entry, ``p`` being kept;
    the solve converges only if it meets the rule too.  One that does not,
    and either has not halved the smallest float64 residual so far or lies
    at the rounding floor above, marks the attainable accuracy: the solve
    stops unconverged.
    :attr:`SolveReport.true_residual` is the float64 ``|r| / |r_0|`` of the
    returned solution.

    ``system`` is the :class:`System` of ``a`` and ``cfg``, built here when
    not given, and only read.  With its float32 ``twin`` the loop applies
    ``Gamma0 A p`` in float32; ``x``, ``r``, ``p``, ``Ap`` and every inner
    product stay complex128.  Reliable updates keep the float64 iteration
    counts: whenever ``|r|`` has fallen ``_RELIABLE`` below the smallest
    float64 residual, the float64 residual replaces it (Clark et al., CPC
    181, 2010; van der Vorst & Ye, SISC 22, 2000).  One that has not halved
    that smallest residual switches the rest of the solve to float64
    products, CG restarting along ``r``.  Every other solve runs in
    float64 throughout, with the iterates of the plain recurrence.
    ``float64_applications`` counts the float64 analyses after ``r_0``.

    Every iterate lies in the range of ``Gamma0``, so the loop keeps
    ``x``, ``r``, ``p`` and ``Ap`` as half-lattice scalars, ``d`` times
    smaller than the fields they stand for, and synthesizes only the
    reported solution and recorded iterates.  No iteration allocates
    beyond the ``k_d = 0`` slices of the inner product and the ufunc
    buffers of ``synthesize``'s casting multiply ``n s``.
    """
    spec = a.spec
    E = load.on(spec)
    cg = cfg.method == "cg"
    E_max = float(np.max(np.abs(E))) or 1.0  # E = 0 gives rhs = 0
    if system is None:
        system = System(a, cfg)
    elif system.a is not a or system.cfg is not cfg:
        raise ValueError("system does not match the coefficients and config")
    # Before begin()'s buffers: the other heap order slowed the next 243^2 set-up by 18 %.
    x = np.zeros(system.green.n.shape[1:], dtype=complex)
    system = system.begin()  # this solve's scratch
    green, field = system.green, system.values
    units = a.C_A * E_max if cg else E_max
    mean = np.divide(E, E_max)

    def residual(out, start=False):
        """The float64 residual ``-Gamma0 A (E / |E|_max + x)`` into ``out``;
        at the ``start`` ``x = 0`` needs no synthesis."""
        np.add(0.0 if start else green.synthesize(x, field, system.spectrum), mean, out=field)
        return np.negative(system.analyze(field, out), out=out)

    op = system.twin or system  # float32 products until a stall
    r = residual(np.empty_like(x), start=True)
    # The rounding floor of that residual, from the flux A E / |E|_max it
    # leaves in ``system.flux``: a load that the coefficients balance to
    # rounding (a uniform medium, a laminate loaded along its layers) has
    # nothing above it for tol |r_0| to resolve, and x = 0 solves it.
    flux_max = max(system.flux.max(), -system.flux.min())  # max |flux| without a copy
    floor = _FLOOR * np.finfo(float).eps * flux_max / green.ref.c_bound
    Ap = np.empty_like(x)
    rr = rr0 = rr_true = green.inner(r, r)
    certified = True  # r is the float64 residual of x
    stop = cfg.tol * np.sqrt(rr)
    history = [units * np.sqrt(rr)]

    def synthesized(out=None):
        solution = green.synthesize(x, out, system.spectrum)
        solution *= E_max
        return solution

    iterates = [GridField(spec, synthesized())] if record_iterates else []

    def report(iterations, converged, message=""):
        if certified:
            rr_x = rr
        elif np.isfinite(rr):
            rr_x = green.inner(residual(Ap), Ap)
        else:
            rr_x = np.nan
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
            true_residual=float(np.sqrt(rr_x / rr0)) if rr0 > 0 else 0.0,
            float64_applications=system.analyses - 1,  # after r_0
        )

    if np.sqrt(rr) <= floor:
        return report(0, True)
    p = r.copy() if cg else r  # the Neumann step is along the residual
    growth_streak = 0
    stalled = False
    for i in range(cfg.max_iter + 1):
        if not np.isfinite(rr):
            return report(i, False, f"non-finite residual {history[-1]} at step {i}")
        if np.sqrt(rr) <= stop:
            return report(i, True)
        if stalled:
            return report(
                i, False,
                f"attainable accuracy: the true residual {history[-1]:.3e} stays"
                f" above the stop threshold {units * stop:.3e}",
            )
        if growth_streak >= _DIVERGENCE_WINDOW:
            matrix = green.ref.matrix.tolist()
            return report(
                i, False, f"divergent fixed-point iteration for reference tensor {matrix}"
            )
        if i == cfg.max_iter:
            return report(i, False, "max_iter exceeded")
        op.apply(p, Ap)  # Gamma0 A p
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
        certified = stalled = False
        rr_new = green.inner(r, r)
        if np.sqrt(rr_new) <= stop or (op is not system and rr_new < _RELIABLE**2 * rr_true):
            rr_new = green.inner(residual(r), r)
            certified = True
            # Stalled: above the stop, at the floor or not below half the best.
            floored = np.sqrt(rr_new) <= floor
            stalled = np.sqrt(rr_new) > stop and (floored or rr_new > rr_true / 4)
            rr_true = min(rr_true, rr_new)
            if stalled and not floored and op is not system:
                # The rest of the solve runs in float64, and CG restarts
                # along r: the float32 directions are not to be trusted.
                op, stalled = system, False
                if cg:  # the Neumann step p is r itself
                    p.fill(0.0)
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
