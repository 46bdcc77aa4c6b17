"""Experiment harness: convergence, contrast-scaling and approximation-rate
studies, the dense direct-solve oracle, and log-log slope estimation.

Reference solutions for grid-refinement studies come from a finer-grid run;
fields are compared after spectral prolongation (zero-padding in Fourier
space), which keeps interpolation order out of the measured rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, index_grid, underlined_frequency_grid
from .green import GreenOperator
from .material import CoefficientField, contract, write_csv
from .homogenize import unit_loads
from .solver import LoadCase, SolverConfig, solve
from .transforms import GridField, SpectralField, dft_forward

# R^2 penalty above which the first (pre-asymptotic) axis point is dropped.
_R2_DROP = 0.05

DENSE_ORACLE_LIMIT = 200  # max |N| * d for the dense direct solve


@dataclass(frozen=True)
class StudyResult:
    """Observable side of a rate claim: axis, values and a log-log fit."""

    axis: tuple
    values: tuple
    fitted_exponent: float
    fit_quality: float
    label: str = ""
    flags: tuple = ()

    def __post_init__(self):
        axis = tuple(float(a) for a in self.axis)
        diffs = np.diff(axis)
        if len(axis) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("study axis must be strictly monotone")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


def fit_loglog(axis, values):
    """Least-squares slope of log(values) vs log(axis) with R^2.

    The first point is dropped (repeatedly) while keeping it worsens R^2 by
    more than the documented threshold, to discard pre-asymptotic entries.
    """
    x = np.log(np.asarray(axis, dtype=float))
    y = np.log(np.asarray(values, dtype=float))

    def fit(xs, ys):
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        return float(slope), r2

    slope, r2 = fit(x, y)
    while len(x) > 3:
        slope_wo, r2_wo = fit(x[1:], y[1:])
        if r2_wo - r2 > _R2_DROP:
            x, y = x[1:], y[1:]
            slope, r2 = slope_wo, r2_wo
        else:
            break
    return slope, r2


def _build_result(axis, values, label="", flags=()):
    positive = all(v > 0 for v in values)
    if positive and len(values) >= 2:
        exponent, quality = fit_loglog(axis, values)
    else:
        exponent, quality = float("nan"), float("nan")
        flags = tuple(flags) + ("no-fit",)
    return StudyResult(tuple(axis), tuple(values), exponent, quality, label, tuple(flags))


# ---------------------------------------------------------------------------
# Spectral prolongation


def prolong_coeffs(coarse: SpectralField, fine_spec: GridSpec) -> np.ndarray:
    """Zero-pad coarse Fourier coefficients onto a finer lattice."""
    if any(nf < nc for nf, nc in zip(fine_spec.shape, coarse.spec.shape)):
        raise ValueError("fine grid must dominate the coarse grid componentwise")
    out = np.zeros((fine_spec.dim,) + fine_spec.shape, dtype=complex)
    k = index_grid(coarse.spec)
    slots = tuple(k[a] % nf for a, nf in enumerate(fine_spec.shape))
    out[(slice(None),) + slots] = coarse.coeffs
    return out


def spectral_error(coarse_field: GridField, fine_field: GridField) -> float:
    """L2 distance of two trigonometric polynomials on nested grids."""
    c = prolong_coeffs(dft_forward(coarse_field), fine_field.spec)
    f = dft_forward(fine_field).coeffs
    return float(np.sqrt(np.sum(np.abs(c - f) ** 2)))


# ---------------------------------------------------------------------------
# Studies


def convergence_study(family, grids, cfg: SolverConfig):
    """Solution error vs max grid spacing over a sequence of odd grids,
    for the first unit load.

    The reference is a run on a 4 x finer grid (next odd size); errors are
    discrete L2 norms after spectral prolongation to the reference grid.
    """
    grids = [tuple(g) for g in grids]
    load = unit_loads(family.dim)[0]
    ref_shape = tuple(4 * n + 1 for n in grids[-1])
    ref_spec = family.default_spec(ref_shape)
    ref_report = solve(family.sample(ref_spec), load, cfg)
    if not ref_report.converged:
        raise RuntimeError("reference solve did not converge")

    axis, values = [], []
    for shape in grids:
        spec = family.default_spec(shape)
        report = solve(family.sample(spec), load, cfg)
        if not report.converged:
            raise RuntimeError(f"study solve on {shape} did not converge")
        axis.append(spec.C_h)
        values.append(spectral_error(report.solution, ref_report.solution))

    flags = () if family.regularity == "smooth" else ("low-regularity",)
    # Coarsest grid first, so the pre-asymptotic drop rule removes it.
    order = np.argsort(axis)[::-1]
    axis = [axis[i] for i in order]
    values = [values[i] for i in order]
    if any(
        v_next > v_prev for v_prev, v_next in zip(values[:-1], values[1:])
    ) and all(v > 0 for v in values):
        flags = flags + ("non-monotone",)
    return _build_result(axis, values, label=f"convergence:{family.name}", flags=flags)


def contrast_study(make_family, contrasts, shape, tol=1e-6, max_iter=100000):
    """Iterations-to-tolerance vs coefficient contrast, per method.

    ``make_family`` maps a contrast value to a coefficient family.  Returns
    a dict with StudyResults for "cg" and "neumann"; non-converged points
    are recorded at max_iter and flagged censored.
    """
    results = {}
    samples = {}
    for rho in contrasts:
        family = make_family(rho)
        spec = family.default_spec(shape)
        samples[rho] = family.sample(spec)
    for method in ("cg", "neumann"):
        iterations, flags = [], []
        for rho in contrasts:
            a = samples[rho]
            cfg = SolverConfig(method=method, tol=tol, max_iter=max_iter)
            report = solve(a, unit_loads(a.spec.dim)[0], cfg)
            iterations.append(max(report.iterations, 1))
            if not report.converged:
                flags.append(f"censored:{rho:g}")
        results[method] = _build_result(
            list(contrasts), iterations, label=f"contrast:{method}", flags=tuple(flags)
        )
    return results


def dense_oracle(a: CoefficientField, load: LoadCase) -> GridField:
    """Direct dense solve of the projected system on an explicit basis.

    Assembles the orthogonal projector G and the pointwise ``A`` column by
    column (unit vectors through the matrix-free maps) and the system
    operator as their product ``G A``, independent of the solver's; restricts
    to the curl-free zero-mean subspace via an orthonormal basis extracted
    from the projector, and solves by direct factorization.  Guarded to
    small grids.
    """
    spec = a.spec
    n = spec.dim * spec.total
    if n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to |N|*d <= {DENSE_ORACLE_LIMIT}, got {n}")
    shape = (spec.dim,) + spec.shape

    def columns(op):
        M = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            M[:, j] = op(e.reshape(shape)).ravel()
        return M

    G = columns(GreenOperator(spec).gamma0)
    M_sys = G @ columns(lambda v: contract(a.data, v))
    # Orthonormal basis of the projector's range (eigenvalues are 0 or 1).
    U, s, _ = np.linalg.svd(G)
    B = U[:, s > 0.5]
    E_vec = load.expand(spec).values.ravel()
    rhs = -B.T @ (M_sys @ E_vec)
    S = B.T @ M_sys @ B
    y = np.linalg.solve(S, rhs)
    return GridField(spec, (B @ y).reshape(shape))


def _decay_coefficients(max_index, s, dim):
    """Reference Fourier coefficients |k|^-(s + d/2 + 1/2), zero mean."""
    ref_shape = (2 * max_index + 1,) * dim
    spec = GridSpec((1.0,) * dim, ref_shape)
    ks = index_grid(spec).astype(float)
    norm = np.sqrt(np.sum(ks**2, axis=0))
    norm[(0,) * dim] = np.inf
    coeffs = norm ** -(s + dim / 2.0 + 0.5)
    return spec, coeffs  # real and even in k: a real-valued function


def approximation_study(s, grids, orders=(0, 1), max_index=520):
    """Truncation and interpolation errors in H^r for a prescribed-decay
    spectrum, fitted against the grid spacing.

    The reference function is the finite Fourier sum over ``|k|_inf <=
    max_index`` with coefficients ``|k|^-(s + d/2 + 1/2)``; modes beyond
    the reference lattice are a documented truncation of the ideal tail.
    Returns ``{("PN"|"QN", r): StudyResult}`` for a 1-d cell.
    """
    grids = sorted(int(g) for g in grids)  # coarsest first
    axis = [GridSpec((1.0,), (n,)).C_h for n in grids]
    ref_spec, coeffs = _decay_coefficients(max_index, s, 1)
    k_ref = index_grid(ref_spec)[0]
    xiu2 = underlined_frequency_grid(ref_spec)[0] ** 2

    results = {}
    for r in orders:
        weight = xiu2**r
        errors = {"PN": [], "QN": []}
        for n in grids:
            inside = (k_ref >= -(n // 2)) & (k_ref <= n // 2)
            pn_err2 = float(np.sum(weight[~inside] * coeffs[~inside] ** 2))
            # Q_N differs from P_N on each kept mode k by its aliases
            # u_hat(k + m N), m != 0: the discarded modes of the residue
            # class k mod N, summed by one bincount.
            aliases = np.bincount(
                k_ref[~inside] % n, weights=coeffs[~inside], minlength=n
            )[k_ref[inside] % n]
            errors["PN"].append(np.sqrt(pn_err2))
            errors["QN"].append(np.sqrt(pn_err2 + np.sum(weight[inside] * aliases**2)))
        for op, values in errors.items():
            results[(op, r)] = _build_result(axis, values, label=f"{op}:r={r}:s={s}")
    return results


def write_study_csv(path, result: StudyResult):
    rows = [("axis", "value"), *zip(result.axis, result.values), ()]
    rows += [("fitted_exponent", result.fitted_exponent), ("fit_quality", result.fit_quality)]
    rows.append(("label", result.label))
    if result.flags:
        rows.append(("flags", ";".join(result.flags)))
    write_csv(path, rows)
