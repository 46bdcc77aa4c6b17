"""Correctness checks for homogenization results, independent of fftcell.

Every check uses numpy and the benchmark's own description of the scalar
coefficient field ``a`` (stored in the FFT-shifted slot order of the voxel
format).  Nothing is taken from fftcell's Green operator or solver, and no
earlier output serves as the reference.

Notation: ``S`` is the subspace of mean-free, curl-free fields and ``G`` the
orthogonal projection onto it.  For a fluctuation ``e`` of the unit load
``E``, the true residual is ``R = G a (E + e)``; it is zero exactly at the
discrete solution ``e*``.  For ``e`` in ``S`` and ``d = e - e*``:

* ``<a d, d> = <(G a G)^{-1} R, R> <= |R|^2 / min(a)``, so every entry of the
  energy-form tensor ``A_ab = <a (E_a + e_a), E_b + e_b>`` is within
  ``|R_a| |R_b| / min(a)`` of the discrete tensor (the cross terms vanish by
  Galerkin orthogonality);
* the energy form and the mean flux ``<a (E_a + e_a)>_b`` differ by
  ``<R_a, e_b>``, at most ``|R_a| |e_b|``;
* ``A`` is symmetric up to summation rounding, because ``a`` is;
* ``x.A x >= `` the harmonic mean (Reuss) for every unit ``x``, and the
  arithmetic mean (Voigt) bounds it from above up to the energy error.

Norms are discrete mean L2 norms, ``|v|^2 = sum(v * v) / |N|``.
"""

from __future__ import annotations

import numpy as np

# CG stops on its recursively updated residual; the true relative residual
# may drift above it by rounding only, so twice tol is a generous cap.
RESIDUAL_FACTOR = 2.0
# Relative slack for summation rounding in tensor entries (|N| <= 2.5e5 terms
# of double precision products give errors near 1e-13 of the entry scale).
ROUNDING = 1e-10
# A fluctuation must lie in S to this relative accuracy, else the bounds
# above do not apply.
SUBSPACE = 1e-10


def lattice_indices(n):
    """Centered integer index held by each storage slot (numpy FFT order)."""
    return np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)


def grid_coordinates(shape, half_periods):
    """Grid point coordinates ``x_a = k_a * 2 Y_a / N_a``, broadcastable."""
    coords = []
    for axis, (n, y) in enumerate(zip(shape, half_periods)):
        x = lattice_indices(n).astype(float) * (2.0 * float(y) / n)
        coords.append(x.reshape([n if i == axis else 1 for i in range(len(shape))]))
    return coords


class Projector:
    """Orthogonal projection onto mean-free curl-free fields on an odd grid,
    on the real half spectrum."""

    def __init__(self, shape, half_periods):
        self.shape = tuple(shape)
        dim = len(self.shape)
        self.axes = tuple(range(1, dim + 1))
        xi = []
        for axis, (n, y) in enumerate(zip(self.shape, half_periods)):
            k = np.fft.rfftfreq(n, 1.0 / n) if axis == dim - 1 else lattice_indices(n)
            shape_a = [1] * dim
            shape_a[axis] = k.size
            xi.append((k / float(y)).reshape(shape_a))
        norm2 = sum(x * x for x in xi)
        norm2[(0,) * dim] = 1.0
        self.xi = xi
        self.norm2 = norm2

    def __call__(self, v):
        vhat = np.fft.rfftn(v, axes=self.axes)
        dots = sum(x * vhat[i] for i, x in enumerate(self.xi)) / self.norm2
        out = np.stack([np.broadcast_to(x * dots, dots.shape) for x in self.xi])
        return np.fft.irfftn(out, s=self.shape, axes=self.axes)


def mean_norm(v):
    return float(np.sqrt(np.sum(v * v) / v[0].size))


def unit_load(dim, alpha, shape):
    E = np.zeros((dim,) + tuple(shape))
    E[alpha] = 1.0
    return E


class Checker:
    """Checks homogenizations of one isotropic field ``a``.

    ``residual_factor`` caps the true relative residual ``|R| / |G a E|`` at
    that multiple of the solver tolerance; ``None`` skips the cap (the
    Neumann route stops on its update norm, not on the residual).
    ``exact`` is the known discrete effective tensor, if there is one.
    """

    def __init__(self, a, half_periods, tol, residual_factor=RESIDUAL_FACTOR, exact=None):
        self.a = np.asarray(a, dtype=float)
        self.dim = self.a.ndim
        self.tol = tol
        self.residual_factor = residual_factor
        self.exact = None if exact is None else np.asarray(exact, dtype=float)
        self.project = Projector(self.a.shape, half_periods)
        self.c_A = float(self.a.min())
        self.reuss = float(1.0 / np.mean(1.0 / self.a))
        self.voigt = float(np.mean(self.a))
        self.rhs_norms = [
            mean_norm(self.project(self.a * unit_load(self.dim, alpha, self.a.shape)))
            for alpha in range(self.dim)
        ]

    def check_field(self, applied):
        """``applied[b]`` is the coefficient field applied to the unit
        constant field ``E_b``; it must equal ``a E_b`` exactly."""
        for b in range(self.dim):
            if not np.array_equal(applied[b], self.a * unit_load(self.dim, b, self.a.shape)):
                return [f"coefficient field applied to E_{b} differs from a E_{b}"]
        return []

    def check(self, solutions, A_eff):
        """Return ``(failures, stats)`` for the fluctuations ``solutions[a]``
        of the unit loads and the reported effective tensor."""
        d = self.dim
        A = np.asarray(A_eff, dtype=float)
        failures = []
        if A.shape != (d, d) or not np.all(np.isfinite(A)):
            return [f"effective tensor is not a finite {d}x{d} matrix"], {}
        residuals, fluct_norms, mean_flux, rel_res = [], [], np.empty((d, d)), []
        for alpha in range(d):
            e = np.asarray(solutions[alpha], dtype=float)
            if e.shape != (d,) + self.a.shape or not np.all(np.isfinite(e)):
                return [f"load {alpha}: fluctuation has bad shape or values"], {}
            e_norm = mean_norm(e)
            off = mean_norm(e - self.project(e))
            if off > SUBSPACE * max(e_norm, 1.0):
                failures.append(f"load {alpha}: fluctuation leaves the curl-free "
                                f"mean-free subspace by {off:.3e}")
            flux = self.a * (e + unit_load(d, alpha, self.a.shape))
            R = mean_norm(self.project(flux))
            rel = R / self.rhs_norms[alpha]
            if self.residual_factor is not None and rel > self.residual_factor * self.tol:
                failures.append(f"load {alpha}: true relative residual {rel:.3e} > "
                                f"{self.residual_factor:g} * tol")
            residuals.append(R)
            rel_res.append(rel)
            fluct_norms.append(e_norm)
            mean_flux[alpha] = flux.reshape(d, -1).mean(axis=1)

        scale = float(np.max(np.abs(A)))
        slack = ROUNDING * scale
        R = np.array(residuals)
        if np.max(np.abs(A - A.T)) > slack:
            failures.append(f"effective tensor not symmetric: {A.tolist()}")
        flux_gap = np.abs(A - mean_flux)
        flux_bound = np.outer(R, fluct_norms) + slack
        if np.any(flux_gap > flux_bound):
            failures.append(f"energy form differs from mean flux by {flux_gap.max():.3e}")
        eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
        lower = self.reuss * (1.0 - ROUNDING)
        upper = self.voigt * (1.0 + ROUNDING) + float(np.sum(R * R)) / self.c_A
        if eigs[0] < lower or eigs[-1] > upper:
            failures.append(f"eigenvalues {eigs.tolist()} outside Reuss-Voigt "
                            f"[{self.reuss:.6g}, {self.voigt:.6g}]")
        stats = {"max_rel_residual": max(rel_res), "reuss": self.reuss, "voigt": self.voigt}
        if self.exact is not None:
            err = np.abs(A - self.exact)
            bound = np.outer(R, R) / self.c_A + slack
            if np.any(err > bound):
                failures.append(f"effective tensor off the exact value by {err.max():.3e} "
                                f"(allowed {bound.max():.3e})")
            stats["max_rel_error"] = float(err.max() / np.max(np.abs(self.exact)))
            stats["max_rel_error_bound"] = float(bound.max() / np.max(np.abs(self.exact)))
        return failures, stats
