"""Fourier-space Green operator of a constant reference medium and the
discrete Helmholtz projectors built from it.

Per mode the kernel is the rank-one block

    Gamma_hat(k) = xi(k) (x) xi(k) / <A0 xi(k), xi(k)>,   Gamma_hat(0) = 0,

that is ``n(k) (x) n(k)`` with the unit vector
``n(k) = xi(k) / sqrt(<A0 xi(k), xi(k)>)`` and ``n(0) = 0``.
:class:`GreenOperator` stores ``n`` once and applies

    Gamma0 v = n (n . v_hat),      G0 v = Gamma0 A0 v = n ((A0 n) . v_hat).

G0 is a projection onto the curl-free zero-mean subspace; for scalar
``A0 = lambda I`` it is the orthogonal projection, independent of lambda,
and Gamma0 is that projection divided by lambda.

The fields are real, so their spectra are Hermitian and only the half
lattice ``k_d >= 0`` of ``rfftn`` is transformed and multiplied.  Every
``N_a`` is odd, so there is no Nyquist mode ``k_a = -N_a/2`` without a
partner ``-k`` on the lattice: the discarded half is the conjugate of the
kept one, ``n(-k) = -n(k)`` keeps the product Hermitian, and ``irfftn``
reconstructs the real field exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, frequency, frequency_grid
from .transforms import GridField


@dataclass(frozen=True)
class ReferenceTensor:
    """Constant SPD reference tensor A0.

    ``scalar_mode`` is lambda when the matrix is exactly ``lambda * I``,
    else None; several operators (the orthogonal projector, the projected
    CG system) require it.  ``c_bound`` and ``C_bound`` are the extreme
    eigenvalues of A0.
    """

    matrix: np.ndarray
    scalar_mode: float | None = field(init=False)
    c_bound: float = field(init=False)
    C_bound: float = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"reference tensor must be square, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0, atol=1e-12 * max(1.0, np.abs(m).max())):
            raise ValueError("reference tensor must be symmetric")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] <= 0:
            raise ValueError(f"reference tensor must be positive definite, eigs={eigs}")
        scalar = np.array_equal(m, m[0, 0] * np.eye(len(m)))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "scalar_mode", float(m[0, 0]) if scalar else None)
        object.__setattr__(self, "c_bound", float(eigs[0]))
        object.__setattr__(self, "C_bound", float(eigs[-1]))

    @classmethod
    def scalar(cls, lam, dim):
        return cls(float(lam) * np.eye(dim))

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def contrast(self):
        return self.C_bound / self.c_bound


def gamma_hat(k, ref: ReferenceTensor, spec: GridSpec) -> np.ndarray:
    """Per-mode kernel block; zero matrix at k = 0."""
    if all(int(ki) == 0 for ki in k):
        return np.zeros((spec.dim, spec.dim))
    xi = frequency(spec, k)
    return np.outer(xi, xi) / float(xi @ ref.matrix @ xi)


class GreenOperator:
    """Green operator of one (grid, reference) pair on the half spectrum.

    Built once per homogenization: stores the unit vectors ``n(k)`` on the
    ``rfftn`` half lattice and one complex half-spectrum workspace.  Each
    application runs numpy's per-axis passes of ``rfftn`` in place in the
    workspace, a rank-one multiply per mode, and the passes of ``irfftn``,
    so the output equals ``irfftn(n (n . rfftn(v)))`` bit for bit without
    allocating.  The workspace makes an operator unsafe to share between
    threads.  ``ref=None`` means ``A0 = I``.
    """

    def __init__(self, spec: GridSpec, ref: ReferenceTensor | None = None):
        if ref is None:
            ref = ReferenceTensor.scalar(1.0, spec.dim)
        if ref.dim != spec.dim:
            raise ValueError("reference tensor dimension does not match grid")
        self.spec = spec
        self.ref = ref
        # The first N_d // 2 + 1 storage slots of the last axis hold k_d >= 0.
        xi = frequency_grid(spec)[..., : spec.shape[-1] // 2 + 1]
        scalar = ref.scalar_mode
        # A scalar reference cancels from G0 and scales Gamma0 by 1/lambda.
        metric = np.eye(spec.dim) if scalar else ref.matrix
        denom = np.einsum("a...,ab,b...->...", xi, metric, xi)
        denom[(0,) * spec.dim] = np.inf  # n(0) = 0
        self.n = xi / np.sqrt(denom)
        self.A0n = self.n if scalar else np.einsum("ab,b...->a...", metric, self.n)
        self.gamma_scale = 1.0 / scalar if scalar else 1.0
        self._spectrum = np.empty(self.n.shape, dtype=complex)
        self._dots = np.empty(self.n.shape[1:], dtype=complex)

    def _apply(self, values, right, scale=1.0, out=None):
        """``irfftn(n (scale * right . rfftn(values)))`` into ``out``, which
        may be ``values``; a fresh array when ``out`` is None."""
        spectrum, dots = self._spectrum, self._dots
        d = self.spec.dim
        np.fft.rfft(values, axis=d, out=spectrum)
        for axis in range(d - 1, 0, -1):
            np.fft.fft(spectrum, axis=axis, out=spectrum)
        np.einsum("a...,a...->...", right, spectrum, out=dots)
        dots *= scale
        np.multiply(self.n, dots, out=spectrum)
        for axis in range(1, d):
            np.fft.ifft(spectrum, axis=axis, out=spectrum)
        return np.fft.irfft(spectrum, n=self.spec.shape[-1], axis=d, out=out)

    def gamma0(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``Gamma0 v = n (n . v_hat)`` on a ``(d, *N)`` array."""
        return self._apply(values, self.n, self.gamma_scale, out)

    def G0(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``G0 v = Gamma0 A0 v = n ((A0 n) . v_hat)`` on a ``(d, *N)`` array."""
        return self._apply(values, self.A0n, out=out)


def apply_gamma0(u: GridField, ref: ReferenceTensor) -> GridField:
    """Action of the Green operator Gamma0 (no A0 factor)."""
    return GridField(u.spec, GreenOperator(u.spec, ref).gamma0(u.values))


def apply_G0(u: GridField, ref: ReferenceTensor) -> GridField:
    """Projection G0 = Gamma0 A0 onto the curl-free zero-mean subspace."""
    return GridField(u.spec, GreenOperator(u.spec, ref).G0(u.values))


def project_mean(u: GridField) -> GridField:
    """Projector onto constant fields: the discrete mean, expanded."""
    mean = u.values.reshape(u.spec.dim, -1).mean(axis=1)
    return GridField.constant(u.spec, mean)


def project_J(u: GridField, ref: ReferenceTensor) -> GridField:
    """Projector onto the divergence-free zero-mean subspace.

    Defined by subtraction, ``u - mean(u) - G0 u``, so the three-way
    decomposition sums to the identity exactly.  Requires a scalar
    reference: only then is G0 orthogonal and the complement well-defined.
    """
    if ref.scalar_mode is None:
        raise ValueError("project_J requires a scalar reference tensor (lambda * I)")
    rest = u.values - project_mean(u).values - apply_G0(u, ref).values
    return GridField(u.spec, rest)
