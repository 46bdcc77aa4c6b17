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

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, frequency, frequency_grid
from .transforms import GridField


@dataclass(frozen=True)
class ReferenceTensor:
    """Constant SPD reference tensor A0.

    ``scalar_mode`` is set when A0 = lambda * I; several operators (the
    orthogonal projector, the projected CG system) require it.
    """

    matrix: np.ndarray
    scalar_mode: float | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"reference tensor must be square, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0, atol=1e-12 * max(1.0, np.abs(m).max())):
            raise ValueError("reference tensor must be symmetric")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] <= 0:
            raise ValueError(f"reference tensor must be positive definite, eigs={eigs}")
        object.__setattr__(self, "matrix", m)
        if self.scalar_mode is not None:
            lam = float(self.scalar_mode)
            if lam <= 0 or not np.allclose(m, lam * np.eye(m.shape[0])):
                raise ValueError("scalar_mode inconsistent with matrix")
            object.__setattr__(self, "scalar_mode", lam)

    @classmethod
    def scalar(cls, lam, dim):
        lam = float(lam)
        return cls(lam * np.eye(dim), scalar_mode=lam)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def c_bound(self):
        return float(np.linalg.eigvalsh(self.matrix)[0])

    @property
    def C_bound(self):
        return float(np.linalg.eigvalsh(self.matrix)[-1])

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

    Built once per solve: stores the unit vectors ``n(k)`` on the
    ``rfftn`` half lattice; each application is one ``rfftn``, a rank-one
    multiply per mode and one ``irfftn``.  ``ref=None`` means ``A0 = I``.
    """

    def __init__(self, spec: GridSpec, ref: ReferenceTensor | None = None):
        if ref is not None and ref.dim != spec.dim:
            raise ValueError("reference tensor dimension does not match grid")
        self.spec = spec
        self.axes = tuple(range(1, spec.dim + 1))
        # The first N_d // 2 + 1 storage slots of the last axis hold k_d >= 0.
        xi = frequency_grid(spec)[..., : spec.shape[-1] // 2 + 1]
        scalar = None if ref is None else ref.scalar_mode
        general = ref is not None and scalar is None
        # A scalar reference cancels from G0 and scales Gamma0 by 1/lambda.
        metric = ref.matrix if general else np.eye(spec.dim)
        denom = np.einsum("a...,ab,b...->...", xi, metric, xi)
        denom[(0,) * spec.dim] = np.inf  # n(0) = 0
        self.n = xi / np.sqrt(denom)
        self.A0n = np.einsum("ab,b...->a...", metric, self.n) if general else self.n
        self.gamma_scale = 1.0 if scalar is None else 1.0 / scalar

    def _apply(self, values, right, scale=1.0):
        """``irfftn(n (scale * right . rfftn(values)))``."""
        vhat = np.fft.rfftn(values, axes=self.axes)
        dots = np.einsum("a...,a...->...", right, vhat)
        dots *= scale
        np.multiply(self.n, dots, out=vhat)
        return np.fft.irfftn(vhat, s=self.spec.shape, axes=self.axes)

    def gamma0(self, values: np.ndarray) -> np.ndarray:
        """``Gamma0 v = n (n . v_hat)`` on a ``(d, *N)`` array."""
        return self._apply(values, self.n, self.gamma_scale)

    def G0(self, values: np.ndarray) -> np.ndarray:
        """``G0 v = Gamma0 A0 v = n ((A0 n) . v_hat)`` on a ``(d, *N)`` array."""
        return self._apply(values, self.A0n)


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
