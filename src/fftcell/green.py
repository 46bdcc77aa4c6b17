"""Fourier-space Green operator of a constant reference medium and the
discrete Helmholtz projectors built from it.

Per mode the kernel is the rank-one block

    Gamma_hat(k) = xi (x) xi / <A0 xi, xi> = n(k) gamma_scale(k) n(k)^T

with the grid's direction ``n(k) = xi(k) / |xi(k)|``, ``n(0) = 0``, and the
reference scale ``gamma_scale(k) = 1 / <A0 n(k), n(k)>``: the float
``1/lambda`` for ``A0 = lambda I``, else one value per mode, 0 at ``k = 0``.
``G0 = Gamma0 A0`` projects onto the curl-free zero-mean subspace, the range
of Gamma0 for every A0; for a scalar reference it is the orthogonal
projection, Gamma0 of ``A0 = I`` whatever lambda.

The fields are real, so only the half lattice ``k_d >= 0`` of ``rfftn`` is
transformed and multiplied.  Every ``N_a`` is odd, so each mode has its
partner ``-k`` on the lattice: ``n(-k) = -n(k)`` keeps the product
Hermitian and ``irfftn`` reconstructs the real field exactly.

Every FFT pass uses ``norm="ortho"``: numpy scales a ``"backward"``
forward pass by the Python int 1, which sends a float32 array through the
float64 loop, and one scale serves the operator and its float32 twin
(:meth:`GreenOperator.single`) alike.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, half_frequency_grid
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
        if not np.all(np.isfinite(m)):
            raise ValueError("reference tensor entries must be finite")
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
        return cls(np.diag(np.full(dim, float(lam))))

    @property
    def dim(self):
        return self.matrix.shape[0]


class GreenOperator:
    """Green operator of one (grid, reference) pair on the half spectrum.

    Built once per homogenization and only read afterwards: stores ``n``
    and ``gamma_scale`` on the ``rfftn`` half lattice.  The range of
    ``Gamma0`` is the set of fields ``irfftn(n s)``, one complex scalar
    ``s(k)`` per half-lattice mode, and :meth:`gamma0` is applied in two
    halves that the solvers also call on their own, each in a complex half
    ``spectrum`` of the caller's (a fresh one when None):

    * :meth:`analyze` runs numpy's per-axis passes of ``rfftn`` in place in
      the spectrum and takes ``s = gamma_scale (n . v_hat)``, the dot
      product accumulated in the spectrum's first row;
    * :meth:`synthesize` forms ``n s`` in the spectrum and runs the passes
      of ``irfftn`` into a real ``(d, *N)`` field.

    Their composition equals ``irfftn(n (gamma_scale (n . rfftn(v))))``,
    both ``norm="ortho"``, bit for bit.  :meth:`inner` is the mean inner
    product of two synthesized fields, computed on the scalars.  A tensor
    reference adds only the real per-mode ``gamma_scale`` to what a scalar
    one keeps.  Solves that pass spectra of their own share an operator
    across threads.  ``ref=None`` means ``A0 = I``.
    """

    def __init__(self, spec: GridSpec, ref: ReferenceTensor | None = None):
        if ref is None:
            ref = ReferenceTensor.scalar(1.0, spec.dim)
        if ref.dim != spec.dim:
            raise ValueError("reference tensor dimension does not match grid")
        self.spec = spec
        self.ref = ref
        xi = half_frequency_grid(spec)
        norm2 = np.einsum("a...,a...->...", xi, xi)
        norm2.flat[0] = np.inf  # n(0) = 0
        self.n = np.divide(xi, np.sqrt(norm2, out=norm2), out=xi)
        del norm2  # the construction peaks at what the operator keeps
        if ref.scalar_mode:
            self.gamma_scale = 1.0 / ref.scalar_mode
        else:
            scale = np.einsum("a...,ab,b...->...", self.n, ref.matrix, self.n)
            scale.flat[0] = np.inf  # gamma_scale(0) = 0
            self.gamma_scale = np.reciprocal(scale, out=scale)

    def single(self) -> GreenOperator:
        """The float32 twin of the operator of ``A0 = I``, the orthogonal
        projector G; Gamma0 of a scalar reference ``lambda I`` is
        ``G / lambda``, so a caller folds ``1/lambda`` into its float32
        coefficients.

        The twin keeps ``n`` as float32, a quarter of a ``(d, *N)`` float64
        field.  Given float32 fields, complex128 scalars and a complex64
        spectrum, :meth:`synthesize` and :meth:`analyze` run the FFT passes
        in single precision, and :meth:`analyze` accumulates ``n . v_hat``
        in complex64 too; only the final multiply widens the scalars to
        complex128.
        """
        if not self.ref.scalar_mode:
            raise ValueError("a float32 twin needs a scalar reference")
        twin = copy.copy(self)
        twin.ref = ReferenceTensor.scalar(1.0, self.spec.dim)
        twin.gamma_scale = 1.0
        twin.n = self.n.astype(np.float32)
        return twin

    def scratch(self) -> np.ndarray:
        """A fresh complex half spectrum in the precision of ``n``."""
        return np.empty(self.n.shape, np.result_type(self.n, np.complex64))

    def analyze(self, values, out=None, spectrum=None):
        """The half-lattice scalars ``gamma_scale (n . rfftn(values))`` of
        ``Gamma0 values``, into ``out`` (a fresh array when None)."""
        spectrum = self.scratch() if spectrum is None else spectrum
        d = self.spec.dim
        np.fft.rfft(values, axis=d, out=spectrum, norm="ortho")
        for axis in range(d - 1, 0, -1):
            np.fft.fft(spectrum, axis=axis, out=spectrum, norm="ortho")
        dots = np.multiply(self.n, spectrum, out=spectrum)[0]
        for row in spectrum[1:]:
            dots += row
        return np.multiply(dots, self.gamma_scale, out=out, dtype=complex)

    def synthesize(self, s, out=None, spectrum=None):
        """The real field ``irfftn(n s)`` into ``out`` (a fresh ``(d, *N)``
        array when None)."""
        spectrum = self.scratch() if spectrum is None else spectrum
        np.multiply(self.n, s, out=spectrum)
        for axis in range(1, self.spec.dim):
            np.fft.ifft(spectrum, axis=axis, out=spectrum, norm="ortho")
        return np.fft.irfft(
            spectrum, n=self.spec.shape[-1], axis=self.spec.dim, out=out, norm="ortho"
        )

    def inner(self, s, t) -> float:
        """Mean inner product ``(1/|N|) sum_x u(x) . v(x)`` of the fields
        ``u``, ``v`` that :meth:`synthesize` makes of ``s``, ``t``.

        The passes are unitary, so by Plancherel it is
        ``(1/|N|) sum_k conj(s(k)) t(k)`` over the whole lattice, as
        ``|n(k)| = 1`` off the mean mode, where every analyzed scalar
        vanishes.  The modes ``k_d < 0`` are the conjugates
        of the ``k_d > 0`` ones, so the half-lattice sum is counted twice
        and its ``k_d = 0`` plane, which holds its own conjugates, once.
        """
        total = 2.0 * np.vdot(s, t).real - np.vdot(s[..., 0], t[..., 0]).real
        return float(total / self.spec.total)

    def gamma0(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``Gamma0 v = n gamma_scale (n . v_hat)`` on a ``(d, *N)`` array;
        ``out`` may be ``values``."""
        return self.synthesize(self.analyze(values), out)


def narrow_view(array: np.ndarray, dtype) -> np.ndarray:
    """The leading bytes of the C-contiguous ``array`` reinterpreted as an
    array of the same shape and the narrower ``dtype``: a float32 view of
    a float64 buffer, or a complex64 view of a complex128 one."""
    if not array.flags.c_contiguous:
        raise ValueError("narrow_view needs a C-contiguous array")
    flat = array.reshape(-1).view(dtype)
    return flat[: array.size].reshape(array.shape)


def apply_G0(u: GridField, ref: ReferenceTensor) -> GridField:
    """Projection ``G0 = Gamma0 A0`` onto the curl-free zero-mean subspace;
    Gamma0 of ``A0 = I`` for every scalar reference ``lambda I``."""
    if ref.scalar_mode:
        return GridField(u.spec, GreenOperator(u.spec).gamma0(u.values))
    A0u = np.einsum("ab,b...->a...", ref.matrix, u.values)
    return GridField(u.spec, GreenOperator(u.spec, ref).gamma0(A0u))


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
