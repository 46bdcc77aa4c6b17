"""DFT in the public coefficient convention of ``SpectralField``,
trigonometric interpolation/truncation and discrete Sobolev norms.

Conventions
-----------
The ``1/|N|`` convention is the public coefficient convention of
``SpectralField``: the forward transform carries the factor,

    u_hat(k) = (1/|N|) sum_m u(x^m) exp(-2 pi i sum_a k_a m_a / N_a),

so the inverse is the plain exponential sum.  The Green operator's passes
use numpy's unitary ``norm="ortho"`` scaling instead; their half-lattice
scalars are not ``SpectralField`` coefficients.  The continuous basis
function attached to index ``k`` is ``phi_k(x) = exp(i pi <xi(k), x>)``
with ``xi(k) = k / Y``; at the grid points ``phi_k(x^m)`` reduces to the
DFT kernel, which is why ``numpy.fft`` applies verbatim on shift-stored
arrays.  Grids are odd, so Hermitian symmetry of real data is preserved
exactly on the reduced lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .grid import GridSpec, coordinate_grid, frequency_grid, underlined_frequency_grid

# Imaginary residue allowed after an inverse transform of Hermitian data,
# relative to max(1, max |real part|).  Anything larger signals broken
# Hermitian symmetry upstream and is treated as an error.
IMAG_RESIDUE = 1e-10


@dataclass(frozen=True)
class GridField:
    """Real d-vector field sampled on the grid, component-major ``(d, *N)``."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expected = (self.spec.dim,) + self.spec.shape
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} != expected {expected}")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, spec):
        return cls(spec, np.zeros((spec.dim,) + spec.shape))

    @classmethod
    def constant(cls, spec, vec):
        vec = np.asarray(vec, dtype=float)
        values = np.broadcast_to(
            vec.reshape((spec.dim,) + (1,) * spec.dim), (spec.dim,) + spec.shape
        ).copy()
        return cls(spec, values)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a trigonometric polynomial, ``(d, *N)`` complex.

    Hermitian symmetry ``coeff(-k) = conj(coeff(k))`` is expected but not
    enforced at construction; :func:`dft_inverse` checks it through the
    imaginary-residue guard.
    """

    spec: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        expected = (self.spec.dim,) + self.spec.shape
        if c.shape != expected:
            raise ValueError(f"coeffs shape {c.shape} != expected {expected}")
        object.__setattr__(self, "coeffs", c)


def _grid_axes(spec):
    return tuple(range(1, spec.dim + 1))


def dft_forward(u: GridField) -> SpectralField:
    """Forward DFT, ``u_hat(k) = (1/|N|) sum_m u(x^m) w^{-km}``."""
    coeffs = np.fft.fftn(u.values, axes=_grid_axes(u.spec)) / u.spec.total
    return SpectralField(u.spec, coeffs)


def _hermitian_real(values: np.ndarray) -> np.ndarray:
    """The real part of values synthesized from Hermitian data; raises
    ValueError when the imaginary residue exceeds ``IMAG_RESIDUE``."""
    real = values.real
    scale = max(1.0, float(np.max(np.abs(real))))
    residue = float(np.max(np.abs(values.imag)))
    if residue > IMAG_RESIDUE * scale:
        raise ValueError(
            f"non-Hermitian spectral data: imaginary residue {residue:.3e} "
            f"exceeds {IMAG_RESIDUE:.1e} * {scale:.3e}"
        )
    return real


def dft_inverse(s: SpectralField) -> GridField:
    """Inverse DFT; rejects inputs whose imaginary residue exceeds tolerance."""
    raw = np.fft.ifftn(s.coeffs, axes=_grid_axes(s.spec)) * s.spec.total
    return GridField(s.spec, _hermitian_real(raw))


def interpolate(f, spec: GridSpec) -> GridField:
    """Sample a continuous d-vector function at the grid points.

    Together with :func:`trig_eval` this realizes the interpolation
    projection onto trigonometric polynomials.  ``f`` is called once per
    grid point, in storage order.
    """
    d = spec.dim
    values = np.empty((d, spec.total))
    for j, x in enumerate(coordinate_grid(spec).reshape(d, -1).T):
        values[:, j] = np.asarray(f(x), dtype=float).reshape(d)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite sample encountered during interpolation")
    return GridField(spec, values.reshape((d,) + spec.shape))


def truncate(fourier_coeffs, spec: GridSpec) -> SpectralField:
    """Keep exactly the modes inside the reduced lattice, discard the rest.

    ``fourier_coeffs`` maps index tuples of ``d`` integers (over any finite
    set) to complex d-vectors; any other key raises ``ValueError``.
    """
    coeffs = np.zeros((spec.dim,) + spec.shape, dtype=complex)
    for k in fourier_coeffs:
        if np.shape(k) != (spec.dim,) or not all(isinstance(ki, Integral) for ki in k):
            raise ValueError(f"mode key {k!r} is not a tuple of {spec.dim} integers")
    # Object entries hold integers of any size; only kept ones become int64.
    keys = np.array(list(fourier_coeffs), dtype=object).reshape(-1, spec.dim).T
    vecs = [np.asarray(v, dtype=complex).reshape(spec.dim) for v in fourier_coeffs.values()]
    n = np.array(spec.shape)[:, np.newaxis]
    inside = np.all((keys >= -(n // 2)) & (keys <= n // 2), axis=0)  # -N/2 <= k < N/2, N odd
    slots = (keys[:, inside] % n).astype(int)
    coeffs[(slice(None),) + tuple(slots)] = np.reshape(vecs, (-1, spec.dim))[inside].T
    return SpectralField(spec, coeffs)


def trig_eval(s: SpectralField, x) -> np.ndarray:
    """Evaluate ``sum_k u_hat(k) phi_k(x)`` at an arbitrary point; real output."""
    d = s.spec.dim
    x = np.asarray(x, dtype=float).reshape((d,) + (1,) * d)
    phase = np.exp(1j * np.pi * np.sum(frequency_grid(s.spec) * x, axis=0))
    return _hermitian_real((s.coeffs * phase).reshape(d, -1).sum(axis=1))


def sobolev_norm(s: SpectralField, order: float) -> float:
    """Discrete H^s norm ``(sum_k |xi_(k)|^{2s} |u_hat(k)|^2)^{1/2}``.

    Uses the underlined frequency (the all-ones vector) at k = 0, so for
    d > 1 the constant mode is weighted by ``d^{s/2}``; see the README note
    on the constant-mode weight.
    """
    if order < 0:
        raise ValueError(f"Sobolev order must be >= 0, got {order}")
    xiu = underlined_frequency_grid(s.spec)
    weight = np.sum(xiu**2, axis=0) ** order
    energy = np.sum(np.abs(s.coeffs) ** 2, axis=0)
    return float(np.sqrt(np.sum(weight * energy)))


def l2_inner(u: GridField, v: GridField) -> float:
    """Discrete mean inner product ``(1/|N|) sum_k <u^k, v^k>``.

    Equals the L2 inner product of the corresponding trigonometric
    polynomials (grid-value isometry).
    """
    if u.spec != v.spec:
        raise ValueError("grid specs do not match")
    return float(np.sum(u.values * v.values) / u.spec.total)


def l2_norm(u: GridField) -> float:
    """Discrete mean L2 norm ``sqrt(l2_inner(u, u))`` without overflow or
    underflow: the field is scaled by the power of two of its max-abs entry
    before squaring.  Power-of-two scaling is exact, so wherever the plain
    formula stays in range the result is the same bit for bit.
    """
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0 or not np.isfinite(peak):
        return peak
    exponent = int(np.frexp(peak)[1])
    v = np.ldexp(u.values, -exponent)
    return float(np.ldexp(np.sqrt(np.sum(v * v) / u.spec.total), exponent))


def spectral_inner(a: SpectralField, b: SpectralField) -> float:
    """Plancherel sum ``sum_k <a_hat(k), b_hat(k)>`` (real part)."""
    if a.spec != b.spec:
        raise ValueError("grid specs do not match")
    return float(np.sum(a.coeffs * np.conj(b.coeffs)).real)


def interpolation_constant(r: float, s: float, dim: int):
    """Constant ``c_{r,s}`` of the interpolation error bound.

    Evaluates ``1 + d^r rho_h^{2r} S`` with rho_h = 1 and
    ``S = sum_{m in N_0^d \\ 0} |m|^{-2s}`` by direct summation over
    ``|m|_inf <= M``, growing M until the integral-comparison tail bound
    drops below 1e-6 of the partial sum.  Requires ``s > d/2``; raises
    ValueError when the bound is not met before the box exceeds 2**24 points.

    Returns the constant for unit spacing ratio; multiply the lattice-sum
    term by ``rho_h^{2r}`` externally for anisotropic grids.
    """
    if 2 * s <= dim:
        raise ValueError(f"lattice sum diverges: need s > d/2, got s={s}, d={dim}")
    M = 8
    while True:
        if (M + 1) ** dim > 2**24:
            raise ValueError(f"lattice sum for r={r}, s={s}, d={dim} needs over 2**24 points")
        axes = [np.arange(0, M + 1)] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        norm2 = sum(m.astype(float) ** 2 for m in mesh)
        norm2[(0,) * dim] = np.inf
        partial = float(np.sum(norm2 ** (-s)))
        # Integral comparison over the region outside the |m|_inf <= M box:
        # sum_{|m|_inf > M} |m|^{-2s} <= d * int_{|t| > M} ... <= c M^{d - 2s}.
        tail = dim * (2.0**dim) * M ** (dim - 2 * s) / (2 * s - dim)
        if tail < 1e-6 * partial:
            return float(np.sqrt(1.0 + dim**r * partial))
        M *= 2
