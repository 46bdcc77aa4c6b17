"""Periodic cell, odd regular grid and the reduced frequency lattice.

The cell is the box ``prod_a [-Y_a, Y_a]`` discretized by an odd regular grid
of shape ``N`` with spacings ``h_a = 2 Y_a / N_a``.  Frequency indices ``k``
live on the reduced lattice ``-N_a/2 <= k_a < N_a/2``; because every ``N_a``
is odd the lattice is symmetric about the origin, which is what keeps all
discrete operators Hermitian-symmetric.

Storage order
-------------
Grid-shaped arrays are stored row-major over the axes in declared order with
the frequency index FFT-shifted: array slot ``i_a`` holds the centered index

    k_a = i_a              for i_a <= (N_a - 1) / 2,
    k_a = i_a - N_a        otherwise,

i.e. slot 0 holds ``k = 0``.  This is the standard ``numpy.fft`` layout
(``np.fft.fftfreq(N, d=1/N)`` enumerates exactly this map), so transforms
need no explicit shifting.  The same slot map positions grid points
``x^k = (k_a h_a)_a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Immutable description of the periodic cell and its odd grid.

    Parameters
    ----------
    half_periods : tuple of float
        Finite cell half-periods ``Y_a > 0``; the cell is ``prod [-Y_a, Y_a]``.
    shape : tuple of int
        Grid sizes ``N_a``, each positive and odd.
    """

    half_periods: tuple
    shape: tuple
    spacings: tuple = field(init=False)
    total: int = field(init=False, repr=False)  # number of grid points |N|

    def __post_init__(self):
        Y = tuple(float(y) for y in self.half_periods)
        N = tuple(int(n) for n in self.shape)
        if len(Y) != len(N) or len(N) == 0:
            raise ValueError("half_periods and shape must have equal, positive length")
        if not all(0 < y < math.inf for y in Y):
            raise ValueError(f"half_periods must be positive and finite, got {Y}")
        if N != tuple(self.shape) or any(n <= 0 or n % 2 == 0 for n in N):
            raise ValueError(
                f"grid shape must consist of positive odd integers, got {self.shape}"
            )
        object.__setattr__(self, "half_periods", Y)
        object.__setattr__(self, "shape", N)
        object.__setattr__(
            self, "spacings", tuple(2.0 * y / n for y, n in zip(Y, N))
        )
        object.__setattr__(self, "total", math.prod(N))

    @property
    def dim(self):
        return len(self.shape)

    @property
    def c_h(self):
        return min(self.spacings)

    @property
    def C_h(self):
        return max(self.spacings)

    @property
    def rho_h(self):
        return self.C_h / self.c_h


def in_lattice(spec, k):
    """Membership of an integer vector in the reduced lattice."""
    k = tuple(int(ki) for ki in k)
    if len(k) != spec.dim:
        return False
    return all(-n / 2 <= ki < n / 2 for ki, n in zip(k, spec.shape))


def grid_point(spec, k):
    """Grid point ``x^k = (k_a h_a)_a`` for k in the reduced lattice."""
    if not in_lattice(spec, k):
        raise ValueError(f"index {tuple(k)} outside the reduced lattice for {spec.shape}")
    return np.array([ki * h for ki, h in zip(k, spec.spacings)])


def frequency(spec, k):
    """Frequency vector ``xi(k) = (k_a / Y_a)_a`` for any integer vector k."""
    return np.array([ki / y for ki, y in zip(k, spec.half_periods)], dtype=float)


def underlined_frequency(spec, k):
    """Like :func:`frequency` but the all-ones vector at k = 0."""
    if all(int(ki) == 0 for ki in k):
        return np.ones(spec.dim)
    return frequency(spec, k)


def slot_to_index(spec, slot):
    """Centered frequency index held in an array slot (the FFT-shift map)."""
    return tuple(i if i <= (n - 1) // 2 else i - n for i, n in zip(slot, spec.shape))


def index_to_slot(spec, k):
    """Array slot holding centered index k; inverse of :func:`slot_to_index`."""
    if not in_lattice(spec, k):
        raise ValueError(f"index {tuple(k)} outside the reduced lattice for {spec.shape}")
    return tuple(int(ki) % n for ki, n in zip(k, spec.shape))


def iter_lattice(spec):
    """Enumerate the reduced lattice once, in array storage order."""
    for slot in np.ndindex(*spec.shape):
        yield slot_to_index(spec, slot)


def index_grid(spec):
    """Centered integer indices per axis, shaped for broadcasting.

    Returns an array of shape ``(d, *N)`` whose slot ``i`` along axis ``a``
    holds ``k_a`` per the storage-order map.
    """
    axes = [np.fft.fftfreq(n, d=1.0 / n).round().astype(int) for n in spec.shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh)


def coordinate_grid(spec):
    """Grid points ``x^k`` for the whole lattice, shape ``(d, *N)``; equal to
    :func:`grid_point` slot by slot, bit for bit."""
    h = np.array(spec.spacings).reshape((spec.dim,) + (1,) * spec.dim)
    return index_grid(spec) * h


def frequency_grid(spec):
    """Frequency vectors ``xi(k)`` for the whole lattice, shape ``(d, *N)``."""
    ks = index_grid(spec).astype(float)
    Y = np.array(spec.half_periods).reshape((spec.dim,) + (1,) * spec.dim)
    return ks / Y


def underlined_frequency_grid(spec):
    """Lattice frequencies with the k = 0 slot replaced by the ones vector."""
    xi = frequency_grid(spec)
    zero = (slice(None),) + (0,) * spec.dim
    xi[zero] = 1.0
    return xi


def next_fast_odd(n):
    """Smallest odd grid size ``>= n`` whose prime factors all lie in
    {3, 5, 7}; FFTs on such sizes are fast, while a large prime factor
    (95 = 5 * 19) makes them slow."""
    if n < 1:
        raise ValueError(f"grid size must be positive, got {n}")
    m = math.ceil(n) | 1
    while True:
        rest = m
        for p in (3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 2
