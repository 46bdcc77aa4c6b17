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
need no explicit shifting.  :func:`axis_indices` writes the map out for
one axis, and :func:`axis_grid` broadcasts one 1-D vector per axis into
the ``(d, *N)`` arrays: the indices, the grid points ``x^k = (k_a h_a)_a``
and the frequencies ``xi(k) = k / Y``, on the whole lattice or on the
``rfftn`` half lattice.
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


def axis_indices(n):
    """Centered integer index ``k`` held by each of the ``n`` storage slots
    of one axis, per the storage-order map."""
    return np.fft.fftfreq(n, d=1.0 / n).round().astype(int)


def axis_grid(vectors):
    """The ``(d, *shape)`` array whose component ``a`` holds ``vectors[a][i]``
    at every slot ``i`` along axis ``a``: one 1-D vector per axis, broadcast
    into a single array, with no full-lattice temporary."""
    dim = len(vectors)
    out = np.empty((dim,) + tuple(len(v) for v in vectors), dtype=np.result_type(*vectors))
    for axis, v in enumerate(vectors):
        out[axis] = v.reshape([-1 if a == axis else 1 for a in range(dim)])
    return out


def index_grid(spec):
    """Centered integer indices per axis, shape ``(d, *N)``: slot ``i``
    along axis ``a`` holds ``k_a`` per the storage-order map."""
    return axis_grid([axis_indices(n) for n in spec.shape])


def coordinate_grid(spec):
    """Grid points ``x^k = (k_a h_a)_a`` for the whole lattice, shape
    ``(d, *N)``."""
    return axis_grid([axis_indices(n) * h for n, h in zip(spec.shape, spec.spacings)])


def frequency_grid(spec):
    """Frequency vectors ``xi(k) = k / Y`` for the whole lattice, shape
    ``(d, *N)``."""
    return axis_grid([axis_indices(n) / y for n, y in zip(spec.shape, spec.half_periods)])


def half_frequency_grid(spec):
    """Frequency vectors ``xi(k)`` on the ``rfftn`` half lattice, shape
    ``(d, *N[:-1], N_d // 2 + 1)``: the first ``N_d // 2 + 1`` slots of the
    last axis, which hold ``k_d >= 0``."""
    vectors = [axis_indices(n) / y for n, y in zip(spec.shape, spec.half_periods)]
    vectors[-1] = vectors[-1][: spec.shape[-1] // 2 + 1]
    return axis_grid(vectors)


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
