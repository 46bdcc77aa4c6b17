"""Built-in analytic coefficient families.

Every acceptance benchmark runs off one of these, so no external data is
needed.  A family bundles a pointwise sampler with its natural dimension
and a regularity label ("smooth" or "low-regularity"); the label selects
the expected convergence behavior in the analysis harness, since smoothness
cannot be verified from samples.

The built-in samplers are written once with numpy broadcasting: the same
function takes one point ``(d,)`` or the whole coordinate grid ``(d, *N)``
and returns the isotropic coefficient ``a(x)`` in the matching shape, so a
built-in family samples in one call.  Families made with a per-point
sampler (``vectorized=False``, the default) are sampled point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, coordinate_grid
from .material import CoefficientField, sample_analytic


@dataclass(frozen=True)
class Family:
    name: str
    dim: int
    sampler: callable
    regularity: str  # "smooth" | "low-regularity"
    default_half_periods: tuple
    vectorized: bool = False  # sampler maps a (d, *N) grid to (*N) scalars

    def _check_axes(self, axes):
        if axes != self.dim:
            raise ValueError(f"family {self.name!r} is {self.dim}-dimensional, grid has {axes} axes")

    def sample(self, spec: GridSpec) -> CoefficientField:
        self._check_axes(spec.dim)
        if self.vectorized:
            return CoefficientField.isotropic(spec, self.sampler(coordinate_grid(spec)))
        return sample_analytic(self.sampler, spec)

    def default_spec(self, shape) -> GridSpec:
        shape = tuple(shape)
        self._check_axes(len(shape))
        return GridSpec(self.default_half_periods, shape)


def _built_in(name, sampler, regularity, dim=2):
    """A built-in family: a vectorized sampler on the cell ``[-1, 1]^d``."""
    return Family(name, dim, sampler, regularity, (1.0,) * dim, vectorized=True)


def homogeneous(value=1.0, dim=2):
    value = float(value)
    if value <= 0:
        raise ValueError("homogeneous coefficient must be positive")
    return _built_in(f"homogeneous({value:g})", lambda x: np.full(np.shape(x)[1:], value), "smooth", dim)


def sine_1d():
    """A(x) = 3 + 2 sin(pi x) on the cell [-1, 1].

    The exact effective coefficient is the harmonic mean
    1 / <1/A> = sqrt(3^2 - 2^2) = sqrt(5).
    """
    return _built_in("sine1d", lambda x: 3.0 + 2.0 * np.sin(np.pi * x[0]), "smooth", 1)


def smooth_inclusion_2d(contrast):
    """Smooth periodic inclusion: a = 1 + (contrast - 1) * bump(x).

    bump(x) = prod (1 + cos(pi x_a)) / 2 on the cell [-1, 1]^2, so the
    coefficient is analytic with bounds [1, contrast].
    """
    contrast = float(contrast)
    if contrast < 1:
        raise ValueError("contrast must be >= 1")

    def sampler(x):
        bump = np.prod((1.0 + np.cos(np.pi * np.asarray(x))) / 2.0, axis=0)
        return 1.0 + (contrast - 1.0) * bump

    return _built_in(f"inclusion-smooth({contrast:g})", sampler, "smooth")


def disk_inclusion_2d(a_matrix, a_inclusion, radius=0.5):
    """Two-phase disk inclusion on the cell [-1, 1]^2."""
    a_matrix, a_inclusion = float(a_matrix), float(a_inclusion)
    if a_matrix <= 0 or a_inclusion <= 0:
        raise ValueError("phase coefficients must be positive")

    def sampler(x):
        inside = x[0] ** 2 + x[1] ** 2 < radius**2
        return np.where(inside, a_inclusion, a_matrix)

    return _built_in(f"inclusion-disk({a_matrix:g},{a_inclusion:g})", sampler, "low-regularity")


def checkerboard_2d(a1, a2):
    """Quadrant checkerboard on [-1, 1]^2; a1 where x1 * x2 > 0, a2 where
    x1 * x2 < 0, and the geometric mean on the measure-zero interface
    lines that odd grids sample exactly.

    The exact effective coefficient is sqrt(a1 a2) * I by the classical
    duality argument; the geometric-mean interface value preserves that
    duality in the discrete problem (assigning either phase there biases
    the result badly).
    """
    a1, a2 = float(a1), float(a2)
    if a1 <= 0 or a2 <= 0:
        raise ValueError("phase coefficients must be positive")
    interface = float(np.sqrt(a1 * a2))

    def sampler(x):
        s = np.sign(x[0]) * np.sign(x[1])
        return np.where(s > 0, a1, np.where(s < 0, a2, interface))

    return _built_in(f"checkerboard({a1:g},{a2:g})", sampler, "low-regularity")


# The names ``parse_family`` reads: ``name:p1,p2`` calls the constructor
# with the floats p1, p2.
FAMILIES = {
    "homogeneous": homogeneous,
    "sine1d": sine_1d,
    "inclusion": smooth_inclusion_2d,
    "disk": disk_inclusion_2d,
    "checkerboard": checkerboard_2d,
}


def parse_family(text):
    """Parse a CLI family string like ``checkerboard:1,100`` or ``sine1d``."""
    name, _, args = text.partition(":")
    name = name.strip().lower()
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILIES)}")
    bad = f"bad parameters for family {name!r}: {args!r}"
    try:
        params = [float(p) for p in args.split(",") if p]
    except ValueError as exc:
        raise ValueError(bad) from exc
    try:
        return FAMILIES[name](*params)
    except TypeError as exc:
        raise ValueError(bad) from exc
