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

    def sample(self, spec: GridSpec) -> CoefficientField:
        if spec.dim != self.dim:
            raise ValueError(
                f"family {self.name!r} is {self.dim}-dimensional, grid is {spec.dim}"
            )
        if self.vectorized:
            return CoefficientField.isotropic(spec, self.sampler(coordinate_grid(spec)))
        return sample_analytic(self.sampler, spec)

    def default_spec(self, shape) -> GridSpec:
        return GridSpec(self.default_half_periods, tuple(shape))


def homogeneous(value, dim=2):
    value = float(value)
    if value <= 0:
        raise ValueError("homogeneous coefficient must be positive")
    return Family(
        name=f"homogeneous({value:g})",
        dim=dim,
        sampler=lambda x: np.full(np.shape(x)[1:], value),
        regularity="smooth",
        default_half_periods=(1.0,) * dim,
        vectorized=True,
    )


def sine_1d():
    """A(x) = 3 + 2 sin(pi x) on the cell [-1, 1].

    The exact effective coefficient is the harmonic mean
    1 / <1/A> = sqrt(3^2 - 2^2) = sqrt(5).
    """
    return Family(
        name="sine1d",
        dim=1,
        sampler=lambda x: 3.0 + 2.0 * np.sin(np.pi * x[0]),
        regularity="smooth",
        default_half_periods=(1.0,),
        vectorized=True,
    )


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

    return Family(
        name=f"inclusion-smooth({contrast:g})",
        dim=2,
        sampler=sampler,
        regularity="smooth",
        default_half_periods=(1.0, 1.0),
        vectorized=True,
    )


def disk_inclusion_2d(a_matrix, a_inclusion, radius=0.5):
    """Two-phase disk inclusion on the cell [-1, 1]^2."""
    a_matrix, a_inclusion = float(a_matrix), float(a_inclusion)
    if a_matrix <= 0 or a_inclusion <= 0:
        raise ValueError("phase coefficients must be positive")

    def sampler(x):
        inside = x[0] ** 2 + x[1] ** 2 < radius**2
        return np.where(inside, a_inclusion, a_matrix)

    return Family(
        name=f"inclusion-disk({a_matrix:g},{a_inclusion:g})",
        dim=2,
        sampler=sampler,
        regularity="low-regularity",
        default_half_periods=(1.0, 1.0),
        vectorized=True,
    )


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

    return Family(
        name=f"checkerboard({a1:g},{a2:g})",
        dim=2,
        sampler=sampler,
        regularity="low-regularity",
        default_half_periods=(1.0, 1.0),
        vectorized=True,
    )


def parse_family(text):
    """Parse a CLI family string like ``checkerboard:1,100`` or ``sine1d``."""
    name, _, args = text.partition(":")
    params = [float(p) for p in args.split(",") if p] if args else []
    name = name.strip().lower()
    try:
        if name == "homogeneous":
            return homogeneous(*params) if params else homogeneous(1.0)
        if name == "sine1d":
            return sine_1d()
        if name == "inclusion":
            return smooth_inclusion_2d(*params)
        if name == "disk":
            return disk_inclusion_2d(*params)
        if name == "checkerboard":
            return checkerboard_2d(*params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {name!r}: {args!r}") from exc
    raise ValueError(
        f"unknown family {name!r}; known: homogeneous, sine1d, inclusion, "
        "disk, checkerboard"
    )
