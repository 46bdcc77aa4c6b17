"""The benchmark's workloads: inputs made from a seed, the timed set-up and
the solver configuration of each, and the checker that verifies them.

Imports fftcell, so the caller puts the checkout's ``src`` on the path first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fftcell import CoefficientField, GridField, GridSpec, SolverConfig, apply_A, load_voxel
from fftcell.families import Family, checkerboard_2d

from check import RESIDUAL_FACTOR, Checker, grid_coordinates

# Spheres: contrast 10 in a unit matrix, volume fraction about 0.25.
SPHERE_RADIUS = 0.3
SPHERE_COUNT = 18
SPHERE_CONTRAST = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple
    method: str
    tol: float
    max_iter: int
    setups_per_round: int  # set-ups timed per homogenization, to even out the samples
    contrast: float = 0.0  # checkerboard phase ratio a2 / a1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("checkerboard-2d", (243, 243), "cg", 1e-6, 1000, 1, contrast=100.0),
        Workload("spheres-3d", (49, 49, 49), "cg", 1e-6, 1000, 4),
        Workload("neumann-2d", (81, 81), "neumann", 1e-6, 20000, 8, contrast=1000.0),
    )
}


@dataclass
class Prepared:
    """Inputs of one run: what set-up builds, and how to check it."""

    seed: int
    spec: GridSpec
    setup: callable  # workload description -> validated CoefficientField
    family: Family  # the same field as a pointwise family
    voxel_path: Path  # the same field as an isotropic voxel file
    cfg: SolverConfig
    checker: Checker
    description: dict
    field: CoefficientField | None = None  # the last field set up


def write_isotropic_voxel(path, spec, scalars):
    """Write ``scalars`` in the documented voxel format (header + f64le)."""
    header = {
        "dim": spec.dim,
        "shape": list(spec.shape),
        "half_periods": list(spec.half_periods),
        "kind": "isotropic",
        "dtype": "f64le",
        "order": "row-major-shifted",
    }
    path.with_suffix(".json").write_text(json.dumps(header) + "\n")
    np.ascontiguousarray(scalars, dtype="<f8").tofile(path.with_suffix(".bin"))


def _checkerboard(w, rng):
    # The seed picks an exact power-of-two scale and the phase order (a
    # reflection of the cell); both leave the iterates equal up to rounding
    # and the exact value sqrt(a1 a2) exactly representable.
    scale = 2.0 ** int(rng.integers(-3, 4))
    phases = [scale, w.contrast * scale]
    if rng.integers(0, 2):
        phases.reverse()
    a1, a2 = phases
    spec = GridSpec((1.0, 1.0), w.shape)
    x1, x2 = grid_coordinates(w.shape, spec.half_periods)
    s = np.sign(x1) * np.sign(x2)
    scalars = np.where(s > 0, a1, np.where(s < 0, a2, np.sqrt(a1 * a2)))
    family = checkerboard_2d(a1, a2)
    exact = np.sqrt(a1 * a2) * np.eye(2)
    return spec, scalars, family, exact, {"a1": a1, "a2": a2}


def place_spheres(rng, count, radius, gap):
    """Random sequential addition of equal spheres in the periodic cell
    [-1, 1)^3, centres at least ``2 radius + gap`` apart (minimum image)."""
    centres = np.empty((0, 3))
    for _ in range(100000):
        c = rng.uniform(-1.0, 1.0, 3)
        d = (centres - c + 1.0) % 2.0 - 1.0
        if np.all(np.sum(d * d, axis=1) >= (2 * radius + gap) ** 2):
            centres = np.vstack([centres, c])
            if len(centres) == count:
                return centres
    raise RuntimeError("sphere packing did not finish")


def sphere_scalars(centres, radius, coords):
    """Contrast inside any sphere, 1 outside; coords broadcast like a grid."""
    inside = False
    for c in centres:
        d = [(x - ci + 1.0) % 2.0 - 1.0 for x, ci in zip(coords, c)]
        inside = inside | (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < radius * radius)
    return np.where(inside, SPHERE_CONTRAST, 1.0)


def sphere_point(centres, radius, x):
    """``sphere_scalars`` at one point, with the same arithmetic."""
    d = (x - centres + 1.0) % 2.0 - 1.0
    inside = np.any(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] < radius * radius)
    return SPHERE_CONTRAST if inside else 1.0


def _spheres(w, rng):
    spec = GridSpec((1.0, 1.0, 1.0), w.shape)
    # A gap of one grid spacing keeps any voxel from lying in two spheres.
    centres = place_spheres(rng, SPHERE_COUNT, SPHERE_RADIUS, spec.spacings[0])
    scalars = sphere_scalars(centres, SPHERE_RADIUS, grid_coordinates(w.shape, spec.half_periods))
    family = Family(
        name="spheres",
        dim=3,
        sampler=lambda x: sphere_point(centres, SPHERE_RADIUS, x),
        regularity="low-regularity",
        default_half_periods=spec.half_periods,
    )
    description = {
        "centres": centres.tolist(),
        "volume_fraction": float(np.mean(scalars > 1.0)),
    }
    return spec, scalars, family, None, description


def prepare(w: Workload, seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng(seed)
    make = _spheres if w.name == "spheres-3d" else _checkerboard
    # scalars: a(x) in storage order, built by the benchmark itself
    spec, scalars, family, exact, description = make(w, rng)
    voxel_path = workdir / "field.json"
    write_isotropic_voxel(voxel_path, spec, scalars)
    if w.name == "spheres-3d":
        def setup():
            return load_voxel(voxel_path)
    else:
        def setup():
            return family.sample(spec)
    cfg = SolverConfig(method=w.method, tol=w.tol, max_iter=w.max_iter)
    residual_factor = None if w.method == "neumann" else RESIDUAL_FACTOR
    checker = Checker(scalars, spec.half_periods, w.tol, residual_factor, exact)
    return Prepared(seed, spec, setup, family, voxel_path, cfg, checker, description)


def check_setup(field: CoefficientField, checker: Checker):
    """Compare the field's action on the unit constant fields with a E_b."""
    spec = field.spec
    applied = [
        apply_A(field, GridField.constant(spec, np.eye(spec.dim)[b])).values
        for b in range(spec.dim)
    ]
    return checker.check_field(applied)
