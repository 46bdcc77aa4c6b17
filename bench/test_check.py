"""Tests of the benchmark's independent checker.

    python3 -m pytest bench/test_check.py

An oblique laminate, ``a`` constant along the lines ``k1 + k2 = const``, has
a closed-form discrete solution: for the unit load ``E_a`` the fluctuation
is ``n_a (H / a - 1) n`` with ``n = (1, 1) / sqrt(2)``, and the effective
tensor is ``H n n + V (I - n n)`` with the grid harmonic mean ``H`` and
arithmetic mean ``V``.  Its off-diagonal entries are non-zero, so swapped
entries show.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from check import Checker, Projector

ROOT = Path(__file__).resolve().parents[1]
N = 27
TOL = 1e-6


@pytest.fixture
def laminate():
    profile = 1.0 + 9.0 * (np.arange(N) < N // 3)
    k = np.arange(N)
    a = profile[(k[:, None] + k[None, :]) % N]
    H = 1.0 / np.mean(1.0 / a)
    V = np.mean(a)
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    nn = np.outer(n, n)
    solutions = [n[alpha] * (H / a - 1.0) * n[:, None, None] for alpha in range(2)]
    A_eff = H * nn + V * (np.eye(2) - nn)
    return a, solutions, A_eff


def failures_of(a, solutions, A_eff, exact=None, residual_factor=2.0):
    checker = Checker(a, (1.0, 1.0), TOL, residual_factor, exact)
    return checker.check(solutions, A_eff)[0]


def test_exact_laminate_passes(laminate):
    a, solutions, A_eff = laminate
    assert failures_of(a, solutions, A_eff, exact=A_eff) == []


def test_perturbed_solution_is_rejected(laminate):
    a, solutions, A_eff = laminate
    noise = np.random.default_rng(0).standard_normal((2, N, N))
    bump = Projector((N, N), (1.0, 1.0))(noise)
    perturbed = [solutions[0] + 1e-3 * bump, solutions[1]]
    assert any("residual" in f for f in failures_of(a, perturbed, A_eff))


def test_solution_off_the_subspace_is_rejected(laminate):
    a, solutions, A_eff = laminate
    shifted = [solutions[0] + 1e-3, solutions[1]]
    assert any("subspace" in f for f in failures_of(a, shifted, A_eff))


def test_swapped_entries_are_rejected(laminate):
    a, solutions, A_eff = laminate
    swapped = A_eff.copy()
    swapped[0, 0], swapped[0, 1] = A_eff[0, 1], A_eff[0, 0]
    assert any("symmetric" in f for f in failures_of(a, solutions, swapped))


@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_tensor_outside_voigt_reuss_is_rejected(laminate, factor):
    a, solutions, _ = laminate
    bound = np.mean(a) if factor > 1 else 1.0 / np.mean(1.0 / a)
    outside = factor * bound * np.eye(2)
    assert any("Reuss-Voigt" in f for f in failures_of(a, solutions, outside))


def test_tensor_off_the_exact_value_is_rejected(laminate):
    a, solutions, A_eff = laminate
    off = A_eff + 1e-6 * np.eye(2)
    assert any("exact value" in f for f in failures_of(a, solutions, off, exact=A_eff))


@pytest.mark.parametrize("method", ["cg", "neumann"])
def test_fftcell_checkerboard_passes(method):
    sys.path.insert(0, str(ROOT / "src"))
    from fftcell import GridSpec, SolverConfig, effective_tensor
    from fftcell.families import checkerboard_2d

    from check import grid_coordinates

    spec = GridSpec((1.0, 1.0), (N, N))
    x1, x2 = grid_coordinates(spec.shape, spec.half_periods)
    s = np.sign(x1) * np.sign(x2)
    a = np.where(s > 0, 1.0, np.where(s < 0, 100.0, 10.0))
    eff = effective_tensor(
        checkerboard_2d(1.0, 100.0).sample(spec),
        SolverConfig(method=method, tol=TOL, max_iter=5000),
    )
    solutions = [r.solution.values for r in eff.per_case_reports]
    residual_factor = 2.0 if method == "cg" else None
    assert failures_of(a, solutions, eff.matrix, 10.0 * np.eye(2), residual_factor) == []
