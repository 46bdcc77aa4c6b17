"""Shared builders for randomized fields, per-point oracles of the lattice
map, and the controls of the threaded load cases."""

import os
import threading

import numpy as np
import pytest

from fftcell.grid import GridSpec, frequency_grid
from fftcell.material import CoefficientField
from fftcell.transforms import GridField

# One small grid per dimension, big enough to exercise every code path but
# cheap enough for property-style loops.
SMALL_SPECS = [
    GridSpec((1.0,), (9,)),
    GridSpec((1.0, 1.5), (5, 5)),
    GridSpec((1.0, 1.0, 2.0), (3, 3, 3)),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def lattice_slots(spec):
    """Each index k of the reduced lattice with the array slot holding it,
    in storage order: slot ``i_a`` holds ``k_a = i_a`` for ``2 i_a < N_a``
    and ``k_a = i_a - N_a`` otherwise."""
    for slot in np.ndindex(*spec.shape):
        yield tuple(i if 2 * i < n else i - n for i, n in zip(slot, spec.shape)), slot


def grid_point(spec, k):
    """Grid point ``x^k = (k_a h_a)_a``."""
    return np.array([ki * h for ki, h in zip(k, spec.spacings)])


def gamma_hat(k, ref, spec):
    """Per-mode Green block ``xi (x) xi / <A0 xi, xi>`` with ``xi = k / Y``;
    zero at k = 0."""
    if not any(k):
        return np.zeros((spec.dim, spec.dim))
    xi = np.divide(k, spec.half_periods)
    return np.outer(xi, xi) / float(xi @ ref.matrix @ xi)


def mirror(values):
    """Values at ``-k``: slot ``i`` goes to ``-i mod N`` on every grid axis."""
    axes = tuple(range(1, values.ndim))
    return np.roll(np.flip(values, axis=axes), 1, axis=axes)


def random_field(spec, rng, scale=1.0):
    return GridField(spec, scale * rng.standard_normal((spec.dim,) + spec.shape))


def random_spd_field(spec, rng, shift=0.5):
    """Random pointwise-SPD coefficient field, B B^T + shift * I per point."""
    d = spec.dim
    B = rng.standard_normal((d, d) + spec.shape)
    mats = np.einsum("ab...,cb...->ac...", B, B)
    mats += shift * np.eye(d).reshape((d, d) + (1,) * d)
    return CoefficientField.from_matrices(spec, mats)


def random_gradient_field(spec, rng):
    """Random element of the curl-free zero-mean subspace.

    Built as the gradient of a random real scalar potential, directly in
    Fourier space: coefficients i * pi * xi(k) * p_hat(k), k != 0.
    """
    p = rng.standard_normal(spec.shape)
    phat = np.fft.fftn(p)
    xi = frequency_grid(spec)
    vhat = 1j * np.pi * xi * phat[np.newaxis]
    vhat[(slice(None),) + (0,) * spec.dim] = 0.0
    values = np.fft.ifftn(vhat, axes=tuple(range(1, spec.dim + 1))).real
    return GridField(spec, values)


def random_divfree_field(spec, rng):
    """Random zero-mean field whose coefficients are orthogonal to xi(k)."""
    u = random_field(spec, rng)
    xi = frequency_grid(spec)
    axes = tuple(range(1, spec.dim + 1))
    vhat = np.fft.fftn(u.values, axes=axes)
    norm2 = np.einsum("a...,a...->...", xi, xi)
    norm2[(0,) * spec.dim] = 1.0
    dots = np.einsum("a...,a...->...", xi, vhat)
    vhat -= xi * (dots / norm2)[np.newaxis]
    vhat[(slice(None),) + (0,) * spec.dim] = 0.0
    return GridField(spec, np.fft.ifftn(vhat, axes=axes).real)


def mean_residual(u):
    """Largest component of the discrete mean."""
    return float(np.max(np.abs(u.values.reshape(u.spec.dim, -1).mean(axis=1))))


def curl_residual(u):
    """Largest Fourier-coefficient component orthogonal to xi(k), k != 0."""
    spec = u.spec
    axes = tuple(range(1, spec.dim + 1))
    vhat = np.fft.fftn(u.values, axes=axes) / spec.total
    xi = frequency_grid(spec)
    norm2 = np.einsum("a...,a...->...", xi, xi)
    norm2[(0,) * spec.dim] = 1.0
    dots = np.einsum("a...,a...->...", xi, vhat)
    ortho = vhat - xi * (dots / norm2)[np.newaxis]
    ortho[(slice(None),) + (0,) * spec.dim] = 0.0
    return float(np.max(np.abs(ortho)))


def pin_cores(monkeypatch, count):
    """An affinity mask of ``count`` cores, as ``taskset`` sets one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def bounded(fn, *args, timeout=300):
    """``fn(*args)`` on a daemon thread joined with a timeout, so that a
    hang fails the test instead of stalling the suite; its exception is
    raised again here."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args)
        except Exception as error:
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), f"no result in {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]
