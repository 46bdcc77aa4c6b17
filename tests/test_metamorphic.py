"""Metamorphic properties of ``effective_tensor`` that hold exactly at grid
level: laminates, axis permutations and Keller--Dykhne duality."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fftcell.green import ReferenceTensor
from fftcell.grid import GridSpec
from fftcell.homogenize import effective_tensor
from fftcell.material import CoefficientField
from fftcell.solver import SolverConfig

from conftest import random_spd_field

odd = st.sampled_from([3, 5, 7, 9])
shapes = st.integers(2, 3).flatmap(lambda d: st.tuples(*[odd] * d))
layer_values = st.floats(1.0, 10.0)


def spec_of(shape, half_periods=None):
    return GridSpec(half_periods or (1.0,) * len(shape), shape)


@st.composite
def laminates(draw):
    """Isotropic a(x_1): one value per layer across axis 0."""
    shape = draw(shapes)
    layers = np.array(draw(st.lists(layer_values, min_size=shape[0], max_size=shape[0])))
    scalars = np.broadcast_to(layers.reshape((-1,) + (1,) * (len(shape) - 1)), shape)
    return CoefficientField.isotropic(spec_of(shape), scalars.copy()), layers


def laminate_configs(a, weights):
    """CG, Neumann around the default scalar reference, and Neumann around a
    diagonal tensor reference with ``min A0 > max a / 2``."""
    tensor = ReferenceTensor(np.diag(a.C_A * np.asarray(weights)))
    return [
        SolverConfig("cg", tol=1e-10),
        SolverConfig("neumann", tol=1e-10, max_iter=20000),
        SolverConfig("neumann", tol=1e-10, max_iter=20000, reference=tensor),
    ]


@settings(max_examples=8, deadline=None)
@given(laminates(), st.lists(st.floats(0.6, 1.2), min_size=3, max_size=3))
def test_a_laminate_gives_the_harmonic_and_arithmetic_means(laminate, weights):
    a, layers = laminate
    d = a.spec.dim
    expected = np.diag([len(layers) / np.sum(1.0 / layers)] + [np.mean(layers)] * (d - 1))
    for cfg in laminate_configs(a, weights[:d]):
        got = effective_tensor(a, cfg).matrix
        # Off the diagonal only rounding of the FFT passes remains.
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-14 * a.C_A), (cfg, got)


@settings(max_examples=8, deadline=None)
@given(shapes.flatmap(lambda shape: st.tuples(
    st.just(shape),
    st.permutations(range(len(shape))),
    st.lists(st.floats(0.5, 2.0), min_size=len(shape), max_size=len(shape)),
    st.integers(0, 2**32 - 1),
)))
def test_permuting_the_axes_permutes_the_effective_tensor(case):
    shape, perm, half_periods, seed = case
    scalars = np.random.default_rng(seed).uniform(1.0, 10.0, shape)
    spec = spec_of(shape, tuple(half_periods))
    permuted = spec_of(tuple(shape[p] for p in perm), tuple(half_periods[p] for p in perm))
    cfg = SolverConfig(tol=1e-10)
    base = effective_tensor(CoefficientField.isotropic(spec, scalars), cfg).matrix
    moved = effective_tensor(
        CoefficientField.isotropic(permuted, np.transpose(scalars, perm).copy()), cfg
    ).matrix
    expected = base[np.ix_(perm, perm)]
    assert np.allclose(moved, expected, rtol=0, atol=1e-10 * np.max(np.abs(base)))


@st.composite
def planar_fields(draw):
    """A 2-D field on an odd grid with unequal half-periods: scalars
    log-uniform in [0.1, 10], or pointwise SPD tensors."""
    shape = (draw(st.sampled_from([5, 9, 15, 45])), draw(st.sampled_from([7, 15, 21])))
    half_periods = (draw(st.floats(0.3, 1.0)), draw(st.floats(1.5, 2.5)))
    spec = GridSpec(half_periods, shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return CoefficientField.isotropic(spec, 10.0 ** rng.uniform(-1.0, 1.0, shape))
    return random_spd_field(spec, rng)


def rotated_inverse(a):
    """``R a^{-1} R^T`` per point, with R the 90-degree rotation: ``1 / a``
    for scalars and ``a / det(a)`` for a 2 x 2 tensor."""
    if a.data.ndim == a.spec.dim:
        return CoefficientField.isotropic(a.spec, 1.0 / a.data)
    a11, a22, a12 = a.data
    return CoefficientField(a.spec, a.data / (a11 * a22 - a12**2))


@settings(max_examples=10, deadline=None)
@given(planar_fields())
def test_the_dual_medium_has_the_rotated_inverse_effective_tensor(a):
    # Keller (1964), Dykhne (1970): in 2-D, R rotates the curl-free grid
    # fields onto the divergence-free ones, so the identity
    # A_eff(R a^-1 R^T) = R A_eff(a)^-1 R^T holds for the discrete problem.
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    cfg = SolverConfig(tol=1e-12)
    primal = effective_tensor(a, cfg).matrix
    dual = effective_tensor(rotated_inverse(a), cfg).matrix
    expected = R @ np.linalg.inv(primal) @ R.T
    assert np.max(np.abs(dual - expected)) <= 1e-12 * np.max(np.abs(expected))
