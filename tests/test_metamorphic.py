"""Metamorphic properties of ``effective_tensor`` that hold exactly at grid
level: laminates and axis permutations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fftcell.green import ReferenceTensor
from fftcell.grid import GridSpec
from fftcell.homogenize import effective_tensor
from fftcell.material import CoefficientField
from fftcell.solver import SolverConfig

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
