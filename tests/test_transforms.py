import numpy as np
import pytest

from fftcell.grid import GridSpec, coordinate_grid
from fftcell.transforms import (
    GridField,
    SpectralField,
    dft_forward,
    dft_inverse,
    interpolate,
    interpolation_constant,
    l2_inner,
    l2_norm,
    sobolev_norm,
    spectral_inner,
    trig_eval,
    truncate,
)

from conftest import SMALL_SPECS, grid_point, lattice_slots, mirror, random_field


def coeff(s, k):
    return s.coeffs[(slice(None),) + tuple(ki % n for ki, n in zip(k, s.spec.shape))]


def cosine_mode(spec, k):
    """Grid samples of cos(pi <xi(k), x>) as the first vector component."""

    def f(x):
        out = np.zeros(spec.dim)
        out[0] = np.cos(np.pi * float(np.divide(k, spec.half_periods) @ x))
        return out

    return interpolate(f, spec)


class TestDft:
    def test_constant_field_has_dc_only_spectrum(self):
        spec = GridSpec((1.0, 1.0), (5, 5))
        s = dft_forward(GridField.constant(spec, (2.0, -3.0)))
        assert coeff(s, (0, 0)) == pytest.approx([2.0, -3.0])
        rest = s.coeffs.copy()
        rest[:, 0, 0] = 0.0
        assert np.max(np.abs(rest)) <= 1e-13

    def test_cosine_splits_into_conjugate_mode_pair(self):
        spec = GridSpec((1.0,), (5,))
        s = dft_forward(cosine_mode(spec, (1,)))
        assert coeff(s, (1,)) == pytest.approx([0.5])
        assert coeff(s, (-1,)) == pytest.approx([0.5])
        assert abs(coeff(s, (2,))[0]) <= 1e-14

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_round_trip_is_identity(self, spec, rng):
        for _ in range(5):
            u = random_field(spec, rng)
            back = dft_inverse(dft_forward(u))
            scale = np.max(np.abs(u.values))
            assert np.max(np.abs(back.values - u.values)) <= 1e-13 * scale

    def test_forward_output_is_conjugate_symmetric(self, rng):
        spec = GridSpec((1.0, 1.5), (5, 7))
        s = dft_forward(random_field(spec, rng))
        assert np.allclose(mirror(s.coeffs), np.conj(s.coeffs), atol=1e-12)

    def test_single_pair_inverts_to_cosine(self):
        spec = GridSpec((1.0,), (5,))
        s = truncate({(1,): [0.5], (-1,): [0.5]}, spec)
        u = dft_inverse(s)
        assert u.values[0] == pytest.approx(np.cos(np.pi * coordinate_grid(spec)[0]))

    def test_inverse_rejects_broken_conjugate_symmetry(self):
        spec = GridSpec((1.0,), (5,))
        s = truncate({(1,): [1.0]}, spec)  # missing the mirror mode
        with pytest.raises(ValueError, match="imaginary residue"):
            dft_inverse(s)


class TestInterpolate:
    def test_reproduces_resolved_cosine_exactly(self):
        spec = GridSpec((1.0,), (3,))
        u = cosine_mode(spec, (1,))
        s = dft_forward(u)
        assert coeff(s, (1,)) == pytest.approx([0.5])
        assert coeff(s, (-1,)) == pytest.approx([0.5])

    def test_unresolved_mode_aliases_onto_lattice(self):
        # Mode index 4 on a 3-point grid lands on index 4 - 3 = 1.
        spec = GridSpec((1.0,), (3,))
        u = interpolate(lambda x: [np.cos(4.0 * np.pi * x[0])], spec)
        s = dft_forward(u)
        assert coeff(s, (1,)) == pytest.approx([0.5], abs=1e-13)
        assert coeff(s, (-1,)) == pytest.approx([0.5], abs=1e-13)
        assert abs(coeff(s, (0,))[0]) <= 1e-13

    def test_analytic_function_error_beats_fourth_order(self):
        # Quadrature oracle: dense uniform sampling of the interpolant error.
        xs = np.linspace(-1.0, 1.0, 2048, endpoint=False)
        f = lambda t: np.exp(np.sin(np.pi * t))

        def l2_error(n):
            spec = GridSpec((1.0,), (n,))
            s = dft_forward(interpolate(lambda x: [f(x[0])], spec))
            vals = np.array([trig_eval(s, (t,))[0] for t in xs])
            return np.sqrt(np.mean((vals - f(xs)) ** 2))

        e9, e33 = l2_error(9), l2_error(33)
        h_ratio = (2.0 / 33.0) / (2.0 / 9.0)
        assert e33 <= e9 * h_ratio**4

    def test_rejects_non_finite_samples(self):
        spec = GridSpec((1.0,), (3,))
        with pytest.raises(ValueError, match="non-finite"):
            interpolate(lambda x: [np.inf], spec)

    @pytest.mark.parametrize("shape", [(27,), (9, 7), (5, 3, 7)], ids=str)
    def test_equals_the_per_point_lattice_walk_bit_for_bit(self, shape):
        spec = GridSpec(tuple(0.5 + 0.3 * a for a in range(len(shape))), shape)

        def f(x):
            return np.sin(np.pi * x) + 0.1 * np.sum(x)

        expected = np.empty((spec.dim,) + spec.shape)
        for k, slot in lattice_slots(spec):
            expected[(slice(None),) + slot] = f(grid_point(spec, k))
        assert np.array_equal(interpolate(f, spec).values, expected)


class TestTruncate:
    def test_identity_on_resolved_modes(self):
        spec = GridSpec((1.0,), (5,))
        s = truncate({(1,): [0.5], (-1,): [0.5], (2,): [1j], (-2,): [-1j]}, spec)
        assert coeff(s, (2,)) == pytest.approx([1j])

    @pytest.mark.parametrize("modes", [{(4,): [1.0], (-4,): [1.0], (10**30,): [1.0]}, {}], ids=str)
    def test_discards_modes_outside_lattice(self, modes):
        spec = GridSpec((1.0,), (3,))
        s = truncate(modes, spec)
        assert np.max(np.abs(s.coeffs)) == 0.0

    @pytest.mark.parametrize("key", [(1.5,), (0, 0), (), 1, (1.0,)], ids=str)
    def test_rejects_malformed_keys(self, key):
        with pytest.raises(ValueError, match="mode key"):
            truncate({key: [2.0]}, GridSpec((1.0,), (5,)))

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_equals_the_per_key_walk_bit_for_bit(self, spec, rng):
        keys = {tuple(k) for k in rng.integers(-6, 7, size=(40, spec.dim)).tolist()}
        modes = {k: rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
                 for k in keys}
        expected = np.zeros((spec.dim,) + spec.shape, dtype=complex)
        for k, slot in lattice_slots(spec):
            if k in modes:
                expected[(slice(None),) + slot] = modes[k]
        assert np.array_equal(truncate(modes, spec).coeffs, expected)

    def test_never_increases_the_coefficient_norm(self, rng):
        spec = GridSpec((1.0,), (5,))
        modes = {}
        for k in range(-4, 5):
            modes[(k,)] = [complex(rng.standard_normal(), rng.standard_normal())]
        total = np.sqrt(sum(abs(v[0]) ** 2 for v in modes.values()))
        kept = np.sqrt(np.sum(np.abs(truncate(modes, spec).coeffs) ** 2))
        assert kept <= total + 1e-14


class TestTrigEval:
    def test_matches_inverse_transform_at_grid_points(self, rng):
        spec = GridSpec((1.0, 1.5), (3, 5))
        u = random_field(spec, rng)
        s = dft_forward(u)
        points = coordinate_grid(spec).reshape(spec.dim, -1).T
        for x, grid_val in zip(points, u.values.reshape(spec.dim, -1).T):
            assert np.allclose(trig_eval(s, x), grid_val, atol=1e-12)

    def test_matches_the_per_mode_sum_off_the_grid(self, rng):
        spec = GridSpec((0.7, 1.3, 1.1), (5, 3, 7))
        s = dft_forward(random_field(spec, rng))
        for x in rng.uniform(-2.0, 2.0, size=(5, 3)):
            expected = sum(
                coeff(s, k) * np.exp(1j * np.pi * float(np.divide(k, spec.half_periods) @ x))
                for k, _ in lattice_slots(spec)
            )
            got = trig_eval(s, x)
            assert np.max(np.abs(got - expected.real)) <= 1e-14 * np.max(np.abs(expected))

    def test_constant_spectrum_evaluates_to_constant(self):
        spec = GridSpec((1.0,), (3,))
        s = truncate({(0,): [4.5]}, spec)
        assert trig_eval(s, (0.37,)) == pytest.approx([4.5])

    def test_cosine_pair_at_quarter_period(self):
        spec = GridSpec((1.0,), (5,))
        s = truncate({(1,): [0.5], (-1,): [0.5]}, spec)
        assert trig_eval(s, (0.5,)) == pytest.approx([np.cos(np.pi / 2)], abs=1e-14)


class TestSobolevNorm:
    def test_order_zero_is_the_l2_norm(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        u = random_field(spec, rng)
        assert sobolev_norm(dft_forward(u), 0.0) == pytest.approx(l2_norm(u), rel=1e-12)

    def test_single_pair_weighted_by_frequency_norm(self):
        spec = GridSpec((1.0,), (7,))
        s = truncate({(2,): [0.5], (-2,): [0.5]}, spec)
        # Two modes of weight |xi|^(2s) * 1/4 each; |xi(2)| = 2.
        for order in (0.0, 1.0, 2.0):
            expected = 2.0**order * np.sqrt(0.5)
            assert sobolev_norm(s, order) == pytest.approx(expected, rel=1e-12)

    def test_constant_1d_field_keeps_its_magnitude(self):
        spec = GridSpec((1.0,), (5,))
        s = dft_forward(GridField.constant(spec, (-3.0,)))
        for order in (0.0, 1.0, 2.5):
            assert sobolev_norm(s, order) == pytest.approx(3.0, rel=1e-12)

    def test_constant_mode_weight_is_documented_for_higher_dimensions(self):
        # The mean mode carries the all-ones frequency, so for d > 1 a
        # constant c is weighted by d**(s/2); see the README note.
        spec = GridSpec((1.0, 1.0), (3, 3))
        s = dft_forward(GridField.constant(spec, (1.0, 0.0)))
        assert sobolev_norm(s, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_negative_order_rejected(self):
        spec = GridSpec((1.0,), (3,))
        with pytest.raises(ValueError, match="order"):
            sobolev_norm(dft_forward(GridField.zeros(spec)), -1.0)


class TestL2Inner:
    def test_positive_definite(self, rng):
        spec = GridSpec((1.0,), (9,))
        u = random_field(spec, rng)
        assert l2_inner(u, u) > 0
        assert l2_inner(GridField.zeros(spec), GridField.zeros(spec)) == 0.0

    def test_distinct_cosine_modes_are_orthogonal(self):
        spec = GridSpec((1.0,), (5,))
        u = cosine_mode(spec, (1,))
        v = cosine_mode(spec, (2,))
        assert abs(l2_inner(u, v)) <= 1e-14

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_grid_inner_product_equals_spectral_sum(self, spec, rng):
        for _ in range(5):
            u, v = random_field(spec, rng), random_field(spec, rng)
            lhs = l2_inner(u, v)
            rhs = spectral_inner(dft_forward(u), dft_forward(v))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "inner",
        [l2_inner, lambda u, v: spectral_inner(dft_forward(u), dft_forward(v))],
        ids=["l2", "spectral"],
    )
    def test_spec_mismatch_rejected(self, rng, inner):
        u = random_field(GridSpec((1.0,), (5,)), rng)
        v = random_field(GridSpec((1.0,), (7,)), rng)
        with pytest.raises(ValueError, match="specs"):
            inner(u, v)


class TestInterpolationConstant:
    def test_one_dimensional_lattice_sum_matches_zeta_value(self):
        # For d = 1, s = 2 the lattice sum is zeta(4) = pi^4 / 90.
        expected = np.sqrt(1.0 + np.pi**4 / 90.0)
        assert interpolation_constant(0.0, 2.0, 1) == pytest.approx(expected, rel=1e-5)

    def test_grows_with_the_derivative_order(self):
        assert interpolation_constant(1.0, 2.0, 2) > interpolation_constant(0.0, 2.0, 2)

    def test_divergent_parameter_range_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            interpolation_constant(0.0, 0.5, 1)

    @pytest.mark.parametrize("r, s, dim", [(0.0, 2.0, 3), (1.0, 1.2, 2)])
    def test_slowly_converging_sum_is_refused_before_memory_runs_out(
        self, r, s, dim, monkeypatch
    ):
        meshgrid = np.meshgrid

        def guarded(*axes, **kwargs):
            points = int(np.prod([len(a) for a in axes]))
            assert points <= 2**24, f"meshgrid asked for {points} points"
            return meshgrid(*axes, **kwargs)

        monkeypatch.setattr(np, "meshgrid", guarded)
        with pytest.raises(ValueError, match=rf"r={r}, s={s}, d={dim}"):
            interpolation_constant(r, s, dim)


class TestFieldTypes:
    def test_grid_field_shape_validated(self):
        spec = GridSpec((1.0,), (5,))
        with pytest.raises(ValueError, match="shape"):
            GridField(spec, np.zeros((2, 5)))

    def test_spectral_field_shape_validated(self):
        spec = GridSpec((1.0,), (5,))
        with pytest.raises(ValueError, match="shape"):
            SpectralField(spec, np.zeros((1, 7), dtype=complex))
