import numpy as np
import pytest

from fftcell.green import (
    GreenOperator,
    ReferenceTensor,
    apply_G0,
    apply_gamma0,
    gamma_hat,
    project_J,
    project_mean,
)
from fftcell.grid import GridSpec, index_to_slot, iter_lattice
from fftcell.transforms import GridField, dft_forward, dft_inverse, l2_inner, truncate

from conftest import (
    SMALL_SPECS,
    curl_residual,
    mean_residual,
    random_divfree_field,
    random_field,
    random_gradient_field,
)


def random_spd_reference(dim, rng, scalar=False):
    if scalar:
        return ReferenceTensor.scalar(float(rng.uniform(0.3, 5.0)), dim)
    B = rng.standard_normal((dim, dim))
    return ReferenceTensor(B @ B.T + 0.5 * np.eye(dim))


class TestReferenceTensor:
    def test_scalar_constructor(self):
        ref = ReferenceTensor.scalar(2.5, 3)
        assert ref.scalar_mode == 2.5
        assert np.array_equal(ref.matrix, 2.5 * np.eye(3))
        assert ref.contrast == pytest.approx(1.0)

    def test_bounds_are_extreme_eigenvalues(self):
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        assert ref.c_bound == pytest.approx(1.0)
        assert ref.C_bound == pytest.approx(2.0)
        assert ref.contrast == pytest.approx(2.0)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            ReferenceTensor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            ReferenceTensor(np.diag([1.0, -1.0]))

    def test_scalar_mode_read_from_an_exact_scalar_matrix(self):
        assert ReferenceTensor(3.0 * np.eye(2)).scalar_mode == 3.0
        assert ReferenceTensor(np.diag([3.0, 3.0 + 1e-12])).scalar_mode is None


class TestGammaHat:
    def test_zero_block_at_the_mean_mode(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        ref = ReferenceTensor.scalar(1.0, 2)
        assert np.array_equal(gamma_hat((0, 0), ref, spec), np.zeros((2, 2)))

    def test_axis_mode_gives_rank_one_axis_projector(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        ref = ReferenceTensor.scalar(1.0, 2)
        expected = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert gamma_hat((1, 0), ref, spec) == pytest.approx(expected)

    def test_anisotropic_reference_scales_the_denominator(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        expected = np.full((2, 2), 1.0 / 3.0)
        assert gamma_hat((1, 1), ref, spec) == pytest.approx(expected)


class TestApplyG0:
    def test_annihilates_constants(self):
        spec = GridSpec((1.0, 1.0), (5, 5))
        ref = ReferenceTensor.scalar(2.0, 2)
        out = apply_G0(GridField.constant(spec, (1.0, -2.0)), ref)
        assert np.max(np.abs(out.values)) <= 1e-14

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_fixes_gradient_fields(self, spec, rng):
        ref = ReferenceTensor.scalar(1.7, spec.dim)
        u = random_gradient_field(spec, rng)
        out = apply_G0(u, ref)
        scale = max(1.0, np.max(np.abs(u.values)))
        assert np.max(np.abs(out.values - u.values)) <= 1e-12 * scale

    def test_annihilates_divergence_free_modes(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        ref = ReferenceTensor.scalar(1.0, 2)
        u = random_divfree_field(spec, rng)
        out = apply_G0(u, ref)
        assert np.max(np.abs(out.values)) <= 1e-12 * max(1.0, np.max(np.abs(u.values)))

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_idempotent_for_random_references(self, spec, rng):
        for _ in range(5):
            ref = random_spd_reference(spec.dim, rng)
            u = random_field(spec, rng)
            once = apply_G0(u, ref)
            twice = apply_G0(once, ref)
            scale = max(1.0, np.max(np.abs(once.values)))
            assert np.max(np.abs(twice.values - once.values)) <= 1e-12 * scale

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_self_adjoint_in_the_reference_weight(self, spec, rng):
        for _ in range(5):
            ref = random_spd_reference(spec.dim, rng)
            u, v = random_field(spec, rng), random_field(spec, rng)

            def weighted(a, b):
                Aa = np.einsum("ab,b...->a...", ref.matrix, a.values)
                return float(np.sum(Aa * b.values) / spec.total)

            lhs = weighted(v, apply_G0(u, ref))
            rhs = weighted(apply_G0(v, ref), u)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_scalar_reference_output_independent_of_the_scalar(self, spec, rng):
        u = random_field(spec, rng)
        outputs = [
            apply_G0(u, ReferenceTensor.scalar(lam, spec.dim)).values
            for lam in (0.5, 1.0, 10.0)
        ]
        scale = max(1.0, np.max(np.abs(outputs[0])))
        for other in outputs[1:]:
            assert np.max(np.abs(other - outputs[0])) <= 1e-14 * scale

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_output_is_curl_free_and_mean_free(self, spec, rng):
        ref = random_spd_reference(spec.dim, rng)
        out = apply_G0(random_field(spec, rng), ref)
        assert curl_residual(out) <= 1e-12
        assert mean_residual(out) <= 1e-13


class TestApplyGamma0:
    def test_scalar_reference_scales_inversely(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        u = random_field(spec, rng)
        lam = 4.0
        a = apply_gamma0(u, ReferenceTensor.scalar(lam, 2)).values
        b = apply_G0(u, ReferenceTensor.scalar(lam, 2)).values
        assert np.allclose(lam * a, b, atol=1e-12)

    def test_annihilates_constants(self):
        spec = GridSpec((1.0,), (5,))
        out = apply_gamma0(GridField.constant(spec, (3.0,)), ReferenceTensor.scalar(1.0, 1))
        assert np.max(np.abs(out.values)) <= 1e-14

    def test_single_mode_matches_the_per_mode_block(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        vec = rng.standard_normal(2)
        s = truncate({(1, 2): 0.5 * vec, (-1, -2): 0.5 * vec}, spec)
        u = dft_inverse(s)
        out = dft_forward(apply_gamma0(u, ref))
        got = out.coeffs[:, 1, 2]
        expected = gamma_hat((1, 2), ref, spec) @ (0.5 * vec)
        assert np.allclose(got, expected, atol=1e-13)


class TestHelmholtzProjectors:
    def test_mean_projector_fixes_constants(self):
        spec = GridSpec((1.0, 1.0), (5, 5))
        u = GridField.constant(spec, (1.5, -2.0))
        assert np.array_equal(project_mean(u).values, u.values)

    def test_mean_projector_kills_zero_mean_fields(self, rng):
        spec = GridSpec((1.0,), (9,))
        u = random_gradient_field(spec, rng)
        assert np.max(np.abs(project_mean(u).values)) <= 1e-13

    def test_mean_projector_idempotent(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        u = random_field(spec, rng)
        once = project_mean(u)
        assert np.allclose(project_mean(once).values, once.values, atol=1e-14)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_three_way_decomposition_sums_to_identity(self, spec, rng):
        ref = ReferenceTensor.scalar(1.0, spec.dim)
        for _ in range(5):
            u = random_field(spec, rng)
            total = (
                project_mean(u).values
                + apply_G0(u, ref).values
                + project_J(u, ref).values
            )
            assert np.max(np.abs(total - u.values)) <= 1e-12 * max(
                1.0, np.max(np.abs(u.values))
            )

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_decomposition_components_pairwise_orthogonal(self, spec, rng):
        ref = ReferenceTensor.scalar(2.0, spec.dim)
        u = random_field(spec, rng)
        parts = [project_mean(u), apply_G0(u, ref), project_J(u, ref)]
        norm2 = l2_inner(u, u)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(l2_inner(parts[i], parts[j])) <= 1e-12 * max(1.0, norm2)

    def test_divergence_free_projector_kills_gradients(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        ref = ReferenceTensor.scalar(1.0, 2)
        u = random_gradient_field(spec, rng)
        out = project_J(u, ref)
        assert np.max(np.abs(out.values)) <= 1e-12 * max(1.0, np.max(np.abs(u.values)))

    def test_divergence_free_projector_requires_scalar_reference(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError, match="scalar"):
            project_J(random_field(spec, rng), ref)


class TestGreenOperator:
    """The half-spectrum operator against the per-mode block and the
    full-spectrum helpers of conftest."""

    SPEC_3D = GridSpec((1.0, 0.6, 1.7), (5, 7, 3))

    def test_every_mode_matches_the_per_mode_block(self, rng):
        spec = self.SPEC_3D
        ref = random_spd_reference(spec.dim, rng)
        green = GreenOperator(spec, ref)
        u = random_field(spec, rng)
        u_hat = dft_forward(u).coeffs
        gamma_out = dft_forward(GridField(spec, green.gamma0(u.values))).coeffs
        g0_out = dft_forward(GridField(spec, green.G0(u.values))).coeffs
        for k in iter_lattice(spec):
            at = (slice(None),) + index_to_slot(spec, k)
            block = gamma_hat(k, ref, spec)
            assert np.allclose(gamma_out[at], block @ u_hat[at], rtol=0, atol=1e-14)
            assert np.allclose(
                g0_out[at], block @ ref.matrix @ u_hat[at], rtol=0, atol=1e-14
            )

    def test_no_reference_is_the_unit_scalar_reference(self, rng):
        spec = self.SPEC_3D
        default = GreenOperator(spec)
        unit = GreenOperator(spec, ReferenceTensor.scalar(1.0, spec.dim))
        assert np.array_equal(default.ref.matrix, np.eye(spec.dim))
        assert default.ref.scalar_mode == 1.0
        u = random_field(spec, rng).values
        assert np.array_equal(default.gamma0(u), unit.gamma0(u))
        assert np.array_equal(default.G0(u), unit.G0(u))

    def test_G0_is_idempotent_for_a_general_reference(self, rng):
        spec = self.SPEC_3D
        green = GreenOperator(spec, random_spd_reference(spec.dim, rng))
        once = green.G0(random_field(spec, rng).values)
        twice = green.G0(once)
        assert np.max(np.abs(twice - once)) <= 1e-12 * max(1.0, np.max(np.abs(once)))

    @pytest.mark.parametrize("ref_kind", ["none", "scalar"])
    def test_scalar_reference_output_is_curl_free_and_mean_free(self, ref_kind, rng):
        spec = self.SPEC_3D
        ref = None if ref_kind == "none" else random_spd_reference(3, rng, scalar=True)
        green = GreenOperator(spec, ref)
        u = random_field(spec, rng)
        for out in (green.gamma0(u.values), green.G0(u.values)):
            field = GridField(spec, out)
            assert curl_residual(field) <= 1e-13
            assert mean_residual(field) <= 1e-14

    def test_scalar_reference_matches_the_orthogonal_projection(self, rng):
        spec = self.SPEC_3D
        lam = 3.5
        u = random_field(spec, rng).values
        plain = GreenOperator(spec)
        scalar = GreenOperator(spec, ReferenceTensor.scalar(lam, spec.dim))
        assert np.array_equal(scalar.G0(u), plain.G0(u))
        assert np.allclose(lam * scalar.gamma0(u), plain.G0(u), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    @pytest.mark.parametrize("ref_kind", ["none", "scalar", "general"])
    def test_outputs_are_real_float64_fields(self, spec, ref_kind, rng):
        ref = {
            "none": None,
            "scalar": random_spd_reference(spec.dim, rng, scalar=True),
            "general": random_spd_reference(spec.dim, rng),
        }[ref_kind]
        green = GreenOperator(spec, ref)
        u = random_field(spec, rng).values
        for out in (green.gamma0(u), green.G0(u)):
            assert out.dtype == np.float64
            assert out.shape == (spec.dim,) + spec.shape

    def test_reference_dimension_is_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            GreenOperator(GridSpec((1.0, 1.0), (3, 3)), ReferenceTensor.scalar(1.0, 3))


class TestInPlaceApplication:
    """The workspace passes of ``GreenOperator`` against the plain
    composition of numpy's ``rfftn`` and ``irfftn``."""

    SPECS = [
        GridSpec((1.0,), (9,)),
        GridSpec((1.0, 1.5), (9, 7)),
        GridSpec((1.0, 0.6, 1.7), (5, 7, 3)),
    ]

    @staticmethod
    def cases(spec):
        """Reference tensors with the scale that Gamma0 applies."""
        yield ReferenceTensor.scalar(2.5, spec.dim), 1.0 / 2.5
        if spec.dim == 2:
            yield ReferenceTensor(np.diag([2.5, 2.0])), 1.0

    @staticmethod
    def plain(green, values, right, scale):
        axes = tuple(range(1, green.spec.dim + 1))
        dots = np.einsum("a...,a...->...", right, np.fft.rfftn(values, axes=axes))
        dots *= scale
        return np.fft.irfftn(green.n * dots, s=green.spec.shape, axes=axes)

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_equals_the_plain_composition_bit_for_bit(self, spec, rng):
        for ref, scale in self.cases(spec):
            green = GreenOperator(spec, ref)
            u = random_field(spec, rng).values
            gamma = self.plain(green, u, green.n, scale)
            g0 = self.plain(green, u, green.A0n, 1.0)
            assert np.array_equal(green.gamma0(u), gamma)
            assert np.array_equal(green.G0(u), g0)
            for apply, expected in ((green.gamma0, gamma), (green.G0, g0)):
                inplace = u.copy()
                assert apply(inplace, out=inplace) is inplace
                assert np.array_equal(inplace, expected)

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_results_without_out_are_fresh_arrays(self, spec, rng):
        green = GreenOperator(spec, ReferenceTensor.scalar(2.5, spec.dim))
        first = green.gamma0(random_field(spec, rng).values)
        kept = first.copy()
        second = green.G0(random_field(spec, rng).values)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, green._spectrum)
        assert np.array_equal(first, kept)
