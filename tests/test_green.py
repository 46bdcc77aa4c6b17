import tracemalloc

import numpy as np
import pytest

from fftcell.green import (
    GreenOperator,
    ReferenceTensor,
    apply_G0,
    narrow_view,
    project_J,
    project_mean,
)
from fftcell.grid import GridSpec, frequency_grid
from fftcell.transforms import GridField, dft_forward, dft_inverse, l2_inner, truncate

from conftest import (
    SMALL_SPECS,
    curl_residual,
    gamma_hat,
    lattice_slots,
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
        assert ref.c_bound == ref.C_bound == 2.5

    def test_bounds_are_extreme_eigenvalues(self):
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        assert ref.c_bound == pytest.approx(1.0)
        assert ref.C_bound == pytest.approx(2.0)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            ReferenceTensor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "matrix, match",
        [
            (np.ones((2, 3)), "square"),
            (np.diag([1.0, np.inf]), "finite"),
            (np.full((2, 2), np.nan), "finite"),
        ],
        ids=["non-square", "inf", "nan"],
    )
    def test_non_square_or_non_finite_matrix_rejected(self, matrix, match):
        with pytest.raises(ValueError, match=match):
            ReferenceTensor(matrix)

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            ReferenceTensor(np.diag([1.0, -1.0]))

    def test_scalar_mode_read_from_an_exact_scalar_matrix(self):
        assert ReferenceTensor(3.0 * np.eye(2)).scalar_mode == 3.0
        assert ReferenceTensor(np.diag([3.0, 3.0 + 1e-12])).scalar_mode is None


class TestGammaHat:
    """The block ``n(k) gamma_scale(k) n(k)^T`` that GreenOperator stores."""

    def block(self, ref, k):
        green = GreenOperator(GridSpec((1.0, 1.0), (3, 3)), ref)
        n = green.n[:, k[0], k[1]]
        scale = np.broadcast_to(green.gamma_scale, green.n.shape[1:])[k]
        return scale * np.outer(n, n)

    def test_zero_block_at_the_mean_mode(self):
        ref = ReferenceTensor.scalar(1.0, 2)
        assert np.array_equal(self.block(ref, (0, 0)), np.zeros((2, 2)))

    def test_axis_mode_gives_rank_one_axis_projector(self):
        ref = ReferenceTensor.scalar(1.0, 2)
        expected = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert self.block(ref, (1, 0)) == pytest.approx(expected)

    def test_anisotropic_reference_scales_the_denominator(self):
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        expected = np.full((2, 2), 1.0 / 3.0)
        assert self.block(ref, (1, 1)) == pytest.approx(expected)


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


class TestGamma0:
    def test_scalar_reference_scales_inversely(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        u = random_field(spec, rng)
        lam = 4.0
        a = GreenOperator(spec, ReferenceTensor.scalar(lam, 2)).gamma0(u.values)
        b = apply_G0(u, ReferenceTensor.scalar(lam, 2)).values
        assert np.allclose(lam * a, b, atol=1e-12)

    def test_annihilates_constants(self):
        spec = GridSpec((1.0,), (5,))
        out = GreenOperator(spec, ReferenceTensor.scalar(1.0, 1)).gamma0(np.full((1, 5), 3.0))
        assert np.max(np.abs(out)) <= 1e-14

    def test_single_mode_matches_the_per_mode_block(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        vec = rng.standard_normal(2)
        s = truncate({(1, 2): 0.5 * vec, (-1, -2): 0.5 * vec}, spec)
        u = dft_inverse(s)
        out = dft_forward(GridField(spec, GreenOperator(spec, ref).gamma0(u.values)))
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
        g0_out = dft_forward(apply_G0(u, ref)).coeffs
        for k, slot in lattice_slots(spec):
            at = (slice(None),) + slot
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
        assert np.array_equal(apply_G0(GridField(spec, u), unit.ref).values, default.gamma0(u))

    def test_G0_is_idempotent_for_a_general_reference(self, rng):
        spec = self.SPEC_3D
        ref = random_spd_reference(spec.dim, rng)
        once = apply_G0(random_field(spec, rng), ref)
        twice = apply_G0(once, ref)
        scale = max(1.0, np.max(np.abs(once.values)))
        assert np.max(np.abs(twice.values - once.values)) <= 1e-12 * scale

    @pytest.mark.parametrize("ref_kind", ["none", "scalar"])
    def test_scalar_reference_output_is_curl_free_and_mean_free(self, ref_kind, rng):
        spec = self.SPEC_3D
        ref = None if ref_kind == "none" else random_spd_reference(3, rng, scalar=True)
        green = GreenOperator(spec, ref)
        u = random_field(spec, rng)
        for out in (green.gamma0(u.values), apply_G0(u, green.ref).values):
            field = GridField(spec, out)
            assert curl_residual(field) <= 1e-13
            assert mean_residual(field) <= 1e-14

    def test_scalar_reference_matches_the_orthogonal_projection(self, rng):
        spec = self.SPEC_3D
        lam = 3.5
        u = random_field(spec, rng).values
        plain = GreenOperator(spec)
        scalar = GreenOperator(spec, ReferenceTensor.scalar(lam, spec.dim))
        assert np.array_equal(apply_G0(GridField(spec, u), scalar.ref).values, plain.gamma0(u))
        assert np.allclose(lam * scalar.gamma0(u), plain.gamma0(u), rtol=0, atol=1e-14)

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
        for out in (green.gamma0(u), apply_G0(GridField(spec, u), green.ref).values):
            assert out.dtype == np.float64
            assert out.shape == (spec.dim,) + spec.shape

    def test_reference_dimension_is_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            GreenOperator(GridSpec((1.0, 1.0), (3, 3)), ReferenceTensor.scalar(1.0, 3))

    def test_the_direction_belongs_to_the_grid(self, rng):
        spec = self.SPEC_3D
        refs = [None, random_spd_reference(3, rng, scalar=True), random_spd_reference(3, rng)]
        plain, *others = [GreenOperator(spec, ref).n for ref in refs]
        for n in others:
            assert np.array_equal(n, plain)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 3, 3)], ids=str)
    def test_tensor_reference_analyzes_a_constant_to_zero(self, shape, rng):
        spec = GridSpec((1.0,) * len(shape), shape)
        green = GreenOperator(spec, random_spd_reference(spec.dim, rng))
        assert green.gamma_scale[(0,) * spec.dim] == 0.0
        assert np.isfinite(green.gamma_scale).all()
        # The 3-point DFT of a constant vanishes exactly off the mean mode.
        constant = GridField.constant(spec, rng.standard_normal(spec.dim)).values
        assert np.count_nonzero(green.analyze(constant)) == 0


class TestDirection:
    @pytest.mark.parametrize(
        "spec",
        [GridSpec((1.3,), (9,)), GridSpec((1.0, 1.0), (243, 243)), GridSpec((0.7, 2.1), (9, 15)),
         GridSpec((1.0, 1.0, 1.0), (49, 49, 49)), GridSpec((1.0, 0.6, 1.7), (5, 7, 3))],
        ids=str,
    )
    def test_n_equals_the_full_lattice_construction_bit_for_bit(self, spec):
        # The construction that slices the full-lattice frequency grid.
        xi = frequency_grid(spec)[..., : spec.shape[-1] // 2 + 1]
        norm2 = np.einsum("a...,a...->...", xi, xi)
        norm2.flat[0] = np.inf
        assert np.array_equal(GreenOperator(spec).n, xi / np.sqrt(norm2))


class TestNarrowView:
    def test_reinterprets_the_leading_bytes(self):
        wide = np.zeros((2, 5, 3), dtype=complex)
        narrow = narrow_view(wide, np.complex64)
        assert narrow.shape == wide.shape and narrow.dtype == np.complex64
        assert np.shares_memory(narrow, wide)
        narrow[...] = 1.0
        assert np.count_nonzero(wide.reshape(-1)[: wide.size // 2])
        assert not np.count_nonzero(wide.reshape(-1)[wide.size // 2 :])
        assert narrow_view(np.empty((2, 3)), np.float32).base is not None

    def test_refuses_a_strided_array(self):
        with pytest.raises(ValueError, match="contiguous"):
            narrow_view(np.empty((4, 6))[:, ::2], np.float32)


class TestSingleTwin:
    """``GreenOperator.single`` against the float64 operator of ``A0 = I``."""

    SPECS = [GridSpec((1.0, 1.5), (9, 7)), GridSpec((1.0, 0.6, 1.7), (5, 7, 3)), GridSpec((1.0, 1.0), (81, 81))]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_its_composition_is_the_projector_to_float32_accuracy(self, spec, rng):
        green = GreenOperator(spec, ReferenceTensor.scalar(3.5, spec.dim))
        twin = green.single()
        u = random_field(spec, rng).values
        plain = GreenOperator(spec).gamma0(u)
        single = twin.synthesize(twin.analyze(u.astype(np.float32)))
        assert single.dtype == np.float32
        scale = np.max(np.abs(plain))
        assert np.max(np.abs(single - plain)) <= 1e-6 * scale

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_analysis_accumulates_in_complex128(self, spec, rng):
        twin = GreenOperator(spec).single()
        s = twin.analyze(random_field(spec, rng).values.astype(np.float32))
        assert s.dtype == complex and s.shape == twin.n.shape[1:]
        assert twin.n.dtype == np.float32

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_its_dots_accumulate_in_complex64(self, spec, rng):
        twin = GreenOperator(spec).single()
        s = twin.analyze(random_field(spec, rng).values.astype(np.float32))
        assert twin._dots.dtype == np.complex64
        # The same spectrum, its dot product accumulated in complex128.
        wide = np.einsum("a...,a...->...", twin.n.astype(float), twin._spectrum.astype(complex))
        assert np.max(np.abs(s - wide)) <= 1e-6 * np.max(np.abs(wide))

    def test_it_shares_the_workspace(self):
        green = GreenOperator(self.SPECS[1], ReferenceTensor.scalar(2.0, 3))
        twin = green.single()
        assert np.shares_memory(twin._spectrum, green._spectrum)
        assert np.shares_memory(twin._dots, green._dots)
        assert twin._spectrum.dtype == np.complex64
        assert twin.gamma_scale == 1.0 and twin.ref.scalar_mode == 1.0
        assert green.gamma_scale == 0.5

    def test_a_tensor_reference_has_no_twin(self, rng):
        green = GreenOperator(self.SPECS[1], random_spd_reference(3, rng))
        with pytest.raises(ValueError, match="scalar reference"):
            green.single()


class TestMemory:
    """What a tensor-reference operator keeps, in units of one ``(d, *N)``
    float64 field: ``n`` (1/2), the complex workspace (1), the complex dot
    scratch (1/d) and the per-mode scale (1/(2d)), 2.04 fields in 3-D."""

    def test_construction_peaks_at_what_it_keeps_at_49_cubed(self):
        # n, the workspace and the dot scratch: 1.87 fields.  The direction
        # is built on the half lattice, without a full-lattice transient.
        spec = GridSpec((1.0, 1.0, 1.0), (49, 49, 49))
        field = spec.dim * spec.total * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            green = GreenOperator(spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * field
        assert green.n.shape == (3, 49, 49, 25)

    def test_tensor_reference_operator_at_49_cubed(self):
        spec = GridSpec((1.0, 1.0, 1.0), (49, 49, 49))
        ref = ReferenceTensor(np.diag([1.0, 2.0, 3.0]) + 0.3)
        field = spec.dim * spec.total * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            green = GreenOperator(spec, ref)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 2.15 * field
        assert green.gamma_scale.shape == green.n.shape[1:]


class TestInPlaceApplication:
    """The workspace passes of ``GreenOperator`` against the plain
    composition of numpy's ``rfftn`` and ``irfftn``, both ``"ortho"``."""

    SPECS = [
        GridSpec((1.0,), (9,)),
        GridSpec((1.0, 1.5), (9, 7)),
        GridSpec((1.0, 0.6, 1.7), (5, 7, 3)),
    ]

    @staticmethod
    def refs(spec):
        yield ReferenceTensor.scalar(2.5, spec.dim)
        if spec.dim >= 2:
            yield ReferenceTensor(np.diag(np.linspace(2.5, 2.0, spec.dim)))

    @staticmethod
    def plain(green, values):
        axes = tuple(range(1, green.spec.dim + 1))
        v_hat = np.fft.rfftn(values, axes=axes, norm="ortho")
        dots = np.einsum("a...,a...->...", green.n, v_hat)
        s = green.gamma_scale * dots
        return np.fft.irfftn(green.n * s, s=green.spec.shape, axes=axes, norm="ortho")

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_equals_the_plain_composition_bit_for_bit(self, spec, rng):
        for ref in self.refs(spec):
            green = GreenOperator(spec, ref)
            u = random_field(spec, rng).values
            expected = self.plain(green, u)
            assert np.array_equal(green.gamma0(u), expected)
            inplace = u.copy()
            assert green.gamma0(inplace, out=inplace) is inplace
            assert np.array_equal(inplace, expected)

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_synthesis_of_the_analysis_is_the_operator_bit_for_bit(self, spec, rng):
        for ref in self.refs(spec):
            green = GreenOperator(spec, ref)
            u = random_field(spec, rng).values
            s = green.analyze(u)
            assert s.shape == green.n.shape[1:] and s.dtype == complex
            assert np.array_equal(green.synthesize(s), green.gamma0(u))

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_G0_is_gamma0_of_A0_bit_for_bit(self, spec, rng):
        for ref in self.refs(spec):
            u = random_field(spec, rng)
            if ref.scalar_mode:
                expected = GreenOperator(spec).gamma0(u.values)
            else:
                A0u = np.einsum("ab,b...->a...", ref.matrix, u.values)
                expected = GreenOperator(spec, ref).gamma0(A0u)
            assert np.array_equal(apply_G0(u, ref).values, expected)

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_results_without_out_are_fresh_arrays(self, spec, rng):
        green = GreenOperator(spec, ReferenceTensor.scalar(2.5, spec.dim))
        first = green.gamma0(random_field(spec, rng).values)
        kept = first.copy()
        second = green.gamma0(random_field(spec, rng).values)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, green._spectrum)
        assert np.array_equal(first, kept)


class TestHalfLatticeInner:
    """``GreenOperator.inner`` on the scalars against the mean inner
    product of the synthesized real fields."""

    SPECS = TestInPlaceApplication.SPECS

    # Every 1 x 1 reference is scalar, so tensor references start at d = 2.
    @pytest.mark.parametrize(
        "spec, ref_kind",
        [(spec, "scalar") for spec in SPECS] + [(spec, "tensor") for spec in SPECS[1:]],
        ids=str,
    )
    def test_equals_the_real_space_mean_inner_product(self, spec, ref_kind, rng):
        ref = random_spd_reference(spec.dim, rng, scalar=ref_kind == "scalar")
        assert (ref.scalar_mode is None) == (ref_kind == "tensor")
        green = GreenOperator(spec, ref)
        s = green.analyze(random_field(spec, rng).values)
        t = green.analyze(random_field(spec, rng).values)
        u = GridField(spec, green.synthesize(s))
        v = GridField(spec, green.synthesize(t))
        for (x, fx), (y, fy) in [((s, u), (t, v)), ((s, u), (s, u)), ((t, v), (s, u))]:
            want = l2_inner(fx, fy)
            scale = np.sqrt(l2_inner(fx, fx) * l2_inner(fy, fy))
            assert abs(green.inner(x, y) - want) <= 1e-13 * scale
        assert green.inner(s, s) == pytest.approx(l2_inner(u, u), rel=1e-13, abs=0)

    def test_the_inner_product_leaves_its_arguments_alone(self, rng):
        spec = self.SPECS[1]
        green = GreenOperator(spec, ReferenceTensor(np.diag([2.5, 2.0])))
        s = green.analyze(random_field(spec, rng).values)
        t = green.analyze(random_field(spec, rng).values)
        kept = s.copy(), t.copy()
        green.inner(s, t)
        assert np.array_equal(s, kept[0]) and np.array_equal(t, kept[1])
