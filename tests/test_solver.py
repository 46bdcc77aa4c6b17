import tracemalloc

import numpy as np
import pytest

from fftcell.analysis import dense_oracle
from fftcell.families import checkerboard_2d, sine_1d
from fftcell.green import GreenOperator, ReferenceTensor
from fftcell.grid import GridSpec
from fftcell.homogenize import effective_tensor
from fftcell.material import CoefficientField, MaterialDataError, contract, sample_analytic
from fftcell.solver import (
    LoadCase,
    SolverConfig,
    apply_system,
    default_reference,
    green_operator,
    residual_norm,
    solve,
    solve_cg,
    solve_neumann,
)
from fftcell.transforms import GridField, l2_norm

from conftest import (
    curl_residual,
    mean_residual,
    random_gradient_field,
    random_spd_field,
)


def sine_problem(n=255):
    family = sine_1d()
    return family.sample(family.default_spec((n,))), LoadCase((1.0,))


class TestConfigTypes:
    def test_load_case_requires_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            LoadCase((1.0, np.inf))

    def test_load_case_expands_to_constant_field(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        E = LoadCase((2.0, -1.0)).expand(spec)
        assert np.all(E.values[0] == 2.0)
        assert np.all(E.values[1] == -1.0)

    def test_load_case_dimension_checked_on_expand(self):
        with pytest.raises(ValueError, match="dimension"):
            LoadCase((1.0,)).expand(GridSpec((1.0, 1.0), (3, 3)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "sor"},
            {"tol": 1.0},
            {"tol": 0.0},
            {"max_iter": 0},
            {"max_iter": 2.5},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_cg_rejects_non_scalar_reference(self):
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError, match="scalar"):
            SolverConfig(method="cg", reference=ref)

    def test_neumann_accepts_non_scalar_reference(self):
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        cfg = SolverConfig(method="neumann", reference=ref)
        assert cfg.reference is ref

    def test_cg_accepts_an_exact_scalar_matrix(self):
        ref = ReferenceTensor(3.0 * np.eye(2))
        cfg = SolverConfig(method="cg", reference=ref)
        assert cfg.reference.scalar_mode == 3.0

    def test_entry_points_check_the_method(self):
        a, load = sine_problem(n=9)
        with pytest.raises(ValueError, match="'cg'"):
            solve_cg(a, load, SolverConfig(method="neumann"))
        with pytest.raises(ValueError, match="'neumann'"):
            solve_neumann(a, load, SolverConfig(method="cg"))


class TestApplySystem:
    def test_scales_curl_free_fields_under_uniform_coefficient(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = sample_analytic(lambda x: 3.0, spec)
        u = random_gradient_field(spec, rng)
        out = apply_system(a, u)
        assert np.allclose(out.values, 3.0 * u.values, atol=1e-12)

    def test_output_stays_in_the_solution_subspace(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = random_spd_field(spec, rng)
        out = apply_system(a, random_gradient_field(spec, rng))
        assert mean_residual(out) <= 1e-13
        assert curl_residual(out) <= 1e-12

    def test_symmetric_on_the_solution_subspace(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = random_spd_field(spec, rng)
        u = random_gradient_field(spec, rng)
        v = random_gradient_field(spec, rng)
        from fftcell.transforms import l2_inner

        lhs = l2_inner(apply_system(a, u), v)
        rhs = l2_inner(u, apply_system(a, v))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


class TestConjugateGradients:
    def test_uniform_coefficient_needs_no_iterations(self):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = sample_analytic(lambda x: 5.0, spec)
        report = solve_cg(a, LoadCase((1.0, -2.0)), SolverConfig(tol=1e-10))
        assert report.converged
        assert report.iterations == 0
        assert np.all(report.solution.values == 0.0)

    def test_residual_drops_below_the_relative_tolerance(self):
        a, load = sine_problem()
        cfg = SolverConfig(tol=1e-10, max_iter=500)
        report = solve_cg(a, load, cfg)
        assert report.converged
        assert report.residual_history[-1] <= cfg.tol * report.residual_history[0]
        assert residual_norm(a, load, report.solution) <= 2 * cfg.tol * report.residual_history[0]

    def test_iterates_remain_mean_free_and_curl_free(self):
        a, load = sine_problem(n=99)
        report = solve_cg(a, load, SolverConfig(tol=1e-10, max_iter=500), record_iterates=True)
        assert len(report.iterates) == report.iterations + 1
        for it in report.iterates:
            assert mean_residual(it) <= 1e-10
            assert curl_residual(it) <= 1e-10

    def test_matches_direct_dense_solve(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        for _ in range(3):
            a = random_spd_field(spec, rng)
            load = LoadCase((1.0, 0.5))
            report = solve_cg(a, load, SolverConfig(tol=1e-13, max_iter=500))
            exact = dense_oracle(a, load)
            assert report.converged
            assert np.max(np.abs(report.solution.values - exact.values)) <= 1e-10

    def test_scalar_reference_leaves_iterates_unchanged(self):
        a = checkerboard_2d(1.0, 50.0).sample(GridSpec((1.0, 1.0), (27, 27)))
        load = LoadCase((1.0, 0.0))
        base = solve_cg(a, load, SolverConfig(tol=1e-8, max_iter=500), record_iterates=True)
        for lam in (0.5, 10.0):
            cfg = SolverConfig(
                tol=1e-8, max_iter=500, reference=ReferenceTensor.scalar(lam, 2)
            )
            other = solve_cg(a, load, cfg, record_iterates=True)
            assert other.iterations == base.iterations
            scale = max(l2_norm(it) for it in base.iterates)
            for x, y in zip(base.iterates, other.iterates):
                assert np.max(np.abs(x.values - y.values)) <= 1e-10 * scale

    def test_max_iter_exhaustion_reports_non_convergence(self):
        a, load = sine_problem(n=99)
        report = solve_cg(a, load, SolverConfig(tol=1e-12, max_iter=2))
        assert not report.converged
        assert report.iterations == 2

    def test_a_priori_fluctuation_bound(self):
        cfg = SolverConfig(tol=1e-8, max_iter=2000)
        instances = [
            sine_problem(),
            (
                checkerboard_2d(1.0, 100.0).sample(GridSpec((1.0, 1.0), (27, 27))),
                LoadCase((0.6, -0.8)),
            ),
        ]
        for a, load in instances:
            report = solve_cg(a, load, cfg)
            assert report.converged
            E_norm = float(np.sqrt(np.dot(load.E, load.E)))
            assert l2_norm(report.solution) <= a.rho_A * E_norm * (1 + 10 * cfg.tol)


def laminate_27(scale):
    """27^2 laminate across axis 0: 13 layers at 10, 14 at 1, times scale."""
    spec = GridSpec((1.0, 1.0), (27, 27))
    layers = np.where(np.arange(27) < 13, 10.0, 1.0)
    scalars = scale * np.broadcast_to(layers[:, np.newaxis], spec.shape)
    return CoefficientField.isotropic(spec, scalars)


class TestScaleInvariance:
    HARMONIC_MEAN = 27.0 / (13 / 10.0 + 14 / 1.0)  # 1.7647

    @pytest.mark.parametrize("s", [1.0, 1e-300, 1e300], ids=str)
    def test_scaled_laminate_gives_the_harmonic_mean(self, s):
        eff = effective_tensor(laminate_27(s), SolverConfig(tol=1e-6))
        case = eff.per_case_reports[0]
        assert case.converged
        assert case.iterations > 0
        assert eff.matrix[0, 0] / s == pytest.approx(self.HARMONIC_MEAN, rel=1e-9)

    def test_coefficient_scaling_leaves_the_iteration_unchanged(self):
        a = checkerboard_2d(1.0, 100.0).sample(GridSpec((1.0, 1.0), (27, 27)))
        load = LoadCase((1.0, 0.0))
        cfg = SolverConfig(tol=1e-8, max_iter=500)
        base = solve_cg(a, load, cfg)
        scale = np.max(np.abs(base.solution.values))
        for s in (1e-300, 1e300):
            other = solve_cg(CoefficientField(a.spec, s * a.components), load, cfg)
            assert other.iterations == base.iterations
            diff = np.max(np.abs(other.solution.values - base.solution.values))
            assert diff <= 1e-12 * scale
            history = np.array(other.residual_history) / s
            atol = 1e-12 * base.residual_history[0]
            assert np.allclose(history, base.residual_history, rtol=1e-12, atol=atol)

    def test_load_scaling_scales_the_solution(self):
        a = checkerboard_2d(1.0, 100.0).sample(GridSpec((1.0, 1.0), (27, 27)))
        cfg = SolverConfig(tol=1e-8, max_iter=500)
        base = solve_cg(a, LoadCase((0.6, -0.8)), cfg)
        for t in (1e-300, 1e300):
            other = solve_cg(a, LoadCase((0.6 * t, -0.8 * t)), cfg)
            assert other.converged
            assert other.iterations == base.iterations
            # E / |E|_max rounds differently at each t: agreement to rounding.
            scale = np.max(np.abs(base.solution.values))
            diff = np.max(np.abs(other.solution.values / t - base.solution.values))
            assert diff <= 1e-12 * scale

    @pytest.mark.parametrize("s", [1e-300, 1e300], ids=str)
    def test_residual_norm_scales_with_the_coefficients(self, s, rng):
        load = LoadCase((1.0, 0.0))
        for candidate in (GridField.zeros(laminate_27(1.0).spec),
                          random_gradient_field(laminate_27(1.0).spec, rng)):
            base = residual_norm(laminate_27(1.0), load, candidate)
            scaled = residual_norm(laminate_27(s), load, candidate)
            assert scaled == pytest.approx(s * base, rel=1e-12, abs=0)

    @pytest.mark.parametrize("s", [1e-300, 1e-150, 1e150, 1e300], ids=str)
    @pytest.mark.parametrize("packed", [False, True], ids=["isotropic", "packed"])
    @pytest.mark.parametrize("shape", [(15, 15), (5, 7, 9)], ids=["2d", "3d"])
    def test_effective_tensor_scales_with_the_coefficients(self, shape, packed, s, rng):
        spec = GridSpec((1.0,) * len(shape), shape)
        if packed:
            a = random_spd_field(spec, rng)
        else:
            a = CoefficientField.isotropic(spec, rng.uniform(1.0, 10.0, shape))
        cfg = SolverConfig(tol=1e-10)
        base = effective_tensor(a, cfg).matrix
        scaled = effective_tensor(CoefficientField(spec, s * a.data), cfg).matrix / s
        assert np.max(np.abs(scaled - base)) <= 1e-12 * np.max(np.abs(base))

    def test_subnormal_coefficient_scale_is_a_data_error(self):
        # 1 / C_A would overflow in the Green operator and turn CG to NaN.
        with pytest.raises(MaterialDataError, match="subnormal"):
            effective_tensor(laminate_27(1e-310), SolverConfig(tol=1e-6))

    def test_residual_history_is_in_the_callers_units(self):
        # residual_norm squares its field, so keep s^2 within float range.
        for s in (1e-100, 1e100):
            a = laminate_27(s)
            load = LoadCase((1.0, 0.0))
            report = solve_cg(a, load, SolverConfig(tol=1e-6))
            assert report.residual_history[0] == pytest.approx(
                residual_norm(a, load, GridField.zeros(a.spec)), rel=1e-12
            )
            true_final = residual_norm(a, load, report.solution)
            assert abs(report.residual_history[-1] - true_final) <= (
                1e-12 * report.residual_history[0]
            )


class TestNeumannIteration:
    def test_matching_reference_converges_immediately(self):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = sample_analytic(lambda x: 2.0, spec)
        cfg = SolverConfig(
            method="neumann", tol=1e-10, reference=ReferenceTensor.scalar(2.0, 2)
        )
        report = solve_neumann(a, LoadCase((1.0, 0.0)), cfg)
        assert report.converged
        assert report.iterations == 0
        assert np.max(np.abs(report.solution.values)) <= 1e-12

    def test_default_reference_is_the_bound_midpoint(self):
        a, _ = sine_problem()
        ref = default_reference(a)
        assert ref.scalar_mode == pytest.approx(0.5 * (a.c_A + a.C_A))

    def test_agrees_with_conjugate_gradients(self):
        a, load = sine_problem()
        tol = 1e-8
        cg = solve_cg(a, load, SolverConfig(tol=tol, max_iter=1000))
        ne = solve_neumann(a, load, SolverConfig(method="neumann", tol=tol, max_iter=5000))
        assert ne.converged
        diff = l2_norm(
            GridField(a.spec, cg.solution.values - ne.solution.values)
        )
        assert diff <= 2 * tol * max(1.0, l2_norm(cg.solution))

    @pytest.mark.parametrize("packed_field", [False, True], ids=["scalar", "packed"])
    def test_scalar_and_packed_contrasts_agree_with_cg(self, packed_field, rng):
        spec = GridSpec((1.0, 1.0), (9, 9))
        if packed_field:
            a = random_spd_field(spec, rng, shift=1.0)
            ref = default_reference(a)
        else:
            a = checkerboard_2d(1.0, 3.0).sample(spec)
            ref = ReferenceTensor(np.diag([2.5, 2.0]))  # non-scalar: packed contrast
        load = LoadCase((0.6, -0.8))
        tol = 1e-10
        cg = solve_cg(a, load, SolverConfig(tol=tol))
        cfg = SolverConfig(method="neumann", tol=tol, max_iter=5000, reference=ref)
        ne = solve_neumann(a, load, cfg)
        assert ne.converged
        diff = l2_norm(GridField(spec, cg.solution.values - ne.solution.values))
        assert diff <= 1e-7 * l2_norm(cg.solution)

    def test_small_reference_on_high_contrast_detected_as_divergent(self):
        a = checkerboard_2d(1.0, 10.0).sample(GridSpec((1.0, 1.0), (9, 9)))
        cfg = SolverConfig(
            method="neumann",
            tol=1e-8,
            max_iter=10000,
            reference=ReferenceTensor.scalar(0.01, 2),
        )
        report = solve_neumann(a, LoadCase((1.0, 0.0)), cfg)
        assert not report.converged
        assert "divergent" in report.message
        assert report.iterations < 1000

    def test_iterates_solution_stays_in_the_subspace(self):
        a, load = sine_problem(n=99)
        cfg = SolverConfig(method="neumann", tol=1e-9, max_iter=2000)
        report = solve_neumann(a, load, cfg)
        assert report.converged
        assert mean_residual(report.solution) <= 1e-10
        assert curl_residual(report.solution) <= 1e-10


def textbook_neumann_iterates(a, load, ref, steps):
    """Fluctuations ``e_k - E`` of ``e <- E - Gamma0 (A - A0) e``, ``e_0 = E``."""
    green = GreenOperator(a.spec, ref)
    E = load.expand(a.spec).values
    e = E.copy()
    out = [e - E]
    for _ in range(steps):
        A0e = np.einsum("ab,b...->a...", ref.matrix, e)
        e = E - green.gamma0(contract(a.data, e) - A0e)
        out.append(e - E)
    return out


class TestOneLoop:
    """CG and Neumann share one loop; these pin what the methods share."""

    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_max_iter_exhaustion_names_its_stop_reason(self, method):
        a, load = sine_problem(n=99)
        report = solve(a, load, SolverConfig(method=method, tol=1e-12, max_iter=2))
        assert not report.converged
        assert report.iterations == 2
        assert report.message == "max_iter exceeded"
        assert len(report.residual_history) == 3

    def test_non_finite_residual_stops_the_loop(self):
        # Gamma0 of A0 = 1e-100 I scales each update by 1e100: the residual
        # overflows after one step.  NaN comparisons must not hide it.
        a = checkerboard_2d(1.0, 10.0).sample(GridSpec((1.0, 1.0), (9, 9)))
        cfg = SolverConfig(
            method="neumann", tol=1e-8, max_iter=3000,
            reference=ReferenceTensor.scalar(1e-100, 2),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = solve_neumann(a, LoadCase((1.0, 0.0)), cfg)
        assert not report.converged
        assert "non-finite residual" in report.message
        assert report.iterations <= 3
        assert not np.isfinite(report.residual_history[-1])

    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_overflow_in_the_callers_units_is_not_convergence(self, method):
        # The loop converges on the normalized system, but |E|_max = 1e308
        # times C_A, or times the fluctuation, leaves float64.
        a = checkerboard_2d(1.0, 10.0).sample(GridSpec((1.0, 1.0), (9, 9)))
        with np.errstate(over="ignore"):
            report = solve(a, LoadCase((1e308, 1e308)), SolverConfig(method=method))
        assert not report.converged
        assert "overflow" in report.message
        finite = np.isfinite(report.residual_history).all()
        assert not (finite and np.isfinite(report.solution.values).all())

    def test_a_given_green_operator_must_match(self):
        a, load = sine_problem(n=99)
        cg, neumann = SolverConfig(), SolverConfig(method="neumann", max_iter=2000)
        assert np.array_equal(
            solve(a, load, cg, green=green_operator(a, cg)).solution.values,
            solve(a, load, cg).solution.values,
        )
        for green in (green_operator(a, neumann), GreenOperator(a.spec)):
            with pytest.raises(ValueError, match="green operator"):
                solve(a, load, cg, green=green)

    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_zero_load_is_solved_by_zero_whatever_the_warm_start(self, method):
        a, load = sine_problem(n=99)
        report = solve(a, LoadCase((0.0,)), SolverConfig(method=method))
        assert report.converged
        assert report.iterations == 0
        assert np.all(report.solution.values == 0.0)

    @pytest.mark.parametrize("packed_field", [False, True], ids=["scalar", "packed"])
    def test_neumann_iterates_match_the_textbook_map(self, packed_field, rng):
        spec = GridSpec((1.0, 1.0), (9, 9))
        if packed_field:
            a = random_spd_field(spec, rng, shift=1.0)
            a = CoefficientField(spec, a.components * (3.0 / a.C_A))  # C_A < 2 c(A0)
            ref = ReferenceTensor(np.diag([2.5, 2.0]))
        else:
            a = checkerboard_2d(1.0, 3.0).sample(spec)
            ref = ReferenceTensor.scalar(2.0, 2)
        load = LoadCase((0.6, -0.8))
        cfg = SolverConfig(method="neumann", tol=1e-14, max_iter=30, reference=ref)
        report = solve(a, load, cfg, record_iterates=True)
        assert report.message == "max_iter exceeded"
        expected = textbook_neumann_iterates(a, load, ref, cfg.max_iter)
        scale = max(l2_norm(GridField(spec, e)) for e in expected)
        assert len(report.iterates) == len(expected)
        for got, want in zip(report.iterates, expected):
            assert np.max(np.abs(got.values - want)) <= 1e-12 * scale
        # residual_history[k] is the update norm |e_{k+1} - e_k|.
        updates = [l2_norm(GridField(spec, f - e)) for e, f in zip(expected, expected[1:])]
        atol = 1e-12 * updates[0]
        assert np.allclose(report.residual_history[:-1], updates, rtol=0, atol=atol)

    def test_neumann_returns_the_first_iterate_meeting_its_stop_rule(self):
        a, load = sine_problem(n=99)
        cfg = SolverConfig(method="neumann", tol=1e-8, max_iter=2000)
        report = solve_neumann(a, load, cfg)
        stop = cfg.tol * np.linalg.norm(load.E)
        assert report.converged
        assert len(report.residual_history) == report.iterations + 1
        assert report.residual_history[-1] <= stop < report.residual_history[-2]


class TestDispatch:
    def test_solve_routes_by_method(self):
        a, load = sine_problem(n=99)
        assert solve(a, load, SolverConfig(tol=1e-6)).method == "cg"
        assert (
            solve(a, load, SolverConfig(method="neumann", tol=1e-6, max_iter=2000)).method
            == "neumann"
        )

    def test_residual_norm_zero_for_uniform_material_zero_candidate(self):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = sample_analytic(lambda x: 4.0, spec)
        r = residual_norm(a, LoadCase((1.0, 1.0)), GridField.zeros(spec))
        assert r <= 1e-13


class TestMemory:
    def test_one_solve_holds_a_fixed_number_of_fields(self):
        # Five (d, *N) arrays, the half-spectrum workspace, n(k) and the
        # dot products come to about 6.9 fields of d * N * 8 bytes; nothing
        # grows with the iteration count.
        spec = GridSpec((1.0, 1.0, 1.0), (49, 49, 49))
        rng = np.random.default_rng(3)
        a = CoefficientField.isotropic(
            spec, np.where(rng.random(spec.shape) < 0.5, 100.0, 1.0)
        )
        field_bytes = spec.dim * spec.total * 8
        peaks = []
        for max_iter in (5, 50):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cfg = SolverConfig(tol=1e-12, max_iter=max_iter)
                report = solve(a, LoadCase((1.0, 0.0, 0.0)), cfg)
                peaks.append((tracemalloc.get_traced_memory()[1] - before) / field_bytes)
            finally:
                tracemalloc.stop()
            assert report.iterations == max_iter
            del report
        assert max(peaks) <= 7.5
        assert abs(peaks[1] - peaks[0]) <= 0.1
