import numpy as np
import pytest

from fftcell.analysis import dense_oracle
from fftcell.families import checkerboard_2d, sine_1d
from fftcell.green import ReferenceTensor
from fftcell.grid import GridSpec
from fftcell.homogenize import effective_tensor
from fftcell.material import CoefficientField, sample_analytic
from fftcell.solver import (
    LoadCase,
    SolverConfig,
    apply_system,
    default_reference,
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

    def test_warm_start_stops_at_the_cold_start_accuracy(self):
        a, load = sine_problem(n=99)
        cfg = SolverConfig(tol=1e-8, max_iter=500)
        cold = solve_cg(a, load, cfg)
        warm = solve_cg(a, load, cfg, init=cold.solution)
        assert warm.converged
        assert warm.iterations <= 2
        assert np.allclose(warm.solution.values, cold.solution.values, atol=1e-8)

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
        assert report.iterations == 1
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
