import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fftcell.solver
from fftcell.analysis import dense_oracle
from fftcell.families import checkerboard_2d, sine_1d
from fftcell.green import GreenOperator, ReferenceTensor
from fftcell.grid import GridSpec
from fftcell.homogenize import ConvergenceError, effective_tensor, unit_loads
from fftcell.material import CoefficientField, MaterialDataError, contract, sample_analytic
from fftcell.solver import (
    LoadCase,
    SolverConfig,
    apply_system,
    System,
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
            {"max_iter": 2.5},
            {"max_iter": True},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_cg_rejects_non_scalar_reference(self):
        ref = ReferenceTensor(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError, match="scalar"):
            SolverConfig(method="cg", reference=ref)

    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_a_reference_must_be_a_reference_tensor(self, method):
        with pytest.raises(ValueError, match="ReferenceTensor or None, got ndarray"):
            SolverConfig(method=method, reference=np.eye(2))

    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_solve_checks_the_load_dimension(self, method):
        family = checkerboard_2d(1.0, 10.0)
        a = family.sample(family.default_spec((9, 9)))
        with pytest.raises(ValueError, match="load case dimension does not match grid"):
            solve(a, LoadCase((1.0, 0.0, 0.0)), SolverConfig(method=method))

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
    def test_rejects_a_field_on_another_grid(self, rng):
        a = random_spd_field(GridSpec((1.0, 1.0), (5, 5)), rng)
        u = random_gradient_field(GridSpec((1.0, 1.0), (7, 7)), rng)
        with pytest.raises(ValueError, match="specs do not match"):
            apply_system(a, u)

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
    def test_an_indefinite_operator_stops_the_solve(self, monkeypatch):
        # A negated product gives pAp < 0 at the first step.
        a, load = sine_problem(n=99)
        apply = System.apply
        monkeypatch.setattr(
            System, "apply", lambda self, s, out: np.negative(apply(self, s, out), out=out)
        )
        cfg = SolverConfig()
        report = solve(a, load, cfg)
        assert not report.converged
        assert report.iterations == 0
        assert report.message.startswith("operator lost positive definiteness")
        assert report.true_residual == 1.0
        assert report.float64_applications == 0
        with pytest.raises(ConvergenceError, match="operator lost positive definiteness"):
            effective_tensor(a, cfg)

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
        # l2_norm scales its field by a power of two before squaring, so
        # residual_norm holds up to the ends of the float range.
        for s in (1e-300, 1e-100, 1e100, 1e300):
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

    def test_tensor_reference_solve_matches_the_dense_oracle(self, rng):
        spec = GridSpec((1.0, 1.5), (7, 5))
        a = random_spd_field(spec, rng, shift=1.0)
        a = CoefficientField(spec, a.components * (3.0 / a.C_A))  # C_A < 2 c(A0)
        load = LoadCase((0.6, -0.8))
        cfg = SolverConfig(
            method="neumann", tol=1e-13, max_iter=5000,
            reference=ReferenceTensor(np.array([[2.5, 0.3], [0.3, 2.0]])),
        )
        report = solve_neumann(a, load, cfg)
        exact = dense_oracle(a, load)
        assert report.converged
        assert np.max(np.abs(report.solution.values - exact.values)) <= 1e-10

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

    def test_a_given_system_must_match(self):
        a, load = sine_problem(n=99)
        cg, neumann = SolverConfig(), SolverConfig(method="neumann", max_iter=2000)
        assert np.array_equal(
            solve(a, load, cg, system=System(a, cg)).solution.values,
            solve(a, load, cg).solution.values,
        )
        # Matched by identity: an equal config or a field on the same grid
        # is another system, as the system caches a float32 copy of ``a``.
        twin = CoefficientField.isotropic(a.spec, a.data.copy())
        for system in (System(a, neumann), System(a), System(a, SolverConfig()), System(twin, cg)):
            with pytest.raises(ValueError, match="system does not match"):
                solve(a, load, cg, system=system)
        # Nor is the float32 twin, which shares ``a`` but not the reference.
        with pytest.raises(ValueError, match="system does not match"):
            solve(a, load, cg, system=System(a, cg).twin)

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
        stop = cfg.tol * report.residual_history[0]
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


class TestSharedSystem:
    """One :class:`System` serves concurrent solves: each writes only the
    scratch that :meth:`System.begin` hands it."""

    @pytest.mark.parametrize("method", ["cg", "neumann"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9], ids=["float32", "float64"])
    @pytest.mark.parametrize("kind", ["scalar 2-D", "scalar 3-D", "packed 3-D"])
    def test_two_threads_get_the_bits_of_serial_solves(self, kind, tol, method, rng):
        spec = GridSpec((1.0,) * 2, (45, 45)) if kind.endswith("2-D") else GridSpec((1.0,) * 3, (15,) * 3)
        if kind.startswith("packed"):
            a = random_spd_field(spec, rng)
        else:
            a = CoefficientField.isotropic(spec, 1.0 + 9.0 * rng.random(spec.shape))
        cfg = SolverConfig(method=method, tol=tol, max_iter=2000)
        system = System(a, cfg)
        assert (system.twin is not None) == (tol == 1e-6 and kind.startswith("scalar"))
        loads = unit_loads(spec.dim) * 2
        serial = [solve(a, load, cfg, system=system) for load in loads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleaving of the two threads
        try:
            with ThreadPoolExecutor(2) as pool:
                solves = pool.map(lambda load: solve(a, load, cfg, system=system), loads, timeout=300)
                threaded = list(solves)
        finally:
            sys.setswitchinterval(interval)
        for one, other in zip(serial, threaded):
            assert one.converged and other.converged
            assert one.iterations == other.iterations
            assert np.array_equal(one.solution.values, other.solution.values)
            assert one.residual_history == other.residual_history
            assert one.true_residual == other.true_residual
            assert one.float64_applications == other.float64_applications


class TestMemory:
    """Peak traced allocations in fields of ``d * N * 8`` bytes at 49^3."""

    SPEC = GridSpec((1.0, 1.0, 1.0), (49, 49, 49))

    def two_phase_field(self):
        rng = np.random.default_rng(3)
        return CoefficientField.isotropic(
            self.SPEC, np.where(rng.random(self.SPEC.shape) < 0.5, 100.0, 1.0)
        )

    def test_one_solve_holds_a_fixed_number_of_fields(self):
        # One real buffer, the complex half spectrum, n(k) and four
        # half-lattice scalar arrays (x, r, p and Ap) come to about 4.02
        # fields; nothing grows with the iteration count.
        spec = self.SPEC
        a = self.two_phase_field()
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
        assert max(peaks) <= 4.5
        assert abs(peaks[1] - peaks[0]) <= 0.1

    def test_one_float32_solve_stays_within_the_float64_bound(self):
        # The float32 direction (1/4 field) and coefficients (1/(2d)) are
        # the only additions: about 4.44 fields, as the passes run in the
        # spectrum and the real buffer reinterpreted.
        spec = self.SPEC
        a = self.two_phase_field()
        field_bytes = spec.dim * spec.total * 8
        peaks = []
        for max_iter in (5, 50):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cfg = SolverConfig(tol=1e-6, max_iter=max_iter)
                report = solve(a, LoadCase((1.0, 0.0, 0.0)), cfg)
                peaks.append((tracemalloc.get_traced_memory()[1] - before) / field_bytes)
            finally:
                tracemalloc.stop()
            assert report.iterations == max_iter
            assert report.float64_applications < max_iter  # float32 ran
            del report
        assert max(peaks) <= 4.5
        assert abs(peaks[1] - peaks[0]) <= 0.1

    def test_a_packed_solve_owns_its_contraction_row(self, monkeypatch, rng):
        spec = GridSpec((1.0, 1.0, 1.0), (31, 31, 31))
        a = random_spd_field(spec, rng)
        load = LoadCase((1.0, 0.0, 0.0))
        row_bytes = spec.total * 8
        peaks = []
        for max_iter in (3, 30):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                report = solve(a, load, SolverConfig(tol=1e-14, max_iter=max_iter))
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert report.iterations == max_iter
            del report
        assert abs(peaks[1] - peaks[0]) < row_bytes / 10
        # No contraction of the solve allocates a row of its own.
        inner, calls = fftcell.solver.contract, []

        def traced(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = inner(*args, **kwargs)
            calls.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(fftcell.solver, "contract", traced)
        tracemalloc.start()
        try:
            solve(a, load, SolverConfig(tol=1e-14, max_iter=5))
        finally:
            tracemalloc.stop()
        assert len(calls) == 7  # r_0, five steps and the exit residual
        assert max(calls) < row_bytes / 10

    def test_effective_tensor_streams_its_assembly(self):
        # The third solve peaks: two solutions and one float32 solve, about
        # 6.44 fields.  The system is dropped before the assembly, which
        # holds the d solutions and two scratch fields.
        spec = self.SPEC
        a = self.two_phase_field()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eff = effective_tensor(a, SolverConfig())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(r.converged for r in eff.per_case_reports)
        assert peak / (spec.dim * spec.total * 8) <= 6.5


def relative_true_residual(a, load, report):
    """``|G A (e~ + E)| / |G A E|`` of the returned solution, computed
    apart from the solver."""
    r0 = residual_norm(a, load, GridField.zeros(a.spec))
    return residual_norm(a, load, report.solution) / r0


random_shapes = st.sampled_from([(9, 9), (15, 11), (25, 25), (5, 5, 5), (7, 9, 5)])


class TestCertifiedExit:
    """``converged=True`` rests on a float64 residual that meets the stop
    rule, not on the recursively updated one."""

    def test_a_tol_below_the_attainable_accuracy_is_not_convergence(self):
        # The recursive relative residual reaches 4.3e-17 after 39 steps;
        # the true one stays near 5e-16, the attainable accuracy, which is
        # below the rounding floor (1.3e-14 of |r_0|): the solve stops there.
        a, load = sine_problem(n=99)
        cfg = SolverConfig(tol=1e-16)
        report = solve_cg(a, load, cfg)
        true = relative_true_residual(a, load, report)
        assert not (report.converged and true > cfg.tol)
        assert not report.converged
        assert "attainable accuracy" in report.message
        assert report.true_residual > cfg.tol
        assert report.iterations <= 45

    @pytest.mark.parametrize("tol", [1e-6, 1e-10], ids=str)
    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_the_exit_residual_is_the_true_one(self, method, tol):
        a, load = sine_problem(n=99)
        report = solve(a, load, SolverConfig(method=method, tol=tol, max_iter=5000))
        assert report.converged
        true = relative_true_residual(a, load, report)
        assert report.true_residual == pytest.approx(true, rel=1e-6)
        if method == "cg":
            assert report.true_residual <= tol
            # The exit check replaces the recursive residual in the history.
            assert report.residual_history[-1] == pytest.approx(
                true * report.residual_history[0], rel=1e-6
            )

    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_a_failed_solve_reports_its_true_residual(self, method):
        a, load = sine_problem(n=99)
        report = solve(a, load, SolverConfig(method=method, tol=1e-12, max_iter=3))
        assert report.message == "max_iter exceeded"
        assert report.true_residual == pytest.approx(
            relative_true_residual(a, load, report), rel=1e-9
        )

    def test_a_load_balanced_to_rounding_is_solved_by_zero(self):
        # A laminate loaded along its layers: G A E is rounding noise, which
        # no iterate can reduce by tol.
        a = laminate_27(1.0)
        report = solve_cg(a, LoadCase((0.0, 1.0)), SolverConfig(tol=1e-10))
        assert report.converged
        assert report.iterations == 0
        assert np.all(report.solution.values == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        shape=random_shapes,
        seed=st.integers(0, 2**32 - 1),
        contrast=st.floats(1.5, 100.0),
        tol=st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10]),
        method=st.sampled_from(["cg", "neumann"]),
    )
    def test_convergence_implies_the_stop_rule_on_random_fields(
        self, shape, seed, contrast, tol, method
    ):
        rng = np.random.default_rng(seed)
        spec = GridSpec((1.0,) * len(shape), shape)
        a = CoefficientField.isotropic(spec, 1.0 + (contrast - 1.0) * rng.random(shape))
        load = LoadCase(tuple(rng.standard_normal(spec.dim)))
        report = solve(a, load, SolverConfig(method=method, tol=tol, max_iter=20000))
        assert report.converged
        true = residual_norm(a, load, report.solution)
        assert true <= tol * residual_norm(a, load, GridField.zeros(spec))
        if method == "neumann":
            # The update norm |G A (e~ + E)| / lambda of the default
            # reference, which the rule implies: |G A E| < lambda |E|.
            lam = default_reference(a).scalar_mode
            assert true <= lam * tol * np.linalg.norm(load.E)


def checkerboard_81():
    return checkerboard_2d(1.0, 100.0).sample(GridSpec((1.0, 1.0), (81, 81)))


def two_phase_31():
    spec = GridSpec((1.0, 1.0, 1.0), (31, 31, 31))
    rng = np.random.default_rng(3)
    return CoefficientField.isotropic(spec, np.where(rng.random(spec.shape) < 0.5, 100.0, 1.0))


class TestFloat32Products:
    """A solve on scalar coefficients around a scalar reference ``lambda I``
    with tol >= 1e-7 and ``a / lambda`` within float32's normal range
    applies ``Gamma0 A p`` in float32, with float64 reliable updates and
    exit check."""

    # Iteration counts of the float64 products at tol 1e-6, per load case.
    FLOAT64_COUNTS = {"checkerboard-81": [56, 56], "two-phase-31": [52, 50, 51]}

    @pytest.mark.parametrize("case", sorted(FLOAT64_COUNTS))
    def test_counts_and_A_eff_match_the_float64_solve(self, case):
        a = checkerboard_81() if case == "checkerboard-81" else two_phase_31()
        tol = 1e-6
        eff = effective_tensor(a, SolverConfig(tol=tol))
        reports = eff.per_case_reports
        assert [r.iterations for r in reports] == self.FLOAT64_COUNTS[case]
        loads = [LoadCase(tuple(e)) for e in np.eye(a.spec.dim)]
        R = []
        for load, report in zip(loads, reports):
            assert report.float64_applications < report.iterations  # float32 ran
            assert report.true_residual <= tol
            assert relative_true_residual(a, load, report) <= tol
            R.append(residual_norm(a, load, report.solution))
        bound = np.outer(R, R) / a.c_A
        if case == "checkerboard-81":
            exact = np.sqrt(100.0) * np.eye(2)
        else:
            fine = effective_tensor(a, SolverConfig(tol=1e-12))
            R_fine = [residual_norm(a, l, r.solution) for l, r in zip(loads, fine.per_case_reports)]
            exact = fine.matrix
            bound = bound + np.outer(R_fine, R_fine) / a.c_A
        assert np.all(np.abs(eff.matrix - exact) <= bound)

    def test_power_of_two_scalings_give_bit_identical_results(self):
        a = checkerboard_2d(1.0, 100.0).sample(GridSpec((1.0, 1.0), (27, 27)))
        cfg = SolverConfig(tol=1e-6)
        base = solve_cg(a, LoadCase((0.6, -0.8)), cfg)
        base_eff = effective_tensor(a, cfg).matrix
        for k, m in [(3, 0), (-7, 5), (60, -40)]:
            scaled = CoefficientField(a.spec, 2.0**k * a.data)
            other = solve_cg(scaled, LoadCase((0.6 * 2.0**m, -0.8 * 2.0**m)), cfg)
            assert other.iterations == base.iterations
            assert np.array_equal(other.solution.values, 2.0**m * base.solution.values)
            assert np.array_equal(effective_tensor(scaled, cfg).matrix, 2.0**k * base_eff)

    @pytest.mark.parametrize("s", [1e-300, 1e300], ids=str)
    def test_extreme_scalings_keep_counts_and_A_eff(self, s):
        a = checkerboard_81()
        tol = 1e-6
        base = effective_tensor(a, SolverConfig(tol=tol))
        other = effective_tensor(CoefficientField(a.spec, s * a.data), SolverConfig(tol=tol))
        counts = [r.iterations for r in base.per_case_reports]
        assert [r.iterations for r in other.per_case_reports] == counts
        assert all(r.float64_applications < r.iterations for r in other.per_case_reports)
        assert np.max(np.abs(other.matrix / s - base.matrix)) <= 10 * tol * np.max(base.matrix)

    @pytest.mark.parametrize(
        "case, single",
        [
            ("cg", True), ("tol 1e-7", True), ("contrast 2^126", True),
            ("neumann", True), ("packed", False), ("tol 9.9e-8", False),
            ("contrast 2^127", False), ("neumann tensor", False),
            ("neumann lambda 1e100", False),
        ],
    )
    def test_float32_products_run_only_inside_their_rule(self, case, single, rng):
        # In float64 every step is a float64 application, and so is the
        # check of the reported residual: max_iter + 1 in all.
        spec = GridSpec((1.0, 1.0), (9, 9))
        scalars = 1.0 + 9.0 * rng.random(spec.shape)
        cfg = {"method": "cg", "tol": 1e-6, "max_iter": 3}
        if case.startswith("neumann"):
            cfg["method"] = "neumann"
            if case.endswith("tensor"):
                cfg["reference"] = ReferenceTensor(np.diag([6.0, 5.5]))
            elif case.endswith("1e100"):  # c_A / lambda underflows float32
                cfg["reference"] = ReferenceTensor.scalar(1e100, 2)
        elif case.startswith("tol"):
            cfg["tol"] = float(case.split()[1])
        elif case.startswith("contrast"):
            scalars = np.where(rng.random(spec.shape) < 0.5, 2.0 ** int(case[-3:]), 1.0)
        a = random_spd_field(spec, rng) if case == "packed" else CoefficientField.isotropic(spec, scalars)
        report = solve(a, LoadCase((1.0, 0.0)), SolverConfig(**cfg))
        assert report.iterations == 3
        assert (report.float64_applications < 4) == single
        if not single:
            assert report.float64_applications == 4

    def test_each_system_counts_its_own_products(self, monkeypatch, rng):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = CoefficientField.isotropic(spec, 1.0 + 9.0 * rng.random(spec.shape))
        cfg = SolverConfig(tol=1e-6, max_iter=3)
        system = System(a, cfg)
        begin, works = System.begin, []

        def recorded(self, *buffers):
            works.append(begin(self, *buffers))
            return works[-1]

        monkeypatch.setattr(System, "begin", recorded)
        for _ in range(2):  # each solve restarts both counts
            report = solve(a, LoadCase((1.0, 0.0)), cfg, system=system)
            work = works[-1]  # the parent's copy, bound after its twin's
            assert work.cfg is cfg and work.twin is works[-2]
            assert report.iterations == work.twin.analyses == 3
            assert report.float64_applications == work.analyses - 1
        assert len(works) == 4 and works[1] is not works[3]
        # The counts live in the solve's copy; the shared system keeps none.
        assert not hasattr(system, "analyses") and not hasattr(system.twin, "analyses")

    def test_a_over_lambda_beyond_float32_runs_in_float64(self, rng):
        # Around lambda = 1e-100, C_A / lambda overflows float32.  Gamma0 A
        # scales by 1e100, so the residual leaves float64 after one step,
        # which is then the one float64 application.
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = CoefficientField.isotropic(spec, 1.0 + 9.0 * rng.random(spec.shape))
        ref = ReferenceTensor.scalar(1e-100, 2)
        cfg = SolverConfig(method="neumann", tol=1e-6, max_iter=3, reference=ref)
        with np.errstate(over="ignore", invalid="ignore"):
            report = solve(a, LoadCase((1.0, 0.0)), cfg)
        assert "non-finite residual" in report.message
        assert report.iterations == report.float64_applications == 1

    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_a_stalled_float32_recursion_carries_on_in_float64(self, method, monkeypatch, rng):
        # A twin whose direction is off by half gives float32 products that
        # do not lower the true residual: the solve switches to float64.
        # CG restarts along r; the Neumann step is r itself and is kept.
        single = GreenOperator.single

        def corrupted(self):
            twin = single(self)
            twin.n = twin.n * np.float32(0.5)
            return twin

        monkeypatch.setattr(GreenOperator, "single", corrupted)
        spec = GridSpec((1.0, 1.0), (31, 31))
        a = CoefficientField.isotropic(spec, 1.0 + 9.0 * rng.random(spec.shape))
        load = LoadCase((1.0, 0.0))
        report = solve(a, load, SolverConfig(method=method, tol=1e-6))
        assert report.converged
        assert relative_true_residual(a, load, report) <= 1e-6
        assert report.float64_applications > 3
