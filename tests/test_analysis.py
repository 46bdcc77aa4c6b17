import csv
from fractions import Fraction

import numpy as np
import pytest

from fftcell.analysis import (
    DENSE_ORACLE_LIMIT,
    StudyResult,
    approximation_study,
    contrast_study,
    convergence_study,
    dense_oracle,
    fit_loglog,
    prolong_coeffs,
    spectral_error,
    write_study_csv,
)
from fftcell.families import checkerboard_2d, homogeneous, sine_1d
from fftcell.grid import GridSpec
from fftcell.material import CoefficientField, sample_analytic
from fftcell.solver import LoadCase, SolverConfig, solve_cg
from fftcell.transforms import GridField, interpolate

from conftest import random_spd_field


class TestSlopeFitting:
    def test_recovers_an_exact_power_law(self):
        axis = [0.5, 0.25, 0.125, 0.0625]
        values = [a**2.5 for a in axis]
        slope, r2 = fit_loglog(axis, values)
        assert slope == pytest.approx(2.5, rel=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_drops_a_pre_asymptotic_first_point(self):
        axis = [0.5, 0.25, 0.125, 0.0625, 0.03125]
        values = [a**3 for a in axis]
        values[0] *= 40.0  # coarse-grid point far off the asymptote
        slope, r2 = fit_loglog(axis, values)
        assert slope == pytest.approx(3.0, rel=1e-10)
        assert r2 == pytest.approx(1.0)

    def test_result_axis_must_be_monotone(self):
        with pytest.raises(ValueError, match="monotone"):
            StudyResult((1.0, 3.0, 2.0), (1.0, 1.0, 1.0), 0.0, 1.0)


class TestProlongation:
    def test_zero_padding_preserves_the_polynomial(self):
        coarse = GridSpec((1.0,), (5,))
        fine = GridSpec((1.0,), (17,))
        u = interpolate(lambda x: [np.cos(np.pi * x[0])], coarse)
        v = interpolate(lambda x: [np.cos(np.pi * x[0])], fine)
        assert spectral_error(u, v) <= 1e-13

    def test_distance_between_distinct_modes(self):
        coarse = GridSpec((1.0,), (5,))
        fine = GridSpec((1.0,), (17,))
        u = interpolate(lambda x: [np.cos(np.pi * x[0])], coarse)
        v = interpolate(lambda x: [np.cos(2 * np.pi * x[0])], fine)
        # cos-mode coefficient vectors (1/2, 1/2) differ in four slots.
        assert spectral_error(u, v) == pytest.approx(1.0, rel=1e-12)

    def test_fine_grid_must_dominate(self):
        from fftcell.transforms import dft_forward

        coarse = GridSpec((1.0,), (9,))
        u = dft_forward(GridField.zeros(coarse))
        with pytest.raises(ValueError, match="dominate"):
            prolong_coeffs(u, GridSpec((1.0,), (5,)))


class TestDenseOracle:
    def test_size_guard(self, rng):
        spec = GridSpec((1.0, 1.0), (11, 11))
        a = random_spd_field(spec, rng)
        assert spec.dim * spec.total > DENSE_ORACLE_LIMIT
        with pytest.raises(ValueError, match="dense oracle"):
            dense_oracle(a, LoadCase((1.0, 0.0)))

    def test_uniform_material_has_zero_fluctuation(self):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = sample_analytic(lambda x: 4.0, spec)
        out = dense_oracle(a, LoadCase((1.0, -2.0)))
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_one_dimensional_two_phase_closed_form(self):
        # In one dimension the discrete flux is constant, so the solution is
        # E * harmonic_mean / a(x) - E at every grid point.
        spec = GridSpec((1.0,), (9,))
        vals = np.where(np.arange(9) < 5, 2.0, 8.0)
        a = CoefficientField.isotropic(spec, vals)
        E = 1.5
        out = dense_oracle(a, LoadCase((E,)))
        harmonic = 1.0 / np.mean(1.0 / vals)
        expected = E * harmonic / vals - E
        assert np.max(np.abs(out.values[0] - expected)) <= 1e-10

    def test_agrees_with_the_iterative_solver(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = random_spd_field(spec, rng)
        load = LoadCase((0.3, 1.0))
        cg = solve_cg(a, load, SolverConfig(tol=1e-13, max_iter=500))
        assert cg.converged
        assert np.max(np.abs(cg.solution.values - dense_oracle(a, load).values)) <= 1e-10


class TestConvergenceStudy:
    def test_uniform_material_has_zero_error_everywhere(self):
        cfg = SolverConfig(tol=1e-10, max_iter=100)
        result = convergence_study(homogeneous(3.0, dim=1), [(5,), (9,)], cfg)
        assert all(v <= 1e-13 for v in result.values)

    def test_analytic_coefficient_converges_spectrally(self):
        cfg = SolverConfig(tol=1e-12, max_iter=2000)
        result = convergence_study(sine_1d(), [(9,), (17,), (33,), (65,)], cfg)
        assert result.fitted_exponent >= 4.0
        # Finest-grid error no larger than the coarsest-grid error.
        assert result.values[-1] <= result.values[0]

    def test_axis_is_coarsest_first(self):
        cfg = SolverConfig(tol=1e-10, max_iter=2000)
        result = convergence_study(sine_1d(), [(9,), (17,)], cfg)
        assert result.axis[0] > result.axis[-1]

    def test_a_neumann_config_gives_the_cg_errors(self):
        tol = 1e-10
        cg = convergence_study(sine_1d(), [(9,), (17,)], SolverConfig(tol=tol, max_iter=2000))
        neumann = convergence_study(
            sine_1d(), [(9,), (17,)], SolverConfig(method="neumann", tol=tol, max_iter=5000)
        )
        assert neumann.axis == cg.axis
        # Each solution is within rho_A tol = 5 tol of the exact discrete one.
        assert neumann.values == pytest.approx(cg.values, rel=0, abs=10 * tol)

    def test_an_unconverged_reference_raises(self):
        cfg = SolverConfig(tol=1e-12, max_iter=1)
        with pytest.raises(RuntimeError, match="reference solve did not converge"):
            convergence_study(sine_1d(), [(9,), (17,)], cfg)


class TestContrastStudy:
    def test_iteration_counts_grow_with_contrast(self):
        results = contrast_study(
            lambda rho: checkerboard_2d(1.0, rho), [4.0, 16.0, 64.0], (9, 9), tol=1e-6
        )
        for method in ("cg", "neumann"):
            vals = results[method].values
            assert vals[0] < vals[-1]
            assert results[method].fitted_exponent > 0
        assert results["neumann"].values[-1] >= results["cg"].values[-1]

    def test_censored_points_are_flagged(self):
        results = contrast_study(
            lambda rho: checkerboard_2d(1.0, rho),
            [4.0, 64.0],
            (9, 9),
            tol=1e-10,
            max_iter=3,
        )
        assert any(f.startswith("censored") for f in results["cg"].flags)

    def test_deterministic_across_reruns(self):
        kwargs = dict(contrasts=[4.0, 16.0], shape=(9, 9), tol=1e-6)
        first = contrast_study(lambda rho: checkerboard_2d(1.0, rho), **kwargs)
        second = contrast_study(lambda rho: checkerboard_2d(1.0, rho), **kwargs)
        for method in ("cg", "neumann"):
            assert first[method] == second[method]


class TestApproximationStudy:
    def test_truncation_and_interpolation_rates(self):
        results = approximation_study(2.0, [9, 17, 33, 65])
        assert results[("PN", 0)].fitted_exponent >= 1.8
        assert results[("QN", 0)].fitted_exponent >= 1.7
        assert results[("PN", 1)].fitted_exponent >= 0.8
        assert results[("QN", 1)].fitted_exponent >= 0.7

    def test_truncation_error_never_exceeds_interpolation_error(self):
        results = approximation_study(2.0, [9, 17, 33])
        for p, q in zip(results[("PN", 0)].values, results[("QN", 0)].values):
            assert p <= q + 1e-14

    @pytest.mark.parametrize("s", [2.0, 3.5])
    def test_interpolation_error_matches_exact_alias_sums(self, s):
        # Exact rational arithmetic on the float coefficients: Q_N differs
        # from P_N on each kept mode by the sum of its discarded aliases.
        grids, max_index = [9, 17, 33], 150
        result = approximation_study(s, grids, orders=(0, 1), max_index=max_index)
        ks = range(-max_index, max_index + 1)
        coeffs = {k: Fraction(float(abs(k) ** -(s + 1.0))) for k in ks if k != 0}
        coeffs[0] = Fraction(0)
        for r in (0, 1):
            expected = []
            for n in grids:
                kept = range(-(n // 2), n // 2 + 1)
                err2 = sum(
                    Fraction(k * k) ** r * c**2 for k, c in coeffs.items() if abs(k) > n // 2
                )
                for k in kept:
                    alias = sum(c for m, c in coeffs.items() if m % n == k % n and m != k)
                    err2 += Fraction(max(k * k, 1)) ** r * alias**2
                expected.append(float(err2) ** 0.5)
            got = result[("QN", r)].values
            assert np.allclose(got, expected, rtol=1e-14, atol=0)

    def test_aliased_single_mode_distance(self):
        # A pure mode one full lattice period above index k interpolates to
        # the pure mode at k; the two unit modes are orthonormal, so the
        # interpolation error is exactly sqrt(2).
        n = 5
        k, K = 1, 1 + n
        coeffs_f = {K: 1.0}
        coeffs_qf = {k: 1.0}  # aliasing image on the reduced lattice
        all_modes = set(coeffs_f) | set(coeffs_qf)
        err2 = sum(
            abs(coeffs_f.get(m, 0.0) - coeffs_qf.get(m, 0.0)) ** 2 for m in all_modes
        )
        assert np.sqrt(err2) == pytest.approx(np.sqrt(2.0))


class TestStudyCsv:
    def test_round_trips_axis_values_and_fit(self, tmp_path):
        result = StudyResult((0.5, 0.25), (1.0, 0.25), 2.0, 0.999, "demo", ("flag",))
        path = tmp_path / "study.csv"
        write_study_csv(path, result)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis", "value"]
        assert float(rows[1][0]) == 0.5
        assert ["label", "demo"] in rows
        assert ["flags", "flag"] in rows
