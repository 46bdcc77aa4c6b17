import csv
import itertools
import os
import sys
import threading

import numpy as np
import pytest

import fftcell.homogenize
from fftcell.families import sine_1d
from fftcell.green import GreenOperator, ReferenceTensor, project_J
from fftcell.grid import GridSpec
from fftcell.homogenize import (
    ConvergenceError,
    effective_tensor,
    flux_field,
    mean_flux,
    unit_loads,
    write_history_csv,
    write_tensor_csv,
)
from fftcell.material import CoefficientField, apply_A, sample_analytic
from fftcell.solver import LoadCase, SolverConfig, System, solve, solve_cg
from fftcell.transforms import GridField, l2_inner, l2_norm

from conftest import bounded, pin_cores, random_spd_field


class TestEffectiveTensor:
    def test_uniform_material_reproduces_itself_exactly(self):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = sample_analytic(lambda x: 3.5, spec)
        eff = effective_tensor(a, SolverConfig(tol=1e-10))
        assert np.array_equal(eff.matrix, 3.5 * np.eye(2))
        assert all(r.iterations == 0 for r in eff.per_case_reports)

    def test_one_dimensional_sine_matches_harmonic_mean(self):
        family = sine_1d()
        a = family.sample(family.default_spec((255,)))
        eff = effective_tensor(a, SolverConfig(tol=1e-10, max_iter=500))
        assert eff.matrix[0, 0] == pytest.approx(np.sqrt(5.0), abs=1e-6)

    def test_symmetric_within_solver_slack(self, rng):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = random_spd_field(spec, rng)
        tol = 1e-9
        eff = effective_tensor(a, SolverConfig(tol=tol, max_iter=2000))
        asym = np.max(np.abs(eff.matrix - eff.matrix.T))
        assert asym <= 10 * tol * a.C_A

    def test_spd_with_eigenvalues_inside_material_bounds(self, rng):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = random_spd_field(spec, rng)
        eff = effective_tensor(a, SolverConfig(tol=1e-10, max_iter=2000))
        eigs = np.linalg.eigvalsh(0.5 * (eff.matrix + eff.matrix.T))
        slack = 1e-6 * a.C_A
        assert eigs[0] >= a.c_A - slack
        assert eigs[-1] <= a.C_A + slack

    def test_bounded_above_by_the_arithmetic_mean(self, rng):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = random_spd_field(spec, rng)
        tol = 1e-9
        eff = effective_tensor(a, SolverConfig(tol=tol, max_iter=2000))
        voigt = a.full_tensors.reshape(2, 2, -1).mean(axis=2)
        gap_eigs = np.linalg.eigvalsh(voigt - 0.5 * (eff.matrix + eff.matrix.T))
        assert gap_eigs[0] >= -10 * tol * a.C_A

    def test_bounded_below_by_the_harmonic_mean_in_one_dimension(self):
        family = sine_1d()
        a = family.sample(family.default_spec((99,)))
        eff = effective_tensor(a, SolverConfig(tol=1e-10, max_iter=500))
        reuss = 1.0 / np.mean(1.0 / a.components[0])
        assert eff.matrix[0, 0] >= reuss - 1e-8

    def test_non_convergence_raises_with_partial_reports(self):
        family = sine_1d()
        a = family.sample(family.default_spec((99,)))
        with pytest.raises(ConvergenceError) as exc:
            effective_tensor(a, SolverConfig(tol=1e-12, max_iter=1))
        assert len(exc.value.reports) == 1
        assert not exc.value.reports[-1].converged

    @pytest.mark.parametrize("packed_field", [False, True], ids=["scalar", "packed"])
    def test_streamed_assembly_equals_the_list_formula_bit_for_bit(self, packed_field, rng):
        spec = GridSpec((1.0, 0.8, 1.3), (7, 5, 9))
        if packed_field:
            a = random_spd_field(spec, rng)
        else:
            a = CoefficientField.isotropic(spec, rng.uniform(1.0, 10.0, spec.shape))
        eff = effective_tensor(a, SolverConfig(tol=1e-10, max_iter=2000))
        totals = [
            GridField(spec, r.solution.values + load.expand(spec).values)
            for r, load in zip(eff.per_case_reports, unit_loads(spec.dim))
        ]
        fluxes = [apply_A(a, e) for e in totals]
        listed = [[l2_inner(j, e) for e in totals] for j in fluxes]
        assert np.array_equal(eff.matrix, np.array(listed))

    def test_unit_loads_are_the_canonical_basis(self):
        loads = unit_loads(3)
        assert [l.E for l in loads] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("tol", [1e-8, 1e-6])  # float64 and float32 products
    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_one_system_serves_every_load_case(self, method, tol, rng, monkeypatch):
        spec = GridSpec((1.0, 1.0, 1.0), (15, 15, 15))
        a = CoefficientField.isotropic(
            spec, np.where(rng.random(spec.shape) < 0.3, 10.0, 1.0)
        )
        cfg = SolverConfig(method=method, tol=tol, max_iter=2000)
        built, twins = [], []
        init, single = GreenOperator.__init__, GreenOperator.single

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def counting_single(self):
            twins.append(self)
            return single(self)

        monkeypatch.setattr(GreenOperator, "__init__", counting_init)
        monkeypatch.setattr(GreenOperator, "single", counting_single)
        shared = effective_tensor(a, cfg)
        assert len(built) == 1
        assert len(twins) == (tol >= 1e-7)  # one float32 twin per homogenization
        # Each load case again on a system of its own: the same solution,
        # and every report owns its solution.
        for report, load in zip(shared.per_case_reports, unit_loads(spec.dim)):
            alone = solve(a, load, cfg, system=System(a, cfg))
            assert np.array_equal(report.solution.values, alone.solution.values)
            assert report.residual_history == alone.residual_history
        solutions = [report.solution.values for report in shared.per_case_reports]
        assert not any(np.shares_memory(u, v) for u, v in itertools.combinations(solutions, 2))
        # The same homogenization with a system built inside each solve
        # besides the unused shared one.
        monkeypatch.setattr(
            fftcell.homogenize, "solve", lambda a, load, cfg, system: solve(a, load, cfg)
        )
        built.clear()
        per_case = effective_tensor(a, cfg)
        assert len(built) == 1 + spec.dim
        assert np.array_equal(shared.matrix, per_case.matrix)


def assert_same_reports(reports, others):
    """Equal report fields: solution, history, counts and exit state."""
    assert len(reports) == len(others)
    for one, other in zip(reports, others):
        assert np.array_equal(one.solution.values, other.solution.values)
        assert one.residual_history == other.residual_history
        assert one.iterations == other.iterations
        assert one.converged == other.converged and one.message == other.message
        assert one.true_residual == other.true_residual
        assert one.float64_applications == other.float64_applications


class TestThreadedLoadCases:
    """From ``_PARALLEL_POINTS`` grid points on, the load cases run on
    ``min(d, usable cores)`` threads and give the serial loop's results."""

    @pytest.fixture
    def solvers(self, monkeypatch):
        """Threads from one grid point on; maps each solved load case to
        the thread that solved it."""
        monkeypatch.setattr(fftcell.homogenize, "_PARALLEL_POINTS", 1)
        threads, inner = {}, fftcell.homogenize.solve

        def recorded(a, load, cfg, **kwargs):
            threads[load.E.index(1.0)] = threading.current_thread()
            return inner(a, load, cfg, **kwargs)

        monkeypatch.setattr(fftcell.homogenize, "solve", recorded)
        return threads

    def serial_and_threaded(self, monkeypatch, cores, fn, *args):
        """``fn(*args)`` on one core, then on ``cores``, each bounded in time."""
        pin_cores(monkeypatch, 1)
        serial = bounded(fn, *args)
        pin_cores(monkeypatch, cores)
        return serial, bounded(fn, *args)

    def failure(self, fn, *args):
        with pytest.raises(ConvergenceError) as exc:
            bounded(fn, *args)
        return exc.value

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("method", ["cg", "neumann"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9], ids=["float32", "float64"])
    @pytest.mark.parametrize("kind", ["scalar 2-D", "scalar 3-D", "packed 3-D"])
    def test_threads_give_the_bits_of_the_serial_loop(
        self, kind, tol, method, cores, solvers, monkeypatch, rng
    ):
        spec = GridSpec((1.0,) * 2, (45, 45)) if kind.endswith("2-D") else GridSpec((1.0,) * 3, (15,) * 3)
        if kind.startswith("packed"):
            a = random_spd_field(spec, rng)
        else:
            a = CoefficientField.isotropic(spec, 1.0 + 9.0 * rng.random(spec.shape))
        cfg = SolverConfig(method=method, tol=tol, max_iter=2000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleaving of the threads
        try:
            serial, threaded = self.serial_and_threaded(monkeypatch, cores, effective_tensor, a, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.matrix, threaded.matrix)
        assert_same_reports(serial.per_case_reports, threaded.per_case_reports)
        # The calling thread solved cases 0, w, 2w, ... and a worker each
        # other case; none is left running.
        w = min(spec.dim, cores)
        assert len(set(solvers.values())) == w
        assert all(solvers[alpha] is solvers[0] for alpha in range(0, spec.dim, w))
        assert not any(thread.is_alive() for thread in solvers.values())

    @pytest.mark.parametrize("axis, failing", [(1, 1), (0, 0)], ids=["worker", "caller"])
    def test_one_failing_case_raises_for_it_in_load_order(self, axis, failing, solvers, monkeypatch):
        # A laminate loaded along its layers is solved by zero; across them
        # it needs more than the one step allowed.
        spec = GridSpec((1.0, 1.0), (45, 45))
        a = sample_analytic(lambda x: 3.0 + 2.0 * np.sin(np.pi * x[axis]), spec)
        cfg = SolverConfig(tol=1e-12, max_iter=1)
        serial, threaded = self.serial_and_threaded(monkeypatch, 2, self.failure, effective_tensor, a, cfg)
        assert len(threaded.reports) == failing + 1
        assert not threaded.reports[-1].converged
        assert str(threaded) == str(serial)
        assert_same_reports(serial.reports, threaded.reports)
        assert len(set(solvers.values())) == 2
        assert not any(thread.is_alive() for thread in solvers.values())

    def test_every_case_failing_raises_for_the_first(self, solvers, monkeypatch, rng):
        spec = GridSpec((1.0, 1.0, 1.0), (15, 15, 15))
        a = CoefficientField.isotropic(spec, 1.0 + 9.0 * rng.random(spec.shape))
        cfg = SolverConfig(tol=1e-12, max_iter=1)
        serial, threaded = self.serial_and_threaded(monkeypatch, 3, self.failure, effective_tensor, a, cfg)
        assert len(threaded.reports) == 1
        assert_same_reports(serial.reports, threaded.reports)
        assert len(set(solvers.values())) == 3
        assert not any(thread.is_alive() for thread in solvers.values())

    @pytest.mark.parametrize("max_iter", [1000, 1], ids=["raises", "case 0 fails first"])
    def test_a_worker_exception_is_raised_again_in_load_order(self, max_iter, solvers, monkeypatch, rng):
        spec = GridSpec((1.0, 1.0), (45, 45))
        a = CoefficientField.isotropic(spec, 1.0 + 9.0 * rng.random(spec.shape))
        cfg = SolverConfig(tol=1e-12, max_iter=max_iter)
        inner = fftcell.homogenize.solve

        def raising(a, load, cfg, **kwargs):
            report = inner(a, load, cfg, **kwargs)
            if load.E[1]:
                raise ValueError("case 1 fails in its worker")
            return report

        monkeypatch.setattr(fftcell.homogenize, "solve", raising)
        pin_cores(monkeypatch, 2)
        expected = ValueError if max_iter > 1 else ConvergenceError
        with pytest.raises(expected) as exc:
            bounded(effective_tensor, a, cfg)
        if expected is ConvergenceError:
            assert len(exc.value.reports) == 1
        assert solvers[1] is not solvers[0]
        assert not solvers[1].is_alive()

    def test_one_core_or_a_small_grid_starts_no_thread(self, monkeypatch, rng):
        def refused(thread):
            raise AssertionError("a thread was started")

        spec = GridSpec((1.0, 1.0, 1.0), (15, 15, 15))
        a = CoefficientField.isotropic(spec, 1.0 + 9.0 * rng.random(spec.shape))
        cfg = SolverConfig(tol=1e-8)
        assert spec.total < fftcell.homogenize._PARALLEL_POINTS
        monkeypatch.setattr(threading.Thread, "start", refused)
        pin_cores(monkeypatch, 3)
        below = effective_tensor(a, cfg)  # below the threshold
        monkeypatch.setattr(fftcell.homogenize, "_PARALLEL_POINTS", 1)
        pin_cores(monkeypatch, 1)
        one_core = effective_tensor(a, cfg)
        # Without an affinity call, the machine's count of one core.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        counted = effective_tensor(a, cfg)
        assert np.array_equal(below.matrix, one_core.matrix)
        assert np.array_equal(below.matrix, counted.matrix)


class TestSolutionStructure:
    def test_solution_scales_linearly_with_the_load(self):
        family = sine_1d()
        a = family.sample(family.default_spec((99,)))
        cfg = SolverConfig(tol=1e-11, max_iter=500)
        one = solve_cg(a, LoadCase((1.0,)), cfg)
        three = solve_cg(a, LoadCase((3.0,)), cfg)
        assert np.max(np.abs(three.solution.values - 3.0 * one.solution.values)) <= 1e-10

    def test_flux_mean_equals_the_effective_tensor_column(self):
        family = sine_1d()
        a = family.sample(family.default_spec((255,)))
        cfg = SolverConfig(tol=1e-10, max_iter=500)
        eff = effective_tensor(a, cfg)
        load = unit_loads(1)[0]
        j = flux_field(a, eff.per_case_reports[0], load)
        assert mean_flux(j) == pytest.approx(eff.matrix[:, 0], abs=1e-8)

    def test_uniform_material_flux_is_the_load_times_coefficient(self):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = sample_analytic(lambda x: 2.0, spec)
        load = LoadCase((1.0, -1.0))
        report = solve_cg(a, load, SolverConfig(tol=1e-10))
        j = flux_field(a, report, load)
        assert np.allclose(j.values[0], 2.0)
        assert np.allclose(j.values[1], -2.0)

    def test_flux_is_divergence_free_up_to_solver_tolerance(self):
        family = sine_1d()
        a = family.sample(family.default_spec((255,)))
        cfg = SolverConfig(tol=1e-10, max_iter=500)
        load = LoadCase((1.0,))
        report = solve_cg(a, load, cfg)
        j = flux_field(a, report, load)
        mean = GridField.constant(a.spec, mean_flux(j))
        fluctuation = GridField(a.spec, j.values - mean.values)
        kept = project_J(j, ReferenceTensor.scalar(1.0, 1))
        drift = l2_norm(GridField(a.spec, kept.values - fluctuation.values))
        assert drift <= 100 * cfg.tol * l2_norm(j)

    def test_flux_requires_a_converged_report(self):
        family = sine_1d()
        a = family.sample(family.default_spec((99,)))
        report = solve_cg(a, LoadCase((1.0,)), SolverConfig(tol=1e-12, max_iter=1))
        with pytest.raises(ValueError, match="converged"):
            flux_field(a, report, LoadCase((1.0,)))


class TestCsvOutput:
    def test_tensor_csv_round_trips_all_digits(self, tmp_path):
        matrix = np.array([[np.sqrt(5.0), 1e-17], [-1e-17, np.pi]])
        path = tmp_path / "eff.csv"
        write_tensor_csv(path, matrix)
        with open(path, newline="") as fh:
            rows = [[float(c) for c in row] for row in csv.reader(fh)]
        assert np.array_equal(np.array(rows), matrix)

    def test_history_csv_carries_iteration_numbers(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_history_csv(path, (1.0, 0.25, 0.0625))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "residual"]
        assert rows[2] == ["1", "0.25"]
