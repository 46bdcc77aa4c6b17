import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fftcell.families import checkerboard_2d, sine_1d
from fftcell.grid import GridSpec, coordinate_grid
from fftcell.material import (
    CoefficientField,
    MaterialDataError,
    VoxelFormatError,
    _atomic_write,
    apply_A,
    contract,
    load_field,
    load_voxel,
    sample_analytic,
    save_coefficients,
    save_field,
    save_voxel,
    sym_component_pairs,
)
from fftcell.transforms import GridField, l2_inner

from conftest import SMALL_SPECS, grid_point, lattice_slots, random_field, random_spd_field


def loop_sample(f, spec):
    """Every sample expanded to a d x d matrix, then validated and packed:
    the reference that ``sample_analytic`` must reproduce bit for bit."""
    d = spec.dim
    matrices = np.empty((d, d, spec.total))
    for j, x in enumerate(coordinate_grid(spec).reshape(d, -1).T):
        val = np.asarray(f(x), dtype=float)
        matrices[:, :, j] = float(val) * np.eye(d) if val.ndim == 0 else val
    return CoefficientField.from_matrices(spec, matrices.reshape((d, d) + spec.shape))


class TestSampling:
    def test_constant_isotropic_field_bounds(self):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = sample_analytic(lambda x: 5.0, spec)
        assert a.c_A == pytest.approx(5.0)
        assert a.C_A == pytest.approx(5.0)
        assert a.rho_A == pytest.approx(1.0)

    def test_sine_coefficient_bounds_approach_its_range(self):
        spec = sine_1d().default_spec((255,))
        a = sine_1d().sample(spec)
        assert a.c_A == pytest.approx(1.0, abs=2e-3)
        assert a.C_A == pytest.approx(5.0, abs=2e-3)

    def test_two_phase_bounds_are_the_phase_values(self):
        a = checkerboard_2d(2.0, 7.0).sample(GridSpec((1.0, 1.0), (9, 9)))
        assert a.c_A == pytest.approx(2.0)
        assert a.C_A == pytest.approx(7.0)

    def test_matrix_valued_sampler(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        a = sample_analytic(lambda x: np.diag([2.0, 3.0]), spec)
        assert a.c_A == pytest.approx(2.0)
        assert a.C_A == pytest.approx(3.0)

    def test_non_spd_sample_rejected_with_location(self):
        spec = GridSpec((1.0,), (5,))

        def f(x):
            return -1.0 if x[0] > 0.5 else 1.0

        with pytest.raises(MaterialDataError, match="grid slot"):
            sample_analytic(f, spec)

    def test_scalar_and_matrix_samples_may_mix(self):
        spec = GridSpec((1.0, 1.5), (9, 7))

        def value(x):
            return 2.0 + np.sin(np.pi * x[0]) * np.cos(x[1])

        def matrix(x):
            if x[0] > 0:
                return np.array([[value(x), 0.3], [0.3, 4.0]])
            return value(x) * np.eye(2)

        def mixed(x):
            return matrix(x) if x[0] > 0 else value(x)

        got, expected = sample_analytic(mixed, spec), sample_analytic(matrix, spec)
        assert got.data.shape == (3,) + spec.shape
        assert np.array_equal(got.data, expected.data)

    def test_wrong_sample_shape_names_the_point(self):
        spec = GridSpec((1.0, 1.0), (5, 5))

        def f(x):
            return np.ones(3) if x[0] > 0.5 and x[1] < -0.5 else 1.0

        with pytest.raises(
            MaterialDataError, match=r"shape \(3,\) at grid point \(0\.8, -0\.8\)"
        ):
            sample_analytic(f, spec)

    @pytest.mark.parametrize("kind", ["scalar", "matrix", "switching"])
    @pytest.mark.parametrize("shape", [(9,), (9, 7), (5, 3, 7)], ids=str)
    def test_equals_the_per_point_matrix_loop_bit_for_bit(self, kind, shape):
        spec = GridSpec(tuple(0.5 + 0.3 * a for a in range(len(shape))), shape)
        d = spec.dim

        def value(x):
            return 2.0 + np.sin(np.pi * x[0]) * np.cos(x[-1])

        def matrix(x):
            m = value(x) * np.eye(d)
            if d > 1:
                m[0, -1] = m[-1, 0] = 0.1
            return m

        f = {
            "scalar": value,
            "matrix": matrix,
            "switching": lambda x: matrix(x) if x[0] > 0 else value(x),
        }[kind]
        got, want = sample_analytic(f, spec), loop_sample(f, spec)
        assert got.data.shape == want.data.shape
        assert np.array_equal(got.data, want.data)
        assert (got.c_A, got.C_A) == (want.c_A, want.C_A)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("matrix_first", [False, True], ids=["scalar", "matrix"])
    def test_non_finite_sample_rejected(self, bad, matrix_first):
        spec = GridSpec((1.0, 1.0), (5, 5))

        def f(x):
            if x[0] > 0.5 and x[1] > 0.5:
                return bad
            return np.eye(2) if matrix_first else 1.0

        with np.errstate(invalid="ignore"), pytest.raises(MaterialDataError, match="non-finite"):
            sample_analytic(f, spec)

    @pytest.mark.parametrize("shape", [(27,), (9, 7), (5, 3, 7)], ids=str)
    def test_the_sampler_sees_every_grid_point_once_in_storage_order(self, shape):
        spec = GridSpec(tuple(0.5 + 0.3 * a for a in range(len(shape))), shape)
        seen = []

        def f(x):
            seen.append(x.copy())
            return 1.0

        sample_analytic(f, spec)
        expected = [grid_point(spec, k) for k, _ in lattice_slots(spec)]
        assert len(seen) == len(expected) == spec.total
        assert all(np.array_equal(x, y) for x, y in zip(seen, expected))


class TestCoefficientField:
    def test_packed_storage_pairs_list_diagonal_first(self):
        assert sym_component_pairs(3) == [
            (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2),
        ]

    def test_full_tensors_round_trip_packing(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = random_spd_field(spec, rng)
        b = CoefficientField.from_matrices(spec, a.full_tensors)
        assert np.array_equal(a.components, b.components)

    def test_eigen_bounds_match_dense_eigensolver(self, rng):
        for spec in SMALL_SPECS + [GridSpec((1.0,) * 4, (3, 3, 3, 3))]:
            a = random_spd_field(spec, rng)
            d = spec.dim
            mats = np.moveaxis(a.full_tensors.reshape(d, d, -1), -1, 0)
            eigs = np.linalg.eigvalsh(mats)
            assert a.c_A == pytest.approx(float(eigs[:, 0].min()), rel=1e-10)
            assert a.C_A == pytest.approx(float(eigs[:, -1].max()), rel=1e-10)

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e160, 1e300], ids=str)
    @pytest.mark.parametrize("dim", [2, 3])
    def test_eigen_bounds_scale_with_the_tensors(self, dim, s):
        # One nonzero off-diagonal, so the bounds are not the diagonal.
        M = np.diag([1.0, 2.0, 3.0][:dim])
        M[0, 1] = M[1, 0] = 0.5
        eigs = np.linalg.eigvalsh(M)
        spec = GridSpec((1.0,) * dim, (3,) * dim)
        field = np.broadcast_to(M.reshape((dim, dim) + (1,) * dim), (dim, dim) + spec.shape)
        a = CoefficientField.from_matrices(spec, s * field)
        assert a.c_A / s == pytest.approx(eigs[0], rel=1e-14)
        assert a.C_A / s == pytest.approx(eigs[-1], rel=1e-14)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9], ids=str)
    def test_bounds_near_a_repeated_eigenvalue(self, eps):
        # R diag(eps, eps, 1) R^T with one random rotation per point: the
        # double eigenvalue eps is where analytic 3 x 3 solvers lose
        # about sqrt(machine eps) * C_A.
        spec = GridSpec((1.0, 1.0, 1.0), (5, 5, 5))
        rng = np.random.default_rng(5)
        R, _ = np.linalg.qr(rng.standard_normal(spec.shape + (3, 3)))
        mats = np.einsum("...ab,b,...cb->ac...", R, np.array([eps, eps, 1.0]), R)
        a = CoefficientField.from_matrices(spec, mats)
        assert a.c_A == pytest.approx(eps, rel=1e-5)
        assert a.C_A == pytest.approx(1.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda spec: CoefficientField(spec, np.ones((2,) + spec.shape)), "coefficient data shape"),
            (lambda spec: CoefficientField.from_matrices(spec, np.ones((2, 2, 3, 5))), "matrices shape"),
            (lambda spec: CoefficientField.isotropic(spec, np.ones((3, 5))), "scalar field shape"),
        ],
        ids=["packed", "matrices", "isotropic"],
    )
    def test_wrong_data_shape_rejected(self, build, match):
        with pytest.raises(MaterialDataError, match=match):
            build(GridSpec((1.0, 1.0), (3, 3)))

    def test_rayleigh_quotients_lie_within_bounds(self, rng):
        spec = GridSpec((1.0, 1.0, 1.0), (3, 3, 3))
        a = random_spd_field(spec, rng)
        for _ in range(20):
            v = rng.standard_normal(3)
            slot = tuple(rng.integers(0, 3, size=3))
            M = a.full_tensors[(slice(None), slice(None)) + slot]
            q = float(v @ M @ v) / float(v @ v)
            assert a.c_A - 1e-12 <= q <= a.C_A + 1e-12

    def test_asymmetric_matrices_rejected(self):
        spec = GridSpec((1.0,), (3,))
        mats = np.ones((1, 1, 3))
        a = CoefficientField.from_matrices(spec, mats)  # 1-d is always symmetric
        assert a.c_A == 1.0
        spec2 = GridSpec((1.0, 1.0), (3, 3))
        bad = np.broadcast_to(
            np.array([[1.0, 0.3], [0.0, 1.0]])[..., None, None], (2, 2, 3, 3)
        )
        with pytest.raises(MaterialDataError, match="symmetric"):
            CoefficientField.from_matrices(spec2, bad)

    def test_non_finite_entries_rejected(self):
        spec = GridSpec((1.0,), (3,))
        comp = np.ones((1, 3))
        comp[0, 1] = np.nan
        with pytest.raises(MaterialDataError, match="non-finite"):
            CoefficientField(spec, comp)

    def test_isotropic_constructor_expands_to_scaled_identity(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        a = CoefficientField.isotropic(spec, np.full((3, 3), 2.0))
        assert np.allclose(a.full_tensors[0, 0], 2.0)
        assert np.allclose(a.full_tensors[0, 1], 0.0)


class TestLeanStorage:
    def test_isotropic_inputs_land_on_scalar_storage(self, rng):
        spec = GridSpec((1.0, 1.0, 1.0), (3, 5, 7))
        scalars = 1.0 + rng.random(spec.shape)
        packed = np.zeros((6,) + spec.shape)
        packed[:3] = scalars
        mats = np.einsum("ab,...->ab...", np.eye(3), scalars)
        for a in (
            CoefficientField.isotropic(spec, scalars),
            CoefficientField(spec, packed),
            CoefficientField.from_matrices(spec, mats),
        ):
            assert a.data.shape == spec.shape
            assert np.array_equal(a.data, scalars)
            assert (a.c_A, a.C_A) == (scalars.min(), scalars.max())
            assert np.array_equal(a.components, packed)
            assert np.array_equal(a.full_tensors, mats)

    def test_unequal_diagonals_or_off_diagonals_stay_packed(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        for entries in ([2.0, 3.0, 0.0], [2.0, 2.0, 0.5]):
            packed = np.broadcast_to(np.reshape(entries, (3, 1, 1)), (3, 3, 3))
            a = CoefficientField(spec, packed)
            assert np.array_equal(a.data, packed)

    def test_every_1d_field_is_scalar(self, rng):
        a = random_spd_field(GridSpec((1.0,), (9,)), rng)
        assert a.data.shape == (9,)

    def test_isotropic_49_cubed_keeps_one_float_per_point(self, tmp_path):
        spec = GridSpec((1.0, 1.0, 1.0), (49, 49, 49))
        scalars = np.where(np.arange(49) < 20, 10.0, 1.0) * np.ones(spec.shape)
        save_voxel(tmp_path / "f.json", spec, scalars, "isotropic")
        packed = np.zeros((6,) + spec.shape)
        packed[:3] = scalars
        for a in (
            CoefficientField.isotropic(spec, scalars),
            CoefficientField(spec, packed),
            load_voxel(tmp_path / "f.json"),
        ):
            held = [v for v in vars(a).values() if isinstance(v, np.ndarray)]
            # A view would keep its whole base buffer alive: count that.
            stored = sum(v.nbytes if v.base is None else v.base.nbytes for v in held)
            assert stored <= 8 * spec.total

    def test_isotropic_save_load_round_trip_is_byte_exact(self, tmp_path, rng):
        spec = GridSpec((1.0, 2.0), (5, 7))
        a = CoefficientField.isotropic(spec, 0.5 + rng.random(spec.shape))
        save_coefficients(tmp_path / "a.json", a)
        raw = (tmp_path / "a.bin").read_bytes()
        assert raw == a.data.astype("<f8").tobytes()
        b = load_voxel(tmp_path / "a.json")
        assert np.array_equal(a.data, b.data)
        save_coefficients(tmp_path / "b.json", b)
        assert (tmp_path / "b.bin").read_bytes() == raw

    def test_isotropic_field_is_saved_as_one_scalar_per_voxel(self, tmp_path):
        spec = GridSpec((1.0, 1.0, 1.0), (5, 3, 7))
        save_coefficients(tmp_path / "a.json", CoefficientField.isotropic(spec, np.full(spec.shape, 3.0)))
        assert json.loads((tmp_path / "a.json").read_text())["kind"] == "isotropic"
        assert (tmp_path / "a.bin").stat().st_size == 8 * spec.total

    def test_subnormal_coefficient_scale_rejected(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        with pytest.raises(MaterialDataError, match="subnormal"):
            CoefficientField.isotropic(spec, np.full(spec.shape, 1e-310))


class TestApplyA:
    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_isotropic_action_equals_the_full_tensor_sum_bit_for_bit(self, spec, rng):
        a = CoefficientField.isotropic(spec, 0.5 + rng.random(spec.shape))
        u = random_field(spec, rng)
        dense = np.einsum("ab...,b...->a...", a.full_tensors, u.values)
        assert np.array_equal(apply_A(a, u).values, dense)

    @pytest.mark.parametrize("spec", SMALL_SPECS[1:], ids=str)
    def test_packed_action_equals_the_full_tensor_sum(self, spec, rng):
        a = random_spd_field(spec, rng)
        assert a.data.ndim == spec.dim + 1
        u = random_field(spec, rng)
        dense = np.einsum("ab...,b...->a...", a.full_tensors, u.values)
        err = np.linalg.norm(apply_A(a, u).values - dense)
        assert err <= 1e-15 * np.linalg.norm(dense)

    def test_identity_coefficient_is_identity(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = sample_analytic(lambda x: 1.0, spec)
        u = random_field(spec, rng)
        assert np.array_equal(apply_A(a, u).values, u.values)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_coercive_within_the_stored_bounds(self, spec, rng):
        a = random_spd_field(spec, rng)
        for _ in range(5):
            u = random_field(spec, rng)
            e = l2_inner(apply_A(a, u), u)
            n2 = l2_inner(u, u)
            assert a.c_A * n2 - 1e-12 <= e <= a.C_A * n2 + 1e-12

    def test_symmetric_bilinear_form(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = random_spd_field(spec, rng)
        u, v = random_field(spec, rng), random_field(spec, rng)
        lhs = l2_inner(apply_A(a, u), v)
        rhs = l2_inner(u, apply_A(a, v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_action_is_pointwise_local(self, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        a = random_spd_field(spec, rng)
        u = random_field(spec, rng)
        bumped = u.values.copy()
        bumped[0, 2, 3] += 1.0
        delta = apply_A(a, GridField(spec, bumped)).values - apply_A(a, u).values
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 3] = True
        assert np.all(delta[:, ~mask] == 0.0)
        assert np.any(delta[:, mask] != 0.0)

    def test_spec_mismatch_rejected(self, rng):
        a = random_spd_field(GridSpec((1.0,), (5,)), rng)
        u = random_field(GridSpec((1.0,), (7,)), rng)
        with pytest.raises(ValueError, match="specs"):
            apply_A(a, u)


def reference_contract(data, values):
    """The packed contraction written out: diagonal products first, then
    each off-diagonal pair in storage order."""
    d = values.shape[0]
    out = data[:d] * values
    for comp, (a, b) in enumerate(sym_component_pairs(d)[d:], start=d):
        out[a] += data[comp] * values[b]
        out[b] += data[comp] * values[a]
    return out


class TestContractInto:
    @pytest.mark.parametrize(
        "spec",
        [GridSpec((1.0, 1.0), (81, 243)), GridSpec((1.0, 1.0, 1.0), (31, 25, 27))],
        ids=str,
    )
    def test_packed_out_equals_the_plain_result_bit_for_bit(self, spec, rng):
        a = random_spd_field(spec, rng)
        u = random_field(spec, rng).values
        plain = contract(a.data, u)
        out = np.full_like(u, np.nan)
        assert contract(a.data, u, out=out) is out
        assert np.array_equal(out, plain)
        assert np.array_equal(plain, reference_contract(a.data, u))

    def test_scalar_data_may_write_into_its_input(self, rng):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = CoefficientField.isotropic(spec, 0.5 + rng.random(spec.shape))
        u = random_field(spec, rng).values
        expected = contract(a.data, u)
        assert contract(a.data, u, out=u) is u
        assert np.array_equal(u, expected)

    def test_a_given_row_is_the_only_scratch(self, rng):
        # With the caller's row, a packed contraction allocates nothing.
        spec = GridSpec((1.0, 1.0, 1.0), (31, 31, 31))
        a = random_spd_field(spec, rng)
        u = random_field(spec, rng).values
        expected = contract(a.data, u)
        out, row = np.empty_like(u), np.empty(spec.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            contract(a.data, u, out=out, row=row)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < row.nbytes / 10
        assert np.array_equal(out, expected)

    def test_packed_data_refuses_to_write_into_its_input(self, rng):
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = random_spd_field(spec, rng)
        u = random_field(spec, rng).values
        with pytest.raises(ValueError, match="input"):
            contract(a.data, u, out=u)


class TestVoxelFiles:
    def test_tensor_round_trip_is_bit_exact(self, tmp_path, rng):
        spec = GridSpec((1.0, 2.0), (5, 7))
        a = random_spd_field(spec, rng)
        save_coefficients(tmp_path / "mat.json", a)
        b = load_voxel(tmp_path / "mat.json")
        assert b.spec == spec
        assert np.array_equal(a.components, b.components)
        raw = (tmp_path / "mat.bin").read_bytes()
        assert raw == a.components.astype("<f8").tobytes()

    def test_isotropic_constant_file(self, tmp_path):
        spec = GridSpec((1.0, 1.0), (3, 3))
        save_voxel(tmp_path / "c.json", spec, np.full((3, 3), 2.0), "isotropic")
        a = load_voxel(tmp_path / "c.json")
        assert np.allclose(a.full_tensors[0, 0], 2.0)
        assert np.allclose(a.full_tensors[1, 0], 0.0)
        assert a.rho_A == pytest.approx(1.0)

    def test_vector_field_round_trip(self, tmp_path, rng):
        spec = GridSpec((1.0,), (9,))
        u = random_field(spec, rng)
        save_field(tmp_path / "u.json", u)
        v = load_field(tmp_path / "u.json")
        assert np.array_equal(u.values, v.values)

    def test_even_shape_header_rejected_as_format_error(self, tmp_path):
        spec = GridSpec((1.0,), (9,))
        save_voxel(tmp_path / "f.json", spec, np.ones(spec.shape), "isotropic")
        header = (tmp_path / "f.json").read_text().replace("9", "8")
        (tmp_path / "f.json").write_text(header)
        with pytest.raises(VoxelFormatError, match="odd"):
            load_voxel(tmp_path / "f.json")

    @pytest.mark.parametrize(
        "edit",
        [
            {"dim": 2},
            {"half_periods": [1.0, float("nan"), 1.0]},
            {"shape": [3, 3, float("inf")]},
            {"kind": ["isotropic"]},
            {"dtype": "f32le"},
        ],
        ids=["dim", "nan", "inf", "list-kind", "dtype"],
    )
    def test_inconsistent_or_non_finite_header_rejected(self, tmp_path, edit):
        spec = GridSpec((1.0, 1.0, 1.0), (3, 3, 3))
        save_voxel(tmp_path / "f.json", spec, np.ones(spec.shape), "isotropic")
        header = json.loads((tmp_path / "f.json").read_text())
        (tmp_path / "f.json").write_text(json.dumps(header | edit))
        with pytest.raises(VoxelFormatError):
            load_voxel(tmp_path / "f.json")

    @pytest.mark.parametrize("existing", [False, True])
    def test_interrupted_write_leaves_the_target_and_no_temporary(self, tmp_path, existing):
        target = tmp_path / "out.csv"
        if existing:
            target.write_text("old\n")

        def writer(tmp):
            Path(tmp).write_text("partial")
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            _atomic_write(target, writer)
        assert [f.name for f in tmp_path.iterdir()] == (["out.csv"] if existing else [])
        if existing:
            assert target.read_text() == "old\n"

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_writer_that_fails_before_its_temporary_leaves_the_target(self, tmp_path, existing):
        target = tmp_path / "out.csv"
        if existing:
            target.write_text("old\n")

        def writer(tmp):
            raise RuntimeError("no temporary")

        with pytest.raises(RuntimeError, match="no temporary"):
            _atomic_write(target, writer)
        assert [f.name for f in tmp_path.iterdir()] == (["out.csv"] if existing else [])
        if existing:
            assert target.read_text() == "old\n"

    def test_payload_size_mismatch_rejected(self, tmp_path):
        spec = GridSpec((1.0,), (9,))
        save_voxel(tmp_path / "f.json", spec, np.ones(spec.shape), "isotropic")
        (tmp_path / "f.bin").write_bytes(b"\x00" * 8 * 5)
        with pytest.raises(VoxelFormatError, match="expected"):
            load_voxel(tmp_path / "f.json")

    def test_missing_payload_rejected(self, tmp_path):
        spec = GridSpec((1.0,), (9,))
        save_voxel(tmp_path / "f.json", spec, np.ones(spec.shape), "isotropic")
        (tmp_path / "f.bin").unlink()
        with pytest.raises(VoxelFormatError, match="cannot read voxel payload"):
            load_voxel(tmp_path / "f.json")

    @pytest.mark.parametrize(
        "text, match",
        [("dim = 1\n", "cannot read voxel header"), ("5\n", "not a JSON object")],
        ids=["not-json", "not-object"],
    )
    def test_header_that_is_not_a_json_object_rejected(self, tmp_path, text, match):
        (tmp_path / "f.json").write_text(text)
        with pytest.raises(VoxelFormatError, match=match):
            load_voxel(tmp_path / "f.json")

    @pytest.mark.parametrize(
        "kind, shape, match",
        [
            ("tensor", (3, 3), "unknown voxel kind"),
            (["isotropic"], (9,), "unknown voxel kind"),
            ("vector", (3, 3), "payload shape"),
        ],
        ids=["kind", "list-kind", "shape"],
    )
    def test_save_rejects_unknown_kind_or_wrong_payload_shape(self, tmp_path, kind, shape, match):
        spec = GridSpec((1.0, 1.0), (3, 3))
        with pytest.raises(MaterialDataError, match=match):
            save_voxel(tmp_path / "f.json", spec, np.ones(shape), kind)
        assert list(tmp_path.iterdir()) == []

    def test_missing_header_field_rejected(self, tmp_path):
        (tmp_path / "f.json").write_text('{"dim": 1}')
        with pytest.raises(VoxelFormatError, match="missing"):
            load_voxel(tmp_path / "f.json")

    def test_non_spd_payload_is_a_data_error_not_a_format_error(self, tmp_path):
        spec = GridSpec((1.0,), (9,))
        payload = np.ones(spec.shape)
        payload[4] = -2.0
        save_voxel(tmp_path / "f.json", spec, payload, "isotropic")
        with pytest.raises(MaterialDataError, match="grid slot") as exc:
            load_voxel(tmp_path / "f.json")
        assert not isinstance(exc.value, VoxelFormatError)

    def test_vector_kind_rejected_as_coefficient_source(self, tmp_path, rng):
        spec = GridSpec((1.0,), (9,))
        save_field(tmp_path / "u.json", random_field(spec, rng))
        with pytest.raises(MaterialDataError, match="coefficient"):
            load_voxel(tmp_path / "u.json")

    def test_kind_is_checked_before_the_payload_is_read(self, tmp_path, rng):
        spec = GridSpec((1.0, 1.0), (5, 5))
        save_field(tmp_path / "u.json", random_field(spec, rng))
        (tmp_path / "u.bin").unlink()
        with pytest.raises(MaterialDataError, match="does not hold coefficient data") as exc:
            load_voxel(tmp_path / "u.json")
        assert not isinstance(exc.value, VoxelFormatError)

    def test_coefficient_kind_rejected_as_vector_field(self, tmp_path):
        spec = GridSpec((1.0,), (9,))
        save_voxel(tmp_path / "a.json", spec, np.ones(spec.shape), "isotropic")
        with pytest.raises(MaterialDataError, match="vector field"):
            load_field(tmp_path / "a.json")
