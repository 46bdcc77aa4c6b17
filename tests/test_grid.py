import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftcell.grid import (
    GridSpec,
    coordinate_grid,
    frequency_grid,
    half_frequency_grid,
    index_grid,
    next_fast_odd,
    underlined_frequency_grid,
)

from conftest import grid_point, lattice_slots, mirror

odd_shapes = st.lists(
    st.sampled_from([1, 3, 5, 7, 9]), min_size=1, max_size=3
).map(tuple)


def spec_for(shape):
    return GridSpec((1.0,) * len(shape), shape)


class TestGridSpec:
    def test_spacings_and_counts(self):
        spec = GridSpec((1.0, 2.0), (3, 5))
        assert spec.dim == 2
        assert spec.total == 15
        assert spec.spacings == (2.0 / 3.0, 4.0 / 5.0)
        assert spec.c_h == pytest.approx(2.0 / 3.0)
        assert spec.C_h == pytest.approx(4.0 / 5.0)
        assert spec.rho_h >= 1.0

    def test_spacing_times_count_recovers_period(self):
        spec = GridSpec((1.0, 2.0, 0.7), (3, 5, 9))
        for h, n, y in zip(spec.spacings, spec.shape, spec.half_periods):
            assert h * n == pytest.approx(2.0 * y, rel=1e-15)

    @pytest.mark.parametrize("shape", [(4,), (3, 6), (0,), (-3,), (3.7, 9)])
    def test_even_or_nonpositive_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="odd"):
            GridSpec((1.0,) * len(shape), shape)

    def test_nonpositive_half_period_rejected(self):
        with pytest.raises(ValueError):
            GridSpec((0.0,), (3,))

    @pytest.mark.parametrize("y", [float("nan"), float("inf")])
    def test_non_finite_half_period_rejected(self, y):
        with pytest.raises(ValueError, match="finite"):
            GridSpec((1.0, y), (3, 3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GridSpec((1.0, 1.0), (3,))


class TestCoordinateGrid:
    def test_origin(self):
        assert coordinate_grid(spec_for((3,)))[:, 0] == pytest.approx([0.0])

    def test_unit_step_is_one_spacing(self):
        assert coordinate_grid(spec_for((3,)))[:, 1] == pytest.approx([2.0 / 3.0])

    def test_componentwise_scaling(self):
        spec = GridSpec((1.0, 2.0), (3, 5))
        # k = (-1, 2) sits in slot (2, 2).
        assert coordinate_grid(spec)[:, 2, 2] == pytest.approx([-2.0 / 3.0, 8.0 / 5.0])

    def test_no_point_outside_lattice(self):
        # k = 2 is outside the lattice of N = 3, so no point lies at 2 h.
        assert np.max(np.abs(coordinate_grid(spec_for((3,))))) == pytest.approx(2.0 / 3.0)

    @given(odd_shapes)
    @settings(max_examples=25, deadline=None)
    def test_matches_grid_point_bit_for_bit(self, shape):
        spec = GridSpec(tuple(0.7 + a for a in range(len(shape))), shape)
        x = coordinate_grid(spec)
        for k, slot in lattice_slots(spec):
            assert np.array_equal(x[(slice(None),) + slot], grid_point(spec, k))


class TestFrequencyGrid:
    def test_unit_cell(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        assert frequency_grid(spec)[:, 1, 0] == pytest.approx([1.0, 0.0])

    def test_scaled_cell(self):
        spec = GridSpec((2.0, 1.0), (3, 9))
        assert frequency_grid(spec)[:, 1, 3] == pytest.approx([0.5, 3.0])

    def test_underlined_variant_is_ones_at_origin(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        assert underlined_frequency_grid(spec)[:, 0, 0] == pytest.approx([1.0, 1.0])
        assert underlined_frequency_grid(spec)[:, 1, 0] == pytest.approx([1.0, 0.0])

    def test_largest_index_of_a_finer_grid(self):
        assert frequency_grid(spec_for((15,)))[:, 7] == pytest.approx([7.0])

    PER_AXIS_SPECS = [
        GridSpec((1.3,), (9,)), GridSpec((0.7, 2.1), (9, 15)), GridSpec((1.0, 0.6, 1.7), (5, 7, 3))
    ]

    @pytest.mark.parametrize("spec", PER_AXIS_SPECS, ids=str)
    def test_per_axis_grids_equal_the_index_grid_formulas_bit_for_bit(self, spec):
        ks = index_grid(spec)
        shape = (spec.dim,) + (1,) * spec.dim
        assert ks.dtype == int and ks.shape == (spec.dim,) + spec.shape
        h = np.array(spec.spacings).reshape(shape)
        assert np.array_equal(coordinate_grid(spec), ks * h)
        Y = np.array(spec.half_periods).reshape(shape)
        assert np.array_equal(frequency_grid(spec), ks.astype(float) / Y)

    @pytest.mark.parametrize("spec", PER_AXIS_SPECS, ids=str)
    def test_half_lattice_is_the_slice_of_the_full_one_bit_for_bit(self, spec):
        half = half_frequency_grid(spec)
        assert half.shape == (spec.dim,) + spec.shape[:-1] + (spec.shape[-1] // 2 + 1,)
        assert np.array_equal(half, frequency_grid(spec)[..., : spec.shape[-1] // 2 + 1])


class TestLattice:
    def test_storage_order_1d(self):
        assert index_grid(spec_for((3,)))[0].tolist() == [0, 1, -1]

    def test_1d_n5_members(self):
        assert set(index_grid(spec_for((5,)))[0].tolist()) == {-2, -1, 0, 1, 2}

    def test_2d_enumerates_each_index_once(self):
        ks = [tuple(k) for k in index_grid(spec_for((3, 3))).reshape(2, -1).T]
        assert len(ks) == 9
        assert len(set(ks)) == 9

    @given(shape=odd_shapes)
    @settings(max_examples=30, deadline=None)
    def test_lattice_symmetric_and_counted(self, shape):
        spec = spec_for(shape)
        ks = {tuple(k) for k in index_grid(spec).reshape(spec.dim, -1).T}
        assert len(ks) == spec.total
        assert {tuple(-ki for ki in k) for k in ks} == ks

    @given(shape=odd_shapes)
    @settings(max_examples=30, deadline=None)
    def test_grid_points_are_odd_in_the_index(self, shape):
        x = coordinate_grid(spec_for(shape))
        assert np.allclose(mirror(x), -x)

    @given(shape=odd_shapes)
    @settings(max_examples=30, deadline=None)
    def test_indices_reduce_to_their_slots(self, shape):
        n = np.reshape(shape, (-1,) + (1,) * len(shape))
        ks = index_grid(spec_for(shape))
        assert np.all(2 * np.abs(ks) < n)
        assert np.array_equal(ks % n, np.indices(shape))

    def test_no_index_outside_lattice(self):
        assert 2 * np.max(np.abs(index_grid(spec_for((3,))))) < 3

    def test_index_grid_matches_slot_map(self):
        spec = GridSpec((1.0, 1.0), (3, 5))
        ks = index_grid(spec)
        assert ks.shape == (2, 3, 5)
        for k, slot in lattice_slots(spec):
            assert tuple(ks[(slice(None),) + slot]) == k


class TestNextFastOdd:
    @pytest.mark.parametrize("n, expected", [(95, 105), (243, 243), (49, 49), (1, 1), (2, 3), (11, 15)])
    def test_values(self, n, expected):
        assert next_fast_odd(n) == expected

    def test_is_the_smallest_odd_3_5_7_smooth_size(self):
        def smooth(m):
            for p in (3, 5, 7):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in range(1, 400):
            m = next_fast_odd(n)
            assert m >= n and m % 2 == 1 and smooth(m)
            assert not any(smooth(j) for j in range(n, m) if j % 2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            next_fast_odd(0)
