import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftcell.grid import (
    GridSpec,
    coordinate_grid,
    frequency,
    grid_point,
    in_lattice,
    index_grid,
    index_to_slot,
    iter_lattice,
    next_fast_odd,
    slot_to_index,
    underlined_frequency,
)

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


class TestGridPoint:
    def test_origin(self):
        assert grid_point(spec_for((3,)), (0,)) == pytest.approx([0.0])

    def test_unit_step_is_one_spacing(self):
        assert grid_point(spec_for((3,)), (1,)) == pytest.approx([2.0 / 3.0])

    def test_componentwise_scaling(self):
        spec = GridSpec((1.0, 2.0), (3, 5))
        assert grid_point(spec, (-1, 2)) == pytest.approx([-2.0 / 3.0, 8.0 / 5.0])

    def test_rejects_index_outside_lattice(self):
        with pytest.raises(ValueError, match="outside"):
            grid_point(spec_for((3,)), (2,))


class TestFrequency:
    def test_unit_cell(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        assert frequency(spec, (1, 0)) == pytest.approx([1.0, 0.0])

    def test_scaled_cell(self):
        spec = GridSpec((2.0, 1.0), (3, 9))
        assert frequency(spec, (1, 3)) == pytest.approx([0.5, 3.0])

    def test_underlined_variant_is_ones_at_origin(self):
        spec = GridSpec((1.0, 1.0), (3, 3))
        assert underlined_frequency(spec, (0, 0)) == pytest.approx([1.0, 1.0])
        assert underlined_frequency(spec, (1, 0)) == pytest.approx([1.0, 0.0])

    def test_accepts_indices_outside_lattice(self):
        spec = spec_for((3,))
        assert frequency(spec, (7,)) == pytest.approx([7.0])


class TestLattice:
    def test_storage_order_1d(self):
        assert list(iter_lattice(spec_for((3,)))) == [(0,), (1,), (-1,)]

    def test_1d_n5_members(self):
        assert set(iter_lattice(spec_for((5,)))) == {(-2,), (-1,), (0,), (1,), (2,)}

    def test_2d_enumerates_each_index_once(self):
        ks = list(iter_lattice(spec_for((3, 3))))
        assert len(ks) == 9
        assert len(set(ks)) == 9

    @given(shape=odd_shapes)
    @settings(max_examples=30, deadline=None)
    def test_lattice_symmetric_and_counted(self, shape):
        spec = spec_for(shape)
        ks = set(iter_lattice(spec))
        assert len(ks) == spec.total
        for k in ks:
            assert in_lattice(spec, tuple(-ki for ki in k))

    @given(shape=odd_shapes)
    @settings(max_examples=30, deadline=None)
    def test_grid_points_are_odd_in_the_index(self, shape):
        spec = spec_for(shape)
        for k in iter_lattice(spec):
            neg = tuple(-ki for ki in k)
            assert np.allclose(grid_point(spec, neg), -grid_point(spec, k))

    @given(shape=odd_shapes)
    @settings(max_examples=30, deadline=None)
    def test_slot_index_maps_are_inverse_bijections(self, shape):
        spec = spec_for(shape)
        for slot in np.ndindex(*shape):
            k = slot_to_index(spec, slot)
            assert in_lattice(spec, k)
            assert index_to_slot(spec, k) == tuple(slot)

    def test_index_to_slot_rejects_outside_lattice(self):
        with pytest.raises(ValueError, match="outside"):
            index_to_slot(spec_for((3,)), (5,))

    def test_index_grid_matches_slot_map(self):
        spec = GridSpec((1.0, 1.0), (3, 5))
        ks = index_grid(spec)
        assert ks.shape == (2, 3, 5)
        for slot in np.ndindex(*spec.shape):
            assert tuple(ks[(slice(None),) + slot]) == slot_to_index(spec, slot)


class TestCoordinateGrid:
    @given(odd_shapes)
    @settings(max_examples=25, deadline=None)
    def test_matches_grid_point_bit_for_bit(self, shape):
        spec = GridSpec(tuple(0.7 + a for a in range(len(shape))), shape)
        x = coordinate_grid(spec)
        for k in iter_lattice(spec):
            slot = (slice(None),) + index_to_slot(spec, k)
            assert np.array_equal(x[slot], grid_point(spec, k))


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
