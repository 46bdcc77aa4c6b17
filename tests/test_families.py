import re
from pathlib import Path

import numpy as np
import pytest

import fftcell.families
import fftcell.material
from fftcell.families import (
    FAMILIES,
    checkerboard_2d,
    disk_inclusion_2d,
    homogeneous,
    parse_family,
    sine_1d,
    smooth_inclusion_2d,
)
from fftcell.grid import GridSpec
from fftcell.material import sample_analytic

BUILT_INS = [
    homogeneous(2.5, dim=1),
    homogeneous(2.5),
    sine_1d(),
    smooth_inclusion_2d(10.0),
    disk_inclusion_2d(1.0, 50.0),
    checkerboard_2d(1.0, 100.0),
    checkerboard_2d(3.0, 7.0),
]


class TestSamplers:
    def test_homogeneous_is_constant(self):
        a = homogeneous(2.5).sample(GridSpec((1.0, 1.0), (5, 5)))
        assert np.allclose(a.full_tensors[0, 0], 2.5)
        assert a.rho_A == pytest.approx(1.0)

    def test_sine_values_and_range(self):
        f = sine_1d()
        assert f.sampler((0.5,)) == pytest.approx(5.0)
        assert f.sampler((-0.5,)) == pytest.approx(1.0)

    def test_checkerboard_quadrants_and_interface(self):
        f = checkerboard_2d(1.0, 100.0)
        assert f.sampler((0.5, 0.5)) == 1.0
        assert f.sampler((-0.5, 0.5)) == 100.0
        # Interface lines take the geometric mean so that discrete duality
        # (exchange of phases <-> inversion) survives sampling.
        assert f.sampler((0.0, 0.3)) == pytest.approx(10.0)
        assert f.sampler((0.0, 0.0)) == pytest.approx(10.0)

    def test_disk_inclusion_phases(self):
        f = disk_inclusion_2d(1.0, 50.0, radius=0.5)
        assert f.sampler((0.0, 0.0)) == 50.0
        assert f.sampler((0.9, 0.0)) == 1.0

    def test_smooth_inclusion_bounds(self):
        f = smooth_inclusion_2d(10.0)
        assert f.sampler((0.0, 0.0)) == pytest.approx(10.0)
        assert f.sampler((1.0, 0.0)) == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensional"):
            sine_1d().sample(GridSpec((1.0, 1.0), (5, 5)))

    def test_default_spec_names_the_family_of_the_wrong_dimension(self):
        with pytest.raises(ValueError, match="family 'sine1d' is 1-dimensional, grid has 2 axes"):
            sine_1d().default_spec((27, 27))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_phase_values_rejected(self, bad):
        with pytest.raises(ValueError):
            checkerboard_2d(bad, 1.0)
        with pytest.raises(ValueError):
            homogeneous(bad)
        with pytest.raises(ValueError, match="positive"):
            disk_inclusion_2d(bad, 1.0)

    def test_smooth_inclusion_contrast_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            smooth_inclusion_2d(0.5)


class TestGridSamplers:
    @pytest.mark.parametrize("family", BUILT_INS, ids=lambda f: f"{f.name}-{f.dim}d")
    @pytest.mark.parametrize("n", [9, 27, 81])
    def test_grid_path_equals_the_per_point_path_bit_for_bit(self, family, n):
        spec = GridSpec((1.0, 1.5)[: family.dim], (n,) * family.dim)
        a = family.sample(spec)
        b = sample_analytic(family.sampler, spec)
        assert a.data.shape == spec.shape
        assert np.array_equal(a.data, b.data)
        assert (a.c_A, a.C_A) == (b.c_A, b.C_A)

    def test_checkerboard_interface_slots_take_the_geometric_mean(self):
        # Slot 0 of each axis holds x = 0, so row 0 and column 0 are the
        # interface lines.
        a = checkerboard_2d(1.0, 100.0).sample(GridSpec((1.0, 1.0), (9, 9)))
        assert np.all(a.data[0, :] == 10.0)
        assert np.all(a.data[:, 0] == 10.0)
        assert a.data[1, 1] == 1.0 and a.data[1, -1] == 100.0

    @pytest.mark.parametrize("family", BUILT_INS, ids=lambda f: f"{f.name}-{f.dim}d")
    def test_built_ins_never_take_the_per_point_path(self, family, monkeypatch):
        def per_point(f, spec):
            raise AssertionError("per-point sampling of a built-in family")

        monkeypatch.setattr(fftcell.material, "sample_analytic", per_point)
        monkeypatch.setattr(fftcell.families, "sample_analytic", per_point)
        a = family.sample(family.default_spec((27,) * family.dim))
        assert a.c_A > 0

    def test_per_point_families_keep_the_per_point_path(self):
        family = fftcell.families.Family(
            "user", 2, lambda x: 2.0 if x[0] > 0 else 3.0, "low-regularity", (1.0, 1.0)
        )
        spec = GridSpec((1.0, 1.0), (9, 9))
        a = family.sample(spec)
        assert np.array_equal(a.data, sample_analytic(family.sampler, spec).data)


class TestParsing:
    def test_named_families(self):
        assert parse_family("sine1d").name == "sine1d"
        assert parse_family("checkerboard:1,100").name == "checkerboard(1,100)"
        assert parse_family("homogeneous:5").sampler((0.1, 0.2)) == 5.0
        assert parse_family("inclusion:10").dim == 2
        assert parse_family("disk:1,50").dim == 2

    def test_homogeneous_dimension_from_string(self):
        assert parse_family("homogeneous:5,3").dim == 3
        assert parse_family("homogeneous:5,1").default_spec((9,)).dim == 1

    @pytest.mark.parametrize("dim", [2.5, 0, -1, float("inf"), float("nan")])
    def test_homogeneous_rejects_non_integer_dimension(self, dim):
        with pytest.raises(ValueError, match="homogeneous dim must be a positive integer"):
            homogeneous(5.0, dim)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            parse_family("perlin")

    def test_every_known_name_parses(self):
        with pytest.raises(ValueError, match="known: ") as exc:
            parse_family("perlin")
        known = str(exc.value).split("known: ")[1].split(", ")
        assert known == list(FAMILIES)
        for name in known:
            params = {"disk": ":1,50", "checkerboard": ":1,100", "inclusion": ":10"}.get(name, "")
            assert parse_family(name + params).dim in (1, 2)

    def test_readme_lists_the_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        line = readme.split("Built-in coefficient families:")[1].split("\n\n")[0]
        assert re.findall(r"`([a-z0-9]+)[:`]", line) == list(FAMILIES)

    def test_unparsable_parameter_names_the_family(self):
        with pytest.raises(ValueError, match="bad parameters for family 'checkerboard': '1,x'"):
            parse_family("checkerboard:1,x")

    def test_bad_parameter_count_rejected(self):
        with pytest.raises(ValueError, match="parameters"):
            parse_family("checkerboard:1,2,3")
