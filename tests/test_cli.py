import re

import numpy as np
import pytest

import fftcell.homogenize
from fftcell.cli import main
from fftcell.grid import GridSpec
from fftcell.material import load_field, save_voxel

from conftest import bounded, pin_cores


def run(argv):
    return main(argv)


def exit_code(argv):
    """``main``'s exit code, argparse's own exits included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def make_isotropic_voxel(tmp_path, value=5.0, n=9):
    spec = GridSpec((1.0, 1.0), (n, n))
    path = tmp_path / "mat.json"
    save_voxel(path, spec, np.full(spec.shape, value), "isotropic")
    return path


class TestValidate:
    def test_homogeneous_voxel_reports_unit_contrast(self, tmp_path, capsys):
        path = make_isotropic_voxel(tmp_path)
        assert run(["validate", "--material", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rho_A        1" in out
        assert "shape        (9, 9)" in out

    def test_even_shape_header_exits_with_format_code(self, tmp_path, capsys):
        path = make_isotropic_voxel(tmp_path, n=9)
        header = path.read_text().replace("9", "8")
        path.write_text(header)
        assert run(["validate", "--material", str(path)]) == 2
        assert "odd" in capsys.readouterr().err

    def test_missing_payload_exits_with_format_code(self, tmp_path, capsys):
        path = make_isotropic_voxel(tmp_path)
        path.with_suffix(".bin").unlink()
        assert run(["validate", "--material", str(path)]) == 2
        assert "format error" in capsys.readouterr().err

    def test_non_spd_voxel_exits_with_data_code(self, tmp_path, capsys):
        spec = GridSpec((1.0,), (9,))
        payload = np.ones(spec.shape)
        payload[3] = -1.0
        path = tmp_path / "bad.json"
        save_voxel(path, spec, payload, "isotropic")
        assert run(["validate", "--material", str(path)]) == 3
        assert "grid slot" in capsys.readouterr().err

    def test_a_homogeneous_family_takes_its_dimension(self, capsys):
        assert run(["validate", "--family", "homogeneous:5,1", "--grid", "9"]) == 0
        assert "shape        (9,)" in capsys.readouterr().out

    def test_family_requires_grid(self, capsys):
        assert run(["validate", "--family", "sine1d"]) == 2

    def test_missing_material_source_rejected(self):
        assert run(["validate"]) == 2

    def test_even_grid_flag_rejected(self):
        assert run(["validate", "--family", "sine1d", "--grid", "10"]) == 2


class TestSolve:
    def test_homogeneous_material_zero_iterations(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            [
                "solve",
                "--family", "homogeneous:5",
                "--grid", "9,9",
                "--load", "1,0",
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "iterations 0" in summary
        assert "mean_flux 5,0" in summary

    def test_a_zero_load_is_solved_in_no_iterations(self, tmp_path):
        out = tmp_path / "out"
        assert run(["solve", "--family", "sine1d", "--grid", "9", "--load", "0",
                    "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert "iterations 0" in summary and "mean_flux 0" in summary
        # E . E = 0 has no effective value.
        assert not any(line.startswith("effective_value") for line in summary)

    def test_sine_benchmark_effective_value(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "solve",
                "--family", "sine1d",
                "--grid", "255",
                "--tol", "1e-10",
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        value = float(summary.split("effective_value ")[1].split()[0])
        assert value == pytest.approx(np.sqrt(5.0), abs=1e-6)

    def test_neumann_route_matches_cg_route(self, tmp_path):
        args = ["solve", "--family", "sine1d", "--grid", "99", "--tol", "1e-8"]
        assert run(args + ["--out", str(tmp_path / "cg")]) == 0
        assert run(args + ["--solver", "neumann", "--max-iter", "5000",
                           "--out", str(tmp_path / "ne")]) == 0
        u = load_field(tmp_path / "cg" / "solution.json")
        v = load_field(tmp_path / "ne" / "solution.json")
        diff = np.sqrt(np.mean((u.values - v.values) ** 2))
        assert diff <= 2e-8 * max(1.0, np.max(np.abs(u.values)))

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        code = run(
            [
                "solve",
                "--family", "sine1d",
                "--grid", "99",
                "--tol", "1e-12",
                "--max-iter", "2",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "did not converge" in capsys.readouterr().err

    def test_ref_lambda_sets_the_neumann_reference(self, tmp_path):
        args = ["solve", "--family", "checkerboard:1,2", "--grid", "27,27",
                "--solver", "neumann", "--tol", "1e-10"]
        assert run(args + ["--out", str(tmp_path / "default")]) == 0
        assert run(args + ["--ref-lambda", "2", "--out", str(tmp_path / "lam2")]) == 0

        def summary(name):
            lines = (tmp_path / name / "summary.txt").read_text().split("\n")
            return dict(line.split(" ", 1) for line in lines if line)

        default, lam2 = summary("default"), summary("lam2")
        # The default reference is (1 + 2) / 2 = 1.5; lambda = 2 converges
        # more slowly to the same discrete solution.
        assert int(lam2["iterations"]) > int(default["iterations"])
        assert float(lam2["effective_value"]) == pytest.approx(
            float(default["effective_value"]), rel=1e-9
        )

    @pytest.mark.parametrize(
        "lam, message",
        [("-1", "positive definite"), ("inf", "finite"), ("nan", "finite")],
    )
    def test_non_positive_ref_lambda_rejected(self, tmp_path, capsys, lam, message):
        code = run(["solve", "--family", "checkerboard:1,2", "--grid", "27,27",
                    "--solver", "neumann", "--ref-lambda", lam,
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid", "9,x"], "bad grid"),
            (["--grid", ","], "empty grid"),
            (["--grid", "9,9", "--load", "1,x"], "bad load"),
            (["--grid", "9,9", "--load", "1,0,0"], "load has 3 components"),
        ],
        ids=["grid", "empty-grid", "load", "load-length"],
    )
    def test_malformed_grid_or_load_rejected(self, tmp_path, capsys, flags, message):
        code = run(["solve", "--family", "checkerboard:1,2", "--out", str(tmp_path / "out")] + flags)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_invalid_tolerance_rejected(self, tmp_path):
        code = run(
            [
                "solve",
                "--family", "sine1d",
                "--grid", "99",
                "--tol", "2.0",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2


class TestHomogenize:
    def test_uniform_material_tensor_csv(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["homogenize", "--family", "homogeneous:5", "--grid", "9,9",
             "--out", str(out)]
        )
        assert code == 0
        rows = [
            [float(c) for c in line.split(",")]
            for line in (out / "effective_tensor.csv").read_text().splitlines()
        ]
        assert np.array_equal(np.array(rows), 5.0 * np.eye(2))
        assert "case 0" in (out / "cases.txt").read_text()

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        args = ["homogenize", "--family", "inclusion:10", "--grid", "17,17",
                "--tol", "1e-8"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("effective_tensor.csv", "cases.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_threaded_and_serial_runs_are_byte_identical(self, tmp_path, monkeypatch):
        # Criterion 12 across the two paths of effective_tensor.
        monkeypatch.setattr(fftcell.homogenize, "_PARALLEL_POINTS", 1)
        args = ["homogenize", "--family", "inclusion:10", "--grid", "17,17",
                "--tol", "1e-8"]
        for cores, name in ((1, "serial"), (2, "threaded")):
            pin_cores(monkeypatch, cores)
            assert bounded(run, args + ["--out", str(tmp_path / name)]) == 0
        for name in ("effective_tensor.csv", "cases.txt"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "threaded" / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "family, message",
        [
            ("sine1d", "family 'sine1d' is 1-dimensional, grid has 2 axes"),
            ("checkerboard:1,x", "bad parameters for family 'checkerboard': '1,x'"),
        ],
        ids=["dimension", "parameters"],
    )
    def test_a_bad_family_input_is_named(self, tmp_path, capsys, family, message):
        out = tmp_path / "out"
        assert run(["homogenize", "--family", family, "--grid", "27,27", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, flag, value",
        [
            ("contrast", "--tol", "abc"),
            ("contrast", "--max-iter", "1e3"),
            ("contrast", "--grid", "a,b"),
            ("contrast", "--grid", "8,8"),
            ("contrast", "--grid", "9,9,9"),
            ("convergence", "--family", "nosuch"),
        ],
    )
    def test_a_bad_study_input_leaves_no_output(self, tmp_path, kind, flag, value):
        out = tmp_path / "out"
        assert run(["study", "--kind", kind, flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        code = run(
            ["homogenize", "--family", "sine1d", "--grid", "99",
             "--max-iter", "1", "--tol", "1e-12", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        # Nothing was written, so the writers made no --out directory.
        assert not (tmp_path / "out").exists()


# A cheap run of each subcommand that writes into --out.
WRITES = {
    "solve": ["solve", "--family", "sine1d", "--grid", "9"],
    "homogenize": ["homogenize", "--family", "sine1d", "--grid", "9"],
    "study": ["study", "--kind", "convergence", "--tol", "1e-3"],
}


class TestOutput:
    @pytest.mark.parametrize("command", list(WRITES))
    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_an_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, command, under):
        existing = tmp_path / "taken"
        existing.write_text("kept\n")
        out = existing / "sub" if under else existing
        assert run(WRITES[command] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot write {out}") and err.count("\n") == 1
        assert existing.read_text() == "kept\n"
        assert list(tmp_path.rglob("*.tmp")) == []


class TestMaterialSource:
    @pytest.mark.parametrize(
        "command, flags, unread",
        [
            ("validate", ["--grid", "5,5"], "--grid"),
            ("solve", ["--family", "sine1d"], "--family"),
            ("homogenize", ["--family", "sine1d", "--grid", "9"], "--family --grid"),
        ],
    )
    def test_a_material_file_rejects_family_and_grid_flags(self, tmp_path, capsys, command, flags, unread):
        path = make_isotropic_voxel(tmp_path)
        out = tmp_path / "out"
        argv = [command, "--material", str(path)] + flags
        assert run(argv + ([] if command == "validate" else ["--out", str(out)])) == 2
        err = capsys.readouterr()
        assert err.err == f"config error: {command} --material does not read {unread}\n"
        assert err.out == "" and not out.exists()

    def test_a_material_config_key_rejects_a_grid_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"material = {make_isotropic_voxel(tmp_path)}\n")
        assert run(["validate", "--config", str(cfg), "--grid", "5,5"]) == 2
        assert "validate --material does not read --grid" in capsys.readouterr().err

    def test_family_and_grid_config_keys_beside_a_material_flag_are_left_unused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = sine1d\ngrid = 5\n")
        path = make_isotropic_voxel(tmp_path)
        assert run(["validate", "--config", str(cfg), "--material", str(path)]) == 0
        assert "shape        (9, 9)" in capsys.readouterr().out


def _non_spd_voxel(tmp_path):
    spec = GridSpec((1.0,), (9,))
    payload = np.ones(spec.shape)
    payload[3] = -1.0
    save_voxel(tmp_path / "bad.json", spec, payload, "isotropic")
    return str(tmp_path / "bad.json")


def _config(tmp_path, text):
    (tmp_path / "run.cfg").write_text(text)
    return str(tmp_path / "run.cfg")


# Misuses of the command line, each with the exit code the module docstring gives it.
MISUSES = {
    "unwritable-out": (2, lambda t: ["solve", "--family", "sine1d", "--grid", "9",
                                     "--out", _config(t, "")]),
    "grid-beside-material": (2, lambda t: ["validate", "--material", str(make_isotropic_voxel(t)),
                                           "--grid", "5,5"]),
    "missing-voxel-file": (2, lambda t: ["validate", "--material", str(t / "nope.json")]),
    "non-spd-payload": (3, lambda t: ["validate", "--material", _non_spd_voxel(t)]),
    "unknown-family": (2, lambda t: ["validate", "--family", "nosuch", "--grid", "9"]),
    "malformed-number": (2, lambda t: ["homogenize", "--family", "sine1d", "--grid", "9",
                                       "--tol", "abc", "--out", str(t / "out")]),
    "unknown-study-kind": (2, lambda t: ["study", "--config", _config(t, "kind = spectral\n")]),
    "no-convergence": (1, lambda t: ["solve", "--family", "sine1d", "--grid", "99", "--tol", "1e-12",
                                     "--max-iter", "2", "--out", str(t / "out")]),
}


class TestExitContract:
    @pytest.mark.parametrize("misuse", list(MISUSES))
    def test_a_misuse_exits_with_its_code_and_one_stderr_line(self, tmp_path, capsys, misuse):
        code, argv = MISUSES[misuse]
        assert main(argv(tmp_path)) == code
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = homogeneous:2\ngrid = 9,9\n# comment\n")
        assert run(["validate", "--config", str(cfg)]) == 0
        assert "rho_A        1" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = homogeneous:2\ngrid = 9,9\n")
        assert run(
            ["validate", "--config", str(cfg), "--family", "homogeneous:7"]
        ) == 0
        assert "c_A          7" in capsys.readouterr().out

    def test_given_flags_win_even_at_their_defaults(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "family = checkerboard:1,10\ngrid = 27,27\ntol = 1e-2\nsolver = neumann\n"
        )
        out = tmp_path / "out"
        assert run(
            ["solve", "--config", str(cfg), "--tol", "1e-6", "--solver", "cg",
             "--out", str(out)]
        ) == 0
        assert "method cg" in (out / "summary.txt").read_text()
        history = np.loadtxt(out / "residuals.csv", delimiter=",", skiprows=1)[:, 1]
        assert history[-1] <= 1e-6 * history[0] < history[-2]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("famly = sine1d\n")
        assert run(["validate", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_the_subcommand_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = study\nfamily = homogeneous:2\ngrid = 9,9\n")
        assert run(["validate", "--config", str(cfg)]) == 2
        assert "unknown config key 'command'" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        assert run(["validate", "--config", str(cfg)]) == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert run(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestStudy:
    def test_approximation_study_writes_per_order_tables(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["study", "--kind", "approximation", "--out", str(out)]) == 0
        assert (out / "approximation_PN_r0.csv").exists()
        assert (out / "approximation_QN_r1.csv").exists()
        printed = capsys.readouterr().out
        assert "PN r=0 exponent" in printed

    def test_convergence_study_reports_high_order(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(
            ["study", "--kind", "convergence", "--tol", "1e-10", "--out", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        exponent = float(printed.split("convergence exponent ")[1].split()[0])
        assert exponent >= 4.0
        assert (out / "convergence.csv").exists()

    def test_contrast_study_writes_both_methods(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(
            ["study", "--kind", "contrast", "--grid", "27,27", "--out", str(out)]
        ) == 0
        assert (out / "contrast_cg.csv").exists()
        assert (out / "contrast_neumann.csv").exists()


# The flags each subcommand reads, and a valid value for each.
READS = {
    "validate": ["--config", "--material", "--family", "--grid"],
    "solve": ["--config", "--material", "--family", "--grid", "--load", "--solver", "--tol",
              "--max-iter", "--ref-lambda", "--out"],
    "homogenize": ["--config", "--material", "--family", "--grid", "--solver", "--tol",
                   "--max-iter", "--ref-lambda", "--out"],
    "study": ["--config", "--kind", "--family", "--grid", "--tol", "--max-iter", "--out"],
}
STUDY_READS = {
    "contrast": ["--grid", "--tol", "--max-iter", "--out"],
    "convergence": ["--family", "--tol", "--max-iter", "--out"],
    "approximation": ["--out"],
}
VALUES = {
    "--config": "run.cfg", "--material": "mat.json", "--family": "sine1d", "--grid": "9",
    "--load": "1", "--solver": "cg", "--tol": "1e-3", "--max-iter": "5",
    "--ref-lambda": "2", "--out": "out", "--kind": "convergence",
}


class TestFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, reads in READS.items() for f in VALUES if f not in reads],
    )
    def test_a_flag_the_subcommand_does_not_read_exits_2(self, command, flag, capsys):
        assert exit_code([command, flag, VALUES[flag]]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(READS))
    def test_an_unread_flag_gets_the_subcommand_usage_line(self, command, capsys):
        flag = next(f for f in VALUES if f not in READS[command])
        assert exit_code([command, flag, VALUES[flag]]) == 2
        assert capsys.readouterr().err.startswith(f"usage: fftcell {command} ")

    @pytest.mark.parametrize("command", list(READS))
    def test_help_lists_exactly_the_flags_read(self, command, capsys):
        assert exit_code([command, "--help"]) == 0
        assert re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M) == READS[command]

    @pytest.mark.parametrize(
        "kind, flag",
        [(k, f) for k, reads in STUDY_READS.items()
         for f in READS["study"] if f not in reads + ["--config", "--kind"]],
    )
    def test_a_flag_the_study_kind_does_not_read_exits_2(self, tmp_path, kind, flag, capsys):
        out = tmp_path / "out"
        assert run(["study", "--kind", kind, flag, VALUES[flag], "--out", str(out)]) == 2
        assert f"study --kind {kind} does not read {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_study_passes_max_iter_to_the_contrast_study(self, tmp_path):
        out = tmp_path / "out"
        assert run(["study", "--kind", "contrast", "--grid", "27,27", "--max-iter", "1",
                    "--out", str(out)]) == 0
        flags = (out / "contrast_neumann.csv").read_text().splitlines()[-1]
        assert flags == "flags,censored:10;censored:100;censored:1000"

    def test_an_unknown_study_kind_in_the_config_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = spectral\n")
        assert run(["study", "--config", str(cfg)]) == 2
        assert "unknown study kind 'spectral'" in capsys.readouterr().err

    def test_config_keys_the_subcommand_does_not_read_are_left_unused(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = homogeneous:3\ngrid = 9,9\nload = 1,0\nkind = approximation\n")
        out = tmp_path / "out"
        assert run(["homogenize", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "effective_tensor.csv").read_text() == "3,0\n0,3\n"

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("homogenize", "--max-iter", "2.5"),
            ("homogenize", "--tol", "abc"),
            ("solve", "--ref-lambda", "x"),
            ("study", "--tol", "abc"),
            ("study", "--max-iter", "1e3"),
        ],
    )
    def test_a_malformed_number_names_its_option(self, tmp_path, capsys, command, flag, value):
        source = [] if command == "study" else ["--family", "sine1d", "--grid", "9"]
        out = tmp_path / "out"
        assert run([command] + source + [flag, value, "--out", str(out)]) == 2
        assert f"config error: bad {flag} '{value}'" in capsys.readouterr().err
