"""Command-line surface: validate materials, run solves and homogenization,
and run convergence/contrast/approximation studies.

A run is described by an optional key=value config file plus flags; flags
win, and each subcommand accepts only the flags it reads.  Exit codes: 0
success, 1 non-convergence, 2 config or format violation, 3 data validation
failure.  Every output file is written atomically (temp file + rename) by
its writer, which also makes the --out directory, so interrupted runs never
leave half-written files and failed ones no empty directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    approximation_study,
    contrast_study,
    convergence_study,
    write_study_csv,
)
from .families import checkerboard_2d, parse_family, sine_1d
from .green import ReferenceTensor
from .homogenize import (
    ConvergenceError,
    effective_tensor,
    mean_flux,
    unit_loads,
    write_history_csv,
    write_tensor_csv,
)
from .material import MaterialDataError, VoxelFormatError, apply_A, load_voxel, save_field, write_text
from .solver import LoadCase, SolverConfig, solve
from .transforms import GridField, l2_inner

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(ValueError):
    pass


def _read_config(path):
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _parse(text, name, convert=float):
    """``convert(text)``; a malformed value is reported with ``name``."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad {name} {text!r}") from exc


def _parse_grid(text):
    shape = _parse(text, "grid", lambda t: tuple(int(p) for p in t.split(",") if p))
    if not shape:
        raise ConfigError("empty grid")
    return shape


def _parse_load(text, dim):
    comps = _parse(text, "load", lambda t: tuple(float(p) for p in t.split(",") if p))
    if len(comps) != dim:
        raise ConfigError(f"load has {len(comps)} components, problem dimension is {dim}")
    return LoadCase(comps)


def _resolve_material(args):
    """Build the coefficient field from --material or --family/--grid."""
    if args.material:
        return load_voxel(args.material)
    if args.family:
        family = parse_family(args.family)
        if not args.grid:
            raise ConfigError("--grid is required with --family")
        spec = family.default_spec(_parse_grid(args.grid))
        return family.sample(spec)
    raise ConfigError("one of --material or --family is required")


def _solver_config(args, dim):
    tol = _parse(args.tol, "--tol")
    max_iter = _parse(args.max_iter, "--max-iter", int)
    reference = None
    if args.ref_lambda is not None:
        reference = ReferenceTensor.scalar(_parse(args.ref_lambda, "--ref-lambda"), dim)
    return SolverConfig(method=args.solver, tol=tol, max_iter=max_iter, reference=reference)


def cmd_validate(args):
    a = _resolve_material(args)
    spec = a.spec
    print(f"dim          {spec.dim}")
    print(f"shape        {spec.shape}")
    print(f"half_periods {spec.half_periods}")
    print(f"spacings     {spec.spacings}")
    print(f"c_A          {a.c_A:.12g}")
    print(f"C_A          {a.C_A:.12g}")
    print(f"rho_A        {a.rho_A:.12g}")
    return EXIT_OK


def cmd_solve(args):
    a = _resolve_material(args)
    cfg = _solver_config(args, a.spec.dim)
    if args.load is None:
        load = unit_loads(a.spec.dim)[0]
    else:
        load = _parse_load(args.load, a.spec.dim)
    out = Path(args.out)
    report = solve(a, load, cfg)
    write_history_csv(out / "residuals.csv", report.residual_history)

    lines = [
        f"method {report.method}",
        f"converged {report.converged}",
        f"iterations {report.iterations}",
        f"final_residual {report.residual_history[-1]:.17g}",
    ]
    if report.converged:
        save_field(out / "solution.json", report.solution)
        total = GridField(a.spec, report.solution.values + load.on(a.spec))
        j = apply_A(a, total)
        save_field(out / "flux.json", j)
        lines.append("mean_flux " + ",".join(f"{v:.17g}" for v in mean_flux(j)))
        E2 = float(np.dot(load.E, load.E))
        if E2 > 0:
            lines.append(f"effective_value {l2_inner(j, total) / E2:.17g}")
    else:
        lines.append(f"message {report.message}")
    write_text(out / "summary.txt", "\n".join(lines) + "\n")

    if not report.converged:
        print("solve did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_homogenize(args):
    a = _resolve_material(args)
    cfg = _solver_config(args, a.spec.dim)
    out = Path(args.out)
    try:
        eff = effective_tensor(a, cfg)
    except ConvergenceError as exc:
        print(f"homogenization failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    write_tensor_csv(out / "effective_tensor.csv", eff.matrix)
    lines = []
    for alpha, report in enumerate(eff.per_case_reports):
        lines.append(
            f"case {alpha}: iterations {report.iterations} "
            f"final_residual {report.residual_history[-1]:.17g}"
        )
    write_text(out / "cases.txt", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_study(args):
    out = Path(args.out)
    if args.kind == "approximation":
        results = approximation_study(2.0, [9, 17, 33, 65])
        for (op, r), result in sorted(results.items()):
            write_study_csv(out / f"approximation_{op}_r{r}.csv", result)
            print(f"{op} r={r} exponent {result.fitted_exponent:.4f}")
        return EXIT_OK
    tol, max_iter = _parse(args.tol, "--tol"), _parse(args.max_iter, "--max-iter", int)
    cfg = SolverConfig(method="cg", tol=tol, max_iter=max_iter)
    if args.kind == "contrast":
        shape = _parse_grid(args.grid) if args.grid else (81, 81)
        results = contrast_study(
            lambda rho: checkerboard_2d(1.0, rho),
            [10.0, 100.0, 1000.0],
            shape,
            tol=cfg.tol,
            max_iter=cfg.max_iter,
        )
        for method, result in sorted(results.items()):
            write_study_csv(out / f"contrast_{method}.csv", result)
            print(f"{method} exponent {result.fitted_exponent:.4f}")
    else:
        family = parse_family(args.family) if args.family else sine_1d()
        grids = [(9,), (17,), (33,), (65,)] if family.dim == 1 else [(9, 9), (17, 17), (33, 33)]
        result = convergence_study(family, grids, cfg)
        write_study_csv(out / "convergence.csv", result)
        print(f"convergence exponent {result.fitted_exponent:.4f}")
    return EXIT_OK


# The flags each subcommand reads, in --help order; argparse rejects any
# other.  A study also rejects a flag given that its --kind does not read.
_FLAGS = {
    "validate": ("material", "family", "grid"),
    "solve": ("material", "family", "grid", "load", "solver", "tol", "max_iter", "ref_lambda", "out"),
    "homogenize": ("material", "family", "grid", "solver", "tol", "max_iter", "ref_lambda", "out"),
    "study": ("kind", "family", "grid", "tol", "max_iter", "out"),
}
_STUDY_FLAGS = {
    "contrast": ("grid", "tol", "max_iter", "out"),
    "convergence": ("family", "tol", "max_iter", "out"),
    "approximation": ("out",),
}
_OPTIONS = dict(
    config=dict(help="key=value config file; flags override"),
    material=dict(help="voxel file (header .json path)"),
    family=dict(help="built-in family, e.g. checkerboard:1,100"),
    grid=dict(help="odd grid shape, e.g. 81,81"),
    load=dict(help="mean gradient, e.g. 1,0"),
    solver=dict(choices=["cg", "neumann"]),
    tol={}, max_iter={}, ref_lambda={}, out={},
    kind=dict(choices=list(_STUDY_FLAGS)),
)

# Every option's value when neither a flag nor the --config file sets it.
# Each key may appear in a config file, whichever subcommands read it.
_DEFAULTS = dict(
    material=None, family=None, grid=None, load=None, solver="cg", tol="1e-6",
    max_iter="10000", ref_lambda=None, out="out", kind="contrast",
)


def build_parser():
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(prog="fftcell")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        # Only the flags given reach the namespace, so each wins over the
        # config file even when it equals its default.
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in ("config",) + flags:
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **_OPTIONS[flag])
    return parser, sub.choices


def main(argv=None):
    try:
        parser, subparsers = build_parser()
        namespace, unknown = parser.parse_known_args(argv)
        given = vars(namespace)
        command = given.pop("command")
        if unknown:
            # Report it with the usage line of the flags this command takes.
            subparsers[command].error(f"unrecognized arguments: {' '.join(unknown)}")
        values = dict(_DEFAULTS)
        if "config" in given:
            values.update(_read_config(given.pop("config")))
        values.update(given)
        args = argparse.Namespace(**values)
        if command == "study":
            reads = _STUDY_FLAGS.get(args.kind)
            if reads is None:
                raise ConfigError(f"unknown study kind {args.kind!r}")
            unread = [f"--{f.replace('_', '-')}" for f in given if f not in ("kind",) + reads]
            if unread:
                raise ConfigError(f"study --kind {args.kind} does not read {' '.join(unread)}")
        commands = dict(validate=cmd_validate, solve=cmd_solve, homogenize=cmd_homogenize, study=cmd_study)
        return commands[command](args)
    except VoxelFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MaterialDataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
