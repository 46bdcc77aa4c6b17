"""Command-line surface: validate materials, run solves and homogenization,
and run convergence/contrast/approximation studies.

A run is described by an optional key=value config file plus flags; flags
win.  Exit codes: 0 success, 1 non-convergence, 2 config or format
violation, 3 data validation failure.  Output files are written atomically
(temp file + rename) so interrupted runs never leave half-written files.
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
from .grid import GridSpec
from .homogenize import (
    ConvergenceError,
    effective_tensor,
    flux_field,
    mean_flux,
    unit_loads,
    write_history_csv,
    write_tensor_csv,
)
from .material import MaterialDataError, VoxelFormatError, _atomic_write, load_voxel, save_field
from .solver import LoadCase, SolverConfig, solve
from .transforms import l2_inner

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
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_grid(text):
    try:
        shape = tuple(int(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc
    if not shape:
        raise ConfigError("empty grid")
    return shape


def _parse_load(text, dim):
    try:
        comps = tuple(float(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise ConfigError(f"bad load {text!r}") from exc
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
    tol = float(args.tol)
    max_iter = int(args.max_iter)
    reference = None
    if args.ref_lambda is not None:
        reference = ReferenceTensor.scalar(float(args.ref_lambda), dim)
    try:
        return SolverConfig(
            method=args.solver, tol=tol, max_iter=max_iter, reference=reference
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    out.mkdir(parents=True, exist_ok=True)

    report = solve(a, load, cfg)
    _atomic_write(out / "residuals.csv", lambda p: write_history_csv(p, report.residual_history))

    lines = [
        f"method {report.method}",
        f"converged {report.converged}",
        f"iterations {report.iterations}",
        f"final_residual {report.residual_history[-1]:.17g}",
    ]
    if report.converged:
        save_field(out / "solution.json", report.solution)
        j = flux_field(a, report, load)
        save_field(out / "flux.json", j)
        mj = mean_flux(j)
        lines.append("mean_flux " + ",".join(f"{v:.17g}" for v in mj))
        E2 = float(np.dot(load.E, load.E))
        if E2 > 0:
            total = report.solution.values + load.expand(a.spec).values
            energy = l2_inner(j, type(j)(a.spec, total))
            lines.append(f"effective_value {energy / E2:.17g}")
    else:
        lines.append(f"message {report.message}")
    _atomic_write(out / "summary.txt", lambda p: Path(p).write_text("\n".join(lines) + "\n"))

    if not report.converged:
        print("solve did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_homogenize(args):
    a = _resolve_material(args)
    cfg = _solver_config(args, a.spec.dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        eff = effective_tensor(a, cfg)
    except ConvergenceError as exc:
        print(f"homogenization failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _atomic_write(out / "effective_tensor.csv", lambda p: write_tensor_csv(p, eff.matrix))
    lines = []
    for alpha, report in enumerate(eff.per_case_reports):
        lines.append(
            f"case {alpha}: iterations {report.iterations} "
            f"final_residual {report.residual_history[-1]:.17g}"
        )
    _atomic_write(out / "cases.txt", lambda p: Path(p).write_text("\n".join(lines) + "\n"))
    return EXIT_OK


def cmd_study(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = SolverConfig(method="cg", tol=float(args.tol), max_iter=int(args.max_iter))
    if args.kind == "contrast":
        shape = _parse_grid(args.grid) if args.grid else (81, 81)
        results = contrast_study(
            lambda rho: checkerboard_2d(1.0, rho),
            [10.0, 100.0, 1000.0],
            shape,
            tol=cfg.tol,
        )
        for method, result in sorted(results.items()):
            _atomic_write(out / f"contrast_{method}.csv", lambda p, r=result: write_study_csv(p, r))
            print(f"{method} exponent {result.fitted_exponent:.4f}")
    elif args.kind == "convergence":
        family = parse_family(args.family) if args.family else sine_1d()
        grids = [(9,), (17,), (33,), (65,)] if family.dim == 1 else [(9, 9), (17, 17), (33, 33)]
        result = convergence_study(family, grids, cfg)
        _atomic_write(out / "convergence.csv", lambda p: write_study_csv(p, result))
        print(f"convergence exponent {result.fitted_exponent:.4f}")
    elif args.kind == "approximation":
        results = approximation_study(2.0, [9, 17, 33, 65])
        for (op, r), result in sorted(results.items()):
            _atomic_write(out / f"approximation_{op}_r{r}.csv", lambda p, x=result: write_study_csv(p, x))
            print(f"{op} r={r} exponent {result.fitted_exponent:.4f}")
    else:
        raise ConfigError(f"unknown study kind {args.kind!r}")
    return EXIT_OK


# Every option's value when the command line leaves it out; a --config file
# overrides these.  Subcommands set only the flags given, so a flag wins
# over the file even when it equals its default.
_DEFAULTS = dict(
    material=None, family=None, grid=None, load=None, solver="cg", tol="1e-6",
    max_iter="10000", ref_lambda=None, out="out", kind="contrast",
)


def build_parser():
    parser = argparse.ArgumentParser(prog="fftcell")
    parser.set_defaults(**_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--material", help="voxel file (header .json path)")
        p.add_argument("--family", help="built-in family, e.g. checkerboard:1,100")
        p.add_argument("--grid", help="odd grid shape, e.g. 81,81")
        p.add_argument("--load", help="mean gradient, e.g. 1,0")
        p.add_argument("--solver", choices=["cg", "neumann"])
        p.add_argument("--tol")
        p.add_argument("--max-iter", dest="max_iter")
        p.add_argument("--ref-lambda", dest="ref_lambda")
        p.add_argument("--out")

    for name in ("validate", "solve", "homogenize", "study"):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        add_common(p)
        if name == "study":
            p.add_argument("--kind", choices=["contrast", "convergence", "approximation"])
    return parser


def _config_values(argv):
    """The key/value pairs of the --config file named in ``argv``, if any."""
    pre = argparse.ArgumentParser(prog="fftcell", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return {}
    values = _read_config(path)
    for key in values:
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
    return values


def main(argv=None):
    parser = build_parser()
    try:
        parser.set_defaults(**_config_values(argv))
        args = parser.parse_args(argv)
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "homogenize":
            return cmd_homogenize(args)
        return cmd_study(args)
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
