"""The package's public surface, and the names the benchmark imports from it."""

import ast
import csv
import errno
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import fftcell
import fftcell.solver
from fftcell.analysis import StudyResult, write_study_csv
from fftcell.green import GreenOperator, ReferenceTensor
from fftcell.homogenize import write_history_csv, write_tensor_csv
from fftcell.solver import SolverConfig, System

# The per-point lattice map and per-mode Green block, which left the package.
REMOVED = ["in_lattice", "grid_point", "frequency", "underlined_frequency", "slot_to_index",
           "index_to_slot", "iter_lattice", "gamma_hat", "apply_gamma0"]


@pytest.mark.parametrize("module", ["layers", "workloads"])
def test_the_benchmark_modules_import(module, monkeypatch):
    # Not run.py: it sets environment variables and may exit at import.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    importlib.import_module(module)


def test_every_exported_name_resolves():
    assert all(hasattr(fftcell, name) for name in fftcell.__all__)


@pytest.mark.parametrize("module", ["fftcell", "fftcell.grid", "fftcell.green"])
def test_the_per_point_lattice_map_is_gone(module):
    assert [name for name in REMOVED if hasattr(importlib.import_module(module), name)] == []


def test_the_green_operator_has_one_kernel():
    green = GreenOperator(fftcell.GridSpec((1.0, 1.0), (3, 3)), ReferenceTensor(np.diag([2.0, 1.0])))
    assert [name for name in ("G0", "A0n", "_weight", "_norm") if hasattr(green, name)] == []
    assert "right" not in inspect.signature(GreenOperator.analyze).parameters


@pytest.mark.parametrize("method", ["cg", "neumann"])
def test_the_operator_keeps_only_read_only_data(method):
    # One solve's scratch lives in the copy that System.begin hands it.
    spec = fftcell.GridSpec((1.0, 1.0), (9, 9))
    a = fftcell.CoefficientField.isotropic(spec, np.linspace(1.0, 10.0, spec.total).reshape(spec.shape))
    system = System(a, SolverConfig(method=method))
    for green in (system.green, system.twin.green):
        assert [name for name in ("_spectrum", "_dots") if hasattr(green, name)] == []
        assert sorted(vars(green)) == ["gamma_scale", "n", "ref", "spec"]
    for operator in (system, system.twin):
        assert sorted(vars(operator)) == ["a", "cfg", "coeffs", "green", "twin"]


def test_the_system_operator_replaces_the_green_operator_helper():
    removed = ("green_operator", "_solver_reference")
    assert [name for name in removed if hasattr(fftcell.solver, name)] == []
    parameters = inspect.signature(fftcell.solver.solve).parameters
    assert "system" in parameters and "green" not in parameters


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in sorted(Path(fftcell.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if path.name == "__init__.py":
            read.update(fftcell.__all__)
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unread == []


@pytest.mark.parametrize("method", ["cg", "neumann"])
def test_a_precision_is_a_system(method):
    for name in ("analyze", "apply"):
        assert "single" not in inspect.signature(getattr(System, name)).parameters
    spec = fftcell.GridSpec((1.0, 1.0), (9, 9))
    a = fftcell.CoefficientField.isotropic(spec, np.linspace(1.0, 10.0, spec.total).reshape(spec.shape))
    system = System(a, SolverConfig(method=method))
    assert [name for name in ("_double", "_single") if hasattr(system, name)] == []
    assert isinstance(system.twin, System)
    # Below float32's reach there is no twin.
    assert System(a, SolverConfig(method=method, tol=1e-8)).twin is None


def _modules():
    paths = sorted(Path(fftcell.__file__).parent.glob("*.py"))
    return [(path.name, ast.parse(path.read_text())) for path in paths]


def _scopes_calling(name, tree, scope):
    """The innermost module, class or function scope of every call of ``name`` under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield scope
        named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        yield from _scopes_calling(name, node, f"{scope}.{node.name}" if named else scope)


def test_only_the_solve_and_the_homogenization_build_a_system():
    # The one-shot helpers compose Gamma0 and the pointwise product themselves.
    builders = [scope for name, tree in _modules() for scope in _scopes_calling("System", tree, name[:-3])]
    assert sorted(builders) == ["homogenize.effective_tensor", "solver.solve"]


def test_no_module_imports_another_modules_private_name():
    private = [
        f"{name}: {alias.name}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fftcell"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_only_the_material_module_writes_files():
    # Its writers all go through _atomic_write.
    def is_write(call):
        if isinstance(call.func, ast.Name):
            return call.func.id == "open"
        return getattr(call.func, "attr", None) in ("write_text", "write_bytes", "tofile")

    writes = [
        f"{name}: {ast.unparse(node.func)}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and is_write(node)
    ]
    assert writes and all(w.startswith("material.py: ") for w in writes)


class _DiskFullAfterOneLine:
    """A file that takes one line, then reports a full disk."""

    def __init__(self, fh):
        self.fh, self.lines = fh, 0

    def write(self, text):
        if self.lines:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.lines += 1
        return self.fh.write(text)


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_tensor_csv(path, np.eye(2)),
        lambda path: write_history_csv(path, (1.0, 0.5, 0.25)),
        lambda path: write_study_csv(path, StudyResult((0.5, 0.25), (1.0, 0.25), 2.0, 1.0, "demo")),
    ],
    ids=["tensor", "history", "study"],
)
def test_an_interrupted_csv_writer_leaves_the_target_and_no_temporary(tmp_path, monkeypatch, write):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    writer = csv.writer
    monkeypatch.setattr(csv, "writer", lambda fh, **kwargs: writer(_DiskFullAfterOneLine(fh), **kwargs))
    with pytest.raises(OSError, match="No space"):
        write(target)
    assert [f.name for f in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "old\n"
