"""The package's public surface, and the names the benchmark imports from it."""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import fftcell
import fftcell.solver
from fftcell.green import GreenOperator, ReferenceTensor

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


def test_the_system_operator_replaces_the_green_operator_helper():
    removed = ("green_operator", "_solver_reference")
    assert [name for name in removed if hasattr(fftcell.solver, name)] == []
    parameters = inspect.signature(fftcell.solver.solve).parameters
    assert "system" in parameters and "green" not in parameters
