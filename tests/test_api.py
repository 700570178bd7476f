"""Public names: every exported name resolves, step internals stay in their
modules, and the names the benchmark traces stay where it looks for them."""

import ast
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import slrnmf
import slrnmf.solver
from slrnmf.initializers import init_uniform

MODULES = ["slrnmf"] + ["slrnmf." + m.name
                        for m in pkgutil.iter_modules(slrnmf.__path__)]

# Solver and model steps: importable from their own modules, not re-exported.
STEP_INTERNALS = {
    "slrnmf.model": ["Objective", "cost_total"],
    "slrnmf.solver": ["update_abundances", "update_endmembers",
                      "update_penalty_diag", "line_search",
                      "prune_and_report_rank", "default_eta"],
}

# (module, attribute) pairs that the benchmark's traced runs replace by name
# with timing wrappers (perfbench/tracing.py); renaming one silently drops
# its layer from the traced metrics.
TRACED = [
    ("slrnmf.model", "Objective.total"),
    ("slrnmf.solver", "solve"),
    ("slrnmf.solver", "update_abundances"),
    ("slrnmf.solver", "update_endmembers"),
    ("slrnmf.solver", "update_penalty_diag"),
    ("slrnmf.solver", "prune_and_report_rank"),
    ("slrnmf.solver", "line_search"),
    ("slrnmf.initializers", "init_vca"),
    ("slrnmf.initializers", "nnls_abundances"),
    ("slrnmf.synth", "simulate"),
    ("slrnmf.metrics", "evaluate_unmixing"),
    ("slrnmf.io", "load_matrix"),
    ("slrnmf.io", "save_matrix"),
    ("slrnmf.io", "write_report"),
    ("slrnmf.cli", "run"),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_reexported_names_are_public_in_their_modules():
    # Each ``from .module import ...`` in the package names only what that
    # module lists in its own ``__all__``.
    for node in ast.parse(inspect.getsource(slrnmf)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module("slrnmf." + node.module)
            missing = [a.name for a in node.names if a.name not in module.__all__]
            assert missing == [], (node.module, missing)


def test_step_internals_are_not_reexported():
    for name, internals in STEP_INTERNALS.items():
        module = importlib.import_module(name)
        for attr in internals:
            assert hasattr(module, attr), (name, attr)
            assert not hasattr(slrnmf, attr), attr


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_names_resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_solve_calls_its_steps_through_module_globals(monkeypatch):
    calls = []
    for module, attr in TRACED:
        if module != "slrnmf.solver" or attr == "solve":
            continue
        original = getattr(slrnmf.solver, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls.append(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(slrnmf.solver, attr, counted)
    y = np.full((5, 6), 0.5)
    phi0, w0 = init_uniform(5, 6, 2, 0)
    slrnmf.solver.solve(y, phi0, w0, slrnmf.SolverConfig(r=2, max_iter=1))
    assert set(calls) == {attr for module, attr in TRACED
                          if module == "slrnmf.solver" and attr != "solve"}
