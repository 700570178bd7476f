"""Public names: every exported name resolves, step internals stay in their
modules, and the names the benchmark traces stay where it looks for them."""

import ast
import importlib
import inspect
import pathlib
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
                      "prune_and_report_rank"],
}

# The block steps' internals, whose layout (component-major factors) and
# signatures follow the solver's internals.  Tests reach them through the
# pixel-major adapter in ``tests/oracles.py``; only the tests whose subject
# is the layout itself name them, and each is listed here by name.
STEP_LAYOUT = {"update_abundances", "update_endmembers", "line_search",
               "SearchTerms", "_candidate_rows", "_block_step", "change_along"}
LAYOUT_TESTS = (
    "test_solver.py::test_line_search_prices_the_gram_of_the_block_step",
    "test_solver.py::test_line_search_allocates_no_residual",
    "test_solver_ops.py::test_component_major_step_matches_the_pixel_major_oracle",
    "test_solver_ops.py::test_endmember_step_allocates_no_k_by_r_temporary",
    "test_solver_ops.py::test_endmember_step_forms_y_w_within_its_bound",
)

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


def test_only_layout_tests_name_the_step_internals():
    """No function in ``tests/test_*.py`` outside ``LAYOUT_TESTS`` names a
    step internal (as a name, an attribute or an import), and each listed
    one does, so the list holds no stale entry.  A name passed as a
    string, as in swapping ``line_search`` for a drop-in with its
    signature, reads no layout and is not counted."""
    naming = []
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {getattr(n, "id", None) or getattr(n, "attr", None)
                     or getattr(n, "name", None) for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            if names & STEP_LAYOUT:
                naming.append("%s::%s" % (path.name, node.name))
    assert sorted(naming) == sorted(LAYOUT_TESTS)
