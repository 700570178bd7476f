"""Public names: every exported name resolves, step internals stay in their modules."""

import importlib
import pkgutil

import pytest

import slrnmf

MODULES = ["slrnmf"] + ["slrnmf." + m.name
                        for m in pkgutil.iter_modules(slrnmf.__path__)]

# Solver and model steps: importable from their own modules, not re-exported.
STEP_INTERNALS = {
    "slrnmf.model": ["Objective", "cost_total", "grad_w", "grad_phi",
                     "joint_column_norms"],
    "slrnmf.solver": ["soft_threshold", "project_nonneg", "update_abundances",
                      "update_endmembers", "update_penalty_diag", "extrapolate",
                      "line_search", "prune_and_report_rank", "default_eta"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_step_internals_are_not_reexported():
    for name, internals in STEP_INTERNALS.items():
        module = importlib.import_module(name)
        for attr in internals:
            assert hasattr(module, attr), (name, attr)
            assert not hasattr(slrnmf, attr), attr
