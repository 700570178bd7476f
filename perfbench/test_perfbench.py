"""Tests of the benchmark itself, at toy sizes.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
from slrnmf import model, solver  # noqa: E402
from slrnmf.metrics import match_columns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def kinds(problems):
    return {kind for kind, _ in problems}


# --- each check accepts good output and rejects a corrupted one ------------

@pytest.mark.parametrize("block", [checks.BLOCK_PIXELS, 7])
def test_objective_matches_program(block):
    rng = np.random.default_rng(0)
    y, phi, w = rng.random((30, 40)), rng.random((30, 5)), rng.random((40, 5))
    ours = checks.objective(y, phi, w, 2.0, 0.1, 0.3, block)
    assert ours == pytest.approx(model.cost_total(y, phi, w, 2.0, 0.1, 0.3),
                                 rel=1e-13)


@pytest.mark.parametrize("n_est,n_ref", [(4, 4), (6, 3), (2, 5)])
def test_brute_force_sam_matches_assignment(n_est, n_ref):
    rng = np.random.default_rng(n_est * 10 + n_ref)
    est, ref = rng.random((20, n_est)), rng.random((20, n_ref))
    assert checks.brute_force_sam(est, ref) == pytest.approx(
        match_columns(est, ref).mean_sam_degrees, abs=1e-10)


def test_factor_check():
    phi, w = np.ones((6, 2)), np.ones((9, 2))
    assert checks.factor_problems(phi, w, 2, 6, 9) == []
    bad = phi.copy()
    bad[3, 1] = -1e-9
    assert kinds(checks.factor_problems(bad, w, 2, 6, 9)) == {"nonneg"}
    bad[3, 1] = np.nan
    assert kinds(checks.factor_problems(bad, w, 2, 6, 9)) == {"finite"}
    assert kinds(checks.factor_problems(phi, w, 3, 6, 9)) == {"shape"}


def test_trace_check():
    assert checks.trace_problems(10.0, [9.0, 9.0 * (1 + 4e-12), 8.0]) == []
    assert kinds(checks.trace_problems(10.0, [9.0, 9.0 * (1 + 1e-10)])) == {
        "trace"}
    assert kinds(checks.trace_problems(10.0, [10.5])) == {"trace"}


def test_cost_rank_and_sam_checks():
    assert checks.cost_problems(100.0, 100.0 * (1 + 1e-12)) == []
    assert kinds(checks.cost_problems(100.0, 100.001)) == {"cost"}
    assert checks.rank_problems(4, 4) == []
    assert kinds(checks.rank_problems(10, 4)) == {"rank"}
    rng = np.random.default_rng(1)
    est, ref = rng.random((10, 3)), rng.random((10, 3))
    sam = checks.brute_force_sam(est, ref)
    assert checks.sam_problems(est, ref, sam) == []
    assert kinds(checks.sam_problems(est, ref, sam + 1e-6)) == {"sam"}


def test_stall_reported_as_converged_is_flagged_but_not_wrong():
    stalled = checks.stall_problems(True, [1.0, 0.0], [0.5, 0.0])
    assert kinds(stalled) == {"stall"}
    assert not checks.is_wrong(stalled)
    assert checks.stall_problems(False, [1.0, 0.0], [0.5, 0.0]) == []
    assert checks.stall_problems(True, [1.0, 0.0], [0.5, 0.25]) == []
    assert checks.is_wrong(stalled + checks.rank_problems(10, 4))


# --- the harness completes and counts failures -----------------------------

@pytest.fixture
def child_env(monkeypatch):
    """The environment run.py gives sessions, which their children inherit."""
    env = run.session_env()
    for key in ("PYTHONPATH", "OPENBLAS_NUM_THREADS"):
        monkeypatch.setenv(key, env[key])


def toy_protocol():
    # Scene 4 of the uniform protocol converges in 11 iterations.
    return dataclasses.replace(WORKLOADS["uniform-k500"], scenes=(4,),
                               sessions=1)


def metric_names(section):
    return [m["name"] for m in BENCHMARK[section]]


@pytest.mark.parametrize("trace", [0, 1])
def test_protocol_session_completes(tmp_path, child_env, trace):
    out = session.run_session(toy_protocol(), 0, 0, 0.01, trace, tmp_path)
    ops = out["ops"] + out.get("untraced_ops", [])
    assert ops and not any(op["failed"] for op in ops)
    metrics = run.per_layer([out]) if trace else run.end_to_end([out])
    assert list(metrics) == metric_names("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())


def test_corrupted_solver_output_counts_as_failed(tmp_path, monkeypatch):
    real_solve = solver.solve

    def corrupt(*args, **kwargs):
        phi, w, report = real_solve(*args, **kwargs)
        w = w.copy()
        w[0, 0] = -1.0
        return phi, w, report

    monkeypatch.setattr(solver, "solve", corrupt)
    out = session.run_session(toy_protocol(), 0, 0, 0.01, 0, tmp_path)
    assert all(op["failed"] and op["wrong"] for op in out["ops"])
    assert any("negative" in p for p in out["ops"][0]["problems"])


def test_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    real_solve = solver.solve

    def diverge(y, phi0, w0, config, **kwargs):
        if config.max_iter == 2:        # the set-up's warm-up solve
            return real_solve(y, phi0, w0, config, **kwargs)
        raise solver.SolverDiverged("non-finite cost")

    monkeypatch.setattr(solver, "solve", diverge)
    out = session.run_session(toy_protocol(), 0, 0, 0.01, 0, tmp_path)
    assert all(op["failed"] and not op["wrong"] for op in out["ops"])


@pytest.mark.parametrize("trace", [0, 1])
def test_large_session_builds_its_scene_in_a_child(tmp_path, child_env, trace):
    # The toy scene converges, so no operation stalls.
    spec = dataclasses.replace(WORKLOADS["large-k100k"], k=500, scenes=(4,),
                               max_iter=None, tol_rel_cost=None, sessions=1)
    out = session.run_session(spec, 0, 0, 0.01, trace, tmp_path)
    ops = out["ops"] + out.get("untraced_ops", [])
    assert ops and not any(op["failed"] for op in ops), ops
    if trace:
        assert out["setup_totals"]["synth.simulate"]["count"] == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_session_completes(tmp_path, child_env, trace):
    spec = dataclasses.replace(WORKLOADS["cli-k5000"], k=500, delta=12.0,
                               sessions=1)
    out = session.run_session(spec, 0, 3, 0.01, trace, tmp_path)
    ops = out["ops"] + out.get("untraced_ops", [])
    assert ops and not any(op["failed"] for op in ops), ops
    if trace:
        metrics = run.per_layer([out])
        assert metrics["io.load_matrix_s"][0] > 0
        assert metrics["cli.import_s"][0] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform-k500",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
