"""End-to-end behavior of the alternating solver on small instances."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
import slrnmf.model
import slrnmf.solver
from slrnmf.initializers import init_uniform, init_vca, nnls_abundances
from slrnmf.metrics import match_columns
from slrnmf.model import Objective, _pixel_block
from slrnmf.solver import (
    DEFAULT_DELTA,
    DEFAULT_LAMBDA1,
    SolverConfig,
    SolverDiverged,
    line_search,
    solve,
    update_abundances,
    update_endmembers,
    update_penalty_diag,
    with_defaults,
)
from slrnmf.synth import simulate

TINY = SolverConfig(r=4, delta=0.1, lambda1=0.005, eta=0.05,
                    max_iter=3000, tol_rel_cost=1e-10)


def tiny_truth(seed):
    """Rank-2 noiseless instance with well-separated block spectra."""
    rng = np.random.default_rng(100 + seed)
    phi_t = np.zeros((6, 2))
    phi_t[:3, 0] = rng.uniform(0.6, 1.0, 3)
    phi_t[3:, 1] = rng.uniform(0.6, 1.0, 3)
    phi_t += rng.uniform(0.0, 0.08, size=(6, 2))
    w_t = rng.uniform(0.0, 1.0, size=(8, 2))
    return phi_t, w_t


@pytest.mark.parametrize("seed", range(3))
def test_recovers_rank_two_from_overestimate(seed):
    phi_t, w_t = tiny_truth(seed)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, seed)
    phi, w, report = solve(y, phi0, w0, TINY)
    assert report.final_effective_rank == 2
    assert phi.shape == (6, 2)
    assert w.shape == (8, 2)
    resid = np.linalg.norm(y - phi @ w.T) / np.linalg.norm(y)
    assert resid < 0.1
    # sanity anchor: the data is exactly factorizable at this rank
    a, b = oracles.mu_nmf(y, 4, iters=3000, seed=seed)
    assert np.linalg.norm(y - a @ b) / np.linalg.norm(y) < 1e-5
    # recovered directions point at the truth, loosely at this tiny scale
    m = match_columns(phi, phi_t)
    assert m.mean_sam_degrees < 30.0


def test_cost_trace_is_monotone_and_consistent():
    phi_t, w_t = tiny_truth(1)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 1)
    phi, w, report = solve(y, phi0, w0, TINY)
    trace = report.cost_trace
    assert report.iterations == trace.size
    assert report.final_cost == trace[-1]
    assert trace[0] <= report.initial_cost * (1 + 1e-12)
    drops = np.diff(np.concatenate([[report.initial_cost], trace]))
    assert (drops <= 1e-12 * np.abs(trace).max()).all()
    assert report.converged
    assert report.final_effective_rank == report.effective_rank_trace[-1]
    assert report.surviving_columns.size == report.final_effective_rank
    assert report.beta_w_trace.size == report.iterations
    assert report.beta_phi_trace.size == report.iterations
    assert ((report.beta_w_trace >= 0) & (report.beta_w_trace <= 1)).all()
    assert report.wall_time > 0


def test_permutation_of_init_columns_permutes_the_solution():
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    phi_a, w_a, rep_a = solve(y, phi0, w0, TINY)
    perm = np.array([2, 0, 3, 1])
    phi_b, w_b, rep_b = solve(y, phi0[:, perm], w0[:, perm], TINY)
    assert rep_a.final_effective_rank == rep_b.final_effective_rank
    assert rep_a.final_cost == pytest.approx(rep_b.final_cost, rel=1e-10)
    m = match_columns(phi_a, phi_b)
    assert m.per_pair_sam_degrees.max() < 1e-6
    aligned = w_a[:, m.permutation[:, 0]] - w_b[:, m.permutation[:, 1]]
    assert np.abs(aligned).max() < 1e-8


def test_repeat_runs_are_bit_identical():
    phi_t, w_t = tiny_truth(2)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 2)
    phi_a, w_a, rep_a = solve(y, phi0, w0, TINY)
    phi_b, w_b, rep_b = solve(y, phi0, w0, TINY)
    assert np.array_equal(phi_a, phi_b)
    assert np.array_equal(w_a, w_b)
    assert np.array_equal(rep_a.cost_trace, rep_b.cost_trace)


def test_max_iter_zero_returns_pruned_init():
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    config = SolverConfig(r=4, delta=0.1, lambda1=0.005, eta=0.05, max_iter=0)
    phi, w, report = solve(y, phi0, w0, config)
    assert report.iterations == 0
    assert report.cost_trace.size == 0
    assert not report.converged
    assert report.final_cost == report.initial_cost
    assert report.final_effective_rank == 4  # nothing pruned from random init
    assert np.array_equal(phi, phi0)
    assert np.array_equal(w, w0)


def test_callback_sees_every_iteration():
    phi_t, w_t = tiny_truth(1)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 1)
    seen = []
    _, _, report = solve(y, phi0, w0, TINY, callback=seen.append)
    assert len(seen) == report.iterations
    assert [s.k for s in seen] == list(range(1, report.iterations + 1))
    last = seen[-1]
    assert last.phi_hat.shape == (6, 4)
    assert last.w_hat.shape == (8, 4)
    assert last.d_hat.shape == (4,)
    assert last.last_cost == report.final_cost
    costs = [s.last_cost for s in seen]
    assert (np.diff(costs) <= 1e-12 * max(abs(c) for c in costs)).all()


def test_unresolved_config_is_filled_and_echoed():
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    _, _, report = solve(y, phi0, w0, SolverConfig(r=4, max_iter=3))
    assert report.config.is_resolved
    assert report.config.delta == DEFAULT_DELTA
    assert report.config.lambda1 == DEFAULT_LAMBDA1
    assert report.config.eta > 0


def test_all_zero_observations_degenerate_to_rank_zero():
    y = np.zeros((5, 7))
    phi0, w0 = init_uniform(5, 7, 3, 0)
    phi, w, report = solve(y, phi0, w0, SolverConfig(r=3, max_iter=50))
    assert report.rank_degenerate
    assert report.final_effective_rank == 0
    assert phi.shape == (5, 0)
    assert w.shape == (7, 0)
    assert (np.diff(report.cost_trace)
            <= 1e-12 * max(report.initial_cost, 1.0)).all()


def test_complex_input_is_rejected():
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    with pytest.raises(ValueError, match="y must be real"):
        solve(y + 0j, phi0, w0, TINY)
    with pytest.raises(ValueError, match="init_phi must be real"):
        solve(y, phi0 + 1e-3j, w0, TINY)
    with pytest.raises(ValueError, match="y must be real"):
        init_vca(y.astype(np.complex64), 2, seed=0)


def test_overflowing_scale_is_an_error_not_rank_zero():
    """Y and Phi0 near 1e160: the default eta overflows to inf and is
    rejected; with eta given, the initial cost is inf and the solve raises
    ``SolverDiverged`` before iterating."""
    phi_t, w_t = tiny_truth(0)
    y = 1e160 * (phi_t @ w_t.T)
    phi0, w0 = init_uniform(6, 8, 4, 0)
    with pytest.raises(ValueError, match="eta must be finite"):
        solve(y, 1e160 * phi0, w0, SolverConfig(r=4))
    with pytest.raises(SolverDiverged, match="non-finite cost inf") as err:
        solve(y, 1e160 * phi0, w0, SolverConfig(r=4, eta=1.0))
    assert err.value.report.iterations == 0


def test_input_validation():
    y = np.ones((4, 5))
    phi0, w0 = init_uniform(4, 5, 2, 0)
    with pytest.raises(ValueError, match="init_phi has shape"):
        solve(y, np.ones((3, 2)), w0, SolverConfig(r=2))
    with pytest.raises(ValueError, match="init_w has shape"):
        solve(y, phi0, np.ones((5, 3)), SolverConfig(r=2))
    with pytest.raises(ValueError, match="negative"):
        solve(-y, phi0, w0, SolverConfig(r=2))
    with pytest.raises(ValueError, match="negative"):
        solve(y, -phi0, w0, SolverConfig(r=2))


def test_divergence_raises_with_partial_report(monkeypatch):
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)

    class BrokenObjective(Objective):
        def total(self, phi, w):
            return float("-inf")

    monkeypatch.setattr(slrnmf.solver, "Objective", BrokenObjective)
    with pytest.raises(SolverDiverged) as err:
        solve(y, phi0, w0, TINY)
    assert "non-finite cost" in str(err.value)
    assert err.value.report is not None
    assert err.value.report.iterations == 0


def test_loop_does_not_rescan_y(monkeypatch):
    """``y`` is scanned for non-finite entries once per solve, in any step.

    Counts every ``as_matrix`` call, the one home of the finite-entry
    check, on an array of ``y``'s shape, through both modules that call it:
    ``solve``'s own check, default resolution and the ``Objective``
    constructor; no other array in the solve has that shape.
    """
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    as_matrix = slrnmf.model.as_matrix
    y_scans = []

    def counting_as_matrix(a, *args, **kwargs):
        if np.shape(a) == y.shape:
            y_scans[-1] += 1
        return as_matrix(a, *args, **kwargs)

    for module in (slrnmf.model, slrnmf.solver):
        monkeypatch.setattr(module, "as_matrix", counting_as_matrix)
    for max_iter in (1, 5):
        y_scans.append(0)
        config = SolverConfig(r=4, delta=0.1, lambda1=0.005,
                              max_iter=max_iter, tol_rel_cost=0.0)
        _, _, report = solve(y, phi0, w0, config)
        assert report.iterations == max_iter
    assert y_scans == [1, 1]


def test_block_step_failure_raises_diverged_with_partial_report():
    # delta = 0 and a zero endmember column: Phi^T Phi + D is singular.
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    phi0[:, 1] = 0.0
    config = SolverConfig(r=4, delta=0.0, lambda1=0.005, eta=0.05)
    with pytest.raises(SolverDiverged) as err:
        solve(y, phi0, w0, config)
    assert "normal matrix is not positive definite" in str(err.value)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
    assert err.value.report is not None
    assert err.value.report.iterations == 0


# Scene sizes of the two acceptance protocols.
PROTOCOLS = {"uniform": dict(l=224, k=500, n=4, density=0.3, sigma=1e-3),
             "vca": dict(l=224, k=900, n=3, density=0.5, sigma=1e-3)}


def protocol_scene(kind, seed):
    """Scene, initial factors and config of one acceptance protocol, a
    224 x 5000 scene costed in two pixel blocks ("multi-block", the CLI
    benchmark's settings), or a small scene with a dead endmember column
    ("dead-column")."""
    if kind == "multi-block":
        y, _ = simulate(l=224, k=5000, n=4, density=0.3, sigma=1e-3, seed=seed)
        phi0, w0 = init_uniform(224, 5000, 10, seed=seed)
        return y, phi0, w0, SolverConfig(r=10, delta=120.0, seed=seed)
    if kind == "uniform":
        y, _ = simulate(**PROTOCOLS[kind], seed=seed)
        phi0, w0 = init_uniform(224, 500, 10, seed=seed)
        return y, phi0, w0, SolverConfig(r=10, seed=seed)
    if kind == "vca":
        y, _ = simulate(**PROTOCOLS[kind], seed=seed)
        phi0 = init_vca(y, 8, seed=seed)
        return y, phi0, nnls_abundances(y, phi0), SolverConfig(r=8, seed=seed)
    # A zero endmember column at a tiny eta: when its abundance column
    # collapses, the column's energy falls from ||w_i||^2 to eta^2 = 1e-18.
    y = np.random.default_rng(1 + seed).uniform(0, 1, (6, 8))
    phi0, w0 = init_uniform(6, 8, 4, seed)
    phi0[:, 1] = 0.0
    return y, phi0, w0, SolverConfig(r=4, delta=0.5, lambda1=0.05, eta=1e-9,
                                     max_iter=50)


@pytest.mark.parametrize("kind", ["uniform", "vca", "dead-column"])
def test_closed_form_search_matches_direct_form(monkeypatch, kind):
    y, phi0, w0, config = protocol_scene(kind, 0)
    phi_a, w_a, rep_a = solve(y, phi0, w0, config)
    monkeypatch.setattr(slrnmf.solver, "line_search", oracles.direct_line_search)
    phi_b, w_b, rep_b = solve(y, phi0, w0, config)
    assert rep_a.iterations == rep_b.iterations
    assert np.array_equal(rep_a.beta_w_trace, rep_b.beta_w_trace)
    assert np.array_equal(rep_a.beta_phi_trace, rep_b.beta_phi_trace)
    assert np.array_equal(phi_a, phi_b)
    assert np.array_equal(w_a, w_b)
    assert rep_a.final_cost == pytest.approx(rep_b.final_cost, rel=1e-10)


@pytest.mark.parametrize("seed, iterations", [(31, 2), (37, 4), (38, 4)])
def test_stall_is_not_convergence(seed, iterations):
    """An iteration in which neither block moves ends the solve unconverged:
    the next one would repeat it bit for bit."""
    y, phi0, w0, config = protocol_scene("uniform", seed)
    _, _, report = solve(y, phi0, w0, config)
    assert report.iterations == iterations
    assert report.beta_w_trace[-1] == 0.0 and report.beta_phi_trace[-1] == 0.0
    assert not report.converged


def test_full_cost_is_evaluated_once_per_solve(monkeypatch):
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    total = Objective.total
    calls = []

    def counting_total(self, phi, w):
        calls.append(1)
        return total(self, phi, w)

    monkeypatch.setattr(Objective, "total", counting_total)
    config = SolverConfig(r=4, delta=0.1, lambda1=0.005, eta=0.05,
                          max_iter=20, tol_rel_cost=0.0)
    _, _, report = solve(y, phi0, w0, config)
    assert report.iterations == 20
    assert len(calls) == 1


def test_line_search_allocates_no_residual():
    y, phi, w, config = protocol_scene("uniform", 0)
    config = with_defaults(config, y)
    obj = Objective(y, config.delta, config.lambda1, config.eta)
    d = update_penalty_diag(phi, w, config.delta, config.eta)
    baseline = obj.total(phi, w)
    steps = {"w": update_abundances(obj, phi, d),
             "phi": update_endmembers(obj, w, d)}
    for which, (cand, cross) in steps.items():
        tracemalloc.start()
        try:
            line_search(obj, phi, w, cand, cross, which, config, baseline)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * y.nbytes, (which, peak / y.nbytes)


@pytest.mark.parametrize("kind", ["uniform", "vca"])
def test_dropping_columns_matches_full_width_oracle(kind):
    """Dropping zero columns while iterating changes no decision of the
    full-width loop on the 10 scenes of each acceptance protocol, and on VCA
    scene 12, where zeroing a column as soon as it fell below prune_tol
    moved the factors by 3e-9.

    Dropped columns are exactly zero, and a zero column stays zero in the
    full-width loop, so the two agree up to the rounding of products taken
    at a different width.
    """
    for seed in list(range(10)) + ([12] if kind == "vca" else []):
        y, phi0, w0, config = protocol_scene(kind, seed)
        _, truth = simulate(**PROTOCOLS[kind], seed=seed)
        phi_a, w_a, rep_a = solve(y, phi0, w0, config)
        phi_b, w_b, rep_b = oracles.full_width_solve(y, phi0, w0, config)
        assert rep_a.iterations == rep_b.iterations, seed
        assert np.array_equal(rep_a.beta_w_trace, rep_b.beta_w_trace), seed
        assert np.array_equal(rep_a.beta_phi_trace, rep_b.beta_phi_trace), seed
        assert np.array_equal(rep_a.effective_rank_trace,
                              rep_b.effective_rank_trace), seed
        assert np.array_equal(rep_a.surviving_columns, rep_b.surviving_columns), seed
        for a, b in ((phi_a, phi_b), (w_a, w_b)):
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b), seed
        sam_a = match_columns(phi_a, truth.phi_true).mean_sam_degrees
        sam_b = match_columns(phi_b, truth.phi_true).mean_sam_degrees
        assert abs(sam_a - sam_b) <= 1e-9, seed
        assert rep_a.final_cost == pytest.approx(rep_b.final_cost, rel=1e-10), seed


def test_callback_state_keeps_width_r_after_drops():
    y, phi0, w0, config = protocol_scene("uniform", 0)
    states = []
    phi, _, report = solve(y, phi0, w0, config, callback=states.append)
    c = report.config
    obj = Objective(y, c.delta, c.lambda1, c.eta)
    assert report.final_effective_rank < c.r  # the scene drops columns
    for s, rank in zip(states, report.effective_rank_trace):
        assert s.phi_hat.shape == (224, c.r)
        assert s.w_hat.shape == (500, c.r)
        assert s.d_hat.shape == (c.r,)
        zero = ~(s.phi_hat.any(axis=0) | s.w_hat.any(axis=0))
        assert zero.sum() >= c.r - rank, s.k
        assert (s.d_hat[zero] == c.delta / c.eta).all(), s.k
        assert s.last_cost == pytest.approx(obj.total(s.phi_hat, s.w_hat),
                                            rel=1e-9), s.k
    last = states[-1]
    kept = np.flatnonzero(last.phi_hat.any(axis=0) | last.w_hat.any(axis=0))
    assert np.array_equal(kept, report.surviving_columns)
    assert np.array_equal(last.phi_hat[:, kept], phi)


def test_zero_init_column_is_dropped_before_iterating():
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    phi0[:, 2] = 0.0
    w0[:, 2] = 0.0
    config = replace(TINY, max_iter=0)
    phi, w, report = solve(y, phi0, w0, config)
    assert np.array_equal(report.surviving_columns, [0, 1, 3])
    assert np.array_equal(phi, phi0[:, [0, 1, 3]])
    assert np.array_equal(w, w0[:, [0, 1, 3]])
    assert report.final_cost == report.initial_cost
    states = []
    solve(y, phi0, w0, replace(TINY, max_iter=1), callback=states.append)
    assert not states[0].phi_hat[:, 2].any() and not states[0].w_hat[:, 2].any()
    assert states[0].d_hat[2] == TINY.delta / TINY.eta


def test_all_zero_observations_never_factor_an_empty_system(monkeypatch):
    spd_solve = slrnmf.solver._spd_solve
    sizes = []

    def recording(a, b, context):
        sizes.append(a.shape[0])
        return spd_solve(a, b, context)

    monkeypatch.setattr(slrnmf.solver, "_spd_solve", recording)
    y = np.zeros((5, 7))
    phi0, w0 = init_uniform(5, 7, 3, 0)
    phi, w, report = solve(y, phi0, w0, SolverConfig(r=3, max_iter=50))
    assert report.final_effective_rank == 0
    assert report.converged
    assert phi.shape == (5, 0) and w.shape == (7, 0)
    assert sizes and min(sizes) > 0


@pytest.mark.parametrize("kind", ["uniform", "vca", "multi-block"])
def test_blocked_total_matches_direct_total_in_solves(monkeypatch, kind):
    """Costing the residual in pixel blocks changes no decision of a solve.

    A scene of one block costs bitwise the same; past one block only the
    costs move, in the last digits.
    """
    y, phi0, w0, config = protocol_scene(kind, 0)
    multi = y.shape[1] > _pixel_block(y.shape[0])
    assert multi == (kind == "multi-block")
    phi_a, w_a, rep_a = solve(y, phi0, w0, config)
    monkeypatch.setattr(Objective, "total", oracles.direct_total)
    phi_b, w_b, rep_b = solve(y, phi0, w0, config)
    assert rep_a.iterations == rep_b.iterations
    for name in ("beta_w_trace", "beta_phi_trace", "effective_rank_trace",
                 "surviving_columns"):
        assert np.array_equal(getattr(rep_a, name), getattr(rep_b, name)), name
    assert np.array_equal(phi_a, phi_b)
    assert np.array_equal(w_a, w_b)
    costs_a = np.append(rep_a.cost_trace, rep_a.initial_cost)
    costs_b = np.append(rep_b.cost_trace, rep_b.initial_cost)
    if multi:
        assert np.allclose(costs_a, costs_b, rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(costs_a, costs_b)


@pytest.mark.parametrize("kind", ["uniform", "vca", "multi-block"])
def test_inverse_factor_solve_matches_cholesky_solve_in_solves(monkeypatch, kind):
    """Solving the block systems through the inverse Cholesky factor
    changes no decision of a solve against LAPACK's Cholesky solve; the
    factors move in the last digits (VCA scene 0 reaches kappa 9e5)."""
    y, phi0, w0, config = protocol_scene(kind, 0)
    phi_a, w_a, rep_a = solve(y, phi0, w0, config)
    monkeypatch.setattr(slrnmf.solver, "_spd_solve", oracles.direct_spd_solve)
    phi_b, w_b, rep_b = solve(y, phi0, w0, config)
    assert rep_a.iterations == rep_b.iterations
    for name in ("beta_w_trace", "beta_phi_trace", "effective_rank_trace",
                 "surviving_columns"):
        assert np.array_equal(getattr(rep_a, name), getattr(rep_b, name)), name
    for a, b in ((phi_a, phi_b), (w_a, w_b)):
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


def test_solve_holds_no_full_size_temporary():
    # 224 x 40,000: Y is 71.7 MB.  The solve holds K-by-r arrays (0.045 x
    # y.nbytes each) and one residual block (0.117); an L-by-K temporary
    # alone would be 1.0.
    rng = np.random.default_rng(0)
    y = rng.uniform(0.0, 1.0, (224, 40_000))
    phi0, w0 = init_uniform(224, 40_000, 10, seed=0)
    config = SolverConfig(r=10, max_iter=3, tol_rel_cost=0.0)
    tracemalloc.start()
    try:
        _, _, report = solve(y, phi0, w0, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations == 3
    assert peak < 0.4 * y.nbytes, "peak %.3f x y.nbytes" % (peak / y.nbytes)
