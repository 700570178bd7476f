"""End-to-end behavior of the alternating solver on small instances."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import decision_record
import oracles
import slrnmf.model
import slrnmf.solver
from slrnmf.initializers import init_uniform, init_vca
from slrnmf.metrics import match_columns
from slrnmf.model import Objective, _column_dots, _pixel_block
from slrnmf.solver import (
    DEFAULT_DELTA,
    DEFAULT_LAMBDA1,
    SolverConfig,
    SolverDiverged,
    abundance_cross,
    default_eta,
    line_search,
    solve,
    update_abundances,
    update_endmembers,
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
    assert report.config.eta == default_eta(y)
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
    with pytest.raises(ValueError, match="init_phi has 3 rows, expected L=4"):
        solve(y, np.ones((3, 2)), w0, SolverConfig(r=2))
    with pytest.raises(ValueError, match="init_w has 6 rows, expected K=5"):
        solve(y, phi0, np.ones((6, 2)), SolverConfig(r=2))
    with pytest.raises(ValueError, match="init_phi and init_w disagree on the "
                                         "number of columns: 2 vs 3"):
        solve(y, phi0, np.ones((5, 3)), SolverConfig(r=2))
    with pytest.raises(ValueError, match="init_phi has 3 columns, expected r=2"):
        solve(y, np.ones((4, 3)), np.ones((5, 3)), SolverConfig(r=2))
    with pytest.raises(ValueError, match="negative"):
        solve(-y, phi0, w0, SolverConfig(r=2))
    with pytest.raises(ValueError, match="negative"):
        solve(y, -phi0, w0, SolverConfig(r=2))


def test_divergence_raises_with_partial_report(monkeypatch):
    """Endmembers near 1e160 on data of unit scale: the initial cost
    overflows, and the solve raises before any Newton solve."""
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    solves = []
    monkeypatch.setattr(slrnmf.solver, "_spd_solve",
                        lambda *args: solves.append(1))
    with pytest.raises(SolverDiverged, match="non-finite cost inf at the "
                                             "initial iterate") as err:
        solve(y, 1e160 * phi0, w0, TINY)
    assert err.value.report is not None
    assert err.value.report.iterations == 0
    assert solves == []


def test_loop_does_not_rescan_y(monkeypatch):
    """A solve reads each element of ``y`` in one scan before it
    iterates, and checks it nowhere else.

    The scan's pixel blocks are shrunk to 3 pixels, so a 6 x 7 ``y``
    takes blocks of 3, 3 and 1 pixels.
    Every min and max reduction and every column dot over memory of ``y``
    is recorded by the columns it covers: each kind covers each column
    once, whatever the iteration count.  ``ndarray.min`` and ``.max``
    forward to numpy's ``_methods`` module.  ``as_matrix``, the other home
    of the input rules, never sees an array of ``y``'s shape.
    """
    try:
        from numpy._core import _methods
    except ImportError:  # numpy < 2
        from numpy.core import _methods
    y = np.random.default_rng(3).uniform(0.0, 1.0, (6, 7))
    phi0, w0 = init_uniform(6, 7, 4, 0)
    monkeypatch.setattr(slrnmf.model, "_RESIDUAL_BLOCK_BYTES", 8 * 6 * 3)
    as_matrix = slrnmf.model.as_matrix
    y_checks, spans = [], {}

    def columns(a):
        offset = a.__array_interface__["data"][0] - y.__array_interface__["data"][0]
        return offset // y.itemsize, offset // y.itemsize + a.shape[1]

    def counting_as_matrix(a, *args, **kwargs):
        if np.shape(a) == y.shape:
            y_checks.append(1)
        return as_matrix(a, *args, **kwargs)

    def recording(kind, original):
        def record(a, *args, **kwargs):
            if np.shares_memory(a, y):
                spans.setdefault(kind, []).append(columns(a))
            return original(a, *args, **kwargs)
        return record

    for module in (slrnmf.model, slrnmf.solver):
        monkeypatch.setattr(module, "as_matrix", counting_as_matrix)
    for name in ("umr_minimum", "umr_maximum"):
        monkeypatch.setattr(_methods, name, recording(name, getattr(_methods, name)))
    monkeypatch.setattr(slrnmf.model, "_column_dots",
                        recording("_column_dots", slrnmf.model._column_dots))
    for max_iter in (1, 5):
        spans.clear()
        config = SolverConfig(r=4, delta=0.1, lambda1=0.005,
                              max_iter=max_iter, tol_rel_cost=0.0)
        _, _, report = solve(y, phi0, w0, config)
        assert report.iterations == max_iter
        assert spans == {kind: [(0, 3), (3, 6), (6, 7)] for kind in
                         ("umr_minimum", "umr_maximum", "_column_dots")}
    assert y_checks == []


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


def protocol_scene(kind, seed):
    """Scene, initial factors and config of one acceptance protocol (from
    ``decision_record``), a 224 x 5000 scene costed in two pixel blocks
    ("multi-block", the CLI benchmark's settings), or a small scene with a
    dead endmember column ("dead-column")."""
    if kind == "multi-block":
        y, _ = simulate(l=224, k=5000, n=4, density=0.3, sigma=1e-3, seed=seed)
        phi0, w0 = init_uniform(224, 5000, 10, seed=seed)
        return y, phi0, w0, SolverConfig(r=10, delta=120.0, seed=seed)
    if kind in decision_record.KINDS:
        y, _, phi0, w0, config = decision_record.scene(kind, seed)
        return y, phi0, w0, config
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
    """The full cost is priced once per solve, at the initial iterate, in
    Gram form: ``Objective.total`` is never called.  Each iteration forms
    one C = Y^T Phi, and the first, formed before any line search, is the
    C that priced the initial cost and that the first abundance step
    takes."""
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    events, formed, priced, taken = [], [], [], []

    def wrap(owner, name, log=None, arg=None):
        original = getattr(owner, name)

        def wrapped(*args):
            events.append(name)
            result = original(*args)
            if log is not None:
                log.append(result if arg is None else args[arg])
            return result

        monkeypatch.setattr(owner, name, wrapped)

    wrap(Objective, "total")
    wrap(Objective, "total_gram", priced, 3)
    wrap(slrnmf.solver, "abundance_cross", formed)
    wrap(slrnmf.solver, "update_abundances", taken, 3)
    wrap(slrnmf.solver, "line_search")
    config = SolverConfig(r=4, delta=0.1, lambda1=0.005, eta=0.05,
                          max_iter=20, tol_rel_cost=0.0)
    _, _, report = solve(y, phi0, w0, config)
    assert report.iterations == 20
    iteration = ["update_abundances", "line_search", "line_search"]
    assert events == (["abundance_cross", "total_gram"] + iteration
                      + (["abundance_cross"] + iteration) * 19)
    assert priced[0] is formed[0]
    assert all(a is b for a, b in zip(formed, taken))


def test_line_search_prices_the_gram_of_the_block_step(monkeypatch):
    """Each block's Gram is formed once per iteration: the one the line
    search prices with is the object the block's Newton step returned."""
    formed, priced = [], []
    newton_step = slrnmf.solver._newton_step
    change_along = Objective.change_along

    def forming(*args):
        step = newton_step(*args)
        formed.append(step[1])
        return step

    def pricing(self, phi, w, candidate, which, gram, cross, energies):
        priced.append(gram)
        return change_along(self, phi, w, candidate, which, gram, cross,
                            energies)

    monkeypatch.setattr(slrnmf.solver, "_newton_step", forming)
    monkeypatch.setattr(Objective, "change_along", pricing)
    phi_t, w_t = tiny_truth(0)
    phi0, w0 = init_uniform(6, 8, 4, 0)
    _, _, report = solve(phi_t @ w_t.T, phi0, w0, replace(TINY, max_iter=5))
    assert report.iterations == 5
    assert len(formed) == len(priced) == 10
    assert all(a is b for a, b in zip(formed, priced))


def test_line_search_allocates_no_residual():
    y, phi, w, config = protocol_scene("uniform", 0)
    config = with_defaults(config, y)
    obj = Objective(y, config.delta, config.lambda1, config.eta)
    d = oracles.penalty_diag(phi, w, config.delta, config.eta)
    energies = oracles.column_energies(phi, w)
    baseline = obj.total(phi, w)
    steps = {"w": update_abundances(obj, phi, d, abundance_cross(y, phi)),
             "phi": update_endmembers(obj, w, d)}
    for which, step in steps.items():
        tracemalloc.start()
        try:
            line_search(obj, phi, w, step, which, config, baseline, energies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * y.nbytes, (which, peak / y.nbytes)


@pytest.mark.parametrize("kind", ["uniform", "vca", "dead-column"])
def test_carried_energies_never_drift(kind):
    """The column energies ``solve`` carries out of the line searches and
    through column drops equal fresh ones: at every iteration the penalty
    diagonal on the alive columns is, bitwise, the one formed from the
    column dots of the accepted factors.  Each scene has iterations with a
    fractional step weight and with a column drop."""
    y, phi0, w0, config = protocol_scene(kind, 0)
    states = []
    _, _, report = solve(y, phi0, w0, config, callback=states.append)
    c = report.config
    width, fractional, drops = c.r, 0, 0
    for s in states:
        alive = s.phi_hat.any(axis=0) | s.w_hat.any(axis=0)
        energy = _column_dots(s.phi_hat, s.phi_hat) + _column_dots(s.w_hat, s.w_hat)
        fresh = c.delta / np.sqrt(energy + c.eta * c.eta)
        assert np.array_equal(s.d_hat[alive], fresh[alive]), s.k
        fractional += 0.0 < s.beta_w < 1.0 or 0.0 < s.beta_phi < 1.0
        drops += alive.sum() < width
        width = alive.sum()
    assert fractional and drops, (fractional, drops)


@pytest.mark.parametrize("kind", ["uniform", "vca", "dead-column"])
def test_column_energies_are_formed_once_per_block_update(monkeypatch, kind):
    """Entry forms each block's column dots once, and the scan of ``y``
    one per pixel block (each scene is one block); nothing forms a
    ``_column_energy``.  An iteration takes the three column dots of
    each line search's pricing plus one per search that accepts a
    fractional step weight, for the blend."""
    y, phi0, w0, config = protocol_scene(kind, 0)
    config = with_defaults(config, y)
    counts = {"_column_dots": 0, "_column_energy": 0}
    for module, name in ((slrnmf.model, "_column_dots"),
                         (slrnmf.solver, "_column_dots"),
                         (slrnmf.model, "_column_energy")):
        def counting(*args, _name=name, _original=getattr(module, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    seen = []
    solve(y, phi0, w0, config,
          callback=lambda state: seen.append((state, dict(counts))))
    before = {"_column_dots": 2 + 1, "_column_energy": 0}
    fractional = 0
    for state, after in seen:
        blends = (0.0 < state.beta_w < 1.0) + (0.0 < state.beta_phi < 1.0)
        assert after["_column_energy"] == before["_column_energy"], state.k
        assert after["_column_dots"] - before["_column_dots"] == 6 + blends, state.k
        fractional += blends
        before = after
    assert fractional


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
        y, truth, phi0, w0, config = decision_record.scene(kind, seed)
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


def test_callback_states_pad_only_when_read(monkeypatch):
    """After a column drop, a callback that reads only the scalars of its
    states makes no r-wide array; one that reads an array pads it on the
    first read only."""
    y, phi0, w0, config = protocol_scene("uniform", 0)
    padded = []
    full = np.full

    def counting_full(shape, *args, **kwargs):
        padded.append(shape)
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", counting_full)
    costs = []
    _, _, report = solve(y, phi0, w0, config,
                         callback=lambda s: costs.append((s.k, s.last_cost)))
    assert report.final_effective_rank < config.r  # the scene drops columns
    assert len(costs) == report.iterations and padded == []
    states = []
    solve(y, phi0, w0, config, callback=states.append)
    last = states[-1]
    for name in ("phi_hat", "w_hat", "d_hat", "phi_hat", "w_hat", "d_hat"):
        assert getattr(last, name).shape[-1] == config.r
    assert padded == [(224, config.r), (500, config.r), (config.r,)]


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
def test_blocked_total_matches_direct_total_in_solves(kind):
    """The initial cost a solve reports, priced in Gram form, agrees with
    both the blocked ``Objective.total`` and the direct total at the
    initial iterate, within the bound of ``Objective.total_gram``.  The
    two totals agree bitwise on a scene of one block, and in the last
    digits past one."""
    y, phi0, w0, config = protocol_scene(kind, 0)
    multi = y.shape[1] > _pixel_block(y.shape[0])
    assert multi == (kind == "multi-block")
    config = with_defaults(config, y)
    _, _, report = solve(y, phi0, w0, replace(config, max_iter=0))
    obj = Objective(y, config.delta, config.lambda1, config.eta)
    blocked, direct = obj.total(phi0, w0), oracles.direct_total(obj, phi0, w0)
    if multi:
        assert blocked == pytest.approx(direct, rel=1e-12, abs=0.0)
    else:
        assert blocked == direct
    bound = oracles.gram_total_bound(obj, phi0, w0)
    assert abs(report.initial_cost - blocked) <= bound
    assert abs(report.initial_cost - direct) <= bound


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
