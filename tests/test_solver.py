"""End-to-end behavior of the alternating solver on small instances."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import decision_record
import oracles
import slrnmf.model
import slrnmf.solver
from slrnmf.initializers import init_uniform, init_vca
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
    assert report.config.eta == with_defaults(SolverConfig(r=1), y).eta
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


def test_zero_pixels_run_one_iteration():
    """A Y without pixels solves: the endmember step's sum over pixel
    blocks starts from zero, so it has a value when there is no block."""
    _, _, report = solve(np.zeros((5, 0)), np.ones((5, 2)), np.ones((0, 2)),
                         SolverConfig(r=2, eta=0.1))
    assert report.iterations == 1
    assert report.final_cost == pytest.approx(2.4, rel=1e-12)


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
    monkeypatch.setattr(slrnmf.solver, "_spd_inverse",
                        lambda *args: solves.append(1))
    with pytest.raises(SolverDiverged, match="non-finite cost inf at the "
                                             "initial iterate") as err:
        solve(y, 1e160 * phi0, w0, TINY)
    assert err.value.report is not None
    assert err.value.report.iterations == 0
    assert solves == []


def test_loop_does_not_rescan_y(monkeypatch):
    """A solve checks each element of ``y`` in one scan before it
    iterates, and nowhere else; the scan also forms the first abundance
    step's C = Y^T Phi.

    The scan's pixel blocks are shrunk to 3 pixels, so a 6 x 7 ``y``
    takes blocks of 3, 3 and 1 pixels.  Every min and max reduction,
    every column dot and every product of Phi with a block of ``y``
    (``_cross_block``) over memory of ``y`` is recorded by the columns it
    covers.  The scan takes one min, one column dot and one product per
    block, and no max of a finite ``y``; each later iteration takes one
    product per block, in its abundance step.  ``ndarray.min`` and
    ``.max`` forward to numpy's ``_methods`` module.  ``as_matrix``, the
    other home of the input rules, never sees an array of ``y``'s shape.
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

    def recording(kind, original, arg=0):
        def record(*args, **kwargs):
            if np.shares_memory(args[arg], y):
                spans.setdefault(kind, []).append(columns(args[arg]))
            return original(*args, **kwargs)
        return record

    cross_block = recording("_cross_block", slrnmf.model._cross_block, 1)
    for module in (slrnmf.model, slrnmf.solver):
        monkeypatch.setattr(module, "as_matrix", counting_as_matrix)
        monkeypatch.setattr(module, "_cross_block", cross_block)
    for name in ("umr_minimum", "umr_maximum"):
        monkeypatch.setattr(_methods, name, recording(name, getattr(_methods, name)))
    monkeypatch.setattr(slrnmf.model, "_column_dots",
                        recording("_column_dots", slrnmf.model._column_dots))
    blocks = [(0, 3), (3, 6), (6, 7)]
    for max_iter in (1, 5):
        spans.clear()
        config = SolverConfig(r=4, delta=0.1, lambda1=0.005,
                              max_iter=max_iter, tol_rel_cost=0.0)
        _, _, report = solve(y, phi0, w0, config)
        assert report.iterations == max_iter
        assert spans == {"umr_minimum": blocks, "_column_dots": blocks,
                         "_cross_block": blocks * max_iter}
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
    Gram form: ``Objective.total`` is never called.  The scan of ``y``
    forms the C = Y^T Phi that prices the initial cost, and the first
    abundance step takes that object; later steps take none and form
    their C from ``y``, one pixel block at a time."""
    phi_t, w_t = tiny_truth(0)
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(6, 8, 4, 0)
    events, formed, priced, taken = [], [], [], []

    def wrap(owner, name, log=None, pick=None):
        original = getattr(owner, name)

        def wrapped(*args):
            events.append(name)
            result = original(*args)
            if log is not None:
                log.append(pick(args, result))
            return result

        monkeypatch.setattr(owner, name, wrapped)

    wrap(Objective, "total")
    wrap(Objective, "total_gram", priced, lambda args, result: args[3])
    wrap(slrnmf.solver, "_scan_observations", formed, lambda args, result: result[3])
    wrap(slrnmf.solver, "update_abundances", taken, lambda args, result: args[4])
    wrap(slrnmf.solver, "line_search")
    config = SolverConfig(r=4, delta=0.1, lambda1=0.005, eta=0.05,
                          max_iter=20, tol_rel_cost=0.0)
    _, _, report = solve(y, phi0, w0, config)
    assert report.iterations == 20
    iteration = ["update_abundances", "line_search", "line_search"]
    assert events == ["_scan_observations", "total_gram"] + iteration * 20
    assert priced[0] is formed[0]
    assert taken[0] is formed[0]
    assert all(cross is None for cross in taken[1:])


def test_line_search_prices_the_gram_of_the_block_step(monkeypatch):
    """Each block's Gram is formed once per iteration: the one the line
    search prices with is the object the block's step formed."""
    formed, priced = [], []
    block_step = slrnmf.solver._block_step
    change_along = Objective.change_along

    def forming(*args):
        inverse, terms = block_step(*args)
        formed.append(terms.gram)
        return inverse, terms

    def pricing(self, terms, *args):
        priced.append(terms.gram)
        return change_along(self, terms, *args)

    monkeypatch.setattr(slrnmf.solver, "_block_step", forming)
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
    phi, w = np.ascontiguousarray(phi.T), np.ascontiguousarray(w.T)
    steps = {"w": update_abundances(obj, phi, w, d, None),
             "phi": update_endmembers(obj, phi, w, d)}
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
    accepted factors' energies (``oracles.carried_energies``).  Each
    scene has iterations with a fractional step weight and with a column
    drop."""
    y, phi0, w0, config = protocol_scene(kind, 0)
    states = []
    _, _, report = solve(y, phi0, w0, config, callback=states.append)
    c = report.config
    width, fractional, drops = c.r, 0, 0
    for s in states:
        alive = s.phi_hat.any(axis=0) | s.w_hat.any(axis=0)
        energy = oracles.carried_energies(s.phi_hat) + oracles.carried_energies(s.w_hat)
        fresh = c.delta / np.sqrt(energy + c.eta * c.eta)
        assert np.array_equal(s.d_hat[alive], fresh[alive]), s.k
        fractional += 0.0 < s.beta_w < 1.0 or 0.0 < s.beta_phi < 1.0
        drops += alive.sum() < width
        width = alive.sum()
    assert fractional and drops, (fractional, drops)


@pytest.mark.parametrize("kind", ["uniform", "vca", "dead-column"])
def test_column_energies_are_formed_once_per_block_update(monkeypatch, kind):
    """Entry forms each block's row dots once (one per pixel block of W,
    each scene being one block), and the scan of ``y`` one column dot per
    pixel block; nothing forms a ``_column_energy``.  An iteration takes
    the two row dots of each block step's search terms, one <x_i, z_i>
    per line search that tries a fractional step weight, and one more per
    search that accepts one, for the blend.  Row and column dots are
    counted together."""
    y, phi0, w0, config = protocol_scene(kind, 0)
    config = with_defaults(config, y)
    assert config.beta_init == 1.0 and config.max_backtracks > 1
    counts = {"dots": 0, "_column_energy": 0}
    for module, name, key in ((slrnmf.model, "_column_dots", "dots"),
                              (slrnmf.model, "_row_dots", "dots"),
                              (slrnmf.solver, "_row_dots", "dots"),
                              (slrnmf.model, "_column_energy", "_column_energy")):
        def counting(*args, _name=key, _original=getattr(module, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    seen = []
    solve(y, phi0, w0, config,
          callback=lambda state: seen.append((state, dict(counts))))
    before = {"dots": 2 + 1, "_column_energy": 0}
    fractional = full = 0
    for state, after in seen:
        betas = (state.beta_w, state.beta_phi)
        tried = sum(beta != 1.0 for beta in betas)
        blends = sum(0.0 < beta < 1.0 for beta in betas)
        assert after["_column_energy"] == before["_column_energy"], state.k
        assert after["dots"] - before["dots"] == 4 + tried + blends, state.k
        fractional += blends
        full += 2 - tried
        before = after
    assert fractional and full


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
    spd_inverse = slrnmf.solver._spd_inverse
    sizes = []

    def recording(a, context):
        sizes.append(a.shape[0])
        return spd_inverse(a, context)

    monkeypatch.setattr(slrnmf.solver, "_spd_inverse", recording)
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
    """Inverting the block steps' normal matrices through the inverse
    Cholesky factor changes no decision of a solve against LAPACK's
    Cholesky solve for the inverse; the factors move in the last digits
    (VCA scene 0 reaches kappa 9e5)."""
    y, phi0, w0, config = protocol_scene(kind, 0)
    phi_a, w_a, rep_a = solve(y, phi0, w0, config)
    monkeypatch.setattr(slrnmf.solver, "_spd_inverse", oracles.direct_spd_inverse)
    phi_b, w_b, rep_b = solve(y, phi0, w0, config)
    assert rep_a.iterations == rep_b.iterations
    for name in ("beta_w_trace", "beta_phi_trace", "effective_rank_trace",
                 "surviving_columns"):
        assert np.array_equal(getattr(rep_a, name), getattr(rep_b, name)), name
    for a, b in ((phi_a, phi_b), (w_a, w_b)):
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


def test_solve_holds_no_full_size_temporary():
    # 224 x 40,000: Y is 71.7 MB.  The solve holds K-by-r arrays (0.045 x
    # y.nbytes each) and none of size L-by-K, which alone would be 1.0: C
    # (0.045) and the candidate while the first abundance step runs, then
    # the abundances and the next candidate, whose buffer takes the blend
    # of a fractional step weight.  C, the step and its gradient exist one
    # pixel block (0.005 each) at a time, so the peak stays below three
    # K-by-r arrays.
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
    # the blend path runs: two of the three abundance searches back off
    assert report.beta_w_trace.tolist() == [1.0, 1 / 32, 1 / 32]
    assert peak < 0.4 * y.nbytes, "peak %.3f x y.nbytes" % (peak / y.nbytes)
    assert peak < 3 * w0.nbytes, "peak %.2f K-by-r arrays" % (peak / w0.nbytes)


@pytest.mark.parametrize("kind", ["converging", "max_iter=0", "stall"])
def test_solve_leaves_its_inputs_alone(kind):
    """Nothing writes into ``init_phi`` or ``init_w``, and the returned
    factors share no memory with them, also where a block never moves: at
    ``max_iter = 0``, and on a solve that stalls at its first iteration
    (restarted from the iterate before stall scene 31's stall)."""
    y, phi0, w0, config = protocol_scene("uniform", 31 if kind == "stall" else 0)
    if kind == "max_iter=0":
        config = replace(config, max_iter=0)
    if kind == "stall":
        states = []
        solve(y, phi0, w0, replace(config, max_iter=1), callback=states.append)
        phi0, w0 = states[0].phi_hat, states[0].w_hat
    given = [a.copy() for a in (phi0, w0)]
    phi, w, report = solve(y, phi0, w0, config)
    if kind == "stall":
        assert report.iterations == 1
        assert report.beta_w_trace[0] == report.beta_phi_trace[0] == 0.0
    for a, b in zip((phi0, w0), given):
        assert a.tobytes() == b.tobytes()
    for out in (phi, w):
        assert not any(np.shares_memory(out, a) for a in (phi0, w0))


def _layouts(phi0, w0):
    """The initial factors C-ordered, Fortran-ordered, as strided column
    views of wider arrays and as transposes of component-major arrays."""
    def strided(a):
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return wide[:, ::2]

    return [(np.ascontiguousarray(phi0), np.ascontiguousarray(w0)),
            (np.asfortranarray(phi0), np.asfortranarray(w0)),
            (strided(phi0), strided(w0)),
            (np.ascontiguousarray(phi0.T).T, np.ascontiguousarray(w0.T).T)]


def test_results_do_not_depend_on_the_layout_of_the_initial_factors(monkeypatch):
    """C-ordered initial factors, Fortran-ordered ones, strided column views
    of wider arrays and transposes of component-major arrays give the same
    factors, initial cost and cost trace, bitwise, in one pixel block and
    in blocks of 97 pixels: ``solve`` copies Phi^T to C order, and reads W
    through C-ordered copies of its pixel blocks until the first abundance
    step hands back its C-ordered W^T.  Also on a solve whose first
    iteration moves neither block (restarted from the iterate before stall
    scene 31's stall), where W^T is never replaced by a candidate."""
    scenes = {}
    for kind in ("converging", "stall"):
        y, phi0, w0, config = protocol_scene("uniform", 31 if kind == "stall" else 1)
        if kind == "stall":
            states = []
            solve(y, phi0, w0, replace(config, max_iter=1), callback=states.append)
            phi0, w0 = states[0].phi_hat.copy(), states[0].w_hat.copy()
        scenes[kind] = y, _layouts(phi0, w0), config
    assert not (scenes["stall"][1][2][1].flags.c_contiguous
                or scenes["stall"][1][2][1].flags.f_contiguous)
    for block in (None, 97):
        if block:
            monkeypatch.setattr(slrnmf.model, "_RESIDUAL_BLOCK_BYTES", 8 * 224 * block)
        for kind, (y, layouts, config) in scenes.items():
            phi_a, w_a, rep_a = solve(y, *layouts[0], config)
            if kind == "stall":
                assert rep_a.iterations == 1 and rep_a.beta_w_trace[0] == 0.0
            for phi_init, w_init in layouts[1:]:
                phi_b, w_b, rep_b = solve(y, phi_init, w_init, config)
                assert rep_a.initial_cost == rep_b.initial_cost, (kind, block)
                assert np.array_equal(rep_a.cost_trace, rep_b.cost_trace), (kind, block)
                assert np.array_equal(phi_a, phi_b) and np.array_equal(w_a, w_b), (kind, block)


# Bounds for a solve whose sums run over other pixel blocks.  A blocked
# sum rounds at gamma_{B r + n/B}, never looser than the one-block sum's
# gamma_{n r} (see ``SearchTerms``), so each accepted step moves the two
# solves apart by rounding of the size of its own terms.  Measured: below
# 3e-14 in cost and 1.3e-14 in factors over 300 instances of the property
# below; 2e-13 in final cost and 4e-15 in factors on protocol scene 0 at
# 97-pixel blocks; 8e-14 in cost on the record's two-block scene.  The
# bounds are the record's RTOL.
BLOCKED_COST_RTOL = 1e-12
BLOCKED_FACTOR_RTOL = 1e-12


@pytest.mark.parametrize("kind", ["uniform", "vca"])
def test_closed_form_search_matches_direct_form_in_pixel_blocks(monkeypatch, kind):
    """The closed-form search against the direct one with the pixel
    blocks shrunk to 97 pixels, so that every abundance step sums its
    search terms over six blocks: the same decisions, and factors within
    ``BLOCKED_FACTOR_RTOL``.  They are not bitwise equal: the closed form
    carries the candidate's column energies summed block by block, the
    direct search sums them over the whole block, and the penalty
    diagonals built from them differ in the last digits."""
    monkeypatch.setattr(slrnmf.model, "_RESIDUAL_BLOCK_BYTES", 8 * 224 * 97)
    assert _pixel_block(224) == 97
    y, phi0, w0, config = protocol_scene(kind, 0)
    phi_a, w_a, rep_a = solve(y, phi0, w0, config)
    monkeypatch.setattr(slrnmf.solver, "line_search", oracles.direct_line_search)
    phi_b, w_b, rep_b = solve(y, phi0, w0, config)
    assert rep_a.iterations == rep_b.iterations
    assert np.array_equal(rep_a.beta_w_trace, rep_b.beta_w_trace)
    assert np.array_equal(rep_a.beta_phi_trace, rep_b.beta_phi_trace)
    for a, b in ((phi_a, phi_b), (w_a, w_b)):
        assert np.linalg.norm(a - b) <= BLOCKED_FACTOR_RTOL * np.linalg.norm(b)
    assert rep_a.final_cost == pytest.approx(rep_b.final_cost, rel=1e-10)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(l=st.integers(1, 12), k=st.integers(1, 40), r=st.integers(1, 5),
       block=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_pixel_blocks_keep_the_decisions(l, k, r, block, seed):
    """A solve whose block steps, scan and initial cost run in pixel
    blocks of ``block`` pixels makes the decisions of the one-block solve
    (iterations, step weights, ranks, survivors, ``converged``); its costs
    agree within ``BLOCKED_COST_RTOL`` and its factors within
    ``BLOCKED_FACTOR_RTOL``, relative."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 1.0, (l, k))
    phi0, w0 = init_uniform(l, k, r, seed=seed % 1000)
    config = SolverConfig(r=r, delta=0.1, lambda1=0.005, eta=0.05, max_iter=30)
    phi_a, w_a, rep_a = solve(y, phi0, w0, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slrnmf.model, "_RESIDUAL_BLOCK_BYTES", 8 * l * block)
        phi_b, w_b, rep_b = solve(y, phi0, w0, config)
    for name in ("iterations", "converged", "final_effective_rank"):
        assert getattr(rep_a, name) == getattr(rep_b, name), name
    for name in ("beta_w_trace", "beta_phi_trace", "effective_rank_trace",
                 "surviving_columns"):
        assert np.array_equal(getattr(rep_a, name), getattr(rep_b, name)), name
    costs_a = np.append(rep_a.cost_trace, rep_a.initial_cost)
    costs_b = np.append(rep_b.cost_trace, rep_b.initial_cost)
    assert np.allclose(costs_b, costs_a, rtol=BLOCKED_COST_RTOL, atol=0.0)
    for a, b in ((phi_a, phi_b), (w_a, w_b)):
        assert np.linalg.norm(a - b) <= BLOCKED_FACTOR_RTOL * np.linalg.norm(a)
