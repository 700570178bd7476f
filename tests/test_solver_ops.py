"""Unit checks for the solver's building blocks."""

import numpy as np
import pytest

import oracles
from slrnmf.model import Objective
from slrnmf.solver import (
    _spd_solve,
    SolverConfig,
    default_eta,
    extrapolate,
    line_search,
    prune_and_report_rank,
    update_abundances,
    update_endmembers,
    update_penalty_diag,
    with_defaults,
    DEFAULT_DELTA,
    DEFAULT_LAMBDA1,
)


def test_update_penalty_diag_matches_loops():
    rng = np.random.default_rng(5)
    phi = rng.uniform(0, 1, size=(6, 4))
    w = rng.uniform(0, 1, size=(9, 4))
    delta, eta = 0.8, 0.05
    d = update_penalty_diag(phi, w, delta, eta)
    for i in range(4):
        nsq = sum(v * v for v in phi[:, i]) + sum(v * v for v in w[:, i])
        assert d[i] == pytest.approx(delta / np.sqrt(nsq + eta * eta), rel=1e-14)


def test_update_penalty_diag_bounds_and_zero_columns():
    rng = np.random.default_rng(6)
    phi = rng.uniform(0, 1, size=(5, 3))
    w = rng.uniform(0, 1, size=(7, 3))
    phi[:, 1] = 0.0
    w[:, 1] = 0.0
    delta, eta = 2.0, 0.25
    d = update_penalty_diag(phi, w, delta, eta)
    assert (d > 0.0).all()
    assert (d <= delta / np.sqrt(eta * eta)).all()
    assert d[1] == delta / eta


def test_update_abundances_solves_the_newton_system():
    rng = np.random.default_rng(7)
    y = rng.uniform(0, 1, size=(8, 11))
    phi = rng.uniform(0, 1, size=(8, 3))
    d = rng.uniform(0.1, 1.0, size=3)
    lam = 0.02
    out, _ = update_abundances(Objective(y, 1.0, lam, 1.0), phi, d)
    target = np.linalg.solve(phi.T @ phi + np.diag(d), phi.T @ y).T
    expected = np.maximum(np.sign(target) * np.maximum(np.abs(target) - lam, 0.0), 0.0)
    assert np.allclose(out, expected, rtol=1e-10, atol=1e-12)
    assert (out >= 0.0).all()


def test_update_abundances_zero_l1_is_projected_ridge():
    rng = np.random.default_rng(8)
    y = rng.uniform(0, 1, size=(6, 9))
    phi = rng.uniform(0, 1, size=(6, 2))
    d = np.array([0.3, 0.7])
    out, _ = update_abundances(Objective(y, 1.0, 0.0, 1.0), phi, d)
    target = np.linalg.solve(phi.T @ phi + np.diag(d), phi.T @ y).T
    assert np.allclose(out, np.maximum(target, 0.0), rtol=1e-10)


def test_update_abundances_reports_bad_pivot():
    y = np.ones((4, 5))
    phi = np.ones((4, 2))  # duplicate columns, singular normal matrix
    with pytest.raises(np.linalg.LinAlgError) as err:
        update_abundances(Objective(y, 1.0, 0.0, 1.0), phi, np.zeros(2))
    assert "abundance update" in str(err.value)
    assert "smallest eigenvalue" in str(err.value)


def test_update_endmembers_solves_the_newton_system():
    rng = np.random.default_rng(9)
    y = rng.uniform(0, 1, size=(7, 10))
    w = rng.uniform(0, 1, size=(10, 3))
    d = rng.uniform(0.05, 0.5, size=3)
    out, _ = update_endmembers(Objective(y, 1.0, 0.0, 1.0), w, d)
    target = np.linalg.solve(w.T @ w + np.diag(d), w.T @ y.T).T
    assert np.allclose(out, np.maximum(target, 0.0), rtol=1e-10, atol=1e-12)


def test_extrapolate_blends():
    prev = np.zeros((2, 2))
    cand = np.full((2, 2), 4.0)
    assert extrapolate(prev, cand, 1.0) is cand
    assert np.allclose(extrapolate(prev, cand, 0.25), 1.0)


def _search_setup(seed=12):
    rng = np.random.default_rng(seed)
    y = rng.uniform(0, 1, size=(6, 8))
    phi = rng.uniform(0, 1, size=(6, 3))
    w = rng.uniform(0, 1, size=(8, 3))
    obj = Objective(y, 0.2, 0.01, 0.1)
    config = SolverConfig(r=3, delta=0.2, lambda1=0.01, eta=0.1)
    return y, phi, w, obj, config


def test_line_search_accepts_improving_candidate_at_full_step():
    y, phi, w, obj, config = _search_setup()
    d = update_penalty_diag(phi, w, 0.2, 0.1)
    cand, cross = update_abundances(obj, phi, d)
    accepted, beta, cost = line_search(obj, phi, w, cand, cross, "w", config,
                                       obj.total(phi, w))
    assert beta == 1.0
    assert np.array_equal(accepted, cand)
    assert cost == pytest.approx(obj.total(phi, cand), rel=1e-14)
    assert cost <= obj.total(phi, w)


def test_line_search_backs_off_or_stalls_on_bad_candidate():
    y, phi, w, obj, config = _search_setup()
    baseline = obj.total(phi, w)
    bad = w + 100.0  # big uphill move
    accepted, beta, cost = line_search(obj, phi, w, bad, y.T @ phi, "w", config,
                                       baseline)
    assert cost <= baseline * (1 + 1e-12)
    if beta == 0.0:
        assert accepted is w
        assert cost == baseline
    else:
        assert beta < 1.0


def test_line_search_beta_zero_on_hopeless_candidate():
    y, phi, w, obj, config = _search_setup()
    # So large that every shrunken blend is still uphill.
    bad = w + 1e9
    accepted, beta, cost = line_search(obj, phi, w, bad, y.T @ phi, "w", config,
                                       obj.total(phi, w))
    assert beta == 0.0
    assert accepted is w
    assert cost == obj.total(phi, w)


def test_line_search_searches_the_named_block():
    y, phi, w, obj, config = _search_setup()
    d = update_penalty_diag(phi, w, 0.2, 0.1)
    cand, cross = update_endmembers(obj, w, d)
    accepted, beta, cost = line_search(obj, phi, w, cand, cross, "phi", config,
                                       obj.total(phi, w))
    assert accepted.shape == phi.shape
    assert cost <= obj.total(phi, w)


def test_prune_keeps_columns_above_relative_cutoff():
    phi = np.zeros((4, 3))
    w = np.zeros((5, 3))
    phi[:, 0] = 1.0          # energy 2.0
    w[:, 1] = 1e-6           # tiny joint energy
    phi[0, 2] = 0.5          # moderate
    surviving, count = prune_and_report_rank(phi, w, 1e-4)
    assert count == 2
    assert list(surviving) == [0, 2]


def test_prune_all_zero_reports_rank_zero():
    surviving, count = prune_and_report_rank(np.zeros((3, 2)), np.zeros((4, 2)), 1e-4)
    assert count == 0
    assert surviving.size == 0


def test_default_eta_scales_with_column_norms():
    y = np.full((4, 3), 2.0)  # every column norm is 4
    assert default_eta(y) == pytest.approx(0.04, rel=1e-12)
    assert default_eta(np.zeros((3, 3))) == 1e-12


def test_with_defaults_fills_only_missing_entries():
    y = np.full((4, 3), 2.0)
    config = SolverConfig(r=2)
    resolved = with_defaults(config, y)
    assert resolved.delta == DEFAULT_DELTA
    assert resolved.lambda1 == DEFAULT_LAMBDA1
    assert resolved.eta == pytest.approx(0.04, rel=1e-12)
    assert resolved.is_resolved
    pinned = SolverConfig(r=2, delta=1.0, lambda1=0.5, eta=0.2)
    assert with_defaults(pinned, y) is pinned
    partial = with_defaults(SolverConfig(r=2, delta=3.0), y)
    assert partial.delta == 3.0
    assert partial.lambda1 == DEFAULT_LAMBDA1


def test_config_validation():
    with pytest.raises(ValueError, match="r must be"):
        SolverConfig(r=0)
    with pytest.raises(ValueError, match="delta"):
        SolverConfig(r=2, delta=-1.0)
    with pytest.raises(ValueError, match="eta"):
        SolverConfig(r=2, eta=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(r=2, max_iter=-1)
    with pytest.raises(ValueError, match="beta_init"):
        SolverConfig(r=2, beta_init=0.0)
    with pytest.raises(ValueError, match="shrink"):
        SolverConfig(r=2, shrink=1.0)
    with pytest.raises(ValueError, match="max_backtracks"):
        SolverConfig(r=2, max_backtracks=0)
    for name in ("r", "max_iter", "max_backtracks"):
        for bad in (3.5, float("inf"), float("nan"), "3", None):
            with pytest.raises(ValueError, match=name + " must be an integer"):
                SolverConfig(**{"r": 2, name: bad})
    for name in ("delta", "lambda1", "eta"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=name + " must be finite"):
                SolverConfig(**{"r": 2, name: bad})
    with pytest.raises(ValueError, match="tol_rel_cost"):
        SolverConfig(r=2, tol_rel_cost=float("nan"))
    config = SolverConfig(r=2.0, max_iter=3.0, max_backtracks=4.0)
    assert (config.r, config.max_iter, config.max_backtracks) == (2, 3, 4)
    assert all(type(v) is int for v in (config.r, config.max_iter,
                                          config.max_backtracks))
    for tol in (-1e-4, 1.0, 2.5):
        with pytest.raises(ValueError, match=r"prune_tol must be in \[0, 1\)"):
            SolverConfig(r=2, prune_tol=tol)
    assert SolverConfig(r=2, prune_tol=0.0).prune_tol == 0.0
    assert SolverConfig(r=2, prune_tol=0.999).prune_tol == 0.999


def random_spd(rng, r, kappa):
    """Symmetric r-by-r matrix with a random eigenbasis and 2-norm
    condition number ``kappa``, at a random scale."""
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    eig = np.geomspace(1.0, 1.0 / kappa, r) * 10.0 ** rng.uniform(-3, 3)
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("orientation", ["abundance", "endmember"])
def test_spd_solve_matches_cholesky_solve(orientation):
    """The inverse-factor solve agrees with LAPACK's Cholesky solve to
    4 r u kappa ||x|| per column (see the ``_spd_solve`` docstring), up to
    kappa = 1e10; the block steps of the VCA acceptance scenes reach 2e8.

    The abundance step passes a C-ordered r-by-K right-hand side, the
    endmember step the F-ordered transpose of an L-by-r product.  Half of
    the columns are a @ z, which load the large-eigenvalue directions.
    """
    rng = np.random.default_rng(0 if orientation == "abundance" else 1)
    eps = np.finfo(np.float64).eps
    worst = 0.0
    for r in range(1, 13):
        for kappa in (1.0, 1e2, 1e4, 1e6, 1e8, 1e10):
            for _ in range(5):
                a = random_spd(rng, r, kappa)
                if orientation == "abundance":
                    b = rng.standard_normal((r, 60))
                else:
                    b = rng.standard_normal((60, r)).T
                b[:, ::2] = a @ b[:, ::2]
                x = _spd_solve(a, b, "test")
                ref = oracles.direct_spd_solve(a, b, "test")
                assert x.shape == b.shape
                # same layout as dpotrs: the block steps' transposes are C-ordered
                assert x.T.flags.c_contiguous
                err = np.linalg.norm(x - ref, axis=0)
                scale = r * eps * np.linalg.cond(a) * np.linalg.norm(ref, axis=0)
                worst = max(worst, float((err / scale).max()))
    assert worst <= 4.0, worst


def test_spd_solve_failure_names_smallest_pivot():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    b = np.ones((2, 3))
    with pytest.raises(np.linalg.LinAlgError) as ours:
        _spd_solve(a, b, "abundance update")
    with pytest.raises(np.linalg.LinAlgError) as ref:
        oracles.direct_spd_solve(a, b, "abundance update")
    assert str(ours.value) == str(ref.value)
    # eigenvalues -1 and 3
    assert str(ours.value) == ("abundance update: normal matrix is not positive "
                               "definite (smallest eigenvalue -3.333333e-01 "
                               "relative to the largest)")
