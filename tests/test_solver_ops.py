"""Unit checks for the solver's building blocks."""

import tracemalloc

import numpy as np
import pytest

import oracles
import slrnmf.solver
from slrnmf.model import Objective, SearchTerms, _column_dots, _pixel_block
from slrnmf.solver import (
    _spd_inverse,
    SolverConfig,
    prune_and_report_rank,
    update_abundances,
    update_endmembers,
    update_penalty_diag,
    with_defaults,
    DEFAULT_DELTA,
    DEFAULT_LAMBDA1,
)


def test_update_penalty_diag_matches_loops():
    # From the column dots ``solve`` forms; on one column they take
    # numpy's dot path, which sums in another order.
    rng = np.random.default_rng(5)
    delta, eta = 0.8, 0.05
    for l, k, r in ((6, 9, 4), (224, 500, 1)):
        phi = rng.uniform(0, 1, size=(l, r))
        w = rng.uniform(0, 1, size=(k, r))
        energy = _column_dots(phi, phi) + _column_dots(w, w)
        d = update_penalty_diag(energy, delta, eta)
        for i in range(r):
            nsq = sum(v * v for v in phi[:, i]) + sum(v * v for v in w[:, i])
            assert d[i] == pytest.approx(delta / np.sqrt(nsq + eta * eta), rel=1e-14)


def test_update_penalty_diag_bounds_and_zero_columns():
    rng = np.random.default_rng(6)
    phi = rng.uniform(0, 1, size=(5, 3))
    w = rng.uniform(0, 1, size=(7, 3))
    phi[:, 1] = 0.0
    w[:, 1] = 0.0
    delta, eta = 2.0, 0.25
    d = update_penalty_diag(_column_dots(phi, phi) + _column_dots(w, w), delta, eta)
    assert (d > 0.0).all()
    assert (d <= delta / np.sqrt(eta * eta)).all()
    assert d[1] == delta / eta


def assert_terms_of(terms, x, cand, gram, cross, shift):
    """``terms`` are the search terms of the step from ``x`` to ``cand``,
    each within 1e-13 relative of its direct form
    (``oracles.pixel_major_terms``); all of it pixel-major (n, r)."""
    assert terms.gram is gram or np.array_equal(terms.gram, gram)
    assert terms.shift == shift
    for got, want in zip((terms.slope, terms.step_sum, terms.step_gram, terms.xs,
                          terms.zz), oracles.pixel_major_terms(gram, x, cand, cross)):
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_update_abundances_solves_the_newton_system():
    """The step forms the columns of C = Y^T Phi from Y, or takes them
    from the C it is given, with the same candidate; its search terms
    are those of the step from w to the candidate.  A given C is
    consumed: ``oracles.abundance_step`` checks that it comes back
    holding W^T in C order, and that each candidate is C-ordered."""
    rng = np.random.default_rng(7)
    y = rng.uniform(0, 1, size=(8, 11))
    phi = rng.uniform(0, 1, size=(8, 3))
    w = rng.uniform(0, 1, size=(11, 3))
    d = rng.uniform(0.1, 1.0, size=3)
    lam = 0.02
    obj = Objective(y, 1.0, lam, 1.0)
    out, terms = oracles.abundance_step(obj, phi, w, d)
    given, given_terms = oracles.abundance_step(obj, phi, w, d, (phi.T @ y).T)
    assert np.array_equal(terms.gram, oracles.gram(phi))
    assert np.array_equal(out, given)
    target = np.linalg.solve(phi.T @ phi + np.diag(d), phi.T @ y).T
    expected = np.maximum(np.sign(target) * np.maximum(np.abs(target) - lam, 0.0), 0.0)
    assert np.allclose(out, expected, rtol=1e-10, atol=1e-12)
    assert (out >= 0.0).all()
    for t in (terms, given_terms):
        assert_terms_of(t, w, out, oracles.gram(phi), y.T @ phi, lam)


def test_update_abundances_zero_l1_is_projected_ridge():
    rng = np.random.default_rng(8)
    y = rng.uniform(0, 1, size=(6, 9))
    phi = rng.uniform(0, 1, size=(6, 2))
    d = np.array([0.3, 0.7])
    out = oracles.abundance_step(Objective(y, 1.0, 0.0, 1.0), phi,
                                 np.zeros((9, 2)), d)[0]
    target = np.linalg.solve(phi.T @ phi + np.diag(d), phi.T @ y).T
    assert np.allclose(out, np.maximum(target, 0.0), rtol=1e-10)


def test_update_abundances_reports_bad_pivot():
    y = np.ones((4, 5))
    phi = np.ones((4, 2))  # duplicate columns, singular normal matrix
    with pytest.raises(np.linalg.LinAlgError) as err:
        oracles.abundance_step(Objective(y, 1.0, 0.0, 1.0), phi, np.zeros((5, 2)),
                               np.zeros(2))
    assert "abundance update" in str(err.value)
    assert "smallest eigenvalue" in str(err.value)


def test_update_endmembers_solves_the_newton_system():
    rng = np.random.default_rng(9)
    y = rng.uniform(0, 1, size=(7, 10))
    phi = rng.uniform(0, 1, size=(7, 3))
    w = rng.uniform(0, 1, size=(10, 3))
    d = rng.uniform(0.05, 0.5, size=3)
    out, terms = oracles.endmember_step(Objective(y, 1.0, 0.0, 1.0), phi, w, d)
    assert np.array_equal(terms.gram, oracles.gram(w))
    target = np.linalg.solve(w.T @ w + np.diag(d), w.T @ y.T).T
    assert np.allclose(out, np.maximum(target, 0.0), rtol=1e-10, atol=1e-12)
    assert_terms_of(terms, phi, out, oracles.gram(w), y @ w, 0.0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_endmember_step_forms_y_w_within_its_bound(monkeypatch, order):
    """The C^T = W^T Y^T that the endmember step hands ``_candidate_rows``,
    summed over pixel blocks, is within gamma_K sum_j |y_aj| |w_ji| of
    (Y W)^T, at widths 1-10, on one block (K up to 4,681 at L = 224) and
    past it, for C- and F-ordered Y.  The reference is Y W in long double,
    whose own gamma_K is added to the bound."""
    seen = []
    inner = slrnmf.solver._candidate_rows

    def spy(inverse, terms, cross, x, out):
        seen.append(cross.copy())
        return inner(inverse, terms, cross, x, out)

    monkeypatch.setattr(slrnmf.solver, "_candidate_rows", spy)
    rng = np.random.default_rng(24)
    block = _pixel_block(224)
    for k in (1, 500, block, block + 1, 2 * block + 1):
        y = np.asarray(rng.uniform(0.0, 1.0, (224, k)), order=order)
        w = rng.uniform(0.0, 1.0, (10, k))
        exact = (w.astype(np.longdouble) @ y.T.astype(np.longdouble))
        scale = w @ y.T  # sum_j |y_aj| |w_ji|: every entry is nonnegative
        bound = sum(k * eps / (1.0 - k * eps) for eps in
                    (np.finfo(np.float64).eps, np.finfo(np.longdouble).eps))
        obj = Objective(y, 1.0, 0.0, 1.0)
        for r in range(1, 11):
            phi = rng.uniform(0.0, 1.0, (r, 224))
            update_endmembers(obj, phi, w[:r], np.full(r, 0.5))
            cross = seen.pop()
            assert cross.shape == (r, 224)
            gap = np.abs(cross - exact[:r]).astype(np.float64)
            assert (gap <= bound * scale[:r]).all(), (k, r, order)


def test_endmember_step_allocates_no_k_by_r_temporary():
    # 224 x 40,000, r = 10: W is 3.2 MB.  The step sums r-by-L partials
    # straight from the pixel blocks' columns of W^T (measured peak: 0.023
    # x w.nbytes); a K-by-r temporary alone would be 1.0, and one pixel
    # block's r-by-B copy of W's rows 0.12 (0.130 measured with it).
    rng = np.random.default_rng(3)
    y = rng.uniform(0.0, 1.0, (224, 40_000))
    phi = rng.uniform(0.0, 1.0, (10, 224))
    w = rng.uniform(0.0, 1.0, (10, 40_000))
    obj = Objective(y, 1.0, 0.0, 1.0)
    tracemalloc.start()
    try:
        update_endmembers(obj, phi, w, np.full(10, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * w.nbytes, peak / w.nbytes


def _gamma(n):
    eps = np.finfo(np.float64).eps
    return n * eps / (1.0 - n * eps)


def test_component_major_step_matches_the_pixel_major_oracle(monkeypatch):
    """Each block of both block steps, held component-major, against the
    pixel-major arithmetic it replaced (``oracles.pixel_major_candidate``
    and ``oracles.pixel_major_terms``), on the same M, C and X: at widths
    1-10 and K = 1, 500, 4,681 and 4,682 pixels (two blocks at L = 224).

    The candidate agrees entrywise within 2 gamma_{r+1} (sum_k |c_k| |m_k|
    + shift): each side sums the same r products in its own order and
    subtracts the shift.  Each search term, priced on the same candidate,
    agrees within 2 gamma_{n r + r + 2} of its own magnitude: the sum of
    the absolute values of what it adds.
    """
    seen = []
    inner = slrnmf.solver._candidate_rows

    def spy(inverse, terms, cross, x, out):
        block = SearchTerms(terms.gram, terms.shift)
        inner(inverse, block, cross, x, out)
        seen.append((inverse, block, cross.copy(), x.copy(), out.copy()))

    monkeypatch.setattr(slrnmf.solver, "_candidate_rows", spy)
    rng = np.random.default_rng(25)
    for k in (1, 500, 4681, 4682):
        y = rng.uniform(0.0, 1.0, (224, k))
        obj = Objective(y, 1.0, 0.01, 1.0)
        for r in range(1, 11):
            phi = rng.uniform(0.0, 1.0, (r, 224))
            w = rng.uniform(0.0, 0.2, (r, k))
            d = rng.uniform(0.1, 1.0, r)
            update_abundances(obj, phi, w, d, None)
            update_endmembers(obj, phi, w, d)
            assert len(seen) == (1 if k <= 4681 else 2) + 1
            for inverse, terms, cross, x, z in seen:
                n = x.shape[1]
                want = oracles.pixel_major_candidate(inverse, terms.shift, cross.T)
                scale = np.abs(cross.T) @ np.abs(inverse) + terms.shift
                assert (np.abs(z.T - want) <= 2 * _gamma(r + 1) * scale).all(), (k, r)
                slope, step_sum, step_gram, xs, zz = oracles.pixel_major_terms(
                    terms.gram, x.T, z.T, cross.T)
                s = np.abs(z - x)
                g = np.abs(terms.gram) @ np.abs(x) + np.abs(cross)
                bound = 2 * _gamma(n * r + r + 2)
                for got, want, size in (
                        (terms.slope, slope, np.sum(g * s)),
                        (terms.step_sum, step_sum, s.sum()),
                        (terms.step_gram, step_gram, s @ s.T),
                        (terms.xs, xs, (np.abs(x) * s).sum(axis=1)),
                        (terms.zz, zz, (z * z).sum(axis=1))):
                    assert (np.abs(got - want) <= bound * size).all(), (k, r)
            seen.clear()


def _search_setup(seed=12):
    """(y, phi, w, obj, config), pixel-major."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(0, 1, size=(6, 8))
    phi = rng.uniform(0, 1, size=(6, 3))
    w = rng.uniform(0, 1, size=(8, 3))
    obj = Objective(y, 0.2, 0.01, 0.1)
    config = SolverConfig(r=3, delta=0.2, lambda1=0.01, eta=0.1)
    return y, phi, w, obj, config


def _energies(phi, w):
    return oracles.carried_energies(phi), oracles.carried_energies(w)


def test_line_search_accepts_improving_candidate_at_full_step():
    y, phi, w, obj, config = _search_setup()
    d = oracles.penalty_diag(phi, w, 0.2, 0.1)
    step = oracles.abundance_step(obj, phi, w, d)
    cand = step[0]
    accepted, beta, cost, energy = oracles.search(
        obj, phi, w, step, "w", config, obj.total(phi, w), _energies(phi, w))
    assert beta == 1.0
    assert accepted is cand
    assert np.array_equal(energy, oracles.carried_energies(cand))
    assert cost == pytest.approx(obj.total(phi, cand), rel=1e-14)
    assert cost <= obj.total(phi, w)


def test_line_search_backs_off_or_stalls_on_bad_candidate():
    y, phi, w, obj, config = _search_setup()
    baseline = obj.total(phi, w)
    bad = w + 100.0  # big uphill move
    accepted, beta, cost, energy = oracles.search(
        obj, phi, w, oracles.step_to(w, bad, oracles.gram(phi), y.T @ phi, 0.01),
        "w", config, baseline, _energies(phi, w))
    assert cost <= baseline * (1 + 1e-12)
    if beta == 0.0:
        assert accepted is w
        assert cost == baseline
    else:
        assert beta < 1.0
        assert np.array_equal(accepted, w + beta * (bad - w))
    assert np.array_equal(energy, oracles.carried_energies(accepted))


def test_line_search_beta_zero_on_hopeless_candidate():
    y, phi, w, obj, config = _search_setup()
    # So large that every shrunken blend is still uphill.
    bad = w + 1e9
    energies = _energies(phi, w)
    accepted, beta, cost, energy = oracles.search(
        obj, phi, w, oracles.step_to(w, bad, oracles.gram(phi), y.T @ phi, 0.01),
        "w", config, obj.total(phi, w), energies)
    assert beta == 0.0
    assert accepted is w
    assert cost == obj.total(phi, w)
    assert energy is energies[1]


def test_line_search_searches_the_named_block():
    y, phi, w, obj, config = _search_setup()
    d = oracles.penalty_diag(phi, w, 0.2, 0.1)
    accepted, beta, cost, energy = oracles.search(
        obj, phi, w, oracles.endmember_step(obj, phi, w, d), "phi", config,
        obj.total(phi, w), _energies(phi, w))
    assert accepted.shape == phi.shape
    assert cost <= obj.total(phi, w)
    assert np.array_equal(energy, oracles.carried_energies(accepted))


def test_line_search_blends_at_a_backed_off_weight():
    """Below beta = 1 the accepted block is prev + beta (cand - prev),
    bitwise, formed in the candidate's buffer, with the cost of that
    blend.  The Newton step taken five times over is uphill at full
    weight; it is clipped at zero, because the search prices nonnegative
    candidates only."""
    y, phi, w, obj, config = _search_setup()
    d = oracles.penalty_diag(phi, w, 0.2, 0.1)
    cand = oracles.abundance_step(obj, phi, w, d)[0]
    overshoot = np.maximum(w + 5.0 * (cand - w), 0.0)
    step = oracles.step_to(w, overshoot, oracles.gram(phi), y.T @ phi, 0.01)
    accepted, beta, cost, energy = oracles.search(
        obj, phi, w, step, "w", config, obj.total(phi, w), _energies(phi, w))
    assert 0.0 < beta < 1.0
    assert accepted is step[0]
    assert np.array_equal(accepted, w + beta * (overshoot - w))
    assert np.array_equal(energy, oracles.carried_energies(accepted))
    assert cost == pytest.approx(obj.total(phi, accepted), rel=1e-13)


def test_prune_keeps_columns_above_relative_cutoff():
    phi = np.zeros((4, 3))
    w = np.zeros((5, 3))
    phi[:, 0] = 1.0          # energy 2.0
    w[:, 1] = 1e-6           # tiny joint energy
    phi[0, 2] = 0.5          # moderate
    e_phi, e_w = oracles.column_energies(phi, w)
    assert list(prune_and_report_rank(e_phi + e_w, 1e-4)) == [0, 2]


def test_prune_all_zero_reports_rank_zero():
    assert prune_and_report_rank(np.zeros(2), 1e-4).size == 0


def test_default_eta_scales_with_column_norms():
    y = np.full((4, 3), 2.0)  # every column norm is 4
    assert with_defaults(SolverConfig(r=1), y).eta == pytest.approx(0.04, rel=1e-12)
    assert with_defaults(SolverConfig(r=1), np.zeros((3, 3))).eta == 1e-12


def test_with_defaults_fills_only_missing_entries():
    y = np.full((4, 3), 2.0)
    config = SolverConfig(r=2)
    resolved = with_defaults(config, y)
    assert resolved.delta == DEFAULT_DELTA
    assert resolved.lambda1 == DEFAULT_LAMBDA1
    assert resolved.eta == pytest.approx(0.04, rel=1e-12)
    pinned = SolverConfig(r=2, delta=1.0, lambda1=0.5, eta=0.2)
    assert with_defaults(pinned, y) is pinned
    partial = with_defaults(SolverConfig(r=2, delta=3.0), y)
    assert partial.delta == 3.0
    assert partial.lambda1 == DEFAULT_LAMBDA1
    assert with_defaults(SolverConfig(r=2, eta=0.5), y).eta == 0.5


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
    # Non-numbers are ValueErrors, as out-of-range numbers are; only eta
    # may be None.
    for name, rule in (("tol_rel_cost", r"\[0, inf\]"), ("prune_tol", r"\[0, 1\)"),
                       ("beta_init", r"\(0, 1\]"), ("shrink", r"\(0, 1\)")):
        for bad in ("x", "0.5", None, float("nan")):
            with pytest.raises(ValueError, match="%s must be in %s, got " % (name, rule)):
                SolverConfig(**{"r": 2, name: bad})
    for name in ("delta", "lambda1"):
        for bad in ("x", None):
            with pytest.raises(ValueError, match=name + " must be finite"):
                SolverConfig(**{"r": 2, name: bad})
    assert SolverConfig(r=2, eta=None).eta is None
    assert SolverConfig(r=2, tol_rel_cost=float("inf")).tol_rel_cost == float("inf")


def random_spd(rng, r, kappa):
    """Symmetric r-by-r matrix with a random eigenbasis and 2-norm
    condition number ``kappa``, at a random scale."""
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    eig = np.geomspace(1.0, 1.0 / kappa, r) * 10.0 ** rng.uniform(-3, 3)
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("orientation", ["abundance", "endmember"])
def test_spd_solve_matches_cholesky_solve(orientation):
    """The block solve C M, M the inverse of the normal matrix through the
    inverse Cholesky factor, agrees with LAPACK's Cholesky solve to
    4 r u kappa ||x|| per column (see the ``_spd_inverse`` docstring), up
    to kappa = 1e10; the block steps of the VCA acceptance scenes reach
    2e8.

    The abundance step's C is the transpose of a C-ordered r-by-K
    product, the endmember step's a C-ordered L-by-r product; either way
    the solution comes back C-ordered.  Half of the columns of b = C^T
    are a @ z, which load the large-eigenvalue directions.
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
                x = b.T @ _spd_inverse(a, "test")
                ref = oracles.direct_spd_solve(a, b, "test").T
                assert x.shape == b.T.shape
                assert x.flags.c_contiguous
                err = np.linalg.norm(x - ref, axis=1)
                scale = r * eps * np.linalg.cond(a) * np.linalg.norm(ref, axis=1)
                worst = max(worst, float((err / scale).max()))
    assert worst <= 4.0, worst


def test_spd_solve_failure_names_smallest_pivot():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError) as ours:
        _spd_inverse(a, "abundance update")
    with pytest.raises(np.linalg.LinAlgError) as ref:
        oracles.direct_spd_inverse(a, "abundance update")
    assert str(ours.value) == str(ref.value)
    # eigenvalues -1 and 3
    assert str(ours.value) == ("abundance update: normal matrix is not positive "
                               "definite (smallest eigenvalue -3.333333e-01 "
                               "relative to the largest)")
