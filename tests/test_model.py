"""Cost and gradient arithmetic against naive loop-based references."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import slrnmf.model
from slrnmf.model import (
    Objective,
    _column_dots,
    _pixel_block,
    _scan_observations,
    as_matrix,
    as_weight,
    check_dims,
    cost_total,
)
from slrnmf.initializers import init_uniform, init_vca, nnls_abundances
from slrnmf.solver import (
    SolverConfig,
    solve,
    with_defaults,
)
from slrnmf.synth import simulate

EPS = np.finfo(np.float64).eps


def random_instance(seed, l=7, k=9, r=3, negative=False):
    rng = np.random.default_rng(seed)
    lo = -1.0 if negative else 0.0
    y = rng.uniform(0.0, 1.0, size=(l, k))
    phi = rng.uniform(lo, 1.0, size=(l, r))
    w = rng.uniform(lo, 1.0, size=(k, r))
    return y, phi, w


def test_as_matrix_coerces_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix(np.zeros(3), "thing")


def test_as_matrix_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.array([[1.0, bad], [2.0, 3.0]]), "thing")


def test_as_matrix_allocates_no_mask():
    # An already-float64 input is checked in place: a boolean mask of its
    # finite entries alone would be 12.5% of its bytes.
    m = np.random.default_rng(0).uniform(size=(1000, 1000))
    tracemalloc.start()
    try:
        assert as_matrix(m) is m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * m.nbytes, "peak %.4f x m.nbytes" % (peak / m.nbytes)


def test_as_weight_rule():
    assert as_weight(0, "delta") == 0.0 and as_weight(0.0, "lambda1") == 0.0
    assert as_weight(1, "eta") == 1.0
    for name, bad in [("delta", -1.0), ("lambda1", -1e-9), ("eta", 0.0),
                      ("eta", -1.0), ("delta", "3"), ("eta", None)]:
        with pytest.raises(ValueError, match=name + " must be finite"):
            as_weight(bad, name)
    for name in ("delta", "lambda1", "eta"):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=name + " must be finite"):
                as_weight(bad, name)


def test_as_matrix_rejects_negative_where_asked():
    with pytest.raises(ValueError, match=r"thing has negative entries \(min -0.5\)"):
        as_matrix(np.array([[1.0, -0.5]]), "thing", nonneg=True)
    as_matrix(np.zeros((2, 2)), "thing", nonneg=True)
    as_matrix(np.array([[1.0, -0.5]]), "thing")
    # A non-finite entry is named first, whatever the sign of the others.
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="thing contains non-finite entries"):
            as_matrix(np.array([[-1.0, bad]]), "thing", nonneg=True)


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 2.0]]) + 0j,
    np.zeros(3),
    np.array([[1.0, -0.5, 2.0, 0.5, 3.0, -2.0, 1.0]]),
    np.array([[-1.0, 0.5, 2.0, 0.5, np.nan, 1.0, 1.0]]),
    np.array([[1.0, 0.5, 2.0, 0.5, 3.0, 1.0, np.inf]]),
    np.array([[1.0, 0.5, -np.inf, 0.5, 3.0, 1.0, -1.0]]),
], ids=["complex", "1-D", "negative", "nan", "inf", "-inf"])
def test_scan_keeps_the_rules_of_as_matrix(monkeypatch, bad):
    """The scan of y rejects what ``as_matrix(y, "y", nonneg=True)``
    rejects, with its message, across blocks of 3 pixels: the smallest
    entry of all blocks is named, and a non-finite entry in one block
    before a negative one in another."""
    monkeypatch.setattr(slrnmf.model, "_RESIDUAL_BLOCK_BYTES", 8 * 3)
    with pytest.raises(ValueError) as expected:
        as_matrix(bad, "y", nonneg=True)
    with pytest.raises(ValueError, match="^%s$" % re.escape(str(expected.value))):
        _scan_observations(bad, np.ones((2, 1)))


def test_scan_passes_a_finite_y_whose_squares_overflow():
    """Near 1e160 the squared norms overflow to inf: the scan then takes
    y's maximum, which is finite, and passes y as ``as_matrix`` does."""
    y = np.full((2, 3), 1e160)
    with np.errstate(over="ignore"):
        checked, norms, y_squared, _ = _scan_observations(y, np.ones((1, 2)))
    assert checked is as_matrix(y, "y", nonneg=True)
    assert np.isinf(norms).all() and y_squared == np.inf


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_scan_norms_are_column_dots(monkeypatch, layout):
    """The scan returns ``y`` as ``as_matrix`` does, its pixel norms
    bitwise as ``_column_dots(y, y)`` and their sum, for each memory
    layout, in blocks of 3 pixels; at 1, 4 and 7 pixels the last block is
    one pixel wide.  Its C^T = Phi^T Y, from the component-major Phi^T,
    is C-ordered, and on one block bitwise Phi^T Y."""
    monkeypatch.setattr(slrnmf.model, "_RESIDUAL_BLOCK_BYTES", 8 * 5 * 3)
    rng = np.random.default_rng(4)
    phi = rng.uniform(0.0, 1.0, (2, 5))
    for k in (0, 1, 2, 3, 4, 6, 7, 8, 11):
        y = rng.uniform(0.0, 1.0, (5, 2 * k))
        y = {"C": y[:, :k].copy(), "F": np.asfortranarray(y[:, :k]),
             "strided": y[:, ::2]}[layout]
        checked, norms, y_squared, cross = _scan_observations(y, phi)
        assert checked is as_matrix(y)
        assert np.array_equal(norms, _column_dots(y, y)), k
        assert y_squared == float(norms.sum())
        assert cross.flags.c_contiguous
        assert np.allclose(cross, phi @ y, rtol=1e-14, atol=0.0), k
        if k <= 3:
            assert np.array_equal(cross, phi @ y), k
    empty, norms, y_squared, cross = _scan_observations(np.zeros((0, 4)), phi[:, :0])
    assert empty.shape == (0, 4) and np.array_equal(norms, np.zeros(4))
    assert y_squared == 0.0 and np.array_equal(cross, np.zeros((2, 4)))


def test_check_dims_messages():
    y = np.zeros((4, 5))
    with pytest.raises(ValueError, match="phi has 3 rows, expected L=4"):
        check_dims(y, np.zeros((3, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError, match="w has 6 rows, expected K=5"):
        check_dims(y, np.zeros((4, 2)), np.zeros((6, 2)))
    with pytest.raises(ValueError, match="phi and w disagree on the number of "
                                         "columns: 2 vs 3"):
        check_dims(y, np.zeros((4, 2)), np.zeros((5, 3)))
    # Without y the rows go unchecked; without w only phi's rows are.
    check_dims(None, np.zeros((3, 2)), np.zeros((6, 2)))
    with pytest.raises(ValueError, match="a and b disagree on the number of "
                                         "columns: 2 vs 3"):
        check_dims(None, np.zeros((3, 2)), np.zeros((6, 3)), ("a", "b"))
    check_dims(y, np.zeros((4, 7)), None)
    with pytest.raises(ValueError, match="a has 3 rows, expected L=4"):
        check_dims(y, np.zeros((3, 2)), None, ("a", "b"))


@pytest.mark.parametrize("seed", range(5))
def test_cost_smooth_matches_naive(seed):
    y, phi, w = random_instance(seed)
    delta, eta = 0.37, 0.09
    ours = cost_total(y, phi, w, delta, 0.0, eta)
    ref = oracles.naive_cost_smooth(y, phi, w, delta, eta)
    assert ours == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_cost_total_matches_naive(seed):
    y, phi, w = random_instance(seed)
    delta, lambda1, eta = 0.5, 0.03, 0.2
    ours = cost_total(y, phi, w, delta, lambda1, eta)
    ref = oracles.naive_cost_total(y, phi, w, delta, lambda1, eta)
    assert ours == pytest.approx(ref, rel=1e-12)


def test_cost_total_counts_l1_of_w_only():
    y, phi, w = random_instance(3)
    base = cost_total(y, phi, w, 0.0, 0.0, 0.1)
    with_l1 = cost_total(y, phi, w, 0.0, 0.25, 0.1)
    assert with_l1 == pytest.approx(base + 0.25 * np.abs(w).sum(), rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_grad_w_matches_finite_differences(seed):
    y, phi, w = random_instance(seed, l=5, k=6, r=2)
    delta, eta = 0.4, 0.15
    g = oracles.solver_gradients(y, phi, w, delta, eta)[0]
    fd = oracles.fd_gradient(lambda v: cost_total(y, phi, v, delta, 0.0, eta), w)
    assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_grad_phi_matches_finite_differences(seed):
    y, phi, w = random_instance(seed, l=5, k=6, r=2)
    delta, eta = 0.4, 0.15
    g = oracles.solver_gradients(y, phi, w, delta, eta)[1]
    fd = oracles.fd_gradient(lambda v: cost_total(y, v, w, delta, 0.0, eta), phi)
    assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


def test_objective_matches_free_functions():
    y, phi, w = random_instance(2)
    obj = Objective(y, 0.6, 0.02, 0.1)
    assert obj.total(phi, w) == pytest.approx(
        cost_total(y, phi, w, 0.6, 0.02, 0.1), rel=1e-14)


def test_objective_total_allocates_one_residual():
    # One block at 224 x 500: the residual is formed in place, one L-by-K
    # temporary, not two.
    rng = np.random.default_rng(0)
    y = rng.uniform(0.0, 1.0, size=(224, 500))
    phi = rng.uniform(0.0, 1.0, size=(224, 10))
    w = rng.uniform(0.0, 1.0, size=(500, 10))
    tracemalloc.start()
    try:
        Objective(y, 0.5, 0.01, 0.1).total(phi, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * y.nbytes, "peak %.2f x y.nbytes" % (peak / y.nbytes)


def test_objective_validates_weights():
    y, _, _ = random_instance(0)
    with pytest.raises(ValueError, match="delta"):
        Objective(y, -1.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="lambda1"):
        Objective(y, 0.0, -0.1, 0.1)
    with pytest.raises(ValueError, match="eta"):
        Objective(y, 0.0, 0.0, 0.0)


def test_objective_constructor_makes_no_scan_of_y(monkeypatch):
    """The one constructor coerces ``y`` (a list works; complex and 1-D
    input raise) and trusts its entries: it never judges their extremes,
    a full pass over y.  ``cost_total`` and ``solve`` validate first."""
    judged = []
    monkeypatch.setattr(slrnmf.model, "_check_extremes",
                        lambda *args: judged.append(args))
    y, _, _ = random_instance(0)
    assert Objective(y, 0.5, 0.01, 0.1).y is y
    listed = Objective([[1, -2], [3, 4]], 0.5, 0.01, 0.1).y
    assert listed.dtype == np.float64 and listed.shape == (2, 2)
    for bad, rule in ((y + 0j, "real"), (y[0], "2-D")):
        with pytest.raises(ValueError, match=rule):
            Objective(bad, 0.5, 0.01, 0.1)
    assert judged == []


def _total_rounding_scale(obj, phi, w):
    """Absolute rounding scale of ``obj.total(phi, w)``.

    Each residual entry carries an error of about (r + 1) eps (|Y| +
    Phi W^T), so the fit rounds at (r + 1) eps ||R|| (||Y|| + ||Phi W^T||);
    the sums round at eps |total|.
    """
    fit = phi @ w.T
    return (abs(obj.total(phi, w)) + (phi.shape[1] + 1)
            * np.linalg.norm(obj.y - fit)
            * (np.linalg.norm(obj.y) + np.linalg.norm(fit)))


def _factor_instance(l, k, r=10, seed=0, sigma=None):
    """Uniform factors and Y; with ``sigma``, Y = Phi W^T plus noise at that
    level, so that the residual is small against Y."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 1.0, (l, r))
    w = rng.uniform(0.0, 1.0, (k, r))
    if sigma is None:
        return rng.uniform(0.0, 1.0, (l, k)), phi, w
    y = phi @ w.T + rng.normal(0.0, sigma, (l, k))
    return y, phi, w


@pytest.mark.parametrize("sigma", [None, 1e-3])
def test_blocked_total_matches_direct_form(sigma):
    block = _pixel_block(224)
    assert block == 4681
    for k in (1, 500, 900, block):
        y, phi, w = _factor_instance(224, k, sigma=sigma)
        obj = Objective(y, 0.5, 0.01, 0.1)
        assert obj.total(phi, w) == oracles.direct_total(obj, phi, w), k
    # a ragged last block: three blocks of 4681, 4681 and 17 pixels
    y, phi, w = _factor_instance(224, 2 * block + 17, sigma=sigma)
    obj = Objective(y, 0.5, 0.01, 0.1)
    gap = abs(obj.total(phi, w) - oracles.direct_total(obj, phi, w))
    assert gap <= EPS * _total_rounding_scale(obj, phi, w), gap


@pytest.mark.parametrize("shape", [(0, 6), (6, 0), (0, 0)])
def test_blocked_total_of_empty_scenes(shape):
    l, k = shape
    y, phi, w = np.zeros((l, k)), np.ones((l, 3)), np.full((k, 3), 0.5)
    obj = Objective(y, 0.5, 0.01, 0.1)
    assert obj.total(phi, w) == oracles.direct_total(obj, phi, w)


def _initial_cost_gaps(y, phi0, w0, config):
    """The initial cost of a solve, in units of ``oracles.gram_total_bound``,
    against ``Objective.total`` and the direct total at the initial factors."""
    config = with_defaults(config, y)
    _, _, report = solve(y, phi0, w0, replace(config, max_iter=0))
    obj = Objective(y, config.delta, config.lambda1, config.eta)
    bound = oracles.gram_total_bound(obj, phi0, w0)
    return (abs(report.initial_cost - obj.total(phi0, w0)) / bound,
            abs(report.initial_cost - oracles.direct_total(obj, phi0, w0)) / bound)


def _near_fit():
    """VCA and NNLS on a noiseless scene: the fit is a sliver of ||Y||^2."""
    y, _ = simulate(l=224, k=900, n=3, density=0.5, sigma=0.0, seed=0)
    phi0 = init_vca(y, 3, seed=0)
    return y, phi0, nnls_abundances(y, phi0), SolverConfig(r=3)


def _uniform_scene(l, k, r):
    y, _ = simulate(l=l, k=k, n=min(4, r), density=0.3, sigma=1e-3, seed=1)
    phi0, w0 = init_uniform(l, k, r, seed=1)
    return y, phi0, w0, SolverConfig(r=r)


@pytest.mark.parametrize("scene", [
    lambda: _uniform_scene(224, 500, 10),
    _near_fit,
    lambda: _uniform_scene(224, 2 * 4681 + 17, 10),
    lambda: _uniform_scene(224, 500, 1),
    lambda: _uniform_scene(224, 1, 4),
], ids=["uniform", "near-fit", "multi-block", "one-column", "one-pixel"])
def test_initial_cost_matches_direct_form(scene):
    y, phi0, w0, config = scene()
    assert max(_initial_cost_gaps(y, phi0, w0, config)) <= 1.0


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(l=st.integers(1, 12), k=st.integers(1, 12), r=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1),
       scales=st.tuples(*[st.integers(-3, 3)] * 3),
       zero=st.integers(-1, 4),
       weights=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 1.0),
                         st.floats(1e-3, 1.0)))
def test_initial_cost_matches_direct_form_on_random_instances(
        l, k, r, seed, scales, zero, weights):
    """Random shapes, scales over six decades and a zero column pair
    (dropped before the cost is priced) where ``zero`` names one."""
    rng = np.random.default_rng(seed)
    y, phi0, w0 = (10.0 ** s * rng.uniform(0.0, 1.0, shape)
                   for s, shape in zip(scales, ((l, k), (l, r), (k, r))))
    if zero < r:
        phi0[:, zero] = w0[:, zero] = 0.0
    delta, lambda1, eta = weights
    config = SolverConfig(r=r, delta=delta, lambda1=lambda1, eta=eta)
    assert max(_initial_cost_gaps(y, phi0, w0, config)) <= 1.0


def test_gram_total_reads_an_overflow_as_inf():
    """Near 1e160 every fit term overflows and the expanded fit is
    inf - inf; the cost is inf, as the direct form has it."""
    y, phi, w = (1e160 * m for m in random_instance(5))
    obj = Objective(y, 0.5, 0.01, 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        cost = obj.total_gram(phi.T, w.T, phi.T @ y, oracles.column_energies(phi, w),
                              float(np.sum(_column_dots(y, y))))
        assert np.isinf(obj.total(phi, w))
    assert cost == np.inf


def test_objective_total_holds_one_residual_block():
    # 224 x 40,000: about 8.5 blocks of 8 MiB, 0.117 of y.nbytes each; the
    # whole-residual form peaks at 1.0 x y.nbytes.
    y, phi, w = _factor_instance(224, 40_000)
    obj = Objective(y, 0.5, 0.01, 0.1)
    tracemalloc.start()
    try:
        obj.total(phi, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.15 * y.nbytes, "peak %.3f x y.nbytes" % (peak / y.nbytes)


@pytest.mark.parametrize("k", [500, 900, 5000, 4681 + 1, 2 * 4681 + 1])
def test_default_eta_matches_squared_form(k):
    """The default eta of ``with_defaults`` against the squared form, and
    the eta that ``solve`` resolves from its scan's norms against it,
    bitwise; at 4,681 + 1 and 2 x 4,681 + 1 pixels the scan's last block
    is one pixel wide."""
    y, _ = simulate(l=224, k=k, n=4, density=0.3, sigma=1e-3, seed=k)
    scale = float(np.sqrt((y * y).sum(axis=0)).mean())
    eta = with_defaults(SolverConfig(r=1), y).eta
    assert eta == max(1e-2 * scale, 1e-12)
    phi0, w0 = init_uniform(224, k, 2, seed=0)
    _, _, report = solve(y, phi0, w0, SolverConfig(r=2, max_iter=0))
    assert report.config.eta == eta


def _worst_change_error(obj, phi, w, d, collapse=False, block=None):
    """Largest |f(beta) - (total(trial) - total(base))| over both blocks and
    the backtracking schedule, in units of the bound the precision argument
    of ``Objective.change_along`` gives: eps times the two totals' rounding
    scales plus n times the magnitude of f's own terms, n the inner
    dimension of the products they come from.

    f is priced from the search terms of the step from each block to its
    Newton candidate (column 0 zeroed where ``collapse``), summed in blocks
    of ``block`` pixels or bands (all at once by default).  ``phi`` and
    ``w`` are (L, r) and (K, r), and so is everything here.
    """
    worst = 0.0
    energy = (phi * phi).sum(axis=0) + (w * w).sum(axis=0) + obj.eta ** 2
    e_phi, e_w = oracles.column_energies(phi, w)
    base = obj.total(phi, w)
    base_scale = _total_rounding_scale(obj, phi, w)
    for which in ("w", "phi"):
        if which == "w":
            x, fixed, x_energy, fixed_energy = w, phi, e_w, e_phi
            cand = oracles.abundance_step(obj, phi, w, d)[0]
            cross, shift = obj.y.T @ phi, obj.lambda1
        else:
            x, fixed, x_energy, fixed_energy = phi, w, e_phi, e_w
            cand = oracles.endmember_step(obj, phi, w, d)[0]
            cross, shift = obj.y @ w, 0.0
        if collapse:
            cand[:, 0] = 0.0
        cand, terms = oracles.step_to(x, cand, oracles.gram(fixed), cross, shift,
                                      block)
        assert np.allclose(terms.zz, (cand * cand).sum(axis=0), rtol=1e-14, atol=0.0)
        if block is None:
            assert np.array_equal(terms.zz, oracles.carried_energies(cand))
        change = oracles.cost_change(obj, terms, x, cand, x_energy, fixed_energy)
        step = np.abs(cand - x)
        a = np.abs(2.0 * (x * (cand - x)).sum(axis=0))
        b = (step * step).sum(axis=0)
        for k in range(20):
            beta = 0.5 ** k
            trial = cand if beta == 1.0 else x + beta * (cand - x)
            pair = (phi, trial) if which == "w" else (trial, w)
            direct = obj.total(*pair) - base
            terms_scale = (beta * np.vdot(x @ terms.gram + np.abs(cross), step)
                           + beta * beta * np.vdot(step @ terms.gram, step)
                           + obj.lambda1 * beta * step.sum()
                           + obj.delta * ((beta * a + beta * beta * b)
                                          / np.sqrt(energy)).sum())
            bound = EPS * (base_scale + _total_rounding_scale(obj, *pair)
                           + sum(fixed.shape) * terms_scale)
            worst = max(worst, abs(change(beta) - direct) / bound)
    return worst


def test_change_along_matches_direct_difference():
    worst = 0.0
    for t in range(50):
        rng = np.random.default_rng(3000 + t)
        l, k, r = (int(rng.integers(5, 30)), int(rng.integers(6, 50)),
                   int(rng.integers(2, 7)))
        y = rng.uniform(0, 1, (l, k))
        phi = rng.uniform(0, 1, (l, r))
        w = rng.uniform(0, 1, (k, r))
        obj = Objective(y, rng.uniform(0.01, 1.0), rng.uniform(0.0, 0.05),
                        rng.uniform(0.01, 0.3))
        d = oracles.penalty_diag(phi, w, obj.delta, obj.eta)
        worst = max(worst, _worst_change_error(obj, phi, w, d, collapse=t % 2 == 0,
                                               block=(None, 1, 4)[t % 3]))
    assert worst <= 1.0, worst


def test_change_along_matches_direct_difference_at_protocol_scale():
    # sigma = 1e-3: the fit is ~1e-4 of the cost; the last iterate is
    # near-stationary, where f is tiny and the direct difference is noise.
    y, _ = simulate(l=224, k=500, n=4, density=0.3, sigma=1e-3, seed=0)
    phi0, w0 = init_uniform(224, 500, 10, seed=0)
    states = []
    _, _, report = solve(y, phi0, w0, SolverConfig(r=10, seed=0),
                         callback=states.append)
    c = report.config
    obj = Objective(y, c.delta, c.lambda1, c.eta)
    for s in (states[0], states[len(states) // 2], states[-1]):
        assert _worst_change_error(obj, s.phi_hat, s.w_hat, s.d_hat) <= 1.0, s.k
