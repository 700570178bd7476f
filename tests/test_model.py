"""Cost and gradient arithmetic against naive loop-based references."""

import tracemalloc

import numpy as np
import pytest

import oracles
from slrnmf.model import (
    Objective,
    _pixel_block,
    as_matrix,
    as_weight,
    check_dims,
    check_nonneg,
    cost_total,
    joint_column_norms,
)
from slrnmf.initializers import init_uniform
from slrnmf.solver import (
    SolverConfig,
    default_eta,
    extrapolate,
    solve,
    update_abundances,
    update_endmembers,
    update_penalty_diag,
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


def test_check_nonneg_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        check_nonneg(np.array([[1.0, -0.5]]), "thing")
    check_nonneg(np.zeros((2, 2)), "thing")


def test_check_dims_messages():
    y = np.zeros((4, 5))
    with pytest.raises(ValueError, match="expected L=4"):
        check_dims(y, np.zeros((3, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError, match="expected K=5"):
        check_dims(y, np.zeros((4, 2)), np.zeros((6, 2)))
    with pytest.raises(ValueError, match="number of columns"):
        check_dims(y, np.zeros((4, 2)), np.zeros((5, 3)))


def test_joint_column_norms_matches_loops():
    _, phi, w = random_instance(0)
    norms = joint_column_norms(phi, w)
    for i in range(phi.shape[1]):
        expected = np.sqrt(sum(v * v for v in phi[:, i])
                           + sum(v * v for v in w[:, i]))
        assert norms[i] == pytest.approx(expected, rel=1e-14)


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


@pytest.mark.parametrize("k", [500, 900, 5000])
def test_default_eta_matches_squared_form(k):
    y, _ = simulate(l=224, k=k, n=4, density=0.3, sigma=1e-3, seed=k)
    scale = float(np.sqrt((y * y).sum(axis=0)).mean())
    assert default_eta(y) == max(1e-2 * scale, 1e-12)


def _worst_change_error(obj, phi, w, d, collapse=False):
    """Largest |f(beta) - (total(trial) - total(base))| over both blocks and
    the backtracking schedule, in units of the bound the precision argument
    of ``Objective.change_along`` gives: eps times the two totals' rounding
    scales plus n times the magnitude of f's own terms, n the inner
    dimension of the products they come from."""
    worst = 0.0
    energy = (phi * phi).sum(axis=0) + (w * w).sum(axis=0) + obj.eta ** 2
    base = obj.total(phi, w)
    base_scale = _total_rounding_scale(obj, phi, w)
    for which in ("w", "phi"):
        x, fixed = (w, phi) if which == "w" else (phi, w)
        if which == "w":
            cand, cross = update_abundances(obj, phi, d)
        else:
            cand, cross = update_endmembers(obj, w, d)
        if collapse:
            cand = cand.copy()
            cand[:, 0] = 0.0
        change = obj.change_along(phi, w, cand, which, cross)
        step = np.abs(cand - x)
        gram = fixed.T @ fixed
        a = np.abs(2.0 * (x * (cand - x)).sum(axis=0))
        b = (step * step).sum(axis=0)
        for k in range(20):
            beta = 0.5 ** k
            trial = extrapolate(x, cand, beta)
            pair = (phi, trial) if which == "w" else (trial, w)
            direct = obj.total(*pair) - base
            terms = (beta * np.vdot(x @ gram + np.abs(cross), step)
                     + beta * beta * np.vdot(step @ gram, step)
                     + obj.lambda1 * beta * step.sum()
                     + obj.delta * ((beta * a + beta * beta * b)
                                    / np.sqrt(energy)).sum())
            bound = EPS * (base_scale + _total_rounding_scale(obj, *pair)
                           + sum(fixed.shape) * terms)
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
        d = update_penalty_diag(phi, w, obj.delta, obj.eta)
        worst = max(worst, _worst_change_error(obj, phi, w, d, collapse=t % 2 == 0))
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
