"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (scalar loops, grid
searches, exhaustive enumeration, textbook iterations) so that test
comparisons never share vectorized shortcuts with the code under test.
"""

import itertools

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs


def naive_cost_smooth(y, phi, w, delta, eta):
    """Half squared fit plus smoothed group penalty, via explicit loops."""
    l, k = y.shape
    r = phi.shape[1]
    fit = 0.0
    for a in range(l):
        for b in range(k):
            pred = 0.0
            for i in range(r):
                pred += phi[a, i] * w[b, i]
            fit += (y[a, b] - pred) ** 2
    penalty = 0.0
    for i in range(r):
        s = eta * eta
        for a in range(l):
            s += phi[a, i] ** 2
        for b in range(k):
            s += w[b, i] ** 2
        penalty += float(np.sqrt(s))
    return 0.5 * fit + delta * penalty


def naive_cost_total(y, phi, w, delta, lambda1, eta):
    extra = 0.0
    for b in range(w.shape[0]):
        for i in range(w.shape[1]):
            extra += abs(w[b, i])
    return naive_cost_smooth(y, phi, w, delta, eta) + lambda1 * extra


def direct_total(objective, phi, w):
    """``Objective.total`` with the whole L-by-K residual formed at once.

    The form the package used before costing the residual in pixel
    blocks, with the same arithmetic, so a scene of at most one block
    costs bitwise the same; usable as a drop-in for the method.
    """
    resid = phi @ w.T
    np.subtract(objective.y, resid, out=resid)
    fit = 0.5 * float(np.vdot(resid, resid))
    energy = (phi * phi).sum(axis=0) + (w * w).sum(axis=0)
    penalty = float(np.sum(np.sqrt(energy + objective.eta * objective.eta)))
    return (fit + objective.delta * penalty
            + objective.lambda1 * float(np.abs(w).sum()))


def direct_line_search(objective, phi_hat, w_hat, candidate, cross, which,
                       config, baseline_cost):
    """The backtracking line search priced directly: one full cost per trial.

    Same schedule, accept rule (relative slack 1e-12) and blend as
    ``slrnmf.solver.line_search``, with the same signature; ``cross`` is
    not used.
    """
    prev = w_hat if which == "w" else phi_hat
    bound = baseline_cost + 1e-12 * abs(baseline_cost)
    beta = float(config.beta_init)
    for _ in range(config.max_backtracks):
        trial = candidate if beta == 1.0 else prev + beta * (candidate - prev)
        if which == "w":
            cost = objective.total(phi_hat, trial)
        else:
            cost = objective.total(trial, w_hat)
        if cost <= bound:
            return trial, beta, cost
        beta *= config.shrink
    return prev, 0.0, baseline_cost


def fd_gradient(f, x, h=1e-6):
    """Central finite differences of a scalar function, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        step = h * max(1.0, abs(x[idx]))
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return g


def solver_gradients(y, phi, w, delta, eta):
    """Gradients of the smooth objective (lambda1 = 0) in w and phi, as
    ``solve`` forms them: X P - C + X diag(d), the fit gradient that
    ``Objective.change_along`` prices line-search trials with, C the cross
    product each block step returns and d the penalty diagonal.  Not an
    oracle: this is the code that ``fd_gradient`` checks.
    """
    from slrnmf.model import Objective, _fit_gradient
    from slrnmf.solver import (update_abundances, update_endmembers,
                               update_penalty_diag)

    objective = Objective(y, delta, 0.0, eta)
    d = update_penalty_diag(phi, w, delta, eta)
    cross_w = update_abundances(objective, phi, d)[1]
    cross_phi = update_endmembers(objective, w, d)[1]
    return (_fit_gradient(w, phi.T @ phi, cross_w) + w * d,
            _fit_gradient(phi, w.T @ w, cross_phi) + phi * d)


def prox_l1_grid(z, lam, lo=-8.0, hi=8.0, step=1e-4):
    """Grid-search argmin of 0.5*(x - z)^2 + lam*|x| over [lo, hi]."""
    grid = np.arange(lo, hi + step, step)
    vals = 0.5 * (grid - z) ** 2 + lam * np.abs(grid)
    return float(grid[int(np.argmin(vals))])


def subproblem_w_value(y, phi, d, lambda1, w):
    """Abundance-block subproblem objective at w (phi, d fixed)."""
    resid = y - phi @ w.T
    return (0.5 * float((resid * resid).sum())
            + 0.5 * float((d * (w * w).sum(axis=0)).sum())
            + lambda1 * float(np.abs(w).sum()))


def subproblem_phi_value(y, w, d, phi):
    """Endmember-block subproblem objective at phi (w, d fixed)."""
    resid = y - phi @ w.T
    return (0.5 * float((resid * resid).sum())
            + 0.5 * float((d * (phi * phi).sum(axis=0)).sum()))


def cd_w_oracle(y, phi, d, lambda1, sweeps=20000, tol=1e-13):
    """Projected cyclic coordinate descent for the abundance subproblem.

    Minimizes subproblem_w_value over w >= 0 to high accuracy; each
    coordinate minimization is exact (the l1 term is linear on the
    nonnegative orthant).
    """
    h = phi.T @ phi + np.diag(np.asarray(d, dtype=np.float64))
    rhs = phi.T @ y
    r = phi.shape[1]
    w = np.zeros((r, y.shape[1]))
    for _ in range(sweeps):
        biggest = 0.0
        for j in range(r):
            t = np.maximum(w[j] + (rhs[j] - h[j] @ w - lambda1) / h[j, j], 0.0)
            biggest = max(biggest, float(np.abs(t - w[j]).max()))
            w[j] = t
        if biggest <= tol:
            break
    return w.T.copy()


def pg_phi_oracle(y, w, d, iters=300000, tol=1e-14):
    """Projected gradient (fixed 1/L step) for the endmember subproblem."""
    h = w.T @ w + np.diag(np.asarray(d, dtype=np.float64))
    step = 1.0 / float(np.linalg.eigvalsh(h).max())
    phi = np.zeros((y.shape[0], w.shape[1]))
    for _ in range(iters):
        grad = phi @ h - y @ w
        nxt = np.maximum(phi - step * grad, 0.0)
        if float(np.abs(nxt - phi).max()) <= tol:
            return nxt
        phi = nxt
    return phi


def best_assignment(cost):
    """Exhaustive minimum-cost injective assignment for small matrices.

    Returns (pairs, total) where pairs is a sorted list of (row, col).
    Only feasible for min(shape) up to about 7.
    """
    n_rows, n_cols = cost.shape
    best_total = None
    best_pairs = None
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            total = sum(cost[i, cols[i]] for i in range(n_rows))
            if best_total is None or total < best_total:
                best_total = total
                best_pairs = [(i, cols[i]) for i in range(n_rows)]
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            total = sum(cost[rows[j], j] for j in range(n_cols))
            if best_total is None or total < best_total:
                best_total = total
                best_pairs = sorted((rows[j], j) for j in range(n_cols))
    return best_pairs, float(best_total)


def mu_nmf(y, r, iters=5000, seed=0):
    """Multiplicative-update NMF baseline minimizing ||Y - A B||_F^2."""
    rng = np.random.default_rng(seed)
    l, k = y.shape
    a = rng.uniform(0.1, 1.0, size=(l, r))
    b = rng.uniform(0.1, 1.0, size=(r, k))
    eps = 1e-12
    for _ in range(iters):
        b *= (a.T @ y) / (a.T @ a @ b + eps)
        a *= (y @ b.T) / (a @ (b @ b.T) + eps)
    return a, b


def total_variation(x):
    """Mean absolute first difference down each column."""
    x = np.asarray(x, dtype=np.float64)
    return np.abs(np.diff(x, axis=0)).mean(axis=0)


def full_width_solve(y, init_phi, init_w, config):
    """The solver loop with every column kept at full width until the end.

    Same block steps, line searches and stopping rule as
    ``slrnmf.solver.solve``, but pruning only reports the rank while
    iterating, every cost is one of the width-r problem, and the factors
    are compacted to the surviving columns at termination.  This is the
    reference for dropping pruned columns during the solve; it shares the
    block steps with the package on purpose.  Returns (phi, w, report).
    """
    from slrnmf.model import Objective
    from slrnmf.solver import (SolverReport, line_search, prune_and_report_rank,
                               update_abundances, update_endmembers,
                               update_penalty_diag, with_defaults)

    config = with_defaults(config, y)
    objective = Objective(y, config.delta, config.lambda1, config.eta)
    phi = np.array(init_phi, dtype=np.float64)
    w = np.array(init_w, dtype=np.float64)
    d = update_penalty_diag(phi, w, config.delta, config.eta)
    initial_cost = cost_prev = objective.total(phi, w)
    costs, ranks, betas_w, betas_phi = [], [], [], []
    converged = False
    for _ in range(config.max_iter):
        w_cand, cross = update_abundances(objective, phi, d)
        w, beta_w, cost_w = line_search(objective, phi, w, w_cand, cross, "w",
                                        config, cost_prev)
        phi_cand, cross = update_endmembers(objective, w, d)
        phi, beta_phi, cost_k = line_search(objective, phi, w, phi_cand, cross,
                                            "phi", config, cost_w)
        d = update_penalty_diag(phi, w, config.delta, config.eta)
        costs.append(cost_k)
        ranks.append(prune_and_report_rank(phi, w, config.prune_tol)[1])
        betas_w.append(beta_w)
        betas_phi.append(beta_phi)
        if beta_w == 0.0 and beta_phi == 0.0:
            break
        if abs(cost_prev - cost_k) <= config.tol_rel_cost * max(abs(cost_prev), 1e-300):
            converged = True
            break
        cost_prev = cost_k
    surviving, rank = prune_and_report_rank(phi, w, config.prune_tol)
    report = SolverReport(
        config=config, iterations=len(costs), initial_cost=initial_cost,
        final_cost=costs[-1] if costs else initial_cost,
        cost_trace=np.array(costs), effective_rank_trace=np.array(ranks),
        beta_w_trace=np.array(betas_w), beta_phi_trace=np.array(betas_phi),
        final_effective_rank=rank, surviving_columns=surviving,
        converged=converged, rank_degenerate=rank == 0, wall_time=0.0)
    return phi[:, surviving], w[:, surviving], report


def direct_spd_solve(a, b, context):
    """Cholesky solve of a @ x = b by LAPACK ``dpotrf``/``dpotrs``.

    The package's solve before it applied the inverse of the Cholesky
    factor, with the same signature and failure message; usable as a
    drop-in for ``slrnmf.solver._spd_solve``.
    """
    factor, info = dpotrf(a, lower=0, clean=0)
    if info:
        eig = np.linalg.eigvalsh(a)
        scale = float(np.abs(eig).max())
        raise np.linalg.LinAlgError(
            "%s: normal matrix is not positive definite (smallest eigenvalue "
            "%.6e relative to the largest)"
            % (context, eig[0] / scale if scale else 0.0))
    return dpotrs(factor, b, lower=0)[0]


def scipy_init_vca(y, r, seed):
    """``slrnmf.initializers.init_vca`` with its eigenproblems solved by
    ``scipy.linalg.eigh`` on Grams formed in one product each.

    Same SNR rule, projections, sign rule (each eigenvector's
    largest-magnitude entry positive) and pixel selection as the package;
    it shares the rank and SNR helpers with it on purpose, so a comparison
    isolates the eigensolver and the pixel-blocked Gram.
    """
    from slrnmf.initializers import _check_spanned, _estimate_snr

    def eigh(a):
        evals, evecs = scipy.linalg.eigh(a, check_finite=False)
        evecs = evecs[:, ::-1].copy()
        for j in range(evecs.shape[1]):
            if evecs[np.argmax(np.abs(evecs[:, j])), j] < 0.0:
                evecs[:, j] = -evecs[:, j]
        return evals[::-1], evecs

    y = np.asarray(y, dtype=np.float64)
    l, k = y.shape
    mean = y.mean(axis=1)
    y_centered = y - mean[:, None]
    centred = y_centered @ y_centered.T
    raw = centred + k * np.outer(mean, mean)
    if r == 1:
        evals, u = eigh(raw)
        _check_spanned(evals, 1, "projected data")
        scores = u[:, 0] @ y
        return np.maximum(y[:, [int(np.argmax(np.abs(scores)))]], 0.0)
    c_evals = scipy.linalg.eigvalsh(centred, check_finite=False)[::-1]
    snr = _estimate_snr(c_evals, float(np.trace(raw)), mean, k, r)
    if snr > 15.0 + 10.0 * np.log10(r):
        evals, u = eigh(raw)
        _check_spanned(evals, r, "projected data")
        x_p = u[:, :r].T @ y
        denom = x_p.T @ x_p.mean(axis=1)
        bad = np.abs(denom) <= 1e-12 * max(float(np.abs(denom).max()), 1e-300)
        points = x_p / np.where(bad, 1.0, denom)
        points[:, bad] = 0.0
    else:
        evals, u = eigh(centred)
        _check_spanned(evals, r - 1, "projected centered data")
        x_p = u[:, :r - 1].T @ y_centered
        c = float(np.sqrt((x_p * x_p).sum(axis=0)).max())
        points = np.vstack([x_p, np.full((1, k), c)])
    rng = np.random.default_rng(seed)
    basis = np.zeros((r, r))
    basis[-1, 0] = 1.0
    indices = np.empty(r, dtype=np.int64)
    for i in range(r):
        for _ in range(100):
            f = rng.standard_normal(r)
            f = f - basis @ (np.linalg.pinv(basis) @ f)
            norm = float(np.sqrt(f @ f))
            if norm > 1e-12:
                break
        f /= norm
        indices[i] = int(np.argmax(np.abs(f @ points)))
        basis[:, i] = points[:, indices[i]]
    return np.maximum(y[:, indices], 0.0)
