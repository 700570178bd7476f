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


def gram_total_bound(objective, phi, w):
    """Largest gap allowed between ``Objective.total_gram`` and
    ``Objective.total`` at nonnegative (phi, w).

    The sum of three rounding scales: the one the docstring of
    ``total_gram`` states for its fit, gamma_{n+2} S with n = L + K + r^2
    and S = 0.5 (||Y||^2 + 2 <Y^T Phi, W> + <Phi^T Phi, W^T W>); that of
    ``total``'s residual, eps (r + 1) ||R|| (||Y|| + ||Phi W^T||); and eps
    per unit of the cost, for the penalty and L1 terms both forms share.
    The terms are formed here directly, as float64 sums.
    """
    eps = np.finfo(np.float64).eps
    y = objective.y
    n = sum(y.shape) + phi.shape[1] ** 2 + 2
    fit = phi @ w.T
    s = 0.5 * (np.sum(y * y) + 2.0 * np.sum(y * fit) + np.sum(fit * fit))
    resid = np.linalg.norm(y - fit)
    scale = (phi.shape[1] + 1) * resid * (np.linalg.norm(y) + np.linalg.norm(fit))
    return (n * eps / (1.0 - n * eps) * s + eps * scale
            + 4.0 * eps * abs(objective.total(phi, w)))


def column_energies(phi, w):
    """(||phi_i||^2, ||w_i||^2) per column, each squared and summed directly."""
    return (phi * phi).sum(axis=0), (w * w).sum(axis=0)


def penalty_diag(phi, w, delta, eta):
    """The penalty diagonal ``solve`` forms at (phi, w), from the energies
    of :func:`column_energies`."""
    from slrnmf.solver import update_penalty_diag

    e_phi, e_w = column_energies(phi, w)
    return update_penalty_diag(e_phi + e_w, delta, eta)


def direct_line_search(objective, phi_hat, w_hat, step, which, config,
                       baseline_cost, energies):
    """The backtracking line search priced directly: one full cost per trial.

    Same schedule, accept rule (relative slack 1e-12) and blend as
    ``slrnmf.solver.line_search``, with the same signature and the same
    component-major factors; of the block step (candidate, terms) only the
    candidate is used, and of the carried ``energies`` nothing: the
    accepted block's energies are formed from the block itself
    (:func:`carried_energies`).  The blend is a new array; the candidate
    is not written.
    """
    candidate = step[0]
    prev = w_hat if which == "w" else phi_hat
    bound = baseline_cost + 1e-12 * abs(baseline_cost)
    beta = float(config.beta_init)
    for _ in range(config.max_backtracks):
        trial = candidate if beta == 1.0 else prev + beta * (candidate - prev)
        if which == "w":
            cost = objective.total(phi_hat.T, trial.T)
        else:
            cost = objective.total(trial.T, w_hat.T)
        if cost <= bound:
            return trial, beta, cost, carried_energies(trial.T)
        beta *= config.shrink
    return prev, 0.0, baseline_cost, carried_energies(prev.T)


# --- The block steps on pixel-major factors ---------------------------------
# ``solve`` and its steps hold the factors component-major: Phi^T r-by-L and
# W^T r-by-K, C-ordered.  The functions down to ``pixel_major_terms`` are the
# tests' one translation of that layout: they take and return pixel-major
# (n, r) factors, candidates and products C with Y (Y^T Phi, or Y W), and
# check the steps' layout contract on every call.


def component_major(a):
    """A pixel-major (n, r) array as the C-ordered (r, n) one the steps
    take: no copy when ``a`` is already the transpose of one."""
    return np.ascontiguousarray(np.transpose(a), dtype=np.float64)


def carried_energies(f):
    """||f_i||^2 per column of a pixel-major factor, bitwise as ``solve``
    carries them: ``einsum`` along the rows of its component-major form."""
    t = component_major(f)
    return np.einsum("ij,ij->i", t, t)


def gram(f):
    """F^T F of a pixel-major factor, bitwise the P a block step forms."""
    t = component_major(f)
    return t @ t.T


def abundance_step(objective, phi, w, d, cross=None):
    """``update_abundances`` at pixel-major (phi, w): (candidate, terms).
    A given C is handed over as ``solve`` hands the scan's, with W^T a view
    of the caller's W; the step consumes it, leaving W^T in it, C-ordered."""
    from slrnmf.solver import update_abundances

    phi_t = component_major(phi)
    if cross is None:
        candidate, terms = update_abundances(objective, phi_t, component_major(w), d, None)
    else:
        held = component_major(cross)
        candidate, terms = update_abundances(objective, phi_t, np.transpose(w), d, held)
        assert held.flags.c_contiguous and np.array_equal(held, component_major(w))
    assert candidate.flags.c_contiguous
    return candidate.T, terms


def endmember_step(objective, phi, w, d):
    """``update_endmembers`` at pixel-major (phi, w): (candidate, terms)."""
    from slrnmf.solver import update_endmembers

    candidate, terms = update_endmembers(objective, component_major(phi),
                                         component_major(w), d)
    assert candidate.flags.c_contiguous
    return candidate.T, terms


def step_to(x, candidate, gram, cross, shift, block=None):
    """The step (candidate, terms) from pixel-major ``x``: ``SearchTerms``
    summed over blocks of ``block`` rows (default: one block), and the
    candidate as a view of the array the line search will take."""
    from slrnmf.model import SearchTerms

    terms = SearchTerms(gram, shift)
    x, candidate, cross = (component_major(a) for a in (x, candidate, cross))
    cols = block or max(x.shape[1], 1)
    for j in range(0, x.shape[1], cols):
        terms.add(x[:, j:j + cols], candidate[:, j:j + cols], cross[:, j:j + cols])
    return candidate.T, terms


def search(objective, phi, w, step, which, config, baseline_cost, energies):
    """``line_search`` at pixel-major (phi, w) and a step made here:
    (accepted, beta, cost, energy).  Where the search returns an array it
    was handed, or the blend it forms in the candidate's buffer,
    ``accepted`` is the caller's own array, so ``is`` reads as on the
    search."""
    from slrnmf.solver import line_search

    candidate, terms = step
    phi_t, w_t, cand_t = (component_major(a) for a in (phi, w, candidate))
    assert np.shares_memory(cand_t, candidate), "not a step made here"
    accepted, beta, cost, energy = line_search(
        objective, phi_t, w_t, (cand_t, terms), which, config, baseline_cost,
        energies)
    given = {id(phi_t): phi, id(w_t): w, id(cand_t): candidate}
    return given.get(id(accepted), accepted.T), beta, cost, energy


def cost_change(objective, terms, x, candidate, x_energy, fixed_energy):
    """``Objective.change_along`` at pixel-major ``x`` and ``candidate``."""
    return objective.change_along(terms, component_major(x), component_major(candidate),
                                  x_energy, fixed_energy)


def pixel_major_candidate(inverse, shift, cross):
    """One block of rows of a Newton step held pixel-major, as the package
    formed it before it held the factors component-major: the candidate's
    rows max(C_b M - shift, 0), C_b = ``cross`` (B-by-r)."""
    z = np.matmul(cross, inverse)
    z -= shift
    np.maximum(z, 0.0, out=z)
    return z


def pixel_major_terms(gram, x, candidate, cross):
    """The search terms of one block of rows of a step held pixel-major,
    (slope, step_sum, step_gram, xs, zz) in the arithmetic the package used
    before it held the factors component-major: <X P - C, S>, sum(S),
    S^T S and column dots, S = ``candidate`` - ``x``, all B-by-r."""
    step = candidate - x
    return (float(np.vdot(x @ gram - cross, step)), float(step.sum()),
            step.T @ step, np.einsum("ij,ij->j", x, step),
            np.einsum("ij,ij->j", candidate, candidate))


def mix_and_noise_whole(truth, clamp=True):
    """``slrnmf.synth.mix_and_noise`` with the noise drawn as one L-by-K
    array and added out of place, as the package did before it added
    the noise one band row at a time."""
    product = truth.phi_true @ truth.w_true.T
    if truth.sigma == 0.0:
        return product
    rng = np.random.default_rng(truth.seed)
    y = product + rng.normal(0.0, truth.sigma, size=product.shape)
    if clamp:
        np.maximum(y, 0.0, out=y)
    return y


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
    ``solve`` forms them: P X^T - C^T + diag(d) X^T, the fit gradient
    whose slope along a step ``SearchTerms`` sums, P the Gram each block
    step carries in its terms, C^T = Phi^T Y or W^T Y^T in the
    orientation the steps form it, and d the penalty diagonal; returned
    transposed, as (K, r) and (L, r).  Not an oracle: this is the code
    that ``fd_gradient`` checks.
    """
    from slrnmf.model import Objective, _cross_block, _fit_gradient

    objective = Objective(y, delta, 0.0, eta)
    d = penalty_diag(phi, w, delta, eta)
    phi_t, w_t = component_major(phi), component_major(w)
    gram_w = abundance_step(objective, phi, w, d)[1].gram
    gram_phi = endmember_step(objective, phi, w, d)[1].gram
    return ((_fit_gradient(w_t, gram_w, _cross_block(phi_t, y)) + d[:, None] * w_t).T,
            (_fit_gradient(phi_t, gram_phi, w_t @ y.T) + d[:, None] * phi_t).T)


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
    block steps with the package on purpose, and holds the factors
    component-major as they do.  Returns (phi, w, report).
    """
    from slrnmf.model import Objective
    from slrnmf.solver import (SolverReport, line_search,
                               prune_and_report_rank, update_abundances,
                               update_endmembers, update_penalty_diag,
                               with_defaults)

    config = with_defaults(config, y)
    objective = Objective(y, config.delta, config.lambda1, config.eta)
    phi = np.array(np.transpose(init_phi), dtype=np.float64, order="C")
    w = np.array(np.transpose(init_w), dtype=np.float64, order="C")
    e_phi, e_w = carried_energies(phi.T), carried_energies(w.T)
    d = update_penalty_diag(e_phi + e_w, config.delta, config.eta)
    initial_cost = cost_prev = objective.total(phi.T, w.T)
    costs, ranks, betas_w, betas_phi = [], [], [], []
    converged = False
    for _ in range(config.max_iter):
        w, beta_w, cost_w, e_w = line_search(
            objective, phi, w, update_abundances(objective, phi, w, d, None),
            "w", config, cost_prev, (e_phi, e_w))
        phi, beta_phi, cost_k, e_phi = line_search(
            objective, phi, w, update_endmembers(objective, phi, w, d), "phi",
            config, cost_w, (e_phi, e_w))
        d = update_penalty_diag(e_phi + e_w, config.delta, config.eta)
        costs.append(cost_k)
        ranks.append(prune_and_report_rank(e_phi + e_w, config.prune_tol).size)
        betas_w.append(beta_w)
        betas_phi.append(beta_phi)
        if beta_w == 0.0 and beta_phi == 0.0:
            break
        if abs(cost_prev - cost_k) <= config.tol_rel_cost * max(abs(cost_prev), 1e-300):
            converged = True
            break
        cost_prev = cost_k
    surviving = prune_and_report_rank(e_phi + e_w, config.prune_tol)
    report = SolverReport(
        config=config, iterations=len(costs), initial_cost=initial_cost,
        final_cost=costs[-1] if costs else initial_cost,
        cost_trace=np.array(costs), effective_rank_trace=np.array(ranks),
        beta_w_trace=np.array(betas_w), beta_phi_trace=np.array(betas_phi),
        final_effective_rank=surviving.size, surviving_columns=surviving,
        converged=converged, rank_degenerate=surviving.size == 0,
        wall_time=0.0)
    return phi[surviving].T, w[surviving].T, report


def direct_spd_solve(a, b, context):
    """Cholesky solve of a @ x = b by LAPACK ``dpotrf``/``dpotrs``.

    The package's solve before it applied the inverse of the Cholesky
    factor, with its failure message: the reference the block solve
    through ``slrnmf.solver._spd_inverse`` is gated against.
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


def direct_spd_inverse(a, context):
    """The inverse of the SPD matrix ``a`` by LAPACK's Cholesky solve of
    a X = I, with the failure message of :func:`direct_spd_solve`; usable
    as a drop-in for ``slrnmf.solver._spd_inverse``.
    """
    return direct_spd_solve(a, np.eye(a.shape[0]), context)


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
