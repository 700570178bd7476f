"""Alternating proximal Newton solver with reweighting and rank pruning.

One outer iteration does:

1. abundance block: ridge-regularized Newton target, soft-threshold,
   project onto the nonnegative orthant,
2. backtracked extrapolation toward that target until the total cost
   stops increasing,
3. endmember block: same Newton-target construction without the
   soft-threshold, and the same backtracking,
4. pruning: column pairs that are exactly zero are dropped, and those
   whose joint energy exceeds a relative tolerance are counted,
5. refresh of the penalty diagonal from the working columns.

The backtracking never forms a residual: each block step hands its
product of Y with the fixed block to the line search, which prices every
trial from r-sized Gram terms (:meth:`Objective.change_along`).  The
full cost is evaluated once per solve, at the initial iterate; every
reported cost after it is the previous one plus the accepted changes.

A solve stops when the relative cost change falls to ``tol_rel_cost``
(``converged``), when an iteration moves neither block (stalled: both
line searches rejected every trial, so the next iteration would repeat
it bit for bit; not converged) or after ``max_iter`` iterations.

The block steps, line search, reweighting and pruning are internals of
:func:`solve`: they take its validated float64 state and check nothing
themselves.  Input from outside is checked where it enters, in
:func:`solve`, :class:`SolverConfig` and :func:`with_defaults`, by the
input rules of :mod:`slrnmf.model`.

The survivor count is the estimated number of endmembers: the column
pairs whose joint energy exceeds ``prune_tol`` times the largest, counted
after every iteration and on the initial iterate; the returned factors
hold these columns alone.  A column pair that is exactly zero adds exactly
delta * eta to the objective and nothing to any gradient, and every block
step maps it to zero again, so it is dropped while iterating and the block
steps and line searches work on the other columns alone.  A pair below
``prune_tol`` that is not yet zero keeps iterating: zeroing it early would
move the iterate.  Reported costs are those of the width-r factorization:
the working cost plus delta * eta per dropped column.

Memory: besides Y, a solve holds O((L + K) r) floats, about six K-by-r
arrays, and the one residual block of :meth:`Objective.total` (at most
8 MiB).  It allocates no L-by-K temporary.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Objective,
    _column_dots,
    _column_energy,
    as_integer,
    as_matrix,
    as_weight,
    check_nonneg,
    joint_column_norms,
)

__all__ = [
    "SolverConfig",
    "SolverState",
    "SolverReport",
    "SolverDiverged",
    "solve",
    "with_defaults",
    "default_eta",
    "DEFAULT_DELTA",
    "DEFAULT_LAMBDA1",
]

# Minimum smoothing constant when the data-driven default degenerates
# (all-zero input).
_ETA_FLOOR = 1e-12

# Default penalty weights, calibrated on reflectance-scale observations
# (entries roughly in [0, 1]).  Data-dependent statistics (max or mean of
# |Phi0^T Y|) were tried and rejected: across random draws of the same
# protocol they vary several-fold while the workable penalty window does
# not move with them, so a proportional default leaves the window on
# some draws.  For differently scaled data, set delta and lambda1
# explicitly.
DEFAULT_DELTA = 12.0
DEFAULT_LAMBDA1 = 0.012

# Relative slack in the line-search accept rule, to avoid stalling on
# floating-point plateaus.
_ACCEPT_SLACK = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for :func:`solve`.

    ``delta``, ``lambda1`` and ``eta`` may be left as ``None`` to request
    the data-driven defaults (see :func:`with_defaults`); the resolved
    values are echoed in the returned report.
    """

    r: int
    delta: float | None = None
    lambda1: float | None = None
    eta: float | None = None
    max_iter: int = 500
    tol_rel_cost: float = 1e-6
    prune_tol: float = 1e-4
    beta_init: float = 1.0
    shrink: float = 0.5
    max_backtracks: int = 20
    seed: int = 0

    def __post_init__(self):
        # Counts are stored as ints; weights are only checked, so reports
        # echo them as given.
        for name, low in (("r", 1), ("max_iter", 0), ("max_backtracks", 1)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, low))
        for name in ("delta", "lambda1", "eta"):
            if getattr(self, name) is not None:
                as_weight(getattr(self, name), name)
        if not self.tol_rel_cost >= 0.0:
            raise ValueError("tol_rel_cost must be >= 0, got %g" % self.tol_rel_cost)
        if not 0.0 <= self.prune_tol < 1.0:
            raise ValueError("prune_tol must be in [0, 1), got %g" % self.prune_tol)
        if not 0.0 < self.beta_init <= 1.0:
            raise ValueError("beta_init must be in (0, 1], got %g" % self.beta_init)
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must be in (0, 1), got %g" % self.shrink)

    @property
    def is_resolved(self):
        return None not in (self.delta, self.lambda1, self.eta)


@dataclass(frozen=True)
class SolverState:
    """Per-iteration snapshot handed to the ``solve`` callback.

    ``phi_hat`` / ``w_hat`` are the accepted (extrapolated) iterates,
    ``d_hat`` the penalty diagonal consistent with them, ``beta_w`` /
    ``beta_phi`` the step weights accepted by the line searches (0.0
    means the block did not move), ``k`` the 1-based iteration counter
    and ``last_cost`` the total cost at (phi_hat, w_hat).  The arrays have
    all r columns; dropped ones are exactly zero, with ``d_hat`` = delta
    / eta there.
    """

    phi_hat: np.ndarray
    w_hat: np.ndarray
    d_hat: np.ndarray
    beta_w: float
    beta_phi: float
    k: int
    last_cost: float


@dataclass
class SolverReport:
    """Outcome of a solve: resolved config plus per-iteration traces."""

    config: SolverConfig
    iterations: int
    initial_cost: float
    final_cost: float
    cost_trace: np.ndarray
    effective_rank_trace: np.ndarray
    beta_w_trace: np.ndarray
    beta_phi_trace: np.ndarray
    final_effective_rank: int
    surviving_columns: np.ndarray
    converged: bool
    rank_degenerate: bool
    wall_time: float


class SolverDiverged(ArithmeticError):
    """Raised when the iteration breaks down numerically; carries the partial report.

    Raised for a non-finite cost, at the initial iterate or later, and for a
    block step whose normal matrix is not positive definite (the
    ``LinAlgError`` is chained as the cause).
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def update_penalty_diag(phi, w, delta, eta):
    """Reweighting diagonal d_i = delta / sqrt(||phi_i||^2 + ||w_i||^2 + eta^2).

    Expects float64 ``phi`` (L, r) and ``w`` (K, r), ``delta >= 0`` and
    ``eta > 0``, as :func:`solve` hands them; nothing is checked here.
    ``eta > 0`` keeps every entry finite and strictly positive (at most
    delta/eta, attained by a jointly zero column pair).
    """
    return delta / np.sqrt(_column_energy(phi, w) + eta * eta)


def _spd_solve(a, b, context):
    """Solve the SPD system a @ x = b through the inverse of its Cholesky factor.

    Factors a = C C^T, inverts the r-by-r triangle C and applies
    a^-1 = C^-T C^-1 to every column of ``b`` in one GEMM.  The r-cubed
    work is independent of the width of ``b``, and one GEMM does less
    than LAPACK's two triangular solves (``dpotrs``) with a copy of ``b``.
    The product is taken in the transposed orientation, so the solution
    comes back in Fortran order like ``dpotrs``' and the block steps'
    transposes are C-ordered.  A factorization failure raises
    ``LinAlgError`` naming the smallest eigenvalue of ``a`` relative to
    the largest in magnitude: a ratio at the unit roundoff (about 1e-16),
    of either sign, means ``a`` is numerically singular.

    Precision (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., ch. 10 and 14; u the unit roundoff, kappa = kappa_2(a)).
    ``dpotrs`` is backward stable, so its solution errs by at most
    c r u kappa ||x|| per column.  Here the computed factor is exact for
    a + dA with |dA| <= gamma_{r+1} |C||C^T|, and the inverse X of the
    triangle, computed column by column by LU with partial pivoting
    (``np.linalg.inv``), has a small right residual, C X = I + F with
    |F| <= c r u |C||X|.  Then X^T X b = (I + F)^T a^-1 (I + F) b, whose
    first-order error F^T x + a^-1 F b is bounded normwise by
    c r u kappa^(3/2) ||x||: the worst case needs b to load the
    directions that C^-1 magnifies most while x stays small.  Measured
    against ``dpotrs`` on random SPD systems (r = 1..12, kappa up to 1e10,
    random eigenbases, both right-hand-side orientations) the difference
    stays below 1.6 r u kappa ||x|| per column, the order of ``dpotrs``'
    own bound; ``tests/test_solver_ops.py`` gates it at 4 r u kappa ||x||.
    The block steps' systems are regularized by the penalty diagonal:
    kappa reaches about 1e3 on the uniform-protocol scenes and 2e8 on the
    VCA ones, where that bound allows a relative gap of about 2e-6 in one
    Newton target; measured, no iteration count, step weight or rank of
    the 20 scenes changes.
    """
    try:
        inv_factor = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(a)
        scale = float(np.abs(eig).max())
        raise np.linalg.LinAlgError(
            "%s: normal matrix is not positive definite (smallest eigenvalue "
            "%.6e relative to the largest)"
            % (context, eig[0] / scale if scale else 0.0)) from None
    # ``inv_factor.T @ inv_factor`` is a SYRK, so the inverse is exactly
    # symmetric and b^T a^-1 is the transpose of a^-1 b.
    return (b.T @ (inv_factor.T @ inv_factor)).T


def _newton_step(fixed, d, rhs, shift, context):
    """Projected Newton target max(X - shift, 0) of one block, n-by-r.

    X^T solves (F^T F + D) X^T = ``rhs``, F = ``fixed`` the other block
    and D = diag(``d``); ``rhs`` is F^T times Y or Y^T, r-by-n.  The
    solve goes through :func:`_spd_solve`, whose docstring bounds its
    difference from a backward stable Cholesky solve; the shift and the
    projection run in place on its solution.
    """
    a = fixed.T @ fixed
    a.flat[::a.shape[0] + 1] += d
    x = _spd_solve(a, rhs, context).T
    x -= shift
    return np.maximum(x, 0.0, out=x)


def update_abundances(objective, phi_hat, d_hat):
    """One inexact proximal Newton step for the abundance block.

    Solves (Phi^T Phi + D) X = Phi^T Y, Y = ``objective.y``, for the r-by-K
    Newton target, transposes to K-by-r, soft-thresholds at
    ``objective.lambda1`` and projects onto the nonnegative orthant, which
    together are max(x - lambda1, 0).  Expects ``phi_hat`` float64 (L, r)
    and ``d_hat`` float64 (r,), as :func:`solve` hands them.  Returns the
    candidate and the product Y^T Phi (K-by-r) it formed, which
    :func:`line_search` reuses.  The step holds two K-by-r arrays: the
    cross product and the solution.
    """
    cross = phi_hat.T @ objective.y
    return (_newton_step(phi_hat, d_hat, cross, objective.lambda1,
                         "abundance update"), cross.T)


def update_endmembers(objective, w_hat, d_hat):
    """One Newton step for the endmember block, projected onto the orthant.

    Solves (W^T W + D) X = W^T Y^T, Y = ``objective.y``, and transposes
    back to L-by-r.  Expects ``w_hat`` float64 (K, r) and ``d_hat``
    float64 (r,), as :func:`solve` hands them.  Returns the candidate and
    the product Y W (L-by-r) it formed, which :func:`line_search` reuses.
    """
    cross = objective.y @ w_hat
    return _newton_step(w_hat, d_hat, cross.T, 0.0, "endmember update"), cross


def extrapolate(prev, candidate, beta):
    """Convex blend prev + beta * (candidate - prev); ``beta`` in (0, 1]."""
    if beta == 1.0:
        return candidate
    return prev + beta * (candidate - prev)


def line_search(objective, phi_hat, w_hat, candidate, cross, which, config,
                baseline_cost):
    """Backtrack over extrapolation weights until the cost stops increasing.

    Tries beta in {beta_init, beta_init*shrink, ...} (at most
    ``max_backtracks`` trials) and accepts the first (largest) one whose
    cost change f(beta) = cost(X + beta*(candidate - X)) - cost(X) is at
    most 1e-12 times the baseline's magnitude.  f is priced in closed
    form by :meth:`Objective.change_along`: its coefficients are built
    once per search from r-sized Gram terms, after which each trial costs
    O(r) and no L-by-K residual is formed.  The accepted cost is reported
    as ``baseline_cost + f(beta)``.  If no trial is accepted the
    unchanged block is returned with ``beta = 0.0``.

    Parameters
    ----------
    objective : Objective
        Bound cost evaluator.
    phi_hat, w_hat : arrays
        Current iterates; the block not being searched is held fixed.
    candidate : array
        Proposed nonnegative iterate for the searched block.
    cross : array
        Product of Y with the fixed block, oriented like the searched
        block (Y^T phi_hat for ``"w"``, Y w_hat for ``"phi"``), as
        returned by the block step.
    which : {"w", "phi"}
        Which block ``candidate`` replaces.
    config : SolverConfig
        Supplies ``beta_init``, ``shrink`` and ``max_backtracks``.
    baseline_cost : float
        Total cost at (phi_hat, w_hat).

    Returns
    -------
    (accepted, beta_used, cost) : (array, float, float)
    """
    prev = w_hat if which == "w" else phi_hat
    change = objective.change_along(phi_hat, w_hat, candidate, which, cross)
    slack = _ACCEPT_SLACK * abs(baseline_cost)
    beta = config.beta_init
    for _ in range(config.max_backtracks):
        gain = change(beta)
        if gain <= slack:
            return extrapolate(prev, candidate, beta), beta, baseline_cost + gain
        beta *= config.shrink
    return prev, 0.0, baseline_cost


def prune_and_report_rank(phi, w, prune_tol):
    """Columns surviving the relative joint-energy threshold.

    Column i survives iff sqrt(||phi_i||^2 + ||w_i||^2) exceeds
    ``prune_tol`` times the largest such energy.  Expects float64 ``phi``
    and ``w`` with equal column counts and ``prune_tol`` in [0, 1), as
    :func:`solve` hands them.  Returns the surviving indices (ascending)
    and their count; an all-zero factorization yields an empty survivor
    set (degenerate outcome, rank 0).
    """
    norms = joint_column_norms(phi, w)
    cutoff = prune_tol * (norms.max() if norms.size else 0.0)
    surviving = np.flatnonzero(norms > cutoff)
    return surviving, int(surviving.size)


def _prune_and_drop(phi, w, alive, prune_tol):
    """Count the survivors of pruning and drop the column pairs that are zero.

    A pair whose phi and w columns are both all zero adds exactly delta *
    eta to the objective and nothing to any gradient, and every block step
    maps it to zero again, so dropping it changes no iterate.  A survivor
    has positive energy, so the zero scan runs only when some column fails
    pruning.  ``alive`` indexes the working columns into the initial r.
    Returns the new ``alive``, the survivors as indices into the returned
    working columns, and the compacted (phi, w).
    """
    kept = prune_and_report_rank(phi, w, prune_tol)[0]
    if kept.size == phi.shape[1]:
        return alive, kept, phi, w
    keep = np.flatnonzero(phi.any(axis=0) | w.any(axis=0))
    if keep.size == phi.shape[1]:
        return alive, kept, phi, w
    # ``np.take`` returns C-ordered copies; ``phi[:, keep]`` would be F-ordered.
    return (alive[keep], np.searchsorted(keep, kept),
            np.take(phi, keep, axis=1), np.take(w, keep, axis=1))


def default_eta(y):
    """Smoothing floor: 1e-2 times the mean pixel (column) norm of ``y``."""
    scale = float(np.sqrt(_column_dots(y, y)).mean()) if y.size else 0.0
    return max(1e-2 * scale, _ETA_FLOOR)


def with_defaults(config, y):
    """Resolve ``None`` hyperparameters; the choices are echoed in reports."""
    if not config.is_resolved:
        y = as_matrix(y, "y")
    return _resolve_defaults(config, y)


def _resolve_defaults(config, y):
    """:func:`with_defaults` for a ``y`` that :func:`as_matrix` returned."""
    if config.is_resolved:
        return config
    updates = {}
    if config.eta is None:
        updates["eta"] = default_eta(y)
    if config.delta is None:
        updates["delta"] = DEFAULT_DELTA
    if config.lambda1 is None:
        updates["lambda1"] = DEFAULT_LAMBDA1
    return replace(config, **updates)


def solve(y, init_phi, init_w, config, callback=None):
    """Run the alternating solver until it converges, stalls or hits max_iter.

    Parameters
    ----------
    y : (L, K) array
        Nonnegative observations, bands by pixels.
    init_phi : (L, r) array
        Nonnegative initial endmembers, r = config.r.
    init_w : (K, r) array
        Nonnegative initial abundances.
    config : SolverConfig
        Hyperparameters; unresolved entries are filled from the data.
    callback : callable, optional
        Called with a :class:`SolverState` after every iteration.  Its
        arrays always have r columns: once a column has been dropped they
        are padded with zero columns, and ``d_hat`` with delta / eta.

    Returns
    -------
    (phi, w, report)
        ``phi`` (L, n_eff) and ``w`` (K, n_eff) hold the surviving
        columns; ``report`` carries the resolved config and the
        per-iteration traces.  Costs are those of the width-r iterate, so
        a column below ``prune_tol`` that is not yet zero at exit counts in
        ``final_cost`` but not in the returned factors; the cost trace is
        non-increasing.  ``report.converged`` is true when the relative
        cost change fell to ``tol_rel_cost`` or every column became zero;
        a stalled solve and one stopped by ``max_iter`` report false.

    Raises
    ------
    ValueError
        For invalid input, including a resolved ``eta`` that is not finite.
    SolverDiverged
        When the cost is not finite, at the initial iterate or later, or a
        block step's normal matrix is not positive definite.
    """
    t0 = time.perf_counter()
    y = as_matrix(y, "y")
    check_nonneg(y, "y")
    phi = as_matrix(init_phi, "init_phi").copy()
    w = as_matrix(init_w, "init_w").copy()
    check_nonneg(phi, "init_phi")
    check_nonneg(w, "init_w")
    l, k_pix = y.shape
    if phi.shape != (l, config.r):
        raise ValueError("init_phi has shape %s, expected %s"
                         % (phi.shape, (l, config.r)))
    if w.shape != (k_pix, config.r):
        raise ValueError("init_w has shape %s, expected %s"
                         % (w.shape, (k_pix, config.r)))

    # ``y`` was checked above; neither step scans it again.
    config = _resolve_defaults(config, y)
    objective = Objective._of_checked(y, config.delta, config.lambda1,
                                      config.eta)

    # ``alive`` indexes the working columns into the initial r and ``kept``
    # the working columns that survive pruning; ``pad`` is the cost of the
    # dropped (zero) columns, delta * eta each.  Costs reported and
    # compared include it, the line searches price the working problem
    # without it.  An overflow here raises SolverDiverged below, not a
    # warning.
    with np.errstate(over="ignore", invalid="ignore"):
        initial_cost = cost_prev = objective.total(phi, w)
        alive, kept, phi, w = _prune_and_drop(phi, w, np.arange(config.r),
                                              config.prune_tol)
        pad = (config.r - alive.size) * config.delta * config.eta
        d = update_penalty_diag(phi, w, config.delta, config.eta)

    cost_trace = []
    rank_trace = []
    beta_w_trace = []
    beta_phi_trace = []
    converged = False

    def build_report():
        return SolverReport(
            config=config,
            iterations=len(cost_trace),
            initial_cost=initial_cost,
            final_cost=cost_trace[-1] if cost_trace else cost_prev,
            cost_trace=np.asarray(cost_trace, dtype=np.float64),
            effective_rank_trace=np.asarray(rank_trace, dtype=np.int64),
            beta_w_trace=np.asarray(beta_w_trace, dtype=np.float64),
            beta_phi_trace=np.asarray(beta_phi_trace, dtype=np.float64),
            final_effective_rank=kept.size,
            surviving_columns=alive[kept],
            converged=converged,
            rank_degenerate=(kept.size == 0),
            wall_time=time.perf_counter() - t0,
        )

    def diverged(message):
        return SolverDiverged(message, build_report())

    def full_width(a, fill):
        if alive.size == config.r:
            return a
        full = np.full(a.shape[:-1] + (config.r,), fill)
        full[..., alive] = a
        return full

    if not np.isfinite(initial_cost):
        raise diverged("non-finite cost %r at the initial iterate"
                       % (initial_cost,))

    for k in range(1, config.max_iter + 1):
        if not alive.size:
            # Nothing is left to move: the zero factorization is stationary.
            converged = True
            break
        try:
            w_cand, cross = update_abundances(objective, phi, d)
        except np.linalg.LinAlgError as exc:
            raise diverged("%s at iteration %d" % (exc, k)) from exc
        w, beta_w, cost_after_w = line_search(
            objective, phi, w, w_cand, cross, "w", config, cost_prev - pad)
        try:
            phi_cand, cross = update_endmembers(objective, w, d)
        except np.linalg.LinAlgError as exc:
            raise diverged("%s at iteration %d" % (exc, k)) from exc
        phi, beta_phi, cost_k = line_search(
            objective, phi, w, phi_cand, cross, "phi", config, cost_after_w)

        if not np.isfinite(cost_k):
            raise diverged("non-finite cost %r at iteration %d" % (cost_k, k))

        cost_k += pad
        alive, kept, phi, w = _prune_and_drop(phi, w, alive, config.prune_tol)
        pad = (config.r - alive.size) * config.delta * config.eta
        d = update_penalty_diag(phi, w, config.delta, config.eta)
        cost_trace.append(cost_k)
        rank_trace.append(kept.size)
        beta_w_trace.append(beta_w)
        beta_phi_trace.append(beta_phi)

        if callback is not None:
            callback(SolverState(phi_hat=full_width(phi, 0.0),
                                 w_hat=full_width(w, 0.0),
                                 d_hat=full_width(d, config.delta / config.eta),
                                 beta_w=beta_w, beta_phi=beta_phi,
                                 k=k, last_cost=cost_k))

        if beta_w == 0.0 and beta_phi == 0.0:
            # Stalled: with neither block moved, pruning dropped nothing
            # and the next iteration would repeat this one.
            break
        if abs(cost_prev - cost_k) <= config.tol_rel_cost * max(abs(cost_prev), 1e-300):
            cost_prev = cost_k
            converged = True
            break
        cost_prev = cost_k

    if kept.size < alive.size:
        phi, w = np.take(phi, kept, axis=1), np.take(w, kept, axis=1)
    return phi, w, build_report()
