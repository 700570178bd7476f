"""Alternating proximal Newton solver with reweighting and rank pruning.

Inside :func:`solve` and the steps it calls, the factors are held
component-major: Phi^T as an r-by-L array and W^T as an r-by-K one, both
C-ordered, so that every product with Y takes contiguous operands and
every per-column reduction of a factor runs along a contiguous row.
:func:`solve` takes (L, r) and (K, r) factors and returns (L, n) and
(K, n) ones, the transposes of what it holds.

One outer iteration does:

1. abundance block: one ridge-regularized Newton step, soft-thresholded
   and projected onto the nonnegative orthant, taken one pixel block of Y
   at a time from the block's Gram P = Phi^T Phi and the columns of the
   cross product C^T = Phi^T Y,
2. a backtracked extrapolation toward that target, priced from r-sized
   terms the step summed while each block was in cache, until the total
   cost stops increasing,
3. endmember block: the same step without the soft-threshold, from
   P = W^T W and C^T = W^T Y^T, as one block of L columns, and the same
   backtracking; C^T is summed over the pixel blocks of Y, each block's
   W_b^T Y_b^T straight from its columns of W^T,
4. pruning: column pairs that are exactly zero are dropped, and those
   whose joint energy exceeds a relative tolerance are counted,
5. refresh of the penalty diagonal from the working columns.

There is one block path.  A step forms M = (P + D)^-1 once, and for each
block writes the candidate's columns max(M C_b^T - shift, 0) and adds
their search terms (:class:`SearchTerms`): the slope, sum and Gram of the
step and two row dots.  No step forms a residual, and the line search
prices every trial from those terms (:meth:`Objective.change_along`).
The full cost is evaluated once per solve, at the initial iterate, in
Gram form (:meth:`Objective.total_gram`); every reported cost after it is
the previous one plus the accepted changes.  Before it iterates, a solve
reads Y once: one blocked scan checks it and forms the squared pixel
norms, which give the default eta and ||Y||^2, and C^T = Phi^T Y, which
prices the initial cost and serves the first abundance step.

The column energies ||phi_i||^2 and ||w_i||^2, shared by the group
penalty, its reweighting and the pruning, are formed once per block
update: :func:`solve` takes them at entry, each line search returns its
accepted block's, and a column drop indexes them.

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

Memory: besides Y and the initial factors, a solve holds two K-by-r
arrays: the abundances and their step's candidate, into whose buffer a
fractional step weight blends.  In the first abundance step the scan's
C^T = Phi^T Y is the other one, and the abundances are still a view of
the caller's W: the step reads C-ordered copies of its pixel blocks,
which take their blocks' place in C's buffer as C is used up, so that
buffer then holds W^T and no K-by-r copy of W is made (unless a column
pair that starts at zero is dropped at entry, which copies the others).
Later steps form C, and every step its step and gradient, one pixel
block at a time.  The endmember step's C^T = W^T Y^T is one r-by-L sum
of per-block partials, taken straight from the blocks' columns of W^T.
A solve allocates no L-by-K temporary and no residual block; at entry
it also holds the K squared pixel norms of its scan.  Pruning and
reweighting work from the r carried energies and allocate no K-by-r
temporary, and a callback's state pads its arrays to r columns only when
they are read.  The inputs are never written, the returned factors share
no memory with them, and they are transposed views of the arrays the
solve held: F-ordered, not copied.
"""

import math
import time
from dataclasses import MISSING, dataclass, field, replace
from functools import cached_property

import numpy as np

from .model import (
    Objective,
    SearchTerms,
    _c_ordered_blocks,
    _column_dots,
    _cross_block,
    _pixel_slices,
    _real_matrix,
    _row_dots,
    _scan_observations,
    as_integer,
    as_matrix,
    as_weight,
    check_dims,
    check_interval,
)

__all__ = [
    "SolverConfig",
    "SolverState",
    "SolverReport",
    "SolverDiverged",
    "solve",
    "with_defaults",
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


def _setting(text, default=MISSING):
    """A :class:`SolverConfig` field whose one-line help is ``text``."""
    return field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for :func:`solve`, one field per setting.

    Each field's ``help`` metadata is its one-line description; the
    command line builds its solver flags from these fields.  Only ``eta``
    may be ``None``, for the data-driven default (see :func:`with_defaults`);
    the resolved value is echoed in the returned report.
    """

    r: int = _setting("rank overestimate (number of factor columns)")
    delta: float = _setting("group-sparsity weight", DEFAULT_DELTA)
    lambda1: float = _setting("elementwise l1 weight on abundances", DEFAULT_LAMBDA1)
    eta: float | None = _setting("smoothing constant (default: 1e-2 times the mean pixel norm)", None)
    max_iter: int = _setting("outer iteration cap", 500)
    tol_rel_cost: float = _setting("relative cost-change stopping tolerance", 1e-6)
    prune_tol: float = _setting("relative joint-energy pruning threshold", 1e-4)
    beta_init: float = _setting("initial extrapolation weight", 1.0)
    shrink: float = _setting("line-search shrink factor", 0.5)
    max_backtracks: int = _setting("line-search trial cap", 20)
    seed: int = _setting("initialization seed", 0)

    def __post_init__(self):
        # Counts are stored as ints; the real-valued settings are only
        # checked, so reports echo them as given.
        for name, low in (("r", 1), ("max_iter", 0), ("max_backtracks", 1)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, low))
        as_weight(self.delta, "delta")
        as_weight(self.lambda1, "lambda1")
        if self.eta is not None:
            as_weight(self.eta, "eta")
        for name, low, high, ends in (("tol_rel_cost", 0.0, np.inf, "[]"),
                                      ("prune_tol", 0.0, 1.0, "[)"),
                                      ("beta_init", 0.0, 1.0, "(]"),
                                      ("shrink", 0.0, 1.0, "()")):
            check_interval(getattr(self, name), name, low, high, ends)


class SolverState:
    """Per-iteration snapshot handed to the ``solve`` callback.

    ``phi_hat`` (L, r) / ``w_hat`` (K, r) are the accepted (extrapolated)
    iterates, ``d_hat`` the penalty diagonal consistent with them,
    ``beta_w`` / ``beta_phi`` the step weights accepted by the line
    searches (0.0 means the block did not move), ``k`` the 1-based
    iteration counter and ``last_cost`` the total cost at (phi_hat,
    w_hat).  The arrays have all r columns; dropped ones are exactly
    zero, with ``d_hat`` = delta / eta there.  They are padded to r
    columns when first read, so a callback that reads only the scalars
    makes no r-wide copies.  Unpadded, ``phi_hat`` and ``w_hat`` are
    transposed views of the solver's own component-major arrays, so they
    may be F-ordered: copy them before writing.
    """

    def __init__(self, working, alive, config, beta_w, beta_phi, k, last_cost):
        # (phi, w, d) on the working columns, which ``alive`` indexes
        # into the initial r; phi and w component-major, as solve holds
        # them.
        self._working = working
        self._alive = alive
        self._config = config
        self.beta_w = beta_w
        self.beta_phi = beta_phi
        self.k = k
        self.last_cost = last_cost

    def _padded(self, a, fill):
        r = self._config.r
        if self._alive.size == r:
            return a
        full = np.full(a.shape[:-1] + (r,), fill)
        full[..., self._alive] = a
        return full

    @cached_property
    def phi_hat(self):
        return self._padded(self._working[0].T, 0.0)

    @cached_property
    def w_hat(self):
        return self._padded(self._working[1].T, 0.0)

    @cached_property
    def d_hat(self):
        return self._padded(self._working[2], self._config.delta / self._config.eta)


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


def update_penalty_diag(energy, delta, eta):
    """Reweighting diagonal d_i = delta / sqrt(e_i + eta^2).

    ``energy`` holds the joint column energies e_i = ||phi_i||^2 +
    ||w_i||^2, float64 (r,), with ``delta >= 0`` and ``eta > 0``, as
    :func:`solve` hands them; nothing is checked here.  ``eta > 0`` keeps
    every entry finite and strictly positive (at most delta/eta, attained
    by a jointly zero column pair).
    """
    return delta / np.sqrt(energy + eta * eta)


def _spd_inverse(a, context):
    """The inverse of the SPD matrix ``a``, through the inverse of its Cholesky factor.

    Factors a = C C^T, inverts the r-by-r triangle C and returns a^-1 =
    C^-T C^-1, a SYRK, so exactly symmetric.  A block step applies it to
    each block of rows b^T of its product with Y, x^T = b^T a^-1: the
    r-cubed work is done once per step, independent of the number of
    rows, and one GEMM per block does less than LAPACK's two triangular
    solves (``dpotrs``) with a copy of the right-hand side.  A
    factorization failure raises ``LinAlgError`` naming the smallest
    eigenvalue of ``a`` relative to the largest in magnitude: a ratio at
    the unit roundoff (about 1e-16), of either sign, means ``a`` is
    numerically singular.

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
    return inv_factor.T @ inv_factor


def _block_step(fixed, d, shift, context):
    """The inverse M = (P + D)^-1 of a block's normal matrix, P = F^T F the
    Gram of F^T = ``fixed`` (r rows), D = diag(``d``), and the step's empty
    :class:`SearchTerms`, which carry P and the soft threshold ``shift``."""
    gram = fixed @ fixed.T
    a = gram.copy()
    a.ravel()[::a.shape[0] + 1] += d
    return _spd_inverse(a, context), SearchTerms(gram, shift)


def _candidate_rows(inverse, terms, cross, x, out):
    """One block of a Newton step: writes the candidate's columns
    max(M C_b^T - shift, 0) into ``out`` and adds their search terms.

    C_b^T = ``cross`` holds a block of the product of Y with the fixed
    block and ``x`` the same block of the searched one, both r-by-B.  M
    is symmetric, so each entry is a sum of the same r products as in
    (C_b M)^T.  The shift and the projection run in place on ``out``, an
    r-by-B block whose rows are contiguous.
    """
    z = np.matmul(inverse, cross, out=out)
    z -= terms.shift
    np.maximum(z, 0.0, out=z)
    terms.add(x, z, cross)


def update_abundances(objective, phi_hat, w_hat, d_hat, cross):
    """One inexact proximal Newton step for the abundance block.

    Solves (Phi^T Phi + D) X = Phi^T Y, Y = ``objective.y``, for the
    r-by-K Newton target, soft-thresholds it at ``objective.lambda1`` and
    projects it onto the nonnegative orthant, which together are
    max(x - lambda1, 0).  The factors are component-major, as
    :func:`solve` holds them: ``phi_hat`` is Phi^T, float64 (r, L),
    C-ordered, ``w_hat`` W^T, float64 (r, K), and ``d_hat`` float64 (r,).
    ``cross`` is C^T = Phi^T Y (r-by-K, C-ordered) when already formed
    (the scan's, at the first step), else None, and each pixel block's
    columns of C^T are formed from Y.  Returns the candidate Z^T (r-by-K,
    C-ordered) and its :class:`SearchTerms`, the step that
    :func:`line_search` takes.  The candidate is the one K-by-r array the
    step allocates: C, the step and the gradient exist one pixel block at
    a time.

    A given ``cross`` is consumed.  ``w_hat`` is then the caller's W,
    of any layout, and each block of it is copied to C order before the
    step reads it, so that no result depends on that layout; the copy
    then takes the block's place in ``cross``, which on return holds W^T
    in C order, for :func:`solve` to carry instead of the caller's W.
    """
    inverse, terms = _block_step(phi_hat, d_hat, objective.lambda1,
                                 "abundance update")
    y = objective.y
    candidate = np.empty(w_hat.shape)
    for rows in _pixel_slices(*y.shape):
        if cross is None:
            _candidate_rows(inverse, terms, _cross_block(phi_hat, y[:, rows]),
                            w_hat[:, rows], candidate[:, rows])
        else:
            x = w_hat[:, rows].copy()
            _candidate_rows(inverse, terms, cross[:, rows], x, candidate[:, rows])
            cross[:, rows] = x
    return candidate, terms


def update_endmembers(objective, phi_hat, w_hat, d_hat):
    """One Newton step for the endmember block, projected onto the orthant.

    Solves (W^T W + D) X = W^T Y^T, Y = ``objective.y``, from C^T = W^T
    Y^T as one block of L columns.  The factors are component-major, as
    :func:`solve` holds them: ``phi_hat`` is Phi^T, float64 (r, L),
    ``w_hat`` W^T, float64 (r, K), and ``d_hat`` float64 (r,).  Returns
    the candidate Phi^T (r-by-L, C-ordered) and its :class:`SearchTerms`,
    the step that :func:`line_search` takes.

    C^T is summed over the pixel blocks of the abundance step: each block
    adds W_b^T Y_b^T, straight from the block's columns of W^T and Y, into
    one r-by-L sum.  It allocates the r-by-L partials, no K-by-r
    temporary.

    Precision: each entry of C is still a sum of the same K products
    y_aj w_ji.  A block sums its B products and the K / B block sums are
    added in turn, so the summation rounds at gamma_{B + K/B} sum_j
    |y_aj| |w_ji|, as :class:`SearchTerms`' blocked sums do, against
    gamma_K for one GEMM over all K pixels: blocking never loosens the
    bound.  The result is not bitwise ``y @ w``: past one block the
    additions are reordered, and within one the BLAS may pick another
    kernel for the transposed product.
    """
    inverse, terms = _block_step(w_hat, d_hat, 0.0, "endmember update")
    y = objective.y
    cross = sum(w_hat[:, rows] @ y[:, rows].T for rows in _pixel_slices(*y.shape))
    candidate = np.empty(phi_hat.shape)
    _candidate_rows(inverse, terms, cross, phi_hat, candidate)
    return candidate, terms


def line_search(objective, phi_hat, w_hat, step, which, config, baseline_cost,
                energies):
    """Backtrack over extrapolation weights until the cost stops increasing.

    Tries beta in {beta_init, beta_init*shrink, ...} (at most
    ``max_backtracks`` trials) and accepts the first (largest) one whose
    cost change f(beta) = cost(X + beta*(candidate - X)) - cost(X) is at
    most 1e-12 times the baseline's magnitude; the accepted block is the
    candidate itself at beta = 1 and that blend otherwise, formed in
    place in the candidate's buffer.  f is priced in closed form by
    :meth:`Objective.change_along` from the step's search terms, after
    which each trial costs O(r) and no L-by-K residual is formed.  The
    accepted cost is reported as ``baseline_cost + f(beta)``.  If no
    trial is accepted the unchanged block is returned with ``beta = 0.0``.
    The accepted block's column energies come back with it: at beta = 1
    those of the candidate, which the step summed, unchanged at beta = 0,
    and from one pass over the blend otherwise.

    Parameters
    ----------
    objective : Objective
        Bound cost evaluator.
    phi_hat, w_hat : arrays
        Current iterates Phi^T (r, L) and W^T (r, K), component-major; the
        block not being searched is held fixed.
    step : (candidate, terms)
        The block step's return: the proposed nonnegative iterate for the
        searched block, whose buffer the search may overwrite, and its
        :class:`SearchTerms`.
    which : {"w", "phi"}
        Which block ``candidate`` replaces.
    config : SolverConfig
        Supplies ``beta_init``, ``shrink`` and ``max_backtracks``.
    baseline_cost : float
        Total cost at (phi_hat, w_hat).
    energies : (array, array)
        The row dots (||phi_i||^2, ||w_i||^2) at (phi_hat, w_hat).

    Returns
    -------
    (accepted, beta_used, cost, energy) : (array, float, float, array)
        ``energy`` holds the accepted block's row dots.
    """
    candidate, terms = step
    e_phi, e_w = energies
    prev, energy, fixed = (w_hat, e_w, e_phi) if which == "w" else (phi_hat, e_phi, e_w)
    change = objective.change_along(terms, prev, candidate, energy, fixed)
    slack = _ACCEPT_SLACK * abs(baseline_cost)
    beta = config.beta_init
    for _ in range(config.max_backtracks):
        gain = change(beta)
        if gain <= slack:
            if beta == 1.0:
                return candidate, beta, baseline_cost + gain, terms.zz
            # prev + beta * (candidate - prev), bitwise
            blend = candidate
            blend -= prev
            blend *= beta
            blend += prev
            return blend, beta, baseline_cost + gain, _row_dots(blend, blend)
        beta *= config.shrink
    return prev, 0.0, baseline_cost, energy


def prune_and_report_rank(energy, prune_tol):
    """Columns surviving the relative joint-energy threshold.

    Column i survives iff sqrt(e_i), e_i = ||phi_i||^2 + ||w_i||^2 the
    joint column energy in ``energy``, exceeds ``prune_tol`` times the
    largest such norm.  Expects float64 ``energy`` (r,) and ``prune_tol``
    in [0, 1), as :func:`solve` hands them.  Returns the surviving indices
    (ascending); an all-zero factorization yields an empty survivor set
    (degenerate outcome, rank 0).
    """
    norms = np.sqrt(energy)
    cutoff = prune_tol * (norms.max() if norms.size else 0.0)
    return np.flatnonzero(norms > cutoff)


def _prune_and_drop(phi, w, e_phi, e_w, alive, prune_tol):
    """Count the survivors of pruning and drop the column pairs that are zero.

    A pair whose phi and w columns are both all zero adds exactly delta *
    eta to the objective and nothing to any gradient, and every block step
    maps it to zero again, so dropping it changes no iterate.  A survivor
    has positive energy, so the zero scan runs only when some column fails
    pruning.  ``phi`` and ``w`` hold one column per row, ``e_phi`` and
    ``e_w`` are their row dots, and ``alive`` indexes the working columns
    into the initial r.  Returns the new ``alive``, the survivors as
    indices into the returned working columns, and the compacted (phi, w,
    e_phi, e_w).
    """
    kept = prune_and_report_rank(e_phi + e_w, prune_tol)
    if kept.size == phi.shape[0]:
        return alive, kept, phi, w, e_phi, e_w
    keep = np.flatnonzero(phi.any(axis=1) | w.any(axis=1))
    if keep.size == phi.shape[0]:
        return alive, kept, phi, w, e_phi, e_w
    return (alive[keep], np.searchsorted(keep, kept),
            np.take(phi, keep, axis=0), np.take(w, keep, axis=0),
            e_phi[keep], e_w[keep])


def _eta_of(pixel_norms):
    """The default eta from the squared pixel norms ||y_j||^2: 1e-2 times
    the mean pixel norm, floored at ``_ETA_FLOOR``."""
    scale = float(np.sqrt(pixel_norms).mean()) if pixel_norms.size else 0.0
    return max(1e-2 * scale, _ETA_FLOOR)


def with_defaults(config, y):
    """Fill an ``eta`` of ``None`` from ``y``: 1e-2 times the mean pixel
    (column) norm of ``y``; the choice is echoed in reports.

    :func:`solve` takes the same eta from the squared pixel norms its
    scan of ``y`` forms, which are bitwise ``_column_dots(y, y)``.
    """
    if config.eta is not None:
        return config
    y = as_matrix(y, "y")
    return replace(config, eta=_eta_of(_column_dots(y, y)))


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
        Hyperparameters; an ``eta`` of ``None`` is filled from the data.
    callback : callable, optional
        Called with a :class:`SolverState` after every iteration.  Its
        arrays always have r columns: once a column has been dropped they
        are padded, when first read, with zero columns, and ``d_hat`` with
        delta / eta.

    Returns
    -------
    (phi, w, report)
        ``phi`` (L, n_eff) and ``w`` (K, n_eff) hold the surviving
        columns, as transposed views of the solver's component-major
        arrays (F-ordered); ``report`` carries the resolved config and the
        per-iteration traces.  Costs are those of the width-r iterate, so
        a column below ``prune_tol`` that is not yet zero at exit counts in
        ``final_cost`` but not in the returned factors; the cost trace is
        non-increasing.  ``initial_cost`` is priced in Gram form, within
        the bound of :meth:`Objective.total_gram` of the direct form, and
        every later cost carries its rounding.  ``report.converged`` is
        true when the relative cost change fell to ``tol_rel_cost`` or
        every column became zero; a stalled solve and one stopped by
        ``max_iter`` report false.

    Raises
    ------
    ValueError
        For invalid input, including a resolved ``eta`` that is not finite.
    SolverDiverged
        When the cost is not finite, at the initial iterate or later, or a
        block step's normal matrix is not positive definite.  An overflow
        at the initial iterate, also of ||Y||^2 alone (||Y||_F above about
        1.3e154), reads as an infinite cost and raises before any block
        step.
    """
    t0 = time.perf_counter()
    y = _real_matrix(y, "y")
    phi = as_matrix(init_phi, "init_phi", nonneg=True)
    w = as_matrix(init_w, "init_w", nonneg=True)
    check_dims(y, phi, w, ("init_phi", "init_w"))
    if phi.shape[1] != config.r:
        raise ValueError("init_phi has %d columns, expected r=%d"
                         % (phi.shape[1], config.r))
    # Component-major: Phi^T copied to C order, W^T a view of the caller's
    # W until the first abundance step hands back its C-ordered copy.
    # Until then W is read in C-ordered copies of its pixel blocks, so
    # that no result depends on the layout of the caller's arrays.
    phi, w = np.ascontiguousarray(phi.T), w.T

    # ``alive`` indexes the working columns into the initial r and ``kept``
    # the working columns that survive pruning; ``pad`` is the cost of the
    # dropped (zero) columns, delta * eta each.  Costs reported and
    # compared include it, the line searches price the working problem
    # without it.  ``e_phi`` and ``e_w`` are the working columns' dots,
    # formed here and then carried: each line search returns its block's.
    # The scan of ``y`` forms the first abundance step's C^T = Phi^T Y
    # (``cross``), which prices the initial cost first; nothing reads ``y``
    # again before the products of the block steps.  An overflow here
    # raises SolverDiverged below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        e_w = sum(_row_dots(b, b) for _, b in _c_ordered_blocks(w, y.shape[0]))
        alive, kept, phi, w, e_phi, e_w = _prune_and_drop(
            phi, w, _row_dots(phi, phi), e_w, np.arange(config.r),
            config.prune_tol)
        y, pixel_norms, y_squared, cross = _scan_observations(y, phi)
        if config.eta is None:
            config = replace(config, eta=_eta_of(pixel_norms))
        del pixel_norms  # K floats, not held while iterating
        objective = Objective(y, config.delta, config.lambda1, config.eta)
        pad = (config.r - alive.size) * config.delta * config.eta
        d = update_penalty_diag(e_phi + e_w, config.delta, config.eta)
        initial_cost = cost_prev = pad + objective.total_gram(
            phi, w, cross, (e_phi, e_w), y_squared)

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

    if not math.isfinite(initial_cost):
        raise diverged("non-finite cost %r at the initial iterate"
                       % (initial_cost,))

    for k in range(1, config.max_iter + 1):
        if not alive.size:
            # Nothing is left to move: the zero factorization is stationary.
            converged = True
            break
        try:
            step = update_abundances(objective, phi, w, d, cross)
            if cross is not None:
                # The scan's C serves the first abundance step only, which
                # leaves a C-ordered copy of W in its buffer.
                w, cross = cross, None
            w, beta_w, cost_after_w, e_w = line_search(
                objective, phi, w, step, "w", config, cost_prev - pad,
                (e_phi, e_w))
            del step  # a rejected candidate is not held through the next step
            phi, beta_phi, cost_k, e_phi = line_search(
                objective, phi, w, update_endmembers(objective, phi, w, d),
                "phi", config, cost_after_w, (e_phi, e_w))
        except np.linalg.LinAlgError as exc:
            raise diverged("%s at iteration %d" % (exc, k)) from exc

        if not math.isfinite(cost_k):
            raise diverged("non-finite cost %r at iteration %d" % (cost_k, k))

        cost_k += pad
        alive, kept, phi, w, e_phi, e_w = _prune_and_drop(
            phi, w, e_phi, e_w, alive, config.prune_tol)
        pad = (config.r - alive.size) * config.delta * config.eta
        d = update_penalty_diag(e_phi + e_w, config.delta, config.eta)
        cost_trace.append(cost_k)
        rank_trace.append(kept.size)
        beta_w_trace.append(beta_w)
        beta_phi_trace.append(beta_phi)

        if callback is not None:
            callback(SolverState((phi, w, d), alive, config, beta_w,
                                 beta_phi, k, cost_k))

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
        phi, w = np.take(phi, kept, axis=0), np.take(w, kept, axis=0)
    # Transposed views, not copies.  A block that never moved may still be
    # the caller's array.
    phi, w = ((a.copy() if isinstance(given, np.ndarray)
               and np.may_share_memory(a, given) else a).T
              for a, given in ((phi, init_phi), (w, init_w)))
    return phi, w, build_report()
