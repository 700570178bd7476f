"""Independent checks of one operation's outputs.

Written with numpy and the standard library only, from the objective's
formula and the solver's documented behaviour, so that no check reuses the
program code it checks.  Each function returns a list of problems; an
empty list means the check passed.  Problems are ``(kind, message)``
pairs.  Kind ``"stall"`` marks the known fault of a stalled solve reported
as converged and kind ``"error"`` an operation that raised or exited
non-zero: both fail the operation without being a wrong output.  Every
other kind is a wrong output.
"""

import itertools

import numpy as np

# The solver's monotone-descent gate allows this relative rise per step.
MONOTONE_SLACK = 5e-12
# Relative agreement between the reported final cost and our evaluation.
COST_RTOL = 1e-9
# Agreement between our spectral angles and the program's, in degrees.
SAM_ATOL_DEG = 1e-9
# Pixels per block of the residual.  224 x 128 doubles (224 KiB) is well
# below the solver's own L x K temporaries at every workload's size, so the
# check neither raises the peak RSS nor changes how glibc serves those
# temporaries (its mmap threshold only rises on freeing a larger block).
BLOCK_PIXELS = 128


def objective(y, phi, w, delta, lambda1, eta, block=BLOCK_PIXELS):
    """0.5*||Y - Phi W^T||_F^2 + delta*sum_i sqrt(||phi_i||^2 + ||w_i||^2 + eta^2)
    + lambda1*sum|W|, the objective stated in ``slrnmf.model``.

    The residual is formed ``block`` pixels at a time.
    """
    fit = 0.0
    for j in range(0, y.shape[1], block):
        resid = y[:, j:j + block] - phi @ w[j:j + block].T
        fit += float(np.sum(resid * resid))
    energy = np.sum(phi * phi, axis=0) + np.sum(w * w, axis=0)
    return (0.5 * fit
            + delta * float(np.sum(np.sqrt(energy + eta * eta)))
            + lambda1 * float(np.sum(np.abs(w))))


def factor_problems(phi, w, rank, l, k):
    """Shapes match the reported rank; entries are finite and nonnegative."""
    problems = []
    if phi.shape != (l, rank) or w.shape != (k, rank):
        problems.append(("shape", "factors %s and %s do not match rank %d"
                         % (phi.shape, w.shape, rank)))
    for name, m in (("phi", phi), ("w", w)):
        if not np.isfinite(m).all():
            problems.append(("finite", "%s has non-finite entries" % name))
        elif m.size and m.min() < 0.0:
            problems.append(("nonneg", "%s has a negative entry %g"
                             % (name, m.min())))
    return problems


def trace_problems(initial_cost, cost_trace):
    """The cost never rises by more than MONOTONE_SLACK relative."""
    costs = np.concatenate([[initial_cost], np.asarray(cost_trace, float)])
    rises = np.flatnonzero(
        costs[1:] - costs[:-1] > MONOTONE_SLACK * np.abs(costs[:-1]))
    if rises.size:
        i = int(rises[0])
        return [("trace", "cost rises at iteration %d: %.17g -> %.17g"
                 % (i + 1, costs[i], costs[i + 1]))]
    return []


def cost_problems(reported, own):
    if not abs(reported - own) <= COST_RTOL * abs(own):
        return [("cost", "reported final cost %.17g, evaluated %.17g"
                 % (reported, own))]
    return []


def rank_problems(rank, n):
    if rank != n:
        return [("rank", "recovered rank %d, expected %d" % (rank, n))]
    return []


def stall_problems(converged, beta_w, beta_phi):
    """``converged`` must not come from an iteration where neither block moved."""
    if converged and len(beta_w) and beta_w[-1] == 0.0 and beta_phi[-1] == 0.0:
        return [("stall", "converged reported after iteration %d, where both "
                 "line searches rejected every trial" % len(beta_w))]
    return []


def angle_matrix(estimated, reference):
    """Pairwise spectral angles in degrees; a zero column scores 180."""
    en = np.sqrt(np.sum(estimated * estimated, axis=0))
    rn = np.sqrt(np.sum(reference * reference, axis=0))
    cos = (estimated.T @ reference) / np.outer(np.where(en > 0, en, 1.0),
                                               np.where(rn > 0, rn, 1.0))
    angles = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    angles[en == 0, :] = 180.0
    angles[:, rn == 0] = 180.0
    return angles


def brute_force_sam(estimated, reference):
    """Mean spectral angle of the best injective column matching.

    Enumerates every assignment of the smaller side into the larger one,
    instead of solving the assignment problem.
    """
    angles = angle_matrix(estimated, reference)
    if angles.shape[0] < angles.shape[1]:
        angles = angles.T
    rows, cols = angles.shape
    picks = np.array(list(itertools.permutations(range(rows), cols)))
    totals = angles[picks, np.arange(cols)].sum(axis=1)
    return float(totals.min()) / cols


def sam_problems(estimated, reference, reported):
    own = brute_force_sam(estimated, reference)
    if not abs(own - reported) <= SAM_ATOL_DEG:
        return [("sam", "reported mean SAM %.12f deg, brute force %.12f deg"
                 % (reported, own))]
    return []


def is_wrong(problems):
    """True when an output was wrong, not merely missing or stalled."""
    return any(kind not in ("stall", "error") for kind, _ in problems)
