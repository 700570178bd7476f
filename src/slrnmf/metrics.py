"""Scoring of unmixing output against reference factors.

Endmember recovery is only defined up to column permutation and scale,
so estimated columns are first matched to reference columns by an exact
minimum-total-spectral-angle assignment; abundance error is then
computed after absorbing a per-pair least-squares scalar.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import as_matrix, check_dims

__all__ = [
    "MatchResult",
    "spectral_angle",
    "match_columns",
    "abundance_rmse",
    "evaluate_unmixing",
]


@dataclass
class MatchResult:
    """Column matching between estimated and reference endmembers.

    ``permutation`` holds (estimated_index, reference_index) pairs, one
    per matched column; estimated or reference columns beyond
    min(N_est, N_ref) appear in the unmatched lists.  ``abundance_rmse``
    and ``abundance_scales`` are filled when abundances are scored.
    """

    permutation: np.ndarray
    per_pair_sam_degrees: np.ndarray
    mean_sam_degrees: float
    unmatched_estimated: np.ndarray
    unmatched_reference: np.ndarray
    rank_correct: bool
    abundance_rmse: float | None = None
    abundance_scales: np.ndarray | None = field(default=None, repr=False)


def spectral_angle(a, b):
    """Angle between two spectra in degrees, in [0, 180].

    Scale-invariant: multiplying either argument by a positive scalar
    does not change the result.  Zero vectors are rejected.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("spectra have different lengths: %d vs %d"
                         % (a.size, b.size))
    na = float(np.sqrt(a @ a))
    nb = float(np.sqrt(b @ b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("spectral angle is undefined for a zero vector")
    cosine = float(a @ b) / (na * nb)
    return float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))))


def _angle_matrix(estimated, reference):
    # Pairwise angles in degrees; zero columns get the worst angle (180)
    # instead of an error so matching can still proceed around them.
    en = np.sqrt((estimated * estimated).sum(axis=0))
    rn = np.sqrt((reference * reference).sum(axis=0))
    safe_e = np.where(en == 0.0, 1.0, en)
    safe_r = np.where(rn == 0.0, 1.0, rn)
    cos = (estimated / safe_e).T @ (reference / safe_r)
    angles = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    angles[en == 0.0, :] = 180.0
    angles[:, rn == 0.0] = 180.0
    return angles


def _assignment(cost):
    """Minimum-total-cost injective matching of the rows and columns of ``cost``.

    Returns (rows, cols), min(cost.shape) pairs sorted by row, as
    ``scipy.optimize.linear_sum_assignment`` does; a tall matrix is
    solved transposed.  Shortest augmenting paths with dual potentials
    (Jonker & Volgenant, Computing 38, 1987, in the rectangular form of
    Crouse, IEEE TAES 52, 2016): each row in turn joins the assignment
    along a Dijkstra shortest path in reduced costs, which the potentials
    keep nonnegative, so the partial assignment is optimal after every
    row.  O(n_rows^2 n_cols) work.
    """
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        cols, rows = _assignment(cost.T)
        order = np.argsort(rows)
        return rows[order], cols[order]
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    col_of_row = np.full(n_rows, -1)
    row_of_col = np.full(n_cols, -1)
    for start in range(n_rows):
        dist = np.full(n_cols, np.inf)
        via = np.full(n_cols, -1)
        done = np.zeros(n_cols, dtype=bool)
        row, reach = start, 0.0
        while True:
            through = reach + cost[row] - u[row] - v
            closer = ~done & (through < dist)
            dist[closer] = through[closer]
            via[closer] = row
            col = int(np.argmin(np.where(done, np.inf, dist)))
            reach = dist[col]
            done[col] = True
            if row_of_col[col] < 0:
                break
            row = row_of_col[col]
        # Update the potentials so reduced costs stay nonnegative, then
        # flip the path's matched and unmatched edges.
        u[start] += reach
        passed = done & (row_of_col >= 0)
        u[row_of_col[passed]] += reach - dist[passed]
        v[done] -= reach - dist[done]
        while True:
            row = via[col]
            row_of_col[col] = row
            col_of_row[row], col = col, col_of_row[row]
            if row == start:
                break
    return np.arange(n_rows), col_of_row


def match_columns(estimated, reference):
    """Optimal injective matching of estimated to reference columns.

    Solves the rectangular assignment problem minimizing total spectral
    angle over min(N_est, N_ref) pairs.  ``rank_correct`` records
    whether the column counts agree exactly.  A matrix without columns
    matches nothing: no pairs, and a mean angle of NaN.

    Raises
    ------
    ValueError
        Row-count mismatch.
    """
    estimated = as_matrix(estimated, "estimated")
    reference = as_matrix(reference, "reference")
    if estimated.shape[0] != reference.shape[0]:
        raise ValueError("row counts differ: estimated has %d, reference has %d"
                         % (estimated.shape[0], reference.shape[0]))

    angles = _angle_matrix(estimated, reference)
    est_idx, ref_idx = _assignment(angles)
    per_pair = angles[est_idx, ref_idx]
    return MatchResult(
        permutation=np.stack([est_idx, ref_idx], axis=1),
        per_pair_sam_degrees=per_pair,
        mean_sam_degrees=float(per_pair.mean()) if per_pair.size else np.nan,
        unmatched_estimated=np.delete(np.arange(estimated.shape[1]), est_idx),
        unmatched_reference=np.delete(np.arange(reference.shape[1]), ref_idx),
        rank_correct=(estimated.shape[1] == reference.shape[1]),
    )


def abundance_rmse(estimated, reference, permutation):
    """RMSE between matched abundance columns after scale resolution.

    For each matched pair a least-squares scalar c minimizing
    ||c * est - ref|| is fitted and applied to the estimated column; the
    fitted scales are returned alongside the error so the resolution is
    auditable.  A zero estimated column gets scale 0.

    Parameters
    ----------
    estimated : (K, N_est) array
    reference : (K, N_ref) array
    permutation : (m, 2) array
        (estimated_index, reference_index) pairs from match_columns.

    Returns
    -------
    (rmse, scales) : (float, (m,) array)
    """
    return _abundance_rmse(as_matrix(estimated, "estimated"),
                           as_matrix(reference, "reference"), permutation)


def _abundance_rmse(estimated, reference, permutation):
    """:func:`abundance_rmse` of two matrices that :func:`as_matrix` has
    already returned: their entries are not scanned again, their shapes
    and the permutation are still checked."""
    if estimated.shape[0] != reference.shape[0]:
        raise ValueError("row counts differ: estimated has %d, reference has %d"
                         % (estimated.shape[0], reference.shape[0]))
    permutation = np.asarray(permutation, dtype=np.int64)
    if permutation.size == 0:
        raise ValueError("permutation is empty; match columns first")
    if permutation.ndim != 2 or permutation.shape[1] != 2:
        raise ValueError("permutation must be an (m, 2) index array, got shape %s"
                         % (permutation.shape,))
    est = estimated[:, permutation[:, 0]]
    ref = reference[:, permutation[:, 1]]
    energy = (est * est).sum(axis=0)
    scales = np.where(energy > 0.0, (est * ref).sum(axis=0) / np.where(energy > 0.0, energy, 1.0), 0.0)
    # ``est`` is a copy (fancy indexing): the matched difference est *
    # scales - ref is formed in its buffer, bitwise.
    est *= scales
    est -= ref
    return float(np.sqrt((est * est).mean())), scales


def evaluate_unmixing(phi_est, phi_ref, w_est=None, w_ref=None):
    """Match endmembers and, when abundances are supplied, score them too.

    Returns the MatchResult with ``abundance_rmse`` and
    ``abundance_scales`` filled in when both abundance matrices are
    given (scored over the endmember matching's pairs) and some pair was
    matched.
    """
    result = match_columns(phi_est, phi_ref)
    if w_est is not None and w_ref is not None:
        w_est = as_matrix(w_est, "w_est")
        w_ref = as_matrix(w_ref, "w_ref")
        check_dims(None, np.asarray(phi_est), w_est, ("phi_est", "w_est"))
        check_dims(None, np.asarray(phi_ref), w_ref, ("phi_ref", "w_ref"))
        if result.permutation.size:
            result.abundance_rmse, result.abundance_scales = _abundance_rmse(
                w_est, w_ref, result.permutation)
    return result
