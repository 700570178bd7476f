"""Scoring of unmixing output against reference factors.

Endmember recovery is only defined up to column permutation and scale,
so estimated columns are first matched to reference columns by an exact
minimum-total-spectral-angle assignment; abundance error is then
computed after absorbing a per-pair least-squares scalar.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import as_matrix

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


def match_columns(estimated, reference):
    """Optimal injective matching of estimated to reference columns.

    Solves the rectangular assignment problem minimizing total spectral
    angle over min(N_est, N_ref) pairs.  ``rank_correct`` records
    whether the column counts agree exactly.

    Raises
    ------
    ValueError
        Row-count mismatch, or either matrix has no columns.
    """
    estimated = as_matrix(estimated, "estimated")
    reference = as_matrix(reference, "reference")
    if estimated.shape[0] != reference.shape[0]:
        raise ValueError("row counts differ: estimated has %d, reference has %d"
                         % (estimated.shape[0], reference.shape[0]))
    if estimated.shape[1] == 0 or reference.shape[1] == 0:
        raise ValueError("cannot match empty matrices")
    # Imported here, not at module level, so that ``unmix`` (which never
    # matches columns) does not pay scipy.optimize's import time.
    import scipy.optimize

    angles = _angle_matrix(estimated, reference)
    est_idx, ref_idx = scipy.optimize.linear_sum_assignment(angles)
    order = np.argsort(est_idx)
    est_idx = est_idx[order]
    ref_idx = ref_idx[order]
    per_pair = angles[est_idx, ref_idx]
    return MatchResult(
        permutation=np.stack([est_idx, ref_idx], axis=1),
        per_pair_sam_degrees=per_pair,
        mean_sam_degrees=float(per_pair.mean()),
        unmatched_estimated=np.setdiff1d(np.arange(estimated.shape[1]), est_idx),
        unmatched_reference=np.setdiff1d(np.arange(reference.shape[1]), ref_idx),
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
    estimated = as_matrix(estimated, "estimated")
    reference = as_matrix(reference, "reference")
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
    diff = est * scales - ref
    return float(np.sqrt((diff * diff).mean())), scales


def evaluate_unmixing(phi_est, phi_ref, w_est=None, w_ref=None):
    """Match endmembers and, when abundances are supplied, score them too.

    Returns the MatchResult with ``abundance_rmse`` and
    ``abundance_scales`` filled in when both abundance matrices are
    given (scored over the endmember matching's pairs).
    """
    result = match_columns(phi_est, phi_ref)
    if w_est is not None and w_ref is not None:
        w_est = as_matrix(w_est, "w_est")
        w_ref = as_matrix(w_ref, "w_ref")
        if w_est.shape[1] != np.asarray(phi_est).shape[1]:
            raise ValueError("w_est has %d columns but phi_est has %d"
                             % (w_est.shape[1], np.asarray(phi_est).shape[1]))
        if w_ref.shape[1] != np.asarray(phi_ref).shape[1]:
            raise ValueError("w_ref has %d columns but phi_ref has %d"
                             % (w_ref.shape[1], np.asarray(phi_ref).shape[1]))
        rmse, scales = abundance_rmse(w_est, w_ref, result.permutation)
        result.abundance_rmse = rmse
        result.abundance_scales = scales
    return result
