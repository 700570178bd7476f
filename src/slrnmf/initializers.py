"""Starting points for the alternating solver.

Two strategies: i.i.d. uniform random factors, and vertex component
analysis (VCA), which projects the pixels to an r-dimensional subspace
and iteratively picks the extreme pixel along directions orthogonal to
the endmembers found so far.  VCA returns actual pixel spectra; the
companion abundances come from a nonnegative least-squares fit.
"""

import numpy as np

from .model import _column_dots, _pixel_block, as_integer, as_matrix, check_dims

__all__ = ["init_uniform", "init_vca", "nnls_abundances"]

_SNR_EPS = 1e-12


def init_uniform(l, k, r, seed):
    """Uniform [0, 1] random factors: phi (L, r) drawn first, then w (K, r);
    ``l``, ``k`` and ``r`` must be whole numbers >= 1."""
    l = as_integer(l, "l", 1)
    k = as_integer(k, "k", 1)
    r = as_integer(r, "r", 1)
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 1.0, size=(l, r))
    w = rng.uniform(0.0, 1.0, size=(k, r))
    return phi, w


def _check_spanned(evals, needed, what):
    """Raise unless the first ``needed`` of the descending Gram eigenvalues
    ``evals`` exceed n u lambda_max, n the order of the Gram."""
    if needed == 0:
        return
    cutoff = evals.size * np.finfo(np.float64).eps * max(float(evals[0]), 0.0)
    for i in range(needed):
        if evals[i] <= cutoff:
            raise ValueError(
                "%s is rank deficient: dimension %d of %d has Gram eigenvalue "
                "%.6e (tolerance %.6e)" % (what, i + 1, needed, evals[i], cutoff))


def _estimate_snr(c_evals, g_trace, mean, k, r):
    """SNR in dB of the top-r principal subspace, from the descending
    eigenvalues of the centred Gram and the trace of the raw one."""
    p_y = g_trace / k
    p_x = float(c_evals[:r].sum()) / k + float(mean @ mean)
    num = p_x - (r / c_evals.size) * p_y
    den = p_y - p_x
    if den <= _SNR_EPS * max(p_y, 1.0):
        return np.inf
    if num <= 0.0:
        return -np.inf
    return 10.0 * np.log10(num / den)


def _centred_gram(y, mean):
    """C = sum_b (Y_b - m 1^T)(Y_b - m 1^T)^T over the pixel blocks Y_b of
    ``Objective.total``, holding one centred block (at most 8 MiB) at a time."""
    step = _pixel_block(y.shape[0])
    return sum(_self_gram(y[:, j:j + step] - mean[:, None])
               for j in range(0, y.shape[1], step))


def _self_gram(a):
    # ``a`` is freed on return, so no two centred blocks are held at once.
    return a @ a.T


def _eigh_descending(gram):
    """Eigenpairs of the symmetric ``gram``, largest first, each eigenvector's
    largest-magnitude entry made positive so the basis does not depend on
    the LAPACK driver's sign choice."""
    evals, evecs = np.linalg.eigh(gram)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    lead = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(evecs.shape[1])]
    return evals, evecs * np.where(lead < 0.0, -1.0, 1.0)


def init_vca(y, r, seed):
    """Vertex component analysis endmember extraction (Nascimento and
    Bioucas-Dias, IEEE TGRS 2005).

    Both projections come from one L-by-L Gram: the centred Gram
    C = sum_b (Y_b - m 1^T)(Y_b - m 1^T)^T, formed one pixel block at a
    time, and the raw Gram G = Y Y^T = C + K m m^T, a sum of positive
    semidefinite terms, so nothing cancels.  The SNR is estimated from
    C's eigenvalues, p_y = tr(G) / K against p_x = sum_{i<r} lambda_i(C) / K
    + m^T m, and picks the projection: high SNR uses the top-r eigenvectors
    of G with a projective (perspective) normalization, low SNR uses the
    top r-1 eigenvectors of C lifted by a constant coordinate (r = 1 takes
    G's top eigenvector).  The projections are formed as U^T Y - (U^T m) 1^T,
    so no L-by-K temporary exists.  Extreme pixels are then selected one at
    a time along random directions orthogonal to the current selection.

    Precision (u the unit roundoff, sigma_i the singular values of the
    centred or raw data, so sigma_i^2 are its Gram's eigenvalues).  Summing
    the Gram perturbs it by at most gamma_n |Y| |Y|^T entrywise (n = B +
    K / B for blocks of B pixels), and ``eigh`` is backward stable, so the
    computed eigenpairs are exact for a Gram perturbed by about u sigma_1^2
    in norm.  An eigenvalue thus errs by about u sigma_1^2 and, by Davis and
    Kahan, the top-r subspace angle by about u sigma_1^2 / (sigma_r^2 -
    sigma_{r+1}^2), against u sigma_1 / (sigma_r - sigma_{r+1}) for an SVD
    of the data.  Singular values below about sqrt(L u) sigma_1 are not
    resolved: the rank check rejects a projection whose Gram eigenvalue is
    at most L u lambda_max.  On the VCA protocol scenes (224 bands, noise
    1e-3) sigma_8 is 1e-4 to 7e-4 sigma_1, far above that floor (2.2e-7
    sigma_1), and the angle to the SVD's subspace measures below 0.5 u
    sigma_1^2 / (sigma_r^2 - sigma_{r+1}^2).

    Parameters
    ----------
    y : (L, K) array
        Observations, bands by pixels.
    r : int
        Number of endmembers to extract, 1 <= r <= min(L, K).
    seed : int
        Seed for the direction draws.

    Returns
    -------
    (L, r) array
        Selected pixel spectra (columns of ``y``), clamped at zero.

    Raises
    ------
    ValueError
        If r is out of range or the projected data does not span the
        required dimension (the message names the deficient one).
    """
    y = as_matrix(y, "y")
    l, k = y.shape
    r = as_integer(r, "r", 1)
    if r > min(l, k):
        raise ValueError("r must be in [1, min(L, K)] = [1, %d], got %d"
                         % (min(l, k), r))

    mean = y.mean(axis=1)
    centred = _centred_gram(y, mean)
    raw = centred + k * np.outer(mean, mean)

    c_evals = np.linalg.eigvalsh(centred)[::-1]
    snr = _estimate_snr(c_evals, float(np.trace(raw)), mean, k, r)

    if r == 1 or snr > 15.0 + 10.0 * np.log10(r):
        # Projective projection onto the top-r subspace of the raw
        # correlation; pixels are normalized by their inner product with
        # the mean projection (near-zero denominators are zeroed out).
        # At r = 1 the pixel with the largest projection is the endmember.
        evals, evecs = _eigh_descending(raw)
        _check_spanned(evals, r, "projected data")
        points = evecs[:, :r].T @ y
        if r == 1:
            return np.maximum(y[:, [int(np.argmax(np.abs(points[0])))]], 0.0)
        denom = points.T @ points.mean(axis=1)
        bad = np.abs(denom) <= 1e-12 * max(float(np.abs(denom).max()), 1e-300)
        points /= np.where(bad, 1.0, denom)
        points[:, bad] = 0.0
    else:
        # Affine projection: r-1 principal components of the centered
        # data plus a constant lift sized to the largest projection.
        evals, evecs = _eigh_descending(centred)
        _check_spanned(evals, r - 1, "projected centered data")
        basis = evecs[:, :r - 1]
        points = np.empty((r, k))
        np.matmul(basis.T, y, out=points[:-1])
        points[:-1] -= (basis.T @ mean)[:, None]
        points[-1] = float(np.sqrt(_column_dots(points[:-1], points[:-1])).max())

    rng = np.random.default_rng(seed)
    basis = np.zeros((r, r))
    basis[-1, 0] = 1.0
    indices = np.empty(r, dtype=np.int64)
    for i in range(r):
        for _ in range(100):
            direction = rng.standard_normal(r)
            f = direction - basis @ (np.linalg.pinv(basis) @ direction)
            norm = float(np.sqrt(f @ f))
            if norm > 1e-12:
                break
        else:
            raise ValueError(
                "could not find a direction orthogonal to the current "
                "selection at step %d; projected data may be degenerate" % (i + 1))
        f /= norm
        scores = f @ points
        indices[i] = int(np.argmax(np.abs(scores)))
        basis[:, i] = points[:, indices[i]]
    return np.maximum(y[:, indices], 0.0)


def nnls_abundances(y, phi):
    """Nonnegative least-squares abundances for fixed endmembers.

    Minimizes ||y - phi w^T||_F^2 over w >= 0 by cyclic projected
    coordinate descent, vectorized across pixels, until a sweep moves no
    entry by more than 1e-8 times the largest (or 1), or for at most 1000
    sweeps.  Columns of ``phi`` with zero norm get zero abundances.

    Returns
    -------
    (K, r) array
    """
    y = as_matrix(y, "y")
    phi = as_matrix(phi, "phi")
    check_dims(y, phi, None)
    gram = phi.T @ phi
    rhs = phi.T @ y
    r = phi.shape[1]
    diag = np.diag(gram).copy()
    active = diag > 0.0
    w = np.zeros((r, y.shape[1]))
    for _ in range(1000):
        biggest = 0.0
        for j in range(r):
            if not active[j]:
                continue
            step = (rhs[j] - gram[j] @ w) / diag[j]
            new = np.maximum(w[j] + step, 0.0)
            biggest = max(biggest, float(np.abs(new - w[j]).max()))
            w[j] = new
        if biggest <= 1e-8 * max(1.0, float(np.abs(w).max())):
            break
    return w.T.copy()
