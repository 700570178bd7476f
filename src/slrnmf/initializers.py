"""Starting points for the alternating solver.

Two strategies: i.i.d. uniform random factors, and vertex component
analysis (VCA), which projects the pixels to an r-dimensional subspace
and iteratively picks the extreme pixel along directions orthogonal to
the endmembers found so far.  VCA returns actual pixel spectra; the
companion abundances come from a nonnegative least-squares fit.
"""

import numpy as np

from .model import as_matrix

__all__ = ["init_uniform", "init_vca", "nnls_abundances"]

_SNR_EPS = 1e-12


def init_uniform(l, k, r, seed):
    """Uniform [0, 1] random factors: phi (L, r) drawn first, then w (K, r)."""
    l = int(l)
    k = int(k)
    r = int(r)
    if l < 1 or k < 1 or r < 1:
        raise ValueError("l, k, r must all be >= 1, got l=%d k=%d r=%d"
                         % (l, k, r))
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 1.0, size=(l, r))
    w = rng.uniform(0.0, 1.0, size=(k, r))
    return phi, w


def _check_spanned(svals, needed, what):
    if needed == 0:
        return
    smax = svals[0] if svals.size else 0.0
    cutoff = max(svals.size, needed) * np.finfo(np.float64).eps * smax
    for i in range(needed):
        s = svals[i] if i < svals.size else 0.0
        if s <= cutoff:
            raise ValueError(
                "%s is rank deficient: dimension %d of %d has singular value "
                "%.6e (tolerance %.6e)" % (what, i + 1, needed, s, cutoff))


def _estimate_snr(y, y_centered, y_mean, u, r):
    # Power split between the principal subspace u[:, :r] and the rest.
    l, k = y.shape
    x_p = u[:, :r].T @ y_centered
    p_y = float((y * y).sum()) / k
    p_x = float((x_p * x_p).sum()) / k + float(y_mean @ y_mean)
    num = p_x - (r / l) * p_y
    den = p_y - p_x
    if den <= _SNR_EPS * max(p_y, 1.0):
        return np.inf
    if num <= 0.0:
        return -np.inf
    return 10.0 * np.log10(num / den)


def init_vca(y, r, seed):
    """Vertex component analysis endmember extraction.

    Estimates the SNR from an r-dimensional principal subspace and picks
    the projection accordingly: high SNR uses the top-r subspace of the
    raw correlation with a projective (perspective) normalization, low
    SNR uses r-1 principal components of the centered data lifted by a
    constant coordinate.  Extreme pixels are then selected one at a time
    along random directions orthogonal to the current selection.

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
    r = int(r)
    if not 1 <= r <= min(l, k):
        raise ValueError("r must be in [1, min(L, K)] = [1, %d], got %d"
                         % (min(l, k), r))

    if r == 1:
        u, svals, _ = np.linalg.svd(y, full_matrices=False)
        _check_spanned(svals, 1, "projected data")
        scores = u[:, 0] @ y
        return np.maximum(y[:, [int(np.argmax(np.abs(scores)))]], 0.0)

    y_mean = y.mean(axis=1)
    y_centered = y - y_mean[:, None]
    u_c, svals_c = np.linalg.svd(y_centered, full_matrices=False)[:2]
    snr = _estimate_snr(y, y_centered, y_mean, u_c, r)
    snr_threshold = 15.0 + 10.0 * np.log10(r)

    if snr > snr_threshold:
        # Projective projection onto the top-r subspace of the raw
        # correlation; pixels are normalized by their inner product with
        # the mean projection (near-zero denominators are zeroed out).
        u, svals, _ = np.linalg.svd(y, full_matrices=False)
        _check_spanned(svals, r, "projected data")
        x_p = u[:, :r].T @ y
        center = x_p.mean(axis=1)
        denom = x_p.T @ center
        bad = np.abs(denom) <= 1e-12 * max(float(np.abs(denom).max()), 1e-300)
        denom = np.where(bad, 1.0, denom)
        points = x_p / denom
        points[:, bad] = 0.0
    else:
        # Affine projection: r-1 principal components of the centered
        # data plus a constant lift sized to the largest projection.
        _check_spanned(svals_c, r - 1, "projected centered data")
        x_p = u_c[:, :r - 1].T @ y_centered
        c = float(np.sqrt((x_p * x_p).sum(axis=0)).max())
        points = np.vstack([x_p, np.full((1, k), c)])

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


def nnls_abundances(y, phi, tol=1e-8, max_sweeps=1000):
    """Nonnegative least-squares abundances for fixed endmembers.

    Minimizes ||y - phi w^T||_F^2 over w >= 0 by cyclic projected
    coordinate descent, vectorized across pixels.  Columns of ``phi``
    with zero norm get zero abundances.

    Returns
    -------
    (K, r) array
    """
    y = as_matrix(y, "y")
    phi = as_matrix(phi, "phi")
    if phi.shape[0] != y.shape[0]:
        raise ValueError("phi has %d rows, expected L=%d"
                         % (phi.shape[0], y.shape[0]))
    tol = float(tol)
    gram = phi.T @ phi
    rhs = phi.T @ y
    r = phi.shape[1]
    diag = np.diag(gram).copy()
    active = diag > 0.0
    w = np.zeros((r, y.shape[1]))
    for _ in range(max_sweeps):
        biggest = 0.0
        for j in range(r):
            if not active[j]:
                continue
            step = (rhs[j] - gram[j] @ w) / diag[j]
            new = np.maximum(w[j] + step, 0.0)
            biggest = max(biggest, float(np.abs(new - w[j]).max()))
            w[j] = new
        if biggest <= tol * max(1.0, float(np.abs(w).max())):
            break
    return w.T.copy()
