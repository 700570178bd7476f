"""Initialization strategies: uniform draws, vertex extraction, NNLS."""

import tracemalloc

import numpy as np
import pytest
import scipy.optimize

import oracles
from slrnmf.initializers import (
    _centred_gram,
    _eigh_descending,
    _estimate_snr,
    init_uniform,
    init_vca,
    nnls_abundances,
)
from slrnmf.metrics import match_columns
from slrnmf.model import _pixel_block
from slrnmf.synth import simulate

EPS = np.finfo(np.float64).eps


def simplex_scene(seed, l=50, k=300, n=4, sigma=0.0, pure=True):
    """Pixels on the simplex spanned by n separated spectra.

    The first n pixels are the pure vertices when ``pure`` is set; the
    rest are interior points with sum-to-one abundances.
    """
    rng = np.random.default_rng(seed)
    phi = np.zeros((l, n))
    width = l // n
    for j in range(n):
        phi[j * width:(j + 1) * width, j] = rng.uniform(0.7, 1.0, width)
    phi += rng.uniform(0.02, 0.1, size=(l, n))
    w = rng.dirichlet(np.full(n, 0.7), size=k)
    if pure:
        w[:n] = np.eye(n)
    y = phi @ w.T
    if sigma > 0.0:
        y = y + rng.normal(0.0, sigma, size=y.shape)
    return np.maximum(y, 0.0), phi


def test_init_uniform_shapes_and_determinism():
    phi, w = init_uniform(7, 11, 3, seed=42)
    assert phi.shape == (7, 3)
    assert w.shape == (11, 3)
    assert phi.min() >= 0.0 and phi.max() <= 1.0
    assert w.min() >= 0.0 and w.max() <= 1.0
    phi2, w2 = init_uniform(7, 11, 3, seed=42)
    assert np.array_equal(phi, phi2)
    assert np.array_equal(w, w2)
    phi3, _ = init_uniform(7, 11, 3, seed=43)
    assert not np.array_equal(phi, phi3)


def test_init_uniform_validates():
    with pytest.raises(ValueError, match=">= 1"):
        init_uniform(0, 5, 2, seed=0)
    for args in [(5.9, 6, 2), (5, 6.5, 2), (5, 6, 2.5)]:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            init_uniform(*args, seed=0)


def test_vca_recovers_pure_pixels_noiseless():
    y, phi_true = simplex_scene(0)
    est = init_vca(y, 4, seed=0)
    assert est.shape == (50, 4)
    m = match_columns(est, phi_true)
    assert m.per_pair_sam_degrees.max() < 0.5
    # every estimate is an actual pixel of y
    for j in range(4):
        assert (np.abs(y - est[:, [j]]) < 1e-12).all(axis=0).any()


def test_vca_recovers_under_small_noise():
    y, phi_true = simplex_scene(3, sigma=1e-4)
    est = init_vca(y, 4, seed=1)
    m = match_columns(est, phi_true)
    assert m.per_pair_sam_degrees.max() < 1.0


def test_vca_low_snr_branch_still_selects_pixels():
    y, _ = simplex_scene(5, sigma=0.5)  # heavy noise forces the affine path
    est = init_vca(y, 3, seed=2)
    assert est.shape == (50, 3)
    assert (est >= 0.0).all()
    clamped = np.maximum(y, 0.0)
    for j in range(3):
        assert (np.abs(clamped - est[:, [j]]) < 1e-12).all(axis=0).any()


def test_vca_rank_one_picks_strongest_pixel():
    y, _ = simplex_scene(1, k=40)
    est = init_vca(y, 1, seed=0)
    assert est.shape == (50, 1)
    u, _, _ = np.linalg.svd(y, full_matrices=False)
    expected = int(np.argmax(np.abs(u[:, 0] @ y)))
    assert np.array_equal(est[:, 0], np.maximum(y[:, expected], 0.0))


def test_vca_validates_r():
    y, _ = simplex_scene(2, l=20, k=30)
    with pytest.raises(ValueError, match="r must be an integer >= 1"):
        init_vca(y, 0, seed=0)
    with pytest.raises(ValueError, match=r"\[1, min\(L, K\)\]"):
        init_vca(y, 21, seed=0)
    with pytest.raises(ValueError, match="r must be an integer >= 1"):
        init_vca(y, 3.7, seed=0)


def test_vca_names_the_deficient_dimension_on_flat_data():
    with pytest.raises(ValueError, match="rank deficient"):
        init_vca(np.zeros((10, 15)), 3, seed=0)
    # rank-1 data cannot span a 3-dimensional projection either
    rng = np.random.default_rng(0)
    y = np.outer(rng.uniform(0.5, 1.0, 10), rng.uniform(0.5, 1.0, 15))
    with pytest.raises(ValueError, match="rank deficient"):
        init_vca(y, 3, seed=0)


def vca_scene(seed, k=900):
    """A scene of the VCA acceptance protocol (224 bands, 3 sources)."""
    return simulate(l=224, k=k, n=3, density=0.5, sigma=1e-3, seed=seed)[0]


def test_vca_matches_scipy_svd_oracle():
    """The eigenbases of the pixel-blocked Grams, taken by numpy's ``eigh``,
    pick bitwise the same endmembers as scipy's ``eigh`` of the Grams formed
    in one product: on the 10 VCA acceptance scenes, a low-SNR scene that
    takes the affine projection, and the rank-one path."""
    cases = [(vca_scene(seed), 8, seed) for seed in range(10)]
    y_noisy, _ = simplex_scene(5, sigma=0.5)
    mean = y_noisy.mean(axis=1)
    centred = _centred_gram(y_noisy, mean)
    k = y_noisy.shape[1]
    snr = _estimate_snr(np.linalg.eigvalsh(centred)[::-1],
                        float(np.trace(centred)) + k * float(mean @ mean), mean, k, 3)
    assert snr <= 15.0 + 10.0 * np.log10(3)  # the affine branch runs
    cases.append((y_noisy, 3, 2))
    cases.append((cases[0][0], 1, 0))
    cases.append((simplex_scene(1, k=40)[0], 1, 0))
    for y, r, seed in cases:
        assert np.array_equal(init_vca(y, r, seed), oracles.scipy_init_vca(y, r, seed))


@pytest.mark.parametrize("k", [900, 10_000])
def test_vca_subspaces_match_the_svd_within_the_precision_argument(k):
    """The top eigenvectors of the raw and centred Grams span the SVD's
    leading subspaces to within u sigma_1^2 / (sigma_r^2 - sigma_{r+1}^2),
    the bound in ``init_vca``'s docstring, at the ranks VCA uses (r = 8 for
    the projective branch and the SNR, r - 1 = 7 for the affine one); at
    K = 10,000 the Gram is summed over three pixel blocks."""
    assert (k > 2 * _pixel_block(224)) == (k == 10_000)
    for seed in range(10) if k == 900 else (0,):
        y = vca_scene(seed, k)
        mean = y.mean(axis=1)
        centred = _centred_gram(y, mean)
        raw = centred + k * np.outer(mean, mean)
        for gram, data, r in ((raw, y, 8), (centred, y - mean[:, None], 8),
                              (centred, y - mean[:, None], 7)):
            basis = _eigh_descending(gram)[1][:, :r]
            u, s, _ = np.linalg.svd(data, full_matrices=False)
            sin_angle = np.linalg.norm(u[:, :r] - basis @ (basis.T @ u[:, :r]), 2)
            bound = EPS * s[0] ** 2 / (s[r - 1] ** 2 - s[r] ** 2)
            assert sin_angle <= bound, (seed, r, sin_angle / bound)


def test_vca_eigenvectors_have_a_canonical_sign():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 30))
    evals, evecs = _eigh_descending(a @ a.T)
    assert (np.diff(evals) <= 0.0).all()
    lead = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(12)]
    assert (lead > 0.0).all()
    assert np.allclose(evecs @ np.diag(evals) @ evecs.T, a @ a.T)


def test_vca_holds_no_full_size_temporary():
    # 224 x 40,000 in nine pixel blocks: Y is 71.7 MB.  The call holds one
    # centred block (0.117 x y.nbytes) with the two L-by-L Grams (0.006
    # each), then r-by-K projections (0.036 at r = 8); an L-by-K temporary
    # alone would be 1.0.
    y = vca_scene(0, 40_000)
    assert y.shape[1] >= 4 * _pixel_block(224)
    tracemalloc.start()
    try:
        init_vca(y, 8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * y.nbytes, "peak %.3f x y.nbytes" % (peak / y.nbytes)


def test_vca_pixel_choice_is_invariant_to_pixel_order():
    """Permuting the pixels permutes nothing VCA picks: the Gram sums the
    same products in another order, which moves the projections only in
    the last digits."""
    for seed in range(10):
        y = vca_scene(seed)
        perm = np.random.default_rng(seed).permutation(y.shape[1])
        assert np.array_equal(init_vca(y[:, perm], 8, seed), init_vca(y, 8, seed)), seed


def test_nnls_matches_scipy_reference():
    rng = np.random.default_rng(7)
    phi = rng.uniform(0.0, 1.0, size=(12, 4))
    w_true = np.maximum(rng.normal(0.3, 0.4, size=(9, 4)), 0.0)
    y = phi @ w_true.T + rng.normal(0.0, 0.01, size=(12, 9))
    ours = nnls_abundances(y, phi)
    assert ours.shape == (9, 4)
    assert (ours >= 0.0).all()
    for k in range(9):
        ref, _ = scipy.optimize.nnls(phi, y[:, k])
        assert np.allclose(ours[k], ref, atol=1e-6)


def test_nnls_zero_norm_column_gets_zero_abundance():
    rng = np.random.default_rng(8)
    phi = rng.uniform(0.2, 1.0, size=(10, 3))
    phi[:, 1] = 0.0
    y = rng.uniform(0.0, 1.0, size=(10, 6))
    w = nnls_abundances(y, phi)
    assert (w[:, 1] == 0.0).all()
    for k in range(6):
        ref, _ = scipy.optimize.nnls(phi[:, [0, 2]], y[:, k])
        assert np.allclose(w[k, [0, 2]], ref, atol=1e-6)


def test_nnls_validates_shapes():
    with pytest.raises(ValueError, match="expected L="):
        nnls_abundances(np.ones((5, 4)), np.ones((6, 2)))
