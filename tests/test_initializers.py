"""Initialization strategies: uniform draws, vertex extraction, NNLS."""

import numpy as np
import pytest
import scipy.optimize

import oracles
from slrnmf.initializers import _estimate_snr, init_uniform, init_vca, nnls_abundances
from slrnmf.metrics import match_columns
from slrnmf.synth import simulate


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
    with pytest.raises(ValueError, match=r"\[1, min\(L, K\)\]"):
        init_vca(y, 0, seed=0)
    with pytest.raises(ValueError, match=r"\[1, min\(L, K\)\]"):
        init_vca(y, 21, seed=0)


def test_vca_names_the_deficient_dimension_on_flat_data():
    with pytest.raises(ValueError, match="rank deficient"):
        init_vca(np.zeros((10, 15)), 3, seed=0)
    # rank-1 data cannot span a 3-dimensional projection either
    rng = np.random.default_rng(0)
    y = np.outer(rng.uniform(0.5, 1.0, 10), rng.uniform(0.5, 1.0, 15))
    with pytest.raises(ValueError, match="rank deficient"):
        init_vca(y, 3, seed=0)


def test_vca_matches_scipy_svd_oracle():
    """numpy's SVD (LAPACK gesdd, as scipy's default) picks bitwise the same
    endmembers: on the 10 VCA acceptance scenes, a low-SNR scene that takes
    the affine projection, and the rank-one path."""
    cases = []
    for seed in range(10):
        y, _ = simulate(l=224, k=900, n=3, density=0.5, sigma=1e-3, seed=seed)
        cases.append((y, 8, seed))
    y_noisy, _ = simplex_scene(5, sigma=0.5)
    centered = y_noisy - y_noisy.mean(axis=1)[:, None]
    u = np.linalg.svd(centered, full_matrices=False)[0]
    snr = _estimate_snr(y_noisy, centered, y_noisy.mean(axis=1), u, 3)
    assert snr <= 15.0 + 10.0 * np.log10(3)  # the affine branch runs
    cases.append((y_noisy, 3, 2))
    cases.append((cases[0][0], 1, 0))
    cases.append((simplex_scene(1, k=40)[0], 1, 0))
    for y, r, seed in cases:
        assert np.array_equal(init_vca(y, r, seed), oracles.scipy_init_vca(y, r, seed))


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
