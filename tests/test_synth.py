"""Synthetic data generation: sparsity, determinism, noise, the library."""

import tracemalloc

import numpy as np
import pytest

import oracles
from slrnmf.io import load_matrix
from slrnmf.metrics import spectral_angle
from slrnmf.synth import (
    GroundTruth,
    default_library_path,
    gen_abundances,
    gen_endmembers,
    mix_and_noise,
    simulate,
)


def test_gen_abundances_exact_nonzero_count():
    w = gen_abundances(500, 4, 0.3, seed=0)
    assert w.shape == (500, 4)
    assert np.count_nonzero(w) == round(0.3 * 500 * 4)
    assert w.min() >= 0.0 and w.max() <= 1.0


def test_gen_abundances_full_density_keeps_everything():
    w = gen_abundances(20, 3, 1.0, seed=1)
    assert np.count_nonzero(w) == 60


def test_gen_abundances_determinism():
    a = gen_abundances(50, 3, 0.5, seed=9)
    b = gen_abundances(50, 3, 0.5, seed=9)
    c = gen_abundances(50, 3, 0.5, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gen_abundances_validates():
    with pytest.raises(ValueError, match="density"):
        gen_abundances(10, 2, 0.0, seed=0)
    with pytest.raises(ValueError, match="density"):
        gen_abundances(10, 2, 1.5, seed=0)
    with pytest.raises(ValueError, match=">= 1"):
        gen_abundances(0, 2, 0.5, seed=0)
    for args in [(4.5, 2), (4, 2.2)]:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            gen_abundances(*args, 0.5, seed=0)


def test_library_fixture_is_well_separated():
    lib = load_matrix(default_library_path())
    assert lib.shape == (224, 12)
    assert lib.min() >= 0.0
    worst = 180.0
    for i in range(lib.shape[1]):
        for j in range(i + 1, lib.shape[1]):
            worst = min(worst, spectral_angle(lib[:, i], lib[:, j]))
    assert worst > 40.0


def test_gen_endmembers_library_selects_distinct_columns():
    phi = gen_endmembers(224, 5, "library-file", seed=3)
    assert phi.shape == (224, 5)
    lib = load_matrix(default_library_path())
    picked = []
    for j in range(5):
        hits = [c for c in range(lib.shape[1])
                if np.array_equal(phi[:, j], lib[:, c])]
        assert len(hits) == 1
        picked.append(hits[0])
    assert len(set(picked)) == 5


def test_gen_endmembers_band_count_mismatch():
    with pytest.raises(ValueError, match="has 224 bands, expected 100"):
        gen_endmembers(100, 3, "library-file", seed=0)


def test_gen_endmembers_too_many_spectra():
    with pytest.raises(ValueError, match="only 12 spectra, need 13"):
        gen_endmembers(224, 13, "library-file", seed=0)


def test_gen_endmembers_unknown_source():
    with pytest.raises(ValueError, match="source must be one of"):
        gen_endmembers(10, 2, "mystery", seed=0)


def test_gen_endmembers_rejects_non_integral_sizes():
    for args in [(224.5, 3, "library-file"), (10, 2.5, "synthetic-smooth")]:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            gen_endmembers(*args, seed=0)


def test_gen_endmembers_custom_library(tmp_path):
    rng = np.random.default_rng(0)
    lib = rng.uniform(0.1, 1.0, size=(30, 6))
    path = tmp_path / "lib.csv"
    with open(path, "w") as fh:
        for row in lib:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    phi = gen_endmembers(30, 4, "library-file", seed=1, library_path=path)
    assert phi.shape == (30, 4)


def test_synthetic_smooth_spectra_are_smooth_and_positive():
    phi = gen_endmembers(224, 6, "synthetic-smooth", seed=4)
    assert phi.shape == (224, 6)
    assert phi.min() > 0.0
    ranges = phi.max(axis=0) - phi.min(axis=0)
    tv = oracles.total_variation(phi)
    assert (tv / ranges < 0.15).all()
    # white noise with the same range is far rougher
    noise = np.random.default_rng(4).uniform(0.0, 1.0, size=(224, 6))
    assert (oracles.total_variation(noise) > 0.25).all()


def test_mix_and_noise_exact_when_sigma_zero():
    rng = np.random.default_rng(5)
    truth = GroundTruth(phi_true=rng.uniform(0, 1, (10, 3)),
                        w_true=rng.uniform(0, 1, (20, 3)),
                        sigma=0.0, seed=7)
    y = mix_and_noise(truth)
    assert np.array_equal(y, truth.phi_true @ truth.w_true.T)


def test_mix_and_noise_clamp_behavior():
    truth = GroundTruth(phi_true=np.full((40, 1), 1e-4),
                        w_true=np.full((50, 1), 1e-4),
                        sigma=0.1, seed=3)
    clamped = mix_and_noise(truth)
    assert clamped.min() >= 0.0
    raw = mix_and_noise(truth, clamp=False)
    assert raw.min() < 0.0


def test_mix_and_noise_moments():
    rng = np.random.default_rng(6)
    truth = GroundTruth(phi_true=rng.uniform(0, 1, (60, 2)),
                        w_true=rng.uniform(0, 1, (80, 2)),
                        sigma=0.05, seed=11)
    noise = mix_and_noise(truth, clamp=False) - truth.phi_true @ truth.w_true.T
    n = noise.size
    assert abs(noise.mean()) < 5 * 0.05 / np.sqrt(n)
    assert abs(noise.std() - 0.05) < 5 * 0.05 / np.sqrt(2 * n)


@pytest.mark.parametrize("l, k, sigma, clamp", [
    (224, 500, 1e-3, True), (224, 5000, 1e-3, False), (7, 3, 0.5, False),
    (1, 1, 2.0, True), (30, 40, 0.0, True)])
def test_mix_and_noise_matches_whole_array_noise(l, k, sigma, clamp):
    """Noise added one band row at a time is bitwise the one L-by-K draw."""
    rng = np.random.default_rng(l + k)
    truth = GroundTruth(phi_true=rng.uniform(0, 1, (l, 3)),
                        w_true=rng.uniform(0, 0.01, (k, 3)),
                        sigma=sigma, seed=l * k)
    got = mix_and_noise(truth, clamp=clamp)
    want = oracles.mix_and_noise_whole(truth, clamp=clamp)
    assert got.tobytes() == want.tobytes()


def test_simulate_holds_one_observation_array():
    tracemalloc.start()
    try:
        y, _ = simulate(224, 5000, 4, 0.3, 1e-3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * y.nbytes, peak / y.nbytes


def test_simulate_splits_seed_streams():
    y_a, truth_a = simulate(30, 40, 3, 0.5, 1e-3, seed=8,
                            source="synthetic-smooth")
    y_b, truth_b = simulate(30, 40, 3, 0.5, 5e-2, seed=8,
                            source="synthetic-smooth")
    # changing sigma must not change the factors
    assert np.array_equal(truth_a.phi_true, truth_b.phi_true)
    assert np.array_equal(truth_a.w_true, truth_b.w_true)
    assert not np.array_equal(y_a, y_b)
    # same seed reproduces everything
    y_c, truth_c = simulate(30, 40, 3, 0.5, 1e-3, seed=8,
                            source="synthetic-smooth")
    assert np.array_equal(y_a, y_c)
    assert np.array_equal(truth_a.w_true, truth_c.w_true)


def test_simulate_source_changes_endmembers_not_abundances():
    _, truth_a = simulate(224, 30, 3, 0.5, 0.0, seed=2, source="library-file")
    _, truth_b = simulate(224, 30, 3, 0.5, 0.0, seed=2,
                          source="synthetic-smooth")
    assert np.array_equal(truth_a.w_true, truth_b.w_true)
    assert not np.array_equal(truth_a.phi_true, truth_b.phi_true)


def test_ground_truth_validation():
    phi = np.ones((5, 2))
    w = np.ones((7, 2))
    with pytest.raises(ValueError, match="phi_true and w_true disagree on the "
                                         "number of columns: 2 vs 3"):
        GroundTruth(phi_true=phi, w_true=np.ones((7, 3)), sigma=0.0, seed=0)
    with pytest.raises(ValueError, match="sigma"):
        GroundTruth(phi_true=phi, w_true=w, sigma=-0.1, seed=0)
    with pytest.raises(ValueError, match="negative"):
        GroundTruth(phi_true=-phi, w_true=w, sigma=0.0, seed=0)
    truth = GroundTruth(phi_true=phi, w_true=w, sigma=0.0, seed=0)
    assert truth.n == 2
