"""Scoring: spectral angles, column matching, abundance error."""

import math

import numpy as np
import pytest
import scipy.optimize

import oracles
import slrnmf.metrics
from slrnmf.metrics import (
    _angle_matrix,
    _assignment,
    abundance_rmse,
    evaluate_unmixing,
    match_columns,
    spectral_angle,
)


def test_spectral_angle_known_values():
    assert spectral_angle([1, 0], [1, 0]) == pytest.approx(0.0, abs=1e-12)
    assert spectral_angle([1, 0], [0, 1]) == pytest.approx(90.0, rel=1e-12)
    assert spectral_angle([1, 0], [1, 1]) == pytest.approx(45.0, rel=1e-12)
    # cos = 2 / (sqrt(2) * sqrt(3))
    assert spectral_angle([1, 1, 0], [1, 1, 1]) == pytest.approx(35.26438968, rel=1e-9)
    assert spectral_angle([1, 0], [-1, 0]) == pytest.approx(180.0, rel=1e-12)


def test_spectral_angle_scale_invariance():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.1, 1.0, 20)
    b = rng.uniform(0.1, 1.0, 20)
    base = spectral_angle(a, b)
    assert spectral_angle(3.7 * a, b) == pytest.approx(base, rel=1e-12)
    assert spectral_angle(a, 0.002 * b) == pytest.approx(base, rel=1e-12)


def test_spectral_angle_validation():
    with pytest.raises(ValueError, match="zero vector"):
        spectral_angle([0, 0], [1, 0])
    with pytest.raises(ValueError, match="different lengths"):
        spectral_angle([1, 0], [1, 0, 0])


def _angle_cost(est, ref):
    cost = np.zeros((est.shape[1], ref.shape[1]))
    for i in range(est.shape[1]):
        for j in range(ref.shape[1]):
            cost[i, j] = spectral_angle(est[:, i], ref[:, j])
    return cost


@pytest.mark.parametrize("seed,n_est,n_ref", [
    (0, 4, 4), (1, 3, 5), (2, 6, 4), (3, 5, 5), (4, 2, 6),
])
def test_match_columns_matches_exhaustive_assignment(seed, n_est, n_ref):
    rng = np.random.default_rng(seed)
    est = rng.uniform(0.05, 1.0, size=(15, n_est))
    ref = rng.uniform(0.05, 1.0, size=(15, n_ref))
    result = match_columns(est, ref)
    cost = _angle_cost(est, ref)
    _, best_total = oracles.best_assignment(cost)
    ours_total = float(result.per_pair_sam_degrees.sum())
    assert ours_total == pytest.approx(best_total, rel=1e-10)
    assert result.permutation.shape == (min(n_est, n_ref), 2)
    assert result.rank_correct == (n_est == n_ref)
    assert result.unmatched_estimated.size == n_est - min(n_est, n_ref)
    assert result.unmatched_reference.size == n_ref - min(n_est, n_ref)


def test_assignment_is_exact_against_brute_force():
    """Every shape up to 7 x 7, both orientations: random angles (no ties),
    angles rounded to 30 degrees (many ties), and the 180-degree rows and
    columns ``_angle_matrix`` gives zero spectra.  The total equals the
    exhaustive optimum exactly (both summed with ``math.fsum``); without
    ties the pairs are scipy's."""
    rng = np.random.default_rng(12)
    for n_est in range(1, 8):
        for n_ref in range(1, 8):
            est = rng.uniform(0.05, 1.0, size=(6, n_est))
            ref = rng.uniform(0.05, 1.0, size=(6, n_ref))
            est[:, rng.random(n_est) < 0.2] = 0.0
            ref[:, rng.random(n_ref) < 0.2] = 0.0
            angles = _angle_matrix(est, ref)
            random = rng.uniform(0.0, 180.0, size=angles.shape)
            for cost in (random, angles, np.round(random / 30.0) * 30.0,
                         np.round(angles / 30.0) * 30.0):
                rows, cols = _assignment(cost)
                assert rows.size == min(cost.shape)
                assert np.array_equal(rows, np.sort(rows))
                assert np.unique(cols).size == cols.size
                best_pairs, _ = oracles.best_assignment(cost)
                assert (math.fsum(cost[rows, cols])
                        == math.fsum(cost[i, j] for i, j in best_pairs)), cost
            ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(random)
            rows, cols = _assignment(random)
            assert np.array_equal(rows, ref_rows)
            assert np.array_equal(cols, ref_cols)


def test_match_columns_recovers_a_shuffle():
    rng = np.random.default_rng(5)
    ref = rng.uniform(0.05, 1.0, size=(30, 5))
    perm = np.array([3, 0, 4, 1, 2])
    est = ref[:, perm] * rng.uniform(0.5, 2.0, size=5)  # scaled copies
    result = match_columns(est, ref)
    assert result.per_pair_sam_degrees.max() < 1e-4
    assert result.mean_sam_degrees < 1e-4
    # estimated column i is ref column perm[i]
    assert np.array_equal(result.permutation[:, 0], np.arange(5))
    assert np.array_equal(result.permutation[:, 1], perm)


def test_match_columns_tolerates_zero_columns():
    rng = np.random.default_rng(6)
    ref = rng.uniform(0.1, 1.0, size=(10, 3))
    est = ref.copy()
    est[:, 1] = 0.0
    result = match_columns(est, ref)
    pairs = {tuple(p) for p in result.permutation}
    assert (0, 0) in pairs and (2, 2) in pairs
    idx = list(result.permutation[:, 0]).index(1)
    assert result.per_pair_sam_degrees[idx] == 180.0


def test_match_columns_validation():
    with pytest.raises(ValueError, match="row counts differ"):
        match_columns(np.ones((4, 2)), np.ones((5, 2)))


def test_rank_zero_estimate_scores_as_no_match():
    # A solve that pruned every column is scored, not refused: no pairs,
    # every reference column unmatched, and no angle or abundance error.
    rng = np.random.default_rng(11)
    phi_ref = rng.uniform(0.1, 1.0, size=(10, 3))
    w_ref = rng.uniform(0.0, 1.0, size=(12, 3))
    result = evaluate_unmixing(np.ones((10, 0)), phi_ref, np.ones((12, 0)), w_ref)
    assert result.permutation.shape == (0, 2)
    assert result.per_pair_sam_degrees.size == 0
    assert math.isnan(result.mean_sam_degrees)
    assert result.unmatched_estimated.size == 0
    assert result.unmatched_reference.tolist() == [0, 1, 2]
    assert not result.rank_correct
    assert result.abundance_rmse is None
    assert result.abundance_scales is None


def test_abundance_rmse_resolves_scale():
    rng = np.random.default_rng(7)
    ref = rng.uniform(0.0, 1.0, size=(40, 3))
    est = ref * 2.0
    perm = np.stack([np.arange(3), np.arange(3)], axis=1)
    rmse, scales = abundance_rmse(est, ref, perm)
    assert rmse == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(scales, 0.5)


def test_abundance_rmse_hand_example():
    est = np.array([[1.0], [0.0]])
    ref = np.array([[0.0], [1.0]])
    perm = np.array([[0, 0]])
    rmse, scales = abundance_rmse(est, ref, perm)
    # best scale is 0, leaving the reference untouched
    assert scales[0] == 0.0
    assert rmse == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_abundance_rmse_zero_estimate_gets_zero_scale():
    ref = np.ones((5, 2))
    est = np.zeros((5, 2))
    perm = np.stack([np.arange(2), np.arange(2)], axis=1)
    rmse, scales = abundance_rmse(est, ref, perm)
    assert (scales == 0.0).all()
    assert rmse == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("m", [1, 3, 4])
def test_abundance_rmse_matches_the_direct_difference(m):
    """The matched difference is formed in place, bitwise the direct
    est * scales - ref, and the inputs are left as they were."""
    rng = np.random.default_rng(20 + m)
    est_all = rng.uniform(0.0, 1.0, size=(60, 5))
    ref_all = rng.uniform(0.0, 1.0, size=(60, 4))
    est_all[:, 2] = 0.0  # a zero column takes scale 0
    perm = np.stack([rng.permutation(5)[:m], rng.permutation(4)[:m]], axis=1)
    given = est_all.copy(), ref_all.copy()
    rmse, scales = abundance_rmse(est_all, ref_all, perm)
    est, ref = est_all[:, perm[:, 0]], ref_all[:, perm[:, 1]]
    energy = (est * est).sum(axis=0)
    direct_scales = np.where(energy > 0.0, (est * ref).sum(axis=0)
                             / np.where(energy > 0.0, energy, 1.0), 0.0)
    diff = est * direct_scales - ref
    assert np.array_equal(scales, direct_scales)
    assert rmse == float(np.sqrt((diff * diff).mean()))
    assert np.array_equal(est_all, given[0]) and np.array_equal(ref_all, given[1])


def test_abundance_rmse_validation():
    with pytest.raises(ValueError, match="row counts"):
        abundance_rmse(np.ones((3, 2)), np.ones((4, 2)), np.array([[0, 0]]))
    with pytest.raises(ValueError, match="empty"):
        abundance_rmse(np.ones((3, 2)), np.ones((3, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match=r"\(m, 2\)"):
        abundance_rmse(np.ones((3, 2)), np.ones((3, 2)), np.array([0, 0]))


def test_evaluate_unmixing_fills_abundance_fields():
    rng = np.random.default_rng(8)
    phi_ref = rng.uniform(0.1, 1.0, size=(20, 3))
    w_ref = rng.uniform(0.0, 1.0, size=(25, 3))
    perm = np.array([2, 0, 1])
    phi_est = phi_ref[:, perm]
    w_est = w_ref[:, perm] * 1.7
    result = evaluate_unmixing(phi_est, phi_ref, w_est, w_ref)
    assert result.mean_sam_degrees < 1e-8
    assert result.abundance_rmse == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(result.abundance_scales, 1 / 1.7)
    assert result.rank_correct


def test_evaluate_unmixing_scans_each_matrix_once(monkeypatch):
    """Each of the four matrices passes the input rules once: the scored
    abundances are not scanned again by the RMSE, whose value and scales
    are those of the public ``abundance_rmse``."""
    rng = np.random.default_rng(11)
    phi_ref = rng.uniform(0.1, 1.0, size=(20, 3))
    w_ref = rng.uniform(0.0, 1.0, size=(25, 3))
    phi_est = phi_ref[:, [1, 2, 0]] + 0.01
    w_est = w_ref[:, [1, 2, 0]] * 0.8
    seen = []
    as_matrix = slrnmf.metrics.as_matrix

    def counting(a, name="matrix", **kwargs):
        seen.append(name)
        return as_matrix(a, name, **kwargs)

    monkeypatch.setattr(slrnmf.metrics, "as_matrix", counting)
    result = evaluate_unmixing(phi_est, phi_ref, w_est, w_ref)
    assert sorted(seen) == ["estimated", "reference", "w_est", "w_ref"]
    rmse, scales = abundance_rmse(w_est, w_ref, result.permutation)
    assert result.abundance_rmse == rmse
    assert np.array_equal(result.abundance_scales, scales)


def test_evaluate_unmixing_without_abundances():
    rng = np.random.default_rng(9)
    phi = rng.uniform(0.1, 1.0, size=(10, 2))
    result = evaluate_unmixing(phi, phi)
    assert result.abundance_rmse is None
    assert result.abundance_scales is None


def test_evaluate_unmixing_validates_columns():
    rng = np.random.default_rng(10)
    phi = rng.uniform(0.1, 1.0, size=(10, 2))
    w_bad = rng.uniform(0.0, 1.0, size=(12, 3))
    with pytest.raises(ValueError, match="phi_est and w_est disagree on the "
                                         "number of columns: 2 vs 3"):
        evaluate_unmixing(phi, phi, w_bad, w_bad)
    with pytest.raises(ValueError, match="phi_ref and w_ref disagree on the "
                                         "number of columns: 2 vs 3"):
        evaluate_unmixing(phi, phi, w_bad[:, :2], w_bad)
