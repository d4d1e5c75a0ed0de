import math

import numpy as np
import pytest

from tokensieve import oracle
from tokensieve.rng import SplitMix64, gaussian_matrix
from tokensieve.similarity import l2_normalize_rows

SQ2 = np.sqrt(2)


def unit_gram(seed, n, d):
    return l2_normalize_rows(gaussian_matrix(seed, n, d)) @ \
        l2_normalize_rows(gaussian_matrix(seed, n, d)).T


def test_brute_force_identity_tie_break():
    subset, det = oracle.brute_force_map(np.eye(4), 2)
    assert subset == (0, 1)
    assert det == pytest.approx(1.0)
    assert oracle.brute_force_map(np.eye(4), np.int64(2)) == (subset, det)


def test_brute_force_mixed_vectors():
    h = np.array([[1.0, 0.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2]])
    subset, det = oracle.brute_force_map(h @ h.T, 2)
    assert subset == (0, 1)
    assert det == pytest.approx(1.0)
    # the other two pairs both come out at 0.5
    l = h @ h.T
    assert np.linalg.det(l[np.ix_([0, 2], [0, 2])]) == pytest.approx(0.5)


def test_brute_force_guards_subset_explosion():
    with pytest.raises(ValueError):
        oracle.brute_force_map(np.eye(40), 20)


def test_gram_det_examples():
    assert oracle.gram_det(np.eye(3)) == pytest.approx(1.0)
    dup = np.array([[1.0, 1.0], [0.0, 0.0]])  # duplicated column
    assert oracle.gram_det(dup) == 0.0
    v = np.array([[1.0, 1 / SQ2], [0.0, 1 / SQ2]])
    assert oracle.gram_det(v) == pytest.approx(0.5)


def test_volume_examples():
    assert oracle.parallelotope_volume(np.eye(3)) == pytest.approx(1.0)
    v = np.array([[1.0, 1 / SQ2], [0.0, 1 / SQ2]])
    assert oracle.parallelotope_volume(v) == pytest.approx(np.sqrt(0.5))
    assert abs(oracle.parallelotope_volume(v) - 0.70711) < 1e-5
    dep = np.array([[1.0, 2.0], [0.5, 1.0]])
    assert oracle.parallelotope_volume(dep) == pytest.approx(0.0, abs=1e-12)
    # more columns than dimensions
    wide = np.array([[1.0, 0.0, 1 / SQ2], [0.0, 1.0, 1 / SQ2]])
    assert oracle.parallelotope_volume(wide) == 0.0


def test_det_equals_squared_volume():
    for seed in range(50):
        rng = SplitMix64(seed)
        d = 2 + rng.next_below(9)
        k = 1 + rng.next_below(d)
        v = gaussian_matrix(rng.next_u64() >> 1, d, k)
        vol = oracle.parallelotope_volume(v)
        assert oracle.gram_det(v) == pytest.approx(vol * vol, rel=1e-8, abs=1e-12)


def test_rho_metrics_examples():
    m = oracle.rho_metrics(np.eye(3))
    assert (m.rho_max, m.rho_avg, m.rho_inf) == (0.0, 0.0, 0.0)
    eq = oracle.equicorrelation_matrix(4, 0.3)
    m = oracle.rho_metrics(eq)
    assert m.rho_max == pytest.approx(0.3)
    assert m.rho_avg == pytest.approx(0.3)
    assert m.rho_inf == pytest.approx(0.3)
    m = oracle.rho_metrics(np.array([[1.0, 0.2], [0.2, 1.0]]))
    assert (m.rho_max, m.rho_avg, m.rho_inf) == (0.2, 0.2, 0.2)


def test_gershgorin_examples():
    assert oracle.gershgorin_lower_bound(np.eye(3)) == pytest.approx(1.0)
    eq = oracle.equicorrelation_matrix(2, 0.5)
    lb = oracle.gershgorin_lower_bound(eq)
    assert lb == pytest.approx(0.25)
    assert lb <= np.linalg.det(eq) == pytest.approx(0.75)
    clamped = oracle.gershgorin_lower_bound(oracle.equicorrelation_matrix(3, 0.6))
    assert clamped == 0.0  # 1 - 2*0.6 clamps at zero


def test_refined_bound_examples():
    for k in range(2, 9):
        assert oracle.refined_upper_bound(k, 0.0) == pytest.approx(1.0)
    assert oracle.refined_upper_bound(5, 0.5) == pytest.approx(
        (1 + 4 * 0.5) * 0.5 ** 4) == pytest.approx(0.1875)
    assert oracle.refined_upper_bound(4, 1.0 - 1e-12) < 1e-11


def test_equicorrelation_matrix_forms():
    k = 5
    rho = -1.0 / (k - 1)
    sing = oracle.equicorrelation_matrix(k, rho)
    assert abs(np.linalg.det(sing)) < 1e-12
    np.testing.assert_array_equal(oracle.equicorrelation_matrix(3, 0.0), np.eye(3))
    with pytest.raises(ValueError):
        oracle.equicorrelation_matrix(4, -0.5)  # below -1/(k-1)


def test_equicorrelation_det_closed_form():
    for k in (2, 4, 7):
        for rho in (0.1, 0.45, 0.8):
            det = np.linalg.det(oracle.equicorrelation_matrix(k, rho))
            assert det == pytest.approx((1 + (k - 1) * rho) * (1 - rho) ** (k - 1))


def test_greedy_regularized_identity():
    picked, value = oracle.greedy_regularized(np.eye(4), 2)
    assert picked == [0, 1]
    assert value == pytest.approx(2 * math.log(2))


def test_greedy_regularized_rank_one():
    v = np.array([0.8, 0.6, 0.0])
    l = np.outer(v, v)
    _, value = oracle.greedy_regularized(l, 2)
    # second pick adds at most log(1 + delta) with delta ~ 0 on exact rank 1
    assert value == pytest.approx(math.log(1 + 1.0), abs=1e-8)


def test_greedy_regularized_guarantee_sample():
    for seed in range(20):
        l = unit_gram(seed, 8, 4)
        _, greedy_val = oracle.greedy_regularized(l, 3)
        _, opt_val = oracle.regularized_optimum(l, 3)
        assert greedy_val >= (1 - 1 / math.e) * opt_val - 1e-12


def test_greedy_regularized_rejects_non_psd():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(ValueError):
        oracle.greedy_regularized(m, 1)


def test_hadamard_margin_examples():
    assert oracle.hadamard_margin(np.eye(3)) == pytest.approx(0.0)
    for seed in range(30):
        assert oracle.hadamard_margin(unit_gram(seed, 5, 7)) >= -1e-12
    # three unit vectors in the plane: rank deficient, det 0, margin 1
    h = l2_normalize_rows(gaussian_matrix(1, 3, 2))
    assert oracle.hadamard_margin(h @ h.T) == pytest.approx(1.0, abs=1e-10)


def test_hadamard_requires_unit_diagonal():
    with pytest.raises(ValueError):
        oracle.hadamard_margin(2.0 * np.eye(3))


@pytest.mark.parametrize("call, match", [
    (lambda: oracle.brute_force_map(np.eye(3), 0), r"k must lie in \[1, 3\], got 0"),
    (lambda: oracle.brute_force_map(np.eye(3), 4), r"k must lie in \[1, 3\], got 4"),
    (lambda: oracle.rho_metrics(np.eye(1)), "square matrix with k >= 2"),
    (lambda: oracle.rho_metrics(np.ones((2, 3))), "square matrix with k >= 2"),
    # the id names the bound; the message is similarity._integer's
    pytest.param(lambda: oracle.refined_upper_bound(1, 0.0), r"^k must be >= 2, got 1$",
                 id="<lambda>-k >= 2"),
    (lambda: oracle.refined_upper_bound(3, -0.6), r"rho_avg must lie in \[-0.5, 1\]"),
    (lambda: oracle.equicorrelation_matrix(0, 0.0), "k must be >= 1"),
    (lambda: oracle.greedy_regularized(np.eye(3), 4), r"k must lie in \[1, 3\], got 4"),
    (lambda: oracle.greedy_walk(np.eye(3), 0, 1e-6), r"k must lie in \[1, 3\], got 0"),
    (lambda: oracle.regularized_optimum(np.eye(30), 15), r"C\(30,15\) exceeds"),
    (lambda: oracle.regularized_optimum(np.eye(3), 5), r"k must lie in \[1, 3\], got 5"),
    (lambda: oracle.regularized_optimum(np.eye(3), 0), r"k must lie in \[1, 3\], got 0"),
    (lambda: oracle.brute_force_map(np.eye(3), True), "^k must be an integer, got True$"),
    (lambda: oracle.greedy_walk(np.eye(3), 2.0, 1e-6), r"^k must be an integer, got 2\.0$"),
    (lambda: oracle.equicorrelation_matrix(True, 0.1), "^k must be an integer, got True$"),
    (lambda: oracle.equicorrelation_matrix(2.0, 0.1), r"^k must be an integer, got 2\.0$"),
    (lambda: oracle.refined_upper_bound(True, 0.1), "^k must be an integer, got True$"),
    (lambda: oracle.refined_upper_bound(2.5, 0.1), r"^k must be an integer, got 2\.5$"),
])
def test_oracle_guards_name_their_parameter(call, match):
    with pytest.raises(ValueError, match=match):
        call()
