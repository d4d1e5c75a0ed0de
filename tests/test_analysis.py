import numpy as np
import pytest

from tokensieve import synth
from tokensieve.analysis import (GridShape, ModelProfile, _moore_neighborhood,
                                 flops_estimate, local_entropy_map,
                                 mean_neighbor_similarity,
                                 similarity_by_distance_profile)
from tokensieve.rng import gaussian_matrix


def test_grid_shape_validates():
    # validation happens when the shape meets a token count
    with pytest.raises(ValueError):
        GridShape(0, 3).check(0)
    with pytest.raises(ValueError):
        GridShape(2, 3).check(5)
    GridShape(2, 3).check(6)


def test_constant_grid_entropy_near_zero():
    h = np.tile(np.array([1.0, 2.0, 0.5]), (12, 1))
    e = local_entropy_map(h, GridShape(3, 4))
    assert (e >= 0.0).all()
    assert (e <= 1e-6).all()


def test_nine_distinct_bins_hits_log9():
    # scalar tokens 0..8 on a 3x3 grid: the center neighborhood projects
    # onto nine equally spaced values, one per occupied bin
    h = np.arange(9, dtype=float)[:, None]
    e = local_entropy_map(h, GridShape(3, 3))
    assert e[4] == pytest.approx(np.log(9), abs=1e-6)


def test_entropy_upper_bound():
    for seed in range(5):
        h = gaussian_matrix(seed, 48, 6)
        e = local_entropy_map(h, GridShape(6, 8))
        assert (e <= np.log(20) + 1e-6).all()
        assert (e >= 0.0).all()


def binned_entropy(proj, bins=20, eps=1e-8):
    """Entropy of a projection in equal min-max bins (reference)."""
    idx = np.floor((proj - proj.min()) / np.ptp(proj) * bins).astype(int)
    counts = np.bincount(np.minimum(idx, bins - 1))
    p = counts[counts > 0] / len(proj) + eps
    return -float(np.sum(p * np.log(p)))


def test_entropy_projects_onto_the_exact_first_principal_direction():
    # reference direction: the top eigenvector of each neighborhood's
    # centered k x k Gram, sign-fixed by the same rule
    grid = GridShape(24, 24)
    h = gaussian_matrix(0, 576, 1024)
    e = local_entropy_map(h, grid)
    for row in range(grid.height):
        for col in range(grid.width):
            hood = h[_moore_neighborhood(row, col, grid)]
            c = hood - hood.mean(axis=0)
            w, v = np.linalg.eigh(c @ c.T)
            proj = v[:, -1] * np.sqrt(w[-1])
            proj *= np.sign(proj[np.argmax(np.abs(proj))])
            tok = row * grid.width + col
            assert abs(e[tok] - binned_entropy(proj)) <= 1e-9, tok


def test_flat_neighborhoods_score_zero():
    # rows repeated exactly: centering leaves only rounding, which must not
    # be spread over the bins
    grid = GridShape(12, 12)
    flat_hoods = 0
    for seed in range(14, 34):
        h = synth.two_region_grid(12, 12, 48, seed)
        e = local_entropy_map(h, grid)
        for tok in range(144):
            hood = h[_moore_neighborhood(tok // 12, tok % 12, grid)]
            if (hood == hood[0]).all():
                flat_hoods += 1
                assert e[tok] <= 1e-6, (seed, tok)
    assert flat_hoods == 20 * 60


def test_entropy_is_invariant_under_negation():
    grid = GridShape(24, 24)
    h = gaussian_matrix(0, 576, 1024)
    assert np.array_equal(local_entropy_map(-h, grid), local_entropy_map(h, grid))


def test_mean_neighbor_similarity_constant_grid():
    h = np.tile(np.array([2.0, 1.0]), (9, 1))
    s = mean_neighbor_similarity(h, GridShape(3, 3))
    np.testing.assert_allclose(s, 1.0)


def test_mean_neighbor_similarity_lone_token_is_nan():
    # no neighbors: NaN by rule, with no empty-mean warning
    assert np.isnan(mean_neighbor_similarity(np.ones((1, 4)), GridShape(1, 1))).all()


def test_profile_identical_tokens():
    h = np.tile(np.array([1.0, 1.0]), (16, 1))
    prof = similarity_by_distance_profile(h, GridShape(4, 4), 6)
    np.testing.assert_allclose(prof, 1.0)


def test_profile_transpose_symmetry():
    h = gaussian_matrix(2, 30, 5)
    a = similarity_by_distance_profile(h, GridShape(5, 6), 9)
    ht = h.reshape(5, 6, -1).transpose(1, 0, 2).reshape(30, -1)
    b = similarity_by_distance_profile(ht, GridShape(6, 5), 9)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_profile_orthogonal_halves_decay():
    # two homogeneous half-grids with orthogonal contents: near pairs are
    # mostly same-half (sim 1), far pairs mostly cross-half (sim 0)
    h = np.zeros((36, 2))
    for row in range(6):
        for col in range(6):
            h[row * 6 + col] = [1.0, 0.0] if col < 3 else [0.0, 1.0]
    prof = similarity_by_distance_profile(h, GridShape(6, 6), 10)
    assert prof[0] > prof[-1]


def test_profile_excludes_distance_zero():
    h = gaussian_matrix(4, 12, 4)
    prof = similarity_by_distance_profile(h, GridShape(3, 4), 5)
    assert prof.shape == (5,)  # buckets are distances 1..max_dist


def test_flops_zero_tokens():
    assert flops_estimate(0, ModelProfile(2, 16, 64)) == 0.0


def test_flops_strictly_monotonic():
    p = ModelProfile(32, 4096, 11008)
    vals = [flops_estimate(n, p) for n in range(0, 700, 7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_flops_profile_validation():
    with pytest.raises(ValueError):
        ModelProfile(0, 16, 64)
