import numpy as np
import pytest
from hooks import traced_peak

from tokensieve import similarity, synth
from tokensieve.analysis import (GridShape, ModelProfile, _moore_neighborhood,
                                 flops_estimate, local_entropy_map,
                                 mean_neighbor_similarity,
                                 similarity_by_distance_profile)
from tokensieve.rng import gaussian_matrix
from tokensieve.similarity import InputError


def test_grid_shape_validates():
    # a side below 1 is refused when the shape is made, a shape that does
    # not tile the tokens when it meets their count
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


def test_entropy_is_invariant_under_power_of_two_scaling():
    # tokens far from unit scale: no neighborhood's norm may overflow or
    # underflow in the flatness test, nor its bins go negative
    grid = GridShape(6, 6)
    h = synth.two_region_grid(6, 6, 8, 0)
    e = local_entropy_map(h, grid)
    assert np.count_nonzero(e) == 24
    for k in (-1000, -600, 600, 1000):
        assert np.array_equal(local_entropy_map(np.ldexp(h, k), grid), e), k


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


def neighbor_means_of_unit_rows(h, grid):
    """Each token's mean cosine to its Moore neighbors, from prepare's unit
    rows (reference)."""
    unit = similarity.prepare(h, gram=False).unit
    hoods = [_moore_neighborhood(*divmod(tok, grid.width), grid) for tok in range(len(h))]
    return [np.mean([unit[i] @ unit[tok] for i in hood if i != tok])
            for tok, hood in enumerate(hoods)]


def test_mean_neighbor_similarity_copies_no_token_rows():
    # cosines are raw-row products times inverse norms: no n x d unit copy
    grid = GridShape(24, 24)
    h = gaussian_matrix(3, 576, 1024)
    peak, got = traced_peak(lambda: mean_neighbor_similarity(h, grid))
    assert peak < 576 * 1024 * 8 / 4
    np.testing.assert_allclose(got, neighbor_means_of_unit_rows(h, grid), rtol=0, atol=1e-15)


def test_mean_neighbor_similarity_of_zero_and_out_of_range_rows():
    # a zero row has cosine 0 to every row; a row whose squared norm over-
    # or underflows takes the cosines of its unit row
    grid = GridShape(3, 3)
    h = gaussian_matrix(4, 9, 4)
    h[0], h[4], h[8] = 0.0, h[4] * 1e200, h[8] * 1e-200
    got = mean_neighbor_similarity(h, grid)
    np.testing.assert_allclose(got, neighbor_means_of_unit_rows(h, grid), rtol=0, atol=1e-15)


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


def profile_by_pairs(h, grid, max_dist):
    """Mean cosine at each distance, one pair i < j at a time (reference)."""
    unit = h / np.linalg.norm(h, axis=1, keepdims=True)
    sums, counts = np.zeros(max_dist + 1), np.zeros(max_dist + 1)
    n = len(h)
    for i in range(n):
        for j in range(i + 1, n):
            dist = abs(i // grid.width - j // grid.width) + abs(i % grid.width - j % grid.width)
            if dist <= max_dist:
                sums[dist] += unit[i] @ unit[j]
                counts[dist] += 1
    with np.errstate(invalid="ignore"):
        return sums[1:] / counts[1:]


def test_profile_equals_the_mean_over_every_pair():
    grid = GridShape(5, 7)
    repeated = np.repeat(gaussian_matrix(8, 5, 6), 7, axis=0)  # one row per grid row
    for h in (gaussian_matrix(7, 35, 6), repeated):
        expected = profile_by_pairs(h, grid, 10)  # the 5x7 grid's largest distance
        got = similarity_by_distance_profile(h, grid, 10)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_profile_needs_nothing_n_squared_beside_the_gram():
    grid = GridShape(48, 48)
    h = gaussian_matrix(9, 48 * 48, 16)
    peak, _ = traced_peak(lambda: similarity_by_distance_profile(h, grid, 94))
    assert peak <= 1.2 * 8 * (48 * 48) ** 2


def test_profile_excludes_distance_zero():
    h = gaussian_matrix(4, 12, 4)
    prof = similarity_by_distance_profile(h, GridShape(3, 4), 5)
    assert prof.shape == (5,)  # buckets are distances 1..max_dist


@pytest.mark.parametrize("diagnostic", [
    local_entropy_map,
    mean_neighbor_similarity,
    lambda h, grid: similarity_by_distance_profile(h, grid, 2),
], ids=["entropy", "neighbor", "profile"])
def test_non_finite_token_raises_input_error(diagnostic):
    h = gaussian_matrix(4, 9, 5)
    h[4, 2] = np.nan
    with pytest.raises(InputError, match="row 4"):
        diagnostic(h, GridShape(3, 3))


@pytest.mark.parametrize("diagnostic", [
    local_entropy_map,
    mean_neighbor_similarity,
    lambda h, grid: similarity_by_distance_profile(h, grid, 2),
], ids=["entropy", "neighbor", "profile"])
@pytest.mark.parametrize("tokens", [
    gaussian_matrix(4, 9, 5) + 1j,
    gaussian_matrix(4, 9, 5).astype(str),
], ids=["complex", "string"])
def test_non_real_tokens_raise_input_error(diagnostic, tokens):
    # refused by the input contract before anything casts them
    with pytest.raises(InputError, match="tokens must hold real numbers"):
        diagnostic(tokens, GridShape(3, 3))


def test_profile_gram_over_the_limit_raises_input_error(monkeypatch):
    monkeypatch.setattr(similarity, "MAX_GRAM_BYTES", 8 * 9 * 9 - 1)
    with pytest.raises(InputError, match="9 tokens"):
        similarity_by_distance_profile(gaussian_matrix(4, 9, 5), GridShape(3, 3), 2)


def test_flops_zero_tokens():
    assert flops_estimate(0, ModelProfile(2, 16, 64)) == 0.0


def test_flops_strictly_monotonic():
    p = ModelProfile(32, 4096, 11008)
    vals = [flops_estimate(n, p) for n in range(0, 700, 7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_flops_profile_validation():
    with pytest.raises(ValueError):
        ModelProfile(0, 16, 64)


# tests/test_counts.py sends each of these counts a bool, a float and a
# negative value; these are the cases it does not make
@pytest.mark.parametrize("call, match", [
    # the id names the bound a distance of 0 falls below
    pytest.param(
        lambda: similarity_by_distance_profile(gaussian_matrix(4, 9, 5), GridShape(3, 3), 0),
        r"max_dist must lie in \[1, 4\], got 0", id="<lambda>-max_dist must be >= 1"),
    (lambda: GridShape(2, "2"), "^width must be an integer"),
])
def test_analysis_guards_name_their_parameter(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("diagnostic", [
    local_entropy_map,
    mean_neighbor_similarity,
    lambda h, grid: similarity_by_distance_profile(h, grid, 1),
], ids=["entropy", "neighbor", "profile"])
def test_a_0d_input_raises_input_error(diagnostic):
    # refused by the input contract before anything reads its length
    with pytest.raises(InputError, match=r"tokens must be a 2-d array.*got shape \(\)"):
        diagnostic(np.float64(1.0), GridShape(1, 1))


def test_analysis_counts_take_numpy_integers():
    assert flops_estimate(np.int64(64), ModelProfile(np.int32(2), 16, 64)) == \
        flops_estimate(64, ModelProfile(2, 16, 64))
    assert GridShape(np.int64(2), 3) == GridShape(2, 3)
