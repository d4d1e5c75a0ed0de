import math

import numpy as np
import pytest
from hooks import traced_peak

from tokensieve.fusion import select
from tokensieve.gsp import (BipartiteRedundancyGraph, build_graph, gsp_select,
                            redundancy_scores)
from tokensieve.rng import gaussian_matrix
from tokensieve.similarity import InputError, prepare


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_graph_cross_block_is_even_rows_by_odd_columns(n):
    h = gaussian_matrix(n, n, 6)
    prep = prepare(h)
    rows = prepare(h, gram=False)
    g = build_graph(rows)
    assert g.n == n
    inv = rows.inv_norm
    np.testing.assert_array_equal(g.cross_sim,
                                  (h[0::2] @ h[1::2].T) * (inv[0::2, None] * inv[1::2]))
    np.testing.assert_allclose(g.cross_sim, prep.unit[0::2] @ prep.unit[1::2].T, atol=1e-15)
    # from a prepared instance the block is a view of its Gram
    g = build_graph(prep)
    assert g.n == n
    assert g.cross_sim.base is prep.gram
    np.testing.assert_array_equal(g.cross_sim, prep.gram[0::2, 1::2])


def test_graph_rejects_no_tokens():
    with pytest.raises(ValueError):
        build_graph(prepare(np.zeros((0, 3)), gram=False))
    # gsp_select names n before it checks keep against it
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        gsp_select(prepare(np.zeros((0, 3)), gram=False), keep=1)


def test_graph_two_identical_tokens():
    h = np.array([[1.0, 0.0], [1.0, 0.0]])
    g = build_graph(prepare(h, gram=False))
    assert g.cross_sim.shape == (1, 1)
    np.testing.assert_allclose(g.cross_sim, [[1.0]])


def test_graph_single_token():
    g = build_graph(prepare(np.array([[1.0, 0.0]]), gram=False))
    assert g.cross_sim.size == 0
    # no opposite side: trivially non-redundant, score 0 by the fallback
    s = redundancy_scores(g)
    assert s.degree.tolist() == [0]
    assert s.score.tolist() == [0.0]
    assert s.mean_sim.tolist() == [0.0]
    assert s.used_fallback.tolist() == [True]


def test_graph_eval_count():
    for n in (1, 2, 5, 8, 13):
        g = build_graph(prepare(gaussian_matrix(n, n, 6), gram=False))
        assert g.num_similarity_evaluations == math.ceil(n / 2) * (n // 2)


def handmade_graph(cross, tau=0.3, gamma=5.0):
    """A hand-set cross block: row i is token 2i, column j is token 2j+1."""
    cross = np.asarray(cross, dtype=np.float64)
    assert cross.shape[0] - cross.shape[1] in (0, 1)
    return BipartiteRedundancyGraph(cross, tau, gamma)


def test_score_degree_two_at_threshold():
    # both neighbors sit exactly at tau: score = 2 * exp(0) = 2
    g = handmade_graph([[0.3, 0.3], [0.0, 0.0]])
    s = redundancy_scores(g)
    assert s.degree[0] == 2
    np.testing.assert_allclose(s.score[0], 2.0)
    # tokens 1 and 3 each have token 0 alone at tau: score = 1 * exp(0)
    assert s.degree[1::2].tolist() == [1, 1]
    np.testing.assert_allclose(s.mean_sim[1::2], [0.3, 0.3])
    assert not s.used_fallback[1::2].any()
    np.testing.assert_allclose(s.score[1::2], [1.0, 1.0])


def test_score_fallback_mean():
    g = handmade_graph([[0.1, 0.2], [0.0, 0.0]])
    s = redundancy_scores(g)
    assert s.degree[0] == 0
    assert s.used_fallback[0]
    np.testing.assert_allclose(s.score[0], 0.15)
    # columns [0.1, 0.0] and [0.2, 0.0] stay below tau: their column means
    assert s.degree[1::2].tolist() == [0, 0]
    assert s.used_fallback[1::2].all()
    np.testing.assert_allclose(s.mean_sim[1::2], [0.05, 0.1])
    np.testing.assert_allclose(s.score[1::2], [0.05, 0.1])


def test_score_degree_three_exponent():
    # mu = tau + 0.2 and gamma = 5 puts the exponent at exactly 1
    g = handmade_graph([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    s = redundancy_scores(g)
    assert s.degree[0] == 3
    np.testing.assert_allclose(s.score[0], 3.0 * math.e)
    assert abs(s.score[0] - 8.15485) < 1e-4
    # each odd-index token has token 0 alone above tau, at tau + 0.2
    assert s.degree[1::2].tolist() == [1, 1, 1]
    np.testing.assert_allclose(s.mean_sim[1::2], [0.5, 0.5, 0.5])
    assert not s.used_fallback[1::2].any()
    np.testing.assert_allclose(s.score[1::2], [math.e] * 3)


def test_score_odd_token_count():
    # n = 3: token 1 is the one column and sees tokens 0 and 2
    g = handmade_graph([[0.4], [0.6]])
    s = redundancy_scores(g)
    assert s.degree.tolist() == [1, 2, 1]
    np.testing.assert_allclose(s.mean_sim, [0.4, 0.5, 0.6])
    np.testing.assert_allclose(s.score[1], 2.0 * math.e)


def test_select_keep_all():
    h = prepare(gaussian_matrix(3, 7, 5), gram=False)
    kept = gsp_select(h, keep=7)
    assert kept == list(range(7))


def test_select_drops_duplicates():
    # three copies plus one orthogonal: the orthogonal token scores lowest
    h = prepare(np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]]), gram=False)
    kept = gsp_select(h, keep=1)
    assert kept == [3]


def test_select_tie_break_low_index():
    h = prepare(np.array([[1.0, 0.0]] * 4), gram=False)
    kept = gsp_select(h, keep=2)
    assert kept == [0, 1]


def test_select_output_sorted_and_tagged():
    h = prepare(gaussian_matrix(8, 30, 6), gram=False)
    kept = gsp_select(h, keep=12)
    assert kept == sorted(kept)
    assert len(set(kept)) == 12


def test_select_prefers_low_scores():
    h = prepare(gaussian_matrix(2, 16, 4), gram=False)
    scores = redundancy_scores(build_graph(h)).score
    kept = gsp_select(h, keep=5)
    worst_kept = max(scores[i] for i in kept)
    best_dropped = min(scores[i] for i in range(16) if i not in kept)
    assert worst_kept <= best_dropped


@pytest.mark.parametrize("keep, match", [
    (2.0, "^keep must be an integer"),
    (True, "^keep must be an integer"),
    ("3", "^keep must be an integer"),
    (0, r"^keep must lie in \[1, 7\]"),
    (8, r"^keep must lie in \[1, 7\]"),
    (np.int64(3), None),
])
def test_select_takes_an_integer_keep_in_one_to_n(keep, match):
    h = prepare(gaussian_matrix(3, 7, 5), gram=False)
    if match is None:
        assert gsp_select(h, keep=keep) == gsp_select(h, keep=int(keep))
    else:
        with pytest.raises(ValueError, match=match):
            gsp_select(h, keep=keep)


def test_select_checks_raw_tokens_before_it_reads_n():
    # a 0-d input is refused by the input contract, not by a len() call
    with pytest.raises(InputError, match="2-d array"):
        select("gsp", np.float64(1.0), None, 1)


def test_build_graph_validates_params():
    h = prepare(gaussian_matrix(1, 4, 3), gram=False)
    with pytest.raises(ValueError):
        build_graph(h, tau=1.0)
    with pytest.raises(ValueError):
        build_graph(h, gamma=0.0)


def test_build_graph_rejects_a_gamma_that_can_overflow_a_score():
    # four near-duplicate rows and one orthogonal row; at gamma = 5 token 3
    # has the lowest score among the duplicates
    h = prepare(np.array([[1.0, 0.03], [1.0, 0.02], [1.0, 0.01], [1.0, 0.0], [0.0, 1.0]]),
                gram=False)
    assert gsp_select(h, gamma=5.0, keep=2) == [3, 4]
    with pytest.raises(ValueError, match="overflow"):
        build_graph(h, gamma=2000.0)
    # the bound for n = 5 at tau = 0.3: 0.7 * gamma + log(3) = log(float max)
    bound = (math.log(np.finfo(np.float64).max) - math.log(3)) / 0.7
    with pytest.raises(ValueError, match="overflow"):
        build_graph(h, gamma=bound)
    gamma = bound * (1 - 1e-6)
    scores = redundancy_scores(build_graph(h, gamma=gamma)).score
    assert np.isfinite(scores).all() and scores.max() > 1e307
    assert gsp_select(h, gamma=gamma, keep=2) == [3, 4]


def test_scoring_allocates_the_bool_mask_and_no_float_copy_of_the_block():
    # Gaussian rows in 128 dims: about a quarter of the tokens have a cosine
    # at or above tau, so both branches run
    n = 2048
    g = build_graph(prepare(gaussian_matrix(12, n, 128)))
    assert g.cross_sim.base is not None  # a view of the Gram
    peak, s = traced_peak(lambda: redundancy_scores(g))
    assert s.used_fallback.any() and not s.used_fallback.all()
    # the n^2/4-byte mask plus O(n); a float copy of the block is 2 n^2
    assert peak < n * n // 2


def test_gsp_without_a_gram_peaks_at_its_block_and_mask():
    n = 2048
    prep = prepare(gaussian_matrix(12, n, 128), gram=False)
    peak, kept = traced_peak(lambda: gsp_select(prep, keep=n // 4))
    assert len(kept) == n // 4
    # the 2 n^2-byte cross block, the n^2/4-byte mask, and O(n) beside them
    assert peak < 9 * n * n // 4 + (1 << 20)
