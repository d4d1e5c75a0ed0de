import math

import numpy as np
import pytest

from tokensieve.gsp import (BipartiteRedundancyGraph, bipartite_split,
                            build_graph, gsp_select, redundancy_scores)
from tokensieve.rng import gaussian_matrix


def test_split_even():
    src, dst = bipartite_split(4)
    np.testing.assert_array_equal(src, [0, 2])
    np.testing.assert_array_equal(dst, [1, 3])


def test_split_odd():
    src, dst = bipartite_split(5)
    np.testing.assert_array_equal(src, [0, 2, 4])
    np.testing.assert_array_equal(dst, [1, 3])


def test_split_single():
    src, dst = bipartite_split(1)
    np.testing.assert_array_equal(src, [0])
    assert dst.size == 0


def test_graph_two_identical_tokens():
    h = np.array([[1.0, 0.0], [1.0, 0.0]])
    g = build_graph(h)
    assert g.cross_sim.shape == (1, 1)
    np.testing.assert_allclose(g.cross_sim, [[1.0]])


def test_graph_single_token():
    g = build_graph(np.array([[1.0, 0.0]]))
    assert g.cross_sim.size == 0


def test_graph_eval_count():
    for n in (1, 2, 5, 8, 13):
        g = build_graph(gaussian_matrix(n, n, 6))
        assert g.num_similarity_evaluations == math.ceil(n / 2) * (n // 2)


def handmade_graph(cross, tau=0.3, gamma=5.0):
    """Legal parity split (|src| = ceil(n/2)) with a hand-set edge matrix."""
    cross = np.asarray(cross, dtype=np.float64)
    ns, nd = cross.shape
    assert ns - nd in (0, 1)
    n = ns + nd
    idx = np.arange(n)
    return BipartiteRedundancyGraph(
        src_indices=idx[0::2], dst_indices=idx[1::2],
        cross_sim=cross, tau=tau, gamma=gamma)


def test_score_degree_two_at_threshold():
    # both neighbors sit exactly at tau: score = 2 * exp(0) = 2
    g = handmade_graph([[0.3, 0.3], [0.0, 0.0]])
    s = redundancy_scores(g)
    assert s.degree[0] == 2
    np.testing.assert_allclose(s.score[0], 2.0)


def test_score_fallback_mean():
    g = handmade_graph([[0.1, 0.2], [0.0, 0.0]])
    s = redundancy_scores(g)
    assert s.degree[0] == 0
    assert s.used_fallback[0]
    np.testing.assert_allclose(s.score[0], 0.15)


def test_score_degree_three_exponent():
    # mu = tau + 0.2 and gamma = 5 puts the exponent at exactly 1
    g = handmade_graph([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    s = redundancy_scores(g)
    assert s.degree[0] == 3
    np.testing.assert_allclose(s.score[0], 3.0 * math.e)
    assert abs(s.score[0] - 8.15485) < 1e-4


def test_select_keep_all():
    h = gaussian_matrix(3, 7, 5)
    kept = gsp_select(h, keep=7)
    assert kept == list(range(7))


def test_select_drops_duplicates():
    # three copies plus one orthogonal: the orthogonal token scores lowest
    h = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]])
    kept = gsp_select(h, keep=1)
    assert kept == [3]


def test_select_tie_break_low_index():
    h = np.array([[1.0, 0.0]] * 4)
    kept = gsp_select(h, keep=2)
    assert kept == [0, 1]


def test_select_output_sorted_and_tagged():
    h = gaussian_matrix(8, 30, 6)
    kept = gsp_select(h, keep=12)
    assert kept == sorted(kept)
    assert len(set(kept)) == 12


def test_select_prefers_low_scores():
    h = gaussian_matrix(2, 16, 4)
    scores = redundancy_scores(build_graph(h)).score
    kept = gsp_select(h, keep=5)
    worst_kept = max(scores[i] for i in kept)
    best_dropped = min(scores[i] for i in range(16) if i not in kept)
    assert worst_kept <= best_dropped


def test_build_graph_validates_params():
    h = gaussian_matrix(1, 4, 3)
    with pytest.raises(ValueError):
        build_graph(h, tau=1.0)
    with pytest.raises(ValueError):
        build_graph(h, gamma=0.0)
