import warnings

import numpy as np
import pytest

from tokensieve.rng import gaussian_matrix
from tokensieve.similarity import (InputError, cosine_similarity_matrix,
                                   l2_normalize_rows, mean_pool,
                                   min_max_normalize, prepare, relevance_scores)


def test_normalize_analytic():
    out = l2_normalize_rows(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[0.6, 0.8]])


def test_normalize_unit_row_unchanged():
    row = np.array([[0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(l2_normalize_rows(row), row)


def test_normalize_zero_row_stays_zero():
    out = l2_normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(out[0], [0.0, 0.0])


def test_normalize_survives_overflow_and_underflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = l2_normalize_rows(np.array([[1.0, 1.0, 1.0, 1.0], [1e200] * 4]))
        tiny = l2_normalize_rows(np.array([[1e-200] * 4, [1e-200, 0.0, 3e-200, 0.0]]))
    np.testing.assert_array_equal(out, 0.5)
    np.testing.assert_array_equal(tiny[0], 0.5)
    np.testing.assert_allclose(tiny[1], [0.316227766, 0.0, 0.948683298, 0.0])


def test_normalize_keeps_ordinary_rows_bit_for_bit():
    h = gaussian_matrix(3, 50, 17)
    h[7] = 0.0
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    expected = h / np.where(norms > 0.0, norms, 1.0)
    np.testing.assert_array_equal(l2_normalize_rows(h), expected)


def test_normalize_turns_non_finite_rows_into_nan_rows():
    h = np.array([[1.0, np.nan, 2.0], [np.inf, 1.0, 0.0], [3.0, 4.0, 0.0]])
    out = l2_normalize_rows(h)
    assert np.isnan(out[:2]).all()
    np.testing.assert_allclose(out[2], [0.6, 0.8, 0.0])


def test_prepare_shares_one_normalization():
    h = gaussian_matrix(4, 30, 9)
    q = gaussian_matrix(5, 3, 9)
    prep = prepare(h, q)
    np.testing.assert_array_equal(prep.unit, l2_normalize_rows(h))
    assert np.array_equal(prep.gram, prep.gram.T)
    np.testing.assert_allclose(prep.gram, prep.unit @ prep.unit.T, atol=1e-15)
    np.testing.assert_allclose(prep.relevance_raw, relevance_scores(h, mean_pool(q)),
                               atol=1e-15)
    np.testing.assert_array_equal(prep.relevance, min_max_normalize(prep.relevance_raw))
    bare = prepare(h, gram=False)
    assert bare.gram is None and bare.relevance_raw is None
    np.testing.assert_array_equal(bare.relevance, np.ones(30))


def test_prepare_rejects_inputs_that_break_the_contract():
    h = gaussian_matrix(6, 12, 5)
    q = gaussian_matrix(7, 2, 5)
    bad = h.copy()
    bad[4, 2] = np.nan
    with pytest.raises(InputError, match="token row 4"):
        prepare(bad, q)
    bad[4, 2] = -np.inf
    with pytest.raises(InputError, match="token row 4"):
        prepare(bad)
    q_bad = q.copy()
    q_bad[1, 0] = np.inf
    with pytest.raises(InputError, match="query"):
        prepare(h, q_bad)
    with pytest.raises(InputError, match="width"):
        prepare(h, gaussian_matrix(7, 2, 6))
    assert issubclass(InputError, ValueError)


def test_cosine_identity_rows():
    e = np.eye(3)
    np.testing.assert_allclose(cosine_similarity_matrix(e, e), np.eye(3))


def test_cosine_analytic_45_degrees():
    a = np.array([[1.0, 0.0]])
    b = np.array([[1.0, 1.0]]) / np.sqrt(2)
    sim = cosine_similarity_matrix(a, b)
    np.testing.assert_allclose(sim, [[np.sqrt(2) / 2]])
    assert abs(sim[0, 0] - 0.70710678) < 1e-8


def test_cosine_zero_row_gives_zero():
    a = np.array([[1.0, 2.0]])
    z = np.array([[0.0, 0.0]])
    assert cosine_similarity_matrix(a, z)[0, 0] == 0.0


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))


def test_mean_pool():
    np.testing.assert_allclose(
        mean_pool(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5])
    row = np.array([[2.0, 7.0]])
    np.testing.assert_array_equal(mean_pool(row), row[0])
    e1 = np.array([[1.0, 0.0]] * 3)
    np.testing.assert_array_equal(mean_pool(e1), [1.0, 0.0])


def test_relevance_extremes():
    mu = np.array([0.0, 2.0])
    h = np.stack([mu, np.array([3.0, 0.0]), -mu])
    r = relevance_scores(h, mu)
    np.testing.assert_allclose(r, [1.0, 0.0, -1.0], atol=1e-15)


def test_relevance_equals_cosine_matrix_exactly():
    h = gaussian_matrix(1, 20, 8)
    mu = mean_pool(gaussian_matrix(2, 3, 8))
    r = relevance_scores(h, mu)
    sim = cosine_similarity_matrix(h, mu[None, :])[:, 0]
    np.testing.assert_array_equal(r, sim)


def test_min_max_examples():
    np.testing.assert_allclose(min_max_normalize(np.array([0.2, 0.6, 1.0])),
                               [1e-6, 0.5, 1.0])
    np.testing.assert_array_equal(min_max_normalize(np.array([0.4, 0.4])),
                                  [1.0, 1.0])
    np.testing.assert_allclose(min_max_normalize(np.array([-1.0, 1.0])),
                               [1e-6, 1.0])


def test_min_max_range_property():
    for seed in range(20):
        v = gaussian_matrix(seed, 1, 15)[0]
        out = min_max_normalize(v)
        assert out.min() >= 1e-6
        assert out.max() == 1.0
