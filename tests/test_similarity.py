import warnings

import numpy as np
import pytest

from tokensieve import similarity
from tokensieve.fusion import script_select, select
from tokensieve.gsp import build_graph
from tokensieve.rng import gaussian_matrix
from tokensieve.similarity import (InputError, l2_normalize_rows, mean_pool,
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
    # a squared norm of 1e-320 is subnormal: its root has lost about 40 bits
    np.testing.assert_array_equal(l2_normalize_rows(np.array([[1e-160, 0.0]])), [[1.0, 0.0]])


def norm_path(h):
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    return h / np.where(norms > 0.0, norms, 1.0)


def test_normalize_keeps_ordinary_rows_bit_for_bit():
    for n, d in [(50, 17), (150, 4096), (1, 1024), (1, 4096)]:
        h = gaussian_matrix(3, n, d)
        if n > 7:
            h[7] = 0.0
        expected = norm_path(h)
        np.testing.assert_array_equal(l2_normalize_rows(h), expected)
        # the rows are reduced the same way whatever the input's layout
        np.testing.assert_array_equal(l2_normalize_rows(np.asfortranarray(h)), expected)
        if n == 1:
            continue
        # an overflowing row goes the max-abs way, in either layout; the zero
        # row and every ordinary row stay as the norm path has them
        h[n - 3] = 1e200
        out = l2_normalize_rows(h)
        np.testing.assert_array_equal(out[n - 3], 1.0 / np.sqrt(d))
        rest = np.arange(n) != n - 3
        np.testing.assert_array_equal(out[rest], expected[rest])
        assert not out[7].any()
        np.testing.assert_array_equal(l2_normalize_rows(np.asfortranarray(h)), out)


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
    mu = q.mean(axis=0)
    cosines = h @ mu / (np.linalg.norm(h, axis=1) * np.linalg.norm(mu))
    np.testing.assert_allclose(prep.relevance_raw, cosines, atol=1e-15)
    np.testing.assert_array_equal(prep.relevance, min_max_normalize(prep.relevance_raw))
    bare = prepare(h, gram=False)
    assert bare.gram is None and bare.relevance_raw is None
    np.testing.assert_array_equal(bare.relevance, np.ones(30))


def cosine_case(name):
    """Tokens for the prepared-cosine cases: 40 Gaussian rows of width 9,
    altered as the case's name says."""
    h = gaussian_matrix(21, 40, 9)
    if name == "huge and tiny rows":
        h[[3, 8, 30]] *= 1e200
        h[[5, 17]] *= 1e-200
        h[11, :4] = [1e200, -3e199, 0.0, 2e-300]
    elif name == "subnormal squared norm":
        h[6] = 0.0
        h[6, [0, 4, 7]] = [1e-160, -3e-161, 2e-161]
        h[13] *= 1e-156 / np.linalg.norm(h[13])  # squared norm 1e-312
    elif name == "zero rows":
        h[[0, 9, 22]] = 0.0
    elif name == "duplicates and power-of-two multiples":
        # even-index and odd-index copies, so both sides of GSP's cross block
        # hold them
        h[[2, 4, 6, 8]] = h[0] * np.array([1.0, 2.0, 0.25, 2.0**40])[:, None]
        h[[3, 5]] = h[1] * np.array([1.0, 0.5])[:, None]
    elif name == "fortran order":
        h = np.asfortranarray(h)
    elif name == "strided view":
        h = gaussian_matrix(22, 80, 27)[::2, ::3]
    return h


COSINE_CASES = ["huge and tiny rows", "subnormal squared norm", "zero rows",
                "duplicates and power-of-two multiples", "fortran order", "strided view"]


@pytest.mark.parametrize("gram", [True, False])
@pytest.mark.parametrize("case", COSINE_CASES)
def test_prepared_cosines_are_unit_row_products(case, gram):
    h = cosine_case(case)
    q = gaussian_matrix(23, 3, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prep = prepare(h, q, gram=gram)
        u = l2_normalize_rows(h)
    if gram:
        s = prep.gram
    else:
        # without a Gram the cosines are the same products of the prepared
        # rows and inverse norms
        s = prep.rows @ prep.rows.T
        similarity.scale_outer(s, prep.inv_norm, prep.inv_norm)
    assert np.array_equal(s, s.T)
    np.testing.assert_allclose(s, u @ u.T, atol=1e-15)
    mu = l2_normalize_rows(q.mean(axis=0)[None, :])[0]
    np.testing.assert_allclose(prep.relevance_raw, u @ mu, atol=1e-15)
    cross = build_graph(prep).cross_sim
    np.testing.assert_allclose(cross, (u @ u.T)[0::2, 1::2], atol=1e-15)
    np.testing.assert_array_equal(prep.unit, u)
    if case == "zero rows":
        assert not s[[0, 9, 22]].any() and not s[:, [0, 9, 22]].any()
        assert not prep.relevance_raw[[0, 9, 22]].any()
    if case == "duplicates and power-of-two multiples":
        # the walk breaks ties between such tokens on their index, which
        # needs their cosines to be equal, not close
        for copies in ([0, 2, 4, 6, 8], [1, 3, 5]):
            assert (s[copies] == s[copies[0]]).all(), copies
            assert (prep.relevance_raw[copies] == prep.relevance_raw[copies[0]]).all()
        assert (cross[:5] == cross[0]).all()
        assert (cross[:, :3] == cross[:, :1]).all()


@pytest.mark.parametrize("gram", [True, False])
def test_prepare_names_the_first_non_finite_row_in_both_paths(gram):
    h = gaussian_matrix(24, 12, 5)
    h[2] *= 1e200  # out of range but finite: not an error
    h[7, 1] = np.nan
    h[4, 3] = -np.inf
    h[9, 0] = np.inf
    with pytest.raises(InputError, match="token row 4 "):
        prepare(h, gram=gram)
    h[4, 3] = 0.0
    with pytest.raises(InputError, match="token row 7 "):
        prepare(h, gaussian_matrix(25, 2, 5), gram=gram)


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
    # only bool, int, uint and float hold the reals the cosines need: a
    # complex part is not dropped, nor a digit string parsed
    for tokens, query, message in [
        (h + 1j, None, "tokens must hold real numbers, got dtype complex128"),
        (h.astype(str), None, "tokens must hold real numbers, got dtype <U"),
        (np.array([[1.0, None]]), None, "tokens must hold real numbers, got dtype object"),
        (h, q + 0j, "query must hold real numbers, got dtype complex128"),
        (h, [["1"] * 5], "query must hold real numbers, got dtype <U1"),
        (np.zeros((5, 0)), None, "at least one column"),
        (np.zeros((0, 0)), q, "at least one column"),
    ]:
        with pytest.raises(InputError, match=message):
            prepare(tokens, query)
    ints = (h * 100).astype(np.int32)
    for real in (ints, abs(ints).astype(np.uint16), ints != 0, ints.astype(np.float32)):
        np.testing.assert_array_equal(prepare(real, q).rows, real.astype(np.float64))
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize("query, message", [
    (np.ones(5), "2-d array"),
    (np.zeros((0, 5)), "2-d array"),
    (np.ones((2, 3, 5)), "2-d array"),
    (np.full((2, 5), 1.7e308), "mean overflows"),
])
def test_prepare_rejects_a_query_that_breaks_the_contract(query, message):
    # each breach is named as the query's, under warnings as errors
    with pytest.raises(InputError, match=message):
        prepare(gaussian_matrix(8, 6, 5), query)


def test_a_bad_query_is_named_before_a_non_finite_token():
    # prepare checks and pools the query before it reads a token row
    h = gaussian_matrix(26, 8, 5)
    h[3, 2] = np.nan
    h[6, 0] = np.inf
    for query, message in [(np.full((2, 5), 1.7e308), "mean overflows"),
                           (gaussian_matrix(27, 2, 6), "query width 6"),
                           (np.ones(5), "the query must be a 2-d array")]:
        for gram in (True, False):
            with pytest.raises(InputError, match=message):
                prepare(h, query, gram=gram)


@pytest.mark.parametrize("gram", [True, False])
def test_relevance_of_out_of_range_rows_is_that_of_their_unit_rows(gram):
    # the relevance gemv runs before the range check, on rows whose product
    # with the query may overflow, and again on the fixed rows
    h = gaussian_matrix(28, 10, 6)
    h[2] *= 1e200
    h[5] = 1.5e308
    q = np.abs(gaussian_matrix(29, 3, 6))
    mu = l2_normalize_rows(mean_pool(q)[None, :])[0]
    with np.errstate(over="ignore"):
        assert np.isinf(h @ mu)[5]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        prep = prepare(h, q, gram=gram)
    assert np.array_equal(prep.rows[[2, 5]], l2_normalize_rows(h[[2, 5]]))
    assert np.array_equal(prep.relevance_raw, (prep.rows @ mu) * prep.inv_norm)


def test_a_query_against_no_token_rows_raises_input_error():
    empty = np.zeros((0, 3))
    for score in (lambda: prepare(empty, np.ones((2, 3))),
                  lambda: relevance_scores(empty, np.ones(3))):
        with pytest.raises(InputError, match="token matrix has 0 rows"):
            score()
    # without a query there is no relevance to score; the selectors reject n = 0
    assert prepare(empty).n == 0


def test_gram_size_limit_is_checked_before_any_work(monkeypatch):
    n = 9
    h = gaussian_matrix(13, n, 5)
    q = gaussian_matrix(14, 2, 5)
    monkeypatch.setattr(similarity, "MAX_GRAM_BYTES", 8 * n * n - 1)

    def must_not_run(*args):
        raise AssertionError("rows read before the size check")

    row_products = similarity._row_products
    monkeypatch.setattr(similarity, "l2_normalize_rows", must_not_run)
    monkeypatch.setattr(similarity, "_row_products", must_not_run)
    for run in (lambda: prepare(h), lambda: prepare(h, q),
                lambda: script_select(h, q, 3), lambda: select("qcsp", h, q, 3),
                lambda: select("diversity", h, None, 3)):
        with pytest.raises(InputError, match=f"{n} tokens"):
            run()
    monkeypatch.setattr(similarity, "l2_normalize_rows", l2_normalize_rows)
    monkeypatch.setattr(similarity, "_row_products", row_products)
    # without a Gram there is nothing to bound
    assert prepare(h, q, gram=False).gram is None
    monkeypatch.setattr(similarity, "MAX_GRAM_BYTES", 8 * n * n)
    assert prepare(h).gram.shape == (n, n)


def test_mean_pool():
    np.testing.assert_allclose(
        mean_pool(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5])
    row = np.array([[2.0, 7.0]])
    np.testing.assert_array_equal(mean_pool(row), row[0])
    e1 = np.array([[1.0, 0.0]] * 3)
    np.testing.assert_array_equal(mean_pool(e1), [1.0, 0.0])


@pytest.mark.parametrize("func, arg, error, match", [
    (mean_pool, np.ones((2, 3)) + 1j, InputError, "query must hold real numbers"),
    (mean_pool, np.array([["1", "2"]]), InputError, "query must hold real numbers"),
    (mean_pool, np.zeros((0, 3)), ValueError, "at least one row"),
    (min_max_normalize, np.ones(3) + 1j, InputError, "values must hold real numbers"),
    (min_max_normalize, np.array(["1", "2"]), InputError, "values must hold real numbers"),
    (min_max_normalize, np.zeros(0), ValueError, "nonempty vector"),
    (l2_normalize_rows, np.ones((2, 3)) + 1j, InputError, "rows must hold real numbers"),
    (l2_normalize_rows, np.array([["1", "2"]]), InputError, "rows must hold real numbers"),
    (l2_normalize_rows, np.ones(3), InputError, r"rows must be a 2-d array, got shape \(3,\)"),
    (l2_normalize_rows, 2.0, InputError, r"rows must be a 2-d array, got shape \(\)"),
    (min_max_normalize, np.array([1.0, np.nan]), InputError, "values must be finite"),
    (min_max_normalize, np.array([0.0, np.inf]), InputError, "values must be finite"),
    (min_max_normalize, np.array([-np.inf, 0.0]), InputError, "values must be finite"),
    (mean_pool, np.ones(3), InputError,
     r"^the query must be a 2-d array of at least one row, got shape \(3,\)"),
    (mean_pool, np.zeros((0, 3)), InputError,
     r"^the query must be a 2-d array of at least one row, got shape \(0, 3\)"),
])
def test_public_functions_refuse_what_they_cannot_read(func, arg, error, match):
    with pytest.raises(error, match=match):
        func(arg)


def test_relevance_extremes():
    mu = np.array([0.0, 2.0])
    h = np.stack([mu, np.array([3.0, 0.0]), -mu])
    r = relevance_scores(h, mu)
    np.testing.assert_allclose(r, [1.0, 0.0, -1.0], atol=1e-15)


def test_relevance_of_orthonormal_rows_is_one_and_zero():
    h = np.diag([2.0, 3.0, 0.5])
    np.testing.assert_array_equal(relevance_scores(h, np.array([0.0, 5.0, 0.0])),
                                  [0.0, 1.0, 0.0])


def test_relevance_at_45_degrees():
    r = relevance_scores(np.array([[1.0, 1.0]]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(r, [np.sqrt(2) / 2])
    assert abs(r[0] - 0.70710678) < 1e-8


def test_relevance_of_a_zero_row_is_zero():
    r = relevance_scores(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([1.0, 2.0]))
    assert r[0] == 0.0
    np.testing.assert_allclose(r[1], 1.0)


def test_relevance_rejects_inputs_that_break_the_contract():
    with pytest.raises(InputError, match="width"):
        relevance_scores(np.ones((2, 3)), np.ones(4))
    with pytest.raises(InputError, match="token row 1"):
        relevance_scores(np.array([[1.0, 0.0], [np.nan, 1.0]]), np.ones(2))
    with pytest.raises(InputError, match="query"):
        relevance_scores(np.ones((2, 2)), np.array([np.inf, 1.0]))
    with pytest.raises(ValueError, match="vector"):
        relevance_scores(np.ones((2, 2)), np.ones((1, 2)))


def test_min_max_examples():
    np.testing.assert_allclose(min_max_normalize(np.array([0.2, 0.6, 1.0])),
                               [1e-6, 0.5, 1.0])
    np.testing.assert_array_equal(min_max_normalize(np.array([0.4, 0.4])),
                                  [1.0, 1.0])
    np.testing.assert_allclose(min_max_normalize(np.array([-1.0, 1.0])),
                               [1e-6, 1.0])
    # finite values whose span max - min overflows
    np.testing.assert_array_equal(min_max_normalize(np.array([-1e308, 0.0, 1e308])),
                                  [1e-6, 0.5, 1.0])
    big = np.finfo(np.float64).max
    np.testing.assert_array_equal(min_max_normalize(np.array([big, -big, 0.0])),
                                  [1.0, 1e-6, 0.5])


def test_min_max_range_property():
    for seed in range(20):
        v = gaussian_matrix(seed, 1, 15)[0]
        out = min_max_normalize(v)
        assert out.min() >= 1e-6
        assert out.max() == 1.0
