import numpy as np
import pytest

from tokensieve import qcsp
from tokensieve.qcsp import (DppKernel, GreedyState, _mirror_lower,
                             available_backends, build_kernel, greedy_map,
                             qcsp_select)
from tokensieve.rng import SplitMix64, gaussian_matrix
from tokensieve.similarity import (l2_normalize_rows, mean_pool,
                                   min_max_normalize, relevance_scores)

BACKENDS = available_backends()


def random_kernel(seed, n=12, d=6):
    rng = SplitMix64(seed)
    h = gaussian_matrix(rng.next_u64() >> 1, n, d)
    q = gaussian_matrix(rng.next_u64() >> 1, 2, d)
    r = min_max_normalize(relevance_scores(h, mean_pool(q)))
    return build_kernel(h, r)


def test_kernel_orthonormal_unit_relevance():
    k = build_kernel(np.eye(4), np.ones(4))
    np.testing.assert_allclose(k.materialize(), np.eye(4), atol=1e-15)


def test_kernel_uniform_relevance_scales_similarity():
    h = gaussian_matrix(3, 6, 4)
    kc = build_kernel(h, np.full(6, 0.5))
    k1 = build_kernel(h, np.ones(6))
    np.testing.assert_allclose(kc.materialize(), 0.25 * k1.materialize(),
                               atol=1e-15)


def test_kernel_identical_tokens_analytic():
    h = np.array([[2.0, 0.0], [4.0, 0.0]])  # same direction
    k = build_kernel(h, np.array([1.0, 0.5]))
    np.testing.assert_allclose(k.materialize(),
                               [[1.0, 0.5], [0.5, 0.25]], atol=1e-15)


def test_kernel_entry_row_diag_consistency():
    k = random_kernel(0)
    l = k.materialize()
    np.testing.assert_allclose(k.diagonal(), np.diag(l))
    for j in (0, 5, 11):
        np.testing.assert_allclose(k.row(j), l[j])
        assert k.entry(3, j) == pytest.approx(l[3, j])


def test_materialized_kernel_is_exactly_symmetric():
    # n spans several mirror blocks and is not a multiple of the block size
    h = gaussian_matrix(8, 600, 32)
    r = np.linspace(0.0, 1.0, 600)
    l = build_kernel(h, r).materialize()
    unit = l2_normalize_rows(h)
    raw = unit @ unit.T * r[:, None] * r
    _mirror_lower(raw)
    assert np.array_equal(l, l.T)
    assert np.array_equal(l, raw)
    # a matrix far from symmetric shows the mirror copies lower onto upper
    a = gaussian_matrix(9, 600, 600)
    expected = np.tril(a) + np.tril(a, -1).T
    _mirror_lower(a)
    assert np.array_equal(a, expected)


def test_row_on_demand_kernel_matches_materialized():
    rng = np.random.default_rng(21)
    for trial in range(10):
        n = int(rng.integers(6, 70))
        d = int(rng.integers(2, 40))  # n > d in most trials
        h = rng.standard_normal((n, d))
        h[rng.integers(0, n, size=2)] = 0.0  # zero rows
        r = min_max_normalize(rng.standard_normal(n))
        dense = build_kernel(h, r)
        lazy = build_kernel(h, r, materialize_threshold=n - 1)
        assert dense.materialized and not lazy.materialized
        l = dense.materialize()
        np.testing.assert_allclose(lazy.diagonal(), np.diag(l), rtol=1e-13, atol=1e-16)
        for j in range(n):
            np.testing.assert_allclose(lazy.row(j), l[j], rtol=1e-12, atol=1e-15)
        assert lazy.entry(1, n - 1) == pytest.approx(l[1, n - 1], rel=1e-12, abs=1e-15)
        # past the kernel's rank the residual gains are rounding noise, so
        # the order is compared up to it
        k = min(d, int(np.count_nonzero(np.diag(l))))
        expected = greedy_map(dense, k, backend="python")
        assert greedy_map(lazy, k, backend="python") == expected, trial
        assert not lazy.materialized


def test_kernel_validates_relevance_range():
    with pytest.raises(ValueError):
        build_kernel(np.eye(3), np.array([0.5, 1.5, 0.2]))
    with pytest.raises(ValueError):
        build_kernel(np.eye(3), np.ones(2))


@pytest.mark.parametrize("backend", BACKENDS)
def test_greedy_identity_tie_break(backend):
    k = build_kernel(np.eye(4), np.ones(4))
    assert greedy_map(k, 1, backend=backend) == [0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_greedy_prefers_orthogonal_pair(backend):
    # 0.6-0.8 is exactly unit norm in floats, so every diagonal is 1.0
    # and the first pick falls to the lowest index
    h = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    k = build_kernel(h, np.ones(3))
    picked = greedy_map(k, 2, backend=backend)
    assert sorted(picked) == [0, 1]
    l = k.materialize()
    assert np.linalg.det(l[np.ix_(picked, picked)]) == pytest.approx(1.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_greedy_full_budget(backend):
    k = random_kernel(5, n=9)
    picked = greedy_map(k, 9, backend=backend)
    assert sorted(picked) == list(range(9))


def test_qcsp_select_relevance_wins():
    h = np.eye(2)
    picked = qcsp_select(h, np.array([[0.0, 1.0]]), 1)
    assert picked == [1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_greedy_duplicate_tie_break(backend):
    h = np.array([[1.0, 0.0]] * 3)
    k = build_kernel(h, np.ones(3))
    assert greedy_map(k, 1, backend=backend) == [0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_deferred_to_last(backend):
    # a duplicate retains only the eps-scale residual, so the distinct
    # token goes second and the duplicate is still returned for k = n
    h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    k = build_kernel(h, np.ones(3))
    state = GreedyState(k, backend=backend)
    state.extend(3)
    order = [int(i) for i in state.order[:3]]
    assert order == [0, 2, 1]
    assert 0.0 < state.gains[2] < 3e-6
    assert not state.exhausted


@pytest.mark.parametrize("backend", BACKENDS)
def test_exhaustion_pads_ascending(backend):
    # force the no-positive-gain branch: selection must still return
    # exactly k indices, padded in ascending index order
    k = random_kernel(4, n=5)
    state = GreedyState(k, backend=backend)
    state.v_sq[:] = 0.0
    state.extend(4)
    assert state.exhausted
    assert [int(i) for i in state.order[:4]] == [0, 1, 2, 3]
    assert all(state.gains[t] == 0.0 for t in range(4))


def test_backends_agree_on_random_instances():
    if len(BACKENDS) < 2:
        pytest.skip("single backend build")
    for seed in range(30):
        k = random_kernel(seed, n=20, d=8)
        assert greedy_map(k, 10, backend="native") == \
            greedy_map(k, 10, backend="python")


def test_prefix_consistency():
    for seed in range(10):
        k = random_kernel(seed, n=15, d=5)
        full = greedy_map(k, 15)
        for budget in (1, 4, 9):
            assert greedy_map(k, budget) == full[:budget]


def test_extend_is_incremental():
    k = random_kernel(3, n=14, d=6)
    state = GreedyState(k)
    state.extend(4)
    head = [int(i) for i in state.order[:4]]
    state.extend(10)
    assert [int(i) for i in state.order[:4]] == head
    assert state.t == 10


def test_extend_validates_budget():
    k = random_kernel(2, n=5)
    state = GreedyState(k)
    with pytest.raises(ValueError):
        state.extend(0)
    with pytest.raises(ValueError):
        state.extend(6)


def test_gains_match_det_ratios():
    for seed in range(10):
        k = random_kernel(seed, n=8, d=16)
        state = GreedyState(k)
        state.extend(4)
        l = k.materialize()
        det_prev = 1.0
        for t in range(state.t):
            if state.gains[t] == 0.0 and state.exhausted:
                break
            s = [int(i) for i in state.order[: t + 1]]
            det_cur = float(np.linalg.det(l[np.ix_(s, s)]))
            if det_prev > 1e-12:
                ratio = det_cur / det_prev
                assert abs(state.gains[t] - ratio) <= 1e-6 * (1.0 + abs(ratio))
            det_prev = det_cur


def test_gains_are_non_increasing():
    k = random_kernel(7, n=16, d=6)
    state = GreedyState(k)
    state.extend(8)
    g = state.gains[:8]
    assert all(g[i] >= g[i + 1] - 1e-12 for i in range(7))


def test_explicit_python_backend_available_everywhere():
    k = random_kernel(1, n=6)
    assert greedy_map(k, 3, backend="python") == greedy_map(k, 3)


def test_unknown_backend_rejected():
    k = random_kernel(1, n=6)
    with pytest.raises(ValueError):
        GreedyState(k, backend="fortran")
