import numpy as np
import pytest

from tokensieve import qcsp
from tokensieve.qcsp import GreedyState, build_kernel, greedy_map, qcsp_select
from tokensieve.rng import SplitMix64, gaussian_matrix
from tokensieve.similarity import (l2_normalize_rows, mean_pool,
                                   min_max_normalize, prepare, relevance_scores)


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


def test_materialized_kernel_is_exactly_symmetric():
    # n spans several scaling blocks and is not a multiple of the block rows
    n = 600
    rows = qcsp.SCALE_BLOCK_BYTES // (8 * n)
    assert 1 < rows < n // 2 and n % rows
    h = gaussian_matrix(8, n, 32)
    r = np.linspace(0.0, 1.0, n)
    unit = l2_normalize_rows(h)
    l = build_kernel(h, r).materialize()
    assert np.array_equal(l, l.T)
    assert np.array_equal(l, (unit @ unit.T) * (r[:, None] * r))
    # the same from a prepared instance, whose Gram buffer the kernel scales
    prep = prepare(h, gaussian_matrix(9, 3, 32))
    s = prep.gram.copy()
    r = prep.relevance
    l = build_kernel(prep, r).materialize()
    assert np.array_equal(l, l.T)
    assert np.array_equal(l, s * (r[:, None] * r))


def test_kernel_needs_the_prepared_gram():
    h = gaussian_matrix(10, 8, 4)
    prep = prepare(h)
    build_kernel(prep, prep.relevance)
    # the first kernel took the Gram over
    with pytest.raises(ValueError, match="no Gram"):
        build_kernel(prep, prep.relevance)
    with pytest.raises(ValueError, match="no Gram"):
        build_kernel(prepare(h, gram=False), np.ones(8))


def test_kernel_validates_relevance_range():
    with pytest.raises(ValueError):
        build_kernel(np.eye(3), np.array([0.5, 1.5, 0.2]))
    with pytest.raises(ValueError):
        build_kernel(np.eye(3), np.ones(2))


def test_greedy_identity_tie_break():
    k = build_kernel(np.eye(4), np.ones(4))
    assert greedy_map(k, 1) == [0]


def test_greedy_prefers_orthogonal_pair():
    # 0.6-0.8 is exactly unit norm in floats, so every diagonal is 1.0
    # and the first pick falls to the lowest index
    h = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    k = build_kernel(h, np.ones(3))
    picked = greedy_map(k, 2)
    assert sorted(picked) == [0, 1]
    l = k.materialize()
    assert np.linalg.det(l[np.ix_(picked, picked)]) == pytest.approx(1.0)


def test_greedy_full_budget():
    k = random_kernel(5, n=9)
    picked = greedy_map(k, 9)
    assert sorted(picked) == list(range(9))


def test_qcsp_select_relevance_wins():
    h = np.eye(2)
    picked = qcsp_select(h, np.array([[0.0, 1.0]]), 1)
    assert picked == [1]


def test_greedy_duplicate_tie_break():
    h = np.array([[1.0, 0.0]] * 3)
    k = build_kernel(h, np.ones(3))
    assert greedy_map(k, 1) == [0]


def test_duplicate_deferred_to_last():
    # a duplicate retains only the eps-scale residual, so the distinct
    # token goes second and the duplicate is still returned for k = n
    h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    k = build_kernel(h, np.ones(3))
    state = GreedyState(k)
    state.extend(3)
    order = [int(i) for i in state.order[:3]]
    assert order == [0, 2, 1]
    assert 0.0 < state.gains[2] < 3e-6
    assert not state.exhausted


def test_exhaustion_pads_ascending():
    # force the no-positive-gain branch: selection must still return
    # exactly k indices, padded in ascending index order
    k = random_kernel(4, n=5)
    state = GreedyState(k)
    state.v_sq[:] = 0.0
    state.extend(4)
    assert state.exhausted
    assert [int(i) for i in state.order[:4]] == [0, 1, 2, 3]
    assert all(state.gains[t] == 0.0 for t in range(4))


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


def test_empty_input_raises_the_budget_error():
    with pytest.raises(ValueError, match=r"k must lie in \[1, 0\]"):
        qcsp_select(np.zeros((0, 3)), None, 1)


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


# ---------------------------------------------------------------- blocked walk

def flush_instance(seed):
    """n > d tokens with duplicated rows, zero rows and a zero-relevance row,
    so walks run past the kernel's rank and end in padding."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 61))
    d = int(rng.integers(2, 13))
    h = rng.standard_normal((n, d))
    h[rng.integers(0, n, size=4)] = h[rng.integers(0, n, size=4)]
    h[rng.integers(0, n, size=3)] = 0.0
    return build_kernel(h, min_max_normalize(rng.standard_normal(n))), d


def set_panel_rows(monkeypatch, rows):
    monkeypatch.setattr(qcsp, "PANEL_MIN_ROWS", rows)
    monkeypatch.setattr(qcsp, "PANEL_BYTES", 0)
    # several GEMM blocks per flush, so only the lower triangle of A is valid
    monkeypatch.setattr(qcsp, "FLUSH_BLOCK", 7)
    assert qcsp.flush_rows(1000) == rows


def walk(kernel, k, monkeypatch, rows):
    set_panel_rows(monkeypatch, rows)
    state = GreedyState(kernel)
    state.extend(k)
    return state


def test_panel_size_is_about_one_l2():
    assert qcsp.flush_rows(576) == 455
    assert qcsp.flush_rows(196) == 1337
    assert qcsp.flush_rows(2880) == qcsp.PANEL_MIN_ROWS == 128


def test_flushed_walk_matches_unflushed_walk(monkeypatch):
    # a flushing walk overwrites its kernel, so each walk gets a fresh one
    for seed in range(40):
        kernel, _ = flush_instance(seed)
        n = kernel.n
        ref = walk(kernel, n, monkeypatch, n)  # the panel holds the whole walk
        assert ref.flushes == 0
        for rows in (1, 2, 5):
            state = walk(flush_instance(seed)[0], n, monkeypatch, rows)
            assert state.flushes > 0
            assert np.array_equal(state.order, ref.order), (seed, rows)
            assert state.exhausted == ref.exhausted
            # past the rank the gains are eps-scale differences of O(1)
            # numbers, so they are compared on the scale of the first gain
            np.testing.assert_allclose(state.gains, ref.gains, rtol=0,
                                       atol=1e-12 * ref.gains[0])


def test_flushed_walk_is_resumable_mid_panel(monkeypatch):
    for seed in range(10):
        kernel, _ = flush_instance(seed)
        n = kernel.n
        whole = walk(kernel, n, monkeypatch, 4)
        rounds = GreedyState(flush_instance(seed)[0])
        for k in (1, 3, 6, 7, 13, n - 2, n):  # most end inside a panel
            rounds.extend(k)
        assert np.array_equal(rounds.order, whole.order)
        assert np.array_equal(rounds.gains, whole.gains)
        assert np.array_equal(rounds.v_sq, whole.v_sq)


@pytest.mark.parametrize("panel_rows", [None, 3])
def test_walk_in_short_rounds_matches_one_extend(panel_rows, monkeypatch):
    # rounds of 1-7 steps, as the fused scan asks for them; with a 3-row
    # panel most rounds start or end inside a panel, between flushes
    if panel_rows is not None:
        monkeypatch.setattr(qcsp, "flush_rows", lambda n: panel_rows)
        monkeypatch.setattr(qcsp, "FLUSH_BLOCK", 7)
    rng = np.random.default_rng(17)
    for seed in range(12):
        kernel, _ = flush_instance(seed)
        n = kernel.n
        whole = GreedyState(kernel)
        whole.extend(n)
        rounds = GreedyState(flush_instance(seed)[0])
        t = 0
        while t < n:
            t = min(n, t + int(rng.integers(1, 8)))
            rounds.extend(t)
        assert (rounds.flushes > 0) == (panel_rows is not None), seed
        assert rounds.flushes == whole.flushes
        assert np.array_equal(rounds.order, whole.order), seed
        assert np.array_equal(rounds.gains, whole.gains), seed


def test_flushed_walk_keeps_shifted_gain_identity(monkeypatch):
    from tokensieve import verify
    set_panel_rows(monkeypatch, 2)
    for seed in [*range(40), 136]:
        kernel, _ = flush_instance(seed)
        # to k = n, far past the rank; slogdet keeps the oracle's ratios
        # exact where the determinants of L + eps*I underflow
        _, shifted = verify.marginal_gain_errors(kernel, kernel.n)
        assert max(shifted) <= 1e-9, seed


def test_flushed_walk_consumes_the_kernel(monkeypatch):
    kernel, _ = flush_instance(3)
    n = kernel.n
    idle = GreedyState(kernel)
    state = walk(kernel, n, monkeypatch, 2)
    assert state.t == n and state.flushes > 0
    for read in (kernel.materialize, kernel.diagonal, lambda: GreedyState(kernel),
                 lambda: idle.extend(1)):
        with pytest.raises(qcsp.KernelConsumedError):
            read()
    # what the benchmark's tracer reads after a walk stays readable
    assert kernel.n == n and kernel.unit.shape[0] == n


def test_unflushed_walk_leaves_the_kernel_readable(monkeypatch):
    kernel, _ = flush_instance(3)
    before = kernel.materialize().copy()
    state = walk(kernel, kernel.n, monkeypatch, kernel.n)
    assert state.flushes == 0
    assert np.array_equal(kernel.materialize(), before)


def test_tie_break_follows_token_index_after_a_flush(monkeypatch):
    # tokens 0 and 3 are exact duplicates, orthogonal to tokens 5 and 4,
    # which have the largest relevance and go first.  With a one-row panel
    # the flush before step 1 swaps token 5 into position 0 and token 0
    # into position 5, behind token 3.  At step 2 the two duplicates tie
    # exactly, and the lower token index must win over the lower position.
    h = np.array([[1.0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1],
                  [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    r = np.array([0.75, 0.5, 0.5, 0.75, 0.9, 1.0])
    state = walk(build_kernel(h, r), 3, monkeypatch, 1)
    assert state.flushes == 2
    assert state._ipos[0] > state._ipos[3]
    assert state.gains[2] == 0.75 ** 2
    assert [int(i) for i in state.order[:3]] == [5, 4, 0]
    unflushed = walk(build_kernel(h, r), 3, monkeypatch, 3)
    assert unflushed.flushes == 0
    assert np.array_equal(unflushed.order[:3], state.order[:3])


def test_materialized_panel_is_allocated_once(monkeypatch):
    for rows in (None, 3):  # a walk that never flushes and a flushing one
        kernel, _ = flush_instance(4)
        if rows is not None:
            set_panel_rows(monkeypatch, rows)
        n = kernel.n
        state = GreedyState(kernel)
        buf = state._panel
        assert buf.shape == (min(n, qcsp.flush_rows(n)), n)
        state.extend(n)
        assert (state.flushes > 0) == (rows is not None)
        assert np.shares_memory(state._panel, buf)


def test_positions_track_the_selection(monkeypatch):
    # after every walk: perm and ipos are inverse permutations, positions
    # [0, f) hold the tokens selected up to the last flush in step order,
    # and no unselected token sits before f
    for rows in (1, 2, 5):
        for seed in range(40):
            kernel, _ = flush_instance(seed)
            n = kernel.n
            state = walk(kernel, n, monkeypatch, rows)
            perm, f = state._perm, state._f
            assert state.flushes > 0 and f > 0
            assert np.array_equal(perm[state._ipos], np.arange(n)), (seed, rows)
            assert np.array_equal(perm[:f], state.order[:f]), (seed, rows)
            assert np.all(state.v_sq[:f] == -np.inf)


def test_full_panel_is_flushed_only_when_another_step_runs(monkeypatch):
    rows = 3
    kernel = random_kernel(3, n=14, d=6)
    before = kernel.materialize().copy()
    state = walk(kernel, rows, monkeypatch, rows)
    assert state.t == rows and state.flushes == 0 and not state.exhausted
    assert np.array_equal(kernel.materialize(), before)
    state.extend(rows + 1)
    assert state.flushes == 1
    with pytest.raises(qcsp.KernelConsumedError):
        kernel.materialize()
    # the same steps as a walk whose panel never fills
    ref = walk(random_kernel(3, n=14, d=6), rows + 1, monkeypatch, 14)
    assert ref.flushes == 0
    assert np.array_equal(state.order[:rows + 1], ref.order[:rows + 1])
    assert np.array_equal(state.gains[:rows + 1], ref.gains[:rows + 1])


def test_walk_flushes_only_before_a_positive_gain(monkeypatch):
    # a full panel is flushed only when the step after it picks a token, so
    # a walk of T positive gains makes one flush per B steps before step T
    for rows in (1, 2, 3, 4, 5, 7):
        for seed in range(40):
            kernel, _ = flush_instance(seed)
            state = walk(kernel, kernel.n, monkeypatch, rows)
            t = int(np.count_nonzero(state.gains > 0.0))
            assert state.exhausted, (seed, rows)
            assert state.flushes == max(0, (t - 1) // rows), (seed, rows)
