import numpy as np
import pytest
from hooks import (load_file, record_catch_ups, record_first_flush, record_flushes,
                   set_panel_rows, traced_peak)

from tokensieve import oracle, qcsp, similarity
from tokensieve.fusion import select
from tokensieve.qcsp import GreedyState, kernel_matrix
from tokensieve.rng import SplitMix64, gaussian_matrix
from tokensieve.similarity import (InputError, l2_normalize_rows, mean_pool,
                                   min_max_normalize, prepare, relevance_scores)


def random_instance(seed, n=12, d=6):
    """Prepared Gaussian tokens and the normalized relevance of a query."""
    rng = SplitMix64(seed)
    h = gaussian_matrix(rng.next_u64() >> 1, n, d)
    q = gaussian_matrix(rng.next_u64() >> 1, 2, d)
    r = min_max_normalize(relevance_scores(h, mean_pool(q)))
    return prepare(h), r


def greedy(prep, r, k):
    """The first k tokens of the walk of prep and r."""
    state = GreedyState(prep, r)
    state.extend(k)
    return state.order[:k].tolist()


def test_kernel_orthonormal_unit_relevance():
    l = kernel_matrix(prepare(np.eye(4)), np.ones(4))
    np.testing.assert_allclose(l, np.eye(4), atol=1e-15)


def test_kernel_uniform_relevance_scales_similarity():
    # kernel_matrix copies, so one instance gives both
    prep = prepare(gaussian_matrix(3, 6, 4))
    kc = kernel_matrix(prep, np.full(6, 0.5))
    k1 = kernel_matrix(prep, np.ones(6))
    np.testing.assert_allclose(kc, 0.25 * k1, atol=1e-15)


def test_kernel_identical_tokens_analytic():
    h = np.array([[2.0, 0.0], [4.0, 0.0]])  # same direction
    l = kernel_matrix(prepare(h), np.array([1.0, 0.5]))
    np.testing.assert_allclose(l, [[1.0, 0.5], [0.5, 0.25]], atol=1e-15)


def test_kernel_entry_row_diag_consistency():
    # the walk's gains start at L's diagonal
    prep, r = random_instance(0)
    l = kernel_matrix(prep, r)
    assert np.array_equal(GreedyState(prep, r).v_sq, np.diag(l))


def test_materialized_kernel_is_exactly_symmetric():
    # n spans several scaling blocks and is not a multiple of the block rows
    n = 600
    rows = similarity.SCALE_BLOCK_BYTES // (8 * n)
    assert 1 < rows < n // 2 and n % rows
    h = gaussian_matrix(8, n, 32)
    r = np.linspace(0.0, 1.0, n)
    unit = l2_normalize_rows(h)
    inv = prepare(h).inv_norm
    l = kernel_matrix(prepare(h), r)
    assert np.array_equal(l, l.T)
    assert np.array_equal(l, ((h @ h.T) * (inv[:, None] * inv)) * (r[:, None] * r))
    np.testing.assert_allclose(l, (unit @ unit.T) * (r[:, None] * r), atol=1e-15)
    # the same in the Gram buffer of a prepared instance, which the walk
    # scales in place: kernel_matrix copies it bit for bit
    prep = prepare(h, gaussian_matrix(9, 3, 32))
    s = prep.gram.copy()
    r = prep.relevance
    l = kernel_matrix(prep, r)
    assert np.array_equal(l, l.T)
    assert np.array_equal(l, s * (r[:, None] * r))
    assert np.array_equal(GreedyState(prep, r)._a, l)


def test_kernel_needs_the_prepared_gram():
    h = gaussian_matrix(10, 8, 4)
    prep = prepare(h)
    GreedyState(prep, prep.relevance)
    # the first walk took the Gram over
    with pytest.raises(ValueError, match="no Gram"):
        GreedyState(prep, prep.relevance)
    with pytest.raises(ValueError, match="no Gram"):
        GreedyState(prepare(h, gram=False), np.ones(8))


def test_kernel_validates_relevance_range():
    for build in (GreedyState, kernel_matrix):
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            build(prepare(np.eye(3)), np.array([0.5, 1.5, 0.2]))
        with pytest.raises(ValueError, match="shape mismatch"):
            build(prepare(np.eye(3)), np.ones(2))
        # min and max carry a NaN through, and the range test fails on it
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"in \[0, 1\]"):
                build(prepare(np.eye(3)), np.array([0.5, bad, 0.2]))
        with pytest.raises(InputError, match="relevance must hold real numbers"):
            build(prepare(np.eye(3)), np.array([0.5, 1.0, 0.2]) + 0j)


def test_greedy_identity_tie_break():
    assert greedy(prepare(np.eye(4)), np.ones(4), 1) == [0]


def test_greedy_prefers_orthogonal_pair():
    # 0.6-0.8 is exactly unit norm in floats, so every diagonal is 1.0
    # and the first pick falls to the lowest index
    h = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    prep = prepare(h)
    l = kernel_matrix(prep, np.ones(3))
    picked = greedy(prep, np.ones(3), 2)
    assert sorted(picked) == [0, 1]
    assert np.linalg.det(l[np.ix_(picked, picked)]) == pytest.approx(1.0)


def test_greedy_full_budget():
    picked = greedy(*random_instance(5, n=9), 9)
    assert sorted(picked) == list(range(9))


def test_qcsp_mode_relevance_wins():
    h = np.eye(2)
    picked = select("qcsp", h, np.array([[0.0, 1.0]]), 1).kept
    assert picked == [1]


def test_greedy_duplicate_tie_break():
    h = np.array([[1.0, 0.0]] * 3)
    assert greedy(prepare(h), np.ones(3), 1) == [0]


def test_duplicate_deferred_to_last():
    # a duplicate retains only the eps-scale residual, so the distinct
    # token goes second and the duplicate is still returned for k = n
    h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    state = GreedyState(prepare(h), np.ones(3))
    state.extend(3)
    order = [int(i) for i in state.order[:3]]
    assert order == [0, 2, 1]
    assert 0.0 < state.gains[2] < 3e-6
    assert not state.exhausted


def test_exhaustion_pads_ascending():
    # force the no-positive-gain branch: selection must still return
    # exactly k indices, padded in ascending index order
    state = GreedyState(*random_instance(4, n=5))
    state.v_sq[:] = 0.0
    state.extend(4)
    assert state.exhausted
    assert [int(i) for i in state.order[:4]] == [0, 1, 2, 3]
    assert all(state.gains[t] == 0.0 for t in range(4))


def test_prefix_consistency():
    # a walk takes its instance's Gram, so each walk gets a fresh instance
    for seed in range(10):
        full = greedy(*random_instance(seed, n=15, d=5), 15)
        for budget in (1, 4, 9):
            assert greedy(*random_instance(seed, n=15, d=5), budget) == full[:budget]


def test_extend_is_incremental():
    state = GreedyState(*random_instance(3, n=14, d=6))
    state.extend(4)
    head = [int(i) for i in state.order[:4]]
    state.extend(10)
    assert [int(i) for i in state.order[:4]] == head
    assert state.t == 10


def test_empty_input_raises_the_budget_error():
    # select names n before the budget, whose range [1, 0] would be empty
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        select("qcsp", np.zeros((0, 3)), None, 1)


def test_extend_validates_budget():
    state = GreedyState(*random_instance(2, n=5))
    with pytest.raises(ValueError):
        state.extend(0)
    with pytest.raises(ValueError):
        state.extend(6)
    members = np.array([True, False, True, False, False])
    with pytest.raises(ValueError, match=r"^k must lie in \[1, 2\], got 3$"):
        state.extend(3, members=members)
    for bad in (members[:4], members.astype(int)):
        with pytest.raises(ValueError, match=r"^members must be a bool array of shape \(5,\)"):
            state.extend(1, members=bad)
    # an empty mask and an empty instance are refused by name, before k
    with pytest.raises(ValueError, match="^members must hold at least one token"):
        state.extend(1, members=np.zeros(5, dtype=bool))
    assert state.t == 0
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        GreedyState(prepare(np.zeros((0, 3))), np.ones(0))


@pytest.mark.parametrize("k", [2.0, True, "3", np.int64(3)])
def test_walk_takes_an_integer_k_only(k):
    # GreedyState.extend checks k before it walks
    if isinstance(k, np.integer):
        assert greedy(*random_instance(2, n=5), k) == greedy(*random_instance(2, n=5), 3)
        return
    with pytest.raises(ValueError, match="^k must be an integer"):
        GreedyState(*random_instance(2, n=5)).extend(k)


def test_gains_match_det_ratios():
    for seed in range(10):
        prep, r = random_instance(seed, n=8, d=16)
        l = kernel_matrix(prep, r)
        state = GreedyState(prep, r)
        state.extend(4)
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
    state = GreedyState(*random_instance(7, n=16, d=6))
    state.extend(8)
    g = state.gains[:8]
    assert all(g[i] >= g[i + 1] - 1e-12 for i in range(7))


def design_gains(b, selected, eps):
    """eps * b_i^T (B_S^T B_S + eps*I)^-1 b_i for every row b_i of b, in
    O(n d^2 + d^3) with no n x n matrix."""
    b_s = b[selected]
    m = b_s.T @ b_s + eps * np.eye(b.shape[1])
    return eps * np.einsum("ij,ji->i", b, np.linalg.solve(m, b.T))


def test_residual_gains_are_the_design_gains_below_at_and_past_rank():
    # L = B B^T with rows b_i = r_i h_i / |h_i|; a walk of 300 tokens never
    # flushes (flush_rows(300) > 300), so v_sq stays indexed by token
    h, q = gaussian_matrix(3, 300, 40), gaussian_matrix(4, 8, 40)
    prep = prepare(h, q)
    b = prep.relevance[:, None] * prep.unit
    state = GreedyState(prep, prep.relevance)
    for t in (10, 39, 40, 41, 80, 200):
        state.extend(t)
        free = np.flatnonzero(state.v_sq != -np.inf)
        predicted = design_gains(b, state.order[:t], qcsp.EPS)[free]
        gains = state.v_sq[free]
        # measured, one and two BLAS threads: 3.5e-11 at T = 10, 9.4e-11 at
        # 40 and 1.04e-9 at 200, against the largest current gain
        assert np.abs(gains - predicted).max() <= 1e-8 * gains.max(), t
        state.extend(t + 1)
        assert state.order[t] == free[np.argmax(predicted)], t
    assert state.flushes == 0


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
    return prepare(h), min_max_normalize(rng.standard_normal(n)), d


def walk(prep, r, k, monkeypatch, rows):
    set_panel_rows(monkeypatch, rows)
    state = GreedyState(prep, r)
    state.extend(k)
    return state


@pytest.mark.parametrize("n", [196, 2880])
def test_step_product_by_dot_is_bit_equal_to_matmul(n):
    # before the first flush a step takes its panel column's product with the
    # whole panel rows by ndarray.dot, which must give np.matmul's bits, for
    # the strided column the step reads and for a contiguous one
    rows = min(n, qcsp.flush_rows(n))
    panel = gaussian_matrix(n, rows, n)
    out_dot, out_matmul = np.empty(n), np.empty(n)
    for kk in range(rows + 1):
        for col in (panel[:kk, n // 3], panel[:kk, n // 3].copy()):
            col.dot(panel[:kk], out=out_dot)
            np.matmul(col, panel[:kk], out=out_matmul)
            assert np.array_equal(out_dot, out_matmul), (kk, col.flags.c_contiguous)


def test_panel_size_is_about_one_l2():
    assert qcsp.flush_rows(576) == 455
    assert qcsp.flush_rows(196) == 1337
    assert qcsp.flush_rows(2880) == qcsp.PANEL_MIN_ROWS == 128


def test_flushed_walk_matches_unflushed_walk(monkeypatch):
    # a walk takes its instance's Gram, so each walk gets a fresh instance
    for seed in range(40):
        prep, r, _ = flush_instance(seed)
        n = prep.n
        ref = walk(prep, r, n, monkeypatch, n)  # the panel holds the whole walk
        assert ref.flushes == 0
        for rows in (1, 2, 5):
            state = walk(*flush_instance(seed)[:2], n, monkeypatch, rows)
            assert state.flushes > 0
            assert np.array_equal(state.order, ref.order), (seed, rows)
            assert state.exhausted == ref.exhausted
            # past the rank the gains are eps-scale differences of O(1)
            # numbers, so they are compared on the scale of the first gain
            np.testing.assert_allclose(state.gains, ref.gains, rtol=0,
                                       atol=1e-12 * ref.gains[0])


def test_flushed_walk_is_resumable_mid_panel(monkeypatch):
    for seed in range(10):
        prep, r, _ = flush_instance(seed)
        n = prep.n
        whole = walk(prep, r, n, monkeypatch, 4)
        rounds = GreedyState(*flush_instance(seed)[:2])
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
        set_panel_rows(monkeypatch, panel_rows)
    rng = np.random.default_rng(17)
    for seed in range(12):
        prep, r, _ = flush_instance(seed)
        n = prep.n
        whole = GreedyState(prep, r)
        whole.extend(n)
        rounds = GreedyState(*flush_instance(seed)[:2])
        t = 0
        while t < n:
            t = min(n, t + int(rng.integers(1, 8)))
            rounds.extend(t)
        assert (rounds.flushes > 0) == (panel_rows is not None), seed
        assert rounds.flushes == whole.flushes
        assert np.array_equal(rounds.order, whole.order), seed
        assert np.array_equal(rounds.gains, whole.gains), seed


def scan_in_rounds(state, k, members):
    """Grow state until its order holds k members, in rounds of plain
    extends: each round asks for as many steps as members are missing
    (one round, extend(k), for the all-True mask)."""
    found = int(np.count_nonzero(members[state.order[: state.t]]))
    while found < k:
        scanned = state.t
        state.extend(scanned + k - found)
        found += int(np.count_nonzero(members[state.order[scanned: state.t]]))


@pytest.mark.parametrize("panel_rows", [None, 3])
def test_member_bounded_extend_matches_the_round_scan(panel_rows, monkeypatch):
    # full-rank Gaussian instances, and flush_instance's n > d ones, whose
    # walks exhaust and pad members; each is walked from scratch and resumed
    # on a walked state, then asked for every member.  Besides a random mask
    # each is given the all-True one, which must walk as extend(k) does
    if panel_rows is not None:
        set_panel_rows(monkeypatch, panel_rows)
    rng = np.random.default_rng(29)
    padded, flushed = [0, 0], [0, 0]  # by mask: random, all-True
    for seed in range(24):
        def make():
            if seed % 2:
                return random_instance(seed, n=30, d=40)
            return flush_instance(seed)[:2]
        n = make()[0].n
        picked = rng.random(n) < rng.uniform(0.1, 0.9)
        picked[rng.integers(n)] = True
        for members in (picked, np.ones(n, dtype=bool)):
            count = int(np.count_nonzero(members))
            for resume in (0, int(rng.integers(1, n)), n):
                one, rounds = GreedyState(*make()), GreedyState(*make())
                if resume:
                    one.extend(resume)
                    rounds.extend(resume)
                for k in (int(rng.integers(1, count + 1)), count):
                    one.extend(k, members=members)
                    scan_in_rounds(rounds, k, members)
                    every = int(members.all())
                    case = (seed, every, resume, k)
                    assert (one.t, one.flushes, one.exhausted) == \
                        (rounds.t, rounds.flushes, rounds.exhausted), case
                    assert np.array_equal(one.order, rounds.order), case
                    assert np.array_equal(one.gains, rounds.gains), case
                    if resume < one.t:
                        # the walk stopped at the k-th member, or padded up to it
                        assert members[one.order[one.t - 1]]
                        padded[every] += one.gains[one.t - 1] == 0.0
                    flushed[every] += one.flushes > 0
    assert min(padded) > 0
    assert (min(flushed) > 0) == (max(flushed) > 0) == (panel_rows is not None)


def test_flushed_walk_keeps_shifted_gain_identity(monkeypatch):
    from tokensieve import verify
    set_panel_rows(monkeypatch, 2)
    for seed in [*range(40), 136]:
        prep, r, _ = flush_instance(seed)
        # to k = n, far past the rank; slogdet keeps the oracle's ratios
        # exact where the determinants of L + eps*I underflow
        _, shifted, _, _ = verify.marginal_gain_errors(prep, r, prep.n)
        assert max(shifted) <= 1e-9, seed


def test_a_second_walk_on_one_prepared_raises():
    prep, r, d = flush_instance(3)
    n = prep.n
    gram = prep.gram
    state = GreedyState(prep, r)
    # the walk runs in the Gram's own buffer
    assert prep.gram is None and state._a is gram
    for second in (GreedyState, kernel_matrix):
        with pytest.raises(ValueError, match="an earlier walk took it"):
            second(prep, r)
    # what the benchmark's tracer reads after a walk stays readable
    state.extend(n)
    assert state.kernel is prep
    assert state.kernel.n == n and state.kernel.unit.shape == (n, d)


def test_tie_break_follows_token_index_after_a_flush(monkeypatch):
    # tokens 0 and 3 are exact duplicates.  Token 5 is orthogonal to all and
    # goes first; with a one-row panel the flush before step 1 lays the rest
    # out by gain: 4, then the duplicates by token index, then 1 and 2.
    # Token 4 leans on the duplicates, so after step 1 token 1 wins at
    # position 4, and step 2's swap moves token 0 behind token 3.  At step 3
    # the two duplicates tie exactly, and the lower token index must win over
    # the lower position.
    h = np.array([[1.0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                  [1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 0, 0, 1]])
    r = np.array([0.75, 0.7, 0.5, 0.75, 0.9, 1.0])
    state = walk(prepare(h), r, 2, monkeypatch, 1)
    perm = state._perm
    assert state.flushes == 1
    assert perm.tolist() == [5, 4, 0, 3, 1, 2]
    state.extend(3)
    assert state.flushes == 2
    assert np.array_equal(perm[:3], state.order[:3])
    dup0, dup3 = np.flatnonzero(perm == 0)[0], np.flatnonzero(perm == 3)[0]
    assert dup0 > dup3
    assert state.v_sq[dup0] == state.v_sq[dup3] == state.v_sq[3:].max()
    state.extend(4)
    assert state.flushes == 3
    assert np.array_equal(perm[:4], state.order[:4])
    assert [int(i) for i in state.order[:4]] == [5, 4, 1, 0]
    unflushed = walk(prepare(h), r, 4, monkeypatch, 4)
    assert unflushed.flushes == 0
    assert np.array_equal(unflushed.order[:4], state.order[:4])


def test_materialized_panel_is_allocated_once(monkeypatch):
    for rows in (None, 3):  # a walk that never flushes and a flushing one
        prep, r, _ = flush_instance(4)
        if rows is not None:
            set_panel_rows(monkeypatch, rows)
        n = prep.n
        state = GreedyState(prep, r)
        buf = state._panel
        assert buf.shape == (min(n, qcsp.flush_rows(n)), n)
        state.extend(n)
        assert (state.flushes > 0) == (rows is not None)
        assert np.shares_memory(state._panel, buf)


def test_a_flush_allocates_nothing_past_the_panel():
    # a flush stores its panel in A's rows of the selected positions and
    # takes the freed panel buffer as GEMM scratch; a separate B x n scratch
    # buffer would be 2 MiB here.  The first flush's layout by gain takes
    # O(n) temporaries; a copy of the panel would be 2 MiB
    n = 1024
    prep = prepare(gaussian_matrix(8, n, 400))

    def walk_400():  # the state is built inside, so its panel is traced
        state = GreedyState(prep, np.ones(n))
        state.extend(400)
        return state

    peak, state = traced_peak(walk_400)
    assert state.flushes == 1 and state._panel.shape == (256, n)
    assert peak <= state._panel.nbytes + 2**20


def test_catch_ups_allocate_nothing_past_the_panel(monkeypatch):
    # a catch-up between flushes takes its GEMM scratch from the panel's
    # unused rows or from A's rows of the panel's steps, whichever is
    # larger: a mid-panel catch-up of the first walk takes the former, one of
    # the second walk the latter, and each walk flushes 3 times
    log = record_catch_ups(monkeypatch)
    for n, d, steps, seed, in_a in ((1024, 400, 800, 8, False), (1000, 200, 900, 35, True)):
        prep = prepare(gaussian_matrix(seed, n, d), gaussian_matrix(seed + 1, 3, d))
        b = qcsp.flush_rows(n)
        log.clear()

        def walk_through():
            state = GreedyState(prep, prep.relevance)
            state.extend(steps)
            return state

        peak, state = traced_peak(walk_through)
        assert state.flushes == 3
        assert any(0 < kk and (2 * kk > b) == in_a for _, _, kk in log), log
        assert peak <= state._panel.nbytes + 2**20


def test_positions_track_the_selection(monkeypatch):
    # after the first flush the walk pivots in dpstrf order: at every step
    # positions [0, t) hold the tokens selected so far, in step order
    for rows in (1, 2, 5):
        set_panel_rows(monkeypatch, rows)
        for seed in range(40):
            prep, r, _ = flush_instance(seed)
            n = prep.n
            state = GreedyState(prep, r)
            for t in range(1, n + 1):
                state.extend(t)
                if state.exhausted:
                    break
                if state.flushes:
                    assert np.array_equal(state._perm[:t], state.order[:t]), (seed, rows, t)
                    assert np.all(state.v_sq[:t] == -np.inf)
            assert state.flushes > 0
            assert np.array_equal(np.sort(state._perm), np.arange(n)), (seed, rows)


def test_first_flush_lays_the_unselected_tokens_out_by_gain(monkeypatch):
    # positions [0, t) hold the tokens selected so far and [t, n) the others
    # by descending gain, ties (duplicates, zero rows) to the lower token.
    # The flush stores the panel's columns [t, n) in A's rows [0, t) and folds
    # the panel into rows [t, lag) alone, the Schur complement L - P.T @ P
    # there; it sets lag = t, so rows [t, n) are the permuted L, bit for bit
    seen = record_first_flush(monkeypatch)  # each walk's first flush refills it
    for rows in (1, 2, 5):
        for seed in range(20):
            prep, r, _ = flush_instance(seed)
            l = kernel_matrix(prep, r)
            state = walk(prep, r, prep.n, monkeypatch, rows)
            assert state.flushes > 0
            t, perm, gains, lag = seen["t"], seen["perm"], seen["gains"], seen["lag"]
            a, panel = seen["a"], seen["panel"]
            assert np.array_equal(perm[:t], state.order[:t]), (seed, rows)
            rest = perm[t:]
            assert np.array_equal(np.lexsort((rest, -gains[rest])), np.arange(rest.size))
            assert lag == t
            assert np.array_equal(a[:t, t:], panel[:, rest])
            schur = (l - panel.T @ panel)[np.ix_(perm[t:lag], rest)]
            np.testing.assert_allclose(np.triu(a[t:lag, t:]), np.triu(schur),
                                       rtol=0, atol=1e-12)
            late = perm[lag:]
            assert np.array_equal(np.triu(a[lag:, lag:]), np.triu(l[np.ix_(late, late)]))


def check_lagging_rows(state, l, stored):
    """The layout of A after a step of a flushed walk: rows [t, lag) hold
    the Schur complement of the stored coefficient rows within 1e-12 above
    the diagonal (a swap leaves the diagonal, which no step reads), rows
    [lag, n) the permuted L bit for bit, and A's rows [0, t - kk) the stored
    rows, of which the columns [lag, n) are read."""
    t, lag, perm, a = state.t, state._lag, state._perm, state._a
    coef = np.vstack(stored)
    assert coef.shape[0] == t - state._kk
    now, rest, late = perm[t:lag], perm[t:], perm[lag:]
    schur = l[np.ix_(now, rest)] - coef[:, now].T @ coef[:, rest]
    np.testing.assert_allclose(np.triu(a[t:lag, t:], 1), np.triu(schur, 1), rtol=0, atol=1e-12)
    assert np.array_equal(np.triu(a[lag:, lag:]), np.triu(l[np.ix_(late, late)]))
    assert np.array_equal(a[: coef.shape[0], lag:], coef[:, late])


def walk_checking_lag(prep, r, k, checked, monkeypatch):
    """Walk prep and r one step per extend for k steps or until the gains run
    out, checking after every step that t <= lag, and A's layout after the
    steps checked(state) names once the first flush has run; then the walk
    against the unblocked one.  Returns the state and its catch-ups'
    (t, p, kk)."""
    l = kernel_matrix(prep, r)
    stored, catch_ups = record_flushes(monkeypatch), record_catch_ups(monkeypatch)
    state = GreedyState(prep, r)
    for t in range(1, k + 1):
        state.extend(t)
        if state.exhausted:
            break
        # a catch-up folds rows [lag, p + B), so it never reaches the dead
        # rows [0, t) that hold the stored rows: during a step lag > p >= t,
        # and after it t may reach lag, when the next winner catches up
        assert t <= state._lag
        if state.flushes and checked(state):
            check_lagging_rows(state, l, stored)
    order, gains = oracle.greedy_walk(l, state.t, qcsp.EPS)
    assert state.order[: len(order)].tolist() == order
    np.testing.assert_allclose(state.gains[: len(order)], gains, rtol=0,
                               atol=1e-12 * gains[0])
    return state, catch_ups


def test_lagging_rows_catch_up_when_a_winner_reaches_them(monkeypatch):
    # after the first flush A's rows [t, lag) take each flush and rows
    # [lag, n) wait as the first flush laid them out, until a winner at or
    # past lag folds every stored coefficient row into rows [lag, p + B).
    # Small panels make catch-ups that fold several stored panels, and
    # catch-ups past the middle of a panel, whose scratch is A's rows of
    # its steps
    many, dead_rows = 0, 0
    for rows in (1, 2, 5, 16):
        set_panel_rows(monkeypatch, rows)
        for seed in range(20):
            prep, r, _ = flush_instance(seed)
            state, log = walk_checking_lag(prep, r, prep.n, lambda s: True, monkeypatch)
            assert state.catch_ups == len(log)
            many += sum(t - kk > rows for t, _, kk in log)
            dead_rows += sum(2 * kk > rows for _, _, kk in log)
    assert many > 0 and dead_rows > 0


def test_lagging_rows_at_the_shipped_panel_size(monkeypatch):
    # n = 1000, B = flush_rows(n) = 262: a walk of 900 steps flushes 3
    # times, and its third catch-up folds the two stored panels, mid-panel.
    # A is checked every 8 steps and after each flush and catch-up
    n = 1000
    prep = prepare(gaussian_matrix(35, n, 200), gaussian_matrix(36, 3, 200))
    b = qcsp.flush_rows(n)
    seen = set()

    def checked(state):
        key = (state.flushes, state.catch_ups)
        fresh = key not in seen
        seen.add(key)
        return fresh or state.t % 8 == 0

    state, log = walk_checking_lag(prep, prep.relevance, 900, checked, monkeypatch)
    assert state.flushes >= 3 and len(log) >= 3
    assert any(t - kk >= 2 * b and kk > 0 for t, _, kk in log)


@pytest.mark.parametrize("new, t", [
    ([5, 0, 7, 1, 4, 6, 2, 3], 3),  # fixed point 4, one cycle through rows 0-2
    ([3, 1, 0, 2], 1),  # fixed point 1, a cycle of rows >= t and one row below
    ([2, 0, 1, 4, 3], 4),  # t = n - 1
    *[(np.random.default_rng(seed).permutation(9).tolist(), seed) for seed in range(9)],
])
def test_permute_upper_matches_fancy_indexing(new, t):
    new = np.array(new)
    n = new.size
    a = gaussian_matrix(n, n, n)
    a += a.T
    out = a.copy()
    qcsp._permute_upper(out, new, t, np.empty(n))
    assert np.array_equal(out[:t], a[:t])
    assert np.array_equal(np.triu(out[t:, t:]), np.triu(a[np.ix_(new, new)][t:, t:]))


def test_padding_after_a_flush_takes_each_token_once(monkeypatch):
    # 9 independent tokens in 12 dimensions and 3 zero rows: the walk picks
    # the 9, flushing every 2 steps, and exhausts one step into a panel;
    # the zero rows are padded once each, in ascending order
    zero = [2, 4, 9]
    h = np.random.default_rng(5).standard_normal((12, 12))[:9]
    h = np.insert(h, [z - i for i, z in enumerate(zero)], 0.0, axis=0)
    r = min_max_normalize(np.arange(12.0))
    for ks in ([12], [10, 11, 12], [11, 12]):
        set_panel_rows(monkeypatch, 2)
        state = GreedyState(prepare(h), r)
        for k in ks:
            state.extend(k)
        assert state.exhausted and state.flushes == 4
        assert state.order[9:].tolist() == zero
        assert np.array_equal(np.sort(state.order), np.arange(12))
        assert np.all(state.gains[9:] == 0.0) and np.all(state.gains[:9] > 0.0)


def test_full_panel_is_flushed_only_when_another_step_runs(monkeypatch):
    rows = 3
    state = walk(*random_instance(3, n=14, d=6), rows, monkeypatch, rows)
    assert state.t == rows and state.flushes == 0 and not state.exhausted
    state.extend(rows + 1)
    assert state.flushes == 1
    # the same steps as a walk whose panel never fills
    ref = walk(*random_instance(3, n=14, d=6), rows + 1, monkeypatch, 14)
    assert ref.flushes == 0
    assert np.array_equal(state.order[:rows + 1], ref.order[:rows + 1])
    assert np.array_equal(state.gains[:rows + 1], ref.gains[:rows + 1])


def test_walk_flushes_only_before_a_positive_gain(monkeypatch):
    # a full panel is flushed only when the step after it picks a token, so
    # a walk of T positive gains makes one flush per B steps before step T
    for rows in (1, 2, 3, 4, 5, 7):
        for seed in range(40):
            prep, r, _ = flush_instance(seed)
            state = walk(prep, r, prep.n, monkeypatch, rows)
            t = int(np.count_nonzero(state.gains > 0.0))
            assert state.exhausted, (seed, rows)
            assert state.flushes == max(0, (t - 1) // rows), (seed, rows)


def test_bench_walk_instrumentation_times_every_part(monkeypatch):
    # scripts/bench_walk.py times a walk's parts by replacing _flush,
    # _order_by_gain, _swap and _catch_up and swapping qcsp.np for a proxy
    # during flushes; a refactor of any would silently zero its figures
    script = load_file("scripts/bench_walk.py", "bench_walk")
    h, q = gaussian_matrix(5, 300, 40), gaussian_matrix(6, 2, 40)
    set_panel_rows(monkeypatch, 8)

    def walk_60():
        prep = prepare(h, q)
        state = GreedyState(prep, prep.relevance)
        state.extend(60)
        return state

    plain = walk_60()
    names = ("_flush", "_order_by_gain", "_swap", "_catch_up")
    before = [getattr(GreedyState, name) for name in names]
    timer = script._Parts(qcsp, np)
    try:
        timed = walk_60()
    finally:
        timer.restore()
    assert [getattr(GreedyState, name) for name in names] == before and qcsp.np is np
    assert timed.flushes == 7
    assert sorted(timer.acc) == ["catch_up_s", "flush_order_s", "flush_s", "gemm_s",
                                 "subtract_s", "swaps_s"]
    assert all(seconds > 0 for seconds in timer.acc.values()), timer.acc
    assert np.array_equal(timed.order, plain.order)
    assert np.array_equal(timed.gains, plain.gains)
