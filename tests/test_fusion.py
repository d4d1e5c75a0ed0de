import numpy as np
import pytest
from hooks import load_file, record_walks, traced_peak

from tokensieve import fusion, gsp, oracle, qcsp, similarity
from tokensieve.fusion import script_select, select
from tokensieve.gsp import gsp_select
from tokensieve.qcsp import EPS, GreedyState, kernel_matrix
from tokensieve.rng import SplitMix64, gaussian_matrix
from tokensieve.similarity import (InputError, l2_normalize_rows, mean_pool,
                                   min_max_normalize, prepare, relevance_scores)


def reference_script(h_v, h_q, m, tau=0.3, gamma=5.0, gsp_keep=None):
    """Direct transcription of the fusion rule, no lazy chunking, over the
    oracle's unblocked walk rather than the program's own; also returns how
    many G-members the order places past step m."""
    n = len(h_v)
    if gsp_keep is None:
        gsp_keep = min(n, 2 * m)
    g = set(gsp_select(prepare(h_v, gram=False), tau, gamma, keep=gsp_keep))
    if h_q is None:
        r = np.ones(n)
    else:
        r = min_max_normalize(relevance_scores(h_v, mean_pool(h_q)))
    walked, _ = oracle.greedy_walk(kernel_matrix(prepare(h_v), r), n, EPS)
    # the walk stops where the kernel's rank runs out; the unwalked tokens
    # follow in ascending order, as the program pads its budget
    order = walked + sorted(set(range(n)) - set(walked))
    kept = [i for i in order if i in g][:m]
    tags = ["intersection"] * len(kept)
    fill = [i for i in order if i not in kept][: m - len(kept)]
    return kept + fill, tags + ["qcsp-fill"] * len(fill), len(g & set(order[m:]))


def test_matches_reference_on_random_instances():
    for seed in range(25):
        rng = SplitMix64(seed)
        n = 6 + rng.next_below(40)
        m = 1 + rng.next_below(n)
        h_v = gaussian_matrix(rng.next_u64() >> 1, n, 8)
        h_q = gaussian_matrix(rng.next_u64() >> 1, 2, 8)
        sel = script_select(h_v, h_q, m)
        kept, tags, _ = reference_script(h_v, h_q, m)
        assert sel.kept == kept
        assert sel.stage_tags == tags
    # n > d and n >> m: many extension rounds, gsp_keep on both sides of
    # m, and zero rows (gain 0) so that some walks end in exhaustion padding.
    # A fill whose walk passes a G-member after step m is the case where the
    # order's first m steps and the whole walked order could give different
    # fills
    late = 0
    for seed in range(12):
        rng = SplitMix64(1000 + seed)
        n = 100 + rng.next_below(200)
        d = 2 + rng.next_below(14)
        m = 1 + rng.next_below(n // 6)
        gsp_keep = 1 + rng.next_below(2 * m)
        h_v = gaussian_matrix(rng.next_u64() >> 1, n, d)
        h_v[rng.next_below(n)::1 + rng.next_below(40)] = 0.0
        h_q = gaussian_matrix(rng.next_u64() >> 1, 2, d) if seed % 3 else None
        sel = script_select(h_v, h_q, m, gsp_keep=gsp_keep)
        kept, tags, past_m = reference_script(h_v, h_q, m, gsp_keep=gsp_keep)
        assert sel.kept == kept
        assert sel.stage_tags == tags
        late += "qcsp-fill" in tags and past_m > 0
    assert late > 0


def test_walk_stops_at_mth_intersection_member(monkeypatch):
    # the walk costs about n*T^2/2 multiply-adds for T steps, so it must
    # not run past the m-th G-member of the greedy order
    n, m = 400, 24
    h_v = gaussian_matrix(11, n, 16)
    h_q = gaussian_matrix(12, 2, 16)
    walks = record_walks(monkeypatch)
    sel = script_select(h_v, h_q, m)
    lengths = [t for _, t, *_ in walks]  # before the reference walk extends too

    g = set(gsp_select(prepare(h_v, gram=False), keep=2 * m))
    r = min_max_normalize(relevance_scores(h_v, mean_pool(h_q)))
    state = GreedyState(prepare(h_v), r)
    state.extend(n)
    order = state.order.tolist()
    positions = [t for t, idx in enumerate(order) if idx in g]
    assert sel.stage_tags == ["intersection"] * m
    assert max(lengths) == positions[m - 1] + 1


def test_script_walks_in_one_member_bounded_extend(monkeypatch):
    # one walk call per selection, asking for min(m, |G|) G-members; only
    # the fill (gsp_keep < m) extends again, to m steps
    h_v, h_q = gaussian_matrix(13, 60, 8), gaussian_matrix(14, 2, 8)
    walks = record_walks(monkeypatch)
    for m, gsp_keep, fill_asks in ((10, None, []), (10, 4, [(10, None)])):
        walks.clear()
        script_select(h_v, h_q, m, gsp_keep=gsp_keep)
        g = gsp_select(prepare(h_v, gram=False), keep=gsp_keep or 2 * m)
        ((k, members), *_), *rest = walks
        assert k == min(m, len(g)) and np.flatnonzero(members).tolist() == g
        assert [ask for ask, *_ in rest] == fill_asks


def test_intersection_prefix_case():
    # G = {0,1,2} and the greedy order opens with 2 then 0: both kept
    # indices come from the intersection scan
    e = np.eye(4)
    h_v = np.stack([e[0], e[1], e[2], e[3], e[3], e[3]])
    q = np.array([[0.44, 0.0, 0.9, 0.0]])
    g = set(gsp_select(prepare(h_v, gram=False), keep=3))
    assert g == {0, 1, 2}
    sel = script_select(h_v, q, 2, gsp_keep=3)
    assert sel.kept == [2, 0]
    assert sel.stage_tags == ["intersection", "intersection"]


def test_fill_after_sparse_intersection():
    # G holds only the orthogonal token while the greedy order starts
    # ahead of it: intersection member first, then fill from the front
    h_v = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    q = np.array([[1.0, 0.0]])
    g = set(gsp_select(prepare(h_v, gram=False), keep=1))
    assert g == {3}
    state = GreedyState(prepare(h_v), min_max_normalize(relevance_scores(h_v, q[0])))
    state.extend(4)
    assert state.order.tolist() == [0, 1, 2, 3]
    sel = script_select(h_v, q, 2, gsp_keep=1)
    assert sel.kept == [3, 0]
    assert sel.stage_tags == ["intersection", "qcsp-fill"]


def test_full_budget_returns_everything():
    h_v = gaussian_matrix(3, 9, 5)
    sel = script_select(h_v, None, 9)
    assert sorted(sel.kept) == list(range(9))


def test_exactly_m_distinct_valid():
    for seed in range(40):
        rng = SplitMix64(100 + seed)
        n = 2 + rng.next_below(63)
        m = 1 + rng.next_below(n)
        h_v = gaussian_matrix(rng.next_u64() >> 1, n, 6)
        sel = script_select(h_v, None, m)
        assert len(sel.kept) == m
        assert len(set(sel.kept)) == m
        assert all(0 <= i < n for i in sel.kept)
        assert len(sel.stage_tags) == m


def test_deterministic():
    h_v = gaussian_matrix(8, 50, 7)
    h_q = gaussian_matrix(9, 3, 7)
    a = script_select(h_v, h_q, 20)
    b = script_select(h_v, h_q, 20)
    assert a.kept == b.kept and a.stage_tags == b.stage_tags


def test_gsp_keep_validation():
    h_v = gaussian_matrix(1, 10, 4)
    with pytest.raises(ValueError):
        script_select(h_v, None, 3, gsp_keep=0)
    with pytest.raises(ValueError):
        script_select(h_v, None, 11)


def test_select_takes_integer_parameters_only():
    h_v, h_q = gaussian_matrix(5, 14, 6), gaussian_matrix(6, 2, 6)
    for name, kwargs in [("m", {"m": 2.0}), ("m", {"m": True}), ("m", {"m": "3"}),
                         ("gsp_keep", {"gsp_keep": 4.0}), ("gsp_keep", {"gsp_keep": False}),
                         ("seed", {"seed": 1.5}), ("seed", {"seed": True})]:
        kwargs = {"m": 3, **kwargs}
        for mode in fusion.MODES:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                select(mode, h_v, h_q, **kwargs)
    # numpy integers are taken and recorded as Python ints
    sel = select("script", h_v, h_q, np.int64(3), gsp_keep=np.int32(5))
    assert sel == select("script", h_v, h_q, 3, gsp_keep=5)
    assert type(sel.params["m"]) is int and type(sel.params["gsp_keep"]) is int
    sel = select("random", h_v, None, np.uint8(4), seed=np.int64(9))
    assert sel.params == {"mode": "random", "m": 4, "seed": 9}
    assert type(sel.params["m"]) is int and type(sel.params["seed"]) is int


@pytest.mark.parametrize("mode", ["script", "gsp"])
@pytest.mark.parametrize("name, kwargs", [
    ("gamma", {"gamma": True}), ("gamma", {"gamma": np.True_}), ("gamma", {"gamma": "5"}),
    ("tau", {"tau": "0.3"}), ("tau", {"tau": False}), ("tau", {"tau": None}),
], ids=["gamma-bool", "gamma-numpy-bool", "gamma-str", "tau-str", "tau-bool", "tau-none"])
def test_select_takes_a_real_tau_and_gamma_only(mode, name, kwargs):
    h_v = gaussian_matrix(5, 14, 6)
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        select(mode, h_v, None, 3, **kwargs)
    # numpy floats are real numbers, recorded as given
    sel = select(mode, h_v, None, 3, tau=np.float32(0.25), gamma=np.float64(4.0))
    assert sel == select(mode, h_v, None, 3, tau=float(np.float32(0.25)), gamma=4.0)
    assert type(sel.params["tau"]) is np.float32


def test_script_params_keep_their_key_order():
    h_v, h_q = gaussian_matrix(5, 14, 6), gaussian_matrix(6, 2, 6)
    keys = ["mode", "m", "tau", "gamma", "gsp_keep", "eps"]
    for gsp_keep, recorded in ((None, 6), (9, 9)):
        params = select("script", h_v, h_q, 3, gsp_keep=gsp_keep).params
        assert list(params) == keys
        assert params == {"mode": "script", "m": 3, "tau": 0.3, "gamma": 5.0,
                          "gsp_keep": recorded, "eps": EPS}


def test_select_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'fused'"):
        select("fused", gaussian_matrix(5, 14, 6), None, 3)


def test_random_baseline():
    h_v = np.zeros((1000, 1))
    sel = select("random", h_v, None, 100)
    assert len(sel.kept) == 100 and len(set(sel.kept)) == 100
    assert select("random", h_v, None, 100).kept == sel.kept
    differing = sum(
        select("random", h_v, None, 100, seed=2 * s).kept
        != select("random", h_v, None, 100, seed=2 * s + 1).kept
        for s in range(10))
    assert differing == 10
    assert sorted(select("random", np.zeros((6, 1)), None, 6, seed=3).kept) == list(range(6))


def test_topk_baseline():
    h_v = l2_normalize_rows(gaussian_matrix(4, 12, 6))
    q = h_v[7][None, :]
    assert select("topk", h_v, q, 1).kept == [7]
    dup = np.array([[1.0, 0.0]] * 5)
    assert select("topk", dup, np.array([[1.0, 0.0]]), 2).kept == [0, 1]
    assert sorted(select("topk", h_v, q, 12).kept) == list(range(12))


def test_diversity_baseline():
    assert select("diversity", np.eye(5), None, 3).kept == [0, 1, 2]
    # exactly unit-norm mix row keeps the tie-break on the lowest index
    h = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    assert sorted(select("diversity", h, None, 2).kept) == [0, 1]
    assert sorted(select("diversity", h, None, 3).kept) == [0, 1, 2]


@pytest.mark.parametrize("seed", range(6))
def test_walk_modes_match_the_reference_walk(seed):
    # qcsp walks the query's relevance; diversity, given the same query,
    # walks uniform relevance.  m stays within the kernel's rank, so the
    # oracle's unblocked walk needs no padding
    rng = SplitMix64(500 + seed)
    n = 8 + rng.next_below(40)
    d = 4 + rng.next_below(16)
    m = 1 + rng.next_below(min(n, d))
    h_v = gaussian_matrix(rng.next_u64() >> 1, n, d)
    h_q = gaussian_matrix(rng.next_u64() >> 1, 3, d)
    relevance = prepare(h_v, h_q, gram=False).relevance
    for mode, r, tag in (("qcsp", relevance, "qcsp-only"),
                         ("diversity", np.ones(n), "baseline")):
        sel = select(mode, h_v, h_q, m)
        walked, _ = oracle.greedy_walk(kernel_matrix(prepare(h_v, h_q), r), m, EPS)
        assert sel.kept == walked, (seed, mode)
        assert sel.stage_tags == [tag] * m
        assert sel.params == {"mode": mode, "m": m, "eps": EPS}


def test_baselines_reject_budgets_outside_one_to_n():
    h_v, h_q = gaussian_matrix(5, 14, 6), gaussian_matrix(6, 2, 6)
    for m in (0, 15):
        for mode in ("random", "topk", "diversity"):
            with pytest.raises(ValueError, match="budget must lie in"):
                select(mode, h_v, h_q, m)
    # no token rows: n is named, not an empty budget range; topk needs a
    # query, which prepare refuses against no tokens before that
    for mode in fusion.MODES:
        query, match = (h_q, "token matrix has 0 rows") if mode == "topk" else (
            None, "^n must be >= 1, got 0$")
        with pytest.raises(ValueError, match=match):
            select(mode, np.zeros((0, 6)), query, 1)


def test_selectors_reject_non_finite_input():
    # one input contract for every mode: each breach raises InputError
    # naming the input, whether or not the mode reads it
    rng = np.random.default_rng(0)
    h_v = rng.standard_normal((40, 8))
    h_q = rng.standard_normal((4, 8))
    h_v[5, 3] = np.nan
    for run in (lambda: script_select(h_v, h_q, 6),
                lambda: select("qcsp", h_v, h_q, 6),
                lambda: select("gsp", h_v, h_q, 6),
                lambda: select("diversity", h_v, None, 6),
                lambda: select("topk", h_v, h_q, 6)):
        with pytest.raises(InputError, match="token row 5"):
            run()
    h_v[5, 3] = 0.0
    h_q[2, 1] = np.inf
    with pytest.raises(InputError, match="query"):
        script_select(h_v, h_q, 6)
    with pytest.raises(InputError, match="width"):
        script_select(h_v, h_q[:, :7], 6)

    tokens = gaussian_matrix(5, 12, 4)
    query = gaussian_matrix(6, 2, 4)
    inf_tokens = tokens.copy()
    inf_tokens[3, 1] = np.inf
    breaches = [
        (inf_tokens, query, "token row 3"),
        (tokens[:, 0], query, "tokens must be a 2-d array"),
        (tokens.reshape(12, 2, 2), query, "tokens must be a 2-d array"),
        (tokens, np.full((2, 4), np.nan), "query"),
        (tokens, query[0], "query"),
        (tokens, np.zeros((0, 4)), "query"),
        (tokens, query[:, :3], "query width 3"),
        (tokens, np.full((2, 4), 1.7e308), "query"),
        (np.zeros((0, 4)), query, "token matrix has 0 rows"),
        (tokens + 1j, query, "tokens must hold real numbers"),
        (tokens.astype(str), query, "tokens must hold real numbers"),
        (tokens, query.astype(complex), "query must hold real numbers"),
        (np.zeros((12, 0)), query[:, :0], "at least one column"),
    ]
    for mode in fusion.MODES:
        for bad_v, bad_q, message in breaches:
            with pytest.raises(InputError, match=message):
                select(mode, bad_v, bad_q, 3)


def test_select_prepares_once_per_call(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return similarity.prepare(*args, **kwargs)

    # the stages take the one prepared instance and cannot prepare again
    assert not hasattr(gsp, "prepare") and not hasattr(qcsp, "prepare")
    monkeypatch.setattr(fusion, "prepare", counted)
    h_v, h_q = gaussian_matrix(5, 30, 6), gaussian_matrix(6, 3, 6)
    for mode in fusion.MODES:
        for query in ((h_q,) if mode == "topk" else (h_q, None)):
            calls.clear()
            select(mode, h_v, query, 5)
            assert len(calls) == 1, (mode, query is None)
    for query in (h_q, None):
        assert script_select(h_v, query, 5) == select("script", h_v, query, 5)


def test_script_selection_normalizes_only_the_pooled_query(monkeypatch):
    # the cosines are raw-row products times inverse norms: no token row is
    # normalized, and prepare makes no n x d array from contiguous tokens
    rows = []

    def counted(m):
        rows.append(len(m))
        return l2_normalize_rows(m)

    monkeypatch.setattr(similarity, "l2_normalize_rows", counted)
    n, d = 64, 4096
    h_v, h_q = gaussian_matrix(7, n, d), gaussian_matrix(8, 4, d)
    for query, normalized in ((h_q, [1]), (None, [])):
        rows.clear()
        peak, _ = traced_peak(lambda: script_select(h_v, query, 8))
        assert rows == normalized
        assert peak < 8 * n * d // 4, peak


def test_benchmark_tracer_wraps_names_the_program_keeps(monkeypatch):
    # the benchmark's tracer wraps layer functions by name (including the
    # re-exports kept in fusion and qcsp, and fusion.build_kernel as the
    # qcsp.kernel span) and reads state.kernel.n and state.kernel.unit after
    # each extend, so a change that drops one of them breaks the benchmark,
    # not the selection
    spans = load_file("perfbench/spans.py", "perfbench_spans", monkeypatch)

    h_v, h_q = gaussian_matrix(5, 196, 32), gaussian_matrix(6, 4, 32)
    with monkeypatch.context() as patch:
        walks = record_walks(patch)
        untraced = script_select(h_v, h_q, 22).kept
    lengths = [t for _, t, *_ in walks]
    owners = (similarity, gsp, qcsp, fusion, qcsp.GreedyState)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.begin_op(0)
    tracer.install(similarity, gsp, qcsp, fusion)
    try:
        traced = fusion.script_select(h_v, h_q, 22).kept
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert len(tracer.walks) == 1
    assert [s.name for s in tracer.spans].count("qcsp.kernel") == 1
    # the walk's (T, n, d), as the tracer reads them from the state
    assert list(tracer.walks.values()) == [(max(lengths), 196, 32)]
    assert [dict(vars(owner)) for owner in owners] == before
