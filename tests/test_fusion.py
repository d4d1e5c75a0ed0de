import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tokensieve import fusion, gsp, oracle, qcsp, similarity
from tokensieve.fusion import (baseline_diversity_only, baseline_random,
                               baseline_topk_relevance, script_select)
from tokensieve.gsp import gsp_select
from tokensieve.qcsp import EPS, GreedyState, build_kernel, greedy_map, qcsp_select
from tokensieve.rng import SplitMix64, gaussian_matrix
from tokensieve.similarity import (InputError, l2_normalize_rows, mean_pool,
                                   min_max_normalize, relevance_scores)


def reference_script(h_v, h_q, m, tau=0.3, gamma=5.0, gsp_keep=None):
    """Direct transcription of the fusion rule, no lazy chunking, over the
    oracle's unblocked walk rather than the program's own."""
    n = len(h_v)
    if gsp_keep is None:
        gsp_keep = min(n, 2 * m)
    g = set(gsp_select(h_v, tau, gamma, keep=gsp_keep).kept)
    if h_q is None:
        r = np.ones(n)
    else:
        r = min_max_normalize(relevance_scores(h_v, mean_pool(h_q)))
    walked, _ = oracle.greedy_walk(build_kernel(h_v, r).materialize(), n, EPS)
    # the walk stops where the kernel's rank runs out; the unwalked tokens
    # follow in ascending order, as the program pads its budget
    order = walked + sorted(set(range(n)) - set(walked))
    kept = [i for i in order if i in g][:m]
    tags = ["intersection"] * len(kept)
    fill = [i for i in order if i not in kept][: m - len(kept)]
    return kept + fill, tags + ["qcsp-fill"] * len(fill)


def test_matches_reference_on_random_instances():
    for seed in range(25):
        rng = SplitMix64(seed)
        n = 6 + rng.next_below(40)
        m = 1 + rng.next_below(n)
        h_v = gaussian_matrix(rng.next_u64() >> 1, n, 8)
        h_q = gaussian_matrix(rng.next_u64() >> 1, 2, 8)
        sel = script_select(h_v, h_q, m)
        kept, tags = reference_script(h_v, h_q, m)
        assert sel.kept == kept
        assert sel.stage_tags == tags
    # n > d and n >> m: many extension rounds, gsp_keep on both sides of
    # m, and zero rows (gain 0) so that some walks end in exhaustion padding
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
        kept, tags = reference_script(h_v, h_q, m, gsp_keep=gsp_keep)
        assert sel.kept == kept
        assert sel.stage_tags == tags


def test_walk_stops_at_mth_intersection_member(monkeypatch):
    # the walk costs about n*T^2/2 multiply-adds for T steps, so it must
    # not run past the m-th G-member of the greedy order
    n, m = 400, 24
    h_v = gaussian_matrix(11, n, 16)
    h_q = gaussian_matrix(12, 2, 16)
    lengths = []
    extend = GreedyState.extend

    def recording_extend(self, k):
        lengths.append(k)
        extend(self, k)

    monkeypatch.setattr(GreedyState, "extend", recording_extend)
    sel = script_select(h_v, h_q, m)
    monkeypatch.undo()

    g = set(gsp_select(h_v, keep=2 * m).kept)
    r = min_max_normalize(relevance_scores(h_v, mean_pool(h_q)))
    order = greedy_map(build_kernel(h_v, r), n)
    positions = [t for t, idx in enumerate(order) if idx in g]
    assert sel.stage_tags == ["intersection"] * m
    assert max(lengths) == positions[m - 1] + 1


def test_intersection_prefix_case():
    # G = {0,1,2} and the greedy order opens with 2 then 0: both kept
    # indices come from the intersection scan
    e = np.eye(4)
    h_v = np.stack([e[0], e[1], e[2], e[3], e[3], e[3]])
    q = np.array([[0.44, 0.0, 0.9, 0.0]])
    g = set(gsp_select(h_v, keep=3).kept)
    assert g == {0, 1, 2}
    sel = script_select(h_v, q, 2, gsp_keep=3)
    assert sel.kept == [2, 0]
    assert sel.stage_tags == ["intersection", "intersection"]


def test_fill_after_sparse_intersection():
    # G holds only the orthogonal token while the greedy order starts
    # ahead of it: intersection member first, then fill from the front
    h_v = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    q = np.array([[1.0, 0.0]])
    g = set(gsp_select(h_v, keep=1).kept)
    assert g == {3}
    order = greedy_map(
        build_kernel(h_v, min_max_normalize(relevance_scores(h_v, q[0]))), 4)
    assert order == [0, 1, 2, 3]
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


def test_random_baseline():
    sel = baseline_random(1000, 100, 0)
    assert len(sel.kept) == 100 and len(set(sel.kept)) == 100
    assert baseline_random(1000, 100, 0).kept == sel.kept
    differing = sum(
        baseline_random(1000, 100, 2 * s).kept
        != baseline_random(1000, 100, 2 * s + 1).kept
        for s in range(10))
    assert differing == 10
    assert sorted(baseline_random(6, 6, 3).kept) == list(range(6))


def test_topk_baseline():
    h_v = l2_normalize_rows(gaussian_matrix(4, 12, 6))
    q = h_v[7][None, :]
    assert baseline_topk_relevance(h_v, q, 1).kept == [7]
    dup = np.array([[1.0, 0.0]] * 5)
    assert baseline_topk_relevance(dup, np.array([[1.0, 0.0]]), 2).kept == [0, 1]
    assert sorted(baseline_topk_relevance(h_v, q, 12).kept) == list(range(12))


def test_diversity_baseline():
    assert baseline_diversity_only(np.eye(5), 3).kept == [0, 1, 2]
    # exactly unit-norm mix row keeps the tie-break on the lowest index
    h = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    assert sorted(baseline_diversity_only(h, 2).kept) == [0, 1]
    assert sorted(baseline_diversity_only(h, 3).kept) == [0, 1, 2]


def test_baselines_reject_budgets_outside_one_to_n():
    h_v, h_q = gaussian_matrix(5, 14, 6), gaussian_matrix(6, 2, 6)
    for m in (0, 15):
        for select in (lambda: baseline_random(14, m, 0),
                       lambda: baseline_topk_relevance(h_v, h_q, m),
                       lambda: baseline_diversity_only(h_v, m)):
            with pytest.raises(ValueError, match="budget must lie in"):
                select()


def test_selectors_reject_non_finite_input():
    rng = np.random.default_rng(0)
    h_v = rng.standard_normal((40, 8))
    h_q = rng.standard_normal((4, 8))
    h_v[5, 3] = np.nan
    for select in (lambda: script_select(h_v, h_q, 6),
                   lambda: qcsp_select(h_v, h_q, 6),
                   lambda: gsp_select(h_v, keep=6),
                   lambda: baseline_diversity_only(h_v, 6),
                   lambda: baseline_topk_relevance(h_v, h_q, 6)):
        with pytest.raises(InputError, match="token row 5"):
            select()
    h_v[5, 3] = 0.0
    h_q[2, 1] = np.inf
    with pytest.raises(InputError, match="query"):
        script_select(h_v, h_q, 6)
    with pytest.raises(InputError, match="width"):
        script_select(h_v, h_q[:, :7], 6)


def test_benchmark_tracer_wraps_names_the_program_keeps(monkeypatch):
    # the benchmark's tracer wraps layer functions by name (including the
    # re-exports kept in fusion and qcsp, and reads DppKernel.unit), so a
    # change that drops one of them breaks the benchmark, not the selection
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    h_v, h_q = gaussian_matrix(5, 196, 32), gaussian_matrix(6, 4, 32)
    untraced = script_select(h_v, h_q, 22).kept
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
    assert [dict(vars(owner)) for owner in owners] == before
