"""Tests of the benchmark's own code: the input generators, the
independent reference rule, the output checker, the tracer and the
printed metric names.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import ruleref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from tokensieve import fusion, gsp, qcsp, similarity  # noqa: E402
from tokensieve.rng import gaussian_matrix  # noqa: E402


def _program(tokens, query, m, gsp_keep=None):
    sel = fusion.script_select(tokens, query, m, gsp_keep=gsp_keep)
    return sel.kept, sel.stage_tags


def _agree(tokens, query, m, gsp_keep=None):
    kept, tags = _program(tokens, query, m, gsp_keep)
    ref = ruleref.reference_select(tokens, query, m, gsp_keep)
    return ruleref.compare_with_reference(kept, tags, ref)


@pytest.mark.parametrize("seed,rows,cols", [(0, 5, 7), (3, 50, 17), (11, 1, 1)])
def test_splitmix_stream_matches_program_generator(seed, rows, cols):
    assert np.array_equal(gen.splitmix_gaussian(seed, rows, cols),
                          gaussian_matrix(seed, rows, cols))


def test_generators_are_deterministic_per_seed():
    for make in gen.WORKLOADS.values():
        a, b, c = make(5), make(5), make(6)
        assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))
        assert np.array_equal(a.query, b.query)
        assert not np.array_equal(a.frames[0], c.frames[0])


def test_reference_agrees_on_small_random_instances():
    rng = np.random.default_rng(7)
    outcomes = []
    for _ in range(40):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(2, 24))
        m = int(rng.integers(1, n + 1))
        gsp_keep = int(rng.integers(1, n + 1)) if rng.random() < 0.5 else None
        tokens = rng.standard_normal((n, d))
        if rng.random() < 0.3:
            tokens[rng.integers(0, n)] = 0.0  # a zero row
        ok, how = _agree(tokens, rng.standard_normal((3, d)), m, gsp_keep)
        assert ok, how
        outcomes.append(how)
    assert outcomes.count("exact") >= 36


def test_reference_agrees_on_structured_instances():
    rng = np.random.default_rng(11)
    for seed in range(6):
        scene, centres = gen._grid_scene(np.random.default_rng(seed), 10, 10, 48, regions=3,
                                         region_noise=0.6, smooth_scale=0.5)
        query = centres[0] + rng.standard_normal((8, 48))
        for m, gsp_keep in ((11, None), (20, 12), (60, None)):
            ok, how = _agree(scene, query, m, gsp_keep)
            assert ok and how == "exact", how
    # near-duplicate blocks, more tokens than dimensions: G smaller than m
    blocks = np.repeat(rng.standard_normal((6, 8)), 5, axis=0)
    blocks += 1e-3 * rng.standard_normal(blocks.shape)
    ok, how = _agree(blocks, rng.standard_normal((2, 8)), 12, gsp_keep=4)
    assert ok, how


def test_reference_fills_when_g_runs_out():
    rng = np.random.default_rng(3)
    tokens = rng.standard_normal((30, 12))
    ref = ruleref.reference_select(tokens, rng.standard_normal((2, 12)), 10, gsp_keep=4)
    assert ref.tags == ["intersection"] * 4 + ["qcsp-fill"] * 6
    assert _program(tokens, rng.standard_normal((2, 12)), 10, 4)[1] == ref.tags


def _fixture():
    instance = gen.image576_instance(0)
    tokens = instance.frames[0][:, :256]
    ref = ruleref.reference_select(tokens, instance.query[:, :256], 16)
    kept, tags = _program(tokens, instance.query[:, :256], 16)
    assert ruleref.compare_with_reference(kept, tags, ref) == (True, "exact")
    return kept, tags, ref


def test_checker_rejects_a_kept_index_swapped_for_a_non_g_token():
    kept, tags, ref = _fixture()
    outsider = next(i for i in range(ref.n) if i not in ref.g_members and i not in kept)
    bad = list(kept)
    bad[5] = outsider
    ok, how = ruleref.compare_with_reference(bad, tags, ref)
    assert not ok and "outside the redundancy-graph set" in how
    assert ruleref.check_selection(bad, tags, ref) is not None


def test_checker_rejects_two_kept_entries_swapped_in_order():
    kept, tags, ref = _fixture()
    bad = list(kept)
    bad[3], bad[9] = bad[9], bad[3]
    assert ruleref.check_selection(bad, tags, ref) is None  # structurally valid
    ok, how = ruleref.compare_with_reference(bad, tags, ref)
    assert not ok and "kept position 3" in how


def test_checker_rejects_structural_faults():
    kept, tags, ref = _fixture()
    cases = [
        (kept[:-1], tags[:-1]),
        (kept[:-1] + [kept[0]], tags),
        ([ref.n] + kept[1:], tags),
        (kept, tags[:-1] + ["gsp-only"]),
        (kept, ["qcsp-fill"] + tags[1:]),
    ]
    for bad_kept, bad_tags in cases:
        assert ruleref.check_selection(list(bad_kept), list(bad_tags), ref) is not None


def test_divergence_is_allowed_only_after_a_near_tie():
    steps = [(4, 1.0, 0.5), (2, 0.5, 0.5 * (1 - 1e-12)), (7, 0.5, 0.2), (1, 0.2, 0.1)]
    ref = ruleref.Reference([4, 2, 7], ["intersection"] * 3, frozenset({1, 2, 4, 7}),
                            steps, n=8, m=3)
    assert ref.near_tie_steps() == [1]
    assert ruleref.compare_with_reference([4, 7, 2], ref.tags, ref)[0]
    assert not ruleref.compare_with_reference([1, 2, 7], ref.tags, ref)[0]


def test_tracer_counts_layers_and_restores_the_program():
    instance = gen.video32x196_instance(0)
    frame, n = instance.frames[0], instance.frames[0].shape[0]
    originals = (fusion.script_select, similarity.l2_normalize_rows, qcsp.GreedyState.extend)
    tracer = spans.Tracer()
    tracer.begin_op(0)
    tracer.install(similarity, gsp, qcsp, fusion)
    try:
        traced = fusion.script_select(frame, instance.query, instance.m)
    finally:
        tracer.uninstall()
    assert (fusion.script_select, similarity.l2_normalize_rows,
            qcsp.GreedyState.extend) == originals
    figures = spans.op_figures(tracer, 1.0, instance.m)
    assert figures["similarity.normalize_calls"] == 5
    assert figures["similarity.rows_normalized"] == 3 * n + 1
    assert figures["gsp.sim_evals"] == (n // 2) * (n - n // 2)
    assert len(tracer.walks) == 1
    assert figures["qcsp.walk_steps"] == next(iter(tracer.walks.values()))[0] >= instance.m
    assert traced.kept == fusion.script_select(frame, instance.query, instance.m).kept
    own = spans.self_seconds(tracer.spans)
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(tracer.spans[0].seconds)


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS) == set(run.POOL)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "image576", "--seed", "1",
             "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
        for name, unit in printed.items():
            assert f"{name} " in done.stdout and done.stdout.count(f" {unit}\n") >= 1
