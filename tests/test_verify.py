import math
import re

import numpy as np
import pytest
from hooks import break_swaps, skew_gains

from tokensieve import analysis, oracle, qcsp, verify
from tokensieve.qcsp import GreedyState
from tokensieve.rng import SplitMix64, gaussian_matrix
from tokensieve.similarity import min_max_normalize, prepare


def test_run_all_small_is_green():
    results = verify.run_all(seed=3, instances=2)
    assert results
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_run_all_refuses_a_seed_before_any_check_runs(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "check_det_volume", ran)
    with pytest.raises(ValueError, match=re.escape(
            f"seed must lie in [0, {2**64 - 20}], got {2**64 - 19}")):
        verify.run_all(seed=2**64 - 19, instances=1)


def test_expected_checks_present():
    names = {r.name for r in verify.run_all(seed=0, instances=20)}
    for want in ("det-volume", "hadamard-upper-bound", "gershgorin-sandwich",
                 "refined-tightness", "equicorrelation-equivalence",
                 "negative-correlation-witness", "marginal-gain",
                 "shifted-gain-identity", "greedy-guarantee",
                 "prefix-consistency", "psd-preservation",
                 "bipartite-count", "fusion-contract", "flops-ratios",
                 "entropy-direction", "flushed-walk", "flushed-shifted-gain"):
        assert want in names, want


def test_check_result_line_format():
    r = verify.CheckResult("demo", 10, 3.0e-9, 1e-6, "max_err")
    line = r.line()
    assert line.startswith("PASS demo")
    assert "instances=10" in line
    assert "max_err=3.000e-09" in line
    r2 = verify.CheckResult("demo", 10, 2.0, 1e-6, "max_err")
    assert r2.line().startswith("FAIL demo")


@pytest.mark.parametrize("rule, worst, passed", [
    ("<=", 1.0, True), ("<=", 1.5, False),
    (">=", 1.0, True), (">=", 0.5, False),
    (">", 1.5, True), (">", 1.0, False),
    ("info", -1e300, True),
])
def test_check_result_derives_its_pass_rule(rule, worst, passed):
    assert verify.CheckResult("demo", 1, worst, 1.0, "m", rule).passed is passed


@pytest.mark.parametrize("rule, worst", [("<=", 3.0), (">=", 1.0), (">", 1.0)])
def test_check_result_of_reduces_by_its_rule(rule, worst):
    r = verify.CheckResult.of("demo", 3, [2.0, 1.0, 3.0], 0.0, "m", rule)
    assert r.worst == worst and type(r.worst) is float


@pytest.mark.parametrize("rule", ["<=", ">=", ">", "info"])
def test_a_nan_margin_fails_every_rule_but_info(rule):
    r = verify.CheckResult.of("demo", 3, [0.0, math.nan, 0.0], 0.0, "m", rule)
    assert math.isnan(r.worst)
    assert r.passed is (rule == "info")
    assert r.line().startswith("PASS" if rule == "info" else "FAIL")


def test_check_result_refuses_an_unknown_rule():
    with pytest.raises(ValueError, match="rule must be one of <=, >=, >, info, got '<'"):
        verify.CheckResult("demo", 1, 0.0, 0.0, "m", "<")


@pytest.mark.parametrize("instances", [0, -1])
def test_check_result_refuses_fewer_than_one_instance(instances):
    msg = f"instances must be >= 1, got {instances}"
    with pytest.raises(ValueError, match=msg):
        verify.CheckResult("demo", instances, 0.0, 0.0, "m")
    # before the reduction, which has nothing to reduce
    with pytest.raises(ValueError, match=msg):
        verify.CheckResult.of("demo", instances, [], 0.0, "m")


@pytest.mark.parametrize("check, msg", [
    (lambda: verify.check_fusion_contract(instances=0), "instances must be >= 1, got 0"),
    (lambda: verify.check_det_volume(instances=-3), "instances must be >= 1, got -3"),
    (lambda: verify.check_refined_tightness(grid_points=0), "grid_points must be >= 2, got 0"),
    (lambda: verify.check_refined_monotonic(grid_points=1), "grid_points must be >= 2, got 1"),
    (lambda: verify.check_bipartite_count(sizes=()), "instances must be >= 1, got 0"),
    # one token has no pair to count the graph's evaluations against
    (lambda: verify.check_bipartite_count(sizes=(1,)), "size must be >= 2, got 1"),
    (lambda: verify.check_entropy_direction(seeds=0), "seeds must be >= 1, got 0"),
    (lambda: verify.check_greedy_suite(instances=0), "instances must be >= 1, got 0"),
], ids=["fusion-contract", "det-volume", "refined-tightness", "refined-monotonic",
        "bipartite-count", "bipartite-count-one-token", "entropy-direction", "greedy-suite"])
def test_no_check_passes_on_no_instances(check, msg):
    with pytest.raises(ValueError, match=msg):
        check()


def _nan_gains_after_step_0(monkeypatch):
    skew_gains(monkeypatch, lambda gains: np.nan, first=lambda state: 1)


def _nan_from(owner, name, like_tokens=False):
    """A sabotage that makes owner.name return NaN (one per token row if
    like_tokens)."""
    def nan(*args, **kwargs):
        return np.full(len(args[0]), np.nan) if like_tokens else math.nan

    return lambda monkeypatch: monkeypatch.setattr(owner, name, nan)


def _greedy():
    return verify.check_greedy_suite(instances=3, seed=0)


def _flushed():
    return verify.check_flushed_walk(instances=1, seed=0)


# (the check that must fail, what returns NaN, a run of that check)
NAN_CASES = [
    ("marginal-gain", _nan_gains_after_step_0, _greedy),
    ("shifted-gain-identity", _nan_gains_after_step_0, _greedy),
    ("flushed-walk", _nan_gains_after_step_0, _flushed),
    ("flushed-shifted-gain", _nan_gains_after_step_0, _flushed),
    ("det-volume", _nan_from(oracle, "gram_det"), lambda: verify.check_det_volume(20)),
    ("hadamard-orthonormal", _nan_from(oracle, "hadamard_margin"),
     lambda: verify.check_hadamard_orthonormal(20)),
    ("gershgorin-sandwich", _nan_from(oracle, "gershgorin_lower_bound"),
     lambda: verify.check_gershgorin_sandwich(20)),
    ("refined-tightness", _nan_from(oracle, "refined_upper_bound"),
     lambda: verify.check_refined_tightness(5)),
    ("refined-monotonic", _nan_from(oracle, "refined_upper_bound"),
     lambda: verify.check_refined_monotonic(5)),
    ("hadamard-upper-bound", _nan_from(np.linalg, "det"),
     lambda: verify.check_hadamard_upper_bound(20)),
    ("flops-ratios", _nan_from(analysis, "flops_estimate"), verify.check_flops_ratios),
    ("entropy-direction", _nan_from(analysis, "local_entropy_map", like_tokens=True),
     lambda: verify.check_entropy_direction(2)),
]


@pytest.mark.parametrize("name, sabotage, run", NAN_CASES, ids=[c[0] for c in NAN_CASES])
def test_a_nan_error_fails_its_check(monkeypatch, name, sabotage, run):
    sabotage(monkeypatch)
    results = run()
    by_name = {r.name: r for r in (results if isinstance(results, list) else [results])}
    assert not by_name[name].passed, by_name[name].line()


# run_all(seed=0, instances=200) with each figure masked: every status,
# name, instance count, metric and tol, so dropping a check, loosening a
# tol or shrinking a count shows here.  The figures are the one part that
# moves with the BLAS thread count.
REPORT_SKELETON = """\
PASS det-volume instances=200 max_rel_err=# tol=1.0e-08
PASS hadamard-upper-bound instances=200 max_det_minus_1=# tol=1.0e-12
PASS hadamard-orthonormal instances=50 max_abs_margin=# tol=1.0e-10
PASS hadamard-rank-deficient instances=50 max_abs_det=# tol=1.0e-10
PASS gershgorin-sandwich instances=200 min_det_minus_bound=# tol=0.0e+00
PASS refined-tightness instances=350 max_abs_err=# tol=1.0e-10
PASS refined-monotonic instances=343 min_decrease=# tol=0.0e+00
PASS equicorrelation-equivalence instances=100 min_det_gap=# tol=0.0e+00
PASS negative-correlation-witness instances=1 max_abs_err=# tol=1.0e-12
PASS marginal-gain instances=200 max_rel_err=# tol=1.0e-06
PASS shifted-gain-identity instances=200 max_rel_err=# tol=1.0e-09
PASS greedy-match-rate (info) instances=200 match_fraction=# tol=0.0e+00
PASS greedy-guarantee instances=200 min_slack=# tol=-1.0e-12
PASS flushed-walk instances=3 max_gain_err=# tol=1.0e-12
PASS flushed-shifted-gain instances=3 max_rel_err=# tol=1.0e-09
PASS prefix-consistency instances=50 violations=# tol=0.0e+00
PASS psd-preservation instances=200 min_shifted_eig=# tol=0.0e+00
PASS determinant-expansion instances=200 max_rel_err=# tol=1.0e-08
PASS relevance-dominance instances=50 violations=# tol=0.0e+00
PASS diversity-dominance instances=50 violations=# tol=0.0e+00
PASS bipartite-count instances=3 min_ratio_slack=# tol=0.0e+00
PASS fusion-contract instances=50 violations=# tol=0.0e+00
PASS flops-ratios instances=2 max_rel_err=# tol=5.0e-02
PASS entropy-direction instances=5 min_gap=# tol=0.0e+00
checks=24 failed=0"""


def test_report_skeleton_is_pinned():
    report = verify.format_report(verify.run_all(seed=0, instances=200))
    assert re.sub(r"=\S+ tol=", "=# tol=", report) == REPORT_SKELETON


def test_format_report_summary():
    results = verify.run_all(seed=1, instances=20)
    report = verify.format_report(results)
    lines = report.strip().splitlines()
    assert len(lines) == len(results) + 1
    assert lines[-1] == f"checks={len(results)} failed=0"


def test_marginal_gain_errors_shapes():
    rng = SplitMix64(77)
    h = gaussian_matrix(rng.next_below(2**32), 10, 32)
    r = min_max_normalize(np.abs(gaussian_matrix(5, 1, 10)[0]))
    mixed, shifted, order, l = verify.marginal_gain_errors(prepare(h), r, 4)
    # the plain det ratio is only checked while the prefix det is well
    # above float noise; the shifted identity holds on every step
    assert len(shifted) == 4
    assert 0 < len(mixed) <= 4
    assert max(mixed) <= 1e-6
    # the recursion is exact Cholesky on the shifted kernel, so this
    # companion identity holds to float precision
    assert max(shifted) <= 1e-12
    # the order of the walk it ran, as a fresh walk of the tokens gives it
    state = GreedyState(prepare(h), r)
    state.extend(4)
    assert order == state.order[:4].tolist()
    # and the kernel it walked, for the caller's oracles
    np.testing.assert_array_equal(l, qcsp.kernel_matrix(prepare(h), r))


def test_suite_flags_sabotaged_gains(monkeypatch):
    skew_gains(monkeypatch, lambda gains: gains * 1.02)
    results = verify.check_greedy_suite(seed=0, instances=3)
    by_name = {r.name: r for r in results}
    assert not by_name["marginal-gain"].passed
    assert not by_name["shifted-gain-identity"].passed


def test_flushed_walk_check_flags_a_broken_flush(monkeypatch):
    break_swaps(monkeypatch)
    by_name = {r.name: r for r in verify.check_flushed_walk(instances=1, seed=0)}
    assert not by_name["flushed-walk"].passed


def test_flushed_shifted_gain_flags_gains_off_after_a_flush(monkeypatch):
    by_name = {r.name: r for r in verify.check_flushed_walk(instances=1, seed=0)}
    assert by_name["flushed-shifted-gain"].passed
    # the gains of every step after the first flush, 1e-8 off
    skew_gains(monkeypatch, lambda gains: gains * (1.0 + 1e-8),
               first=lambda state: qcsp.flush_rows(state.kernel.n))
    by_name = {r.name: r for r in verify.check_flushed_walk(instances=1, seed=0)}
    assert not by_name["flushed-shifted-gain"].passed


def test_checks_are_deterministic():
    a = verify.run_all(seed=9, instances=2)
    b = verify.run_all(seed=9, instances=2)
    assert [(r.name, r.passed, r.worst) for r in a] == \
        [(r.name, r.passed, r.worst) for r in b]
