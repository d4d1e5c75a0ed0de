import re

import numpy as np
import pytest

from tokensieve import verify
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
    r = verify.CheckResult("demo", True, 10, 3.0e-9, 1e-6, "max_err")
    line = r.line()
    assert line.startswith("PASS demo")
    assert "instances=10" in line
    assert "max_err=3.000e-09" in line
    r2 = verify.CheckResult("demo", False, 10, 2.0, 1e-6, "max_err")
    assert r2.line().startswith("FAIL demo")


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
    mixed, shifted, order = verify.marginal_gain_errors(prepare(h), r, 4)
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


def test_suite_flags_sabotaged_gains(monkeypatch):
    from tokensieve import qcsp
    orig = qcsp.GreedyState._steps

    def corrupted(self, t_start, t_stop):
        done, exhausted = orig(self, t_start, t_stop)
        for t in range(t_start, done):
            self.gains[t] *= 1.02
        return done, exhausted

    monkeypatch.setattr(qcsp.GreedyState, "_steps", corrupted)
    results = verify.check_greedy_suite(seed=0, instances=3)
    by_name = {r.name: r for r in results}
    assert not by_name["marginal-gain"].passed
    assert not by_name["shifted-gain-identity"].passed


def test_flushed_walk_check_flags_a_broken_flush(monkeypatch):
    from tokensieve import qcsp
    # swaps that leave each moved token with its old position's entries of A
    monkeypatch.setattr(qcsp, "_move_upper", lambda a, lo, hi: None)
    by_name = {r.name: r for r in verify.check_flushed_walk(instances=1, seed=0)}
    assert not by_name["flushed-walk"].passed


def test_flushed_shifted_gain_flags_gains_off_after_a_flush(monkeypatch):
    from tokensieve import qcsp
    orig = qcsp.GreedyState._steps

    def corrupted(self, t_start, t_stop):
        # the gains of every step after the first flush, 1e-8 off
        done, exhausted = orig(self, t_start, t_stop)
        for t in range(max(t_start, qcsp.flush_rows(self.kernel.n)), done):
            self.gains[t] *= 1.0 + 1e-8
        return done, exhausted

    by_name = {r.name: r for r in verify.check_flushed_walk(instances=1, seed=0)}
    assert by_name["flushed-shifted-gain"].passed
    monkeypatch.setattr(qcsp.GreedyState, "_steps", corrupted)
    by_name = {r.name: r for r in verify.check_flushed_walk(instances=1, seed=0)}
    assert not by_name["flushed-shifted-gain"].passed


def test_checks_are_deterministic():
    a = verify.run_all(seed=9, instances=2)
    b = verify.run_all(seed=9, instances=2)
    assert [(r.name, r.passed, r.worst) for r in a] == \
        [(r.name, r.passed, r.worst) for r in b]
