"""Executable property suite: every oracle-checked statement in one place.

Each check returns a CheckResult with the worst margin observed over its
instances; the CLI verify subcommand prints one line per check and exits
nonzero if any asserted check fails.  Acceptance tests call the same
functions with their own instance counts, so the suite is the single
source of truth for what "correct" means here.

Margins are oriented so that larger is safer; `worst` is the quantity
named in `metric`, and `passed` is the asserted comparison against
`tol` (checks marked informational always pass and only report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, fusion, gsp, oracle, qcsp, similarity, synth
from .rng import SplitMix64, gaussian_matrix

GREEDY_GUARANTEE_FACTOR = 1.0 - 1.0 / math.e
LOG_DET_FLOOR = math.log(1e-12)  # marginal-gain skips steps after a det below it


@dataclass
class CheckResult:
    name: str
    passed: bool
    instances: int
    worst: float
    tol: float
    metric: str
    informational: bool = False
    notes: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        kind = " (info)" if self.informational else ""
        return (f"{status} {self.name}{kind} instances={self.instances} "
                f"{self.metric}={self.worst:.3e} tol={self.tol:.1e}")


def _random_unit_gram(rng: SplitMix64, k: int, d: int) -> np.ndarray:
    v = gaussian_matrix(rng.next_u64() >> 1, d, k)
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    return v.T @ v


# ---------------------------------------------------------------- determinant geometry

def check_det_volume(instances: int = 1000, seed: int = 0) -> CheckResult:
    """det of the Gram matrix equals the squared parallelotope volume."""
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(instances):
        d = 2 + rng.next_below(9)      # 2..10
        k = 1 + rng.next_below(d)      # 1..d
        v = gaussian_matrix(rng.next_u64() >> 1, d, k)
        g = oracle.gram_det(v)
        vol = oracle.parallelotope_volume(v)
        rel = abs(g - vol * vol) / max(1.0, g)
        worst = max(worst, rel)
    return CheckResult("det-volume", worst <= 1e-8, instances, worst, 1e-8, "max_rel_err")


def check_hadamard_upper_bound(instances: int = 1000, seed: int = 1) -> CheckResult:
    rng = SplitMix64(seed)
    worst = -np.inf  # max det - 1 observed; must stay <= 1e-12
    for _ in range(instances):
        k = 2 + rng.next_below(7)
        d = k + rng.next_below(8)
        g = _random_unit_gram(rng, k, d)
        worst = max(worst, float(np.linalg.det(g)) - 1.0)
    return CheckResult("hadamard-upper-bound", worst <= 1e-12, instances, worst,
                       1e-12, "max_det_minus_1")


def check_hadamard_orthonormal(instances: int = 50, seed: int = 2) -> CheckResult:
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(instances):
        k = 2 + rng.next_below(7)
        d = k + rng.next_below(8)
        q, _ = np.linalg.qr(gaussian_matrix(rng.next_u64() >> 1, d, k))
        worst = max(worst, abs(oracle.hadamard_margin(q.T @ q)))
    return CheckResult("hadamard-orthonormal", worst <= 1e-10, instances, worst,
                       1e-10, "max_abs_margin")


def check_hadamard_rank_deficient(instances: int = 50, seed: int = 3) -> CheckResult:
    # more unit vectors than dimensions: the Gram determinant collapses to 0
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(instances):
        d = 2 + rng.next_below(5)
        k = d + 1 + rng.next_below(3)
        worst = max(worst, abs(float(np.linalg.det(_random_unit_gram(rng, k, d)))))
    return CheckResult("hadamard-rank-deficient", worst <= 1e-10, instances, worst,
                       1e-10, "max_abs_det")


def check_gershgorin_sandwich(instances: int = 1000, seed: int = 4) -> CheckResult:
    rng = SplitMix64(seed)
    worst = np.inf  # min det - lower_bound; any negative value is a violation
    for _ in range(instances):
        k = 2 + rng.next_below(7)
        d = k + rng.next_below(8)
        g = _random_unit_gram(rng, k, d)
        margin = float(np.linalg.det(g)) - oracle.gershgorin_lower_bound(g)
        worst = min(worst, margin)
    return CheckResult("gershgorin-sandwich", worst >= 0.0, instances, worst,
                       0.0, "min_det_minus_bound")


def check_refined_tightness(grid_points: int = 50) -> CheckResult:
    """The closed-form upper bound is exact on the equicorrelation family."""
    worst = 0.0
    count = 0
    for k in range(2, 9):
        lo = -1.0 / (k - 1)
        for rho in np.linspace(lo, 0.999, grid_points):
            det = float(np.linalg.det(oracle.equicorrelation_matrix(k, rho)))
            bound = oracle.refined_upper_bound(k, rho)
            worst = max(worst, abs(det - bound))
            count += 1
    return CheckResult("refined-tightness", worst <= 1e-10, count, worst,
                       1e-10, "max_abs_err")


def check_refined_monotonic(grid_points: int = 50) -> CheckResult:
    worst = np.inf  # min consecutive decrease; must stay strictly positive
    count = 0
    for k in range(2, 9):
        values = [oracle.refined_upper_bound(k, rho)
                  for rho in np.linspace(1e-3, 0.999, grid_points)]
        drops = -np.diff(values)
        worst = min(worst, float(drops.min()))
        count += len(drops)
    return CheckResult("refined-monotonic", worst > 0.0, count, worst,
                       0.0, "min_decrease")


def check_equicorrelation_equivalence(families: int = 100, seed: int = 5) -> CheckResult:
    """Among equicorrelated subsets, the max-det one is the min-rho one."""
    rng = SplitMix64(seed)
    worst = np.inf  # min det gap between the winner and the runner-up
    for _ in range(families):
        k = 2 + rng.next_below(7)
        size = 3 + rng.next_below(4)
        rhos = []
        while len(rhos) < size:
            r = 0.98 * rng.next_float()
            if all(abs(r - s) > 1e-3 for s in rhos):
                rhos.append(r)
        mats = [oracle.equicorrelation_matrix(k, r) for r in rhos]
        dets = [float(np.linalg.det(m)) for m in mats]
        avgs = [oracle.rho_metrics(m).rho_avg for m in mats]
        maxs = [oracle.rho_metrics(m).rho_max for m in mats]
        if not (np.argmax(dets) == np.argmin(avgs) == np.argmin(maxs)):
            return CheckResult("equicorrelation-equivalence", False, families,
                               -1.0, 0.0, "min_det_gap")
        gap = np.diff(np.sort(dets)[-2:])[0]
        worst = min(worst, float(gap))
    return CheckResult("equicorrelation-equivalence", True, families, worst,
                       0.0, "min_det_gap")


def check_negative_correlation_witness() -> CheckResult:
    """Fixed regression: lower rho_max does not imply higher determinant.

    The 2x2 pair with off-diagonal -1/2 has rho_max = -0.5 < 0 yet
    det 0.75 < 1.0, so determinant order and rho_max order disagree
    once correlations go negative.
    """
    neg = oracle.equicorrelation_matrix(2, -0.5)
    indep = oracle.equicorrelation_matrix(2, 0.0)
    det_neg = float(np.linalg.det(neg))
    det_indep = float(np.linalg.det(indep))
    err = max(abs(det_neg - 0.75), abs(det_indep - 1.0))
    ordered = (oracle.rho_metrics(neg).rho_max < oracle.rho_metrics(indep).rho_max
               and det_neg < det_indep)
    return CheckResult("negative-correlation-witness", ordered and err <= 1e-12,
                       1, err, 1e-12, "max_abs_err")


# ---------------------------------------------------------------- greedy selection

def make_greedy_instance(rng: SplitMix64, d: int = 32):
    """Random tokens + random query at oracle-checkable sizes."""
    n = 4 + rng.next_below(7)                      # 4..10
    k = 1 + rng.next_below(min(4, n))              # 1..4
    h_v = gaussian_matrix(rng.next_u64() >> 1, n, d)
    h_q = gaussian_matrix(rng.next_u64() >> 1, 1 + rng.next_below(4), d)
    prep = similarity.prepare(h_v, h_q)
    return qcsp.build_kernel(prep, prep.relevance), k


def marginal_gain_errors(kernel, k: int) -> tuple[list[float], list[float]]:
    """Two per-step error families for the recorded greedy gains.

    First: |gain - det(L_{S+j})/det(L_S)| / (1 + ratio), skipping steps
    where the running det has fallen under 1e-12. The unit-scale
    denominator absorbs the O(eps) absolute drift that the stabilized
    denominator injects after a small-gain selection.

    Second: the stabilized recursion is the exact Cholesky of
    M = L + eps*I, so (gain + eps) must equal det(M_{S+j})/det(M_S) to
    machine precision on every step. This is the strict anchor; any
    sign or indexing defect in the update shatters it.

    Ratios are taken as exp(logdet_{t} - logdet_{t-1}) from slogdet, so
    long walks, whose determinants underflow, are checked as well.  L is
    copied before the walk, which may take the kernel's matrix over.
    """
    l = kernel.materialize().copy()
    state = qcsp.GreedyState(kernel)
    state.extend(k)
    m = l + qcsp.EPS * np.eye(kernel.n)
    mixed, shifted = [], []
    log_prev = 0.0
    log_prev_m = 0.0
    for t in range(state.t):
        if state.gains[t] == 0.0 and state.exhausted:
            break
        s = [int(i) for i in state.order[: t + 1]]
        sign, log_cur = np.linalg.slogdet(l[np.ix_(s, s)])
        sign_m, log_cur_m = np.linalg.slogdet(m[np.ix_(s, s)])
        if log_prev > LOG_DET_FLOOR:
            ratio = sign * math.exp(log_cur - log_prev)
            mixed.append(abs(state.gains[t] - ratio) / (1.0 + abs(ratio)))
        ratio_m = sign_m * math.exp(log_cur_m - log_prev_m)
        shifted.append(_shifted_error(state.gains[t], ratio_m))
        # a det at or below 0 ends the first family, as one under 1e-12 does
        log_prev = log_cur if sign > 0 else -math.inf
        log_prev_m = log_cur_m
    return mixed, shifted


def _shifted_error(gain: float, ratio: float) -> float:
    """Relative error of gain + eps against det(M_{S+j}) / det(M_S)."""
    return abs(gain + qcsp.EPS - ratio) / abs(ratio)


def check_greedy_suite(instances: int = 500, seed: int = 6) -> list[CheckResult]:
    """One pass over shared random instances:

    - marginal-gain: every recorded gain equals the determinant ratio
      at unit-scale tolerance 1e-6 (asserted);
    - shifted-gain-identity: gain + eps equals the det ratio of the
      eps-shifted kernel within relative 1e-9 (asserted; exact modulo
      float rounding, see marginal_gain_errors);
    - greedy-match-rate: fraction of instances where greedy attains the
      exhaustive max determinant within relative 1e-8 (informational);
    - greedy-guarantee: regularized greedy reaches at least (1 - 1/e)
      of the exhaustive regularized optimum (asserted).
    """
    rng = SplitMix64(seed)
    worst_gain_err = 0.0
    worst_shift_err = 0.0
    matches = 0
    worst_guarantee = np.inf
    for _ in range(instances):
        kernel, k = make_greedy_instance(rng)
        mixed, shifted = marginal_gain_errors(kernel, k)
        if mixed:
            worst_gain_err = max(worst_gain_err, max(mixed))
        if shifted:
            worst_shift_err = max(worst_shift_err, max(shifted))

        picked = qcsp.greedy_map(kernel, k)
        l = kernel.materialize()
        greedy_det = float(np.linalg.det(l[np.ix_(picked, picked)]))
        _, best_det = oracle.brute_force_map(l, k)
        if abs(greedy_det - best_det) <= 1e-8 * max(1e-300, best_det):
            matches += 1

        _, greedy_val = oracle.greedy_regularized(l, k)
        _, opt_val = oracle.regularized_optimum(l, k)
        worst_guarantee = min(worst_guarantee,
                              greedy_val - GREEDY_GUARANTEE_FACTOR * opt_val)
    return [
        CheckResult("marginal-gain", worst_gain_err <= 1e-6, instances,
                    worst_gain_err, 1e-6, "max_rel_err"),
        CheckResult("shifted-gain-identity", worst_shift_err <= 1e-9, instances,
                    worst_shift_err, 1e-9, "max_rel_err"),
        CheckResult("greedy-match-rate", True, instances, matches / instances,
                    0.0, "match_fraction", informational=True),
        CheckResult("greedy-guarantee", worst_guarantee >= -1e-12, instances,
                    worst_guarantee, 0.0, "min_slack"),
    ]


def check_flushed_walk(instances: int = 3, seed: int = 15) -> list[CheckResult]:
    """The blocked walk at the sizes that flush, in two asserted checks:

    - flushed-walk: against the unblocked walk.  Each instance has n in
      [900, 1000] Gaussian tokens of width d and a query, and is walked
      with the shipped panel size B = flush_rows(n) for k > 2B steps, so
      it flushes at least twice, with d < k, so it runs past the kernel's
      rank.  The order must equal oracle.greedy_walk's exactly, and every
      gain must lie within 1e-12 of the first gain of it (worst = that
      error over the first gain).
    - flushed-shifted-gain: against determinants.  At steps 1, B, B+1,
      2B, 2B+1, d, d+1 and k-1 (steps count from 0, and k >= 2B+1), on
      both sides of each flush and of the rank, gain + eps must equal
      the slogdet ratio of L + eps*I within relative 1e-9, the
      shifted-gain-identity tolerance.
    """
    rng = SplitMix64(seed)
    worst = worst_shifted = 0.0
    for _ in range(instances):
        n = 900 + rng.next_below(101)
        k = 2 * qcsp.flush_rows(n) + 1 + rng.next_below(60)
        d = k - 40 - rng.next_below(200)
        h_v = gaussian_matrix(rng.next_u64() >> 1, n, d)
        h_q = gaussian_matrix(rng.next_u64() >> 1, 1 + rng.next_below(4), d)
        prep = similarity.prepare(h_v, h_q)
        kernel = qcsp.build_kernel(prep, prep.relevance)
        l = kernel.materialize()
        order, gains = oracle.greedy_walk(l, k, qcsp.EPS)
        m = l + qcsp.EPS * np.eye(n)  # a new matrix: the walk overwrites l
        state = qcsp.GreedyState(kernel)
        state.extend(k)
        if (state.flushes < 2 or state.exhausted or len(order) < k
                or state.order[:k].tolist() != order):
            worst = worst_shifted = math.inf
            break
        err = float(np.max(np.abs(state.gains[:k] - gains))) / gains[0]
        worst = max(worst, err)
        b = qcsp.flush_rows(n)
        # k may be 2B + 1, and then step 2B + 1 is not walked
        for t in {1, b, b + 1, 2 * b, 2 * b + 1, d, d + 1, k - 1} - {k}:
            _, log_prev = np.linalg.slogdet(m[np.ix_(order[:t], order[:t])])
            sign, log_cur = np.linalg.slogdet(m[np.ix_(order[:t + 1], order[:t + 1])])
            ratio = sign * math.exp(log_cur - log_prev)
            worst_shifted = max(worst_shifted, _shifted_error(state.gains[t], ratio))
    return [
        CheckResult("flushed-walk", worst <= 1e-12, instances, worst,
                    1e-12, "max_gain_err"),
        CheckResult("flushed-shifted-gain", worst_shifted <= 1e-9, instances,
                    worst_shifted, 1e-9, "max_rel_err"),
    ]


def check_prefix_consistency(instances: int = 100, seed: int = 7) -> CheckResult:
    rng = SplitMix64(seed)
    violations = 0
    for _ in range(instances):
        kernel, k = make_greedy_instance(rng)
        if k >= kernel.n:
            k = kernel.n - 1
        short = qcsp.greedy_map(kernel, k)
        long = qcsp.greedy_map(kernel, k + 1)
        if short != long[:k]:
            violations += 1
    return CheckResult("prefix-consistency", violations == 0, instances,
                       float(violations), 0.0, "violations")


def check_psd_preservation(instances: int = 1000, seed: int = 8) -> CheckResult:
    rng = SplitMix64(seed)
    worst = np.inf  # min of (lambda_min + 1e-8 n); negative = violation
    for _ in range(instances):
        n = 2 + rng.next_below(15)
        d = 2 + rng.next_below(31)
        h_v = gaussian_matrix(rng.next_u64() >> 1, n, d)
        r = np.array([rng.next_float() for _ in range(n)])
        kernel = qcsp.build_kernel(h_v, r)
        lam = float(np.linalg.eigvalsh(kernel.materialize()).min())
        worst = min(worst, lam + 1e-8 * n)
    return CheckResult("psd-preservation", worst >= 0.0, instances, worst,
                       0.0, "min_shifted_eig")


def check_determinant_expansion(instances: int = 200, seed: int = 9) -> CheckResult:
    """det(Q_I^{1/2} S_I Q_I^{1/2}) = (prod q_i) det(S_I) for diagonal Q."""
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(instances):
        n = 2 + rng.next_below(7)
        d = n + rng.next_below(8)
        s = _random_unit_gram(rng, n, d)
        q = np.array([0.05 + 0.95 * rng.next_float() for _ in range(n)])
        size = 1 + rng.next_below(n)
        subset = sorted(SplitMix64(rng.next_u64() >> 1).sample_without_replacement(n, size))
        root = np.diag(np.sqrt(q[subset]))
        lhs = float(np.linalg.det(root @ s[np.ix_(subset, subset)] @ root))
        rhs = float(np.prod(q[subset]) * np.linalg.det(s[np.ix_(subset, subset)]))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return CheckResult("determinant-expansion", worst <= 1e-8, instances, worst,
                       1e-8, "max_rel_err")


def check_relevance_dominance(instances: int = 100, seed: int = 10) -> CheckResult:
    rng = SplitMix64(seed)
    violations = 0
    for _ in range(instances):
        d = 4 + rng.next_below(29)
        row = gaussian_matrix(rng.next_u64() >> 1, 1, d)
        h_v = np.vstack([row, row])
        r_pair = sorted((0.05 + 0.95 * rng.next_float(),
                         0.05 + 0.95 * rng.next_float()), reverse=True)
        hi_first = rng.next_below(2) == 0
        r = np.array(r_pair if hi_first else r_pair[::-1])
        picked = qcsp.greedy_map(qcsp.build_kernel(h_v, r), 1)
        if picked[0] != int(np.argmax(r)):
            violations += 1
    return CheckResult("relevance-dominance", violations == 0, instances,
                       float(violations), 0.0, "violations")


def check_diversity_dominance(instances: int = 100, seed: int = 11) -> CheckResult:
    """With equal relevance, exact duplicates are never picked while a
    fresh direction is still on the table."""
    rng = SplitMix64(seed)
    violations = 0
    for _ in range(instances):
        distinct = 2 + rng.next_below(5)
        copies = 2 + rng.next_below(3)
        d = 16 + rng.next_below(17)
        base = gaussian_matrix(rng.next_u64() >> 1, distinct, d)
        h_v = np.repeat(base, copies, axis=0)
        picked = qcsp.qcsp_select(h_v, None, distinct)
        base_ids = {p // copies for p in picked}
        if len(base_ids) != distinct:
            violations += 1
    return CheckResult("diversity-dominance", violations == 0, instances,
                       float(violations), 0.0, "violations")


# ---------------------------------------------------------------- pipeline level

def check_bipartite_count(sizes=(64, 576, 2880), seed: int = 12) -> CheckResult:
    rng = SplitMix64(seed)
    worst = np.inf  # min distance of the ratio from the [0.49, 0.51] edges
    for n in sizes:
        g = gsp.build_graph(synth.random_tokens(n, 8, rng.next_u64() >> 1))
        expected = math.ceil(n / 2) * math.floor(n / 2)
        if g.num_similarity_evaluations != expected:
            return CheckResult("bipartite-count", False, len(sizes), -1.0, 0.0,
                               "min_ratio_slack")
        ratio = g.num_similarity_evaluations / (n * (n - 1) / 2)
        worst = min(worst, min(ratio - 0.49, 0.51 - ratio))
    return CheckResult("bipartite-count", worst >= 0.0, len(sizes), worst,
                       0.0, "min_ratio_slack")


def check_fusion_contract(instances: int = 1000, seed: int = 13,
                          max_n: int = 256) -> CheckResult:
    rng = SplitMix64(seed)
    violations = 0
    for _ in range(instances):
        n = 1 + rng.next_below(max_n)
        m = 1 + rng.next_below(n)
        d = 8 + rng.next_below(9)
        h_v = gaussian_matrix(rng.next_u64() >> 1, n, d)
        h_q = gaussian_matrix(rng.next_u64() >> 1, 1 + rng.next_below(3), d)
        first = fusion.script_select(h_v, h_q, m)
        second = fusion.script_select(h_v, h_q, m)
        ok = (len(first.kept) == m
              and len(set(first.kept)) == m
              and all(0 <= i < n for i in first.kept)
              and first.kept == second.kept
              and first.stage_tags == second.stage_tags)
        if not ok:
            violations += 1
    return CheckResult("fusion-contract", violations == 0, instances,
                       float(violations), 0.0, "violations")


def check_flops_ratios() -> CheckResult:
    profile = analysis.ModelProfile(layers=32, hidden_dim=4096, ffn_dim=11008)
    targets = [(64, 576, 0.415 / 3.817), (192, 576, 1.253 / 3.817)]
    worst = 0.0
    for small, large, expected in targets:
        got = (analysis.flops_estimate(small, profile)
               / analysis.flops_estimate(large, profile))
        worst = max(worst, abs(got - expected) / expected)
    return CheckResult("flops-ratios", worst <= 0.05, len(targets), worst,
                       0.05, "max_rel_err")


def check_entropy_direction(seeds: int = 20, base_seed: int = 14) -> CheckResult:
    """Constant image regions must read as low-entropy, high-neighbor-
    similarity; noise regions the opposite.  Direction only."""
    grid = analysis.GridShape(12, 12)
    worst = np.inf  # min separation across both measures, all seeds
    for s in range(seeds):
        h_v = synth.two_region_grid(grid.height, grid.width, 48, base_seed + s)
        flat = synth.constant_region_mask(grid.height, grid.width)
        entropy = analysis.local_entropy_map(h_v, grid)
        neighbor = analysis.mean_neighbor_similarity(h_v, grid)
        gap_entropy = entropy[~flat].mean() - entropy[flat].mean()
        gap_similarity = neighbor[flat].mean() - neighbor[~flat].mean()
        worst = min(worst, gap_entropy, gap_similarity)
    return CheckResult("entropy-direction", worst > 0.0, seeds, worst,
                       0.0, "min_gap")


# ---------------------------------------------------------------- driver

def run_all(seed: int = 0, instances: int = 200) -> list[CheckResult]:
    """The full suite at cmd_verify scale; acceptance tests call the
    individual checks with their own (larger) counts."""
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    small = max(20, instances // 4)
    results = [
        check_det_volume(instances, seed),
        check_hadamard_upper_bound(instances, seed + 1),
        check_hadamard_orthonormal(small, seed + 2),
        check_hadamard_rank_deficient(small, seed + 3),
        check_gershgorin_sandwich(instances, seed + 4),
        check_refined_tightness(),
        check_refined_monotonic(),
        check_equicorrelation_equivalence(max(20, instances // 2), seed + 5),
        check_negative_correlation_witness(),
    ]
    results.extend(check_greedy_suite(instances, seed + 6))
    results.extend(check_flushed_walk(min(3, instances), seed + 15))
    results.extend([
        check_prefix_consistency(small, seed + 7),
        check_psd_preservation(instances, seed + 8),
        check_determinant_expansion(instances, seed + 9),
        check_relevance_dominance(small, seed + 10),
        check_diversity_dominance(small, seed + 11),
        check_bipartite_count(seed=seed + 12),
        check_fusion_contract(max(50, instances // 4), seed + 13, max_n=128),
        check_flops_ratios(),
        check_entropy_direction(5, seed + 14),
    ])
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = [r.name for r in results if not r.passed]
    lines.append(f"checks={len(results)} failed={len(failed)}"
                 + (f" [{', '.join(failed)}]" if failed else ""))
    return "\n".join(lines)


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
