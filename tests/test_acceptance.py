"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; without -s they still appear in captured output on failure.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tokensieve import analysis, fusion, qcsp, verify
from tokensieve.rng import SplitMix64, gaussian_matrix
from tokensieve.similarity import mean_pool, min_max_normalize, prepare, relevance_scores


def _emit(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def greedy_suite():
    t0 = time.perf_counter()
    results = verify.check_greedy_suite(instances=500)
    elapsed = time.perf_counter() - t0
    return {r.name: r for r in results}, elapsed


def test_c01_greedy_agreement_and_marginal_gains(greedy_suite):
    by_name, elapsed = greedy_suite
    gain = by_name["marginal-gain"]
    shift = by_name["shifted-gain-identity"]
    match = by_name["greedy-match-rate"]
    passed = gain.passed and shift.passed and elapsed < 60.0
    _emit(1, "greedy-agreement",
          passed,
          f"match_fraction={match.worst:.3f} gain_err={gain.worst:.3e} "
          f"shifted_err={shift.worst:.3e} elapsed={elapsed:.1f}s")


def test_c02_greedy_guarantee(greedy_suite):
    by_name, _ = greedy_suite
    r = by_name["greedy-guarantee"]
    _emit(2, "greedy-guarantee", r.passed,
          f"min_slack={r.worst:.3e} over {r.instances} instances")


def test_c03_determinant_volume():
    r = verify.check_det_volume(instances=1000)
    _emit(3, "determinant-volume", r.passed, f"max_rel_err={r.worst:.3e}")


def test_c04_hadamard_bound():
    upper = verify.check_hadamard_upper_bound(instances=1000)
    ortho = verify.check_hadamard_orthonormal(instances=50)
    deficient = verify.check_hadamard_rank_deficient(instances=50)
    passed = upper.passed and ortho.passed and deficient.passed
    _emit(4, "hadamard-bound", passed,
          f"max_det_minus_1={upper.worst:.3e} ortho_err={ortho.worst:.3e} "
          f"rank_deficient_err={deficient.worst:.3e}")


def test_c05_gershgorin_sandwich():
    r = verify.check_gershgorin_sandwich(instances=1000)
    _emit(5, "gershgorin-sandwich", r.passed, f"min_margin={r.worst:.3e}")


def test_c06_refined_bound():
    tight = verify.check_refined_tightness(grid_points=50)
    mono = verify.check_refined_monotonic(grid_points=50)
    _emit(6, "refined-bound", tight.passed and mono.passed,
          f"max_abs_err={tight.worst:.3e} min_decrease={mono.worst:.3e}")


def test_c07_equicorrelation_equivalence():
    equiv = verify.check_equicorrelation_equivalence(families=100)
    witness = verify.check_negative_correlation_witness()
    _emit(7, "equicorrelation-equivalence", equiv.passed and witness.passed,
          f"min_det_gap={equiv.worst:.3e} witness_err={witness.worst:.3e}")


def test_c08_bipartite_cost():
    r = verify.check_bipartite_count(sizes=(64, 576, 2880))
    _emit(8, "bipartite-cost", r.passed, f"min_ratio_slack={r.worst:.3e}")


def test_c09_fusion_contract():
    r = verify.check_fusion_contract(instances=1000, max_n=256)
    _emit(9, "fusion-contract", r.passed, f"violations={int(r.worst)}")


# ---------------------------------------------------------------- planted ablation

PLANT_Q = 6
PLANT_N = 36      # 6x6 grid
PLANT_D = 16


def _planted_instance(seed: int):
    """q query-aligned distinct tokens hidden among duplicated filler.

    Planted tokens share a moderate query component (pairwise cosine 0.2,
    below the redundancy threshold) plus distinct orthogonal parts; the
    remaining positions cycle three filler directions, so every filler
    vector has near-exact duplicates on both sides of the parity split.
    """
    basis, _ = np.linalg.qr(gaussian_matrix(seed, PLANT_D, PLANT_D))
    z = basis[:, 0]
    planted_pos = list(range(0, PLANT_N, PLANT_N // PLANT_Q))
    h_v = np.empty((PLANT_N, PLANT_D))
    fill = 0
    plant = 0
    for i in range(PLANT_N):
        if i in planted_pos:
            h_v[i] = 0.5 * z + basis[:, 1 + plant]
            plant += 1
        else:
            h_v[i] = basis[:, 1 + PLANT_Q + fill % 3]
            fill += 1
    h_v += 0.02 * gaussian_matrix(seed + 1, PLANT_N, PLANT_D)
    h_q = (z + 0.02 * gaussian_matrix(seed + 2, 1, PLANT_D)[0])[None, :]
    return h_v, h_q, set(planted_pos)


def _recall(kept, planted) -> float:
    return len(set(kept) & planted) / len(planted)


def test_c10_ablation_ordering():
    script_r, qcsp_r, random_r = [], [], []
    for seed in range(50):
        h_v, h_q, planted = _planted_instance(1000 + 17 * seed)
        r = min_max_normalize(relevance_scores(h_v, mean_pool(h_q)))
        walk = qcsp.GreedyState(prepare(h_v), r)
        walk.extend(PLANT_Q)
        script_r.append(_recall(
            fusion.script_select(h_v, h_q, PLANT_Q).kept, planted))
        qcsp_r.append(_recall(walk.order[:PLANT_Q].tolist(), planted))
        random_r.append(_recall(
            fusion.select("random", h_v, None, PLANT_Q, seed=seed).kept, planted))
    ms, mq, mr = (float(np.mean(x)) for x in (script_r, qcsp_r, random_r))
    passed = ms >= mq >= mr and mr < mq and mr < ms
    _emit(10, "ablation-ordering", passed,
          f"recall script={ms:.3f} qcsp={mq:.3f} random={mr:.3f}")


def test_c11_flops_ratio_anchor():
    r = verify.check_flops_ratios()
    profile = analysis.ModelProfile(layers=32, hidden_dim=4096, ffn_dim=11008)
    r64 = analysis.flops_estimate(64, profile) / analysis.flops_estimate(576, profile)
    r192 = analysis.flops_estimate(192, profile) / analysis.flops_estimate(576, profile)
    _emit(11, "flops-ratio-anchor", r.passed,
          f"ratio64={r64:.4f} ratio192={r192:.4f} max_rel_err={r.worst:.3e}")


def test_c12_desk_scale_bench():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "tokensieve", "bench", "--n", "2880",
           "--d", "1024", "--keep", "320", "--mode", "script",
           "--repeats", "5"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=300)
    medians = [float(m) for m in re.findall(r"median=([0-9.]+)s", proc.stdout)]
    passed = proc.returncode == 0 and medians and max(medians) < 2.0
    _emit(12, "desk-scale-bench", passed,
          f"rc={proc.returncode} medians={medians}")


def test_c13_entropy_direction():
    r = verify.check_entropy_direction(seeds=20)
    _emit(13, "entropy-direction", r.passed, f"min_gap={r.worst:.3e}")
