"""Brute-force references and closed-form determinant bounds.

Everything here exists to check the fast paths: exhaustive subset
search for the max-determinant subset, the determinant-as-volume
identity, Hadamard and Gershgorin bounds, the equicorrelation family
with its closed-form spectrum, and the regularized greedy objective
log det(I + L_S) that carries the (1 - 1/e) guarantee, and an unblocked
greedy MAP walk to check the blocked one against.

Determinants go through LU with partial pivoting in 64-bit.  For tie
purposes in the exhaustive search, determinants below 1e-12 count as
exactly 0 so near-singular subsets compare reproducibly.  A bool, a
non-integer or an out-of-range k raises similarity._integer's ValueError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .similarity import _integer

DET_TIE_FLOOR = 1e-12
SUBSET_GUARD = 10**6
UNIT_DIAG_TOL = 1e-9
PSD_TOL = 1e-8


def _matrix(l: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """l as float64 and its order n, for an integer k in [1, n]."""
    l = np.asarray(l, dtype=np.float64)
    n = l.shape[0]
    _integer("k", k, 1, n)
    return l, n


def _best_subset(l: np.ndarray, k: int, value) -> tuple[tuple[int, ...], float]:
    """The lexicographically smallest size-k subset S maximizing value(L_S),
    and that value; guarded to C(n, k) <= SUBSET_GUARD subsets."""
    l, n = _matrix(l, k)
    if math.comb(n, k) > SUBSET_GUARD:
        raise ValueError(f"C({n},{k}) exceeds the {SUBSET_GUARD} subset guard")
    best_subset, best_val = None, -np.inf
    for subset in itertools.combinations(range(n), k):
        val = value(l[np.ix_(subset, subset)])
        # strict > keeps the first (lexicographically smallest) maximizer
        if val > best_val:
            best_subset, best_val = subset, val
    return best_subset, best_val


def brute_force_map(l: np.ndarray, k: int) -> tuple[tuple[int, ...], float]:
    """Exhaustive argmax of det(L_S) over all size-k subsets.

    Returns the lexicographically smallest argmax and its determinant.
    Guarded to C(n, k) <= 1e6 subsets so it always terminates in tests.
    """
    def det(l_s):
        d = float(np.linalg.det(l_s))
        return 0.0 if d < DET_TIE_FLOOR else d

    return _best_subset(l, k, det)


def gram_det(v_s: np.ndarray) -> float:
    """det of the k x k Gram matrix of the columns of v_s (shape d x k)."""
    v = np.asarray(v_s, dtype=np.float64)
    return float(np.linalg.det(v.T @ v))


def parallelotope_volume(v_s: np.ndarray) -> float:
    """|det R| from the QR factorization of v_s; k > d collapses to 0."""
    v = np.asarray(v_s, dtype=np.float64)
    d, k = v.shape
    if k > d:
        return 0.0
    r = np.linalg.qr(v, mode="r")
    return float(np.abs(np.prod(np.diagonal(r))))


@dataclass
class RedundancyMetrics:
    rho_max: float  # max off-diagonal
    rho_avg: float  # mean off-diagonal, 2/(k(k-1)) * sum_{i<j}
    rho_inf: float  # max absolute off-diagonal


def rho_metrics(l_s: np.ndarray) -> RedundancyMetrics:
    l = np.asarray(l_s, dtype=np.float64)
    k = l.shape[0]
    if l.ndim != 2 or l.shape[0] != l.shape[1] or k < 2:
        raise ValueError("rho metrics need a square matrix with k >= 2")
    off = l[~np.eye(k, dtype=bool)]
    iu = np.triu_indices(k, 1)
    return RedundancyMetrics(
        rho_max=float(off.max()),
        rho_avg=float(l[iu].mean()),
        rho_inf=float(np.abs(off).max()),
    )


def _require_unit_diagonal(l: np.ndarray, who: str) -> None:
    if np.abs(np.diagonal(l) - 1.0).max() > UNIT_DIAG_TOL:
        raise ValueError(f"{who} requires a unit diagonal (tolerance {UNIT_DIAG_TOL})")


def gershgorin_lower_bound(l_s: np.ndarray) -> float:
    """[1 - (k-1) * rho_inf]_+ ^ k, a determinant lower bound."""
    l = np.asarray(l_s, dtype=np.float64)
    _require_unit_diagonal(l, "gershgorin_lower_bound")
    k = l.shape[0]
    rho_inf = 0.0 if k < 2 else rho_metrics(l).rho_inf
    return max(0.0, 1.0 - (k - 1) * rho_inf) ** k


def refined_upper_bound(k: int, rho_avg: float) -> float:
    """(1 + (k-1) rho) (1 - rho)^(k-1), for k >= 2; tight on the
    equicorrelation family."""
    _integer("k", k, 2)
    lo = -1.0 / (k - 1)
    if not (lo - 1e-12 <= rho_avg <= 1.0 + 1e-12):
        raise ValueError(f"rho_avg must lie in [{lo}, 1], got {rho_avg}")
    return (1.0 + (k - 1) * rho_avg) * (1.0 - rho_avg) ** (k - 1)


def equicorrelation_matrix(k: int, rho: float) -> np.ndarray:
    """Unit diagonal, all off-diagonals rho.

    Eigenvalues are 1 + (k-1) rho once and (1 - rho) with multiplicity
    k - 1, so det = (1 + (k-1) rho) (1 - rho)^(k-1), for k >= 1.
    """
    _integer("k", k, 1)
    if k >= 2:
        lo = -1.0 / (k - 1)
        if not (lo - 1e-12 <= rho <= 1.0 + 1e-12):
            raise ValueError(f"rho must lie in [{lo}, 1] for k={k}, got {rho}")
    return (1.0 - rho) * np.eye(k) + rho * np.ones((k, k))


def greedy_regularized(l: np.ndarray, k: int) -> tuple[list[int], float]:
    """Greedy maximization of f(S) = log det(I + L_S); ties to lower index.

    This regularized objective is monotone submodular, so the greedy
    value is within a (1 - 1/e) factor of the exhaustive optimum.
    """
    l, n = _matrix(l, k)
    min_eig = float(np.linalg.eigvalsh(l).min())
    if min_eig < -PSD_TOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {min_eig})")
    selected: list[int] = []
    value = 0.0
    for _ in range(k):
        best_i, best_val = -1, -np.inf
        for i in range(n):
            if i in selected:
                continue
            s = selected + [i]
            sign, logdet = np.linalg.slogdet(np.eye(len(s)) + l[np.ix_(s, s)])
            cand = sign * logdet
            if cand > best_val:
                best_i, best_val = i, cand
        selected.append(best_i)
        value = best_val
    return selected, float(value)


def greedy_walk(l: np.ndarray, k: int, eps: float) -> tuple[list[int], np.ndarray]:
    """Unblocked greedy MAP walk of k steps: the incremental Cholesky of
    L + eps*I that keeps every coefficient row (Chen, Zhang & Zhou, 2018).

    Step t picks the largest residual gain v_j (ties to the lower index)
    and records it; then c_t = (L_j - C[:t, j] @ C[:t]) / sqrt(v_j + eps)
    and v -= c_t^2.  Stops early, before the pick, once no gain is
    positive.  Returns the order and the recorded gains.
    """
    l, n = _matrix(l, k)
    v = np.diagonal(l).copy()
    coeffs = np.zeros((k, n))
    order: list[int] = []
    gains = []
    for t in range(k):
        j = int(np.argmax(v))
        if not v[j] > 0.0:
            break
        c = (l[j] - coeffs[:t, j] @ coeffs[:t]) / np.sqrt(v[j] + eps)
        coeffs[t] = c
        order.append(j)
        gains.append(v[j])
        v -= c * c
        v[j] = -np.inf
    return order, np.array(gains)


def regularized_optimum(l: np.ndarray, k: int) -> tuple[tuple[int, ...], float]:
    """Exhaustive max of log det(I + L_S), for checking the greedy guarantee."""
    def value(l_s):
        sign, logdet = np.linalg.slogdet(np.eye(k) + l_s)
        return sign * logdet

    subset, val = _best_subset(l, k, value)
    return subset, float(val)


def hadamard_margin(l_s: np.ndarray) -> float:
    """1 - det(L_S); nonnegative (up to float noise) on unit-norm Grams."""
    l = np.asarray(l_s, dtype=np.float64)
    _require_unit_diagonal(l, "hadamard_margin")
    return 1.0 - float(np.linalg.det(l))
