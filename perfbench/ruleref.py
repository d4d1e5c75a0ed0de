"""An independent transcription of the fused selection rule, and the
checks that compare the program's selections with it.

Nothing here imports tokensieve.  The rule, from the paper and the
package README:

1. Unit rows u_i = h_i / |h_i| (zero rows stay zero).
2. Redundancy: even-index tokens against odd-index tokens.  A token with
   cross-side cosines >= tau scores degree * exp(gamma * (mean - tau)),
   mean taken over those neighbours; a token with none scores its mean
   cosine over the whole other side.  G is the gsp_keep lowest scores,
   ties to the lower index.
3. Relevance r_i = cos(h_i, mean query row), min-max scaled to [0, 1] with
   a floor of 1e-6 (all ones when constant).  Kernel L = (r u)(r u)^T.
4. Greedy MAP (Chen, Zhang & Zhou 2018) with the same eps: pick the
   largest residual gain (ties to the lower index), stop when none is
   positive, then pad with unpicked indices in ascending order.
5. Walk that order keeping G-members until m are kept; if G runs out,
   fill from the first m entries of the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAU = 0.3
GAMMA = 5.0
EPS = 1e-6
RELEVANCE_FLOOR = 1e-6
# Two candidates whose residual gains differ by at most this share of the
# larger are a near-tie: rounding that differs between two correct
# implementations may order them either way, and the selections may part
# from that step on.  A gain is an O(1) diagonal entry less T squared
# coefficients, so two implementations may differ by about T * 2**-52
# (3e-13 at T = 1400), which is 1.5e-7 of the smallest gain seen on the
# workloads (2e-6, past the kernel's rank on anyres2880).
TIE_RTOL = 1e-6
TAGS = ("intersection", "qcsp-fill")


def unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    return x / np.where(norms > 0.0, norms, 1.0)[:, None]


def redundancy_scores(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    score = np.zeros(n)
    if n == 1:
        return score
    cross = u[0::2] @ u[1::2].T
    for first, sims in ((0, cross), (1, cross.T)):
        for k, row in enumerate(sims):
            near = row[row >= TAU]
            if near.size:
                score[first + 2 * k] = near.size * np.exp(GAMMA * (near.mean() - TAU))
            else:
                score[first + 2 * k] = row.mean()
    return score


def relevance(u: np.ndarray, query: np.ndarray) -> np.ndarray:
    pooled = query.mean(axis=0)
    norm = np.sqrt(pooled @ pooled)
    raw = u @ (pooled / norm) if norm > 0.0 else np.zeros(u.shape[0])
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.ones_like(raw)
    return np.maximum((raw - lo) / (hi - lo), RELEVANCE_FLOOR)


def greedy_walk(kernel: np.ndarray):
    """Yield (index, best gain, runner-up gain) per step of the greedy
    order; padding steps after rank exhaustion carry gains of 0."""
    n = kernel.shape[0]
    gains = np.diagonal(kernel).copy()
    picked = np.zeros(n, dtype=bool)
    coeffs = np.empty((min(n, 64), n))  # row t: Cholesky coefficients of step t
    for t in range(n):
        masked = np.where(picked, -np.inf, gains)
        j = int(np.argmax(masked))
        best = masked[j]
        if not best > 0.0:
            break
        masked[j] = -np.inf
        if t == coeffs.shape[0]:
            grown = np.empty((min(n, 2 * t), n))
            grown[:t] = coeffs
            coeffs = grown
        coeffs[t] = (kernel[j] - coeffs[:t, j] @ coeffs[:t]) / np.sqrt(best + EPS)
        gains -= coeffs[t] * coeffs[t]
        picked[j] = True
        yield j, float(best), float(masked.max())
    for j in np.flatnonzero(~picked):
        yield int(j), 0.0, 0.0


@dataclass
class Reference:
    kept: list
    tags: list
    g_members: frozenset
    steps: list  # (index, best gain, runner-up gain) per walked step
    n: int
    m: int

    def near_tie_steps(self) -> list:
        return [s for s, (_, best, second) in enumerate(self.steps)
                if best > 0.0 and best - second <= TIE_RTOL * best]


def reference_select(tokens: np.ndarray, query: np.ndarray, m: int,
                     gsp_keep: int | None = None) -> Reference:
    tokens = np.asarray(tokens, dtype=np.float64)
    n = tokens.shape[0]
    gsp_keep = min(n, 2 * m) if gsp_keep is None else gsp_keep
    u = unit_rows(tokens)
    g = frozenset(int(i) for i in np.argsort(redundancy_scores(u), kind="stable")[:gsp_keep])
    scaled = u * relevance(u, np.asarray(query, dtype=np.float64))[:, None]
    steps, kept = [], []
    for step in greedy_walk(scaled @ scaled.T):
        steps.append(step)
        if step[0] in g:
            kept.append(step[0])
        if len(kept) == m or (len(kept) == len(g) and len(steps) >= m):
            break
    tags = ["intersection"] * len(kept)
    fill = [i for i, _, _ in steps[:m] if i not in set(kept)][: m - len(kept)]
    return Reference(kept + fill, tags + ["qcsp-fill"] * len(fill), g, steps, n, m)


def check_selection(kept, tags, ref: Reference) -> str | None:
    """Structural checks on one op's output; None when it passes.

    m distinct in-range indices, a known tag for each, every
    `intersection` entry a G-member, and no `intersection` after a
    `qcsp-fill`.
    """
    if len(kept) != ref.m or len(tags) != ref.m:
        return f"expected {ref.m} entries, got {len(kept)} indices and {len(tags)} tags"
    if any(not isinstance(i, int) or not 0 <= i < ref.n for i in kept):
        return "index out of range"
    if len(set(kept)) != ref.m:
        return "repeated index"
    if any(t not in TAGS for t in tags):
        return f"unknown tag among {sorted(set(tags))}"
    if "qcsp-fill" in tags and "intersection" in tags[tags.index("qcsp-fill"):]:
        return "intersection entry after a qcsp-fill entry"
    if any(t == "intersection" and i not in ref.g_members for i, t in zip(kept, tags)):
        return "intersection entry outside the redundancy-graph set"
    return None


def compare_with_reference(kept, tags, ref: Reference) -> tuple[bool, str]:
    """(accepted, how): exact agreement, or a first divergence at or after
    a near-tie step of the reference walk, or a rejection."""
    problem = check_selection(kept, tags, ref)
    if problem:
        return False, problem
    if list(kept) == ref.kept and list(tags) == ref.tags:
        return True, "exact"
    p = next(i for i in range(ref.m) if (kept[i], tags[i]) != (ref.kept[i], ref.tags[i]))
    position = {idx: s for s, (idx, _, _) in enumerate(ref.steps)}
    ref_step = position[ref.kept[p]]
    ties = [s for s in ref.near_tie_steps() if s <= ref_step]
    if ties:
        return True, f"diverges at kept position {p} after the near-tie at step {ties[0]}"
    return False, (f"kept position {p}: program {kept[p]} ({tags[p]}), reference "
                   f"{ref.kept[p]} ({ref.tags[p]}) at step {ref_step} with no near-tie before it")
