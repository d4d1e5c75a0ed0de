"""Graph-structured redundancy pruning.

Tokens are split by index parity into the two sides of a complete
bipartite graph whose edges carry cross-side cosine similarities.  This
costs exactly ceil(n/2)*floor(n/2) similarity evaluations, about half
of the n(n-1)/2 exhaustive pair count.  Each token is scored

    score(t) = degree(t) * exp(gamma * (mean_sim(t) - tau))

where degree counts cross-side neighbors with similarity >= tau and
mean_sim averages over exactly those neighbors.  A token with no
neighbor above the threshold falls back to its mean similarity against
all cross-side tokens.  Low score = structurally non-redundant = kept.

The cross-side cosines are the even x odd block S[0::2, 1::2] of the
unit-row Gram.  Given a prepared instance that holds S, the graph is a
strided view of it and costs no arithmetic; otherwise the block is one
gemm of the prepared unit rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .similarity import Prepared, prepare

DEFAULT_TAU = 0.3
DEFAULT_GAMMA = 5.0


def bipartite_split(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Even original indices to the source side, odd to the destination side."""
    if n < 1:
        raise ValueError("bipartite_split needs n >= 1")
    idx = np.arange(n)
    return idx[0::2], idx[1::2]


@dataclass
class BipartiteRedundancyGraph:
    src_indices: np.ndarray
    dst_indices: np.ndarray
    cross_sim: np.ndarray  # |src| x |dst|
    tau: float
    gamma: float

    @property
    def n(self) -> int:
        return len(self.src_indices) + len(self.dst_indices)

    @property
    def num_similarity_evaluations(self) -> int:
        return self.cross_sim.size


@dataclass
class RedundancyScores:
    score: np.ndarray
    degree: np.ndarray
    mean_sim: np.ndarray
    used_fallback: np.ndarray  # bool per token


def build_graph(h_v: np.ndarray | Prepared, tau: float = DEFAULT_TAU,
                gamma: float = DEFAULT_GAMMA) -> BipartiteRedundancyGraph:
    """The redundancy graph of token rows, or of a prepared instance."""
    if not (-1.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (-1, 1), got {tau}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    prep = h_v if isinstance(h_v, Prepared) else prepare(h_v, gram=False)
    src, dst = bipartite_split(prep.n)
    if prep.gram is not None:
        cross = prep.gram[0::2, 1::2]
    else:
        cross = prep.unit[0::2] @ prep.unit[1::2].T
    return BipartiteRedundancyGraph(src, dst, cross, float(tau), float(gamma))


def redundancy_scores(g: BipartiteRedundancyGraph) -> RedundancyScores:
    n = g.n
    score = np.zeros(n)
    degree = np.zeros(n, dtype=np.int64)
    mean_sim = np.zeros(n)
    used_fallback = np.zeros(n, dtype=bool)

    for indices, sims in ((g.src_indices, g.cross_sim), (g.dst_indices, g.cross_sim.T)):
        if sims.shape[1] == 0:
            # empty opposite side (n = 1): trivially non-redundant, score 0
            used_fallback[indices] = True
            continue
        above = sims >= g.tau
        d = above.sum(axis=1)
        has_neighbors = d > 0
        mu_above = (sims * above).sum(axis=1) / np.maximum(d, 1)
        mu_all = sims.mean(axis=1)
        mu = np.where(has_neighbors, mu_above, mu_all)
        s = np.where(has_neighbors, d * np.exp(g.gamma * (mu - g.tau)), mu_all)
        score[indices] = s
        degree[indices] = d
        mean_sim[indices] = mu
        used_fallback[indices] = ~has_neighbors

    return RedundancyScores(score, degree, mean_sim, used_fallback)


def gsp_select(h_v: np.ndarray | Prepared, tau: float = DEFAULT_TAU,
               gamma: float = DEFAULT_GAMMA, keep: int = None) -> list[int]:
    """The indices of the `keep` lowest-redundancy tokens, ascending.

    Ties in score break toward the lower original index.
    """
    n = h_v.n if isinstance(h_v, Prepared) else len(h_v)
    if keep is None or not (1 <= keep <= n):
        raise ValueError(f"keep must lie in [1, {n}], got {keep}")
    scores = redundancy_scores(build_graph(h_v, tau, gamma)).score
    # stable mergesort on score preserves index order within ties
    ranked = np.argsort(scores, kind="stable")
    return np.sort(ranked[:keep]).tolist()
