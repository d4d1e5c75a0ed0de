"""Graph-structured redundancy pruning.

Tokens are split by index parity into the two sides of a complete
bipartite graph: the even-index (source) tokens are the rows and the
odd-index (destination) tokens the columns of the cross block
S[0::2, 1::2] of the cosine matrix, which carries the graph's edges.
This costs exactly ceil(n/2)*floor(n/2) similarity evaluations, about
half of the n(n-1)/2 exhaustive pair count.  Each token is scored

    score(t) = degree(t) * exp(gamma * (mean_sim(t) - tau))

where degree counts cross-side neighbors with similarity >= tau and
mean_sim averages over exactly those neighbors.  A token with no
neighbor above the threshold falls back to its mean similarity against
all cross-side tokens.  Low score = structurally non-redundant = kept.

The graph reads a prepared instance (similarity.prepare).  When it holds
S, the graph is a strided view of it and costs no arithmetic; otherwise
the block is one gemm of the prepared raw rows, H[0::2] @ H[1::2].T,
scaled by the outer product of their inverse norms, as S itself is.
Scoring sums under one n^2/4-byte bool mask, with no float copy of S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .similarity import Prepared, _integer, _real, scale_outer

DEFAULT_TAU = 0.3
DEFAULT_GAMMA = 5.0


@dataclass
class BipartiteRedundancyGraph:
    cross_sim: np.ndarray  # ceil(n/2) x floor(n/2): even-index rows, odd-index columns
    tau: float
    gamma: float

    @property
    def n(self) -> int:
        return sum(self.cross_sim.shape)

    @property
    def num_similarity_evaluations(self) -> int:
        return self.cross_sim.size


@dataclass
class RedundancyScores:
    score: np.ndarray
    degree: np.ndarray
    mean_sim: np.ndarray

    @property
    def used_fallback(self) -> np.ndarray:  # bool per token: no neighbor at tau
        return self.degree == 0


def build_graph(prep: Prepared, tau: float = DEFAULT_TAU,
                gamma: float = DEFAULT_GAMMA) -> BipartiteRedundancyGraph:
    """The redundancy graph of a prepared instance.

    Raises ValueError naming tau or gamma when it is a bool or not a real
    number (numpy floats are real), and when gamma * (1 - tau) +
    log(ceil(n/2)) reaches log(float64 max), about 709.78: then the score
    ceil(n/2) * exp(gamma * (1 - tau)) of a token at full degree and
    mean_sim 1 could overflow.
    """
    tau, gamma = _real("tau", tau), _real("gamma", gamma)
    if not (-1.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (-1, 1), got {tau}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    _integer("n", prep.n, 1)
    log_max = math.log(np.finfo(np.float64).max)
    if gamma * (1.0 - tau) + math.log((prep.n + 1) // 2) >= log_max:
        raise ValueError(f"gamma {gamma} can overflow the scores of {prep.n} tokens at tau "
                         f"{tau}: gamma * (1 - tau) + log(ceil(n/2)) must be < {log_max:.2f}")
    if prep.gram is not None:
        cross = prep.gram[0::2, 1::2]
    else:
        cross = prep.rows[0::2] @ prep.rows[1::2].T
        scale_outer(cross, prep.inv_norm[0::2], prep.inv_norm[1::2])
    return BipartiteRedundancyGraph(cross, tau, gamma)


def redundancy_scores(g: BipartiteRedundancyGraph) -> RedundancyScores:
    n = g.n
    score = np.zeros(n)
    degree = np.zeros(n, dtype=np.int64)
    mean_sim = np.zeros(n)

    sims = g.cross_sim
    above = sims >= g.tau
    # even-index tokens reduce the rows (axis 1), odd-index ones the columns
    for parity in (0, 1):
        axis = 1 - parity
        d = above.sum(axis=axis)
        # with no opposite side (n = 1) the mean is 0: a fallback score of 0
        mu = np.where(d > 0, np.add.reduce(sims, axis=axis, where=above) / np.maximum(d, 1),
                      sims.sum(axis=axis) / max(sims.shape[axis], 1))
        score[parity::2] = np.where(d > 0, d * np.exp(g.gamma * (mu - g.tau)), mu)
        degree[parity::2] = d
        mean_sim[parity::2] = mu

    return RedundancyScores(score, degree, mean_sim)


def gsp_select(prep: Prepared, tau: float = DEFAULT_TAU,
               gamma: float = DEFAULT_GAMMA, *, keep: int) -> list[int]:
    """The indices of the `keep` lowest-redundancy tokens of a prepared
    instance, ascending.

    Ties in score break toward the lower original index.  An instance of
    no token ("n must be >= 1"), then a keep that is not an integer in
    [1, n] (bools included), raises ValueError.
    """
    keep = _integer("keep", keep, 1, _integer("n", prep.n, 1))
    scores = redundancy_scores(build_graph(prep, tau, gamma)).score
    # stable mergesort on score preserves index order within ties
    ranked = np.argsort(scores, kind="stable")
    return np.sort(ranked[:keep]).tolist()
