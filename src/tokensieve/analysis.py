"""Embedding-level diagnostics on token grids, and a FLOPs estimator.

Tokens are assumed to lie on a height x width grid in row-major order,
token i at (i // width, i % width).  Local entropy bins the projections
of a token's 3x3 Moore neighborhood onto its exact first principal
direction, one SVD per neighborhood; a neighborhood flat to rounding
scores 0, textured regions approach log(number of bins).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .similarity import l2_normalize_rows

ENTROPY_BINS = 20
ENTROPY_EPS = 1e-8


@dataclass(frozen=True)
class GridShape:
    height: int
    width: int

    def check(self, n: int) -> None:
        if self.height < 1 or self.width < 1 or self.height * self.width != n:
            raise ValueError(f"grid {self.height}x{self.width} does not tile {n} tokens")


@dataclass(frozen=True)
class ModelProfile:
    layers: int
    hidden_dim: int
    ffn_dim: int

    def __post_init__(self):
        if min(self.layers, self.hidden_dim, self.ffn_dim) < 1:
            raise ValueError("profile dimensions must be positive")


def _moore_neighborhood(row: int, col: int, grid: GridShape) -> list[int]:
    cells = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            r, c = row + dr, col + dc
            if 0 <= r < grid.height and 0 <= c < grid.width:
                cells.append(r * grid.width + c)
    return cells


def local_entropy_map(h_v: np.ndarray, grid: GridShape) -> np.ndarray:
    """Per-token entropy of binned neighborhood projections (Moore, hop 1).

    The projections onto the first principal direction of a k x d
    neighborhood are u[:, 0] * s[0] of the SVD of its centered rows.  A
    neighborhood is flat when s[0] <= max(k, d) * eps * ||hood|| (numpy's
    matrix_rank tolerance on the uncentered rows): what is left after
    centering is rounding, and the entropy is 0.
    """
    h_v = np.asarray(h_v, dtype=np.float64)
    grid.check(h_v.shape[0])
    eps = np.finfo(np.float64).eps
    out = np.zeros(h_v.shape[0])
    for row in range(grid.height):
        for col in range(grid.width):
            tok = row * grid.width + col
            hood = h_v[_moore_neighborhood(row, col, grid)]
            u, s, _ = np.linalg.svd(hood - hood.mean(axis=0), full_matrices=False)
            if s[0] <= max(hood.shape) * eps * np.linalg.norm(hood):
                continue
            proj = u[:, 0] * s[0]
            # min-max binning is not symmetric under negation, so the sign is
            # fixed: the largest-magnitude projection is positive
            proj *= np.sign(proj[np.argmax(np.abs(proj))])
            lo, hi = proj.min(), proj.max()
            bins = np.minimum(((proj - lo) / (hi - lo) * ENTROPY_BINS).astype(np.int64),
                              ENTROPY_BINS - 1)
            counts = np.bincount(bins)
            # the min and the max fill two bins, so every p < 1 and the sum is > 0
            p = counts[counts > 0] / len(proj) + ENTROPY_EPS
            out[tok] = -float(np.sum(p * np.log(p)))
    return out


def mean_neighbor_similarity(h_v: np.ndarray, grid: GridShape) -> np.ndarray:
    """Per-token mean cosine to its Moore neighbors (center excluded).

    A token with no neighbors (the one token of a 1x1 grid) scores NaN, as
    the distance profile does for a distance with no pairs.
    """
    h_v = np.asarray(h_v, dtype=np.float64)
    grid.check(h_v.shape[0])
    unit = l2_normalize_rows(h_v)
    out = np.full(h_v.shape[0], np.nan)
    for row in range(grid.height):
        for col in range(grid.width):
            tok = row * grid.width + col
            others = [i for i in _moore_neighborhood(row, col, grid) if i != tok]
            if others:
                out[tok] = float((unit[others] @ unit[tok]).mean())
    return out


def similarity_by_distance_profile(h_v: np.ndarray, grid: GridShape,
                                   max_dist: int) -> np.ndarray:
    """Mean cosine over unordered token pairs at Manhattan distance 1..max_dist."""
    h_v = np.asarray(h_v, dtype=np.float64)
    n = h_v.shape[0]
    grid.check(n)
    if max_dist < 1:
        raise ValueError("max_dist must be >= 1")
    unit = l2_normalize_rows(h_v)
    sims = unit @ unit.T
    rows = np.arange(n) // grid.width
    cols = np.arange(n) % grid.width
    dist = np.abs(rows[:, None] - rows[None, :]) + np.abs(cols[:, None] - cols[None, :])
    iu = np.triu_indices(n, 1)
    pair_sims = sims[iu]
    pair_dist = dist[iu]
    out = np.full(max_dist, np.nan)
    for delta in range(1, max_dist + 1):
        mask = pair_dist == delta
        if mask.any():
            out[delta - 1] = pair_sims[mask].mean()
    return out


def flops_estimate(n_tokens: int, profile: ModelProfile) -> float:
    """Prefill FLOPs: per layer 4nd^2 (projections) + 2n^2 d (attention)
    + 2ndm (FFN).  Only ratios between token counts are meaningful."""
    if n_tokens < 0:
        raise ValueError("token count must be nonnegative")
    n = float(n_tokens)
    d = float(profile.hidden_dim)
    m = float(profile.ffn_dim)
    return profile.layers * (4.0 * n * d * d + 2.0 * n * n * d + 2.0 * n * d * m)
