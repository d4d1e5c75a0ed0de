"""Embedding-level diagnostics on token grids, and a FLOPs estimator.

Tokens are assumed to lie on a height x width grid in row-major order,
token i at (i // width, i % width).  Local entropy bins the projections
of a token's 3x3 Moore neighborhood onto its exact first principal
direction, one SVD per neighborhood; a neighborhood flat to rounding
scores 0, textured regions approach log(number of bins).

The token rows pass through similarity.prepare before anything reads
them, so a non-real dtype or a non-finite token (named by its row)
raises similarity.InputError, and the distance profile, which builds
the full unit-row Gram, is bounded by MAX_GRAM_BYTES.  Every count (grid
side, profile dimension, token count, max_dist) goes through
similarity._integer: a bool, a float, a string or a value below its
bound (0 for the token count, 1 for the others) raises ValueError, and
so does a max_dist past the grid's largest Manhattan distance
(GridShape.reach), checked before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .similarity import _integer, prepare

ENTROPY_BINS = 20
ENTROPY_EPS = 1e-8


@dataclass(frozen=True)
class GridShape:
    height: int
    width: int

    def __post_init__(self):
        _integer("height", self.height, 1)
        _integer("width", self.width, 1)

    def check(self, n: int) -> None:
        if self.height * self.width != n:
            raise ValueError(f"grid {self.height}x{self.width} does not tile {n} tokens")

    def reach(self, max_dist: int | None = None) -> int:
        """The distance profile's reach: max_dist checked against the grid's
        largest Manhattan distance, height + width - 2 (1 on a 1x1 grid),
        or that distance when max_dist is None."""
        top = max(1, self.height + self.width - 2)
        return top if max_dist is None else _integer("max_dist", max_dist, 1, top)


@dataclass(frozen=True)
class ModelProfile:
    layers: int
    hidden_dim: int
    ffn_dim: int

    def __post_init__(self):
        for name in ("layers", "hidden_dim", "ffn_dim"):
            _integer(name, getattr(self, name), 1)


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
    centering is rounding, and the entropy is 0.  Each neighborhood is first
    scaled by the power of two that puts its largest |entry| in [0.5, 1), so
    the map does not change when the tokens are scaled by a power of two.
    """
    prep = prepare(h_v, gram=False)  # the input contract; the SVDs read tokens
    grid.check(prep.n)
    h_v = prep.tokens
    eps = np.finfo(np.float64).eps
    out = np.zeros(h_v.shape[0])
    for row in range(grid.height):
        for col in range(grid.width):
            tok = row * grid.width + col
            hood = h_v[_moore_neighborhood(row, col, grid)]
            top = np.abs(hood).max()
            if top:  # exact, and no norm below overflows or underflows
                hood = np.ldexp(hood, -np.frexp(top)[1])
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
    prep = prepare(h_v, gram=False)
    grid.check(prep.n)
    unit = prep.unit
    out = np.full(prep.n, np.nan)
    for row in range(grid.height):
        for col in range(grid.width):
            tok = row * grid.width + col
            others = [i for i in _moore_neighborhood(row, col, grid) if i != tok]
            if others:
                out[tok] = float((unit[others] @ unit[tok]).mean())
    return out


def similarity_by_distance_profile(h_v: np.ndarray, grid: GridShape,
                                   max_dist: int | None = None) -> np.ndarray:
    """Mean cosine over unordered token pairs at Manhattan distance 1..max_dist
    (grid.reach: at most the grid's largest, which is the default), from one
    pass over the Gram and nothing else n^2-sized."""
    max_dist = grid.reach(max_dist)
    prep = prepare(h_v)
    grid.check(prep.n)
    h, w = grid.height, grid.width
    if h + w == 2:
        return np.full(1, np.nan)  # a 1x1 grid has no pair at any distance
    gram = prep.gram.reshape(h, w, h, w)
    col_dist = np.abs(np.subtract.outer(np.arange(w), np.arange(w)))
    within_row = np.triu(np.ones((w, w), dtype=bool), 1)
    sums, counts = np.zeros((2, h + w - 1))  # by distance 0..h+w-2
    for dr in range(h):
        # block[a, b] sums, over rows r, the cosine of (r, a) and (r + dr, b),
        # a pair at distance dr + |a - b|; within a row only a < b counts
        block = np.einsum("iaib->ab", gram[:h - dr, :, dr:, :])
        keep = within_row if dr == 0 else slice(None)
        dist = (dr + col_dist[keep]).ravel()
        sums += np.bincount(dist, block[keep].ravel(), h + w - 1)
        counts += (h - dr) * np.bincount(dist, minlength=h + w - 1)
    return sums[1:max_dist + 1] / counts[1:max_dist + 1]


def flops_estimate(n_tokens: int, profile: ModelProfile) -> float:
    """Prefill FLOPs: per layer 4nd^2 (projections) + 2n^2 d (attention)
    + 2ndm (FFN).  Only ratios between token counts are meaningful."""
    _integer("token count", n_tokens, 0)
    n = float(n_tokens)
    d = float(profile.hidden_dim)
    m = float(profile.ffn_dim)
    return profile.layers * (4.0 * n * d * d + 2.0 * n * n * d + 2.0 * n * d * m)
