"""Deterministic synthetic embedding generators for tests and benchmarks.

Every pattern is a pure function of its parameters and seed (splitmix64
streams), so generated fixtures are reproducible byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from .rng import gaussian_matrix
from .oracle import equicorrelation_matrix
from .similarity import _integer


def random_tokens(n: int, d: int, seed: int) -> np.ndarray:
    """iid standard normal rows."""
    n, d = _integer("n", n), _integer("d", d)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return gaussian_matrix(seed, n, d)


def duplicate_blocks(n: int, d: int, block: int, seed: int) -> np.ndarray:
    """n rows made of n/block distinct rows, each repeated block times."""
    n, d, block = _integer("n", n), _integer("d", d), _integer("block", block)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if block < 1 or n % block != 0:
        raise ValueError(f"block size {block} must divide n={n}")
    distinct = gaussian_matrix(seed, n // block, d)
    return np.repeat(distinct, block, axis=0)


def two_region_grid(grid_h: int, grid_w: int, d: int, seed: int) -> np.ndarray:
    """Grid whose left half-columns hold one constant row and whose right
    half-columns hold iid noise; the flat/textured contrast drives the
    entropy and neighbor-similarity diagnostics."""
    grid_h, grid_w, d = _integer("grid_h", grid_h), _integer("grid_w", grid_w), _integer("d", d)
    if grid_h < 1 or grid_w < 2 or d < 1:
        raise ValueError("two-region grid needs height >= 1, width >= 2, d >= 1")
    n = grid_h * grid_w
    split = grid_w // 2
    constant_row = gaussian_matrix(seed, 1, d)
    noise = gaussian_matrix(seed + 1, n, d)
    out = np.empty((n, d))
    cols = np.arange(n) % grid_w
    flat = cols < split
    out[flat] = constant_row
    out[~flat] = noise[~flat]
    return out


def constant_region_mask(grid_h: int, grid_w: int) -> np.ndarray:
    """Boolean mask of the constant (left) block of two_region_grid."""
    return (np.arange(grid_h * grid_w) % grid_w) < (grid_w // 2)


def equicorrelated_tokens(n: int, d: int, rho: float) -> np.ndarray:
    """n unit rows in d dims whose Gram matrix is the equicorrelation
    matrix: pairwise cosine exactly rho.  Needs d >= n.

    Uses the closed-form square root a*I + b*J of (1-rho)*I + rho*J
    with a = sqrt(1-rho), b = (sqrt(1+(n-1)rho) - a)/n, zero-padded to
    d columns.
    """
    n, d = _integer("n", n), _integer("d", d)
    if n < 1 or d < n:
        raise ValueError(f"equicorrelated pattern needs d >= n, got n={n}, d={d}")
    if n >= 2:
        lo = -1.0 / (n - 1)
        if not lo <= rho <= 1.0:
            raise ValueError(f"rho must lie in [{lo}, 1] for n={n}")
    else:
        rho = 0.0
    a = np.sqrt(1.0 - rho)
    b = (np.sqrt(1.0 + (n - 1) * rho) - a) / n
    factor = a * np.eye(n) + b * np.ones((n, n))
    out = np.zeros((n, d))
    out[:, :n] = factor
    # construction check: the factor squared must reproduce the target Gram
    gram = factor @ factor
    target = equicorrelation_matrix(n, rho)
    if np.abs(gram - target).max() > 1e-6:
        raise AssertionError("equicorrelated factorization drifted beyond 1e-6")
    return out
