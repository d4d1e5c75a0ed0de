"""Deterministic synthetic embedding generators for tests and benchmarks.

Every pattern is a pure function of its parameters and seed (splitmix64
streams), so generated fixtures are reproducible byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from .rng import derived_seeds, gaussian_matrix
from .similarity import _integer, _real


def random_tokens(n: int, d: int, seed: int) -> np.ndarray:
    """iid standard normal rows."""
    return gaussian_matrix(seed, _integer("n", n, 1), _integer("d", d, 1))


def duplicate_blocks(n: int, d: int, block: int, seed: int) -> np.ndarray:
    """n rows made of n/block distinct rows, each repeated block times."""
    n, d, block = _integer("n", n, 1), _integer("d", d, 1), _integer("block", block, 1)
    if n % block != 0:
        raise ValueError(f"block size {block} must divide n={n}")
    distinct = gaussian_matrix(seed, n // block, d)
    return np.repeat(distinct, block, axis=0)


def two_region_grid(grid_h: int, grid_w: int, d: int, seed: int) -> np.ndarray:
    """Grid whose left half-columns hold one constant row and whose right
    half-columns hold iid noise; the flat/textured contrast drives the
    entropy and neighbor-similarity diagnostics."""
    flat = constant_region_mask(grid_h, grid_w)
    d = _integer("d", d, 1)
    row_seed, noise_seed = derived_seeds(seed, 2)
    constant_row = gaussian_matrix(row_seed, 1, d)
    noise = gaussian_matrix(noise_seed, flat.size, d)
    out = np.empty((flat.size, d))
    out[flat] = constant_row
    out[~flat] = noise[~flat]
    return out


def constant_region_mask(grid_h: int, grid_w: int) -> np.ndarray:
    """Boolean mask of the constant (left) block of two_region_grid; the
    grid needs height >= 1 and width >= 2."""
    grid_h, grid_w = _integer("grid_h", grid_h, 1), _integer("grid_w", grid_w, 2)
    return (np.arange(grid_h * grid_w) % grid_w) < (grid_w // 2)


def equicorrelated_tokens(n: int, d: int, rho: float) -> np.ndarray:
    """n unit rows in d dims whose Gram matrix is the equicorrelation
    matrix: pairwise cosine exactly rho.  Needs d >= n.

    Uses the closed-form square root a*I + b*J of (1-rho)*I + rho*J
    with a = sqrt(1-rho), b = (sqrt(1+(n-1)rho) - a)/n, zero-padded to
    d columns.
    """
    n = _integer("n", n, 1)
    d, rho = _integer("d", d, n), _real("rho", rho)
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
    return out
