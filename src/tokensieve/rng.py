"""Seeded random number generation with a portable state advance.

All randomness in the package (synthetic data, benchmarks, random
baselines) flows through splitmix64 so that selections are reproducible
across implementations, not just across runs of this one.  The i-th
64-bit output for seed s is mix64(s + i * GAMMA) with the constants
below; see the README for the exact recurrence.  A seed lies in
[0, 2^64 - 1] and counts are non-negative integers (similarity._integer);
next_below needs n >= 1, and sample_without_replacement m <= n.  A
caller that draws more than one stream takes its seeds from
derived_seeds, which refuses a seed whose last stream would pass 2^64 - 1.
"""

from __future__ import annotations

import numpy as np

from .similarity import _integer

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


class SplitMix64:
    """Scalar splitmix64 stream over Python integers; .seed is its seed."""

    def __init__(self, seed: int):
        self.seed = self.state = _integer("seed", seed, 0, _MASK)

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        # 53-bit mantissa in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        # floor(n * u / 2^64); bias < n / 2^64 is irrelevant at these sizes
        return (_integer("n", n, 1) * self.next_u64()) >> 64

    def sample_without_replacement(self, n: int, m: int) -> list[int]:
        """m distinct indices from [0, n), in draw order (partial Fisher-Yates)."""
        n = _integer("n", n, 0)
        m = _integer("m", m, 0, n)
        pool = list(range(n))
        out = []
        for t in range(m):
            j = t + self.next_below(n - t)
            pool[t], pool[j] = pool[j], pool[t]
            out.append(pool[t])
        return out


def derived_seeds(seed: int, count: int) -> range:
    """The seeds seed, seed + 1, ..., seed + count - 1 of a caller's count
    streams; ValueError naming the seed when the last would pass 2^64 - 1."""
    count = _integer("count", count, 1)
    seed = _integer("seed", seed, 0, _MASK - (count - 1))
    return range(seed, seed + count)


def _mix_stream(seed: int, offset: int, count: int) -> np.ndarray:
    """Vectorized splitmix64 outputs i = offset+1 .. offset+count for one seed.

    Identical to `count` calls of SplitMix64.next_u64 after `offset` calls,
    because the state after i steps is seed + i*GAMMA mod 2^64.
    """
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = (np.uint64(_integer("seed", seed, 0, _MASK)) + idx * np.uint64(_GAMMA)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniform_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """count floats in (0, 1], from the splitmix64 stream."""
    bits = _mix_stream(seed, _integer("offset", offset, 0), _integer("count", count, 0))
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def normal_stream(seed: int, count: int) -> np.ndarray:
    """count standard normals via Box-Muller over consecutive uniform pairs."""
    count = _integer("count", count, 0)
    pairs = (count + 1) // 2
    u1 = uniform_stream(seed, pairs, offset=0)
    u2 = uniform_stream(seed, pairs, offset=pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def gaussian_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    rows, cols = _integer("rows", rows, 0), _integer("cols", cols, 0)
    return normal_stream(seed, rows * cols).reshape(rows, cols)
