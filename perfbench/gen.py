"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed, written here with numpy
alone so the program under test receives only arrays.  `anyres_instance`
transcribes the splitmix64 / Box-Muller stream that `tokensieve bench`
uses, so its seed 0 gives exactly the instance of
`tokensieve bench --n 2880 --d 1024 --keep 320 --seed 0`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


def _splitmix_uniform(seed: int, count: int, offset: int) -> np.ndarray:
    """Outputs offset+1 .. offset+count of splitmix64(seed), mapped to (0, 1]."""
    z = np.uint64(seed & _MASK) + np.arange(offset + 1, offset + count + 1,
                                            dtype=np.uint64) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def splitmix_gaussian(seed: int, rows: int, cols: int) -> np.ndarray:
    """rows x cols standard normals: Box-Muller over the first and second
    halves of one splitmix64 stream, cosine and sine interleaved."""
    count = rows * cols
    pairs = (count + 1) // 2
    radius = np.sqrt(-2.0 * np.log(_splitmix_uniform(seed, pairs, 0)))
    theta = 2.0 * np.pi * _splitmix_uniform(seed, pairs, pairs)
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:count].reshape(rows, cols)


@dataclass(frozen=True)
class Instance:
    """One op's input: `frames` token matrices selected one by one against
    the same query, each with budget m."""

    frames: tuple
    query: np.ndarray
    m: int

    @property
    def tokens(self) -> int:
        return sum(f.shape[0] for f in self.frames)


def _grid_scene(rng: np.random.Generator, h: int, w: int, d: int, regions: int,
                region_noise: float, smooth_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Tokens of an h x w grid and the centre vectors of its regions.

    Each token is a smooth spatial field (a few low-frequency waves, each
    carrying a random direction) plus iid noise; tokens inside one of
    `regions` rectangles are replaced by that region's centre plus small
    noise, so members of a region are near-duplicates (cosine well above
    the redundancy threshold 0.3) but never exact ties.
    """
    ys, xs = np.mgrid[0:h, 0:w]
    pos = np.stack([ys.ravel() / h, xs.ravel() / w], axis=1)
    waves = 4
    freq = rng.uniform(0.5, 2.0, size=(waves, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=waves)
    basis = rng.standard_normal((waves, d))
    field = np.cos(2.0 * np.pi * pos @ freq.T + phase) @ basis
    tokens = smooth_scale * field + rng.standard_normal((h * w, d))
    centres = 3.0 * rng.standard_normal((regions, d))
    side = h // 5
    for r in range(regions):
        y0, x0 = int(rng.integers(0, h - side + 1)), int(rng.integers(0, w - side + 1))
        member = ((ys >= y0) & (ys < y0 + side) & (xs >= x0) & (xs < x0 + side)).ravel()
        tokens[member] = centres[r] + region_noise * rng.standard_normal((member.sum(), d))
    return tokens, centres


def _query_at(rng: np.random.Generator, centre: np.ndarray, rows: int) -> np.ndarray:
    return centre + rng.standard_normal((rows, centre.shape[0]))


def image576_instance(seed: int) -> Instance:
    """One LLaVA-1.5-size image: 24 x 24 grid, d=4096, m=64, 8 query rows
    aimed at the first region."""
    rng = np.random.default_rng([576, seed])
    tokens, centres = _grid_scene(rng, 24, 24, 4096, regions=6,
                                  region_noise=0.6, smooth_scale=0.5)
    return Instance((tokens,), _query_at(rng, centres[0], 8), 64)


def anyres2880_instance(seed: int) -> Instance:
    """Gaussian tokens n=2880, d=1024 and an 8-row Gaussian query, m=320:
    the instance of `tokensieve bench --n 2880 --d 1024 --keep 320
    --seed <2 * seed>`, whose query stream is seed 2 * seed + 1, so no two
    instances share a stream."""
    return Instance((splitmix_gaussian(2 * seed, 2880, 1024),),
                    splitmix_gaussian(2 * seed + 1, 8, 1024), 320)


def video32x196_instance(seed: int) -> Instance:
    """A 32-frame clip of 14 x 14 tokens, d=1024, m=22 per frame; each frame
    is the previous one plus small noise, so consecutive frames are
    near-identical."""
    rng = np.random.default_rng([196, seed])
    frame, centres = _grid_scene(rng, 14, 14, 1024, regions=4,
                                 region_noise=0.6, smooth_scale=0.5)
    frames = []
    for _ in range(32):
        frames.append(frame)
        frame = frame + 0.15 * rng.standard_normal(frame.shape)
    return Instance(tuple(frames), _query_at(rng, centres[0], 8), 22)


WORKLOADS = {
    "image576": image576_instance,
    "anyres2880": anyres2880_instance,
    "video32x196": video32x196_instance,
}
