"""The fixed reference computation that `op_ref_p50` divides by.

The machine this benchmark was written on speeds up and slows down by
tens of percent over minutes, for every process alike.  Timing a fixed
numpy computation right after each op and dividing cancels that drift.
Its three parts mirror what a selection spends time on: a BLAS gemm (the
Gram and kernel products), a loop of small-array numpy steps (the greedy
walk on small frames) and a streamed vector-matrix product over a block
larger than the last-level cache (the greedy walk on large instances).
It uses no tokensieve code, and its data never depend on the seed.
"""

from __future__ import annotations

import time

import numpy as np


class ReferenceComputation:
    GEMM_SHAPE = (384, 2048)
    SMALL_STEPS = 300
    SMALL_WIDTH = 196
    STREAM_SHAPE = (1024, 4096)  # 32 MiB of float64
    STREAM_PASSES = 4

    def __init__(self):
        rng = np.random.default_rng(2512)
        self.gemm_in = rng.standard_normal(self.GEMM_SHAPE)
        self.small = rng.standard_normal((self.SMALL_STEPS, self.SMALL_WIDTH))
        self.stream = rng.standard_normal(self.STREAM_SHAPE)
        self.vector = rng.standard_normal(self.STREAM_SHAPE[0])
        self.sink = 0.0

    def __call__(self) -> float:
        """Run once; return its wall time in seconds."""
        start = time.perf_counter()
        gram = self.gemm_in @ self.gemm_in.T
        residual = np.abs(self.small[0]) + 1.0
        for row in self.small:
            j = int(np.argmax(residual))
            step = row / np.sqrt(abs(residual[j]) + 1.0)
            residual -= step * step
            residual[j] = 1.0
        streamed = 0.0
        for _ in range(self.STREAM_PASSES):
            streamed += float((self.vector @ self.stream)[0])
        elapsed = time.perf_counter() - start
        self.sink += gram[0, 0] + residual[0] + streamed
        return elapsed
