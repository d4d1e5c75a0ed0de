"""Time the greedy walk of one checkout against LAPACK's dpstrf, by part.

    python3 scripts/bench_walk.py --src src --runs 5 > walk.json

On the four `anyres2880` instances of perfbench seed 0 (`tokensieve bench
--n 2880 --d 1024 --keep 320 --seed 2k` for k < 4; k = 0 is the desk-scale
instance of acceptance check C12) it records, per instance, the walk
length T that `fusion.script_select` reaches and the flush and catch-up
counts, then walks the instance to T `--runs` times, each time from a
fresh copy of its cosine matrix, and takes medians:

- walk_s: the plain walk's extend(T), from a GreedyState built, and its
  cosines scaled into the kernel L, before the clock starts;
- in a second, instrumented walk per run, the parts: gemm_s and
  subtract_s are the flushes' np.matmul and np.subtract calls,
  flush_order_s the first flush's layout of the positions by gain
  (`GreedyState._order_by_gain`), swaps_s the steps' time in
  `GreedyState._swap`, catch_up_s their time in `GreedyState._catch_up`
  (the lagging rows' GEMMs and subtracts), flush_other_s the rest of the
  flushes and steps_s the rest of the walk;
- dpstrf_s: scipy's LAPACK dpstrf on L + EPS*I, stopped after T pivots by
  its tolerance, timed without the +EPS*I pass (it runs in place on the
  matrix's Fortran-ordered view), and walk_over_dpstrf, the ratio of the
  medians.

Run as a script, it pins BLAS to one thread before numpy loads.  scipy
is needed for dpstrf only; the program under test is imported from --src
alone, and a `tokensieve` imported from anywhere else (a --src that holds
none falls through to PYTHONPATH) ends the run with exit 2 before any
instance is built.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
import types
from pathlib import Path


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args()
    if args.runs < 1:
        p.error(f"--runs must be at least 1, got {args.runs}")
    return p, args


class _Parts:
    """Times the flushes' GEMMs, subtracts and first-flush layout and the
    steps' swaps and catch-ups of one walk by wrapping them; the plain walk
    is timed separately."""

    def __init__(self, qcsp, np):
        self.acc = {}
        proxy = types.ModuleType("numpy_timed")
        proxy.__getattr__ = lambda name: getattr(np, name)
        proxy.matmul = self._timed(np.matmul, "gemm_s")
        proxy.subtract = self._timed(np.subtract, "subtract_s")
        gs = qcsp.GreedyState
        flush = gs._flush

        def timed_flush(state, *args):
            qcsp.np = proxy
            start = time.perf_counter()
            try:
                flush(state, *args)
            finally:
                self._add("flush_s", time.perf_counter() - start)
                qcsp.np = np

        self.saved = [(gs, name, getattr(gs, name))
                      for name in ("_flush", "_order_by_gain", "_swap", "_catch_up")]
        gs._flush = timed_flush
        gs._order_by_gain = self._timed(gs._order_by_gain, "flush_order_s")
        gs._swap = self._timed(gs._swap, "swaps_s")
        gs._catch_up = self._timed(gs._catch_up, "catch_up_s")

    def _add(self, key, seconds):
        self.acc[key] = self.acc.get(key, 0.0) + seconds

    def _timed(self, fn, key):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(key, time.perf_counter() - start)
        return wrapper

    def restore(self):
        for owner, name, fn in self.saved:
            setattr(owner, name, fn)


def main() -> int:
    p, args = parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    import scipy
    from scipy.linalg import lapack

    import tokensieve
    from tokensieve import fusion, qcsp, similarity
    from tokensieve.rng import gaussian_matrix
    found = Path(tokensieve.__file__).resolve().parent
    if found != Path(args.src, "tokensieve").resolve():
        p.error(f"--src {args.src} holds no tokensieve: it was imported from {found}")

    def walk(prep, t):
        # a walk takes its instance's cosine matrix over, so each walk is
        # given a copy and prep keeps its own
        state = qcsp.GreedyState(dataclasses.replace(prep, gram=prep.gram.copy()),
                                 prep.relevance)
        start = time.perf_counter()
        state.extend(t)
        return time.perf_counter() - start, state

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"numpy": np.__version__, "scipy": scipy.__version__,
           "blas": f"{blas['name']} {blas['version']}", "blas_threads": 1,
           "runs": args.runs, "instances": {}}
    for k in range(4):
        h_v, h_q = gaussian_matrix(2 * k, 2880, 1024), gaussian_matrix(2 * k + 1, 8, 1024)
        lengths = []
        extend = qcsp.GreedyState.extend

        def recording_extend(state, *args, **kwargs):
            extend(state, *args, **kwargs)
            lengths.append(state.t)
        qcsp.GreedyState.extend = recording_extend
        fusion.script_select(h_v, h_q, 320)
        qcsp.GreedyState.extend = extend
        t = max(lengths)
        prep = similarity.prepare(h_v, h_q)
        l = qcsp.kernel_matrix(prep, prep.relevance)
        # the pivot after step t - 1 stops dpstrf: its tolerance lies
        # between the t-th and the (t+1)-th pivot of L + EPS*I
        _, ahead = walk(prep, t + 1)
        tol = qcsp.EPS + 0.5 * (ahead.gains[t - 1] + ahead.gains[t])
        m = l + qcsp.EPS * np.eye(l.shape[0])
        walk_s, dpstrf_s, parts = [], [], []
        for _ in range(args.runs):
            seconds, state = walk(prep, t)
            walk_s.append(seconds)
            mf = m.copy().T  # M is symmetric: its transpose is the Fortran view
            start = time.perf_counter()
            _, piv, rank, info = lapack.dpstrf(mf, lower=1, tol=tol, overwrite_a=1)
            dpstrf_s.append(time.perf_counter() - start)
            if rank != t or not np.array_equal(piv[:t] - 1, state.order[:t]):
                raise SystemExit(f"instance {k}: dpstrf stopped at {rank}, not {t}, "
                                 "or picked other tokens")
            timer = _Parts(qcsp, np)
            try:
                seconds, _ = walk(prep, t)
            finally:
                timer.restore()
            acc = {key: timer.acc.get(key, 0.0) for key in
                   ("flush_s", "gemm_s", "subtract_s", "flush_order_s", "swaps_s",
                    "catch_up_s")}
            acc["flush_other_s"] = (acc["flush_s"] - acc["gemm_s"] - acc["subtract_s"]
                                    - acc["flush_order_s"])
            acc["steps_s"] = seconds - acc["flush_s"] - acc["swaps_s"] - acc["catch_up_s"]
            parts.append(acc)
        rec = {"T": t, "flushes": state.flushes, "catch_ups": state.catch_ups,
               "walk_s": statistics.median(walk_s),
               "dpstrf_s": statistics.median(dpstrf_s)}
        rec["walk_over_dpstrf"] = rec["walk_s"] / rec["dpstrf_s"]
        for key in ("steps_s", "swaps_s", "catch_up_s", "flush_order_s", "gemm_s",
                    "subtract_s", "flush_other_s"):
            rec[key] = statistics.median(p[key] for p in parts)
        out["instances"][f"anyres2880 seed 0 #{k} (bench --seed {2 * k})"
                         + (", C12" if k == 0 else "")] = rec
        print(k, json.dumps(rec), file=sys.stderr)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
