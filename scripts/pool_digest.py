"""Print the selection digest of the 120-input benchmark pool.

    python3 scripts/pool_digest.py [--src src]

Runs `fusion.script_select` on every frame of the inputs
`gen.WORKLOADS[w](4 * s + i)` for s < 10 and i < 4 (the pools of the
benchmark's seeds 0-9), from `perfbench/gen.py`, for the workloads
image576, video32x196 and anyres2880 in that order, and prints one sha256
over `repr((kept, stage_tags))` of each frame's selection.  A change that
keeps every selection prints the same digest; one that moves a single
kept token or tag does not.  Run as a script, it pins BLAS to one thread
before numpy loads and imports the program from --src (default: this
checkout's src/), so it can score another checkout.  Imported, it sets
no environment variable: `pool_digest(seeds)` digests the pools of the
given benchmark seeds with whatever `tokensieve` and BLAS setting are
loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("image576", "video32x196", "anyres2880")
SEEDS, POOL = 10, 4


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    return gen


def pool_digest(seeds) -> str:
    """The sha256 hex digest of the selections of the benchmark seeds'
    pools, workload by workload, seed by seed."""
    from tokensieve import fusion

    gen = _load_gen()
    digest = hashlib.sha256()
    for workload in WORKLOADS:
        for s in seeds:
            for i in range(POOL):
                inst = gen.WORKLOADS[workload](POOL * s + i)
                for frame in inst.frames:
                    sel = fusion.script_select(frame, inst.query, inst.m)
                    digest.update(repr((sel.kept, sel.stage_tags)).encode())
    return digest.hexdigest()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="the checkout's src directory")
    args = p.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    print(pool_digest(range(SEEDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
