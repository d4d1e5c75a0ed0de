"""Print the selection digest of the 120-input benchmark pool.

    python3 scripts/pool_digest.py [--src src]

Runs `fusion.script_select` on every frame of the inputs
`gen.WORKLOADS[w](4 * s + i)` for s < 10 and i < 4 (the pools of the
benchmark's seeds 0-9), from `perfbench/gen.py`, for the workloads
image576, video32x196 and anyres2880 in that order, and prints one sha256
over `repr((kept, stage_tags))` of each frame's selection.  A change that
keeps every selection prints the same digest; one that moves a single
kept token or tag does not.  BLAS is pinned to one thread before numpy
loads.  The program is imported from --src (default: this checkout's
src/), so the script can score another checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("image576", "video32x196", "anyres2880")
SEEDS, POOL = 10, 4


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="the checkout's src directory")
    args = p.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from tokensieve import fusion

    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)

    digest = hashlib.sha256()
    for workload in WORKLOADS:
        for s in range(SEEDS):
            for i in range(POOL):
                inst = gen.WORKLOADS[workload](POOL * s + i)
                for frame in inst.frames:
                    sel = fusion.script_select(frame, inst.query, inst.m)
                    digest.update(repr((sel.kept, sel.stage_tags)).encode())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
