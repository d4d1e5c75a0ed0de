"""Command-line front end.

Subcommands: prune (run a selection mode over a token file), score
(per-token redundancy/relevance CSV), verify (property suite), bench
(seeded timing), synth (synthetic embedding fixtures), analyze (grid
diagnostics).

Exit codes: 0 success, 1 runtime, data or property failure (I/O errors,
input that breaks the data contract such as non-finite values, a
query/token width mismatch, or more tokens than a similarity.MAX_GRAM_BYTES
kernel holds where the greedy walk runs or analyze writes its profile;
failed verification), 2 usage errors (bad flags or parameter values).

The commands keep no copy of a library rule: each value is checked by
the call that reads it, a seed by rng (a command drawing several streams
takes them from rng.derived_seeds) and --max-dist by
analysis.GridShape.reach, before any token file is read.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import analysis, fusion, gsp, synth, verify
from .gsp import DEFAULT_GAMMA, DEFAULT_TAU
from .rng import derived_seeds
from .similarity import InputError, _integer, prepare
from .tensor_io import (MatrixFormatError, SelectionFormatError, read_matrix,
                        write_matrix, write_selection)


def _budget(args, n: int) -> int:
    """--keep, or (1 - --ratio) * n rounded half up; select checks its range."""
    if args.keep is not None:
        return args.keep
    if not 0.0 <= args.ratio < 1.0:
        raise ValueError(f"--ratio must lie in [0, 1), got {args.ratio}")
    return math.floor((1.0 - args.ratio) * n + 0.5)


def cmd_prune(args) -> int:
    h_v = read_matrix(args.tokens)
    h_q = read_matrix(args.query) if args.query else None
    n = h_v.shape[0]
    m = _budget(args, n)
    start = time.perf_counter()
    selection = fusion.select(args.mode, h_v, h_q, m, args.tau, args.gamma,
                              args.gsp_keep, args.seed)
    elapsed = time.perf_counter() - start
    write_selection(selection, args.out)
    print(f"n={n} m={m} mode={args.mode} elapsed={elapsed:.4f}s out={args.out}")
    return 0


def cmd_score(args) -> int:
    h_v = read_matrix(args.tokens)
    n = h_v.shape[0]
    prep = prepare(h_v, read_matrix(args.query) if args.query else None, gram=False)
    scores = gsp.redundancy_scores(gsp.build_graph(prep, args.tau, args.gamma))
    if args.query:
        raw_col = ["%.9g" % v for v in prep.relevance_raw]
        norm_col = ["%.9g" % v for v in prep.relevance]
    else:
        raw_col = [""] * n
        norm_col = [""] * n
    fallback = scores.used_fallback
    lines = ["index,redundancy_score,degree,mean_sim,used_fallback,relevance_raw,relevance_norm"]
    for i in range(n):
        lines.append(",".join([
            str(i), "%.9g" % scores.score[i], str(int(scores.degree[i])),
            "%.9g" % scores.mean_sim[i], str(bool(fallback[i])).lower(),
            raw_col[i], norm_col[i],
        ]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(seed=args.seed, instances=args.instances)
    print(verify.format_report(results))
    return 0 if verify.all_passed(results) else 1


def cmd_bench(args) -> int:
    # random_tokens checks n and d and select checks --keep as its budget;
    # the header prints with the result, so a refused size prints nothing
    repeats = _integer("repeats", args.repeats, 1)
    token_seed, query_seed = derived_seeds(args.seed, 2)
    h_v = synth.random_tokens(args.n, args.d, token_seed)
    h_q = synth.random_tokens(8, args.d, query_seed)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fusion.select(args.mode, h_v, h_q, args.keep, args.tau, args.gamma,
                      args.gsp_keep, args.seed)
        times.append(time.perf_counter() - start)
    print(f"bench mode={args.mode} n={args.n} d={args.d} keep={args.keep} "
          f"repeats={repeats}")
    print(f"median={np.median(times):.4f}s min={min(times):.4f}s")
    return 0


# each synth pattern's generator and the flags it reads, in argument order
SYNTH_PATTERNS = {
    "random": (synth.random_tokens, ("n", "d", "seed")),
    "duplicate-blocks": (synth.duplicate_blocks, ("n", "d", "block", "seed")),
    "two-region-grid": (synth.two_region_grid, ("grid_h", "grid_w", "d", "seed")),
    "equicorrelated": (synth.equicorrelated_tokens, ("n", "d", "rho")),
}


def cmd_synth(args) -> int:
    make, flags = SYNTH_PATTERNS[args.pattern]
    missing = ["--" + f.replace("_", "-") for f in flags if getattr(args, f) is None]
    if missing:
        raise ValueError(f"{args.pattern} needs {' and '.join(missing)}")
    m = make(*(getattr(args, f) for f in flags))
    write_matrix(m, args.out)
    print(f"pattern={args.pattern} rows={m.shape[0]} cols={m.shape[1]} out={args.out}")
    return 0


def cmd_analyze(args) -> int:
    grid = analysis.GridShape(args.grid_h, args.grid_w)
    max_dist = grid.reach(args.max_dist)  # checked before the tokens are read
    h_v = read_matrix(args.tokens)
    to_stdout = not args.entropy_out and not args.profile_out
    # only the named tables are made, all before a file is opened
    tables = []
    if args.entropy_out or to_stdout:
        entropy = analysis.local_entropy_map(h_v, grid)
        tables.append((args.entropy_out, "index,entropy\n" + "".join(
            f"{i},{v:.9g}\n" for i, v in enumerate(entropy))))
    if args.profile_out or to_stdout:
        profile = analysis.similarity_by_distance_profile(h_v, grid, max_dist)
        tables.append((args.profile_out, "distance,mean_similarity\n" + "".join(
            f"{dlt + 1},{v:.9g}\n" for dlt, v in enumerate(profile))))
    if to_stdout:
        sys.stdout.write("\n".join(text for _, text in tables))
    for path, text in tables:
        if path:
            with open(path, "w") as f:
                f.write(text)
    return 0


def _add_graph_flags(p):
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)


def _add_selection_flags(p):
    """The flags of fusion.select; --gsp-keep left unset means min(n, 2m)."""
    p.add_argument("--mode", choices=fusion.MODES, default="script")
    _add_graph_flags(p)
    p.add_argument("--gsp-keep", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokensieve",
        description="Query-aware diverse token subset selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="select a token subset and write it")
    p.add_argument("--tokens", required=True)
    p.add_argument("--query", default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--keep", type=int, default=None)
    group.add_argument("--ratio", type=float, default=None)
    _add_selection_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("score", help="per-token redundancy/relevance CSV")
    p.add_argument("--tokens", required=True)
    p.add_argument("--query", default=None)
    _add_graph_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("verify", help="run the oracle property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time selection on seeded random data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--keep", type=int, required=True)
    p.add_argument("--repeats", type=int, default=5)
    _add_selection_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="write a synthetic embedding file")
    p.add_argument("--pattern", required=True, choices=SYNTH_PATTERNS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--block", type=int, default=None)
    p.add_argument("--grid-h", type=int, default=None)
    p.add_argument("--grid-w", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="grid entropy and distance profile CSVs")
    p.add_argument("--tokens", required=True)
    p.add_argument("--grid-h", type=int, required=True)
    p.add_argument("--grid-w", type=int, required=True)
    p.add_argument("--max-dist", type=int, default=None)
    p.add_argument("--entropy-out", default=None)
    p.add_argument("--profile-out", default=None)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MatrixFormatError, SelectionFormatError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
