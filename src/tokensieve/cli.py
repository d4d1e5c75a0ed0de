"""Command-line front end.

Subcommands: prune (run a selection mode over a token file), score
(per-token redundancy/relevance CSV), verify (property suite), bench
(seeded timing), synth (synthetic embedding fixtures), analyze (grid
diagnostics).

Exit codes: 0 success, 1 runtime, data or property failure (I/O errors,
input that breaks the data contract such as non-finite values, a
query/token width mismatch, or, in the modes that run the greedy walk,
more tokens than a kernel of similarity.MAX_GRAM_BYTES holds; failed
verification), 2 usage errors (bad flags or parameter values).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import analysis, fusion, gsp, qcsp, synth, verify
from .gsp import DEFAULT_GAMMA, DEFAULT_TAU
from .rng import gaussian_matrix
from .similarity import InputError, prepare
from .tensor_io import (MatrixFormatError, Selection, SelectionFormatError,
                        read_matrix, write_matrix, write_selection)


def _budget(args, n: int) -> int:
    if args.keep is not None:
        m = args.keep
    else:
        if not 0.0 <= args.ratio < 1.0:
            raise ValueError(f"--ratio must lie in [0, 1), got {args.ratio}")
        # half-up rounding of (1 - p) * n
        m = math.floor((1.0 - args.ratio) * n + 0.5)
    if not 1 <= m <= n:
        raise ValueError(f"budget {m} outside [1, {n}]")
    return m


def _qcsp_only(h_v, h_q, m: int, args) -> Selection:
    return Selection(qcsp.qcsp_select(h_v, h_q, m), len(h_v), ["qcsp-only"] * m,
                     {"mode": "qcsp", "m": m})


def _topk(h_v, h_q, m: int, args) -> Selection:
    if h_q is None:
        raise ValueError("--mode topk needs --query")
    return fusion.baseline_topk_relevance(h_v, h_q, m)


# mode -> selector(h_v, h_q, m, args); --gsp-keep left unset means min(n, 2m)
SELECTORS = {
    "script": lambda h_v, h_q, m, args: fusion.script_select(
        h_v, h_q, m, args.tau, args.gamma, args.gsp_keep),
    "gsp": lambda h_v, h_q, m, args: gsp.gsp_select(h_v, args.tau, args.gamma, keep=m),
    "qcsp": _qcsp_only,
    "random": lambda h_v, h_q, m, args: fusion.baseline_random(len(h_v), m, args.seed),
    "topk": _topk,
    "diversity": lambda h_v, h_q, m, args: fusion.baseline_diversity_only(h_v, m),
}
MODES = tuple(SELECTORS)


def cmd_prune(args) -> int:
    h_v = read_matrix(args.tokens)
    h_q = read_matrix(args.query) if args.query else None
    n = h_v.shape[0]
    m = _budget(args, n)
    start = time.perf_counter()
    selection = SELECTORS[args.mode](h_v, h_q, m, args)
    elapsed = time.perf_counter() - start
    selection.params.setdefault("tau", args.tau)
    selection.params.setdefault("gamma", args.gamma)
    selection.params["seed"] = args.seed
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
    lines = ["index,redundancy_score,degree,mean_sim,used_fallback,relevance_raw,relevance_norm"]
    for i in range(n):
        lines.append(",".join([
            str(i), "%.9g" % scores.score[i], str(int(scores.degree[i])),
            "%.9g" % scores.mean_sim[i], str(bool(scores.used_fallback[i])).lower(),
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
    if args.n < 1 or args.d < 1 or not 1 <= args.keep <= args.n or args.repeats < 1:
        raise ValueError(f"invalid bench sizes n={args.n} d={args.d} keep={args.keep} "
                         f"repeats={args.repeats}")
    h_v = gaussian_matrix(args.seed, args.n, args.d)
    h_q = gaussian_matrix(args.seed + 1, 8, args.d)
    print(f"bench mode={args.mode} n={args.n} d={args.d} keep={args.keep} "
          f"repeats={args.repeats}")
    select = SELECTORS[args.mode]
    times = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        select(h_v, h_q, args.keep, args)
        times.append(time.perf_counter() - start)
    print(f"median={np.median(times):.4f}s min={min(times):.4f}s")
    return 0


def cmd_synth(args) -> int:
    if args.pattern != "two-region-grid" and args.n is None:
        raise ValueError(f"{args.pattern} needs --n")
    if args.pattern == "random":
        m = synth.random_tokens(args.n, args.d, args.seed)
    elif args.pattern == "duplicate-blocks":
        if args.block is None:
            raise ValueError("duplicate-blocks needs --block")
        m = synth.duplicate_blocks(args.n, args.d, args.block, args.seed)
    elif args.pattern == "two-region-grid":
        if args.grid_h is None or args.grid_w is None:
            raise ValueError("two-region-grid needs --grid-h and --grid-w")
        m = synth.two_region_grid(args.grid_h, args.grid_w, args.d, args.seed)
    elif args.pattern == "equicorrelated":
        if args.rho is None:
            raise ValueError("equicorrelated needs --rho")
        m = synth.equicorrelated_tokens(args.n, args.d, args.rho)
    else:
        raise ValueError(f"unknown pattern {args.pattern}")
    write_matrix(m, args.out)
    print(f"pattern={args.pattern} rows={m.shape[0]} cols={m.shape[1]} out={args.out}")
    return 0


def cmd_analyze(args) -> int:
    h_v = read_matrix(args.tokens)
    grid = analysis.GridShape(args.grid_h, args.grid_w)
    entropy = analysis.local_entropy_map(h_v, grid)
    # a 1x1 grid has no pairs at any distance; its profile is one NaN row
    max_dist = max(1, grid.height + grid.width - 2) if args.max_dist is None else args.max_dist
    profile = analysis.similarity_by_distance_profile(h_v, grid, max_dist)

    entropy_csv = "index,entropy\n" + "".join(
        f"{i},{v:.9g}\n" for i, v in enumerate(entropy))
    profile_csv = "distance,mean_similarity\n" + "".join(
        f"{dlt + 1},{v:.9g}\n" for dlt, v in enumerate(profile))
    if args.entropy_out:
        with open(args.entropy_out, "w") as f:
            f.write(entropy_csv)
    if args.profile_out:
        with open(args.profile_out, "w") as f:
            f.write(profile_csv)
    if not args.entropy_out and not args.profile_out:
        sys.stdout.write(entropy_csv + "\n" + profile_csv)
    return 0


def _add_common_selection_flags(p):
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)


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
    p.add_argument("--mode", choices=MODES, default="script")
    _add_common_selection_flags(p)
    p.add_argument("--gsp-keep", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("score", help="per-token redundancy/relevance CSV")
    p.add_argument("--tokens", required=True)
    p.add_argument("--query", default=None)
    _add_common_selection_flags(p)
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
    p.add_argument("--mode", choices=MODES, default="script")
    _add_common_selection_flags(p)
    p.add_argument("--gsp-keep", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="write a synthetic embedding file")
    p.add_argument("--pattern", required=True,
                   choices=("random", "duplicate-blocks", "two-region-grid",
                            "equicorrelated"))
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
