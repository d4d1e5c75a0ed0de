"""Command-line front end.

Subcommands: prune (run a selection mode over a token file), score
(per-token redundancy/relevance CSV), verify (property suite), bench
(seeded timing), synth (synthetic embedding fixtures), analyze (grid
diagnostics).

Exit codes: 0 success, 1 runtime, data or property failure (I/O errors,
input that breaks the data contract such as non-finite values or a
query/token width mismatch, failed verification), 2 usage errors (bad
flags or parameter values).
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

MODES = ("script", "gsp", "qcsp", "random", "topk", "diversity")


def _matrix_format(path: str) -> str:
    return "csv" if str(path).endswith(".csv") else "emb1"


def _load(path: str) -> np.ndarray:
    return read_matrix(path, _matrix_format(path))


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


def _run_mode(mode: str, h_v, h_q, m: int, args) -> Selection:
    gsp_keep = args.gsp_keep if args.gsp_keep is not None else min(len(h_v), 2 * m)
    if mode == "script":
        return fusion.script_select(h_v, h_q, m, args.tau, args.gamma,
                                    gsp_keep, backend=args.backend)
    if mode == "gsp":
        return gsp.gsp_select(h_v, args.tau, args.gamma, keep=m)
    if mode == "qcsp":
        kept = qcsp.qcsp_select(h_v, h_q, m, backend=args.backend)
        return Selection(kept, len(h_v), ["qcsp-only"] * m,
                         {"mode": "qcsp", "m": m})
    if mode == "random":
        return fusion.baseline_random(len(h_v), m, args.seed)
    if mode == "topk":
        if h_q is None:
            raise ValueError("--mode topk needs --query")
        return fusion.baseline_topk_relevance(h_v, h_q, m)
    if mode == "diversity":
        return fusion.baseline_diversity_only(h_v, m, backend=args.backend)
    raise ValueError(f"unknown mode {mode}")


def cmd_prune(args) -> int:
    h_v = _load(args.tokens)
    h_q = _load(args.query) if args.query else None
    n = h_v.shape[0]
    m = _budget(args, n)
    start = time.perf_counter()
    selection = _run_mode(args.mode, h_v, h_q, m, args)
    elapsed = time.perf_counter() - start
    selection.params.setdefault("tau", args.tau)
    selection.params.setdefault("gamma", args.gamma)
    selection.params["seed"] = args.seed
    write_selection(selection, args.out)
    print(f"n={n} m={m} mode={args.mode} elapsed={elapsed:.4f}s out={args.out}")
    return 0


def cmd_score(args) -> int:
    h_v = _load(args.tokens)
    n = h_v.shape[0]
    prep = prepare(h_v, _load(args.query) if args.query else None, gram=False)
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


def _bench_once(mode: str, h_v, h_q, m: int, args) -> float:
    start = time.perf_counter()
    _run_mode(mode, h_v, h_q, m, args)
    return time.perf_counter() - start


def cmd_bench(args) -> int:
    if args.n < 1 or args.d < 1 or not 1 <= args.keep <= args.n:
        raise ValueError(f"invalid bench sizes n={args.n} d={args.d} keep={args.keep}")
    h_v = gaussian_matrix(args.seed, args.n, args.d)
    h_q = gaussian_matrix(args.seed + 1, 8, args.d)
    backends = qcsp.available_backends() if args.backend == "compare" else (args.backend,)
    print(f"bench mode={args.mode} n={args.n} d={args.d} keep={args.keep} "
          f"repeats={args.repeats}")
    for backend in backends:
        args.backend = None if backend in ("auto", None) else backend
        times = [_bench_once(args.mode, h_v, h_q, args.keep, args)
                 for _ in range(args.repeats)]
        label = backend or "auto"
        print(f"backend={label} median={np.median(times):.4f}s "
              f"min={min(times):.4f}s")
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
    write_matrix(m, args.out, _matrix_format(args.out))
    print(f"pattern={args.pattern} rows={m.shape[0]} cols={m.shape[1]} out={args.out}")
    return 0


def cmd_analyze(args) -> int:
    h_v = _load(args.tokens)
    grid = analysis.GridShape(args.grid_h, args.grid_w)
    entropy = analysis.local_entropy_map(h_v, grid)
    max_dist = args.max_dist or (grid.height + grid.width - 2)
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
    p.add_argument("--backend", choices=("native", "python"), default=None)
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
    p.add_argument("--backend", choices=("auto", "native", "python", "compare"),
                   default="auto")
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
