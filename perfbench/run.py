"""Selector benchmark: times `tokensieve.fusion.script_select` on seeded
workloads and checks every output.

    python3 perfbench/run.py --workload image576 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` and nowhere else.  BLAS is pinned to one thread and a single
process drives a closed loop: each op starts when the previous one ends.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a run that alternates plain and traced ops; either way the
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Instances per run, selected in whole rounds.  A pool mixes the walk
# lengths of several inputs into each median, so that one seed's walk
# length moves the figures less.
POOL = {"image576": 4, "anyres2880": 4, "video32x196": 4}
# Runs of the reference computation after each op.  One run varies by
# about 20% from call to call; the median of several steadies the
# denominator of op_ref_p50 where a run holds few ops.
REFERENCE_RUNS = {"image576": 1, "anyres2880": 9, "video32x196": 5}
SETUP_PROBES = 2  # child processes that repeat the set-up, besides this one

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ref_p50": "ratio",
    "tokens_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "similarity.normalize_calls": "count",
    "similarity.rows_normalized": "rows",
    "similarity.normalize_ms": "ms",
    "similarity.relevance_ms": "ms",
    "gsp.select_ms": "ms",
    "gsp.graph_ms": "ms",
    "gsp.scores_ms": "ms",
    "gsp.sim_evals": "count",
    "qcsp.kernel_ms": "ms",
    "qcsp.walk_ms": "ms",
    "qcsp.walk_steps": "count",
    "qcsp.steps_past_rank": "count",
    "qcsp.walk_gb_per_s": "GB/s",
    "qcsp.extend_calls": "count",
    "fusion.scan_ms": "ms",
    "fusion.kept_per_step": "ratio",
    "op.faulted_mb": "MB",
    "op.traced_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.unaccounted_ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("image576", "anyres2880", "video32x196"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up (import and first op), print it and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """The program's layer modules, from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    import tokensieve
    from tokensieve import fusion, gsp, qcsp, similarity
    if Path(tokensieve.__file__).resolve().parent != SRC / "tokensieve":
        raise SystemExit(f"perfbench: tokensieve was imported from {tokensieve.__file__}")
    return similarity, gsp, qcsp, fusion


def run_op(fusion, instance) -> tuple:
    """One op: every frame of the instance through the public entry point."""
    out = []
    for frame in instance.frames:
        sel = fusion.script_select(frame, instance.query, instance.m)
        out.append((tuple(sel.kept), tuple(sel.stage_tags)))
    return tuple(out)


def make_pool(gen, workload: str, seed: int, size: int | None = None) -> list:
    """The first `size` (default: all) instances of the run's pool."""
    first = seed * POOL[workload]
    return [gen.WORKLOADS[workload](first + i) for i in range(size or POOL[workload])]


def setup_probe(gen, workload: str, seed: int) -> float:
    instance = make_pool(gen, workload, seed, size=1)[0]
    start = time.perf_counter()
    run_op(import_program()[3], instance)
    return time.perf_counter() - start


def probe_setups(workload: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def check_outputs(ruleref, pool, first, outputs) -> tuple[bool, int, list]:
    """Compare each instance's first output with the reference rule, and
    every timed op with its instance's first output and the structural
    checks.  Returns (correct, failed ops, notes)."""
    refs = [[ruleref.reference_select(f, inst.query, inst.m) for f in inst.frames]
            for inst in pool]
    correct, notes = True, []
    for i, (inst_refs, inst_out) in enumerate(zip(refs, first)):
        for k, (ref, (kept, tags)) in enumerate(zip(inst_refs, inst_out)):
            ok, how = ruleref.compare_with_reference(list(kept), list(tags), ref)
            correct &= ok
            if how != "exact":
                notes.append(f"instance {i} frame {k}: {how}")
    failed = 0
    for i, out in outputs:
        bad = out != first[i] or any(
            ruleref.check_selection(list(kept), list(tags), ref)
            for ref, (kept, tags) in zip(refs[i], out))
        failed += bad
    return correct, failed, notes


def timed_phase(fusion, reference, pool, seconds: float, reference_runs: int):
    op_s, ratios, outputs = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        for i, instance in enumerate(pool):
            start = time.perf_counter()
            out = run_op(fusion, instance)
            op_s.append(time.perf_counter() - start)
            ratios.append(op_s[-1] / statistics.median(reference() for _ in range(reference_runs)))
            outputs.append((i, out))
        if time.perf_counter() >= deadline:
            return op_s, ratios, outputs


def traced_phase(modules, spans, pool, seconds: float):
    """A plain op and a traced op on each instance, the plain one first in
    even rounds and second in odd ones, so that neither always finds the
    caches warm from the same input."""
    fusion = modules[3]
    tracer = spans.Tracer()
    plain_s, faults, figures, outputs = [], [], [], []

    def plain(i, instance):
        faults_before = minor_faults()
        start = time.perf_counter()
        outputs.append((i, run_op(fusion, instance)))
        plain_s.append(time.perf_counter() - start)
        faults.append(minor_faults() - faults_before)

    def traced(i, instance):
        tracer.begin_op(len(figures))
        tracer.install(*modules)
        try:
            start = time.perf_counter()
            outputs.append((i, run_op(fusion, instance)))
            elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
        figures.append(spans.op_figures(tracer, elapsed, instance.m * len(instance.frames)))

    deadline = time.perf_counter() + seconds
    for round_ in itertools.count():
        for i, instance in enumerate(pool):
            for step in (plain, traced) if round_ % 2 == 0 else (traced, plain):
                step(i, instance)
        if time.perf_counter() >= deadline:
            break
    metrics = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    metrics["op.faulted_mb"] = statistics.median(faults) * resource.getpagesize() / 2**20
    metrics["trace.overhead_ms"] = metrics["op.traced_ms"] - 1e3 * statistics.median(plain_s)
    return metrics, outputs, tracer.spans


def write_spans(spans_list, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for s in spans_list:
            fh.write(json.dumps({"name": s.name, "op": s.op, "parent": s.parent,
                                 "start": s.start, "end": s.end}) + "\n")
    return path


def write_op_times(record: dict, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"ops-{workload}-seed{seed}.json"
    path.write_text(json.dumps(record))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tokensieve" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import drift
    import gen
    import ruleref
    import spans

    if args.setup_probe:
        print(setup_probe(gen, args.workload, args.seed))
        return 0

    pool = make_pool(gen, args.workload, args.seed)
    start = time.perf_counter()
    modules = import_program()
    fusion = modules[3]
    first = [run_op(fusion, pool[0])]
    setups = [time.perf_counter() - start]
    first += [run_op(fusion, instance) for instance in pool[1:]]
    reference_computation = drift.ReferenceComputation()
    reference_computation()

    if args.trace:
        metrics, outputs, recorded = traced_phase(modules, spans, pool, args.seconds)
        units = PER_LAYER
        print(f"spans written to {write_spans(recorded, args.workload, args.seed)}")
    else:
        op_s, ratios, outputs = timed_phase(fusion, reference_computation, pool, args.seconds,
                                            REFERENCE_RUNS[args.workload])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += probe_setups(args.workload, args.seed)
        tokens = sum(pool[i].tokens for i, _ in outputs)
        metrics = {
            "op_ms_p50": 1e3 * statistics.median(op_s),
            "op_ref_p50": statistics.median(ratios),
            "tokens_per_s": tokens / sum(op_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        written = write_op_times({"op_s": op_s, "ratio": ratios, "setup_s": setups},
                                 args.workload, args.seed)
        print(f"op times written to {written}")

    correct, failed, notes = check_outputs(ruleref, pool, first, outputs)
    for note in notes:
        print(f"reference: {note}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {len(outputs)} failed {failed} correct {correct}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
