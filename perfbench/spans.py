"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install` replaces the layer functions that `fusion.script_select`
reaches through module attributes with wrappers that time each call and
note its parent span; `uninstall` puts the originals back.  Spans stay in
memory and are turned into per-op figures by `op_figures`.  Nothing in
`src/` is edited.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    rows: int = 0
    sim_evals: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    # (walk length, n, d) of each greedy walk of the current op, keyed by
    # the index of the script_select span it ran under; the GreedyState
    # itself is not kept, so tracing holds no memory the program freed
    walks: dict = field(default_factory=dict)
    extend_calls: int = 0
    op: int = 0
    op_first: int = 0  # index of the current op's first span
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                note(span, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self, similarity, gsp, qcsp, fusion) -> None:
        def rows(span, args, _):
            span.rows = args[0].shape[0]

        def evals(span, _, graph):
            span.sim_evals = graph.num_similarity_evaluations

        def walked(_, args, __):
            state = args[0]
            self.extend_calls += 1
            self.walks[self._stack[0] if self._stack else None] = (
                state.t, state.kernel.n, state.kernel.unit.shape[1])

        self._wrap(fusion, "script_select", "fusion.select")
        for name in ("relevance_scores", "mean_pool", "min_max_normalize"):
            self._wrap(fusion, name, "similarity.relevance")
        # cosine_similarity_matrix looks l2_normalize_rows up in `similarity`,
        # build_kernel in `qcsp`
        self._wrap(similarity, "l2_normalize_rows", "similarity.normalize", rows)
        self._wrap(qcsp, "l2_normalize_rows", "similarity.normalize", rows)
        self._wrap(fusion, "gsp_select", "gsp.select")
        self._wrap(gsp, "build_graph", "gsp.graph", evals)
        self._wrap(gsp, "redundancy_scores", "gsp.scores")
        self._wrap(fusion, "build_kernel", "qcsp.kernel")
        self._wrap(qcsp.GreedyState, "extend", "qcsp.walk", walked)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_first = len(self.spans)
        self.walks = {}
        self.extend_calls = 0


def self_seconds(spans: list, offset: int = 0) -> list:
    """Each span's duration less the part covered by its direct children;
    `spans` are consecutive spans whose first has index `offset`."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None and s.parent >= offset:
            own[s.parent - offset] -= s.seconds
    return own


def op_figures(tracer: Tracer, op_seconds: float, kept: int) -> dict:
    """Per-layer figures of the op just run, which kept `kept` tokens."""
    spans = tracer.spans[tracer.op_first:]
    own = self_seconds(spans, tracer.op_first)

    def total(name, values=None):
        values = values or [s.seconds for s in spans]
        return sum(v for v, s in zip(values, spans) if s.name == name)

    normalize = [s for s in spans if s.name == "similarity.normalize"]
    walks = tracer.walks.values()
    walk_steps = sum(t for t, _, _ in walks)
    past_rank = sum(max(0, t - min(n, d)) for t, n, d in walks)
    # greedy step t reads the t coefficient rows of n doubles written before it
    coeff_bytes = sum(8 * n * t * (t - 1) / 2 for t, n, _ in walks)
    walk_s = total("qcsp.walk")
    return {
        "similarity.normalize_calls": len(normalize),
        "similarity.rows_normalized": sum(s.rows for s in normalize),
        "similarity.normalize_ms": 1e3 * total("similarity.normalize"),
        "similarity.relevance_ms": 1e3 * total("similarity.relevance"),
        "gsp.select_ms": 1e3 * total("gsp.select"),
        "gsp.graph_ms": 1e3 * total("gsp.graph"),
        "gsp.scores_ms": 1e3 * total("gsp.scores"),
        "gsp.sim_evals": sum(s.sim_evals for s in spans),
        "qcsp.kernel_ms": 1e3 * total("qcsp.kernel"),
        "qcsp.walk_ms": 1e3 * walk_s,
        "qcsp.walk_steps": walk_steps,
        "qcsp.steps_past_rank": past_rank,
        "qcsp.walk_gb_per_s": coeff_bytes / walk_s / 1e9,
        "qcsp.extend_calls": tracer.extend_calls,
        "fusion.scan_ms": 1e3 * total("fusion.select", own),
        "fusion.kept_per_step": kept / walk_steps,
        "op.traced_ms": 1e3 * op_seconds,
        "trace.unaccounted_ms": 1e3 * (op_seconds - sum(own)),
    }
