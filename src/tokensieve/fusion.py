"""Intersection fusion of the redundancy-pruned and query-conditioned
selections, plus the ablation baselines.

The fused rule: take the redundancy-filtered candidate set G, walk the
full greedy MAP order, and keep each G-member encountered until the
budget m is met; if the walk runs out of G-members the remaining slots
are filled with the earliest not-yet-kept tokens of the same greedy
order.  Because greedy selection is prefix-consistent, walking one
length-n order is equivalent to re-running it with increasing budgets.

The walk stops exactly where the answer is known.  While m - len(kept)
members are still missing and g_unseen G-members lie ahead, each missing
member costs at least one more step, so the state is grown by
min(m - len(kept), g_unseen) steps per round.  The walk therefore ends
at the m-th G-member and never passes it (if G holds fewer than m, it
ends at the last G-member or at step m, whichever is later).  The
per-step arithmetic does not depend on how the walk is split into
rounds, so the kept set is that of the full-length order.  The walk
folds its coefficient panel of B = qcsp.flush_rows(n) rows into the
unselected block of the kernel every B steps: a flush that leaves f
tokens selected costs about (n-f)^2*B/2 multiply-adds, and each step
passes over at most B*(n-f) panel doubles.  The walk owns one n x n
buffer, the kernel's, which it overwrites once it flushes; see qcsp.
A selection needs that 8*n^2-byte buffer, so `script_select` raises
similarity.InputError when it would exceed similarity.MAX_GRAM_BYTES.
"""

from __future__ import annotations

import numpy as np

from .gsp import DEFAULT_GAMMA, DEFAULT_TAU, gsp_select
from .qcsp import EPS, GreedyState, build_kernel, qcsp_select
from .rng import SplitMix64
# mean_pool, min_max_normalize and relevance_scores are no longer called here;
# they stay importable from this module because the benchmark's tracer
# (perfbench/spans.py) wraps them by name
from .similarity import mean_pool, min_max_normalize, prepare, relevance_scores  # noqa: F401
from .tensor_io import Selection


def script_select(h_v: np.ndarray, h_q, m: int, tau: float = DEFAULT_TAU,
                  gamma: float = DEFAULT_GAMMA, gsp_keep: int | None = None) -> Selection:
    """Budget-m fused selection; kept order follows the greedy-order scan."""
    h_v = np.asarray(h_v, dtype=np.float64)
    n = h_v.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"budget must lie in [1, {n}], got {m}")
    if gsp_keep is None:
        gsp_keep = min(n, 2 * m)
    if not 1 <= gsp_keep <= n:
        raise ValueError(f"gsp_keep must lie in [1, {n}], got {gsp_keep}")

    # one normalization, relevance and Gram for both stages; GSP reads the
    # Gram before the kernel scales it into L in place
    prep = prepare(h_v, h_q)
    g_members = set(gsp_select(prep, tau, gamma, gsp_keep).kept)
    state = GreedyState(build_kernel(prep, prep.relevance))

    kept: list[int] = []
    g_unseen = len(g_members)
    while len(kept) < m and g_unseen > 0:
        # the g_unseen members all lie in the n - t unwalked positions,
        # so this never asks for more than n steps
        scanned = state.t
        state.extend(scanned + min(m - len(kept), g_unseen))
        for idx in state.order[scanned: state.t].tolist():
            if idx in g_members:
                kept.append(idx)
                g_unseen -= 1

    tags = ["intersection"] * len(kept)
    if len(kept) < m:
        # not enough intersection members anywhere: fill from the greedy
        # order itself, earliest first; its first m entries always suffice
        state.extend(m)
        kept_set = set(kept)
        for idx in state.order[: state.t]:
            if len(kept) == m:
                break
            idx = int(idx)
            if idx not in kept_set:
                kept.append(idx)
                tags.append("qcsp-fill")
    return Selection(
        kept=kept,
        n_original=n,
        stage_tags=tags,
        params={"mode": "script", "m": m, "tau": tau, "gamma": gamma,
                "gsp_keep": gsp_keep, "eps": EPS},
    )


def baseline_random(n: int, m: int, seed: int) -> Selection:
    if not 1 <= m <= n:
        raise ValueError(f"budget must lie in [1, {n}], got {m}")
    kept = SplitMix64(seed).sample_without_replacement(n, m)
    return Selection(kept, n, ["baseline"] * m, {"mode": "random", "m": m, "seed": seed})


def baseline_topk_relevance(h_v: np.ndarray, h_q: np.ndarray, m: int) -> Selection:
    """Top-m tokens by raw relevance, descending; ties to lower index."""
    h_v = np.asarray(h_v, dtype=np.float64)
    n = h_v.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"budget must lie in [1, {n}], got {m}")
    if h_q is None:
        raise ValueError("top-k relevance needs a query")
    raw = prepare(h_v, h_q, gram=False).relevance_raw
    ranked = np.argsort(-raw, kind="stable")
    return Selection([int(i) for i in ranked[:m]], n, ["baseline"] * m,
                     {"mode": "topk", "m": m})


def baseline_diversity_only(h_v: np.ndarray, m: int) -> Selection:
    """Greedy MAP with uniform relevance: diversity with no query signal."""
    h_v = np.asarray(h_v, dtype=np.float64)
    n = h_v.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"budget must lie in [1, {n}], got {m}")
    kept = qcsp_select(h_v, None, m)
    return Selection(kept, n, ["baseline"] * m, {"mode": "diversity", "m": m})
