"""Intersection fusion of the redundancy-pruned and query-conditioned
selections, and `select`, which builds the Selection document of every
mode: the fusion, its two stages alone, and the ablation baselines.
`_fuse` is the fusion's scan: it returns the kept indices and their
tags, and `select` resolves gsp_keep and records the params.

The fused rule: walk the greedy MAP order and keep the tokens that also
survived the redundancy filter (the gsp_keep members of G), then fill any
remaining budget from the top of the order.  Because greedy selection is
prefix-consistent, walking one length-n order is equivalent to re-running
it with increasing budgets.

The walk stops exactly where the answer is known.  It is asked for
target = min(m, |G|) G-members in one call, and stops right after the
step that selects the target-th (or pads up to it, once its gains run
out), so it never passes the m-th G-member.  If G holds fewer than m, it
is then extended to step m, so it ends at the last G-member or at step m,
whichever is later.  The scan is the walked order, G-members first, cut
at m: the target members, then the earliest m - target non-members, which
lie in the first m steps.  What a walk step and a flush cost, and which
n x n buffer the walk owns, is in qcsp.
"""

from __future__ import annotations

import numpy as np

from .gsp import DEFAULT_GAMMA, DEFAULT_TAU, gsp_select
from .rng import SplitMix64
# mean_pool, min_max_normalize and relevance_scores are no longer called here;
# they stay importable from this module because the benchmark's tracer
# (perfbench/spans.py) wraps them by name, and it wraps the walk's
# construction as this module's build_kernel
from .qcsp import EPS, GreedyState as build_kernel
from .similarity import _integer, mean_pool, min_max_normalize, prepare, relevance_scores  # noqa: F401
from .tensor_io import Selection


def _fuse(prep, m: int, tau: float, gamma: float, gsp_keep: int) -> tuple[list[int], list[str]]:
    """The fused scan of a prepared instance holding its Gram, for a budget
    m in [1, n]: the kept indices in greedy-order scan order, and their tags."""
    # both stages read the one Gram; GSP reads it before the walk scales it
    # into L in place
    g = gsp_select(prep, tau, gamma, keep=gsp_keep)
    members = np.zeros(prep.n, dtype=bool)
    members[g] = True
    state = build_kernel(prep, prep.relevance)
    target = min(m, len(g))
    state.extend(target, members=members)
    if target < m:
        state.extend(m)
    walked = state.order[: state.t]
    kept = walked[np.argsort(~members[walked], kind="stable")[:m]].tolist()
    return kept, ["intersection"] * target + ["qcsp-fill"] * (m - target)


MODES = ("script", "gsp", "qcsp", "random", "topk", "diversity")


def select(mode: str, h_v: np.ndarray, h_q, m: int, tau: float = DEFAULT_TAU,
           gamma: float = DEFAULT_GAMMA, gsp_keep: int | None = None,
           seed: int = 0) -> Selection:
    """Budget-m selection by `mode`, one of MODES.

    Every mode checks and prepares its inputs in one `prepare` call: tokens
    or a query that break similarity's input contract raise InputError, and
    an m, gsp_keep or seed that is not an integer (bools included), no
    token row, a budget m outside [1, n], a script gsp_keep outside [1, n]
    or a seed outside SplitMix64's [0, 2^64 - 1], ValueError.  Only script, qcsp and
    diversity build the 8*n^2-byte Gram the walk runs in (and so check its
    size).

    The document's params hold the mode, m and only the inputs that mode
    reads: script tau, gamma, gsp_keep and eps; gsp tau and gamma; qcsp
    and diversity eps; random seed; topk nothing more.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "topk" and h_q is None:
        raise ValueError("mode topk needs a query")
    m, rng = _integer("m", m), SplitMix64(seed)
    gsp_keep = None if gsp_keep is None else _integer("gsp_keep", gsp_keep)
    prep = prepare(h_v, h_q, gram=mode in ("script", "qcsp", "diversity"))
    n = _integer("n", prep.n, 1)
    _integer("budget", m, 1, n)
    params = {"mode": mode, "m": m}
    tag = "baseline"
    if mode == "script":
        gsp_keep = min(n, 2 * m) if gsp_keep is None else _integer("gsp_keep", gsp_keep, 1, n)
        kept, tags = _fuse(prep, m, tau, gamma, gsp_keep)
        params.update(tau=tau, gamma=gamma, gsp_keep=gsp_keep, eps=EPS)
    elif mode == "gsp":
        kept = gsp_select(prep, tau, gamma, keep=m)
        tag = "gsp-only"
        params.update(tau=tau, gamma=gamma)
    elif mode in ("qcsp", "diversity"):
        # diversity is the walk with uniform relevance: no query signal
        state = build_kernel(prep, prep.relevance if mode == "qcsp" else np.ones(n))
        state.extend(m)
        kept = state.order[:m].tolist()
        tag = "qcsp-only" if mode == "qcsp" else tag
        params["eps"] = EPS
    elif mode == "random":
        kept = rng.sample_without_replacement(n, m)
        params["seed"] = rng.seed
    else:
        # top-m by raw relevance, descending; ties to the lower index
        kept = np.argsort(-prep.relevance_raw, kind="stable")[:m].tolist()
    return Selection(kept, n, tags if mode == "script" else [tag] * m, params)


def script_select(h_v: np.ndarray, h_q, m: int, tau: float = DEFAULT_TAU,
                  gamma: float = DEFAULT_GAMMA, gsp_keep: int | None = None) -> Selection:
    """Budget-m fused selection: select's script mode."""
    return select("script", h_v, h_q, m, tau, gamma, gsp_keep)
