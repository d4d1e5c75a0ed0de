"""The one place where tests patch the greedy walk, load repo scripts by path
or trace memory, so a refactor of the walk's entry points changes these
helpers and not the tests that call them."""
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from tokensieve import qcsp


def record_walks(monkeypatch):
    """The list of ((k, members) asked, state.t, state.flushes,
    state.catch_ups) after each extend."""
    log = []
    extend = qcsp.GreedyState.extend

    def recording(state, k, members=None):
        extend(state, k, members)
        log.append(((k, members), state.t, state.flushes, state.catch_ups))

    monkeypatch.setattr(qcsp.GreedyState, "extend", recording)
    return log


def skew_gains(monkeypatch, skew, first=lambda state: 0):
    """After each run of steps [t_start, done), set gains[lo:done] to
    skew(gains[lo:done]), with lo = max(t_start, first(state))."""
    steps = qcsp.GreedyState._steps

    def skewed(state, t_start, *args):
        done, *rest = steps(state, t_start, *args)
        lo = max(t_start, first(state))
        state.gains[lo:done] = skew(state.gains[lo:done])
        return (done, *rest)

    monkeypatch.setattr(qcsp.GreedyState, "_steps", skewed)


def set_panel_rows(monkeypatch, rows):
    # a flush runs its GEMMs over panel-deep row blocks, so with panels this
    # small a flush spans several blocks and only A's upper triangle is valid
    monkeypatch.setattr(qcsp, "flush_rows", lambda n: rows)


def record_first_flush(monkeypatch):
    """A dict that the walk's first flush fills: its step t, the gains and
    the panel's rows before it (after it the panel buffer holds GEMM
    scratch), and perm, A and lag after it."""
    seen = {}
    flush = qcsp.GreedyState._flush

    def recording(state, t):
        first = not state.flushes
        if first:
            seen.update(t=t, gains=state.v_sq.copy(), panel=state._panel[:t].copy())
        flush(state, t)
        if first:
            seen.update(perm=state._perm.copy(), a=state._a.copy(), lag=state._lag)

    monkeypatch.setattr(qcsp.GreedyState, "_flush", recording)
    return seen


def record_flushes(monkeypatch):
    """A list that each flush extends with its panel's coefficient rows by
    token, NaN in the columns of the tokens selected by then."""
    stored = []
    flush = qcsp.GreedyState._flush

    def recording(state, t):
        # the panel's columns are positions under the map before the flush
        # (tokens, before the first flush's layout changes the map)
        panel, cols = state._panel[: state._kk].copy(), state._perm.copy()
        flush(state, t)
        by_token = np.full(panel.shape, np.nan)
        by_token[:, cols] = panel
        by_token[:, state._perm[:t]] = np.nan
        stored.append(by_token)

    monkeypatch.setattr(qcsp.GreedyState, "_flush", recording)
    return stored


def record_catch_ups(monkeypatch):
    """The list of (t, p, kk) of each catch-up: its step, the winner's
    position and the panel's rows."""
    log = []
    catch_up = qcsp.GreedyState._catch_up

    def recording(state, t, p, kk):
        log.append((t, p, kk))
        return catch_up(state, t, p, kk)

    monkeypatch.setattr(qcsp.GreedyState, "_catch_up", recording)
    return log


def break_swaps(monkeypatch):
    """Swaps that leave each moved token with its old position's entries of A."""
    monkeypatch.setattr(qcsp, "_move_upper", lambda a, lo, hi: None)


def load_file(relpath, name, monkeypatch=None):
    """The module at relpath under the repo root, registered in sys.modules
    as name for the test (dataclasses look their module up there) when a
    monkeypatch is given."""
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def traced_peak(call):
    """The peak bytes traced while call() runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
