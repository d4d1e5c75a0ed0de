"""The greedy walk against LAPACK's pivoted Cholesky (dpstrf).

The walk is a pivoted Cholesky of M = L + EPS*I: its gain at step t is
d_t - EPS, where d_t = c[t, t]^2 is the residual diagonal dpstrf pivots
on, so the two must pick the same tokens in the same order.  dpstrf is
written independently of the walk and of oracle.greedy_walk, so a
mistake the two share shows here.

Exact ties are the one place they may differ.  Identical tokens tie
exactly; the walk breaks a tie by token index, dpstrf by the position
its swaps left the token in.  So orders are compared exactly up to the
first step where they differ, which must be such a tie, and from there
with each token replaced by its class of identical tokens.
"""

import numpy as np
import pytest
from hooks import set_panel_rows

from tokensieve.qcsp import EPS, GreedyState, kernel_matrix
from tokensieve.rng import gaussian_matrix
from tokensieve.similarity import prepare
from tokensieve.synth import duplicate_blocks

lapack = pytest.importorskip("scipy.linalg").lapack


def walk_against_dpstrf(h, q):
    """Walk all n steps of the instance and compare them with dpstrf on
    L + EPS*I.  Returns the walk and the steps whose tokens differ."""
    prep = prepare(h, q)
    n = prep.n
    m = kernel_matrix(prep, prep.relevance) + EPS * np.eye(n)
    state = GreedyState(prep, prep.relevance)
    state.extend(n)
    c, piv, rank, info = lapack.dpstrf(m, lower=1, tol=-1)
    # M's eigenvalues are at least EPS, over dpstrf's default tolerance
    assert (rank, info) == (n, 0)
    # gains on every step, walked or padded, on the scale of the first
    np.testing.assert_allclose(state.gains, np.diag(c) ** 2 - EPS, rtol=0,
                               atol=1e-12 * state.gains[0])
    order, pivots = state.order, piv - 1
    _, cls = np.unique(prep.unit, axis=0, return_inverse=True)
    differ = np.flatnonzero(order != pivots)
    if differ.size:
        t = differ[0]
        assert cls[order[t]] == cls[pivots[t]], f"step {t} differs without a tie"
    assert np.array_equal(cls[order], cls[pivots])
    return state, differ


@pytest.mark.parametrize("n, d", [(1000, 200), (960, 700)])
def test_flushing_walk_follows_dpstrf(n, d):
    # n > d: the walk runs past the kernel's rank on eps-scale gains
    h = gaussian_matrix(21, n, d)
    state, differ = walk_against_dpstrf(h, gaussian_matrix(22, 4, d))
    assert state.flushes == 3 and not state.exhausted
    assert differ.size == 0


def test_walk_with_zero_rows_follows_dpstrf(monkeypatch):
    # zero rows have gain 0: the walk ends before them and pads them in
    # ascending order, while dpstrf takes them last, tied at EPS
    set_panel_rows(monkeypatch, 16)
    h = gaussian_matrix(23, 300, 24)
    zero = np.arange(7, 300, 29)
    h[zero] = 0.0
    state, _ = walk_against_dpstrf(h, gaussian_matrix(24, 2, 24))
    assert state.flushes > 0 and state.exhausted
    assert sorted(state.order[-zero.size:]) == zero.tolist()


def test_duplicate_blocks_follow_dpstrf_up_to_ties():
    # 100 distinct rows, each repeated 4 times, so every pick ties with
    # the copies of its row that are left
    h = duplicate_blocks(400, 64, 4, 0)
    state, differ = walk_against_dpstrf(h, gaussian_matrix(25, 3, 64))
    assert state.flushes == 0
    assert differ.size > 0
