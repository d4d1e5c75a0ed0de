"""Query-conditioned kernel construction and greedy MAP selection.

The kernel is L = diag(r) S diag(r), entry (i, j) = S(i,j) * (r_i * r_j),
where S = U @ U.T is the Gram matrix of the l2-normalized token rows u
and r is the normalized relevance (see similarity.prepare).  Built from
a prepared instance, the kernel takes over the instance's Gram buffer
and scales it in place in one pass over cache-sized row blocks: no
second n x n matrix and no scaled copy of the rows are made.  S is
exactly symmetric and r_i * r_j is the same product as r_j * r_i, so L
is exactly symmetric with no mirror pass.

Greedy MAP maintains, per candidate, the residual gain v_i^2 (the
determinant ratio a selection would contribute) and a coefficient
vector u_i via incremental Cholesky updates:

    j      = argmax over unselected i of v_i^2   (ties: lower index)
    e_i    = (L(j,i) - <u_j, u_i>) / sqrt(v_j^2 + eps)
    u_i   += [e_i]
    v_i^2 -= e_i^2

Candidates whose v^2 has fallen to <= 0 are never picked; if none are
positive the kernel rank is exhausted and the remaining budget is
padded by ascending index so callers always get exactly k indices.

The walk is a pivoted Cholesky of L + eps*I, run with deferred updates
as LAPACK's dpstrf does: the <u_j, u_i> terms of the last few steps come
from a panel of their coefficient rows, and a full panel of B =
flush_rows(n) rows is folded into the Schur complement by GEMM at the
start of the next step (see GreedyState).  The residual gains, the
panel's columns and the working matrix are indexed by position, through
a position -> token map that starts as the identity.  Each flush swaps
the tokens the panel selected to the front of the trailing block of
unselected positions [f:], so a flush that leaves f tokens selected
costs about (n-f)^2*B/2 multiply-adds, and each step reads and updates
only the n-f positions of that block, plus a pass over the panel, at
most B*(n-f) doubles.  The unblocked walk streamed the whole t x n
coefficient block on step t, n*T^2/2 doubles in all.  The panel is
allocated once, at min(n, B) rows of n columns.  The walk owns one n x n
buffer, L's: a GreedyState takes it over from its kernel when it is
built and overwrites it, so a kernel carries one walk, and a caller that
reads L copies kernel.matrix first.  That buffer is the Gram's, 8*n^2
bytes, and similarity.prepare refuses an instance whose Gram would
exceed similarity.MAX_GRAM_BYTES.
"""

from __future__ import annotations

import math

import numpy as np

# l2_normalize_rows is no longer called here; it stays importable from this
# module because the benchmark's tracer (perfbench/spans.py) wraps it by name
from .similarity import Prepared, l2_normalize_rows, prepare  # noqa: F401

EPS = 1e-6
# the walk's panel holds max(PANEL_MIN_ROWS, PANEL_BYTES / (8 n)) coefficient
# rows, about one L2 cache; a flush runs its GEMM in FLUSH_BLOCK-row blocks
PANEL_BYTES = 2 << 20
PANEL_MIN_ROWS = 128
FLUSH_BLOCK = 256


def flush_rows(n: int) -> int:
    """Coefficient rows the panel of an n-token walk holds before a flush."""
    return max(PANEL_MIN_ROWS, PANEL_BYTES // (8 * max(n, 1)))


class DppKernel:
    """Relevance-reweighted similarity kernel, stored densely.

    L = diag(relevance) @ (unit_rows @ unit_rows.T) @ diag(relevance) is
    symmetric PSD by construction with diagonal relevance^2 (zero-embedding
    rows get diagonal 0).  It is stored in the buffer of `gram` (the
    unit-row Gram), scaled entrywise by r_i * r_j in one pass over row
    blocks; the result is exactly symmetric because the Gram is and the
    two products r_i * r_j and r_j * r_i are the same.

    matrix is L until a GreedyState takes it over, then None.
    """

    def __init__(self, unit_rows: np.ndarray, relevance: np.ndarray, gram: np.ndarray):
        self.unit = unit_rows
        self.n = unit_rows.shape[0]
        _scale_symmetric(gram, relevance)
        self.matrix = gram


# the kernel is scaled over row blocks of about this many bytes
SCALE_BLOCK_BYTES = 256 << 10


def _scale_symmetric(s: np.ndarray, r: np.ndarray) -> None:
    """Set s[i, j] = s[i, j] * (r_i * r_j) in place, in one pass over row
    blocks that are scaled while they are in cache.  r_i * r_j and r_j * r_i
    are the same product, so an exactly symmetric s stays exactly symmetric."""
    n = s.shape[0]
    step = max(1, SCALE_BLOCK_BYTES // (8 * max(n, 1)))
    outer = np.empty((min(n, step), n))
    for i0 in range(0, n, step):
        i1 = min(n, i0 + step)
        rr = outer[: i1 - i0]
        np.multiply(r[i0:i1, None], r, out=rr)
        rows = s[i0:i1]
        rows *= rr


def build_kernel(h_v: np.ndarray | Prepared, r_norm: np.ndarray) -> DppKernel:
    """The kernel of token rows (or a prepared instance) and a normalized
    relevance; it takes over the instance's Gram and scales it into L."""
    prep = h_v if isinstance(h_v, Prepared) else prepare(h_v)
    r = np.asarray(r_norm, dtype=np.float64)
    if r.ndim != 1 or prep.n != r.shape[0]:
        raise ValueError(f"shape mismatch: tokens {prep.unit.shape}, relevance {r.shape}")
    if r.size and (r.min() < -1e-12 or r.max() > 1.0 + 1e-12):
        raise ValueError("normalized relevance must lie in [0, 1]")
    gram = prep.take_gram()
    if gram is None:
        raise ValueError("the prepared instance holds no Gram: it was prepared with "
                         "gram=False, or an earlier kernel took it")
    return DppKernel(prep.unit, r, gram)


class GreedyState:
    """Resumable greedy MAP state; extend(k) is prefix-consistent.

    order/gains record each step's winner (a token index) and its v^2 at
    selection time.  v_sq, the panel's columns and A are indexed by
    position: perm maps a position to the token index it holds and ipos is
    its inverse, both the identity until the first flush.  v_sq holds the
    residual gains, with selected positions parked at -inf; that is the
    walk's only record of which tokens it has selected.  An unselected
    gain is finite: it starts at diag(L) >= 0 and only ever has e^2
    subtracted.

    The coefficient rows e of the steps since the last flush form the
    panel P, one column per position, allocated once at
    min(n, flush_rows(n)) rows.  Each step reads the winner's row of the
    working kernel A over the trailing block [f:], subtracts
    P[:, p] @ P[:, f:] and scales by 1 / sqrt(v_j^2 + eps); with an empty
    panel the product is zero and the row is only scaled.  A full panel is
    flushed at the start of the next step that runs, before its argmax,
    if a positive gain is left; otherwise the walk is exhausted.  A
    flush swaps the panel's tokens to the front of the trailing block, as
    dpstrf swaps each pivot to position t, so that positions [0, f) hold
    order[:f], and sets the lower triangle of the unselected block
    A[f:, f:] to A - P.T @ P, the Schur complement of the selection so
    far, in FLUSH_BLOCK-row GEMMs; then it empties the panel.

    f == 0 means no flush yet: A is L, its rows are read whole and the
    argmax already breaks ties on the lower token index.  After a flush
    only A's lower triangle is valid, and ties are broken on the token
    index through perm.  A is L's own buffer: __init__ takes kernel.matrix
    over and sets it to None.  Walks that never fill the panel make no
    swaps and do the same arithmetic as the unblocked walk that keeps every
    coefficient row, bit for bit.
    """

    def __init__(self, kernel: DppKernel):
        if kernel.matrix is None:
            raise ValueError("another greedy walk has taken this kernel's matrix "
                             "over: build a new kernel for each walk")
        self.kernel = kernel
        self._a, kernel.matrix = kernel.matrix, None
        n = kernel.n
        self.v_sq = np.diagonal(self._a).copy()
        self.order = np.full(n, -1, dtype=np.int64)
        self.gains = np.zeros(n)
        self.exhausted = False
        self.t = 0
        self.flushes = 0
        self._panel = np.empty((min(n, flush_rows(n)), n))
        self._sq = np.empty(n)  # e * e of the current step, by position
        self._kk = 0  # rows in the panel
        self._f = 0   # start of the trailing block; 0 until the first flush
        self._perm = np.arange(n)  # position -> token index
        self._ipos = np.arange(n)  # token index -> position

    def extend(self, k: int) -> None:
        """Grow the selection order to length k (no-op if already there)."""
        n = self.kernel.n
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        if k <= self.t:
            return
        if not self.exhausted:
            self.t, self.exhausted = self._steps(self.t, k)
        if self.exhausted and self.t < k:
            # kernel rank exhausted: pad by ascending index to honor the budget
            pad = np.sort(self._perm[self.v_sq != -np.inf])[: k - self.t]
            self.order[self.t: k] = pad
            self.gains[self.t: k] = 0.0
            self.v_sq[self._ipos[pad]] = -np.inf
            self.t = k

    def _steps(self, t_start: int, t_stop: int) -> tuple[int, bool]:
        """Run steps [t_start, t_stop); returns (steps done, exhausted)."""
        v, order, gains = self.v_sq, self.order, self.gains
        a, perm, panel, kk, f = self._a, self._perm, self._panel, self._kk, self._f
        tail, sq = v[f:], self._sq[f:]
        for t in range(t_start, t_stop):
            if kk == panel.shape[0]:
                self._kk = kk
                # a walk whose gains ran out has no use for the flush
                if not tail.max() > 0.0:
                    return t, True
                self._flush()
                kk, f = 0, self._f
                tail, sq = v[f:], self._sq[f:]
            p = f + int(tail.argmax())
            if f:
                p = self._lowest_index_tie(p)
            vj = v[p]
            if not vj > 0.0:
                self._kk = kk
                return t, True
            j = int(perm[p])
            # A's row at position p over the trailing block; once A has been
            # flushed only its lower triangle is valid
            row = np.concatenate((a[p, f:p], a[p:, p])) if f else a[p]
            e = panel[kk, f:]
            np.subtract(row, panel[:kk, p] @ panel[:kk, f:], out=e)
            e /= math.sqrt(vj + EPS)
            kk += 1
            np.multiply(e, e, out=sq)
            tail -= sq
            v[p] = -np.inf
            order[t] = j
            gains[t] = vj
        self._kk = kk
        return t_stop, False

    def _lowest_index_tie(self, p: int) -> int:
        """Among the trailing positions whose gain ties position p's, the one
        holding the lowest token index, as the unswapped walk would pick."""
        v, f = self.v_sq, self._f
        hits = v[f:] == v[p]
        # ties are rare: count them before building their index array
        if np.count_nonzero(hits) > 1:
            ties = np.flatnonzero(hits)
            return f + int(ties[np.argmin(self._perm[f + ties])])
        return p

    def _flush(self) -> None:
        """Swap the panel's tokens to the front of the trailing block, set the
        lower triangle of the rest to A - P.T @ P and empty the panel P."""
        n = self.kernel.n
        f, kk = self._f, self._kk
        a, perm, ipos, v = self._a, self._perm, self._ipos, self.v_sq
        panel = self._panel[:kk]
        # the panel's tokens were selected at steps f..f+kk-1; the one of
        # step dst goes to position dst and the token there takes its place
        for dst, j in enumerate(self.order[f: f + kk].tolist(), start=f):
            src = int(ipos[j])
            if src == dst:
                continue
            other = int(perm[dst])
            perm[dst], perm[src] = j, other
            ipos[j], ipos[other] = dst, src
            v[dst], v[src] = v[src], v[dst]
            # nothing reads position dst or the ones before it again, so
            # only the moved token's half of the symmetric swap is written
            panel[:, src] = panel[:, dst]
            _move_lower(a, dst, src)
        f1 = f + kk
        buf = np.empty(FLUSH_BLOCK * (n - f1))
        for i0 in range(f1, n, FLUSH_BLOCK):
            i1 = min(n, i0 + FLUSH_BLOCK)
            prod = np.matmul(panel[:, i0:i1].T, panel[:, f1:i1],
                             out=buf[: (i1 - i0) * (i1 - f1)].reshape(i1 - i0, i1 - f1))
            block = a[i0:i1, f1:i1]
            np.subtract(block, prod, out=block)
        self._f = f1
        self._kk = 0
        self.flushes += 1


def _move_lower(a: np.ndarray, lo: int, hi: int) -> None:
    """Write position lo's entries of the symmetric matrix stored in a's lower
    triangle over position hi's (lo < hi), against positions after lo."""
    a[hi, hi] = a[lo, lo]
    a[hi, lo + 1:hi] = a[lo + 1:hi, lo]
    a[hi + 1:, hi] = a[hi + 1:, lo]


def greedy_map(kernel: DppKernel, k: int) -> list[int]:
    """Exactly k distinct indices in selection order."""
    state = GreedyState(kernel)
    state.extend(k)
    return [int(i) for i in state.order[:k]]


def qcsp_select(h_v: np.ndarray, h_q, k: int) -> list[int]:
    """Relevance scoring against the pooled query, then greedy MAP.

    Without a query (h_q None) relevance is uniform and the selection is
    pure diversity.
    """
    prep = prepare(h_v, h_q)
    return greedy_map(build_kernel(prep, prep.relevance), k)
