"""Query-conditioned kernel construction and greedy MAP selection.

The kernel is L = diag(r) S diag(r), entry (i, j) = S(i,j) * (r_i * r_j),
where S is the token cosine matrix, the Gram H @ H.T of the raw token
rows scaled by their inverse norms, and r is the normalized relevance
(see similarity.prepare).  The walk takes over the instance's cosine
buffer and scales it in place with similarity.scale_outer, the pass that
made it from the Gram: no second n x n matrix and no scaled copy of the
rows are made.  S is exactly symmetric and r_i * r_j is the same product
as r_j * r_i, so L is exactly symmetric with no mirror pass.

Greedy MAP maintains, per candidate, the residual gain v_i^2 (the
determinant ratio a selection would contribute) and a coefficient
vector u_i via incremental Cholesky updates:

    j      = argmax over unselected i of v_i^2   (ties: lower index)
    e_i    = (L(j,i) - <u_j, u_i>) / sqrt(v_j^2 + eps)
    u_i   += [e_i]
    v_i^2 -= e_i^2

The walk has one budget rule: extend(k, members) walks until the order
holds k tokens of a member mask, every token by default.  Candidates
whose v^2 has fallen to <= 0 are never picked; if none are positive the
kernel rank is exhausted and the order is padded by ascending index up
to the k-th member, so callers always get exactly k members.

Write L = B B^T, with rows b_i = r_i * h_i / |h_i|.  After the steps of a
selected set S, every unselected gain is

    v_i^2 = eps * b_i^T (B_S^T B_S + eps*I)^-1 b_i,

the push-through identity I - B_S^T (B_S B_S^T + eps*I)^-1 B_S =
eps * (B_S^T B_S + eps*I)^-1 applied to the Schur complement of L + eps*I.
While |S| < d, the width of B, v_i^2 is about b_i's squared distance from
the span of the selected rows.  Past d (|S| >= d) v_i^2 is about eps times
b_i's leverage under their scatter B_S^T B_S, so each step is a greedy
D-optimal design step, with relevance entering through the scale of b_i;
to first order all gains then scale with eps, and the argmax does not
depend on it.

The walk is a pivoted Cholesky of L + eps*I, run with deferred updates
as LAPACK's dpstrf does.  The coefficient rows e of the steps since the
last flush form a panel P of up to B = min(n, flush_rows(n)) rows; a
step takes its <u_j, u_i> terms as its column's product with P (zero
with an empty panel).  A full panel is flushed at the start of the next
step that runs, before its argmax, if a positive gain is left (otherwise
the walk is exhausted): it is folded into the rows of the working matrix
A that the next steps read (A - P.T @ P, the Schur complement of the
selection so far, in the upper triangle), and a new panel starts.  The
residual gains, the coefficient rows' columns and A are indexed by
position, through a position -> token map that starts as the identity.

Until the first flush A is L, and P fills a buffer of B rows of n
columns, allocated once, row t step t's.  Each step reads the winner's
whole row and the argmax breaks ties on the lower token index: these
steps do the arithmetic of the unblocked walk that keeps every
coefficient row, bit for bit, so a walk that never fills its panel
moves nothing.  They run in a loop of their own, which reads no
position -> token map.  The first flush lays the positions out anew:
[0, t) get the tokens selected so far in step order, and [t, n) the
unselected tokens by descending gain, ties to the lower token index.  It
permutes the gains and the upper triangle of A[t:, t:] in place, the
last by following the permutation's cycles row by row, with O(n)
temporaries, and then writes each panel row's permuted columns [t, n)
into A's row of its step.  From then on each step swaps its winner to
position t, as dpstrf pivots, so the selected tokens always fill
positions [0, t), e covers the positions after t alone, ties are broken
on the token index through the map, and A is kept in the upper triangle
of the unselected block alone: the winner's row there is read from
column p down to the diagonal and from row p after it (the contiguous
A[t, t+1:] when the winner already sits at t), before the token at t
moves to position p.  Gains only fall, so a winner mostly had a high
gain at the first flush and sits soon after t (about 100 positions on
average on the n = 2880 Gaussian instances): the strided read of column
p stays short.

So after the first flush every coefficient row lives in A's row of its
own step: row t is dead once step t has read it, or moved it to p, and
step t writes its e there.  The panel is A[f:t], f the last flush's
step, a swap exchanges its columns t and p, and A[:f] holds the flushed
rows.  Each step reads and updates only the n-t-1 positions after its
winner, plus a pass over the panel, at most B*(n-t) doubles.

Only the rows of A that winners reach are kept current: rows [t, lag)
hold the Schur complement of every flushed panel, and rows [lag, n) wait
as the first flush laid them out, the permuted L.  A flush at step t
folds A[f:t] into rows [t, lag) alone, about (lag-t)*(n-t)*B
multiply-adds in GEMMs over row blocks, and copies nothing; the first
sets lag = t and folds nothing.  When a step's winner p sits at or past
lag, the step first catches rows [lag, min(n, p+B)) up: it folds A[:f]
into them, one GEMM with f terms and one subtract per row block, about
(p+B-lag)*(n-lag)*f multiply-adds, and moves lag there.  A winner lies
before lag when it is swapped, so rows and columns from lag on are never
swapped: rows [lag, n) stay the permuted L and A[:f]'s columns [lag, n)
those of their flush.  After each step t <= lag, so a catch-up never
folds into the coefficient rows A[:t].  On the n = 2880 Gaussian
instances a walk of 1375-1520 steps makes 10-13 catch-ups, 420-950 rows
are never folded, and the subtract passes write 10.7-12.6 M entries.

After the first flush the panel buffer is the walk's one scratch: every
fold's GEMMs write into it, in row blocks of at least B rows, and a
swapping step gathers its winner's row there.  So past the first flush's
O(n) temporaries the walk allocates nothing after its panel buffer.

The walk owns one n x n buffer, the Gram's, 8*n^2 bytes: a GreedyState
takes it from its prepared instance, scales it into L and overwrites it,
so a second walk on one instance raises, and similarity.prepare refuses
an instance whose Gram would exceed similarity.MAX_GRAM_BYTES.
kernel_matrix copies L for code that reads it.
"""

from __future__ import annotations

import math

import numpy as np

# l2_normalize_rows is no longer called here; it stays importable from this
# module because the benchmark's tracer (perfbench/spans.py) wraps it by name
from .similarity import Prepared, _integer, _real_array, l2_normalize_rows, scale_outer  # noqa: F401

EPS = 1e-6
# the walk's panel holds max(PANEL_MIN_ROWS, PANEL_BYTES / (8 n)) coefficient
# rows, about one L2 cache
PANEL_BYTES = 2 << 20
PANEL_MIN_ROWS = 128


def flush_rows(n: int) -> int:
    """Coefficient rows the panel of an n-token walk holds before a flush."""
    return max(PANEL_MIN_ROWS, PANEL_BYTES // (8 * max(n, 1)))


def _relevance(prep: Prepared, r_norm: np.ndarray) -> np.ndarray:
    """r_norm as float64, checked against an instance that holds its Gram;
    the range test is written so that a NaN fails it."""
    r = _real_array(r_norm, "relevance")
    if r.ndim != 1 or prep.n != r.shape[0]:
        raise ValueError(f"shape mismatch: tokens {prep.rows.shape}, relevance {r.shape}")
    if r.size and not (r.min() >= -1e-12 and r.max() <= 1.0 + 1e-12):
        raise ValueError("normalized relevance must lie in [0, 1]")
    if prep.gram is None:
        raise ValueError("the prepared instance holds no Gram: it was prepared with "
                         "gram=False, or an earlier walk took it")
    return r


def kernel_matrix(prep: Prepared, r_norm: np.ndarray) -> np.ndarray:
    """A copy of the kernel L = diag(r) S diag(r) that a walk of prep and
    r_norm runs in, bit for bit; prep keeps its Gram for the walk."""
    r = _relevance(prep, r_norm)
    l = prep.gram.copy()
    scale_outer(l, r, r)
    return l


class GreedyState:
    """Resumable greedy MAP state; extend(k) is prefix-consistent.  The
    walk and its blocking are described in the module docstring.

    order/gains: each step's winner (a token index) and its v^2 at
        selection time.
    v_sq: the residual gains by position, with selected positions parked
        at -inf, the walk's only record of which tokens it has selected.
        An unselected gain is finite: it starts at diag(L) >= 0 and only
        ever has e^2 subtracted.
    t, exhausted, flushes, catch_ups: the steps taken, whether the gains
        ran out (later steps are padding), the flushes made, and the
        catch-ups made of the rows past lag.
    kernel: the prepared instance walked, its gram set to None; the
        benchmark's tracer reads its n and unit.
    _a: the working matrix A, the instance's Gram buffer scaled into L.
        After the first flush its rows [0, t) hold the coefficient rows,
        [0, _f) the flushed ones.
    _panel: min(n, flush_rows(n)) rows of n columns: the panel before the
        first flush, scratch after it.
    _f: the step of the last flush (0 until the first).
    _lag: rows [t, _lag) of A hold the Schur complement of every flushed
        panel, rows [_lag, n) the permuted L until a winner at or past
        _lag catches them up (n until the first flush, which sets it to t).
    _perm: position -> token index.

    An instance of no token ("n must be >= 1"), a relevance that is not a
    real vector in [0, 1] (no NaN) of the instance's length, or an instance
    that holds no Gram raises ValueError.
    """

    def __init__(self, prep: Prepared, r_norm: np.ndarray):
        _integer("n", prep.n, 1)
        r = _relevance(prep, r_norm)
        self.kernel = prep
        self._a, prep.gram = prep.gram, None
        scale_outer(self._a, r, r)
        n = prep.n
        self.v_sq = np.diagonal(self._a).copy()
        self.order = np.full(n, -1, dtype=np.int64)
        self.gains = np.zeros(n)
        self.exhausted = False
        self.t = 0
        self.flushes = 0
        self.catch_ups = 0
        self._lag = n  # until the first flush every row of A is current
        self._panel = np.empty((min(n, flush_rows(n)), n))
        self._sq = np.empty(n)  # e * e of the current step, by position
        self._f = 0
        self._perm = np.arange(n)  # position -> token index

    def extend(self, k: int, members: np.ndarray | None = None) -> None:
        """Grow the selection order until it holds k tokens of members, a
        bool array of one entry per token (None: every token): the walk
        stops right after the step that selects the k-th (no-op if the order
        holds k already).  Once the gains run out, the order is padded by
        ascending token index up to the k-th member.  Members that are not a
        bool array of length n, or that hold no token, and a k that is not
        an integer in [1, members' count] (bools included) raise ValueError,
        in that order."""
        n = self.kernel.n
        members = np.ones(n, dtype=bool) if members is None else np.asarray(members)
        if members.dtype != bool or members.shape != (n,):
            raise ValueError(f"members must be a bool array of shape ({n},), got "
                             f"{members.dtype} of shape {members.shape}")
        count = int(np.count_nonzero(members))
        if not count:
            raise ValueError("members must hold at least one token, got none")
        need = _integer("k", k, 1, count) - int(np.count_nonzero(members[self.order[: self.t]]))
        if need <= 0:
            return
        if not self.exhausted:
            self.t, need, self.exhausted = self._steps(self.t, need, members.tolist())
        if need:
            # kernel rank exhausted: pad by ascending index to honor the budget
            free = np.flatnonzero(self.v_sq != -np.inf)
            pad = free[np.argsort(self._perm[free])]
            tokens = self._perm[pad]
            need = int(np.flatnonzero(members[tokens])[need - 1]) + 1
            self.order[self.t: self.t + need] = tokens[:need]
            self.gains[self.t: self.t + need] = 0.0
            self.v_sq[pad[:need]] = -np.inf
            self.t += need

    def _steps(self, t: int, need: int, members: list) -> tuple[int, int, bool]:
        """Run steps from step t until they select need more tokens of
        members or the gains run out; returns (steps done, tokens still
        needed, exhausted)."""
        if not self.flushes:
            t, need, exhausted = self._unflushed_steps(t, need, members)
            if exhausted or not need:
                return t, need, exhausted
        return self._flushed_steps(t, need, members)

    def _unflushed_steps(self, t_start: int, need: int, members: list) -> tuple[int, int, bool]:
        """_steps until the panel is full.  No flush has run, so a position
        is its token, and the panel holds one row per step: row t is step
        t's coefficient row."""
        v, order, gains, sq = self.v_sq, self.order, self.gains, self._sq
        a, panel = self._a, self._panel
        argmax, subtract, multiply, sqrt = v.argmax, np.subtract, np.multiply, math.sqrt
        for t in range(t_start, panel.shape[0]):
            p = int(argmax())
            vj = v[p]
            if not vj > 0.0:
                return t, need, True
            e = panel[t]
            # on whole panel rows ndarray.dot is the faster call; on the
            # columns after t it is slower than np.matmul (same bits)
            subtract(a[p], panel[:t, p].dot(panel[:t], out=sq), out=e)
            e /= sqrt(vj + EPS)
            multiply(e, e, out=sq)
            v -= sq
            v[p] = -np.inf
            order[t] = p
            gains[t] = vj
            if members[p]:
                need -= 1
                if not need:
                    return t + 1, 0, False
        return panel.shape[0], need, False

    def _flushed_steps(self, t_start: int, need: int, members: list) -> tuple[int, int, bool]:
        """_steps from a full panel on: each flushes a full panel first and
        catches A's rows up to its winner if the winner sits at or past
        lag, and after the first flush positions [0, t) hold order[:t] and
        A's rows [f, t) the panel.  The need tokens lie among the n -
        t_start unselected ones, so the loop returns before it ends."""
        v, order, gains, sq = self.v_sq, self.order, self.gains, self._sq
        a, perm, panel, f, lag = self._a, self._perm, self._panel, self._f, self._lag
        for t in range(t_start, v.size):
            if t - f == panel.shape[0]:
                # a walk whose gains ran out has no use for the flush
                if not v.max() > 0.0:
                    return t, need, True
                self._flush(t)
                f, lag = t, self._lag
            p = self._lowest_index_tie(t + int(v[t:].argmax()))
            vj = v[p]
            if not vj > 0.0:
                return t, need, True
            if p >= lag:
                lag = self._catch_up(p)
            # dpstrf order: the winner goes to position t and e covers the
            # positions after it, in A's row t.  Above A's diagonal the
            # winner's row lies in column p before position p and in row p
            # after it; it is read before the token at t moves to position p
            lo = t + 1
            e = a[t, lo:]
            if p != t:
                row = panel[0, lo:]
                row[: p - lo] = a[lo:p, p]
                row[p - lo] = a[t, p]
                row[p - t:] = a[p, p + 1:]
                self._swap(t, p)
                p = t
            else:
                row = e
            tail, s = v[lo:], sq[lo:]
            prod = np.matmul(a[f:t, t], a[f:t, lo:], out=s)
            np.subtract(row, prod, out=e)
            e /= math.sqrt(vj + EPS)
            np.multiply(e, e, out=s)
            tail -= s
            v[p] = -np.inf
            token = int(perm[p])
            order[t] = token
            gains[t] = vj
            if members[token]:
                need -= 1
                if not need:
                    return t + 1, 0, False

    def _lowest_index_tie(self, p: int) -> int:
        """Among the positions whose gain ties that of position p, the
        argmax, the one holding the lowest token index, as the unswapped
        walk would pick."""
        v = self.v_sq
        # argmax returns the first maximum, so ties lie after p; they are
        # rare, so one max over the rest rules them out first
        if p + 1 < v.size and v[p + 1:].max() == v[p]:
            ties = p + np.flatnonzero(v[p:] == v[p])
            return int(ties[np.argmin(self._perm[ties])])
        return p

    def _swap(self, lo: int, hi: int) -> None:
        """Swap the tokens at positions lo < hi, where the token moving to lo
        is being selected: their perm entries, gains and columns of the
        panel A[f:lo] trade places, and the entries of A's upper triangle
        that position lo held against the positions after it go to position
        hi.  Nothing reads position lo's entries of A again, so they are
        left as they are."""
        perm, v, panel = self._perm, self.v_sq, self._a[self._f:lo]
        perm[lo], perm[hi] = perm[hi], perm[lo]
        v[lo], v[hi] = v[hi], v[lo]
        col = self._sq[: lo - self._f]  # _sq is free until the step product
        col[:] = panel[:, lo]
        panel[:, lo] = panel[:, hi]
        panel[:, hi] = col
        _move_upper(self._a, lo, hi)

    def _order_by_gain(self, t: int) -> None:
        """Lay out the positions at the first flush, at step t, where they are
        still tokens and A is all of L: [0, t) get order[:t], [t, n) the
        unselected tokens by descending gain, ties to the lower token index.
        The gains, A and _perm follow in place, and once _permute_upper has
        read A's rows [0, t) they take the panel rows' columns [t, n)."""
        v, sq, new, a = self.v_sq, self._sq, self._perm, self._a
        # the selected gains are -inf and sort last; _perm is the identity
        # until now, and is written in place because _flushed_steps holds it
        new[t:] = np.argsort(np.negative(v, out=sq), kind="stable")[: v.size - t]
        new[:t] = self.order[:t]
        v.take(new, out=sq, mode="clip")
        v[:] = sq
        _permute_upper(a, new, t, sq)
        for i, row in enumerate(self._panel[:t]):
            row.take(new[t:], out=a[i, t:], mode="clip")

    def _flush(self, t: int) -> None:
        """Fold the panel A[f:t] into rows [t, lag) of A (see the module),
        with the panel buffer as GEMM scratch, and start a new panel at t.
        The first flush also lays the positions out by gain (_order_by_gain),
        which moves the panel into A, and sets lag = t, so it folds nothing."""
        a = self._a
        if not self.flushes:
            self._order_by_gain(t)
            self._lag = t
        _fold(a, a[self._f:t], t, self._lag, self._panel.reshape(-1))
        self._f = t
        self.flushes += 1

    def _catch_up(self, p: int) -> int:
        """Fold the flushed coefficient rows A[:f] into rows [lag, min(n, p +
        B)) of A, for a winner p at or past lag, with the panel buffer as
        GEMM scratch, and return the new lag."""
        a, panel, lag = self._a, self._panel, self._lag
        self._lag = min(a.shape[0], p + panel.shape[0])
        _fold(a, a[:self._f], lag, self._lag, panel.reshape(-1))
        self.catch_ups += 1
        return self._lag


def _fold(a: np.ndarray, coef: np.ndarray, lo: int, hi: int, scratch: np.ndarray) -> None:
    """Subtract coef.T @ coef from the upper triangle of rows [lo, hi) of a,
    in row blocks as deep as the flat buffer scratch holds, one GEMM into
    scratch and one subtract each; scratch holds at least n - lo doubles."""
    n = a.shape[0]
    while lo < hi:
        i1 = min(hi, lo + scratch.size // (n - lo))
        prod = np.matmul(coef[:, lo:i1].T, coef[:, lo:],
                         out=scratch[: (i1 - lo) * (n - lo)].reshape(i1 - lo, n - lo))
        block = a[lo:i1, lo:]
        np.subtract(block, prod, out=block)
        lo = i1


def _permute_upper(a: np.ndarray, new: np.ndarray, t: int, row: np.ndarray) -> None:
    """Set the upper triangle of rows [t, n) of the symmetric matrix held
    whole in a to that of a[np.ix_(new, new)], for a permutation new; rows
    [0, t) are left as they are.  The walk follows each cycle of new that
    meets [t, n), so every row is read before it is written, with the
    cycle's first row saved in row, an n-vector of scratch."""
    seen = bytearray(new.size)
    for start in range(t, new.size):
        if seen[start]:
            continue
        row[:] = a[start]
        dst = start
        while not seen[dst]:
            seen[dst] = True
            src = int(new[dst])
            if dst >= t:
                # mode="clip" lets take write into out without a buffer
                (row if src == start else a[src]).take(new[dst:], out=a[dst, dst:],
                                                       mode="clip")
            dst = src


def _move_upper(a: np.ndarray, lo: int, hi: int) -> None:
    """Write position lo's entries of the symmetric matrix stored in a's upper
    triangle over position hi's (lo < hi), against positions after lo."""
    a[lo + 1:hi, hi] = a[lo, lo + 1:hi]
    a[hi, hi + 1:] = a[lo, hi + 1:]
