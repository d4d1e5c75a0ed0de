"""Query-conditioned kernel construction and greedy MAP selection.

The kernel is L = diag(r) S diag(r), entry (i, j) = S(i,j) * r_i * r_j,
where S = U @ U.T is the Gram matrix of the l2-normalized token rows u
and r is the normalized relevance (see similarity.prepare).  Built from
a prepared instance, the kernel takes over the instance's Gram buffer,
scales its lower triangle in place and mirrors it onto the upper one:
no second n x n matrix and no scaled copy of the rows are made, and L
is exactly symmetric.  Greedy MAP maintains, per candidate, the residual
gain v_i^2 (the determinant ratio a selection would contribute) and a
coefficient vector u_i via incremental Cholesky updates:

    j      = argmax over unselected i of v_i^2   (ties: lower index)
    e_i    = (L(j,i) - <u_j, u_i>) / sqrt(v_j^2 + eps)
    u_i   += [e_i]
    v_i^2 -= e_i^2

Candidates whose v^2 has fallen to <= 0 are never picked; if none are
positive the kernel rank is exhausted and the remaining budget is
padded by ascending index so callers always get exactly k indices.

Two step-loop backends exist: a compiled one (tokensieve._native) and a
numpy one, chosen at import with identical selection semantics.
"""

from __future__ import annotations

import numpy as np

# l2_normalize_rows is no longer called here; it stays importable from this
# module because the benchmark's tracer (perfbench/spans.py) wraps it by name
from .similarity import Prepared, l2_normalize_rows, prepare  # noqa: F401

try:
    from ._native import greedy_steps as _native_steps
except ImportError:
    _native_steps = None

EPS = 1e-6
MATERIALIZE_THRESHOLD = 4096


def available_backends() -> tuple[str, ...]:
    return ("native", "python") if _native_steps is not None else ("python",)


def default_backend() -> str:
    return available_backends()[0]


class DppKernel:
    """Relevance-reweighted similarity kernel, materialized or row-on-demand.

    L = diag(relevance) @ (unit_rows @ unit_rows.T) @ diag(relevance) is
    symmetric PSD by construction with diagonal relevance^2 (zero-embedding
    rows get diagonal 0).  Matrices up to materialize_threshold rows are
    stored densely, in the buffer of `gram` (the unit-row Gram, scaled in
    place) when one is given; beyond that only the unit rows and the
    relevance are kept and rows are computed on demand, which is all
    greedy MAP needs.
    """

    def __init__(self, unit_rows: np.ndarray, relevance: np.ndarray,
                 materialize_threshold: int = MATERIALIZE_THRESHOLD,
                 gram: np.ndarray | None = None):
        self.unit = unit_rows
        self.relevance = relevance
        self.n = unit_rows.shape[0]
        self.materialize_threshold = materialize_threshold
        self._gram = gram
        self._L = None
        if gram is not None or self.n <= materialize_threshold:
            self.materialize()

    @property
    def materialized(self) -> bool:
        return self._L is not None

    def materialize(self) -> np.ndarray:
        if self._L is None:
            gram = self.unit @ self.unit.T if self._gram is None else self._gram
            self._gram = None
            _scale_lower(gram, self.relevance)
            # scale first, then mirror: (S_ij r_i) r_j and (S_ji r_j) r_i
            # differ in the last bit, so scaling both triangles would break
            # exact symmetry
            _mirror_lower(gram)
            self._L = gram
        return self._L

    def row(self, j: int) -> np.ndarray:
        if self._L is not None:
            return self._L[j]
        return (self.unit @ self.unit[j]) * self.relevance * self.relevance[j]

    def entry(self, i: int, j: int) -> float:
        if self._L is not None:
            return float(self._L[i, j])
        return float(self.unit[i] @ self.unit[j] * self.relevance[i] * self.relevance[j])

    def diagonal(self) -> np.ndarray:
        if self._L is not None:
            return np.diagonal(self._L).copy()
        r = self.relevance
        return np.einsum("ij,ij->i", self.unit, self.unit) * r * r


_BLOCK = 128


def _scale_lower(a: np.ndarray, r: np.ndarray) -> None:
    """Set a[i, j] = (a[i, j] * r_i) * r_j on and below the diagonal, in place,
    over row blocks so each block is scaled while it is in cache."""
    n = a.shape[0]
    for i0 in range(0, n, _BLOCK):
        i1 = min(n, i0 + _BLOCK)
        rows = a[i0:i1, :i1]
        rows *= r[i0:i1, None]
        rows *= r[:i1]


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the strict lower triangle of square `a` onto its upper one, in place.

    Works over row blocks so no n x n temporary is made; the result is
    np.array_equal to np.tril(a) + np.tril(a, -1).T.
    """
    n = a.shape[0]
    for i0 in range(0, n, _BLOCK):
        i1 = min(n, i0 + _BLOCK)
        diag = a[i0:i1, i0:i1]
        upper = np.triu_indices(i1 - i0, 1)
        diag[upper] = diag.T[upper]
        a[i0:i1, i1:] = a[i1:, i0:i1].T


def build_kernel(h_v: np.ndarray | Prepared, r_norm: np.ndarray,
                 materialize_threshold: int = MATERIALIZE_THRESHOLD) -> DppKernel:
    """The kernel of token rows (or a prepared instance) and a normalized
    relevance; a materialized kernel takes over the instance's Gram."""
    prep = h_v if isinstance(h_v, Prepared) else prepare(h_v, gram=False)
    r = np.asarray(r_norm, dtype=np.float64)
    if r.ndim != 1 or prep.n != r.shape[0]:
        raise ValueError(f"shape mismatch: tokens {prep.unit.shape}, relevance {r.shape}")
    if r.size and (r.min() < -1e-12 or r.max() > 1.0 + 1e-12):
        raise ValueError("normalized relevance must lie in [0, 1]")
    gram = prep.take_gram() if prep.n <= materialize_threshold else None
    return DppKernel(prep.unit, r, materialize_threshold, gram)


class GreedyState:
    """Resumable greedy MAP state; extend(k) is prefix-consistent.

    v_sq holds residual gains (selected entries are parked at -inf),
    order/gains record each step's winner and its v^2 at selection time,
    and coefficients(i) returns the candidate's Cholesky row u_i.
    """

    def __init__(self, kernel: DppKernel, eps: float = EPS, backend: str | None = None):
        if backend is None:
            backend = "native" if (_native_steps is not None and kernel.materialized) else "python"
        if backend == "native":
            if _native_steps is None:
                raise ValueError("native backend is not built")
            kernel.materialize()
        elif backend != "python":
            raise ValueError(f"unknown backend {backend!r}")
        self.kernel = kernel
        self.backend = backend
        self.eps = float(eps)
        n = kernel.n
        self.v_sq = kernel.diagonal().astype(np.float64)
        self.selected = np.zeros(n, dtype=np.uint8)
        self.order = np.full(n, -1, dtype=np.int64)
        self.gains = np.zeros(n)
        self.exhausted = False
        self.t = 0
        self._cis = None  # (cap, n) for python, (n, cap) for native

    def _ensure_capacity(self, k: int) -> None:
        cap = 0 if self._cis is None else (
            self._cis.shape[0] if self.backend == "python" else self._cis.shape[1])
        if k <= cap:
            return
        new_cap = min(self.kernel.n, max(k, 2 * cap, 16))
        n = self.kernel.n
        if self.backend == "python":
            fresh = np.empty((new_cap, n))
            if self.t:
                fresh[: self.t] = self._cis[: self.t]
        else:
            fresh = np.empty((n, new_cap))
            if self.t:
                fresh[:, : self.t] = self._cis[:, : self.t]
        self._cis = fresh

    def coefficients(self, i: int) -> np.ndarray:
        if self.t == 0:
            return np.zeros(0)
        if self.backend == "python":
            return self._cis[: self.t, i].copy()
        return self._cis[i, : self.t].copy()

    def extend(self, k: int) -> None:
        """Grow the selection order to length k (no-op if already there)."""
        n = self.kernel.n
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        if k <= self.t:
            return
        if not self.exhausted:
            self._ensure_capacity(k)
            if self.backend == "native":
                t_done, ex = _native_steps(
                    self.kernel.materialize(), self._cis, self.v_sq, self.selected,
                    self.order, self.gains, self.t, k, self.eps)
            else:
                t_done, ex = self._python_steps(self.t, k)
            self.t = t_done
            self.exhausted = bool(ex)
        if self.exhausted and self.t < k:
            # kernel rank exhausted: pad by ascending index to honor the budget
            pad = np.flatnonzero(self.selected == 0)[: k - self.t]
            for idx in pad:
                self.order[self.t] = idx
                self.gains[self.t] = 0.0
                self.selected[idx] = 1
                self.v_sq[idx] = -np.inf
                self.t += 1

    def _python_steps(self, t_start: int, t_stop: int) -> tuple[int, bool]:
        v = self.v_sq
        cis = self._cis
        kernel = self.kernel
        for t in range(t_start, t_stop):
            j = int(np.argmax(v))
            vj = v[j]
            if not vj > 0.0:
                return t, True
            denom = np.sqrt(vj + self.eps)
            row = kernel.row(j)
            if t == 0:
                eis = row / denom
            else:
                eis = (row - cis[:t, j] @ cis[:t, :]) / denom
            cis[t, :] = eis
            v -= eis * eis
            v[j] = -np.inf
            self.selected[j] = 1
            self.order[t] = j
            self.gains[t] = vj
        return t_stop, False


def greedy_map(kernel: DppKernel, k: int, eps: float = EPS,
               backend: str | None = None) -> list[int]:
    """Exactly k distinct indices in selection order."""
    state = GreedyState(kernel, eps=eps, backend=backend)
    state.extend(k)
    return [int(i) for i in state.order[:k]]


def qcsp_select(h_v: np.ndarray, h_q, k: int,
                eps: float = EPS, backend: str | None = None) -> list[int]:
    """Relevance scoring against the pooled query, then greedy MAP.

    Without a query (h_q None) relevance is uniform and the selection is
    pure diversity.
    """
    h_v = np.asarray(h_v, dtype=np.float64)
    prep = prepare(h_v, h_q, gram=h_v.shape[0] <= MATERIALIZE_THRESHOLD)
    return greedy_map(build_kernel(prep, prep.relevance), k, eps=eps, backend=backend)
