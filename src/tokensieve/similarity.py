"""Cosine similarity, pooling, normalization, and the prepared instance.

Shared by the redundancy graph (GSP side) and the kernel builder (QCSP
side).  All functions promote to float64.  Zero-norm rows get cosine 0
by convention, which makes an all-zero token maximally non-redundant
and non-relevant.

`prepare` computes, once per selection, what both stages read: the unit
token rows U (one l2 normalization of the n rows), the relevance
r_i = cos(u_i, mu) of each row to the pooled query mu, min-max
normalized into (0, 1], and optionally the unit-row Gram S = U @ U.T.
GSP reads its even x odd cosine block from S and the kernel builder
turns S into L = diag(r) S diag(r) in place.  It is the only place
token rows are normalized and relevance is scored: `relevance_scores`
returns its raw relevance.

Input contract: the tokens are a 2-d array of finite values; the query,
if any, is a finite 2-d array of at least one row with the tokens' width
and a finite mean, against at least one token row; and the Gram, when
one is asked for, fits in MAX_GRAM_BYTES (8*n^2 bytes, so n <= 16384).
`prepare` raises `InputError` (a ValueError) naming the input otherwise.
It checks the size before it normalizes anything, and it finds a
non-finite token from the normalized rows, so that check costs O(n) on
top of the normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Tokens or a query that break the input contract (see the module)."""


# the largest unit-row Gram prepare builds; the kernel and the greedy walk
# run in its buffer, so this bounds a selection's n x n memory
MAX_GRAM_BYTES = 2 << 30


# l2_normalize_rows works over row blocks of about this many bytes, so each
# block is squared, summed and divided while it is in cache
NORMALIZE_BLOCK_BYTES = 512 << 10


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero rows stay zero.

    Works over row blocks of about NORMALIZE_BLOCK_BYTES: each block is
    squared into one reused buffer, summed per row with np.add.reduce,
    and divided into a preallocated output, so no n x d temporary is
    made.  Every ordinary row is bit for bit m_i / np.linalg.norm(m_i) of
    a C-ordered m, whatever m's own memory layout.  A row whose squared
    norm overflows, or underflows to 0 although the row is nonzero, is
    divided by its max-abs first, so [1e200] * 4 and [1e-200] * 4 both
    become unit rows.  A row holding a NaN or an infinity comes out all
    NaN.
    """
    m = np.asarray(m, dtype=np.float64)
    n, d = m.shape
    out = np.empty((n, d))
    norms = np.empty(n)
    step = max(1, NORMALIZE_BLOCK_BYTES // (8 * max(d, 1)))
    square = np.empty((min(n, step), d))
    # the rows that overflow, underflow or hold a NaN are redone below
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for i0 in range(0, n, step):
            i1 = min(n, i0 + step)
            rows, sq, norm = m[i0:i1], square[: i1 - i0], norms[i0:i1]
            np.multiply(rows, rows, out=sq)
            np.add.reduce(sq, axis=1, out=norm)
            np.sqrt(norm, out=norm)
            np.divide(rows, np.where(norm > 0.0, norm, 1.0)[:, None], out=out[i0:i1])
        # zero rows land here too and are left as they are (max-abs 0)
        odd = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
        if odd.size:
            rows = m[odd]
            scale = np.abs(rows).max(axis=1, keepdims=True, initial=0.0)
            nonzero = scale[:, 0] != 0.0
            rows = rows[nonzero] / scale[nonzero]
            out[odd[nonzero]] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return out


def mean_pool(q: np.ndarray) -> np.ndarray:
    """Elementwise mean over rows (the pooled query embedding)."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] < 1:
        raise ValueError("mean_pool needs at least one row")
    return q.mean(axis=0)


RELEVANCE_FLOOR = 1e-6


def min_max_normalize(v: np.ndarray) -> np.ndarray:
    """Map to [0, 1] by (v - min)/(max - min), then floor at 1e-6.

    A constant vector maps to all ones: uniform relevance must degrade
    the kernel to pure diversity, not to zero.  The floor keeps every
    token selectable when the budget approaches n.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("min_max_normalize needs a nonempty vector")
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.ones_like(v)
    return np.maximum((v - lo) / (hi - lo), RELEVANCE_FLOOR)


@dataclass
class Prepared:
    """The quantities one selection shares between its stages.

    unit: (n, d) unit token rows.
    relevance: normalized relevance in (0, 1]; all ones without a query.
    relevance_raw: cos(u_i, pooled query) in [-1, 1]; None without a query.
    gram: the unit-row Gram U @ U.T, exactly symmetric, or None when it was
        not built.  A kernel built from this instance takes the buffer over
        and scales it into L, so views of it taken earlier (GSP's cross
        block) change with it.
    """

    unit: np.ndarray
    relevance: np.ndarray
    relevance_raw: np.ndarray | None
    gram: np.ndarray | None

    @property
    def n(self) -> int:
        return self.unit.shape[0]

    def take_gram(self) -> np.ndarray | None:
        """Hand the Gram buffer over to a caller that overwrites it."""
        gram, self.gram = self.gram, None
        return gram


def prepare(h_v: np.ndarray, h_q=None, gram: bool = True) -> Prepared:
    """Normalize the token rows and the pooled query once; score relevance.

    Raises InputError for tokens or a query that break the input contract
    (see the module), including, with gram, an n whose 8*n^2-byte Gram
    exceeds MAX_GRAM_BYTES.
    """
    h_v = np.asarray(h_v, dtype=np.float64)
    if h_v.ndim != 2:
        raise InputError(f"tokens must be a 2-d array, got shape {h_v.shape}")
    n = h_v.shape[0]
    if gram and 8 * n * n > MAX_GRAM_BYTES:
        raise InputError(f"{n} tokens need a {8 * n * n / 2**30:.2f} GiB similarity "
                         f"matrix, over the {MAX_GRAM_BYTES / 2**30:g} GiB limit "
                         f"(at most {math.isqrt(MAX_GRAM_BYTES // 8)} tokens)")
    unit = l2_normalize_rows(h_v)
    # a row holding a NaN or an infinity comes out all NaN, so one column
    # shows them all (with d = 0 there is nothing to check)
    if unit.shape[1]:
        bad = np.flatnonzero(np.isnan(unit[:, 0]))
        if bad.size:
            raise InputError(f"token row {bad[0]} holds a non-finite value")
    relevance_raw = None
    relevance = np.ones(n)
    if h_q is not None:
        if n == 0:
            raise InputError("the token matrix has 0 rows, so there is no relevance "
                             "to score against the query")
        q = np.asarray(h_q, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] == 0:
            raise InputError(f"the query must be a 2-d array of at least one row, "
                             f"got shape {q.shape}")
        # a mean that overflows is caught as non-finite below
        with np.errstate(over="ignore"):
            mu = mean_pool(q)
        if mu.shape[0] != h_v.shape[1]:
            raise InputError(f"query width {mu.shape[0]} does not match token width "
                             f"{h_v.shape[1]}")
        mu = l2_normalize_rows(mu[None, :])[0]
        if not np.isfinite(mu).all():
            raise InputError("query holds a non-finite value (or its mean overflows)")
        relevance_raw = unit @ mu
        relevance = min_max_normalize(relevance_raw)
    # numpy runs a @ a.T as one syrk and copies the triangle it computed
    # onto the other one, so the Gram is exactly symmetric
    return Prepared(unit, relevance, relevance_raw, unit @ unit.T if gram else None)


def relevance_scores(h_v: np.ndarray, h_mu: np.ndarray) -> np.ndarray:
    """Raw relevance r_i = cos(h_i, h_mu), in [-1, 1]: `prepare`'s relevance_raw."""
    if np.ndim(h_mu) != 1:
        raise ValueError("h_mu must be a vector")
    return prepare(h_v, np.reshape(h_mu, (1, -1)), gram=False).relevance_raw
