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
turns S into L = diag(r) S diag(r) in place.

Input contract: token and query values are finite and the query has the
tokens' width.  `prepare` raises `InputError` (a ValueError) otherwise;
it finds a non-finite token from the normalized rows, so the check costs
O(n) on top of the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Tokens or a query that break the input contract (non-finite values,
    or a query whose width differs from the tokens')."""


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero rows stay zero.

    A row whose squared norm overflows, or underflows to 0 although the
    row is nonzero, is divided by its max-abs first, so [1e200] * 4 and
    [1e-200] * 4 both become unit rows; every other row is divided by its
    norm directly.  A row holding a NaN or an infinity comes out all NaN.
    """
    m = np.asarray(m, dtype=np.float64)
    # the rows that overflow, underflow or hold a NaN are redone below
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        safe = np.where(norms > 0.0, norms, 1.0)
        out = m / safe
        # zero rows land here too and are left as they are (max-abs 0)
        odd = np.flatnonzero(~((norms[:, 0] > 0.0) & (norms[:, 0] < np.inf)))
        if odd.size:
            rows = m[odd]
            scale = np.abs(rows).max(axis=1, keepdims=True, initial=0.0)
            nonzero = scale[:, 0] != 0.0
            rows = rows[nonzero] / scale[nonzero]
            out[odd[nonzero]] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return out


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosines, entry (i, j) = cos(a_i, b_j); 0 when either row is zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts must match, got {a.shape} and {b.shape}")
    return l2_normalize_rows(a) @ l2_normalize_rows(b).T


def mean_pool(q: np.ndarray) -> np.ndarray:
    """Elementwise mean over rows (the pooled query embedding)."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] < 1:
        raise ValueError("mean_pool needs at least one row")
    return q.mean(axis=0)


def relevance_scores(h_v: np.ndarray, h_mu: np.ndarray) -> np.ndarray:
    """Raw relevance r_i = cos(h_i, h_mu), in [-1, 1]."""
    h_mu = np.asarray(h_mu, dtype=np.float64)
    if h_mu.ndim != 1:
        raise ValueError("h_mu must be a vector")
    # exactly the single-column cosine matrix, so the two paths never diverge
    return cosine_similarity_matrix(h_v, h_mu[None, :])[:, 0]


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

    Raises InputError for a non-finite token or query value and for a
    query whose width differs from the tokens'.
    """
    h_v = np.asarray(h_v, dtype=np.float64)
    if h_v.ndim != 2:
        raise ValueError(f"tokens must be a 2-d array, got shape {h_v.shape}")
    unit = l2_normalize_rows(h_v)
    # a row holding a NaN or an infinity comes out all NaN, so one column
    # shows them all (with d = 0 there is nothing to check)
    if unit.shape[1]:
        bad = np.flatnonzero(np.isnan(unit[:, 0]))
        if bad.size:
            raise InputError(f"token row {bad[0]} holds a non-finite value")
    relevance_raw = None
    relevance = np.ones(h_v.shape[0])
    if h_q is not None:
        mu = mean_pool(h_q)
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
