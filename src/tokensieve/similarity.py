"""Cosine similarity, pooling, normalization, and the prepared instance.

Shared by the redundancy graph (GSP side) and the greedy walk (QCSP
side).  The public functions take real input (dtype bool, int, uint or
float; InputError otherwise) and promote it to float64.  Zero-norm rows
get cosine 0 by convention, which makes an all-zero token maximally
non-redundant and non-relevant.

`prepare` computes, once per selection, what both stages read: the token
rows H as one C-contiguous float64 array, the inverse norm 1/||h_i|| of
each row (0 for a zero row), the relevance r_i = cos(h_i, mu) of each
row to the pooled query mu, min-max normalized into (0, 1], and
optionally the cosine matrix S.  Every cosine it hands out is a product
of raw rows times inverse norms: S = G * (inv_i * inv_j) with the Gram
G = H @ H.T, whose diagonal gives the squared norms, and the relevance
(H @ mu/||mu||) * inv_i.  So a selection writes no n x d array: it
reads its tokens, with a query, in one gemv, and then in the syrk, which
finds the rows the streaming gemv pulled into cache, and `Prepared.unit`
computes the unit rows only for code that reads them.
GSP reads its even x odd cosine block from S (or forms it the same way
from the rows), and the greedy walk turns S into L = diag(r) S
diag(r) in place, both through `scale_outer`.  It is the only place
relevance is scored: `relevance_scores` returns its raw relevance.
`l2_normalize_rows`, with no row blocks, sees only the pooled query,
the rare out-of-range rows below and `Prepared.unit`'s tokens.

Range.  A row's raw products give cosines at full precision when its
squared norm lies in [NORM_SQ_MIN, NORM_SQ_MAX] = [2^-1022, 2^1022].
For two such rows each product h_ik * h_jk is either a normal float,
within a relative eps/2 of its exact value, or smaller than 2^-1022,
where its absolute error of at most 2^-1075 is again under
eps/2 * ||h_i|| ||h_j||, because ||h_i|| ||h_j|| >= 2^-1022; no partial
sum overflows, because Cauchy-Schwarz bounds it by ||h_i|| ||h_j|| <=
2^1022; and the scale inv_i * inv_j lies in [2^-1022, 2^1022], so it is
a normal float.  Each cosine thus has the error bound of a product of
unit rows.  A finite nonzero row outside the range (its squared norm
overflows, underflows or is subnormal) is replaced by its unit row from
`l2_normalize_rows` before the products, and the gemv and the Gram are
taken again; that is rare, and costs one n x d copy.

Input contract: the tokens are a 2-d array of finite real values (dtype
bool, int, uint or float) with at least one column; the query, if any,
is a finite real 2-d array of at least one row with the tokens' width
and a finite mean, against at least one token row; and the Gram, when
one is asked for, fits in MAX_GRAM_BYTES (8*n^2 bytes, so n <= 16384).
`prepare` raises `InputError` (a ValueError) naming the input otherwise.
It checks the size before it computes anything and the query before it
reads a token row.  Then it takes the rows' gemv with the pooled query,
then the Gram, and finds a non-finite token from the Gram's squared
norms, which a NaN or an infinity takes out of the range, so that check
costs O(n) on top of them.  Input whose tokens and query both break the
contract is refused for its query.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class InputError(ValueError):
    """Tokens or a query that break the input contract (see the module)."""


def _real_array(a, name: str) -> np.ndarray:
    """a as float64; InputError unless its dtype is bool, int, uint or float."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise InputError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def _integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int.  ValueError naming name for a bool or a
    non-index, and for a value outside [lo, hi] (None: no bound; a hi
    needs a lo): "{name} must lie in [{lo}, {hi}], got {v}", or with no
    hi "{name} must be >= {lo}, got {v}"."""
    try:
        v = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        v = None
    if v is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= v <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {v}")
    if lo is not None and v < lo:
        raise ValueError(f"{name} must be >= {lo}, got {v}")
    return v


def _real(name: str, value) -> float:
    """value as a Python float; ValueError naming name for a bool or a value
    that is not a real number (numpy floats and integers are real)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


# the largest Gram prepare builds; the greedy walk scales it into L and runs in
# its buffer, so this bounds a selection's n x n memory
MAX_GRAM_BYTES = 2 << 30

# the squared norms whose rows go into the products as they are (see the
# module)
NORM_SQ_MIN = 2.0**-1022
NORM_SQ_MAX = 2.0**1022


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero rows stay zero.

    Every ordinary row is bit for bit m_i / np.linalg.norm(m, axis=1)_i of
    a C-ordered m, whatever m's own memory layout.  A nonzero row whose
    squared norm overflows, or underflows to 0 or to a subnormal, is
    divided by its max-abs first, so [1e200] * 4, [1e-200] * 4 and
    [1e-160, 0] all become unit rows.  A row holding a NaN or an infinity
    comes out all NaN.  InputError unless m is a 2-d array of real dtype.
    """
    m = _real_array(m, "rows")
    if m.ndim != 2:
        raise InputError(f"rows must be a 2-d array, got shape {m.shape}")
    m = np.ascontiguousarray(m)
    # the rows that overflow, underflow or hold a NaN are redone below
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce(m * m, axis=1))
        out = m / np.where(norms > 0.0, norms, 1.0)[:, None]
        # zero rows land here too and are left as they are (max-abs 0); a
        # norm under 2^-511 is the root of a subnormal square, short of bits
        odd = np.flatnonzero(~((norms >= 2.0**-511) & (norms < np.inf)))
        if odd.size:
            rows = m[odd]
            scale = np.abs(rows).max(axis=1, keepdims=True, initial=0.0)
            nonzero = scale[:, 0] != 0.0
            rows = rows[nonzero] / scale[nonzero]
            out[odd[nonzero]] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return out


def mean_pool(q: np.ndarray) -> np.ndarray:
    """Elementwise mean over rows (the pooled query embedding); InputError
    unless q is a 2-d array of real dtype with at least one row."""
    q = _real_array(q, "query")
    if q.ndim != 2 or q.shape[0] == 0:
        raise InputError(f"the query must be a 2-d array of at least one row, "
                         f"got shape {q.shape}")
    return q.mean(axis=0)


RELEVANCE_FLOOR = 1e-6


def min_max_normalize(v: np.ndarray) -> np.ndarray:
    """Map to [0, 1] by (v - min)/(max - min), then floor at 1e-6.

    A constant vector maps to all ones: uniform relevance must degrade
    the kernel to pure diversity, not to zero.  The floor keeps every
    token selectable when the budget approaches n.  InputError unless v's
    dtype is real and its values are finite.
    """
    v = _real_array(v, "values")
    if v.ndim != 1 or v.size == 0:
        raise ValueError("min_max_normalize needs a nonempty vector")
    # min and max carry a NaN or an infinity through
    lo, hi = float(v.min()), float(v.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError("values must be finite")
    if hi == lo:
        return np.ones_like(v)
    if hi - lo == math.inf:
        # a span of finite values that overflows: halved, every difference fits
        v, lo, hi = v / 2.0, lo / 2.0, hi / 2.0
    return np.maximum((v - lo) / (hi - lo), RELEVANCE_FLOOR)


# scale_outer works over row blocks of about this many bytes
SCALE_BLOCK_BYTES = 256 << 10


def scale_outer(s: np.ndarray, r: np.ndarray, c: np.ndarray) -> None:
    """Set s[i, j] = s[i, j] * (r_i * c_j) in place, in one pass over row
    blocks that are scaled while they are in cache.  With c = r, r_i * r_j
    and r_j * r_i are the same product, so an exactly symmetric s stays
    exactly symmetric."""
    n = s.shape[1]
    step = max(1, SCALE_BLOCK_BYTES // (8 * max(n, 1)))
    outer = np.empty((min(s.shape[0], step), n))
    for i0 in range(0, s.shape[0], step):
        i1 = min(s.shape[0], i0 + step)
        rc = outer[: i1 - i0]
        np.multiply(r[i0:i1, None], c, out=rc)
        rows = s[i0:i1]
        rows *= rc


@dataclass
class Prepared:
    """The quantities one selection shares between its stages.

    tokens: the (n, d) float64 token rows as given.
    rows: the same rows as one C-contiguous array (tokens itself when it is
        one), except that a finite nonzero row whose squared norm lies
        outside [NORM_SQ_MIN, NORM_SQ_MAX] is its unit row (in a copy).
        Every cosine is a product of these rows times inv_norm.
    inv_norm: 1/||rows_i||, read off the Gram's diagonal; 0 for a zero row.
    relevance: normalized relevance in (0, 1]; all ones without a query.
    relevance_raw: cos(h_i, pooled query) in [-1, 1]; None without a query.
    gram: the cosines S = (rows @ rows.T) * (inv_i * inv_j), exactly
        symmetric, or None when they were not built.  A greedy walk of this
        instance (qcsp.GreedyState) takes the buffer, sets gram to None and
        scales it into L, so views of it taken earlier (GSP's cross block)
        change with it.
    unit: the (n, d) unit token rows, l2_normalize_rows(tokens), computed on
        first read and kept; no selection reads them.
    """

    tokens: np.ndarray
    rows: np.ndarray
    inv_norm: np.ndarray
    relevance: np.ndarray
    relevance_raw: np.ndarray | None
    gram: np.ndarray | None

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def unit(self) -> np.ndarray:
        return l2_normalize_rows(self.tokens)


def _rows_in_range(h: np.ndarray, sq: np.ndarray) -> np.ndarray | None:
    """Check the rows of h whose squared norm sq lies outside [NORM_SQ_MIN,
    NORM_SQ_MAX], zero rows among them.  Raises InputError naming the first
    one that holds a NaN or an infinity.  Returns None when all of them are
    zero rows, else a copy of h in which the others are unit rows."""
    odd = np.flatnonzero(~((sq >= NORM_SQ_MIN) & (sq <= NORM_SQ_MAX)))
    if not odd.size:
        return None
    rows = h[odd]
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise InputError(f"token row {odd[np.argmin(finite)]} holds a non-finite value")
    fix = odd[rows.any(axis=1)]
    if not fix.size:
        return None
    h = h.copy()
    h[fix] = l2_normalize_rows(h[fix])
    return h


def _row_products(h: np.ndarray, mu: np.ndarray | None,
                  gram: bool) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """h @ mu (None without mu), h @ h.T (None without gram) and the squared
    norms of h's rows."""
    # a row out of range may overflow, and inf * 0 is invalid: _rows_in_range
    # finds such rows from the squared norms
    with np.errstate(over="ignore", invalid="ignore"):
        # the streaming gemv pulls the rows into cache, where the syrk reads them
        raw = None if mu is None else h @ mu
        if not gram:
            return raw, None, np.einsum("ij,ij->i", h, h)
        # numpy runs a @ a.T as one syrk and copies the triangle it computed
        # onto the other one, so the Gram is exactly symmetric
        g = h @ h.T
    return raw, g, g.diagonal().copy()


def prepare(h_v: np.ndarray, h_q=None, gram: bool = True) -> Prepared:
    """Take the token rows' inverse norms, the cosines S (with gram) and
    the relevance to the pooled query, each from one pass over the rows.

    Raises InputError for tokens or a query that break the input contract
    (see the module), including, with gram, an n whose 8*n^2-byte Gram
    exceeds MAX_GRAM_BYTES.  The query is checked before the token rows'
    values.
    """
    h_v = _real_array(h_v, "tokens")
    if h_v.ndim != 2 or h_v.shape[1] == 0:
        raise InputError(f"tokens must be a 2-d array of at least one column, "
                         f"got shape {h_v.shape}")
    n = h_v.shape[0]
    if gram and 8 * n * n > MAX_GRAM_BYTES:
        raise InputError(f"{n} tokens need a {8 * n * n / 2**30:.2f} GiB similarity "
                         f"matrix, over the {MAX_GRAM_BYTES / 2**30:g} GiB limit "
                         f"(at most {math.isqrt(MAX_GRAM_BYTES // 8)} tokens)")
    mu = None
    if h_q is not None:
        if n == 0:
            raise InputError("the token matrix has 0 rows, so there is no relevance "
                             "to score against the query")
        # a mean that overflows is caught as non-finite below
        with np.errstate(over="ignore"):
            mu = mean_pool(h_q)
        if mu.shape[0] != h_v.shape[1]:
            raise InputError(f"query width {mu.shape[0]} does not match token width "
                             f"{h_v.shape[1]}")
        mu = l2_normalize_rows(mu[None, :])[0]
        if not np.isfinite(mu).all():
            raise InputError("query holds a non-finite value (or its mean overflows)")
    h = np.ascontiguousarray(h_v)
    raw, s, sq = _row_products(h, mu, gram)
    fixed = _rows_in_range(h, sq)
    if fixed is not None:
        h = fixed
        raw, s, sq = _row_products(h, mu, gram)
    inv_norm = np.zeros(n)
    np.divide(1.0, np.sqrt(sq), out=inv_norm, where=sq > 0.0)
    if s is not None:
        scale_outer(s, inv_norm, inv_norm)
    relevance = np.ones(n)
    if raw is not None:
        raw *= inv_norm
        relevance = min_max_normalize(raw)
    return Prepared(h_v, h, inv_norm, relevance, raw, s)


def relevance_scores(h_v: np.ndarray, h_mu: np.ndarray) -> np.ndarray:
    """Raw relevance r_i = cos(h_i, h_mu), in [-1, 1]: `prepare`'s relevance_raw."""
    if np.ndim(h_mu) != 1:
        raise ValueError("h_mu must be a vector")
    return prepare(h_v, np.reshape(h_mu, (1, -1)), gram=False).relevance_raw
