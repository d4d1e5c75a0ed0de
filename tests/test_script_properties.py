"""Property tests for the script_select contract: exactly m distinct kept
tokens, and a selection that does not change when token rows are scaled
by powers of two (an exact operation, so the selection must be identical,
not merely close)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from tokensieve.fusion import script_select  # noqa: E402

TAGS = {"intersection", "qcsp-fill"}
small_ints = st.integers(-3, 3).map(float)


@st.composite
def cases(draw):
    """Token rows drawn from a few distinct small-integer rows, so duplicates,
    zero rows and n >> d are common; an optional query; a budget; a GSP keep
    count (None for the default; below m the fill branch runs); and a
    power-of-two exponent per token row plus one for the whole query."""
    n = draw(st.integers(1, 48))
    d = draw(st.integers(1, 12))
    base = draw(hnp.arrays(np.float64, (draw(st.integers(1, n)), d), elements=small_ints))
    rows = draw(hnp.arrays(np.int64, n, elements=st.integers(0, base.shape[0] - 1)))
    h_v = base[rows]
    h_v[draw(hnp.arrays(np.bool_, n))] = 0.0
    h_q = None
    if draw(st.booleans()):
        h_q = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)), d), elements=small_ints))
    m = draw(st.integers(1, n))
    row_exp = draw(hnp.arrays(np.int64, n, elements=st.integers(-8, 8)))
    gsp_keep = draw(st.none() | st.integers(1, n))
    return h_v, h_q, m, gsp_keep, row_exp, draw(st.integers(-8, 8))


def scaled(h_v, h_q, row_exp, q_exp):
    h_q = None if h_q is None else np.ldexp(h_q, q_exp)
    return np.ldexp(h_v, row_exp[:, None]), h_q


@settings(max_examples=80, deadline=None)
@given(cases())
@example((np.array([[2.0, -1.0]]), np.array([[1.0, 1.0]]), 1, None,
          np.array([3]), -2))  # n = 1
@example((np.array([[1.0], [-2.0], [0.0], [3.0], [1.0]]), None, 5, 2,
          np.array([0, 1, 2, -3, 5]), 0))  # d = 1, m = n, zero row, duplicates
@example((np.tile(np.eye(2), (20, 1)), np.array([[1.0, 0.0]]), 40, None,
          np.arange(40) % 7 - 3, 1))  # n >> d, m = n
def test_kept_is_m_distinct_tokens_and_invariant_to_power_of_two_scaling(case):
    h_v, h_q, m, gsp_keep, row_exp, q_exp = case
    n = h_v.shape[0]
    sel = script_select(h_v, h_q, m, gsp_keep=gsp_keep)
    assert len(sel.kept) == m == len(set(sel.kept))
    assert all(0 <= i < n for i in sel.kept)
    assert len(sel.stage_tags) == m and set(sel.stage_tags) <= TAGS
    assert sel.n_original == n

    again = script_select(*scaled(h_v, h_q, row_exp, q_exp), m, gsp_keep=gsp_keep)
    assert again.kept == sel.kept
    assert again.stage_tags == sel.stage_tags
