"""Tests for the vectorized ``u v phi`` formatter.

:func:`repro.graph.csr.format_int_rows` must print exactly what
Python's ``str`` of each int prints, including at the ends of the
int64 range, where a magnitude computed in int64 (``np.abs``) goes
wrong for ``-2**63``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import format_int_rows

np = pytest.importorskip("numpy")

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: values where the digit count or the sign changes
EDGE_VALUES = sorted(
    {INT64_MIN, INT64_MAX, 0}
    | {s * (10**j - d) for j in range(1, 19) for d in (0, 1) for s in (1, -1)}
)

ids = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(-1000, 1000),
)


def reference(*columns) -> bytes:
    return "".join(
        " ".join(map(str, row)) + "\n" for row in zip(*columns)
    ).encode()


@st.composite
def edge_columns(draw):
    n = draw(st.integers(0, 60))
    u = draw(st.lists(ids, min_size=n, max_size=n))
    v = draw(st.lists(ids, min_size=n, max_size=n))
    k = draw(st.lists(st.integers(2, 120), min_size=n, max_size=n))
    return u, v, k


class TestFormatIntRows:
    @settings(max_examples=200, deadline=None)
    @given(edge_columns())
    def test_matches_str(self, cols):
        arrays = [np.array(c, dtype=np.int64) for c in cols]
        assert format_int_rows(*arrays) == reference(*cols)

    def test_every_edge_value(self):
        col = np.array(EDGE_VALUES, dtype=np.int64)
        rev = col[::-1].copy()
        phi = np.arange(2, 2 + len(col), dtype=np.int64)
        assert format_int_rows(col, rev, phi) == reference(
            EDGE_VALUES, EDGE_VALUES[::-1], phi.tolist()
        )

    def test_empty_columns(self):
        empty = np.zeros(0, dtype=np.int64)
        assert format_int_rows(empty, empty, empty) == b""

    def test_single_column(self):
        col = np.array([INT64_MIN, -1, 0, 7, INT64_MAX], dtype=np.int64)
        assert format_int_rows(col) == reference(col.tolist())
