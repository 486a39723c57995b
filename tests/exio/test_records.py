"""Unit tests for repro.exio.records."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.exio import ATTR_EDGE, BlockReader, BlockWriter, IOStats

i64 = st.integers(min_value=-(2**62), max_value=2**62)


class TestCodecBasics:
    def test_sizes(self):
        assert ATTR_EDGE.size == 24

    def test_arity(self):
        assert ATTR_EDGE.arity == 3

    def test_pack_unpack(self):
        data = ATTR_EDGE.pack(1, 2, 3)
        assert ATTR_EDGE.unpack(data) == (1, 2, 3)

    def test_count_in(self):
        assert ATTR_EDGE.count_in(0) == 0
        assert ATTR_EDGE.count_in(48) == 2
        with pytest.raises(FormatError):
            ATTR_EDGE.count_in(47)

    @given(i64, i64, i64)
    def test_roundtrip_property(self, a, b, c):
        assert ATTR_EDGE.unpack(ATTR_EDGE.pack(a, b, c)) == (a, b, c)


class TestStreams:
    def test_write_then_read_stream(self, tmp_path):
        stats = IOStats(block_size=16)
        p = tmp_path / "r.bin"
        recs = [(1, 2, 10), (3, 4, 20), (5, 6, 30)]
        with BlockWriter(p, stats) as w:
            assert ATTR_EDGE.write_stream(w, recs) == 3
        with BlockReader(p, stats) as r:
            assert list(ATTR_EDGE.read_stream(r)) == recs

    def test_empty_stream(self, tmp_path):
        stats = IOStats()
        p = tmp_path / "r.bin"
        with BlockWriter(p, stats) as w:
            assert ATTR_EDGE.write_stream(w, []) == 0
        with BlockReader(p, stats) as r:
            assert list(ATTR_EDGE.read_stream(r)) == []

    def test_truncated_stream_raises(self, tmp_path):
        stats = IOStats()
        p = tmp_path / "r.bin"
        p.write_bytes(b"\x00" * 30)  # not a multiple of 24
        with BlockReader(p, stats) as r:
            it = ATTR_EDGE.read_stream(r)
            assert next(it) == (0, 0, 0)
            with pytest.raises(EOFError):
                next(it)
