"""Failure injection: corrupted and truncated on-disk state.

A library that owns on-disk formats must fail loudly and precisely on
damaged input, never by silently mis-parsing.  These tests damage files
in targeted ways and assert the exact failure surface.
"""

import os

import pytest

from repro.errors import FormatError
from repro.exio import ATTR_EDGE, DiskEdgeFile, IOStats


class TestTruncatedEdgeFiles:
    def test_reopen_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        DiskEdgeFile.from_records(path, [(1, 2, 3), (4, 5, 6)], IOStats())
        # chop mid-record
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            DiskEdgeFile(path, IOStats())

    def test_scan_of_externally_truncated_file_raises(self, tmp_path):
        path = tmp_path / "e.bin"
        f = DiskEdgeFile.from_records(path, [(1, 2, 3)] * 4, IOStats())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(EOFError):
            list(f.scan())

    def test_appended_garbage_detected_on_reopen(self, tmp_path):
        path = tmp_path / "e.bin"
        DiskEdgeFile.from_records(path, [(1, 2, 3)], IOStats())
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03")
        with pytest.raises(FormatError):
            DiskEdgeFile(path, IOStats())


class TestRewriteAtomicity:
    def test_failed_transform_leaves_original_intact(self, tmp_path):
        path = tmp_path / "e.bin"
        f = DiskEdgeFile.from_records(
            path, [(1, 2, 3), (4, 5, 6)], IOStats()
        )

        def exploding(rec):
            if rec[0] == 4:
                raise RuntimeError("boom")
            return rec

        with pytest.raises(RuntimeError):
            f.rewrite(exploding)
        # the original file was never replaced
        fresh = DiskEdgeFile(path, IOStats())
        assert list(fresh.scan()) == [(1, 2, 3), (4, 5, 6)]

    def test_temp_rewrite_file_not_left_behind(self, tmp_path):
        path = tmp_path / "e.bin"
        f = DiskEdgeFile.from_records(path, [(1, 2, 3)], IOStats())
        f.rewrite(lambda rec: rec)
        leftovers = [p for p in tmp_path.iterdir() if "rewrite" in p.name]
        assert leftovers == []
