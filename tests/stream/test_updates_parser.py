"""The shared update-stream parser (CLI file/stdin, WAL, POST body)."""

from __future__ import annotations

import io
import re

import pytest

from repro.stream.updates import (
    format_update,
    parse_update_line,
    read_update_lines,
    read_update_stream,
)


class TestParseLine:
    @pytest.mark.parametrize("line,expect", [
        ("+ 1 2", ("insert", 1, 2)),
        ("- 3 4", ("delete", 3, 4)),
        ("  +   10   20  ", ("insert", 10, 20)),
        ("+ -5 7", ("insert", -5, 7)),
        ("+ 1 2 trailing junk is ignored", ("insert", 1, 2)),
    ])
    def test_well_formed(self, line, expect):
        assert parse_update_line(line) == expect

    @pytest.mark.parametrize("line", ["", "   ", "\n", "# comment", "#+ 1 2"])
    def test_blank_and_comment_skip(self, line):
        assert parse_update_line(line) is None

    @pytest.mark.parametrize("line", ["* 1 2", "+ 1", "insert 1 2", "1 2"])
    def test_malformed_shape(self, line):
        with pytest.raises(ValueError, match="expected '\\+ u v' or '- u v'"):
            parse_update_line(line)

    def test_non_integer_vertex(self):
        with pytest.raises(ValueError, match="non-integer vertex id"):
            parse_update_line("+ 1 two")

    @pytest.mark.parametrize("line", [
        "+ 1 9223372036854775808",
        "- -9223372036854775809 4",
    ])
    def test_vertex_outside_int64_names_where(self, line):
        with pytest.raises(
            ValueError, match="^ups.txt:2: vertex id outside the signed 64-bit"
        ):
            parse_update_line(line, where="ups.txt:2")

    def test_int64_bounds_parse(self):
        assert parse_update_line(
            "+ -9223372036854775808 9223372036854775807"
        ) == ("insert", -(1 << 63), (1 << 63) - 1)

    def test_where_prefixes_the_error(self):
        with pytest.raises(ValueError, match="ups.txt:7: expected"):
            parse_update_line("bogus", where="ups.txt:7")


class TestStreams:
    TEXT = "# header\n+ 1 2\n\n- 3 4\n+ 5 6\n"
    PARSED = [("insert", 1, 2), ("delete", 3, 4), ("insert", 5, 6)]

    def test_read_update_lines(self):
        assert read_update_lines(io.StringIO(self.TEXT)) == self.PARSED

    def test_read_update_lines_names_the_source_line(self):
        with pytest.raises(ValueError, match="ups:2:"):
            read_update_lines(io.StringIO("+ 1 2\nzap\n"), source="ups")

    def test_read_update_stream_file(self, tmp_path):
        path = tmp_path / "ups.txt"
        path.write_text(self.TEXT)
        assert read_update_stream(path) == self.PARSED

    def test_read_update_stream_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.TEXT))
        assert read_update_stream("-") == self.PARSED

    def test_stdin_errors_name_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("zap\n"))
        with pytest.raises(ValueError, match="<stdin>:1:"):
            read_update_stream("-")


#: the Arabic-Indic digit one: ``int()`` of the str reads it as 1
ARABIC_ONE = "\u0661"


class TestBytesTokens:
    """Update streams tokenize bytes the way the edge-list readers do."""

    @pytest.mark.parametrize("bad", [b"\xff", ARABIC_ONE.encode()],
                             ids=["byte-ff", "arabic-indic-one"])
    def test_non_ascii_id_in_a_file_names_the_line(self, tmp_path, bad):
        path = tmp_path / "u.txt"
        path.write_bytes(b"+ 1 2\n+ " + bad + b" 3\n")
        with pytest.raises(
            ValueError,
            match=f"^{re.escape(str(path))}:2: non-integer vertex id",
        ):
            read_update_stream(path)

    @pytest.mark.parametrize("wrap", [
        lambda data: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
        lambda data: io.StringIO(data.decode()),
    ], ids=["binary-buffer", "text-only"])
    def test_non_ascii_digit_on_stdin_is_not_an_id(self, monkeypatch, wrap):
        data = f"+ 1 2\n- 3 {ARABIC_ONE}\n".encode()
        monkeypatch.setattr("sys.stdin", wrap(data))
        with pytest.raises(
            ValueError, match="^<stdin>:2: non-integer vertex id"
        ):
            read_update_stream("-")

    @pytest.mark.parametrize("line", [
        f"+ {ARABIC_ONE} 3",
        f"+ {ARABIC_ONE} 3".encode(),
        b"+ 1\x1c2 3",  # str.split() splits at \x1c-\x1f and NEL
        b"+ 1\x852 3",
    ])
    def test_only_ascii_ids_and_separators(self, line):
        with pytest.raises(ValueError, match="non-integer vertex id"):
            parse_update_line(line)

    def test_ascii_whitespace_separates(self):
        assert parse_update_line(b"+\t1\x0b2\x0c") == ("insert", 1, 2)

    def test_lines_end_at_lf_crlf_and_lone_cr(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_bytes(b"+ 1 2\r- 3 4\r\n+ 5 6\n")
        assert read_update_stream(path) == [
            ("insert", 1, 2), ("delete", 3, 4), ("insert", 5, 6),
        ]
        path.write_bytes(b"+ 1 2\r+ x 3\n")
        with pytest.raises(ValueError, match=":2: non-integer vertex id"):
            read_update_stream(path)


class TestFormat:
    @pytest.mark.parametrize("op,u,v,expect", [
        ("insert", 1, 2, "+ 1 2"),
        ("delete", 3, 4, "- 3 4"),
        ("+", 5, 6, "+ 5 6"),  # line opcodes pass through
        ("-", 7, 8, "- 7 8"),
    ])
    def test_canonical_text(self, op, u, v, expect):
        assert format_update(op, u, v) == expect

    def test_roundtrip(self):
        for upd in [("insert", 0, 1), ("delete", 9, 3)]:
            assert parse_update_line(format_update(*upd)) == upd

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown update op"):
            format_update("upsert", 1, 2)
