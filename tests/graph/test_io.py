"""Unit tests for repro.graph.io serialization round-trips."""

import pytest
from hypothesis import given, settings

from repro.errors import FormatError
from repro.graph import (
    Graph,
    complete_graph,
    read_adjacency_list,
    read_binary_edges,
    read_edge_list,
    write_adjacency_list,
    write_binary_edges,
    write_edge_list,
)

from helpers import small_edge_lists


class TestEdgeListText:
    def test_roundtrip(self, tmp_path):
        g = complete_graph(4)
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        h = read_edge_list(p)
        assert set(h.edges()) == set(g.edges())

    def test_header_and_comments_skipped(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\n\n1 2\n# another\n2 3\n")
        g = read_edge_list(p)
        assert g.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1\n")
        with pytest.raises(FormatError):
            read_edge_list(p)

    def test_non_integer_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a b\n")
        with pytest.raises(FormatError):
            read_edge_list(p)

    def test_duplicate_edges_cleaned(self, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("1 2\n2 1\n1 1\n")
        g = read_edge_list(p)
        assert g.num_edges == 1

    def test_universal_line_ends(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"1 2\r2\x0b3\r\n\r3\t4")
        assert sorted(read_edge_list(p).edges()) == [(1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("text, line", [
        (b"1 2\n\xff 3\n", 2),  # a non-ASCII byte is no id, not a decode error
        (b"1\x1c2 3\n", 1),  # str.split() would split at \x1c; bytes do not
        (b"1 2\r\n\r\r\n3\n", 4),  # CRLF, CR and CRLF end three lines
    ])
    def test_bytes_errors_name_their_line(self, tmp_path, text, line):
        p = tmp_path / "bad.txt"
        p.write_bytes(text)
        with pytest.raises(FormatError, match=rf"bad\.txt:{line}: "):
            read_edge_list(p)


class TestAdjacencyListText:
    def test_roundtrip(self, tmp_path):
        g = Graph([(0, 1), (1, 2)])
        g.add_vertex(9)  # isolated vertices must survive
        p = tmp_path / "g.adj"
        write_adjacency_list(g, p)
        h = read_adjacency_list(p)
        assert set(h.edges()) == set(g.edges())
        assert h.has_vertex(9)

    def test_missing_colon_raises(self, tmp_path):
        p = tmp_path / "bad.adj"
        p.write_text("1 2 3\n")
        with pytest.raises(FormatError):
            read_adjacency_list(p)

    def test_non_integer_raises(self, tmp_path):
        p = tmp_path / "bad.adj"
        p.write_text("1: x\n")
        with pytest.raises(FormatError):
            read_adjacency_list(p)

    @pytest.mark.parametrize("data", [
        b"1: 2\n\xff: 3\n",  # was a bare UnicodeDecodeError
        "1: 2\n3: \u0661\n".encode(),  # int() of the str reads 1
        b"1: 2\n3: 4\x1c5\n",  # str.split() splits at \x1c
    ], ids=["byte-ff", "arabic-indic-one", "file-separator"])
    def test_bytes_tokenize_like_edge_lists(self, tmp_path, data):
        p = tmp_path / "bad.adj"
        p.write_bytes(data)
        with pytest.raises(FormatError, match=r"bad\.adj:2: non-integer"):
            read_adjacency_list(p)
        edges = tmp_path / "bad.txt"
        edges.write_bytes(data.replace(b":", b""))
        with pytest.raises(FormatError, match=r"bad\.txt:2: non-integer"):
            read_edge_list(edges)

    def test_lines_end_at_lf_crlf_and_lone_cr(self, tmp_path):
        p = tmp_path / "g.adj"
        p.write_bytes(b"0: 1\r1: 2\r\n2: 0\n")
        assert set(read_adjacency_list(p).edges()) == {(0, 1), (1, 2), (0, 2)}


class TestBinaryEdges:
    def test_roundtrip(self, tmp_path):
        g = complete_graph(5)
        p = tmp_path / "g.bin"
        n = write_binary_edges(g.sorted_edges(), p)
        assert n == 10
        h = read_binary_edges(p)
        assert set(h.edges()) == set(g.edges())

    def test_truncated_file_raises(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x01\x02\x03")
        with pytest.raises(FormatError):
            read_binary_edges(p)

    def test_negative_and_large_ids(self, tmp_path):
        p = tmp_path / "g.bin"
        edges = [(-5, 3), (2**40, 2**41)]
        write_binary_edges(edges, p)
        h = read_binary_edges(p)
        assert set(h.edges()) == {(-5, 3), (2**40, 2**41)}


class TestPropertyRoundtrips:
    @settings(max_examples=25)
    @given(small_edge_lists())
    def test_all_formats_agree(self, tmp_path_factory_edges):
        edges = tmp_path_factory_edges
        import tempfile
        from pathlib import Path

        g = Graph(edges)
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            write_edge_list(g, d / "a.txt")
            write_adjacency_list(g, d / "a.adj")
            write_binary_edges(g.sorted_edges(), d / "a.bin")
            assert set(read_edge_list(d / "a.txt").edges()) == set(g.edges())
            assert set(read_adjacency_list(d / "a.adj").edges()) == set(g.edges())
            assert set(read_binary_edges(d / "a.bin").edges()) == set(g.edges())
