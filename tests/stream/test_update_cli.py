"""The ``repro update`` command: file-in, file-out incremental repair."""

from __future__ import annotations

import io

import pytest

from helpers import needs_numpy
from repro.cli import main
from repro.graph import complete_graph, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    g = complete_graph(5)
    g.add_edge(0, 10)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return path


def _updates_file(tmp_path, text):
    path = tmp_path / "ups.txt"
    path.write_text(text)
    return path


class TestUpdate:
    @needs_numpy
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_flat_recompute_bytes(
        self, graph_file, tmp_path, batch, capsys
    ):
        ups = _updates_file(
            tmp_path,
            "# grow a second clique corner, then retract the pendant\n"
            "+ 1 10\n+ 2 10\n- 0 10\n- 7 8\n",
        )
        out = tmp_path / "incr.txt"
        assert main([
            "update", str(graph_file), str(ups),
            "-o", str(out), "--batch", str(batch),
        ]) == 0
        err = capsys.readouterr().err
        assert "applied=3" in err  # '- 7 8' is an absent-edge no-op
        # reference: mutate the graph, flat-decompose from scratch
        g = complete_graph(5)
        g.add_edge(1, 10)
        g.add_edge(2, 10)
        after = tmp_path / "after.txt"
        write_edge_list(g, after)
        ref = tmp_path / "flat.txt"
        assert main([
            "decompose", str(after), "--method", "flat", "-o", str(ref),
        ]) == 0
        assert out.read_text() == ref.read_text()

    @needs_numpy
    def test_malformed_update_line_is_rejected(
        self, graph_file, tmp_path, capsys
    ):
        ups = _updates_file(tmp_path, "+ 1 2\nzap 3 4\n")
        assert main(["update", str(graph_file), str(ups)]) == 2
        assert "expected '+ u v' or '- u v'" in capsys.readouterr().err

    @needs_numpy
    def test_non_integer_vertex_is_rejected(
        self, graph_file, tmp_path, capsys
    ):
        ups = _updates_file(tmp_path, "+ 1 two\n")
        assert main(["update", str(graph_file), str(ups)]) == 2
        assert "non-integer vertex id" in capsys.readouterr().err

    @needs_numpy
    def test_vertex_outside_int64_fails_before_ingest(
        self, graph_file, tmp_path, capsys
    ):
        # the first line is valid: nothing may be loaded or applied
        # before the bad second line is reported
        ups = _updates_file(tmp_path, "+ 1 10\n+ 1 9223372036854775808\n")
        assert main(["update", str(graph_file), str(ups)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"error: {ups}:2: vertex id outside")
        assert not any(line.startswith("loaded") for line in lines)

    @needs_numpy
    def test_updates_from_stdin(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        """``repro update GRAPH -`` reads the update stream from stdin."""
        monkeypatch.setattr("sys.stdin", io.StringIO("+ 1 10\n+ 2 10\n"))
        out = tmp_path / "incr.txt"
        assert main([
            "update", str(graph_file), "-", "-o", str(out),
        ]) == 0
        assert "applied=2" in capsys.readouterr().err
        ups = _updates_file(tmp_path, "+ 1 10\n+ 2 10\n")
        ref = tmp_path / "ref.txt"
        assert main([
            "update", str(graph_file), str(ups), "-o", str(ref),
        ]) == 0
        assert out.read_text() == ref.read_text()

    @needs_numpy
    def test_stdin_malformed_line_is_rejected(
        self, graph_file, monkeypatch, capsys
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO("+ 1 10\nzap\n"))
        assert main(["update", str(graph_file), "-"]) == 2
        assert "<stdin>:2" in capsys.readouterr().err

    def test_bad_batch_is_rejected(self, graph_file, tmp_path, capsys):
        ups = _updates_file(tmp_path, "+ 1 2\n")
        assert main([
            "update", str(graph_file), str(ups), "--batch", "0",
        ]) == 2
        assert "--batch must be >= 1" in capsys.readouterr().err
