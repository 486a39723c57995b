"""Tests for the dict-free streaming CSR ingest.

``CSRGraph.from_edges`` / ``from_edge_list_file`` must build exactly
the snapshot that ``from_edges_cleaned`` -> ``CSRGraph.from_graph``
builds — same ``indptr``/``indices``/``labels`` *and* the same
canonical edge ids — while never materializing a ``Graph``: dup edges
(either orientation), self-loops, comments, blank lines and
non-contiguous vertex ids all normalize identically.  The ``stdlib``
route is the one the paper's methods take without numpy
(``read_edge_list``/``from_edges_cleaned`` into a ``Graph``, then
:class:`~repro.core.edge_runs.EdgeRuns` over its sorted edges); it must
build the same arrays and report the same errors.
"""

import os
import random
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr_mod
from repro.core import truss_decomposition_flat, truss_decomposition_improved
from repro.core.edge_runs import EdgeRuns
from repro.errors import FormatError
from repro.graph import (
    CSRGraph,
    Graph,
    from_edges_cleaned,
    read_edge_list,
    write_edge_list,
)

from helpers import fuzzed_edge_list, needs_numpy, small_edge_lists

pytestmark = needs_numpy

MESSY_PAIRS = [
    (1000, 7),
    (7, 52),
    (52, 1000),
    (3, 1000),
    (1000, 3),  # duplicate, reversed orientation
    (7, 1000),  # duplicate, reversed orientation
    (5, 5),  # self-loop (vertex 5 must vanish entirely)
    (52, 7),  # duplicate, reversed orientation
]

MESSY_FILE = """\
# SNAP-style header comment
# n=4 m=5
1000 7
7 52

52 1000
  # an indented mid-file comment
3 1000
1000 3
5 5
52 7
"""


def _reference(pairs) -> CSRGraph:
    g, _report = from_edges_cleaned(pairs)
    return CSRGraph.from_graph(g)


def _assert_same_snapshot(csr, ref: CSRGraph) -> None:
    for field in ("labels", "indptr", "indices", "eids"):
        assert list(map(int, getattr(csr, field))) == list(
            map(int, getattr(ref, field))
        ), field


def edges_of(snap):
    """The snapshot's edges in original ids, in edge-id order."""
    if isinstance(snap, CSRGraph):
        eu, ev = snap.edge_endpoints()
    else:
        eu, ev = snap.eu, snap.ev
    labels = list(map(int, snap.labels))
    return [(labels[i], labels[j]) for i, j in zip(eu, ev)]


class _StdlibRoute:
    """The numpy-free route: a cleaned ``Graph``, then ``EdgeRuns``."""

    @staticmethod
    def from_edges(pairs):
        g, _report = from_edges_cleaned(pairs)
        return EdgeRuns(g.sorted_edges())

    @staticmethod
    def from_edge_list_file(path):
        return EdgeRuns(read_edge_list(path).sorted_edges())


@pytest.fixture(params=["accelerated", "stdlib"])
def ingest_mode(request):
    """Run each test through the CSR ingest and the stdlib route."""
    return CSRGraph if request.param == "accelerated" else _StdlibRoute


class TestFromEdges:
    def test_messy_pairs_roundtrip(self, ingest_mode):
        csr = ingest_mode.from_edges(MESSY_PAIRS)
        _assert_same_snapshot(csr, _reference(MESSY_PAIRS))
        # non-contiguous, 5 gone
        assert list(map(int, csr.labels)) == [3, 7, 52, 1000]
        assert csr.num_edges == 4

    def test_empty(self, ingest_mode):
        csr = ingest_mode.from_edges([])
        assert len(csr.labels) == 0
        assert csr.num_edges == 0

    def test_only_self_loops(self, ingest_mode):
        csr = ingest_mode.from_edges([(1, 1), (2, 2)])
        assert len(csr.labels) == 0
        assert csr.num_edges == 0

    @settings(max_examples=25, deadline=None)
    @given(small_edge_lists())
    def test_matches_from_graph_property(self, edges):
        _assert_same_snapshot(CSRGraph.from_edges(edges), _reference(edges))

    def test_eids_prebuilt_no_lazy_pass(self, ingest_mode):
        # the build assigns ids as a by-product; there is no later pass
        csr = ingest_mode.from_edges([(0, 1), (1, 2), (0, 2)])
        assert sorted(csr.eids) == [0, 0, 1, 1, 2, 2]


class TestFromEdgeListFile:
    def test_messy_file_roundtrip(self, ingest_mode, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_text(MESSY_FILE)
        csr = ingest_mode.from_edge_list_file(path)
        _assert_same_snapshot(csr, CSRGraph.from_graph(read_edge_list(path)))
        assert list(map(int, csr.labels)) == [3, 7, 52, 1000]

    def test_tiny_chunks_hit_carry_logic(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_text(MESSY_FILE)
        ref = CSRGraph.from_edge_list_file(path)
        for chunk_bytes in (1, 7, 16):
            csr = CSRGraph.from_edge_list_file(path, chunk_bytes=chunk_bytes)
            _assert_same_snapshot(csr, ref)

    def test_no_trailing_newline(self, ingest_mode, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 3")
        csr = ingest_mode.from_edge_list_file(path)
        assert sorted(edges_of(csr)) == [(1, 2), (2, 3)]

    def test_extra_columns_use_first_two(self, ingest_mode, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text("1 2 0.5\n2 3 1.25\n")
        csr = ingest_mode.from_edge_list_file(path)
        assert sorted(edges_of(csr)) == [(1, 2), (2, 3)]

    def test_comment_only_file(self, ingest_mode, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n")
        csr = ingest_mode.from_edge_list_file(path)
        assert len(csr.labels) == 0
        assert csr.num_edges == 0

    def test_short_line_raises(self, ingest_mode, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(FormatError):
            ingest_mode.from_edge_list_file(path)

    def test_non_integer_raises(self, ingest_mode, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nfoo bar\n")
        with pytest.raises(FormatError):
            ingest_mode.from_edge_list_file(path)

    def test_ragged_columns_never_repaired(self, ingest_mode, tmp_path):
        # token total divisible by the first line's width must NOT let
        # the bulk path re-pair rows: '3 4 5 6' is one edge (3, 4), and
        # a phantom (5, 6) would silently change the decomposed graph
        path = tmp_path / "ragged.txt"
        path.write_text("1 2\n3 4 5 6\n")
        csr = ingest_mode.from_edge_list_file(path)
        assert sorted(edges_of(csr)) == [(1, 2), (3, 4)]

    def test_mixed_width_valid_rows(self, ingest_mode, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("1 2 3\n4 5\n6 7 8 9\n")  # first two columns each
        csr = ingest_mode.from_edge_list_file(path)
        assert sorted(edges_of(csr)) == [(1, 2), (4, 5), (6, 7)]

    def test_error_lineno_is_file_absolute(self, ingest_mode, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n1 2\n2 3\nbroken\n")
        with pytest.raises(FormatError, match=r"bad\.txt:4"):
            ingest_mode.from_edge_list_file(path)

    def test_error_lineno_across_chunks(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n2 3\n3 4\n4 5\nbroken\n")
        with pytest.raises(FormatError, match=r"bad\.txt:5"):
            CSRGraph.from_edge_list_file(path, chunk_bytes=8)

    def test_matches_write_edge_list_roundtrip(self, ingest_mode, tmp_path):
        g = Graph([(0, 1), (1, 2), (0, 2), (2, 3), (9, 2)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)  # canonical sorted output + header
        _assert_same_snapshot(
            ingest_mode.from_edge_list_file(path), CSRGraph.from_graph(g)
        )


class TestIngestFuzz:
    """Seeded messy-file fuzzing of the chunked ingest's two contracts.

    For every fuzzed file (comments, blanks, duplicate/reversed/
    self-loop edges, ragged-but-valid rows, malformed rows — see
    :func:`helpers.fuzzed_edge_list`) the streaming ingest must either
    build the exact snapshot of the ``read_edge_list`` route or raise
    :class:`FormatError` naming the file-absolute line of the *first*
    malformed row; bulk chunk parsing may never mask, shift or reorder
    an error, at any chunk size.
    """

    def _check(self, tmp_path, seed, chunk_bytes=None, route=CSRGraph):
        text, error_line = fuzzed_edge_list(seed)
        path = tmp_path / "fuzz.txt"
        path.write_text(text)
        kwargs = {} if chunk_bytes is None else {"chunk_bytes": chunk_bytes}
        if error_line is None:
            csr = route.from_edge_list_file(path, **kwargs)
            _assert_same_snapshot(
                csr, CSRGraph.from_graph(read_edge_list(path))
            )
        else:
            with pytest.raises(FormatError, match=rf"fuzz\.txt:{error_line}:"):
                route.from_edge_list_file(path, **kwargs)

    @pytest.mark.parametrize("seed", range(40))
    def test_roundtrip_or_absolute_lineno(self, ingest_mode, seed, tmp_path):
        self._check(tmp_path, seed, route=ingest_mode)

    @pytest.mark.parametrize("seed", range(0, 40, 3))
    @pytest.mark.parametrize("chunk_bytes", [7, 23])
    def test_tiny_chunks_preserve_semantics(self, seed, chunk_bytes, tmp_path):
        # error lines near chunk boundaries (and inside the final
        # carry) must still report their file-absolute line number
        self._check(tmp_path, seed, chunk_bytes=chunk_bytes)


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


class TestInt64Range:
    def test_extreme_ids_accepted(self, ingest_mode, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(
            f"{INT64_MIN} {INT64_MAX}\n{INT64_MAX} 3\n3 {INT64_MIN}\n"
        )
        csr = ingest_mode.from_edge_list_file(path)
        assert list(map(int, csr.labels)) == [INT64_MIN, 3, INT64_MAX]
        _assert_same_snapshot(csr, CSRGraph.from_graph(read_edge_list(path)))

    @pytest.mark.parametrize("bad", [INT64_MAX + 1, INT64_MIN - 1])
    @pytest.mark.parametrize("chunk_bytes", [None, 7])
    def test_out_of_range_id_names_its_line(self, tmp_path, bad, chunk_bytes):
        path = tmp_path / "big.txt"
        path.write_text(f"1 2\n# note\n2 3\n\n{bad} 1\n1 3\n")
        kwargs = {} if chunk_bytes is None else {"chunk_bytes": chunk_bytes}
        with pytest.raises(
            FormatError,
            match=r"big\.txt:5: vertex id outside the signed 64-bit range",
        ):
            CSRGraph.from_edge_list_file(path, **kwargs)


def digit_edge_list(seed: int, n_lines: int = 40) -> str:
    """A seeded edge list of digits and whitespace only.

    Every data line holds the same number of columns (2, or 3 to 5);
    the file mixes LF and CRLF line ends, space and tab separators,
    blank and whitespace-only lines, leading whitespace, duplicate and
    self-loop edges, ids of up to 18 digits, and sometimes a header
    comment or a last line with no newline.
    """
    rng = random.Random(seed)
    ncols = 2 if rng.random() < 0.5 else rng.randrange(3, 6)
    eol = rng.choice(("\n", "\r\n"))

    def vid() -> str:
        r = rng.random()
        if r < 0.7:
            return str(rng.randrange(0, 30))
        if r < 0.85:
            return str(rng.randrange(10**17, 10**18))  # 18 digits
        if r < 0.9:
            return "0" * rng.randrange(1, 4) + str(rng.randrange(1, 30))
        return str(rng.randrange(1000, 10**9))

    lines = ["# digit-only body"] if rng.random() < 0.3 else []
    for _ in range(n_lines):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(("", " ", "\t", " \t ", "\r")))
            continue
        row = [vid() for _ in range(ncols)]
        if r < 0.15:
            row[1] = row[0]  # self-loop
        sep = rng.choice((" ", "\t", "  ", " \t"))
        lead = rng.choice(("", "", " ", "\t"))
        lines.append(lead + sep.join(row) + rng.choice(("", "", " ")))
    text = eol.join(lines)
    return text if rng.random() < 0.3 else text + eol


class TestDigitPath:
    """A digit-only block skips Python ints and builds the same graph.

    Same contract as :class:`TestIngestFuzz`: the snapshot equals the
    ``read_edge_list`` route's, at any chunk size, and a block the
    digit path declines parses, or fails, exactly as before.
    """

    @pytest.fixture
    def digit_blocks(self, monkeypatch):
        """Count the blocks the digit path converted."""
        taken = []
        real = csr_mod._parse_digit_block

        def spy(chunk):
            out = real(chunk)
            taken.append(out is not None)
            return out

        monkeypatch.setattr(csr_mod, "_parse_digit_block", spy)
        return taken

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("chunk_bytes", [None, 7, 23, 64])
    def test_matches_general_route(
        self, digit_blocks, tmp_path, seed, chunk_bytes
    ):
        path = tmp_path / "digits.txt"
        path.write_bytes(digit_edge_list(seed).encode())
        kwargs = {} if chunk_bytes is None else {"chunk_bytes": chunk_bytes}
        csr = CSRGraph.from_edge_list_file(path, **kwargs)
        _assert_same_snapshot(csr, CSRGraph.from_graph(read_edge_list(path)))
        assert digit_blocks and all(digit_blocks)

    @pytest.mark.parametrize("chunk_bytes", [None, 5])
    def test_short_row_keeps_its_line(self, digit_blocks, tmp_path, chunk_bytes):
        path = tmp_path / "ragged.txt"
        path.write_text("# header\n1 2\n\n3 4\n5\n6 7\n")
        kwargs = {} if chunk_bytes is None else {"chunk_bytes": chunk_bytes}
        with pytest.raises(FormatError, match=r"ragged\.txt:5: expected"):
            CSRGraph.from_edge_list_file(path, **kwargs)

    def test_wide_row_keeps_first_two_columns(self, digit_blocks, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1 2\r\n3 4 5\r\n6\t7\r\n")
        csr = CSRGraph.from_edge_list_file(path)
        assert sorted(edges_of(csr)) == [(1, 2), (3, 4), (6, 7)]
        assert digit_blocks == [False]

    @pytest.mark.parametrize("text, edge", [
        ("1234567890123456789 1\n1 2\n", (1, 1234567890123456789)),
        ("-5 1\n1 2\n", (-5, 1)),
    ])
    def test_general_path_ids(self, digit_blocks, tmp_path, text, edge):
        path = tmp_path / "g.txt"
        path.write_text(text)
        csr = CSRGraph.from_edge_list_file(path)
        assert sorted(edges_of(csr)) == sorted([edge, (1, 2)])
        assert digit_blocks == [False]


@needs_numpy
class TestEndToEnd:
    def test_file_to_trussness_matches_graph_route(self, tmp_path):
        from helpers import random_graph

        g = random_graph(40, 0.2, seed=33)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        td = truss_decomposition_flat(CSRGraph.from_edge_list_file(path))
        assert td == truss_decomposition_improved(read_edge_list(path))


# ---------------------------------------------------------------------------
# byte-level differential property: the CSR ingest against the text reader
# ---------------------------------------------------------------------------
#: tokens that are no vertex id for either reader: letters, a float, a
#: hex literal, a double sign, non-ASCII bytes, control bytes that
#: str.split() (but not bytes.split()) would split at
_BAD_TOKENS = (
    b"x", b"1.5", b"0x1f", b"--1", b"\xff", b"\xc3\xa9", b"1\x1c2",
    b"7\x1f", b"\x85", b"\xa0",
)
#: what may separate two tokens, or pad a line
_SEPARATORS = (b" ", b"\t", b"  ", b" \t", b"\x0b", b"\x0c")
_LINE_ENDS = (b"\n", b"\r\n", b"\r")


@st.composite
def _id_tokens(draw, ids):
    """One id as text: a sign, leading zeros, or plain digits."""
    value = draw(ids)
    text = str(abs(value)).encode()
    zeros = draw(st.sampled_from((0, 0, 0, 1, 3, 20)))
    text = b"0" * zeros + text
    if value < 0:
        return b"-" + text
    return draw(st.sampled_from((b"", b"", b"", b"+"))) + text


@st.composite
def byte_edge_lists(draw):
    """A text edge list as bytes, with ids dense or sparse.

    Dense ids sit in a span of a few ids (sometimes next to an int64
    limit), so the builder maps them through its lookup table; sparse
    ids are spread up to both int64 limits, which takes the sort route.
    Lines mix LF, CRLF and lone-CR ends, comments (some indented, some
    with non-ASCII bytes), blank and whitespace-only lines, extra
    columns, signs, leading zeros, bad tokens and short rows.
    """
    if draw(st.booleans()):
        base = draw(st.sampled_from((0, 1000, INT64_MIN, INT64_MAX - 7)))
        ids = st.integers(0, 7).map(lambda i: base + i)
    else:
        ids = st.one_of(
            st.integers(0, 40),
            st.integers(-(10**12), 10**12),
            st.sampled_from((INT64_MIN, INT64_MAX, INT64_MIN + 1, 10**18)),
        )
    token = _id_tokens(ids)
    bad = draw(st.booleans())  # half the files may hold bad rows
    out = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(
            ("edge",) * 6 + ("wide", "comment", "blank")
            + (("short", "bad") if bad else ())
        ))
        if kind == "comment":
            pad = draw(st.sampled_from((b"", b" ", b"\t")))
            line = pad + b"#" + draw(st.sampled_from((b"", b" note", b"\xe9")))
        elif kind == "blank":
            line = draw(st.sampled_from((b"",) + _SEPARATORS))
        else:
            row = [draw(token) for _ in range(1 if kind == "short" else 2)]
            if kind == "wide":
                row += [
                    draw(st.one_of(token, st.sampled_from(_BAD_TOKENS + (b"0.5",))))
                    for _ in range(draw(st.integers(1, 3)))
                ]
            if kind == "bad":
                row[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_TOKENS))
            line = row[0]
            for tok in row[1:]:
                line += draw(st.sampled_from(_SEPARATORS)) + tok
            if draw(st.booleans()):
                line = draw(st.sampled_from(_SEPARATORS)) + line
            if draw(st.booleans()):
                line += draw(st.sampled_from(_SEPARATORS))
        out.append(line + draw(st.sampled_from(_LINE_ENDS)))
    text = b"".join(out)
    if out and draw(st.booleans()):  # the last line may lack its end
        text = text.rstrip(b"\r\n")
    return text


def _outcome(build):
    """The four arrays a build gives, or the line its error names."""
    try:
        csr = build()
    except FormatError as exc:
        return ("error", re.search(r"\.txt:(\d+): ", str(exc)).group(1))
    return ("arrays", [
        (getattr(csr, f).dtype.str, getattr(csr, f).tobytes())
        for f in ("indptr", "indices", "eids", "labels")
    ])


class TestDifferentialIngest:
    """``from_edge_list_file``, at any ``chunk_bytes``, builds exactly
    what ``read_edge_list`` + ``from_graph`` builds, or both raise a
    :class:`FormatError` naming the same line."""

    @settings(max_examples=300, deadline=None)
    @given(
        byte_edge_lists(),
        st.one_of(st.integers(1, 48), st.just(csr_mod._INGEST_CHUNK_BYTES)),
    )
    def test_matches_text_reader(self, text, chunk_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "wb") as fh:
                fh.write(text)
            got = _outcome(
                lambda: CSRGraph.from_edge_list_file(path, chunk_bytes)
            )
            want = _outcome(lambda: CSRGraph.from_graph(read_edge_list(path)))
        assert got == want

    @pytest.mark.parametrize("text, edges", [
        (b"1 2\r3 4\r5 6\r", [(1, 2), (3, 4), (5, 6)]),
        (b"1 2\r\n\r\r\n3 4\r", [(1, 2), (3, 4)]),
        (b"\r\r\r1 2", [(1, 2)]),
        (b"1\x0b2 3\n4 5\n", [(1, 2), (4, 5)]),
    ])
    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3, None])
    def test_universal_line_ends(self, ingest_mode, tmp_path, text, edges,
                                 chunk_bytes):
        path = tmp_path / "g.txt"
        path.write_bytes(text)
        if ingest_mode is CSRGraph and chunk_bytes is not None:
            csr = CSRGraph.from_edge_list_file(path, chunk_bytes)
        else:
            csr = ingest_mode.from_edge_list_file(path)
        assert sorted(edges_of(csr)) == edges

    @pytest.mark.parametrize("text, line", [
        (b"1\r2\n3 4\n", 1),  # a lone CR ends the line holding '1'
        (b"1 2\r\n\r\r\n3\n", 4),  # CRLF, CR, CRLF: three line ends
        (b"1 2\n\xff 3\n", 2),  # a non-ASCII byte is a bad id
        (b"1\x1c2 3\n", 1),  # \x1c is no separator
    ])
    @pytest.mark.parametrize("chunk_bytes", [1, 2, None])
    def test_errors_name_the_same_line(self, ingest_mode, tmp_path, text,
                                       line, chunk_bytes):
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        kwargs = {}
        if ingest_mode is CSRGraph and chunk_bytes is not None:
            kwargs["chunk_bytes"] = chunk_bytes
        with pytest.raises(FormatError, match=rf"bad\.txt:{line}: "):
            ingest_mode.from_edge_list_file(path, **kwargs)

    def test_cr_only_file_keeps_a_small_carry(self, tmp_path, monkeypatch):
        # every CR ends a line, so no block is carried whole into the next
        path = tmp_path / "cr.txt"
        path.write_bytes(b"".join(b"%d %d\r" % (i, i + 1) for i in range(200)))
        sizes = []
        real = csr_mod._parse_edge_chunk

        def spy(chunk, *args, **kwargs):
            sizes.append(len(chunk))
            return real(chunk, *args, **kwargs)

        monkeypatch.setattr(csr_mod, "_parse_edge_chunk", spy)
        csr = CSRGraph.from_edge_list_file(path, chunk_bytes=64)
        assert csr.num_edges == 200
        assert max(sizes) <= 64 + 8
