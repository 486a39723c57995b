"""Text and binary serialization of graphs.

Three formats, mirroring what the paper's pipeline needs:

* **edge-list text** — one ``u v`` pair per line, ``#`` comments (the
  SNAP interchange format the paper's datasets ship in);
* **adjacency-list text** — ``v: n1 n2 ...`` per line, ascending ids
  (the paper's stated storage representation);
* **binary edge-list** — fixed-width little-endian ``<qq`` records, the
  format the external-memory substrate scans block by block.

These readers build the mutable dict-of-set :class:`Graph`.  For
decompose-from-file workloads that only need the immutable snapshot,
:meth:`repro.graph.csr.CSRGraph.from_edge_list_file` parses the same
text format straight into CSR arrays (chunked, dict-free) — the fast
path behind ``repro decompose --method flat|parallel``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator, Tuple, Union

from repro.errors import FormatError
from repro.graph.adjacency import Graph
from repro.graph.builders import from_edges_cleaned

PathLike = Union[str, Path]

_EDGE_STRUCT = struct.Struct("<qq")


def write_edge_list(g: Graph, path: PathLike, header: bool = True) -> None:
    """Write a SNAP-style text edge list (canonical orientation, sorted)."""
    with open(path, "w", encoding="ascii") as f:
        if header:
            f.write(f"# repro edge list: n={g.num_vertices} m={g.num_edges}\n")
        for u, v in g.sorted_edges():
            f.write(f"{u} {v}\n")


def iter_edge_list(path: PathLike) -> Iterator[Tuple[int, int]]:
    """Stream ``(u, v)`` pairs from a text edge list, skipping comments.

    Tokenizes bytes the way the CSR ingest
    (:meth:`repro.graph.csr.CSRGraph.from_edge_list_file`) does: lines
    end at LF, CRLF or a lone CR (universal newlines), tokens split at
    ASCII whitespace (``bytes.split``), and an id is ``int`` of its
    bytes, so a non-ASCII byte or a control byte such as ``\x1c`` is a
    non-integer id, never a decode error or a separator.  Latin-1 maps
    each byte to one character and back, which keeps the bytes while
    the text layer splits the lines.
    """
    with open(path, "r", encoding="latin-1") as f:
        for lineno, line in enumerate(f, start=1):
            ln = line.encode("latin-1").strip()
            if not ln or ln.startswith(b"#"):
                continue
            parts = ln.split()
            if len(parts) < 2:
                raise FormatError(
                    f"{path}:{lineno}: expected 'u v', got "
                    f"{ln.decode(errors='replace')!r}"
                )
            try:
                yield int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-integer vertex id") from exc


def read_edge_list(path: PathLike) -> Graph:
    """Load a text edge list into a cleaned simple graph."""
    g, _report = from_edges_cleaned(iter_edge_list(path))
    return g


def write_adjacency_list(g: Graph, path: PathLike) -> None:
    """Write the paper's adjacency-list representation as text."""
    with open(path, "w", encoding="ascii") as f:
        for v in g.sorted_vertices():
            nbrs = " ".join(str(w) for w in sorted(g.neighbors(v)))
            f.write(f"{v}: {nbrs}\n")


def read_adjacency_list(path: PathLike) -> Graph:
    """Load an adjacency-list text file (isolated vertices preserved).

    Tokenizes bytes the way :func:`iter_edge_list` does.
    """
    g = Graph()
    with open(path, "r", encoding="latin-1") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.encode("latin-1").strip()
            if not line or line.startswith(b"#"):
                continue
            head, _, tail = line.partition(b":")
            if not _:
                raise FormatError(f"{path}:{lineno}: missing ':' separator")
            try:
                v = int(head)
                g.add_vertex(v)
                for tok in tail.split():
                    g.add_edge(v, int(tok))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-integer vertex id") from exc
    return g


def write_binary_edges(
    edges: Iterable[Tuple[int, int]], path: PathLike
) -> int:
    """Write fixed-width binary edge records; return the record count."""
    count = 0
    with open(path, "wb") as f:
        for u, v in edges:
            f.write(_EDGE_STRUCT.pack(u, v))
            count += 1
    return count


def iter_binary_edges(path: PathLike) -> Iterator[Tuple[int, int]]:
    """Stream ``(u, v)`` pairs from a binary edge file."""
    size = _EDGE_STRUCT.size
    with open(path, "rb") as f:
        while True:
            chunk = f.read(size * 4096)
            if not chunk:
                return
            if len(chunk) % size:
                raise FormatError(f"{path}: truncated edge record at EOF")
            for off in range(0, len(chunk), size):
                yield _EDGE_STRUCT.unpack_from(chunk, off)


def read_binary_edges(path: PathLike) -> Graph:
    """Load a binary edge file into a cleaned simple graph."""
    g, _report = from_edges_cleaned(iter_binary_edges(path))
    return g
