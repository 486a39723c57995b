"""Immutable CSR (compressed sparse row) snapshot of a graph.

Triangle counting and support initialization touch every adjacency list
many times; doing that over ``dict``-of-``set`` costs a hash probe per
element.  :class:`CSRGraph` lays the adjacency out in flat int64
ndarrays (``indptr``/``indices``, with the canonical edge id of every
slot in ``eids``), relabels vertices to ``0..n-1`` (``labels``), and
sorts each adjacency run, enabling merge-style intersections and
cache-friendly scans.  It is the in-memory analogue of the paper's
on-disk adjacency lists: vertices in ascending id order, each with its
sorted neighbour list.

Every constructor ends in one builder.  It maps the ids to compact
ones (through a lookup table over the id span when the span is small,
else by sorting the ends), sort-dedupes the canonical pairs and gives
each edge its position among the sorted keys as its id, then lays the
rows out from those m keys.  Past the sort route's copy of the ends,
no temporary holds one value per endpoint.  The constructors:

* :meth:`CSRGraph.from_graph` snapshots a mutable dict-of-set
  :class:`~repro.graph.adjacency.Graph` (isolated vertices keep empty
  runs);
* :meth:`CSRGraph.from_edges` / :meth:`CSRGraph.from_edge_list_file`
  are the **dict-free streaming ingest**: raw ``(u, v)`` pairs (or a
  SNAP-style text file, parsed in bounded chunks) go straight to the
  flat arrays — self-loops dropped, duplicates collapsed, vertex ids
  canonicalized — without ever materializing a ``Graph``.  This is the
  fast path the decompose-from-file workloads ride
  (``repro decompose --method flat|parallel``).

The snapshot needs numpy: without it every constructor raises
:data:`repro.kernels.NUMPY_REQUIRED`.  The paper's stdlib methods use
:class:`repro.core.edge_runs.EdgeRuns` instead.
"""

from __future__ import annotations

import threading
from array import array
from itertools import chain
from operator import itemgetter
from typing import Iterable, List, Optional, Tuple

from repro.errors import DecompositionError, FormatError
from repro.kernels import NUMPY_REQUIRED

try:  # the snapshot's arrays; import stays possible without it
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: bytes per read of the chunked edge-list file parser (~16 MB).  A
#: block of only digits and whitespace takes the digit path, which
#: allocates a few byte arrays of this length plus a few int64 arrays
#: per token; any other block takes the general path, which builds one
#: ``bytes`` and one ``int`` per token
_INGEST_CHUNK_BYTES = 1 << 24

#: byte classes of the digit path: 0 for space, tab, CR and LF, 1 for
#: an ASCII digit, 2 for anything else (the block takes the general
#: path)
_BYTE_CLASS = bytes(
    1 if 0x30 <= b <= 0x39 else 0 if b in b" \t\r\n" else 2
    for b in range(256)
)

#: longest token the digit path converts: 18 digits always fit in int64
_MAX_DIGITS = 18

#: the builder maps ids through a lookup table over their span (max -
#: min + 1) when the span is at most this many times the number of
#: ends; wider spans sort the ends and ``searchsorted``.  At 1 the
#: table's int64 column is no larger than the copy of the ends that the
#: sort route concatenates.  Time sets no tighter bound: on 356,094
#: random pairs the table took 19 ms at a span of one id per end,
#: against 162 ms for the sort route, and was still ahead at 16 ids per
#: end (128 against 160 ms)
_TABLE_SPAN_PER_END = 1


def _require_numpy() -> None:
    """The one guard of every constructor: the arrays are ndarrays."""
    if _np is None:
        raise DecompositionError(NUMPY_REQUIRED)


class CSRGraph:
    """Read-only CSR snapshot over int64 ndarrays.

    ``labels[i]`` is the original vertex id of compact vertex ``i``;
    compact ids follow ascending original-id order, so the paper's
    "vertices sorted in ascending order of their IDs" invariant holds.
    ``indices[indptr[i]:indptr[i + 1]]`` is vertex ``i``'s sorted run of
    neighbours, and ``eids`` holds the edge id of each slot: both slots
    of an edge carry the same id, dense in ``0..m-1`` and assigned in
    ascending compact ``(i, j)`` order — the integer substrate the CSR
    engines index their per-edge arrays by.
    """

    __slots__ = ("indptr", "indices", "eids", "labels")

    def __init__(self, indptr, indices, eids, labels) -> None:
        self.indptr = indptr
        self.indices = indices
        self.eids = eids
        self.labels = labels

    @classmethod
    def from_graph(cls, g) -> "CSRGraph":
        """Snapshot a mutable :class:`Graph` into CSR form."""
        _require_numpy()
        flat = _np.fromiter(
            chain.from_iterable(g.edges()), dtype=_np.int64,
            count=2 * g.num_edges,
        )
        labels = _np.array(g.sorted_vertices(), dtype=_np.int64)
        return cls._from_flat_pairs(flat, labels)

    # ------------------------------------------------------------------
    # dict-free streaming ingest
    @classmethod
    def from_edges(cls, pairs: Iterable[Tuple[int, int]]) -> "CSRGraph":
        """Build a CSR graph straight from raw ``(u, v)`` pairs.

        The streaming analogue of ``from_edges_cleaned`` + ``from_graph``
        with the dict-of-set intermediate cut out: self-loops are
        dropped, duplicates (in either orientation) collapse to one
        undirected edge, and vertex ids may be arbitrary non-contiguous
        integers.

        Vertices that appear only in self-loops are dropped along with
        the loop, matching ``from_edges_cleaned`` semantics.
        """
        _require_numpy()
        flat = _np.fromiter(
            (x for uv in pairs for x in uv), dtype=_np.int64
        )
        return cls._from_flat_pairs(flat)

    @classmethod
    def from_edge_list_file(
        cls, path, chunk_bytes: int = _INGEST_CHUNK_BYTES
    ) -> "CSRGraph":
        """Parse a SNAP-style text edge list directly into CSR form.

        The file is read in ``chunk_bytes``-sized blocks aligned to line
        boundaries, and each block's integer tokens are bulk-converted
        (``#`` comment lines and blank lines skipped, the first two
        columns of each row used), so peak memory stays a few multiples
        of the chunk size plus the output arrays and no per-line Python
        object churn happens on the hot path.  Lines end where Python's
        universal newlines end them (LF, CRLF or a lone CR, as
        :func:`repro.graph.io.iter_edge_list` reads them): each block's
        ends become LFs before it is cut, a CRLF split by a read counts
        once, and error line numbers count from the start of the file.

        This is the ingest fast path of ``repro decompose``: on
        decompose-from-file workloads it replaces the
        ``read_edge_list`` -> ``from_graph`` route (which pays a full
        mutable-graph build just to snapshot it) and feeds the flat and
        parallel engines directly.
        """
        _require_numpy()
        parts: List["_np.ndarray"] = []
        with open(path, "rb") as f:
            carry = b""
            lineno = 0  # line ends consumed, for file-absolute errors
            after_cr = False  # the last read ended in a CR
            while True:
                blob = f.read(chunk_bytes)
                if not blob:
                    break
                if after_cr and blob.startswith(b"\n"):
                    blob = blob[1:]  # the LF of a CRLF the read split
                after_cr = blob.endswith(b"\r")
                # replace() returns the block itself when it has no CR
                blob = (carry + blob).replace(b"\r\n", b"\n")
                blob = blob.replace(b"\r", b"\n")
                cut = blob.rfind(b"\n")
                if cut < 0:
                    carry = blob
                    continue
                carry = blob[cut + 1 :]
                block = blob[: cut + 1]
                chunk = _parse_edge_chunk(block, path, base_lineno=lineno)
                lineno += block.count(b"\n")
                if chunk is not None:
                    parts.append(chunk)
            if carry:
                chunk = _parse_edge_chunk(carry, path, base_lineno=lineno)
                if chunk is not None:
                    parts.append(chunk)
        if not parts:
            return cls._from_flat_pairs(_np.zeros(0, dtype=_np.int64))
        flat = parts[0] if len(parts) == 1 else _np.concatenate(parts)
        del parts
        return cls._from_flat_pairs(flat)

    @classmethod
    def _from_flat_pairs(
        cls, flat: "_np.ndarray", labels: Optional["_np.ndarray"] = None
    ) -> "CSRGraph":
        """The builder under every constructor: interleaved
        ``u0 v0 u1 v1 ...`` pairs, canonicalized and deduped.

        ``labels`` (sorted, distinct, covering every endpoint) keeps
        vertices with no edge as empty runs; by default the labels are
        the endpoints.  Each edge's id is its position among the sorted
        unique keys ``cu * n + cv`` of its compact ends, so the ids come
        free with the dedupe.

        Compact ids come from :func:`_compact_ids` and the slots from
        :func:`_rows`; every other temporary holds at most one int64
        per pair.  The input is not modified.
        """
        u, v = flat[0::2], flat[1::2]
        keep = u != v  # drop self-loops
        if not keep.all():
            u, v = u[keep], v[keep]
        del keep
        labels, cu, cv = _compact_ids(u, v, labels)
        del u, v
        n = len(labels)
        # compaction keeps the order, so the smaller compact id is the
        # smaller label's
        key = _np.minimum(cu, cv)
        _np.maximum(cu, cv, out=cv)
        del cu
        key *= n
        key += cv
        del cv
        if len(key) > 1 and not bool(_np.all(key[1:] > key[:-1])):
            # not canonical, sorted and duplicate-free (the repo's own
            # write_edge_list emits exactly that, which skips the sort)
            key.sort()
            key = key[_first_of_runs(key)]  # ascending == canonical
        cu, cv = _np.divmod(key, n)
        del key
        indptr, indices, eids = _rows(cu, cv, n)
        return cls(indptr, indices, eids, labels)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def edge_endpoints(self) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """Compact endpoint arrays ``(eu, ev)`` indexed by edge id.

        ``eu[e] < ev[e]`` for every id ``e``; together with :attr:`eids`
        this is the full edge<->id bijection.  The forward slots
        (``src < dst``) in slot order are the edges in ascending
        ``(i, j)`` order, which is id order, so no scatter by
        :attr:`eids` is needed.
        """
        indptr, dst = self.indptr, self.indices
        src = _np.repeat(
            _np.arange(self.num_vertices, dtype=_np.int64), _np.diff(indptr)
        )
        fwd = src < dst
        return src[fwd], dst[fwd]


def sorted_unique(a: "_np.ndarray") -> "_np.ndarray":
    """The distinct values of ``a``, ascending: one sort, adjacent diff.

    What ``np.unique`` returns, without its hashing pass.  Sorts a
    copy, so ``a`` may be a read-only map.  Every no-counts dedupe on
    the numpy paths calls this one helper.
    """
    s = _np.sort(a)
    return s[_first_of_runs(s)]


def _first_of_runs(s: "_np.ndarray") -> "_np.ndarray":
    """The mask of the first element of each run of equal values."""
    keep = _np.empty(len(s), dtype=bool)
    keep[:1] = True
    _np.not_equal(s[1:], s[:-1], out=keep[1:])
    return keep


#: the signed 64-bit range every id and value of the int64 arrays fits
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def pair_order(u: "_np.ndarray", v: "_np.ndarray") -> "_np.ndarray":
    """The permutation that sorts the distinct int64 pairs ``(u, v)``.

    One argsort of the combined key ``(u - u0) * width + (v - v0)``
    when the spans fit int64, else a lexsort (several times slower on
    two int64 columns).
    """
    if not len(u):
        return _np.zeros(0, dtype=_np.intp)
    u0, v0 = int(u.min()), int(v.min())
    width = int(v.max()) - v0 + 1
    if (int(u.max()) - u0 + 1) * width <= INT64_MAX:
        return _np.argsort((u - u0) * width + (v - v0))
    return _np.lexsort((v, u))


def pair_ranks(u, v, xu, xv) -> "_np.ndarray":
    """How many of the pairs ``(u[i], v[i])`` sort below each query
    ``(xu[j], xv[j])``.

    ``(u, v)`` must be in ascending order.  ``searchsorted`` finds each
    query's run of equal ``u``, and a bisection over all the queries at
    once finds ``xv`` in the run's ``v``.  Unlike a combined key, this
    cannot overflow, and it allocates nothing as long as ``u``.
    """
    lo = _np.searchsorted(u, xu, side="left")
    hi = _np.searchsorted(u, xu, side="right")
    while True:
        todo = _np.flatnonzero(lo < hi)
        if not len(todo):
            return lo
        mid = (lo[todo] + hi[todo]) >> 1
        below = v[mid] < xv[todo]
        lo[todo[below]] = mid[below] + 1
        hi[todo[~below]] = mid[~below]


def edge_rows(*maps) -> "_np.ndarray":
    """Int64 rows ``(u, v, maps[0][(u, v)], maps[1][(u, v)], ...)``
    of maps over one key set of ``(u, v)`` pairs, sorted by ``(u, v)``.

    Maps that already view one such array — each with the attributes
    ``rows`` (that array) and ``col`` (2, 3, ... in argument order), as
    a snapshot generation's :class:`~repro.serve.snapshot.RowMap` pair
    and a maintainer's ``trussness``/``supports`` have — return it
    unchanged.  Any other maps are exported with ``np.fromiter``;
    ``ValueError`` when their key sets differ, and ``TypeError``,
    ``ValueError`` or ``OverflowError`` when a key or value is not an
    int64.
    """
    rows = getattr(maps[0], "rows", None)
    if rows is not None and rows.shape[1] == 2 + len(maps) and all(
        getattr(m, "rows", None) is rows and getattr(m, "col", None) == c
        for c, m in enumerate(maps, 2)
    ):
        return rows
    first = maps[0]
    n = len(first)
    if any(len(m) != n for m in maps):
        raise ValueError("the maps must cover the same edges")
    out = _np.empty((n, 2 + len(maps)), dtype=_np.int64)
    out[:, 0] = _np.fromiter(map(itemgetter(0), first), _np.int64, n)
    out[:, 1] = _np.fromiter(map(itemgetter(1), first), _np.int64, n)
    try:
        for c, m in enumerate(maps, 2):
            out[:, c] = _np.fromiter(map(m.__getitem__, first), _np.int64, n)
    except KeyError:
        raise ValueError("the maps must cover the same edges") from None
    return out[pair_order(out[:, 0], out[:, 1])]


def _compact_ids(u: "_np.ndarray", v: "_np.ndarray", labels=None):
    """``(labels, cu, cv)``: the sorted labels and the compact ids of
    the ends ``u`` and ``v``.

    Without ``labels`` the labels are the distinct ends.  Where the id
    span (max - min + 1) is at most :data:`_TABLE_SPAN_PER_END` times
    the number of ends, a lookup table over the span maps every end:
    a presence mask's cumulative sum, or ``arange`` scattered at the
    given labels.  Wider spans (the int64 extremes, say) keep one sort
    of the ends and a ``searchsorted``, which works at any span.
    """
    if not len(u):
        none = _np.zeros(0, dtype=_np.int64)
        return none if labels is None else labels, none, none
    if labels is None:
        lo = min(int(u.min()), int(v.min()))
        hi = max(int(u.max()), int(v.max()))
    else:
        lo, hi = int(labels[0]), int(labels[-1])
    span = hi - lo + 1
    if span > _TABLE_SPAN_PER_END * 2 * len(u):
        if labels is None:
            labels = sorted_unique(_np.concatenate((u, v)))
        return (
            labels, _np.searchsorted(labels, u), _np.searchsorted(labels, v)
        )
    at = _np.subtract(u, lo)  # one offset buffer, reused for each end
    if labels is None:
        table = _np.zeros(span, dtype=bool)  # the ids that occur
        table[at] = True
        table[_np.subtract(v, lo, out=at)] = True
        labels = _np.flatnonzero(table)
        labels += lo
        table = _np.cumsum(table, dtype=_np.int64)
        table -= 1
    else:
        table = _np.empty(span, dtype=_np.int64)
        table[labels - lo] = _np.arange(len(labels), dtype=_np.int64)
    cu = table[_np.subtract(u, lo, out=at)]
    cv = table[_np.subtract(v, lo, out=at)]
    return labels, cu, cv


def _rows(cu: "_np.ndarray", cv: "_np.ndarray", n: int):
    """``(indptr, indices, eids)`` of the edges ``cu[e] < cv[e]``,
    given in ascending ``(cu, cv)`` order, which is id order.

    Row ``r`` holds its reverse slots (edges with ``cv == r``, the
    neighbours below ``r``) and then its forward slots (``cu == r``).
    In id order the forward slots are sorted already, so only the
    reverse half is sorted, by ``(cv, id)``, which is ``(cv, cu)``: one
    value sort of the unique keys ``cv * m + id``, or a stable argsort
    of ``cv`` when ``n * m`` would overflow int64.  Then, with slots
    counted per row:

    * forward edge ``e`` lands at ``e`` + (reverse slots in rows up to
      and including its own);
    * the reverse slot at sorted position ``k`` lands at ``k`` +
      (forward slots in earlier rows).

    Both runs arrive row by row, so ``np.repeat`` of the per-row counts
    gives those offsets.
    """
    m = len(cu)
    fwd = _np.bincount(cu, minlength=n)
    rev = _np.bincount(cv, minlength=n)
    indptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(fwd + rev, out=indptr[1:])
    indices = _np.empty(2 * m, dtype=_np.int64)
    eids = _np.empty(2 * m, dtype=_np.int64)
    ids = _np.arange(m, dtype=_np.int64)
    at = _np.repeat(_np.cumsum(rev), fwd)
    at += ids
    indices[at] = cv
    eids[at] = ids
    if n * m <= INT64_MAX:
        order = cv * m
        order += ids
        order.sort()
        order %= m
    else:
        order = _np.argsort(cv, kind="stable")
    del cv, at
    at = _np.repeat(_np.cumsum(fwd) - fwd, rev)
    at += ids
    del ids
    indices[at] = cu[order]
    eids[at] = order
    return indptr, indices, eids


def _line_token_counts(chunk: bytes):
    """Tokens per line of ``chunk``, fully vectorized.

    One pass over the raw bytes: a token starts wherever a
    non-whitespace byte follows whitespace (or the chunk start), and a
    cumulative-sum sampled at the newline positions yields every line's
    token count at C speed — no per-line Python objects.
    """
    arr = _np.frombuffer(chunk, dtype=_np.uint8)
    is_nl = arr == 0x0A
    # what bytes.split() splits at: space, and TAB, LF, VT, FF and CR
    is_ws = (arr == 0x20) | ((arr >= 0x09) & (arr <= 0x0D))
    tok_start = ~is_ws
    tok_start[1:] &= is_ws[:-1]
    csum = _np.cumsum(tok_start)
    ends = _np.flatnonzero(is_nl)
    at_ends = csum[ends]
    if not chunk.endswith(b"\n"):
        at_ends = _np.append(at_ends, csum[-1])
    return _np.diff(at_ends, prepend=0)


def _parse_edge_chunk(
    chunk: bytes, path, base_lineno: int = 0
) -> Optional["_np.ndarray"]:
    """Bulk-parse one line-aligned block of a text edge list (numpy).

    Comment (``#``) and blank lines are skipped, and the first two
    columns of each data line are kept.  Once the leading
    comment/blank lines are peeled, a block that
    :func:`_parse_digit_block` accepts (digits and whitespace only,
    uniform rows, ids of at most 18 digits) is converted with no
    Python object per token.  Any other block — a sign, a letter, a
    mid-file ``#``, a ragged row, a longer id — takes the general
    path: when every data line provably has the same column count
    (checked with a vectorized per-line token-count scan, so
    mixed-width rows can never be silently re-paired) the block's
    tokens are converted in one ``fromiter`` sweep; anything else
    falls back to a per-line parse with the same semantics and error
    reporting as :func:`repro.graph.io.iter_edge_list`, plus a
    :class:`FormatError` for an id outside the signed 64-bit range
    (``base_lineno`` keeps reported line numbers file-absolute across
    chunks).  Returns the interleaved ``u0 v0 u1 v1 ...`` int64 array,
    or ``None`` for a block with no data lines.
    """
    original = chunk
    # peel the leading comment/blank block without touching the body —
    # SNAP-style files carry their comments as a header, so the common
    # case never pays a per-line scan
    while chunk:
        first = chunk.split(b"\n", 1)[0]
        if first.strip() and not first.lstrip().startswith(b"#"):
            break
        nl = chunk.find(b"\n")
        if nl < 0:
            return None
        chunk = chunk[nl + 1 :]
    if not chunk:  # otherwise the first line holds data
        return None
    flat = _parse_digit_block(chunk)
    if flat is not None:
        return flat
    has_mid_comments = b"#" in chunk
    if has_mid_comments:  # rare: full per-line filter
        lines = [
            ln
            for ln in chunk.split(b"\n")
            if ln.strip() and not ln.lstrip().startswith(b"#")
        ]
        if not lines:
            return None
        chunk = b"\n".join(lines)
    per_line = _line_token_counts(chunk)
    per_line = per_line[per_line > 0]  # blank lines carry no tokens
    ncols = int(per_line[0]) if per_line.size else 0
    if ncols >= 2 and bool(_np.all(per_line == ncols)):
        tokens = chunk.split()
        try:
            flat = _np.fromiter(
                map(int, tokens), dtype=_np.int64, count=len(tokens)
            )
        except (ValueError, OverflowError):
            flat = None  # bad or out-of-range token: per-line path reports it
        if flat is not None:
            if ncols == 2:
                return flat
            return flat.reshape(-1, ncols)[:, :2].reshape(-1)
    # ragged or non-integer block: per-line slow path, exact errors
    out = array("q")
    for lineno, ln in enumerate(original.split(b"\n"), start=base_lineno + 1):
        ln = ln.strip()
        if not ln or ln.startswith(b"#"):
            continue
        parts = ln.split()
        if len(parts) < 2:
            raise FormatError(
                f"{path}:{lineno}: expected 'u v', got {ln.decode(errors='replace')!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-integer vertex id") from exc
        try:
            out.append(u)
            out.append(v)
        except OverflowError:
            raise FormatError(
                f"{path}:{lineno}: vertex id outside the signed 64-bit range"
            ) from None
    if not out:
        return None
    return _np.frombuffer(out, dtype=_np.int64).copy()


def _parse_digit_block(chunk: bytes) -> Optional["_np.ndarray"]:
    """The first two columns of a digit-only block, or ``None``.

    ``chunk`` starts with a data line and ends its lines with LFs.  The
    block qualifies when it holds only digits, spaces, tabs, CRs and
    LFs, every line with tokens holds the same number of them (at least
    2), and no token is longer than 18 digits; ``None`` sends any other
    block to the general path, which parses it or reports its first bad
    line.

    Every byte is classified through :data:`_BYTE_CLASS` (one byte
    each), token starts and ends are where the class changes, and
    each line's token count comes from where its newline falls among
    the token starts.  A qualifying block is then converted in C by
    ``np.fromstring(chunk, sep=" ")``, which skips any whitespace and
    reads each token as a base-10 integer: exact for 18-digit and
    zero-padded ids, with no Python object per token.
    """
    cls = _np.zeros(len(chunk) + 2, dtype=_np.uint8)  # padded with spaces
    cls[1:-1] = _np.frombuffer(chunk.translate(_BYTE_CLASS), dtype=_np.uint8)
    if cls.max() > 1:
        return None
    bounds = _np.flatnonzero(cls[1:] != cls[:-1])
    del cls
    starts, ends = bounds[0::2], bounds[1::2]  # token i is [starts, ends)
    if int((ends - starts).max()) > _MAX_DIGITS:
        return None
    raw = _np.frombuffer(chunk, dtype=_np.uint8)
    before = _np.searchsorted(starts, _np.flatnonzero(raw == 0x0A))
    per_line = _np.diff(before, prepend=0, append=len(starts))
    del bounds, starts, ends, before
    per_line = per_line[per_line > 0]  # blank lines carry no tokens
    ncols = int(per_line[0])
    if ncols < 2 or not bool(_np.all(per_line == ncols)):
        return None
    vals = _np.fromstring(chunk, dtype=_np.int64, sep=" ")
    if ncols > 2:
        vals = vals.reshape(-1, ncols)[:, :2].reshape(-1)
    return vals


def _longest_first(digits: "_np.ndarray"):
    """``(order, have)`` for per-item digit counts (uint8).

    ``order`` lists the items by descending digit count (a stable
    argsort of 8-bit keys is a radix sort), and ``have[j]`` counts the
    items with at least ``j`` digits: the items that still have a digit
    at position ``j - 1`` from the right are ``order[:have[j]]``.
    """
    order = _np.argsort(digits, kind="stable")[::-1]
    have = _np.cumsum(_np.bincount(digits)[::-1])[::-1]
    return order, have


def format_int_rows(*columns) -> bytes:
    """ASCII lines of integer columns, vectorized.

    Equal to ``"".join(" ".join(map(str, row)) + "\\n" for row in
    zip(*columns)).encode()`` for int64 columns of one length; ``b""``
    for empty ones.  The ``u v phi`` writer of ``repro decompose``.

    The columns' values are interleaved row by row.  Each value's digit
    count comes from where its magnitude falls among the powers of
    ten, and its field's offset from one cumulative sum of the widths.
    Digits are scattered into one ``uint8`` buffer right to left, one
    pass per digit position over the values that still have digits
    (longest first, so they are a prefix).  Magnitudes are computed in
    uint64, so ``-2**63`` needs no special case.
    """
    c = len(columns)
    n = len(columns[0]) if c else 0
    if not n:
        return b""
    vals = _np.empty((n, c), dtype=_np.int64)
    for j, col in enumerate(columns):
        vals[:, j] = col
    vals = vals.reshape(-1)
    neg = vals < 0
    mag = vals.astype(_np.uint64)
    _np.negative(mag, out=mag, where=neg)
    del vals
    pow10 = _np.array([10**d for d in range(1, 20)], dtype=_np.uint64)
    digits = _np.searchsorted(pow10, mag, side="right").astype(_np.uint8)
    digits += 1
    # each field: sign, digits, then a space (a newline ends the row)
    end = _np.cumsum(digits + neg + 1, dtype=_np.int64)
    buf = _np.empty(int(end[-1]), dtype=_np.uint8)
    order, have = _longest_first(digits)
    pos = end[order]
    pos -= 1  # each field's terminator
    q = mag[order]
    del mag
    for j in range(len(have) - 1):
        k = int(have[j + 1])
        q = q[:k]
        p = pos[:k]
        p -= 1
        rest = q // 10
        q -= rest * 10
        buf[p] = q  # the digit's value; the ASCII offset is added below
        q = rest
    buf += 0x30
    term = end - 1
    buf[term] = 0x20
    buf[term[c - 1 :: c]] = 0x0A
    buf[(term - digits - neg)[neg]] = 0x2D
    return buf.tobytes()


#: ``np.load`` parses every ``.npy`` header with ``ast.literal_eval``.
#: CPython 3.11 keeps the AST converter's recursion depth per
#: interpreter, not per thread, so threads loading at once (the
#: loopback dist ranks) can fail with "AST constructor recursion depth
#: mismatch".
_NPY_LOAD_LOCK = threading.Lock()


def load_npy(file, mmap_mode=None):
    """``np.load`` of one ``.npy`` file or buffer, one thread at a time."""
    with _NPY_LOAD_LOCK:
        return _np.load(file, mmap_mode=mmap_mode)
