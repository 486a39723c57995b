"""Immutable snapshot generations of the maintained truss state.

The server's read side never touches the live maintainer: after every
applied write batch (or every ``snapshot_every``-th, see
:mod:`repro.serve.service`) the writer *publishes* the full state as a
new generation, one :mod:`repro.durable` entry (the store gives the
format, and a torn generation costs readers one older one)::

    <root>/gen_<NNNNNNNN>/state.bin       packed '<4q' rows (u, v, phi, sup)
    <root>/gen_<NNNNNNNN>/manifest.json   header {gen, wal_seq}
    <root>/HEAD.json                      {gen, wal_seq, applied_seq} freshness pointer

Rows are sorted by ``(u, v)`` with ``u < v`` canonical edges; ``phi``
is the edge's trussness and ``sup`` its support — together exactly the
state :meth:`repro.stream.TrussMaintainer.from_state` rebuilds a
maintainer from, which is what makes *snapshot + WAL tail replay* a
complete recovery story.

A generation stays one ``(m, 4)`` int64 array on its whole way through
the server, never a dict per edge.  The maintainer compacts its state
into exactly these rows, and its ``trussness``/``supports`` views hand
them over as they are: :func:`write_generation` writes their bytes and
returns them for the in-process :class:`~repro.serve.view.ReadView`.
:func:`load_generation` puts ``np.frombuffer`` over the CRC-checked
bytes and returns two :class:`RowMap` mappings over them, equal to the
``{(u, v): value}`` dicts they stand for, which
:meth:`~repro.stream.TrussMaintainer.from_state` rebases onto without
a dict per edge.  Serving therefore needs numpy.

``HEAD.json`` is advisory (atomically replaced, never fsynced): worker
processes read it to learn the newest generation and the newest
*applied* WAL seq, which is how a read response knows it is stale.
Recovery never trusts it — the generation scan does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import ItemsView, Mapping
from pathlib import Path
from typing import List, Optional, Tuple

from repro import durable
from repro.errors import ReproError
from repro.graph.csr import INT64_MAX, INT64_MIN, edge_rows

try:
    import numpy as _np
except ImportError:  # TrussService.open refuses to start without it
    _np = None

Edge = Tuple[int, int]


class SnapshotError(ReproError):
    """A generation is absent, torn, or fails its manifest validation."""


MANIFEST = durable.MANIFEST
STATE = "state.bin"
HEAD = "HEAD.json"

#: generations kept on disk: the newest valid one plus its predecessor,
#: so a crash *during* a publish always leaves one valid behind
KEEP_GENERATIONS = 2

#: one row: u, v, phi, sup — little-endian int64, sorted by (u, v)
ROW_DTYPE = "<i8"
ROW_COLS = 4
_ROW_BYTES = 8 * ROW_COLS

_PREFIX = "gen"


class RowMap(Mapping):
    """Read-only ``{(u, v): rows[i, col]}`` over int64 ``rows`` sorted
    by ``(u, v)`` in their first two columns.

    Equal to the dict of the same items.  A lookup is a binary search.
    Iteration and :meth:`items` run at C speed over key tuples built on
    the first walk and reused after it; ``keys`` hands in that list
    from another map over the same rows.  ``rows`` and ``col`` let
    :func:`~repro.graph.csr.edge_rows` take the array back unchanged.
    """

    __slots__ = ("rows", "col", "_u", "_v", "_vals", "_keys")

    def __init__(self, rows, col: int,
                 keys: Optional[List[Edge]] = None) -> None:
        self.rows = rows
        self.col = col
        self._u = _np.ascontiguousarray(rows[:, 0])
        self._v = _np.ascontiguousarray(rows[:, 1])
        self._vals = rows[:, col]
        self._keys = keys

    def __getitem__(self, key) -> int:
        try:
            a, b = key
            inside = (INT64_MIN <= a <= INT64_MAX
                      and INT64_MIN <= b <= INT64_MAX)
        except (TypeError, ValueError):
            inside = False
        if inside:
            # bisect over memoryviews keeps the GIL; see ReadView
            u, v = memoryview(self._u), memoryview(self._v)
            lo = bisect_left(u, a)
            hi = bisect_right(u, a, lo)
            j = bisect_left(v, b, lo, hi)
            if j < hi and v[j] == b:
                return int(self._vals[j])
        raise KeyError(key)

    def __len__(self) -> int:
        return len(self._vals)

    def __iter__(self):
        if self._keys is None:
            self._keys = list(zip(self._u.tolist(), self._v.tolist()))
        return iter(self._keys)

    def items(self):
        return _RowItems(self)

    def __eq__(self, other):
        # Mapping.__eq__ builds a dict of each side first: two
        # transient m-entry dicts per comparison
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(self) != len(other):
            return False
        missing = object()
        get = other.get
        return all(get(k, missing) == v for k, v in self.items())

    def __repr__(self) -> str:
        return f"RowMap({dict(self.items())!r})"


class _RowItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        m = self._mapping
        return zip(m, m._vals.tolist())


def generations(root) -> List[int]:
    """Every generation id present under ``root`` (valid or not), asc."""
    return durable.entries(root, _PREFIX)


def state_rows(phi: Mapping, sup: Mapping):
    """The ``(m, 4)`` rows ``(u, v, phi, sup)`` of two maps over one
    canonical-edge key set, sorted by ``(u, v)``: the rows themselves
    for two views of one rows array's columns 2 and 3 (a generation's
    :class:`RowMap` pair, or a maintainer's ``trussness`` and
    ``supports``), else an export (:func:`~repro.graph.csr.edge_rows`).
    """
    try:
        return edge_rows(phi, sup)
    except ValueError as exc:
        raise SnapshotError(f"phi and sup: {exc}") from None


def write_generation(root, gen: int, phi: Mapping, sup: Mapping,
                     wal_seq: int):
    """Publish one generation atomically; returns its rows
    (:func:`state_rows`).

    ``phi``/``sup`` must share one canonical-edge key set: the service
    passes the maintainer's ``trussness`` and ``supports``, whose
    compacted rows are written as they are.  ``wal_seq`` is the newest
    WAL record already folded into this state — replay resumes right
    after it.
    """
    rows = state_rows(phi, sup)
    durable.publish(
        durable.entry_dir(root, _PREFIX, gen),
        {STATE: rows.astype(ROW_DTYPE, copy=False).tobytes()},
        {"gen": int(gen), "wal_seq": int(wal_seq)},
    )
    return rows


def _read(root, gen: int) -> Tuple[dict, bytes]:
    """``(manifest, state bytes)`` of a checksum-clean generation."""
    try:
        manifest, payloads = durable.read(
            durable.entry_dir(root, _PREFIX, gen),
            {"gen": gen, "wal_seq": int},
        )
    except durable.StoreError as exc:
        raise SnapshotError(f"generation {gen}: {exc}") from exc
    state = payloads.get(STATE)
    if state is None or len(state) % _ROW_BYTES:
        raise SnapshotError(f"generation {gen}: no whole state rows")
    return manifest, state


def read_manifest(root, gen: int) -> dict:
    """The validated manifest of one generation; ``nbytes`` is the
    state file's byte length."""
    manifest, state = _read(root, gen)
    return {**manifest, "nbytes": len(state)}


def load_generation(
    root, gen: int, *, want_sup: bool = True
) -> Tuple[RowMap, Optional[RowMap], int]:
    """Load and CRC-verify one generation: ``(phi, sup, wal_seq)``.

    ``phi`` and ``sup`` are :class:`RowMap` views over the file's
    rows (``phi.rows``).  Raises :class:`SnapshotError` on any tear —
    a half-written state file can never come back as silently wrong
    trussness.  Readers that only serve queries pass
    ``want_sup=False`` and get ``None`` in the middle slot.
    """
    manifest, state = _read(root, gen)
    rows = _np.frombuffer(state, dtype=ROW_DTYPE).reshape(-1, ROW_COLS)
    phi = RowMap(rows, 2)
    sup = RowMap(rows, 3, list(phi)) if want_sup else None
    return phi, sup, manifest["wal_seq"]


def generation_valid(root, gen: int) -> bool:
    """Whether a complete, checksum-clean generation exists."""
    try:
        _read(root, gen)
    except SnapshotError:
        return False
    return True


def latest_valid_generation(root) -> Optional[int]:
    """The newest generation that fully validates, or ``None``."""
    return next(
        (g for g in reversed(generations(root)) if generation_valid(root, g)),
        None,
    )


def prune_generations(root, keep: int = KEEP_GENERATIONS) -> List[dict]:
    """Drop everything older than the ``keep`` newest *valid* gens;
    returns the validated manifests (:func:`read_manifest`) of those
    ``keep``, oldest first.

    Each generation is read and checked at most once, newest first, and
    none older than the cutoff is read at all.  Torn generations newer
    than the cutoff are left alone (they cost only disk and vanish once
    enough valid successors exist); the live pointer is never part of
    the computation, so pruning can race a reader at worst into one
    retried load.
    """
    manifests = {}

    def valid(gen: int) -> bool:
        try:
            manifests[gen] = read_manifest(root, gen)
        except SnapshotError:
            return False
        return True

    kept = durable.prune(root, _PREFIX, keep, valid)
    return [manifests[g] for g in kept]


def oldest_retained_wal_seq(
    root, keep: int = KEEP_GENERATIONS, retained: Optional[List[dict]] = None
) -> int:
    """The WAL seq replay could still need, given retained generations.

    This is the ``upto_seq`` the WAL can be pruned to: every record at
    or before the *oldest retained valid* generation's ``wal_seq`` is
    folded into a snapshot recovery will never fall behind.
    ``retained`` takes what :func:`prune_generations` returned: its
    oldest header already holds the answer, so nothing is read again.
    """
    if retained is not None:
        return retained[0]["wal_seq"] if retained else 0
    valid = [g for g in generations(root) if generation_valid(root, g)]
    return read_manifest(root, valid[-keep:][0])["wal_seq"] if valid else 0


def write_head(root, gen: int, wal_seq: int, applied_seq: int) -> None:
    """Atomically replace the advisory freshness pointer."""
    durable.write_json(
        Path(root) / HEAD,
        {"gen": int(gen), "wal_seq": int(wal_seq),
         "applied_seq": int(applied_seq)},
    )


def read_head(root) -> Optional[dict]:
    """The freshness pointer, or ``None`` when absent/unreadable."""
    head = durable.read_json(Path(root) / HEAD)
    if not isinstance(head, dict) or not all(
        isinstance(head.get(k), int) for k in ("gen", "wal_seq", "applied_seq")
    ):
        return None
    return head
