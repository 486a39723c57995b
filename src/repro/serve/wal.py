"""Crash-safe write-ahead log for the truss server's mutations.

Every mutating request is appended here — and fsynced — *before* it is
acknowledged or applied, so a server killed at any instant can replay
the tail on restart and converge to the exact state its acks promised.
The log is a directory of segment files::

    <root>/wal_<FFFFFFFFFFFFFFFF>.log      (F = first seq in the segment)

holding one text record per line::

    <seq> <op> <u> <v> <crc32:08x>

``<op> <u> <v>`` is exactly the ``'+ u v'`` update-stream format of
:mod:`repro.stream.updates` — the WAL replay path and the CLI parse one
format with one code path — and the CRC32 covers the record's bytes
before the checksum field.  Sequence numbers are global, contiguous and
start at 1; within a segment they start at the segment's name.  Records
are read as bytes, so a byte no writer produces (a non-ASCII one
included) is a torn record like any other corruption.

Torn records cannot lie: a record whose line is truncated, whose CRC
mismatches, or whose seq breaks the contiguous chain ends replay of the
log at the last valid record (:meth:`WriteAheadLog.replay`).  A torn
tail is additionally *truncated* when the log is reopened for appending
(:attr:`WriteAheadLog.torn_bytes`), so new records never land behind
unreadable bytes.  Torn bytes can only exist at the tail of the newest
segment — appends are sequential and fsynced — so this recovers every
crash the filesystem's ordering guarantees allow.

Segments roll at snapshot-publish boundaries
(:meth:`WriteAheadLog.roll`) and :meth:`WriteAheadLog.prune` drops
segments every record of which is already covered by the oldest
*retained* snapshot generation — decidable from segment names alone.
"""

from __future__ import annotations

import os
import re
import zlib
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.durable import fsync_dir, make_dirs
from repro.errors import ReproError
from repro.stream.updates import Update, format_update, parse_update_line


class WalError(ReproError):
    """The write-ahead log directory is unusable (not torn — broken)."""


_SEGMENT = re.compile(r"^wal_(\d{16})\.log$")


def _segment_name(first_seq: int) -> str:
    return f"wal_{first_seq:016d}.log"


def _record_line(seq: int, payload: str) -> str:
    body = f"{seq} {payload}"
    return f"{body} {zlib.crc32(body.encode('ascii')):08x}\n"


def _parse_record(line: bytes) -> Optional[Tuple[int, Update]]:
    """``(seq, (op, u, v))`` for a valid record line, else ``None``."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the final newline never made it out
    parts = line.split()
    if len(parts) != 5:
        return None
    body = b" ".join(parts[:4])
    try:
        crc = int(parts[4], 16)
    except ValueError:
        return None
    if len(parts[4]) != 8 or zlib.crc32(body) != crc:
        return None
    try:
        seq = int(parts[0])
        parsed = parse_update_line(b" ".join(parts[1:4]))
    except ValueError:
        return None
    if parsed is None or seq < 1:
        return None
    return seq, parsed


def _read_segment(
    path: Path, first_seq: int
) -> Tuple[List[Tuple[int, Update]], int, bool]:
    """``(records, nbytes, intact)`` of the segment at ``path``: its
    valid prefix as ``(seq, update)`` records, each valid and
    continuing the seq chain from ``first_seq``, that prefix's length
    in bytes, and whether it is the whole segment.  ``OSError``
    propagates."""
    records, nbytes = [], 0
    with open(path, "rb") as fh:
        for raw in fh:
            rec = _parse_record(raw)
            if rec is None or rec[0] != first_seq + len(records):
                return records, nbytes, False
            records.append(rec)
            nbytes += len(raw)
    return records, nbytes, True


class WriteAheadLog:
    """Append-only, fsync-before-ack update log over segment files.

    ``fsync=False`` drops the per-append fsync (for benchmarking the
    durability tax) — the write-path contract documented in
    :mod:`repro.serve` only holds with it on.
    """

    def __init__(self, root, *, fsync: bool = True) -> None:
        self.root = Path(root)
        make_dirs(self.root)
        self._fsync = fsync
        self._fh = None
        #: torn bytes truncated off the newest segment at open (0 when
        #: the log was clean) — the caller's signal to warn_degraded
        self.torn_bytes = 0
        firsts = self._segment_firsts()
        if not firsts:
            self._next_seq = 1
            self._open_segment(1)
            return
        # scan the newest segment: find its valid tail, truncate any
        # torn bytes off, and resume the seq chain after the last
        # valid record
        newest = firsts[-1]
        path = self.root / _segment_name(newest)
        last_seq, valid_bytes = self._scan_segment(path, newest)
        size = path.stat().st_size
        if valid_bytes < size:
            self.torn_bytes = size - valid_bytes
            with open(path, "r+b") as fh:
                fh.truncate(valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        self._next_seq = (last_seq if last_seq else newest - 1) + 1
        self._fh = open(path, "a", encoding="ascii")

    # ------------------------------------------------------------ layout
    def _segment_firsts(self) -> List[int]:
        out = []
        for name in os.listdir(self.root):
            m = _SEGMENT.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def _open_segment(self, first_seq: int) -> None:
        path = self.root / _segment_name(first_seq)
        self._fh = open(path, "a", encoding="ascii")
        self._sync_dir()

    def _sync_dir(self) -> None:
        if self._fsync:
            fsync_dir(self.root)

    @staticmethod
    def _scan_segment(path: Path, first_seq: int) -> Tuple[int, int]:
        """``(last valid seq or 0, byte length of the valid prefix)``."""
        try:
            records, valid_bytes, _ = _read_segment(path, first_seq)
        except OSError as exc:
            raise WalError(f"unreadable WAL segment {path}: {exc}") from exc
        return (records[-1][0] if records else 0), valid_bytes

    # ------------------------------------------------------------- writes
    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Seq of the newest durable record (0: the log is empty)."""
        return self._next_seq - 1

    def append(self, updates: Iterable[Update]) -> Tuple[int, int]:
        """Append one record per update, fsync once; ``(first, last)``.

        Durability point: when this returns, every record is on disk
        (modulo ``fsync=False``) — the *only* place a mutation may be
        acknowledged from.  An empty batch returns
        ``(next_seq, next_seq - 1)`` and touches nothing.  Every record
        is formatted before ``next_seq`` moves, so an update that cannot
        be logged (``ValueError``) leaves the seq chain as it was.
        """
        if self._fh is None:
            raise WalError("write-ahead log is closed")
        first = self._next_seq
        lines = [
            _record_line(seq, format_update(op, u, v))
            for seq, (op, u, v) in enumerate(updates, first)
        ]
        self._next_seq = first + len(lines)
        if lines:
            self._fh.write("".join(lines))
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
        return first, self._next_seq - 1

    def roll(self) -> None:
        """Close the current segment and start a fresh one at next_seq.

        Called at snapshot-publish barriers so segment boundaries line
        up with generation ``wal_seq``s and pruning stays a pure
        filename computation.  Rolling an empty segment is a no-op.
        """
        if self._fh is None:
            raise WalError("write-ahead log is closed")
        current = self._segment_firsts()[-1]
        if current == self._next_seq:
            return  # nothing logged since the last roll
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        self._fh.close()
        self._open_segment(self._next_seq)

    def prune(self, upto_seq: int) -> int:
        """Drop segments whose every record has seq <= ``upto_seq``.

        A segment is removable iff a *later* segment exists (the live
        tail is never deleted) and the later segment's first seq shows
        this one ends at or before ``upto_seq``.  Returns the number of
        segments removed.
        """
        firsts = self._segment_firsts()
        removed = 0
        for first, nxt in zip(firsts, firsts[1:]):
            if nxt - 1 <= upto_seq:
                try:
                    os.unlink(self.root / _segment_name(first))
                    removed += 1
                except OSError:
                    pass  # a racing restart already dropped it
        return removed

    # -------------------------------------------------------------- reads
    def replay(self, after_seq: int = 0) -> Iterator[Tuple[int, Update]]:
        """Yield ``(seq, (op, u, v))`` for valid records > ``after_seq``.

        Records come in seq order; replay *stops* at the first torn or
        corrupt record (tail truncation is the append path's job, not
        the reader's), so what this yields is exactly the durable,
        contiguous prefix of the log.
        """
        firsts = self._segment_firsts()
        for i, first in enumerate(firsts):
            last_possible = (
                firsts[i + 1] - 1 if i + 1 < len(firsts) else None
            )
            if last_possible is not None and last_possible <= after_seq:
                continue
            try:
                records, _, intact = _read_segment(
                    self.root / _segment_name(first), first
                )
            except OSError:
                return
            for seq, upd in records:
                if seq > after_seq:
                    yield seq, upd
            if not intact:
                return  # torn/corrupt: the log ends here

    def replay_updates(self, after_seq: int = 0) -> List[Update]:
        """The replayable updates after ``after_seq``, as a list."""
        return [upd for _, upd in self.replay(after_seq)]

    # ---------------------------------------------------------- lifecycle
    def sync(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Fsync and close the live segment (idempotent)."""
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
