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

``HEAD.json`` is advisory (atomically replaced, never fsynced): worker
processes read it to learn the newest generation and the newest
*applied* WAL seq, which is how a read response knows it is stale.
Recovery never trusts it — the generation scan does.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import durable
from repro.errors import ReproError

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
ROW = struct.Struct("<4q")

_PREFIX = "gen"


def generations(root) -> List[int]:
    """Every generation id present under ``root`` (valid or not), asc."""
    return durable.entries(root, _PREFIX)


def write_generation(
    root,
    gen: int,
    phi: Dict[Edge, int],
    sup: Dict[Edge, int],
    wal_seq: int,
) -> Path:
    """Publish one generation atomically; returns its directory.

    ``phi``/``sup`` must share one canonical-edge key set (they do for
    any consistent :class:`~repro.stream.TrussMaintainer`); ``wal_seq``
    is the newest WAL record already folded into this state — replay
    resumes right after it.
    """
    if set(phi) != set(sup):
        raise SnapshotError(
            "phi and sup must cover the same edges "
            f"({len(phi)} vs {len(sup)})"
        )
    blob = b"".join(
        ROW.pack(u, v, phi[(u, v)], sup[(u, v)])
        for u, v in sorted(phi)
    )
    dirpath = durable.entry_dir(root, _PREFIX, gen)
    durable.publish(
        dirpath, {STATE: blob}, {"gen": int(gen), "wal_seq": int(wal_seq)}
    )
    return dirpath


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
    if state is None or len(state) % ROW.size:
        raise SnapshotError(f"generation {gen}: no whole state rows")
    return manifest, state


def read_manifest(root, gen: int) -> dict:
    """The validated manifest of one generation; ``nbytes`` is the
    state file's byte length."""
    manifest, state = _read(root, gen)
    return {**manifest, "nbytes": len(state)}


def load_generation(
    root, gen: int, *, want_sup: bool = True
) -> Tuple[Dict[Edge, int], Optional[Dict[Edge, int]], int]:
    """Load and CRC-verify one generation: ``(phi, sup, wal_seq)``.

    Raises :class:`SnapshotError` on any tear — a half-written state
    file can never come back as silently wrong trussness.  Readers
    that only serve queries pass ``want_sup=False`` and get ``None``
    in the middle slot.
    """
    manifest, state = _read(root, gen)
    phi: Dict[Edge, int] = {}
    sup: Optional[Dict[Edge, int]] = {} if want_sup else None
    for u, v, p, s in ROW.iter_unpack(state):
        phi[(u, v)] = p
        if sup is not None:
            sup[(u, v)] = s
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


def prune_generations(root, keep: int = KEEP_GENERATIONS) -> None:
    """Drop everything older than the ``keep`` newest *valid* gens.

    Torn generations newer than the cutoff are left alone (they cost
    only disk and vanish once enough valid successors exist); the live
    pointer is never part of the computation, so pruning can race a
    reader at worst into one retried load.
    """
    durable.prune(root, _PREFIX, keep, lambda g: generation_valid(root, g))


def oldest_retained_wal_seq(root, keep: int = KEEP_GENERATIONS) -> int:
    """The WAL seq replay could still need, given retained generations.

    This is the ``upto_seq`` the WAL can be pruned to: every record at
    or before the *oldest retained valid* generation's ``wal_seq`` is
    folded into a snapshot recovery will never fall behind.
    """
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
