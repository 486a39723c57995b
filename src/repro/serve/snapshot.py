"""Immutable snapshot generations of the maintained truss state.

The server's read side never touches the live maintainer: after every
applied write batch (or every ``snapshot_every``-th, see
:mod:`repro.serve.service`) the writer *publishes* the full state as a
new generation under::

    <root>/gen_<NNNNNNNN>/state.bin       packed '<4q' rows (u, v, phi, sup)
    <root>/gen_<NNNNNNNN>/manifest.json   {format, gen, wal_seq, rows, nbytes, crc}
    <root>/HEAD.json                      {gen, wal_seq, applied_seq} freshness pointer

following the :mod:`repro.dist.checkpoint` atomicity recipe: the state
file lands first (fsynced), then the manifest — carrying the file's
CRC32 and byte length — is written to a temp name, fsynced and
:func:`os.replace`d into place.  The snapshot root is fsynced once the
generation directory exists and the generation directory once the
manifest is renamed into it, so the new entries are durable before the
caller prunes older generations or WAL segments.  A generation without
a complete, checksum-clean manifest does not exist as far as
:func:`latest_valid_generation` is concerned, so a torn publish costs
readers nothing but one older generation.

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

import json
import os
import re
import shutil
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.serve.wal import fsync_dir

Edge = Tuple[int, int]


class SnapshotError(ReproError):
    """A generation is absent, torn, or fails its manifest validation."""


MANIFEST = "manifest.json"
STATE = "state.bin"
HEAD = "HEAD.json"

#: manifest schema version; bump on incompatible layout changes
FORMAT = 1

#: generations kept on disk: the newest valid one plus its predecessor,
#: so a crash *during* a publish always leaves one valid behind
KEEP_GENERATIONS = 2

#: one row: u, v, phi, sup — little-endian int64, sorted by (u, v)
ROW = struct.Struct("<4q")

_GEN_DIR = re.compile(r"^gen_(\d{8})$")


def _gen_dir(root, gen: int) -> Path:
    return Path(root) / f"gen_{gen:08d}"


def generations(root) -> List[int]:
    """Every generation id present under ``root`` (valid or not), asc."""
    try:
        names = os.listdir(root)
    except OSError:
        return []
    out = []
    for name in names:
        m = _GEN_DIR.match(name)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


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
    dirpath = _gen_dir(root, gen)
    dirpath.mkdir(parents=True, exist_ok=True)
    fsync_dir(root)
    blob = b"".join(
        ROW.pack(u, v, phi[(u, v)], sup[(u, v)])
        for u, v in sorted(phi)
    )
    state_path = dirpath / STATE
    with open(state_path, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    manifest = {
        "format": FORMAT,
        "gen": int(gen),
        "wal_seq": int(wal_seq),
        "rows": len(phi),
        "nbytes": len(blob),
        "crc": zlib.crc32(blob),
    }
    tmp = dirpath / (MANIFEST + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, dirpath / MANIFEST)
    fsync_dir(dirpath)
    return dirpath


def read_manifest(root, gen: int) -> dict:
    """The validated manifest header of one generation (no state read)."""
    path = _gen_dir(root, gen) / MANIFEST
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SnapshotError(
            f"generation {gen}: unreadable manifest: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(f"generation {gen}: manifest is not an object")
    if manifest.get("format") != FORMAT or manifest.get("gen") != gen:
        raise SnapshotError(f"generation {gen}: manifest header mismatch")
    for key in ("wal_seq", "rows", "nbytes", "crc"):
        if not isinstance(manifest.get(key), int):
            raise SnapshotError(
                f"generation {gen}: manifest missing {key!r}"
            )
    return manifest


def load_generation(
    root, gen: int, *, want_sup: bool = True
) -> Tuple[Dict[Edge, int], Optional[Dict[Edge, int]], int]:
    """Load and CRC-verify one generation: ``(phi, sup, wal_seq)``.

    Raises :class:`SnapshotError` on any tear — a half-written state
    file can never come back as silently wrong trussness.  Readers
    that only serve queries pass ``want_sup=False`` and get ``None``
    in the middle slot.
    """
    manifest = read_manifest(root, gen)
    path = _gen_dir(root, gen) / STATE
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotError(
            f"generation {gen}: unreadable state file: {exc}"
        ) from exc
    if len(blob) != manifest["nbytes"] or zlib.crc32(blob) != manifest["crc"]:
        raise SnapshotError(
            f"generation {gen}: state file fails its manifest checksum"
        )
    if len(blob) != manifest["rows"] * ROW.size:
        raise SnapshotError(
            f"generation {gen}: row count disagrees with byte length"
        )
    phi: Dict[Edge, int] = {}
    sup: Optional[Dict[Edge, int]] = {} if want_sup else None
    for u, v, p, s in ROW.iter_unpack(blob):
        phi[(u, v)] = p
        if sup is not None:
            sup[(u, v)] = s
    return phi, sup, manifest["wal_seq"]


def generation_valid(root, gen: int) -> bool:
    """Whether a complete, checksum-clean generation exists."""
    try:
        load_generation(root, gen, want_sup=False)
    except SnapshotError:
        return False
    return True


def latest_valid_generation(root) -> Optional[int]:
    """The newest generation that fully validates, or ``None``."""
    for gen in reversed(generations(root)):
        if generation_valid(root, gen):
            return gen
    return None


def prune_generations(root, keep: int = KEEP_GENERATIONS) -> None:
    """Drop everything older than the ``keep`` newest *valid* gens.

    Torn generations newer than the cutoff are left alone (they cost
    only disk and vanish once enough valid successors exist); the live
    pointer is never part of the computation, so pruning can race a
    reader at worst into one retried load.
    """
    valid = [g for g in generations(root) if generation_valid(root, g)]
    if len(valid) <= keep:
        return
    cutoff = valid[-keep]
    for gen in generations(root):
        if gen < cutoff:
            shutil.rmtree(_gen_dir(root, gen), ignore_errors=True)


def oldest_retained_wal_seq(root, keep: int = KEEP_GENERATIONS) -> int:
    """The WAL seq replay could still need, given retained generations.

    This is the ``upto_seq`` the WAL can be pruned to: every record at
    or before the *oldest retained valid* generation's ``wal_seq`` is
    folded into a snapshot recovery will never fall behind.
    """
    valid = [g for g in generations(root) if generation_valid(root, g)]
    if not valid:
        return 0
    return read_manifest(root, valid[-keep] if len(valid) >= keep
                         else valid[0])["wal_seq"]


def write_head(root, gen: int, wal_seq: int, applied_seq: int) -> None:
    """Atomically replace the advisory freshness pointer."""
    payload = json.dumps(
        {"gen": int(gen), "wal_seq": int(wal_seq),
         "applied_seq": int(applied_seq)}
    )
    tmp = Path(root) / (HEAD + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
    os.replace(tmp, Path(root) / HEAD)


def read_head(root) -> Optional[dict]:
    """The freshness pointer, or ``None`` when absent/unreadable."""
    try:
        with open(Path(root) / HEAD, "r", encoding="utf-8") as fh:
            head = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(head, dict) or not all(
        isinstance(head.get(k), int) for k in ("gen", "wal_seq", "applied_seq")
    ):
        return None
    return head
