"""The one on-disk format for durable artifacts: checksummed entries.

Serve snapshot generations (:mod:`repro.serve.snapshot`) and dist wave
checkpoints (:mod:`repro.dist.checkpoint`) are both *entries*, each a
directory of named byte payloads and a manifest vouching for them::

    <root>/<prefix>_<NNNNNNNN>/  a numbered entry (or per-rank entries)
    <entry>/<name>               one raw file per payload
    <entry>/manifest.json        {"format": 2, "payloads": {<name>: {"crc":
                                  CRC32, "nbytes": N}}, ...caller header}

The header is the caller's: the identity a reader expects back
(``gen``; ``epoch`` and ``rank``) plus small metadata.  So are the
payload bytes, which the store checks but never parses.

:func:`publish` creates the entry directory with :func:`make_dirs`,
which fsyncs the parent of every directory it creates; writes and
fsyncs each payload; writes the manifest to ``manifest.json.tmp``,
fsyncs it and renames it into place (:func:`os.replace`); then fsyncs
the entry directory, so every name in it is durable before the caller
prunes anything older.  An entry exists only once its manifest is in
place with the expected header and format and every payload matches
its CRC32 and length; anything less makes :func:`read` raise
:class:`StoreError`, and readers fall back to an older entry.
:func:`prune` only removes entries older than the ``keep`` newest that
count, so a crash anywhere in a publish leaves the previous entry
readable.

:func:`write_json` and :func:`read_json` carry small advisory
documents (serve ``HEAD.json``, ``endpoint.json``): a temp file
replaced into place, so readers see the old document or the new one.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError

MANIFEST = "manifest.json"

#: manifest schema version; bump on incompatible layout changes
FORMAT = 2


class StoreError(ReproError):
    """An entry is absent, torn, or fails its manifest checks."""


def fsync_dir(path) -> None:
    """Make the entries of directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_file(path: Path, data: bytes, sync: bool) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)


def write_json(path, doc, *, sync: bool = False) -> None:
    """Atomically replace ``path`` with ``doc`` as JSON; ``sync``
    fsyncs it before the rename (a manifest's durability point, which
    advisory documents skip)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    _write_file(tmp, json.dumps(doc).encode("utf-8"), sync)
    os.replace(tmp, path)


def read_json(path):
    """The JSON document at ``path``, or ``None`` when absent or torn."""
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def entry_dir(root, prefix: str, n: int) -> Path:
    return Path(root) / f"{prefix}_{n:08d}"


def entries(root, prefix: str) -> List[int]:
    """Every entry number under ``root`` (valid or not), ascending."""
    try:
        names = os.listdir(root)
    except OSError:
        return []
    pattern = re.compile(re.escape(prefix) + r"_(\d{8})")
    return sorted(int(m[1]) for m in map(pattern.fullmatch, names) if m)


def make_dirs(path) -> None:
    """Create directory ``path`` and its missing ancestors durably:
    each new directory's parent is fsynced, so its entry survives a
    power loss."""
    path = Path(path)
    if not path.is_dir():
        make_dirs(path.parent)
        try:
            os.mkdir(path)
        except FileExistsError:
            pass  # a peer publishing into the same parent won the race
        fsync_dir(path.parent)


def publish(entry, payloads: Dict[str, bytes], header: dict) -> None:
    """Write one entry durably, in the order the module docstring
    gives."""
    entry = Path(entry)
    make_dirs(entry)
    table = {}
    for name, data in payloads.items():
        _write_file(entry / name, data, sync=True)
        table[name] = {"crc": zlib.crc32(data), "nbytes": len(data)}
    manifest = {**header, "format": FORMAT, "payloads": table}
    write_json(entry / MANIFEST, manifest, sync=True)
    fsync_dir(entry)


def _matches(value, want) -> bool:
    return isinstance(value, want) if isinstance(want, type) else value == want


def read(entry, expect: dict) -> Tuple[dict, Dict[str, bytes]]:
    """``(manifest, {name: bytes})`` of a complete, checksum-clean
    entry; raises :class:`StoreError` otherwise.

    Each ``expect`` item is a header field the manifest must carry:
    a value it must equal, or a type it must have.
    """
    entry = Path(entry)
    manifest = read_json(entry / MANIFEST)
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != FORMAT
        or not all(_matches(manifest.get(k), v) for k, v in expect.items())
    ):
        raise StoreError("no readable manifest with the expected header")
    table = manifest.get("payloads")
    if not isinstance(table, dict) or not all(
        isinstance(meta, dict)
        and isinstance(meta.get("crc"), int)
        and isinstance(meta.get("nbytes"), int)
        for meta in table.values()
    ):
        raise StoreError("malformed manifest payload table")
    payloads = {}
    for name, meta in table.items():
        try:
            with open(entry / name, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise StoreError(f"unreadable payload {name!r}: {exc}") from exc
        if len(data) != meta["nbytes"] or zlib.crc32(data) != meta["crc"]:
            raise StoreError(f"payload {name!r} fails its manifest checksum")
        payloads[name] = data
    return manifest, payloads


def prune(root, prefix: str, keep: int, counts: Callable[[int], bool],
          sub: Optional[str] = None) -> List[int]:
    """Delete every entry older than the ``keep``-th (``keep >= 1``)
    newest one that ``counts``; newer ones stay, counted or not.  With
    ``sub`` an entry is ``<prefix>_<n>/<sub>``, and its numbered parent
    goes too once nothing else lives in it.

    ``counts`` is asked newest first, and of no entry older than the
    cutoff.  Returns the (at most ``keep``) kept entries that count,
    oldest first.
    """
    numbers = entries(root, prefix)
    counted: List[int] = []
    cut = 0
    for i in range(len(numbers) - 1, -1, -1):
        if counts(numbers[i]):
            counted.append(numbers[i])
            if len(counted) == keep:
                cut = i
                break
    for n in numbers[:cut]:
        parent = entry_dir(root, prefix, n)
        shutil.rmtree(parent / sub if sub else parent, ignore_errors=True)
        if sub:
            try:
                os.rmdir(parent)
            except OSError:
                pass  # another sub-entry still lives there
    return counted[::-1]
