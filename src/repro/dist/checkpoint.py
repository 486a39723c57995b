"""Wave checkpoints: shard-local peel state a rank can be rewound to.

The distributed peel runs for a long time on machinery that can fail
mid-pass; this module is what makes a failure cost *one checkpoint
interval* of work instead of the whole run.  At a level barrier every
rank snapshots its shard-local state — the ``sup``/``alive``/``phi``
slices, the alive-support histogram row, the hash-partitioned
dead-triangle bitmap and the wave/level counters — into the same
one-``.npy``-file-per-array layout the
:class:`~repro.triangles.index_builder.TriangleIndex` uses, under::

    <root>/epoch_<NNNNNNNN>/rank_<r>/<name>.npy ...
    <root>/epoch_<NNNNNNNN>/rank_<r>/manifest.json

The *epoch* is the rank's completed-level count at the barrier.  Every
rank steps the identical wave schedule, so checkpoint decisions are
taken at the same barrier on every rank without any extra exchange
round — the epoch ids line up across ranks by construction.

Torn writes are unrestorable by design: the array files are written
first, then the manifest — carrying a CRC32 and byte length per array
— is written to a temp name, fsynced and :func:`os.replace`d into
place.  A checkpoint without a complete, matching manifest simply does
not exist as far as :func:`latest_common_epoch` is concerned, so a
rank killed mid-snapshot costs its peers nothing but a rewind to the
previous barrier.

Recovery protocol (driven by :mod:`repro.core.dist`): after a failed
attempt the supervisor picks ``latest_common_epoch(root, nranks)`` —
the newest epoch at which *every* rank holds a valid manifest — and
relaunches the whole mesh with ``resume_epoch`` set; each rank loads
its slice and re-enters the wave loop at that barrier.  The schedule
is deterministic, so the resumed run's output is bit-identical to an
unfaulted one.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.dist.transport import DistError

try:  # the distributed peel is numpy-substrate-only (driver gates this)
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


class CheckpointError(DistError):
    """A checkpoint is absent, torn, or fails its manifest validation."""


MANIFEST = "manifest.json"

#: manifest schema version; bump on incompatible layout changes
FORMAT = 1

#: checkpoints a rank keeps for itself: the current epoch plus the
#: previous one, so a crash *during* a snapshot always leaves one
#: complete epoch behind
KEEP_EPOCHS = 2

_EPOCH_DIR = re.compile(r"^epoch_(\d{8})$")


def _epoch_dir(root, epoch: int) -> Path:
    return Path(root) / f"epoch_{epoch:08d}"


def _rank_dir(root, epoch: int, rank: int) -> Path:
    return _epoch_dir(root, epoch) / f"rank_{rank}"


def write_rank_checkpoint(
    root,
    epoch: int,
    rank: int,
    arrays: Dict[str, "_np.ndarray"],
    scalars: Dict[str, int],
) -> None:
    """Snapshot one rank's state at a barrier, atomically.

    Array files land first; the manifest (with per-array CRC32s) is
    written last via temp-file + fsync + :func:`os.replace`, so a torn
    write can never validate.  Older epochs beyond :data:`KEEP_EPOCHS`
    are pruned for this rank on the way out, bounding disk usage to
    two snapshots per rank however long the peel runs.
    """
    dirpath = _rank_dir(root, epoch, rank)
    dirpath.mkdir(parents=True, exist_ok=True)
    entries: Dict[str, Dict[str, int]] = {}
    for name, arr in arrays.items():
        arr = _np.ascontiguousarray(arr)
        path = dirpath / f"{name}.npy"
        _np.save(path, arr)
        entries[name] = {
            "crc": zlib.crc32(arr.tobytes()),
            "nbytes": int(arr.nbytes),
            "dtype": str(arr.dtype),
        }
    manifest = {
        "format": FORMAT,
        "epoch": int(epoch),
        "rank": int(rank),
        "arrays": entries,
        "scalars": {k: int(v) for k, v in scalars.items()},
    }
    tmp = dirpath / (MANIFEST + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, dirpath / MANIFEST)
    prune_rank_checkpoints(root, rank, keep=KEEP_EPOCHS)


def _read_manifest(root, epoch: int, rank: int) -> dict:
    path = _rank_dir(root, epoch, rank) / MANIFEST
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"rank {rank} epoch {epoch}: unreadable manifest: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"rank {rank} epoch {epoch}: manifest is not an object"
        )
    if (
        manifest.get("format") != FORMAT
        or manifest.get("epoch") != epoch
        or manifest.get("rank") != rank
    ):
        raise CheckpointError(
            f"rank {rank} epoch {epoch}: manifest header mismatch"
        )
    arrays = manifest.get("arrays")
    if (
        not isinstance(arrays, dict)
        or not isinstance(manifest.get("scalars"), dict)
        or not all(
            isinstance(entry, dict)
            and isinstance(entry.get("crc"), int)
            and isinstance(entry.get("nbytes"), int)
            for entry in arrays.values()
        )
    ):
        raise CheckpointError(
            f"rank {rank} epoch {epoch}: malformed manifest body"
        )
    return manifest


def load_rank_checkpoint(
    root, epoch: int, rank: int
) -> Tuple[Dict[str, "_np.ndarray"], Dict[str, int]]:
    """Load and validate one rank's snapshot; raises on any tear.

    Every array is checked against the manifest's CRC32 and byte
    length before it is handed back, so a half-written or corrupted
    file surfaces as :class:`CheckpointError` — never as silently
    wrong peel state.  Returned arrays are fresh writable copies.
    """
    manifest = _read_manifest(root, epoch, rank)
    dirpath = _rank_dir(root, epoch, rank)
    arrays: Dict[str, "_np.ndarray"] = {}
    for name, entry in manifest["arrays"].items():
        path = dirpath / f"{name}.npy"
        try:
            arr = _np.load(path)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"rank {rank} epoch {epoch}: unreadable array "
                f"{name!r}: {exc}"
            ) from exc
        if (
            int(arr.nbytes) != entry["nbytes"]
            or zlib.crc32(_np.ascontiguousarray(arr).tobytes())
            != entry["crc"]
        ):
            raise CheckpointError(
                f"rank {rank} epoch {epoch}: array {name!r} fails its "
                f"manifest checksum"
            )
        arrays[name] = arr
    return arrays, dict(manifest["scalars"])


def manifest_valid(root, epoch: int, rank: int) -> bool:
    """Whether a complete, checksum-clean snapshot exists."""
    try:
        load_rank_checkpoint(root, epoch, rank)
    except CheckpointError:
        return False
    return True


def _epochs_under(root) -> List[int]:
    try:
        names = os.listdir(root)
    except OSError:
        return []
    out = []
    for name in names:
        m = _EPOCH_DIR.match(name)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


def rank_epochs(root, rank: int) -> List[int]:
    """Epochs at which ``rank`` holds a *valid* snapshot, ascending."""
    return [
        e for e in _epochs_under(root) if manifest_valid(root, e, rank)
    ]


def latest_common_epoch(root, nranks: int) -> Optional[int]:
    """The newest epoch every rank can be rewound to, or ``None``.

    This is the supervisor's restart point: the maximum epoch at which
    all ``nranks`` manifests validate.  A rank that died mid-snapshot
    has a torn newest epoch, so the common epoch naturally falls back
    to the previous barrier; with no common epoch at all the run
    restarts from scratch.
    """
    common: Optional[int] = None
    for epoch in reversed(_epochs_under(root)):
        if all(manifest_valid(root, epoch, r) for r in range(nranks)):
            common = epoch
            break
    return common


def prune_rank_checkpoints(root, rank: int, keep: int = KEEP_EPOCHS) -> None:
    """Drop this rank's snapshots beyond the ``keep`` newest epochs.

    Only the rank's own subdirectories are removed (ranks may share a
    filesystem); an epoch directory emptied of every rank is removed
    opportunistically — a racing peer just leaves it for the driver's
    end-of-run scratch cleanup.
    """
    epochs = [
        e
        for e in _epochs_under(root)
        if (_rank_dir(root, e, rank)).exists()
    ]
    for epoch in epochs[: max(0, len(epochs) - keep)]:
        shutil.rmtree(_rank_dir(root, epoch, rank), ignore_errors=True)
        try:
            os.rmdir(_epoch_dir(root, epoch))
        except OSError:
            pass  # a peer's snapshot still lives there
