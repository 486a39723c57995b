"""Wave checkpoints: shard-local peel state a rank can be rewound to.

The distributed peel runs for a long time on machinery that can fail
mid-pass; this module is what makes a failure cost *one checkpoint
interval* of work instead of the whole run.  At a level barrier every
rank snapshots its shard-local state — the ``sup``/``alive``/``phi``
slices, the alive-support histogram row, the hash-partitioned
dead-triangle bitmap and the wave/level counters — as one
:mod:`repro.durable` entry (the store gives the format)::

    <root>/epoch_<NNNNNNNN>/rank_<r>/<name>.npy     np.save bytes per array
    <root>/epoch_<NNNNNNNN>/rank_<r>/manifest.json  header {epoch, rank,
                                                    scalars}

The *epoch* is the rank's completed-level count at the barrier.  Every
rank steps the identical wave schedule, so the epoch ids line up
across ranks with no extra exchange round, and
:func:`latest_common_epoch` is the supervisor's restart point (the
recovery protocol is in :mod:`repro.dist`).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import durable
from repro.dist.transport import DistError
from repro.graph.csr import load_npy

try:  # the distributed peel is numpy-substrate-only (driver gates this)
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


class CheckpointError(DistError):
    """A checkpoint is absent, torn, or fails its manifest validation."""


MANIFEST = durable.MANIFEST

#: checkpoints a rank keeps for itself: the current epoch plus the
#: previous one, so a crash *during* a snapshot always leaves one
#: complete epoch behind
KEEP_EPOCHS = 2

_PREFIX = "epoch"


def _rank_dir(root, epoch: int, rank: int) -> Path:
    return durable.entry_dir(root, _PREFIX, epoch) / f"rank_{rank}"


def write_rank_checkpoint(
    root,
    epoch: int,
    rank: int,
    arrays: Dict[str, "_np.ndarray"],
    scalars: Dict[str, int],
) -> None:
    """Snapshot one rank's state at a barrier, atomically.

    Older epochs beyond :data:`KEEP_EPOCHS` are pruned for this rank
    on the way out, bounding disk usage to two snapshots per rank
    however long the peel runs.
    """
    payloads = {}
    for name, arr in arrays.items():
        buf = io.BytesIO()
        _np.save(buf, arr)
        payloads[f"{name}.npy"] = buf.getvalue()
    scalars = {k: int(v) for k, v in scalars.items()}
    header = {"epoch": int(epoch), "rank": int(rank), "scalars": scalars}
    durable.publish(_rank_dir(root, epoch, rank), payloads, header)
    prune_rank_checkpoints(root, rank, keep=KEEP_EPOCHS)


def _read(root, epoch: int, rank: int):
    """``(manifest, payloads)`` of one rank's checksum-clean entry."""
    try:
        return durable.read(
            _rank_dir(root, epoch, rank),
            {"epoch": epoch, "rank": rank, "scalars": dict},
        )
    except durable.StoreError as exc:
        raise CheckpointError(f"rank {rank} epoch {epoch}: {exc}") from exc


def load_rank_checkpoint(
    root, epoch: int, rank: int
) -> Tuple[Dict[str, "_np.ndarray"], Dict[str, int]]:
    """Load and validate one rank's snapshot; raises on any tear.

    Every array file is checked against the manifest's CRC32 and byte
    length before it is parsed, so a half-written or corrupted file
    surfaces as :class:`CheckpointError` — never as silently wrong
    peel state.  Returned arrays are fresh writable copies.
    """
    manifest, payloads = _read(root, epoch, rank)
    arrays = {
        name.removesuffix(".npy"): load_npy(io.BytesIO(blob))
        for name, blob in payloads.items()
    }
    return arrays, dict(manifest["scalars"])


def manifest_valid(root, epoch: int, rank: int) -> bool:
    """Whether a complete, checksum-clean snapshot exists."""
    try:
        _read(root, epoch, rank)
    except CheckpointError:
        return False
    return True


def rank_epochs(root, rank: int) -> List[int]:
    """Epochs at which ``rank`` holds a *valid* snapshot, ascending."""
    return [
        e for e in durable.entries(root, _PREFIX)
        if manifest_valid(root, e, rank)
    ]


def latest_common_epoch(root, nranks: int) -> Optional[int]:
    """The newest epoch every rank can be rewound to, or ``None``.

    This is the supervisor's restart point: the maximum epoch at which
    all ``nranks`` manifests validate.  A rank that died mid-snapshot
    has a torn newest epoch, so the common epoch naturally falls back
    to the previous barrier; with no common epoch at all the run
    restarts from scratch.
    """
    for epoch in reversed(durable.entries(root, _PREFIX)):
        if all(manifest_valid(root, epoch, r) for r in range(nranks)):
            return epoch
    return None


def prune_rank_checkpoints(root, rank: int, keep: int = KEEP_EPOCHS) -> None:
    """Drop this rank's snapshots beyond the ``keep`` newest epochs.

    Only the rank's own subdirectories go (ranks share the root); an
    epoch directory no rank uses any more goes with the last of them.
    """
    durable.prune(
        root, _PREFIX, keep,
        lambda e: _rank_dir(root, e, rank).is_dir(),
        sub=f"rank_{rank}",
    )
