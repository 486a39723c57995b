"""Rank-based distributed peeling over static edge shards.

The owner-computes peel over a real message transport:
``method="dist"`` (driven by :mod:`repro.core.dist`) runs one
:class:`~repro.dist.rank.Rank` per shard of an
:class:`~repro.partition.edge_shards.EdgeShardPlan`, each
owning only its slice of the peel state plus a read-only mmap of the
triangle index — no process holds the global triangle set, the global
dedupe state, or another rank's supports.

Triangle-index files
--------------------
The index every rank mmaps is produced by the streaming two-pass
counting builder (:func:`repro.triangles.index_builder.
build_triangle_index` with ``storage="mmap"``): one directory holding
five little-endian ``.npy`` files — ``e1``/``e2``/``e3`` (the
per-triangle edge columns, length |△G|), ``tptr`` (incidence pointers,
int64, length m+1) and ``tinc`` (incidence slots, length 3·|△G|, each
edge's window ascending in triangle id).  ``e1``/``e2``/``e3``/``tinc``
are int32 when m and the wedge count are both below 2**31, int64
otherwise; each ``.npy`` header names its dtype, so the ranks need no
other format flag.  :class:`~repro.dist.rank.
TriangleIndex` (re-exported here, defined next to the builder) is the
read side: ``open()`` maps all five read-only, so rank processes on one
host share the page cache.  The driver streams the arrays straight
into this layout — its build memory is O(m + chunk), never O(|△G|);
initial supports are recovered rank-side as ``diff(tptr)`` over the
owned slice, so no support file exists on disk.

Wire protocol
-------------
**Frame format.**  Every message is one frame: an 8-byte little-endian
unsigned payload length (``struct '<Q'``, :data:`~repro.dist.transport.
FRAME_HEADER`) followed by the payload — the raw bytes of a C-contiguous
little-endian int64 numpy array (possibly empty).  The TCP mesh carries
one connection per rank pair, built by dial-low/accept-high with an
8-byte signed hello frame (``struct '<q'``) announcing the dialer's
rank; the loopback fabric replaces sockets with one in-process queue
per directed pair and charges identical frame accounting.

**Exchange rounds per wave.**  Each *level* opens with one control
``allgather`` of ``(remaining_live_edges, local_support_floor)`` —
its sum/min decide termination and the next ``k``.  Each *wave* inside
a level is exactly three rounds:

1. control ``allgather`` of the local frontier size (a zero sum ends
   the wave loop; frontiers themselves never cross the wire — a
   shard's frontier edges are by definition edges it owns);
2. ``alltoallv`` of candidate destroyed-triangle ids, routed to their
   *hash owners* for dedupe;
3. ``alltoallv`` of the newly-dead triangle ids, routed to the shard
   owner(s) of their partner edges (deduped per ``(owner, triangle)``
   key, so every triangle decrements each partner exactly once), which
   apply the support decrements to their own slices.

**Triangle-id hash partitioning.**  Triangle ``t`` is owned by rank
``t % size``; the owner keeps one bool bitmap indexed by ``t // size``
(``~|△G| / size`` bytes per rank) and declares a candidate dead at
most once — the distributed replacement for the coordinator's global
``tdead``/``np.unique`` dedupe.  Supports therefore stay exact, the
wave schedule matches :func:`repro.core.flat.run_wave_peel` decision
for decision, and the assembled trussness map is bit-identical to
``method="flat"`` at every rank count on both transports.

Failure model
-------------
A rank can die at any instant — a crash, a kill, a reset socket — and
a channel can lose, delay or duplicate a frame.  The design turns
every one of those into a *detected, attributable* failure rather
than a hang or silent corruption:

* a dead TCP rank closes its sockets, so peers fail fast on EOF/reset
  and the failure cascades; a dying loopback rank calls ``abort()``,
  posting a poison frame to every peer queue;
* every blocking step (recv, mesh dial/accept, the driver's gather
  loops) carries the run's ``timeout``, so a wedged mesh surfaces as
  an error, never an eternal wait;
* mesh dials retry with jittered exponential backoff, so a startup
  race (accept-backlog overflow, a slow-booting peer) is a pause, not
  a fatality;
* under fault injection (:mod:`repro.dist.faults`) every frame also
  carries a per-channel sequence number: a duplicated frame replays
  stale and is discarded, a dropped frame leaves a gap the receiver's
  next frame exposes immediately.

Checkpoint format
-----------------
At level barriers every ``checkpoint_interval`` waves, each rank
snapshots its shard-local state (:mod:`repro.dist.checkpoint`) as one
:mod:`repro.durable` entry, ``<ckpt>/epoch_<NNNNNNNN>/rank_<r>/``: an
``np.save`` payload per array (``sup``/``alive``/``phi``/``hist``/
``owned_dead``), with the epoch (the completed-level count at the
barrier, identical on every rank), the rank and the scalar loop state
in the manifest header.  Each rank keeps its two newest epochs.

Recovery protocol and ``on_failure``
------------------------------------
The driver (:mod:`repro.core.dist`) supervises launch attempts.  On a
failed attempt every surviving rank has already unwound (the cascade
guarantees it) and is reaped; the supervisor then picks
:func:`~repro.dist.checkpoint.latest_common_epoch` — the newest
barrier at which *all* ranks hold valid manifests — respawns the
whole mesh with ``resume_epoch`` set, and the ranks reload their
slices and re-enter the wave loop at that barrier.  The schedule is
deterministic, so a recovered run's output is byte-identical to an
unfaulted one.  Policies: ``on_failure="raise"`` fails fast (no
snapshots, no overhead); ``"retry"`` respawns/rewinds up to
``max_retries`` times, then raises; ``"fallback_flat"`` retries the
same way but degrades to the in-process flat engine instead of
raising when the budget is exhausted.
"""

from repro.dist.checkpoint import (
    CheckpointError,
    latest_common_epoch,
    load_rank_checkpoint,
    write_rank_checkpoint,
)
from repro.dist.exchange import allgather, alltoallv
from repro.dist.faults import (
    Fault,
    FaultInjectingTransport,
    FaultPlan,
    InjectedCrash,
)
from repro.dist.rank import Rank, TriangleIndex
from repro.dist.transport import (
    DEFAULT_TIMEOUT,
    DistError,
    LoopbackFabric,
    LoopbackTransport,
    TcpTransport,
    Transport,
    TransportError,
    open_listener,
)

__all__ = [
    "DEFAULT_TIMEOUT",
    "CheckpointError",
    "DistError",
    "Fault",
    "FaultInjectingTransport",
    "FaultPlan",
    "InjectedCrash",
    "LoopbackFabric",
    "LoopbackTransport",
    "Rank",
    "TcpTransport",
    "Transport",
    "TransportError",
    "TriangleIndex",
    "allgather",
    "alltoallv",
    "latest_common_epoch",
    "load_rank_checkpoint",
    "open_listener",
    "write_rank_checkpoint",
]
