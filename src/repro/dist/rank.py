"""The rank runtime: one shard of the peel, driven by exchanges.

A :class:`Rank` owns exactly one contiguous shard of the canonical
edge-id space — the ``sup``/``alive``/``phi``/histogram slices of the
edges ``bounds[rank] <= e < bounds[rank + 1]`` from an
:class:`~repro.partition.edge_shards.EdgeShardPlan` — plus a read-only
mmap of the global triangle index (:class:`TriangleIndex`).  It runs
the same level-synchronous wave schedule as
:func:`repro.core.flat.run_wave_peel`, but every piece of global state
the shared-memory coordinator used to hold is replaced by an exchange
over the transport:

* the frontier is *discovered locally* (a shard's frontier edges are by
  definition edges it owns), so no routing round exists at all;
* the coordinator's global ``tdead`` dedupe bitmap is hash-partitioned:
  triangle ``t`` is owned by rank ``t % size``, which keeps a bool
  bitmap indexed by ``t // size`` — ``~|△G| / size`` bytes per rank,
  the *only* dedupe state anywhere (no rank ever holds the global
  triangle set);
* supports stay exact exactly as in the serial peel: a triangle
  decrements its partner edges once, in the wave its first edge pops,
  because only its hash owner can declare it newly dead.

Because the control decisions (current floor, wave continuation,
termination) are all reductions over exchanged scalars, every rank
steps through the identical ``(k, wave)`` schedule, and the assembled
``phi`` is bit-identical to ``method="flat"`` at any rank count on
either transport.
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Dict, Optional, Sequence, Tuple

from repro.dist.checkpoint import (
    load_rank_checkpoint,
    write_rank_checkpoint,
)
from repro.dist.exchange import allgather, alltoallv
from repro.dist.transport import DistError, Transport
from repro.graph.csr import sorted_unique
from repro.kernels import PeelKernel
from repro.obs import NULL_TRACER, CountingKernel, Tracer
from repro.partition.edge_shards import route_dead_triangles

# the index class lives with its builder; re-exported here because the
# rank runtime is its read side (every rank opens one per peel) and the
# dist package's public surface predates the builder
from repro.triangles.index_builder import TriangleIndex  # noqa: F401

try:  # the distributed peel is numpy-substrate-only (driver gates this)
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: "no live support at or above the floor" sentinel for the min-reduce
_NO_FLOOR = 1 << 62


def _split_by_owner(values, owners, parts: int):
    """Group ``values`` into per-owner outboxes (owners in 0..parts-1)."""
    if not values.size:
        return [values] * parts
    order = _np.argsort(owners, kind="stable")
    counts = _np.bincount(owners, minlength=parts)
    return _np.split(values[order], _np.cumsum(counts)[:-1])


class Rank:
    """One shard of the distributed peel, complete with its wave loop."""

    def __init__(
        self,
        rank: int,
        size: int,
        transport: Transport,
        bounds: Sequence[int],
        tri: TriangleIndex,
        kernel: PeelKernel,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 0,
        resume_epoch: Optional[int] = None,
        trace: bool = False,
    ) -> None:
        if len(bounds) != size + 1:
            raise DistError(
                f"{len(bounds)} shard bounds for {size} ranks"
            )
        if checkpoint_interval < 0:
            raise DistError(
                f"checkpoint interval must be >= 0, got "
                f"{checkpoint_interval}"
            )
        self.rank = rank
        self.size = size
        self.transport = transport
        self.bounds = _np.asarray(bounds, dtype=_np.int64)
        self.lo = int(bounds[rank])
        self.hi = int(bounds[rank + 1])
        self.tri = tri
        # survivability: where/how often to snapshot, and the barrier
        # to rewind to (an epoch = the completed-level count at the
        # barrier, identical on every rank by schedule determinism)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = (
            checkpoint_interval if checkpoint_dir else 0
        )
        self.resume_epoch = resume_epoch
        # the wave-step backend: the driver's, so one peel never mixes
        # backends across ranks
        self.kernel = kernel
        # tracing is a bool knob, not a Tracer: ranks may be other OS
        # processes, so each records into its own in-memory tracer and
        # ships the events home inside the stats dict it already returns
        self.trace = bool(trace)
        if self.trace:
            self.kernel = CountingKernel(self.kernel)

    @staticmethod
    def _local_floor(hist, floor: int) -> int:
        """Smallest live support value ``>= floor``, or the sentinel."""
        if floor >= len(hist):
            return _NO_FLOOR
        nz = _np.flatnonzero(hist[floor:])
        return floor + int(nz[0]) if nz.size else _NO_FLOOR

    # ------------------------------------------------------------------
    def run(self) -> Tuple["_np.ndarray", int, Dict[str, int]]:
        """Peel the owned shard to completion; returns ``(phi, k, stats)``.

        ``phi`` is the shard's slice (local index 0 is global edge id
        ``lo``).  Per wave the loop runs three exchange rounds — one
        control allgather (wave continuation), the candidate-triangle
        alltoallv to hash owners, and the dead-triangle alltoallv to
        partner-edge owners — plus one control allgather per level
        (remaining live edges, local support floor).
        """
        tp = self.transport
        kern = self.kernel
        trace_on = self.trace
        tr = Tracer(sink=None) if trace_on else NULL_TRACER
        R, lo, hi = self.size, self.lo, self.hi
        mloc = hi - lo
        tri = self.tri
        e1, e2, e3 = tri.e1, tri.e2, tri.e3
        tptr, tinc = tri.tptr, tri.tinc
        n_tri = tri.num_triangles
        if self.resume_epoch is not None:
            # rewind: reload the barrier snapshot instead of the
            # initial state — the wave loop then replays the exact
            # schedule an unfaulted run would have continued with
            arrays, scalars = load_rank_checkpoint(
                self.checkpoint_dir, self.resume_epoch, self.rank
            )
            sup = arrays["sup"]
            alive = arrays["alive"]
            phi = arrays["phi"]
            hist = arrays["hist"]
            owned_dead = arrays["owned_dead"]
            floor = scalars["floor"]
            k = scalars["k"]
            remaining = scalars["remaining"]
            waves = scalars["waves"]
            levels = scalars["levels"]
            max_wave = scalars["max_wave"]
            exchange_rounds = scalars["exchange_rounds"]
        else:
            # initial support == triangle-incidence count == tptr run
            # length
            sup = _np.diff(
                _np.asarray(tri.tptr[lo:hi + 1], dtype=_np.int64)
            )
            alive = _np.ones(mloc, dtype=bool)
            phi = _np.zeros(mloc, dtype=_np.int64)
            # per-shard alive-support histogram: supports only
            # decrease, so the initial height bounds it for the peel
            hist = (
                _np.bincount(sup, minlength=1)
                if mloc
                else _np.zeros(1, dtype=_np.int64)
            )
            # the hash-partitioned dedupe bitmap: this rank owns
            # triangles t with t % R == rank, indexed by t // R —
            # the peel's only dead-triangle state, ~|△G|/R bytes
            owned_dead = _np.zeros(
                max(0, (n_tri - self.rank + R - 1) // R), dtype=bool
            )
            floor = 0
            k = 2
            remaining = mloc
            waves = levels = max_wave = exchange_rounds = 0
        stride = max(n_tri, 1)
        empty = _np.zeros(0, dtype=_np.int64)
        interval = self.checkpoint_interval
        # the wave count a snapshot becomes due at; both the counter
        # and the schedule are rank-invariant, so every rank takes the
        # checkpoint at the same level barrier with no extra exchange
        next_ckpt = waves + interval if interval else None
        checkpoints = 0
        while True:
            if next_ckpt is not None and waves >= next_ckpt:
                write_rank_checkpoint(
                    self.checkpoint_dir,
                    levels,  # the epoch id: completed levels so far
                    self.rank,
                    {
                        "sup": sup,
                        "alive": alive,
                        "phi": phi,
                        "hist": hist,
                        "owned_dead": owned_dead,
                    },
                    {
                        "floor": floor,
                        "k": k,
                        "remaining": remaining,
                        "waves": waves,
                        "levels": levels,
                        "max_wave": max_wave,
                        "exchange_rounds": exchange_rounds,
                    },
                )
                checkpoints += 1
                next_ckpt = waves + interval
                if trace_on:
                    tr.event("checkpoint", epoch=int(levels),
                             waves=int(waves))
            ctrl = allgather(
                tp, (remaining, self._local_floor(hist, floor))
            )
            exchange_rounds += 1
            if not int(ctrl[:, 0].sum()):
                break
            floor = int(ctrl[:, 1].min())
            if floor + 2 > k:
                k = floor + 2
            levels += 1
            if trace_on:
                level_t0 = _perf()
                level_waves = level_popped = 0
            frontier = _np.flatnonzero(alive & (sup <= k - 2))
            while True:
                sizes = allgather(tp, (frontier.size,))
                exchange_rounds += 1
                total = int(sizes[:, 0].sum())
                if not total:
                    break
                waves += 1
                max_wave = max(max_wave, total)
                if trace_on:
                    wave_t0 = _perf()
                    wave_popped = int(frontier.size)
                    wave_bytes0 = tp.bytes_sent
                    wave_frames0 = tp.frames_sent
                    level_waves += 1
                    level_popped += wave_popped
                # pop the owned frontier: phi/alive/hist are ours alone.
                # The gather passes tdead=None — liveness of a triangle
                # is decided by its hash owner, not here, so already-
                # dead candidates may be (re)sent and are dropped there
                if frontier.size:
                    kern.pop_frontier(sup, alive, phi, hist, frontier, k)
                    remaining -= int(frontier.size)
                    cand = kern.gather_incident(tptr, tinc, frontier + lo)
                else:
                    cand = empty
                # exchange: candidate triangles to their hash owners
                recvd = alltoallv(
                    tp, _split_by_owner(cand, cand % R, R)
                )
                exchange_rounds += 1
                mine = _np.concatenate(recvd)
                if mine.size:
                    mine = sorted_unique(mine)
                    fresh = mine[~owned_dead[mine // R]]
                    owned_dead[fresh // R] = True
                else:
                    fresh = empty
                # exchange: newly-dead triangles to the owner shard(s)
                # of their partner edges, once per (owner, triangle) —
                # the router shared with the shared-memory peel, so the
                # exactly-once key convention cannot drift between them
                boxes = route_dead_triangles(
                    self.bounds, stride, fresh, e1, e2, e3
                )
                routed = alltoallv(tp, boxes)
                exchange_rounds += 1
                tris = _np.concatenate(routed)
                # bounded, offset scatter count: partners outside
                # [lo, hi) belong to other ranks; base=lo makes the
                # touched buffer shard-local like every array here
                touched, dec = kern.count_decrements(
                    e1, e2, e3, tris, alive, lo=lo, hi=hi, base=lo
                )
                frontier = kern.apply_decrements(
                    sup, hist, touched, dec, k
                )
                if trace_on:
                    tr.complete_span(
                        "wave", _perf() - wave_t0, k=int(k),
                        frontier=wave_popped, killed=int(fresh.size),
                        bytes=int(tp.bytes_sent - wave_bytes0),
                        frames=int(tp.frames_sent - wave_frames0),
                    )
            if trace_on:
                tr.complete_span(
                    "level", _perf() - level_t0, k=int(k),
                    waves=level_waves, popped=level_popped,
                    floor=int(floor),
                )
        st = {
            "waves": waves,
            "levels": levels,
            "max_wave": max_wave,
            "exchange_rounds": exchange_rounds,
            "msg_bytes": tp.bytes_sent,
            "msg_frames": tp.frames_sent,
            "dedupe_bytes": int(owned_dead.nbytes),
            "checkpoints": checkpoints,
        }
        if trace_on:
            # the homeward leg of the dist trace: events (and the
            # kernel-op counts) ride the existing result gathering;
            # the driver absorbs them in rank order into its own sink
            st["trace"] = tr.drain()
            st["kernel_ops"] = dict(kern.ops)
        return phi, k, st
