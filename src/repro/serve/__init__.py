"""Truss-as-a-service: the long-running query server with a
survivability contract.

``repro serve GRAPH --port P --workers W`` decomposes the graph once,
then serves trussness and community queries while accepting edge
updates, repaired incrementally by the PR-8
:class:`~repro.stream.TrussMaintainer` behind a single writer.  The
package splits along the contract's seams:

* :mod:`repro.serve.wal` — the crash-safe write-ahead log (fsync
  before ack);
* :mod:`repro.serve.snapshot` — immutable, CRC-manifested snapshot
  generations plus the advisory ``HEAD.json`` freshness pointer;
* :mod:`repro.serve.view` — immutable read views; in-process
  (:class:`~repro.serve.view.LocalReader`) and worker-process
  (:class:`~repro.serve.view.SnapshotReader`) read sides;
* :mod:`repro.serve.service` — the single-writer core: admission →
  deadline → log → apply → publish;
* :mod:`repro.serve.http` — the HTTP surface (routes, deadlines,
  backpressure, staleness headers, request spans);
* :mod:`repro.serve.server` — process topology (in-process or forked
  workers over one shared listening socket) and lifecycle;
* :mod:`repro.serve.chaos` — the harness that *proves* the contract.

Failure model
-------------
The server can die at any instant — ``SIGKILL`` mid-batch included —
and storage can tear at any boundary the filesystem permits.  Clients
can stall forever, flood faster than repairs apply, or demand answers
by deadlines the server cannot meet.  The contract turns each of
those into a bounded, observable outcome:

* **Durability.**  A mutation is acknowledged only after its WAL
  records are fsynced.  What was acked is exactly what recovery
  replays; what was never acked may vanish, and nothing else changes.
  The data directory and the WAL root are created by
  :func:`repro.durable.make_dirs`, so a fresh path's directory entries
  are durable before the first ack too.
* **Atomic publication.**  A generation is a :mod:`repro.durable`
  entry holding one packed ``'<4q'`` state payload (the store's
  docstring gives the format): it lands fully or does not exist.  A
  torn generation is *detected*, counted
  (``repro_degraded_total{path="serve_torn_snapshot"}``) and skipped,
  never served.  A torn WAL tail is truncated on reopen and counted
  (``path="serve_wal_torn"``); replay stops at the first invalid
  record, so torn bytes cannot smuggle state.
* **Deadlines.**  Every request carries one (``X-Deadline-Ms`` or the
  server default).  An expired write answers **504 before anything
  durable happens**; slow clients are dropped by per-connection socket
  timeouts instead of pinning handler threads.
* **Backpressure.**  Admission is bounded twice — per-process
  in-flight requests and the writer's queue depth.  Past either bound
  the server sheds with **503 + Retry-After** immediately; queues
  never grow without bound, so deadlines stay meaningful under flood.
* **Reads stay up.**  Readers answer from immutable published views,
  so a repair in flight (even one degraded to the maintainer's
  full-repeel fallback, counted via ``path="stream_full_repeel"``)
  never blocks a read — responses carry ``X-Repro-Stale: 1`` until
  the next publication catches the view up.

Recovery protocol
-----------------
Restart after any death runs one deterministic sequence:

1. scan snapshot generations newest-first; adopt the first that
   validates against its manifest (torn ones are counted and
   skipped);
2. rebase the maintainer onto the snapshot's ``(u, v, phi, sup)``
   rows (:meth:`~repro.stream.TrussMaintainer.from_state` checks their
   order and builds a CSR over them, with no dict per edge) — or, with
   no valid snapshot at all, decompose the seed graph file;
3. truncate any torn WAL tail, then replay every record after the
   snapshot's ``wal_seq`` through ``apply_batch`` — or, when the WAL
   lacks any seq up to its newest, fail with a ``ServeError``;
4. publish the recovered state as a fresh generation and only then
   report ready (``/readyz``).

The result is **bit-identical** to a fresh ``method="flat"``
decomposition of the fully-updated graph — the chaos suite pins this
by comparing ``/dump`` output byte-for-byte after a scripted
``SIGKILL`` between WAL-append and apply.  WAL segments and old
generations are pruned only up to what the *oldest retained* valid
generation already covers, so recovery never needs a record that has
been deleted.
"""

from __future__ import annotations

from repro.serve.service import (
    DeadlineExpiredError,
    InvalidUpdateError,
    NotReadyError,
    OverloadedError,
    ServeError,
    TrussService,
)
from repro.serve.snapshot import SnapshotError
from repro.serve.view import LocalReader, ReadView, SnapshotReader
from repro.serve.wal import WalError, WriteAheadLog

__all__ = [
    "DeadlineExpiredError",
    "InvalidUpdateError",
    "LocalReader",
    "NotReadyError",
    "OverloadedError",
    "ReadView",
    "ServeError",
    "SnapshotError",
    "SnapshotReader",
    "TrussService",
    "WalError",
    "WriteAheadLog",
]
