"""``method="dist"``: the distributed peel's scatter/run/gather driver.

The driver's whole job is the paper's "massive networks" deployment
shape: build the shard plan, write the triangle index once for the
ranks to mmap, launch one :class:`~repro.dist.rank.Rank` per shard
over the chosen transport, and stitch the returned ``phi`` slices
back together.  The index is *streamed* into its on-disk layout by the
two-pass counting builder (:mod:`repro.triangles.index_builder`,
``storage="mmap"``), so the driver's peak memory is O(m + chunk)
— it never materializes a triangle-length array — and it holds *no*
peel state while the ranks run: the level/wave decisions, the support
arrays and the hash-partitioned triangle dedupe all live rank-side
(see :mod:`repro.dist` for the wire protocol).

Two launch modes, selected by ``transport``:

* ``"loopback"`` — every rank is a thread of this process plugged into
  a :class:`~repro.dist.transport.LoopbackFabric`; deterministic and
  cheap, the mode tests and single-machine runs use;
* ``"tcp"`` — every rank is a separate OS process meshed over
  length-prefixed localhost sockets; ports are gathered over a control
  pipe, results and failures come back the same way, and a rank death
  (crash, kill, lost connection) cascades through the mesh and
  surfaces here as a :class:`~repro.dist.transport.DistError` with
  every process reaped and the scratch directory removed.

Survivability — the driver is also a *supervisor*.  When checkpointing
is on, every rank snapshots its shard-local state at level barriers
(:mod:`repro.dist.checkpoint`); on a rank death the whole mesh is
respawned and rewound to the newest barrier every rank can agree on,
bounded by a retry budget.  The ``on_failure`` knob picks the policy —
``"raise"`` (fail fast, the default), ``"retry"`` (respawn + rewind up
to ``max_retries`` times, then raise), or ``"fallback_flat"`` (like
``"retry"``, but a run that exhausts its budget degrades to the
in-process flat engine instead of raising).  Failures themselves are
scriptable through :class:`~repro.dist.faults.FaultPlan`, so every
recovery path is a reproducible fixture rather than a race.

Both modes produce the identical trussness map as ``method="flat"``
at every rank count — with or without injected faults along the way —
the acceptance bar the cross-method parity suite, the fault-schedule
sweep and ``benchmarks/bench_ablation_dist_transport.py`` pin down.
Like every CSR method it needs numpy: without it a run stops at the
kernel layer's one error, before any shard plan is built.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from multiprocessing import get_context
from typing import Dict, List, Optional, Tuple

from repro.core.decomposition import DecompositionStats, TrussDecomposition
from repro.core.flat import (
    _as_csr,
    _record_index_build,
    result_from_phi,
)
from repro.dist.checkpoint import latest_common_epoch
from repro.dist.faults import FaultInjectingTransport, FaultPlan
from repro.dist.rank import Rank, TriangleIndex
from repro.triangles.index_builder import build_triangle_index
from repro.dist.transport import (
    DEFAULT_TIMEOUT,
    DistError,
    LoopbackFabric,
    TcpTransport,
    TransportError,
    open_listener,
)
from repro.errors import DecompositionError
from repro.kernels import PeelKernel, get_kernel
from repro.obs import NULL_TRACER, warn_degraded
from repro.partition.edge_shards import plan_edge_shards

try:  # the peel needs it; get_kernel reports its absence
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: the message fabrics of the distributed peel
TRANSPORTS = ("loopback", "tcp")

#: the supervisor's failure policies
ON_FAILURE = ("raise", "retry", "fallback_flat")

#: respawn/rewind attempts before a recovering policy gives up
DEFAULT_MAX_RETRIES = 2

#: waves between checkpoint barriers when a recovering policy is on
#: (``on_failure="raise"`` defaults to 0 — no snapshots, no overhead)
DEFAULT_CHECKPOINT_INTERVAL = 8

#: below this edge count, ``ranks=None`` resolves to a single rank —
#: the per-wave exchange rounds dominate any fan-out win on small graphs
_MIN_DIST_EDGES = 50_000


def _resolve_transport(transport: Optional[str]) -> str:
    """Validate the transport (``None`` means the loopback default)."""
    if transport is None:
        return "loopback"
    if transport not in TRANSPORTS:
        raise DecompositionError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )
    return transport


def _resolve_ranks(ranks: Optional[int], m: int) -> int:
    """An explicit ``ranks`` is honored exactly; ``None`` is heuristic."""
    if ranks is not None:
        if ranks < 1:
            raise DecompositionError(
                f"need at least 1 rank, got {ranks}"
            )
        return int(ranks)
    if m < _MIN_DIST_EDGES:
        return 1
    return os.cpu_count() or 1


def _resolve_on_failure(on_failure: Optional[str]) -> str:
    if on_failure is None:
        return "raise"
    if on_failure not in ON_FAILURE:
        raise DecompositionError(
            f"unknown on_failure {on_failure!r}; expected one of "
            f"{ON_FAILURE}"
        )
    return on_failure


def _resolve_timeout(timeout: Optional[float]) -> float:
    if timeout is None:
        return DEFAULT_TIMEOUT
    timeout = float(timeout)
    if timeout <= 0:
        raise DecompositionError(
            f"timeout must be positive, got {timeout}"
        )
    return timeout


def _resolve_checkpoint_interval(
    interval: Optional[int], on_failure: str
) -> int:
    if interval is None:
        # fail-fast runs never rewind, so they skip the snapshot cost
        return DEFAULT_CHECKPOINT_INTERVAL if on_failure != "raise" else 0
    interval = int(interval)
    if interval < 0:
        raise DecompositionError(
            f"checkpoint_interval must be >= 0, got {interval}"
        )
    return interval


# ---------------------------------------------------------------------------
# loopback launcher: ranks as fabric-connected threads
# ---------------------------------------------------------------------------
def _run_loopback(
    nranks: int,
    index_dir: str,
    bounds: List[int],
    kernel: PeelKernel,
    timeout: float = DEFAULT_TIMEOUT,
    ckpt_dir: Optional[str] = None,
    ckpt_interval: int = 0,
    resume_epoch: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    trace: bool = False,
):
    fabric = LoopbackFabric(nranks)
    results: List = [None] * nranks
    failures: List = [None] * nranks

    def rank_body(r: int) -> None:
        tp = fabric.endpoint(r, timeout=timeout)
        if faults:
            tp = FaultInjectingTransport(tp, faults.for_rank(r))
        try:
            tri = TriangleIndex.open(index_dir)
            results[r] = Rank(
                r, nranks, tp, bounds, tri, kernel=kernel,
                checkpoint_dir=ckpt_dir,
                checkpoint_interval=ckpt_interval,
                resume_epoch=resume_epoch,
                trace=trace,
            ).run()
        except BaseException as exc:
            failures[r] = exc
            tp.abort()  # unblock peers waiting on this rank
        finally:
            tp.close()

    threads = [
        threading.Thread(target=rank_body, args=(r,), daemon=True)
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    try:
        for t in threads:
            t.join()
    except BaseException:
        # KeyboardInterrupt (or any driver-side failure) mid-join:
        # poison every channel so blocked ranks unwind now instead of
        # running out their timeout against a driver that already left
        fabric.poison_all()
        for t in threads:
            t.join(timeout=5)
        raise
    _raise_primary_failure(failures)
    return _assemble(results, bounds)


def _raise_primary_failure(failures: List) -> None:
    """Surface the root-cause rank error, not a secondary cascade one.

    A failing rank poisons its peers, whose exchanges then raise
    :class:`TransportError`; the interesting exception is the
    non-transport one when any rank has it.
    """
    primary = None
    for r, exc in enumerate(failures):
        if exc is None:
            continue
        if primary is None or (
            isinstance(primary[1], TransportError)
            and not isinstance(exc, TransportError)
        ):
            primary = (r, exc)
    if primary is not None:
        r, exc = primary
        raise DistError(f"dist rank {r} failed: {exc}") from exc


def _assemble(results: List, bounds: List[int]):
    """Stitch the per-rank ``phi`` slices into the global array."""
    phi = _np.zeros(bounds[-1], dtype=_np.int64)
    for r, (phi_loc, _k, _st) in enumerate(results):
        phi[bounds[r]:bounds[r + 1]] = phi_loc
    # every rank steps the same schedule, so any rank's k is THE k
    k = results[0][1]
    return phi, k, [st for (_p, _k, st) in results]


# ---------------------------------------------------------------------------
# tcp launcher: ranks as socket-meshed processes
# ---------------------------------------------------------------------------
def _tcp_rank_main(
    rank: int,
    nranks: int,
    conn,
    index_dir: str,
    bounds: List[int],
    timeout: float,
    kernel: PeelKernel,
    ckpt_dir: Optional[str] = None,
    ckpt_interval: int = 0,
    resume_epoch: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    trace: bool = False,
) -> None:
    """Rank-process entry: handshake, peel, report — or die loudly.

    Any failure is reported over the control pipe (best effort) and
    turned into a nonzero exit; the process never lingers blocking the
    mesh, and a hard kill is survivable driver-side because peers fail
    on the closed sockets and the driver watches exit codes.  Scripted
    ``crash`` faults exit abruptly (``os._exit``) — a vanished peer,
    not a clean goodbye — so recovery is proven against the real
    failure shape.
    """
    tp = None
    try:
        listener, port = open_listener()
        conn.send(("port", rank, port))
        ports = conn.recv()
        tp = TcpTransport.connect_mesh(
            rank, nranks, ports, listener, timeout=timeout
        )
        if faults:
            tp = FaultInjectingTransport(
                tp,
                faults.for_rank(rank),
                crash=lambda _fault: os._exit(42),
            )
        tri = TriangleIndex.open(index_dir)
        phi, k, st = Rank(
            rank, nranks, tp, bounds, tri, kernel=kernel,
            checkpoint_dir=ckpt_dir,
            checkpoint_interval=ckpt_interval,
            resume_epoch=resume_epoch,
            trace=trace,
        ).run()
        conn.send(("ok", rank, phi.tobytes(), k, st))
    except BaseException as exc:
        try:
            conn.send(("err", rank, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass  # driver sees the exit code instead
        os._exit(1)
    finally:
        if tp is not None:
            tp.close()
        conn.close()


def _collect(
    procs: List,
    pipes: List,
    expect: str,
    timeout: float,
) -> List:
    """Gather one ``expect``-tagged message per rank, watching liveness.

    Raises :class:`DistError` the moment any rank reports an error,
    dies without reporting, or the deadline passes — the caller's
    ``finally`` then reaps the survivors.
    """
    nranks = len(procs)
    out: List = [None] * nranks
    pending = set(range(nranks))
    deadline = time.monotonic() + timeout
    while pending:
        for r in sorted(pending):
            if pipes[r].poll(0.02):
                try:
                    msg = pipes[r].recv()
                except EOFError:
                    raise DistError(
                        f"dist rank {r} died without reporting "
                        f"(exit code {procs[r].exitcode})"
                    ) from None
                if msg[0] == "err":
                    raise DistError(f"dist rank {r} failed: {msg[2]}")
                if msg[0] != expect:
                    raise DistError(
                        f"dist rank {r} sent {msg[0]!r}, expected "
                        f"{expect!r}"
                    )
                out[r] = msg
                pending.discard(r)
            elif procs[r].exitcode is not None:
                raise DistError(
                    f"dist rank {r} exited with code "
                    f"{procs[r].exitcode} before reporting {expect!r}"
                )
        if pending and time.monotonic() > deadline:
            raise DistError(
                f"dist ranks {sorted(pending)} timed out after "
                f"{timeout:.0f}s waiting for {expect!r}"
            )
    return out


def _run_tcp(
    nranks: int,
    index_dir: str,
    bounds: List[int],
    kernel: PeelKernel,
    timeout: float = DEFAULT_TIMEOUT,
    ckpt_dir: Optional[str] = None,
    ckpt_interval: int = 0,
    resume_epoch: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    trace: bool = False,
):
    ctx = get_context()
    procs: List = []
    pipes: List = []
    try:
        for r in range(nranks):
            parent, child = ctx.Pipe()
            p = ctx.Process(
                target=_tcp_rank_main,
                args=(r, nranks, child, index_dir, bounds, timeout),
                kwargs=dict(
                    kernel=kernel,
                    ckpt_dir=ckpt_dir,
                    ckpt_interval=ckpt_interval,
                    resume_epoch=resume_epoch,
                    faults=faults,
                    trace=trace,
                ),
                daemon=True,
            )
            p.start()
            child.close()
            procs.append(p)
            pipes.append(parent)
        port_msgs = _collect(procs, pipes, "port", timeout)
        ports = [None] * nranks
        for _tag, r, port in port_msgs:
            ports[r] = port
        for r, pipe in enumerate(pipes):
            try:
                pipe.send(ports)
            except OSError as exc:
                # the rank died between reporting its port and reading
                # the map; keep the driver's error contract uniform
                raise DistError(
                    f"dist rank {r} died before receiving the port map "
                    f"(exit code {procs[r].exitcode}): {exc}"
                ) from exc
        done = _collect(procs, pipes, "ok", timeout)
        results: List = [None] * nranks
        for _tag, r, phi_bytes, k, st in done:
            results[r] = (
                _np.frombuffer(phi_bytes, dtype=_np.int64), k, st
            )
        return _assemble(results, bounds)
    finally:
        # reap every rank process, alive or not — no zombies, no
        # orphans, whatever path got us here (including a driver-side
        # KeyboardInterrupt mid-gather)
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=10)
        for p in procs:
            if p.is_alive():  # pragma: no cover - terminate sufficed
                p.kill()
                p.join()
        for pipe in pipes:
            pipe.close()


# ---------------------------------------------------------------------------
# the supervisor: launch attempts, rewind to checkpoints, degrade
# ---------------------------------------------------------------------------
def _supervise(
    mode: str,
    nranks: int,
    index_dir: str,
    ckpt_dir: str,
    bounds: List[int],
    kernel: PeelKernel,
    timeout: float,
    on_failure: str,
    max_retries: int,
    ckpt_interval: int,
    fault_plan: Optional[FaultPlan],
    stats: DecompositionStats,
    tracer=None,
):
    """Run launch attempts until one completes or the policy gives up.

    Returns ``(phi, k, rank_stats)`` on success, or ``None`` when the
    policy is ``"fallback_flat"`` and the retry budget is exhausted —
    the caller then degrades to the flat engine.  Every failed attempt
    rewinds the next one to :func:`latest_common_epoch`, so completed
    waves are never recomputed once a barrier has them.
    """
    run = _run_tcp if mode == "tcp" else _run_loopback
    tr = tracer if tracer is not None else NULL_TRACER
    budget = max_retries if on_failure != "raise" else 0
    attempt = 0
    resume_epoch: Optional[int] = None
    while True:
        faults = (
            fault_plan.for_attempt(attempt) if fault_plan else None
        )
        try:
            out = run(
                nranks, index_dir, bounds, kernel=kernel,
                timeout=timeout, ckpt_dir=ckpt_dir,
                ckpt_interval=ckpt_interval,
                resume_epoch=resume_epoch, faults=faults,
                trace=tr.enabled,
            )
            stats.record("retries", attempt)
            stats.record(
                "resumed_from_epoch",
                resume_epoch if resume_epoch is not None else -1,
            )
            return out
        except DistError as exc:
            if attempt >= budget:
                if on_failure == "fallback_flat":
                    stats.record("retries", attempt)
                    warn_degraded(
                        tr, stats.metrics, "dist_fallback_flat",
                        retries=attempt, error=str(exc)[:200],
                    )
                    return None
                raise
            attempt += 1
            # rewind target: the newest barrier with a complete, valid
            # snapshot from every rank; None restarts from scratch
            resume_epoch = latest_common_epoch(ckpt_dir, nranks)
            warn_degraded(
                tr, stats.metrics, "dist_retry", attempt=attempt,
                resume_epoch=(
                    resume_epoch if resume_epoch is not None else -1
                ),
                error=str(exc)[:200],
            )


# ---------------------------------------------------------------------------
# the public entry point
# ---------------------------------------------------------------------------
def truss_decomposition_dist(
    g,
    ranks: Optional[int] = None,
    transport: Optional[str] = None,
    *,
    timeout: Optional[float] = None,
    on_failure: Optional[str] = None,
    max_retries: Optional[int] = None,
    checkpoint_interval: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    trace=None,
) -> TrussDecomposition:
    """Truss-decompose ``g`` with the rank-distributed wave peel.

    Args:
        g: a :class:`~repro.graph.adjacency.Graph` (snapshotted, not
            modified) or a :class:`~repro.graph.csr.CSRGraph` from the
            streaming ingest.
        ranks: shard/rank count.  ``None`` picks ``os.cpu_count()``
            for graphs with at least ``_MIN_DIST_EDGES`` edges and a
            single rank below that; an explicit value is honored
            exactly.
        transport: one of :data:`TRANSPORTS` — ``"loopback"`` (the
            default: in-process queue fabric) or ``"tcp"`` (rank
            processes over framed localhost sockets).
        timeout: deadline in seconds for any single blocking step on
            either transport (socket/queue receives, mesh dial, the
            driver's port/result gathering).  ``None`` uses
            :data:`~repro.dist.transport.DEFAULT_TIMEOUT`.
        on_failure: the supervisor policy when a rank dies or the mesh
            wedges — ``"raise"`` (default: fail fast), ``"retry"``
            (respawn all ranks, rewind to the newest common checkpoint
            barrier, up to ``max_retries`` times, then raise) or
            ``"fallback_flat"`` (retry the same way, but degrade to
            the in-process flat engine instead of raising when the
            budget runs out — the answer still arrives).
        max_retries: respawn attempts for the recovering policies
            (``None``: :data:`DEFAULT_MAX_RETRIES`).
        checkpoint_interval: waves between checkpoint barriers; ``0``
            disables snapshots.  ``None`` resolves to
            :data:`DEFAULT_CHECKPOINT_INTERVAL` under a recovering
            policy and ``0`` under ``"raise"``.
        fault_plan: a :class:`~repro.dist.faults.FaultPlan` of scripted
            crash/drop/delay/duplicate faults — the reproducible chaos
            harness the recovery tests and benchmarks drive; ``None``
            injects nothing.
        trace: an enabled :class:`repro.obs.Tracer` to receive the
            run's spans and events.  Ranks record their own streams in
            memory and ship them back with the results; the driver
            absorbs them here in rank order, so the file holds one
            merged, driver-ordered trace.

    The driver's backend (:func:`repro.kernels.get_kernel`) is pinned
    on every rank.  Returns the identical trussness map as
    ``method="flat"`` — neither the rank count, the transport nor any
    survived fault schedule changes the wave schedule.
    """
    mode = _resolve_transport(transport)
    kern = get_kernel()
    policy = _resolve_on_failure(on_failure)
    deadline = _resolve_timeout(timeout)
    interval = _resolve_checkpoint_interval(checkpoint_interval, policy)
    if max_retries is None:
        retries = DEFAULT_MAX_RETRIES
    else:
        retries = int(max_retries)
        if retries < 0:
            raise DecompositionError(
                f"max_retries must be >= 0, got {max_retries}"
            )
    nranks = _resolve_ranks(ranks, g.num_edges)
    stats = DecompositionStats(method="dist")
    tr = trace if trace is not None else NULL_TRACER
    csr = _as_csr(g)
    m = csr.num_edges
    stats.record("transport", mode)
    stats.record("ranks", nranks)
    stats.record("index_storage", "mmap")
    stats.record("kernel", kern.name)
    stats.record("on_failure", policy)
    stats.record("checkpoint_interval", interval)
    if tr.enabled:
        tr.event("run_start", engine="dist", m=int(m), kernel=kern.name,
                 transport=mode, ranks=int(nranks), on_failure=policy,
                 checkpoint_interval=int(interval))
    if not m:
        return result_from_phi(csr, _np.zeros(0, _np.int64), 2, stats)
    # scratch layout: <tmp>/index (the mmapped triangle index) and
    # <tmp>/ckpt (the wave checkpoints).  mkdtemp + finally instead of
    # the TemporaryDirectory context manager so removal is guaranteed
    # best-effort on *any* unwind — KeyboardInterrupt included, even
    # if a just-reaped rank leaves a half-written snapshot behind.
    tmp = tempfile.mkdtemp(prefix="repro-dist-")
    try:
        index_dir = os.path.join(tmp, "index")
        ckpt_dir = os.path.join(tmp, "ckpt")
        os.mkdir(index_dir)
        os.mkdir(ckpt_dir)
        t0 = time.perf_counter()
        # the ranks map the files, so the index always streams to disk
        tri = build_triangle_index(csr, storage="mmap", dirpath=index_dir)
        _record_index_build(tri, time.perf_counter() - t0, stats, tr)
        n_tri = tri.num_triangles
        # shard weights need only the O(m) incidence runs, so the
        # driver's peel-time state is O(m) however large |△G| gets
        plan = plan_edge_shards(m, nranks, weights=tri.initial_supports())
        bounds = [int(b) for b in plan.bounds]
        # the ranks mmap the files; drop the driver's handles so no
        # single process keeps holding the whole index
        del tri
        t_peel = time.perf_counter()
        out = _supervise(
            mode, nranks, index_dir, ckpt_dir, bounds, kern,
            deadline, policy, retries, interval, fault_plan, stats,
            tracer=tr,
        )
        if out is None:
            # fallback_flat: the budget ran out; answer locally.  The
            # flat engine runs the same backend, so the map is the
            # same bits the mesh would have produced.
            from repro.core.flat import truss_decomposition_flat

            td = truss_decomposition_flat(csr, trace=tr)
            flat_extra = td.stats.extra
            for key, value in stats.extra.items():
                # keep the flat run's own values; labeled series (the
                # "{...}" keys) merge through the registry below
                if key not in flat_extra and "{" not in key:
                    td.stats.record(key, value)
            for name, labels, value in stats.metrics.counter_items():
                td.stats.metrics.inc(name, value, **labels)
            td.stats.record("fallback", "flat")
            td.stats.record("retries_exhausted", retries)
            return td
        phi, k, rank_stats = out
        peel_s = time.perf_counter() - t_peel
        stats.record("peel_s", round(peel_s, 6))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if tr.enabled:
        tr.complete_span("peel", peel_s, engine="dist",
                         ranks=int(nranks), transport=mode)
        # the homeward leg: absorb each rank's recorded stream, in
        # rank order, and fold its kernel-op counts into the registry
        for r, st in enumerate(rank_stats):
            tr.absorb(st.pop("trace", []), rank=r)
            for op, n in st.pop("kernel_ops", {}).items():
                stats.metrics.inc("repro_kernel_ops_total", n, op=op)
    # the schedule is identical on every rank; rank 0 speaks for it
    head = rank_stats[0]
    for key in ("waves", "levels", "max_wave", "exchange_rounds",
                "checkpoints"):
        stats.record(key, head[key])
    msg_bytes = sum(st["msg_bytes"] for st in rank_stats)
    stats.record("msg_bytes", msg_bytes)
    stats.record("msg_frames", sum(st["msg_frames"] for st in rank_stats))
    stats.record("bytes_per_wave", msg_bytes / max(head["waves"], 1))
    stats.record(
        "dedupe_peak_bytes",
        max(st["dedupe_bytes"] for st in rank_stats),
    )
    stats.record("triangles", n_tri)
    return result_from_phi(csr, phi, k, stats)
