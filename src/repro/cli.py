"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``decompose`` — truss-decompose an edge-list file with any method,
  writing ``u v phi`` lines (or a summary);
* ``update``    — decompose once, then stream ``+ u v``/``- u v``
  edge updates through the incremental maintainer (:mod:`repro.stream`),
  repairing only the bounded affected region per batch (pass ``-`` as
  the updates file to read the stream from stdin);
* ``serve``     — run the long-lived truss query server
  (:mod:`repro.serve`);
* ``ktruss``    — extract one k-truss as an edge list;
* ``stats``     — graph statistics (the Table 2 row for your file);
* ``hierarchy`` — the truss fingerprint profile;
* ``generate``  — emit one of the registry's synthetic datasets.

Every command reads/writes the SNAP-style text edge-list format.
``decompose`` and ``update`` report a bad input file, a bad option
value or a failed run as one ``error: ...`` line and exit status 2.
Both print the same sorted ``u v phi`` lines for the same map: a
column-backed result (the CSR methods of ``decompose``, and ``update``,
whose maintainer compacts its state into sorted rows) goes through the
vectorized formatter :func:`~repro.graph.csr.format_int_rows` in row
order, which is already sorted; a dict-backed one (the paper's
methods) through a stdlib writer that sorts the keys.

``decompose --method flat|parallel|dist`` takes the ingest fast path:
the file is streamed straight into CSR arrays (no dict-of-set graph
build) and handed to the flat, parallel or distributed engine;
``--jobs N`` sets the parallel engine's worker-process count.  For
``--method dist``, ``--ranks N`` sets the rank count (one owned static
edge shard per rank), ``--transport loopback|tcp`` picks the message
fabric — in-process queues or rank processes over framed localhost
sockets — ``--timeout SECONDS`` bounds every blocking transport step, and
``--on-failure raise|retry|fallback_flat`` picks the supervisor's
policy when a rank dies mid-run (respawn + checkpoint rewind, or
degrade to the flat engine).
Every engine's inner loop runs the wave-step backend that
:mod:`repro.kernels` picks for the process — numba's when it imports,
numpy's otherwise; no flag picks it, and ``--metrics`` reports it as
``kernel``.  The CSR methods and ``update`` need numpy: without it
they print one ``error:`` line before reading any input.

Profiling a decomposition
-------------------------

``decompose`` and ``update`` take ``--trace FILE`` (write the run's
span/event stream as JSON-lines, schema in :mod:`repro.obs`) and
``--metrics FILE`` (dump the run's counters/gauges/histograms —
Prometheus text format, or a JSON object when FILE ends in ``.json``).
``trace-report FILE`` renders a recorded trace as a human-readable
per-phase / per-level / per-rank timeline::

    repro decompose graph.txt --method dist --ranks 4 \\
        --trace run.jsonl --metrics run.prom -o phi.txt
    repro trace-report run.jsonl

Tracing is off by default and the engines pay only a boolean check
per wave when it stays off.

Running the server
------------------

``serve`` turns the decomposition into a long-running service::

    repro serve graph.txt --data /var/lib/truss --port 8080 --workers 4

On first start it decomposes ``GRAPH`` once; afterwards the data
directory alone is enough (``repro serve --data /var/lib/truss``) —
recovery loads the newest valid snapshot generation and replays the
write-ahead-log tail, reconverging bit-identically to the state every
acknowledged write promised.  Reads (``GET /edge/{u}/{v}/trussness``,
``GET /community/{v}?k=K``, ``GET /dump``) are answered from immutable
published views — and keep being answered, marked ``X-Repro-Stale``,
while a repair is in flight.  Writes (``POST /edges``, ``DELETE
/edges``, bulk ``POST /updates`` in the ``'+ u v'`` stream format) are
fsynced into the WAL *before* they are acknowledged, applied through
the incremental maintainer, and published as a new snapshot
generation.  ``--deadline-ms`` bounds every request (504 past the
deadline), ``--queue-depth``/``--max-inflight`` bound admission (503 +
``Retry-After`` under flood), ``--snapshot-every`` trades publish
frequency against write throughput, and ``--workers N`` forks N HTTP
worker processes sharing one listening socket.  ``GET /healthz``,
``/readyz`` and ``/metrics`` (Prometheus text) are always admitted;
``--trace FILE`` records one ``request`` span per request, rendered by
``repro trace-report`` as a server latency timeline.  Ctrl-C tears the
whole topology down: workers reaped, WAL fsynced and closed, scratch
directories removed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

# imported here: what a CSR ``decompose`` and ``update`` run.  Every
# other command and the paper's methods import their modules in their
# own handler, so a process loads only what its command runs.
# ``cmd_decompose`` calls ``truss_decomposition`` as a module global:
# the benchmark's layer timing rebinds it here.
from repro.core import CSR_METHODS, METHODS, truss_decomposition
from repro.errors import ReproError
from repro.graph import CSRGraph, Graph
from repro.graph.csr import format_int_rows
from repro.kernels import get_kernel


def _load(path: str) -> Graph:
    from repro.graph.io import read_edge_list

    g = read_edge_list(path)
    print(
        f"loaded {path}: n={g.num_vertices:,} m={g.num_edges:,}",
        file=sys.stderr,
    )
    return g


def _budget(g: Graph, fraction: Optional[int]):
    from repro.exio.memory import MemoryBudget

    if fraction is None:
        return None
    return MemoryBudget(units=max(16, g.size // fraction))


def _error(problem) -> int:
    """Report a failed command as one ``error:`` line; exit status 2."""
    print(f"error: {problem}", file=sys.stderr)
    return 2


#: output lines per write of the dict writer: one ``"".join`` per block
#: keeps the string being built small next to the trussness map it is
#: formatted from
_EMIT_LINES = 1 << 14

#: output lines per write of the column writer: the block bounds the
#: formatter's temporaries, a few int64 arrays per value.  Writing
#: update-collab's 356,094 rows, 1 << 17 lines per block peaked at
#: 21.5 MB of temporaries (tracemalloc) in 115 ms, 1 << 15 at 5.4 MB in
#: 80 ms (medians of 7)
_FORMAT_LINES = 1 << 15


def _emit(path: Optional[str], td) -> int:
    """Write ``td`` as sorted ``u v phi`` lines, to stdout without a
    ``path``; 0, or 2 after an ``error:`` line if it cannot be written.

    The output of ``decompose`` and ``update``, so both print the same
    bytes for the same map.  Columns are already in ``(u, v)`` order
    and go through :func:`format_int_rows`; a dict is sorted and
    formatted line by line.
    """
    try:
        out = open(path, "w") if path else sys.stdout
        try:
            if td.columns is not None:
                u, v, phi = td.columns
                for i in range(0, len(phi), _FORMAT_LINES):
                    block = slice(i, i + _FORMAT_LINES)
                    out.write(format_int_rows(
                        u[block], v[block], phi[block]
                    ).decode("ascii"))
            else:
                phi = td.trussness
                keys = sorted(phi)
                for i in range(0, len(keys), _EMIT_LINES):
                    out.write("".join([
                        f"{u} {v} {phi[u, v]}\n"
                        for u, v in keys[i : i + _EMIT_LINES]
                    ]))
        finally:
            if path:
                out.close()
    except OSError as exc:
        return _error(exc)
    return 0


def _write_metrics(path: str, stats) -> int:
    """Dump a run's metrics registry: JSON for ``*.json``, else
    Prometheus; 0, or 2 after an ``error:`` line if it cannot be
    written."""
    import json

    reg = stats.metrics
    if path.endswith(".json"):
        text = json.dumps(reg.to_json(), indent=2, sort_keys=True) + "\n"
    else:
        text = reg.to_prometheus()
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _error(exc)
    print(f"metrics -> {path}", file=sys.stderr)
    return 0


def _check_engine_flags(args: argparse.Namespace) -> None:
    """Run the engines' own checks on explicit ``--jobs``, ``--ranks``
    and ``--timeout`` values (the edge count only matters when a value
    is left to the engine's heuristic)."""
    if args.jobs is not None:
        from repro.core.parallel import _resolve_jobs

        _resolve_jobs(args.jobs, 0)
    if args.ranks is not None or args.timeout is not None:
        from repro.core.dist import _resolve_ranks, _resolve_timeout

        if args.ranks is not None:
            _resolve_ranks(args.ranks, 0)
        if args.timeout is not None:
            _resolve_timeout(args.timeout)


def cmd_decompose(args: argparse.Namespace) -> int:
    for flag, value, owner in (
        ("--jobs", args.jobs, "parallel"),
        ("--ranks", args.ranks, "dist"),
        ("--transport", args.transport, "dist"),
        ("--timeout", args.timeout, "dist"),
        ("--on-failure", args.on_failure, "dist"),
    ):
        if value is not None and args.method != owner:
            return _error(
                f"{flag} only applies to --method {owner} "
                f"(got --method {args.method})"
            )
    if args.method in CSR_METHODS and (
        args.top is not None or args.memory_fraction is not None
    ):
        return _error(
            f"--top/--memory-fraction do not apply to "
            f"--method {args.method}"
        )
    io_stats = None
    try:
        if args.method in CSR_METHODS:
            # a bad flag value or a missing numpy fails here, before
            # the file is read
            _check_engine_flags(args)
            get_kernel()
            # ingest fast path: file -> CSR -> engine, no dict-of-set
            # build; like the legacy branch, time= covers only the
            # decomposition (the load line reports the ingest seconds)
            t0 = time.perf_counter()
            csr = CSRGraph.from_edge_list_file(args.input)
            print(
                f"loaded {args.input}: n={csr.num_vertices:,} "
                f"m={csr.num_edges:,} (streaming CSR ingest, "
                f"{time.perf_counter() - t0:.2f}s)",
                file=sys.stderr,
            )
            start = time.perf_counter()
            td = truss_decomposition(
                csr, method=args.method, jobs=args.jobs,
                ranks=args.ranks, transport=args.transport,
                timeout=args.timeout, on_failure=args.on_failure,
                trace_path=args.trace,
            )
        else:
            if args.method in ("bottomup", "topdown"):
                from repro.exio.iostats import IOStats

                io_stats = IOStats()
            g = _load(args.input)
            start = time.perf_counter()
            td = truss_decomposition(
                g,
                method=args.method,
                memory_budget=_budget(g, args.memory_fraction),
                io_stats=io_stats,
                top_t=args.top,
                trace_path=args.trace,
            )
    except (ReproError, OSError) as exc:
        return _error(exc)
    elapsed = time.perf_counter() - start
    if args.metrics:
        rc = _write_metrics(args.metrics, td.stats)
        if rc:
            return rc
    rc = _emit(args.output, td)
    if rc:
        return rc
    print(
        f"method={args.method} kmax={td.kmax} classes="
        f"{len(td.class_sizes())} time={elapsed:.2f}s "
        + (f"blocks={io_stats.total_blocks}"
           if io_stats is not None and io_stats.total_blocks else ""),
        file=sys.stderr,
    )
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    from repro.obs import open_tracer
    from repro.stream import TrussMaintainer
    from repro.stream.updates import read_update_stream

    if args.batch < 1:
        return _error(f"--batch must be >= 1 (got {args.batch})")
    try:
        # a missing numpy fails here, before either file is read
        get_kernel()
        # one parser for the CLI, the server's bulk endpoint and the
        # WAL (repro.stream.updates); '-' reads the stream from stdin
        updates = read_update_stream(args.updates)
    except (ReproError, OSError, ValueError) as exc:
        return _error(exc)
    try:
        t0 = time.perf_counter()
        csr = CSRGraph.from_edge_list_file(args.input)
        tracer, owned = open_tracer(trace_path=args.trace)
        try:
            tm = TrussMaintainer.from_graph(csr, trace=tracer)
            print(
                f"loaded {args.input}: n={csr.num_vertices:,} "
                f"m={csr.num_edges:,} "
                f"(decomposed once, {time.perf_counter() - t0:.2f}s)",
                file=sys.stderr,
            )
            start = time.perf_counter()
            applied = 0
            for i in range(0, len(updates), args.batch):
                applied += tm.apply_batch(updates[i : i + args.batch])
            elapsed = time.perf_counter() - start
        finally:
            if owned:
                tracer.close()
    except (ReproError, OSError) as exc:
        return _error(exc)
    td = tm.as_decomposition()
    if args.metrics:
        rc = _write_metrics(args.metrics, tm.stats)
        if rc:
            return rc
    rc = _emit(args.output, td)
    if rc:
        return rc
    extra = tm.stats.extra
    print(
        f"updates={len(updates)} applied={applied} batch={args.batch} "
        f"repairs={int(extra.get('repairs', 0))} "
        f"affected={int(extra.get('affected_edges', 0))} "
        f"kmax={td.kmax} time={elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ServeConfig, run_server
    from repro.serve.service import ServeError

    cfg = ServeConfig(
        data_dir=args.data,
        graph=args.graph,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        snapshot_every=args.snapshot_every,
        deadline_ms=args.deadline_ms,
        max_inflight=args.max_inflight,
        client_timeout=args.client_timeout,
        refresh_ms=args.refresh_ms,
        trace=args.trace,
    )
    try:
        run_server(cfg)
    except ServeError as exc:
        return _error(exc)
    return 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_trace_report

    try:
        print(render_trace_report(args.trace))
    except (OSError, ValueError) as exc:
        return _error(exc)
    return 0


def cmd_ktruss(args: argparse.Namespace) -> int:
    from repro.core import k_truss
    from repro.graph.io import write_edge_list

    g = _load(args.input)
    t = k_truss(g, args.k)
    write_edge_list(t, args.output)
    print(
        f"T_{args.k}: n={t.num_vertices:,} m={t.num_edges:,} -> {args.output}",
        file=sys.stderr,
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.cores import GraphStatistics, average_clustering, max_core

    g = _load(args.input)
    s = GraphStatistics.of(g)
    td = truss_decomposition(g)
    cmax, _ = max_core(g)
    print(f"vertices        {s.num_vertices:,}")
    print(f"edges           {s.num_edges:,}")
    print(f"size (bytes)    {s.size_bytes:,}")
    print(f"max degree      {s.max_degree:,}")
    print(f"median degree   {s.median_degree}")
    print(f"kmax (truss)    {td.kmax}")
    print(f"cmax (core)     {cmax}")
    print(f"clustering      {average_clustering(g):.4f}")
    return 0


def cmd_hierarchy(args: argparse.Namespace) -> int:
    from repro.core.hierarchy import truss_hierarchy

    g = _load(args.input)
    h = truss_hierarchy(g)
    print(f"{'k':>5} {'|V|':>10} {'|E|':>10} {'comps':>7} {'density':>9} {'CC':>7}")
    for row in h.levels:
        print(
            f"{row.k:>5} {row.num_vertices:>10,} {row.num_edges:>10,} "
            f"{row.num_components:>7} {row.density:>9.4f} {row.clustering:>7.3f}"
        )
    print(f"collapse level: {h.collapse_level()}", file=sys.stderr)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.graph.io import write_edge_list

    g = load_dataset(args.name, scale=args.scale)
    write_edge_list(g, args.output)
    print(
        f"{args.name}@{args.scale}: n={g.num_vertices:,} m={g.num_edges:,} "
        f"-> {args.output}",
        file=sys.stderr,
    )
    return 0


def _dataset_name(name: str) -> str:
    """``generate``'s dataset argument, checked against the registry
    only when ``generate`` is parsed: a ``choices=`` list would load
    the registry and its generators for every command."""
    from repro.datasets import dataset_names

    names = dataset_names()
    if name not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from "
            f"{', '.join(map(repr, names))})"
        )
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Truss decomposition in massive networks (VLDB 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decompose",
        help="truss-decompose an edge list",
        description=(
            "Truss-decompose an edge-list file.  Methods 'flat', "
            "'parallel' and 'dist' stream the file straight into CSR "
            "arrays (the dict-free ingest fast path) instead of building "
            "a mutable graph first, and run their wave step on numba "
            "when it imports, else on numpy (--metrics reports it as "
            "'kernel')."
        ),
    )
    p.add_argument("input", help="edge-list file (u v per line)")
    p.add_argument("-o", "--output", help="write 'u v phi' lines here")
    p.add_argument(
        "--method",
        default="improved",
        choices=list(METHODS),
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for --method parallel (default: auto — "
            "serial on small graphs, one per core otherwise)"
        ),
    )
    p.add_argument(
        "--ranks",
        type=int,
        default=None,
        metavar="N",
        help=(
            "rank count for --method dist: one owned static edge "
            "shard per rank (default: auto — a single rank on small "
            "graphs, one per core otherwise)"
        ),
    )
    p.add_argument(
        "--transport",
        default=None,
        choices=["loopback", "tcp"],
        help=(
            "message fabric for --method dist: 'loopback' runs the "
            "ranks as in-process queue-connected threads, 'tcp' as "
            "processes meshed over length-prefixed localhost sockets "
            "(default: loopback)"
        ),
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "deadline for any single blocking transport step under "
            "--method dist — socket/queue receives, mesh dial, the "
            "driver's gather loops (default: the built-in 120s, "
            "overridable via REPRO_DIST_TIMEOUT)"
        ),
    )
    p.add_argument(
        "--on-failure",
        default=None,
        choices=["raise", "retry", "fallback_flat"],
        help=(
            "supervisor policy for --method dist when a rank dies "
            "mid-run: 'raise' fails fast, 'retry' respawns the mesh "
            "and rewinds to the newest common checkpoint barrier "
            "(bounded retries), 'fallback_flat' retries then degrades "
            "to the in-process flat engine (default: raise)"
        ),
    )
    p.add_argument(
        "--memory-fraction",
        type=int,
        default=None,
        metavar="F",
        help="simulate memory M = |G|/F (external methods)",
    )
    p.add_argument("--top", type=int, default=None, help="top-t classes (topdown)")
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "record the run's span/event stream as JSON-lines here "
            "(schema in repro.obs; render with 'repro trace-report')"
        ),
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "dump the run's counters/gauges/histograms here — "
            "Prometheus text exposition, or JSON when FILE ends .json"
        ),
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "update",
        help="incrementally maintain trussness under edge updates",
        description=(
            "Decompose an edge-list file once, then stream '+ u v' / "
            "'- u v' updates through the incremental maintainer "
            "(repro.stream), repairing only the bounded affected "
            "region per update batch.  Output is the same sorted "
            "'u v phi' lines as 'decompose' — byte-identical to a "
            "from-scratch recompute of the mutated graph."
        ),
    )
    p.add_argument("input", help="edge-list file (u v per line)")
    p.add_argument(
        "updates",
        help=(
            "update-stream file: '+ u v' inserts, '- u v' deletes "
            "('-' reads the stream from stdin)"
        ),
    )
    p.add_argument("-o", "--output", help="write final 'u v phi' lines here")
    p.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="B",
        help="apply updates in batches of B, one repair per batch (default 1)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "record the seeding decomposition's and every repair's "
            "spans as JSON-lines here (render with 'repro trace-report')"
        ),
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "dump the maintainer's repair counters here — Prometheus "
            "text exposition, or JSON when FILE ends .json"
        ),
    )
    p.set_defaults(func=cmd_update)

    p = sub.add_parser(
        "serve",
        help="run the long-lived truss query server",
        description=(
            "Serve trussness and community queries over HTTP while "
            "accepting edge updates, with a survivability contract: "
            "writes are WAL-logged (fsync) before they are "
            "acknowledged, state is published as immutable CRC-"
            "manifested snapshot generations, and a restart after any "
            "crash replays the WAL tail back to the exact acked state. "
            "On first start GRAPH seeds the decomposition; later "
            "restarts need only --data."
        ),
    )
    p.add_argument(
        "graph",
        nargs="?",
        default=None,
        help=(
            "edge-list file to seed from (optional once the data "
            "directory holds a valid snapshot)"
        ),
    )
    p.add_argument(
        "--data",
        required=True,
        metavar="DIR",
        help="data directory: snapshot generations + write-ahead log",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="listening port (default 0: pick a free one, recorded "
        "in DIR/endpoint.json)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="W",
        help=(
            "HTTP worker processes sharing one listening socket "
            "(default 0: serve in-process); the master stays the "
            "single writer"
        ),
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="bounded write admission queue; beyond it writes shed "
        "with 503 (default 16)",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=1,
        metavar="B",
        help="publish a snapshot generation every B write batches "
        "(default 1: every batch)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=2000.0,
        metavar="MS",
        help="default per-request deadline, overridable per request "
        "via X-Deadline-Ms (default 2000)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="per-process concurrent request bound; beyond it "
        "requests shed with 503 (default 64)",
    )
    p.add_argument(
        "--client-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="per-connection socket timeout — slow clients are "
        "dropped, not accumulated (default 10)",
    )
    p.add_argument(
        "--refresh-ms",
        type=float,
        default=50.0,
        metavar="MS",
        help="worker read-view refresh throttle under --workers N "
        "(default 50)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "record recovery/publish/request spans as JSON-lines here "
            "(workers append .wN; render with 'repro trace-report')"
        ),
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "trace-report",
        help="render a recorded --trace file as a timeline report",
        description=(
            "Render a JSON-lines trace recorded by 'decompose --trace' "
            "or 'update --trace' as a human-readable report: per-phase "
            "wall-clock split (index build vs peel vs repairs), the "
            "per-level frontier-decay timeline, per-rank skew for "
            "distributed runs, and any degradation warnings the run "
            "emitted."
        ),
    )
    p.add_argument("trace", help="JSON-lines trace file (from --trace)")
    p.set_defaults(func=cmd_trace_report)

    p = sub.add_parser("ktruss", help="extract one k-truss")
    p.add_argument("input")
    p.add_argument("k", type=int)
    p.add_argument("output")
    p.set_defaults(func=cmd_ktruss)

    p = sub.add_parser("stats", help="graph statistics (Table 2 row)")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("hierarchy", help="truss fingerprint profile")
    p.add_argument("input")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("generate", help="emit a registry dataset")
    p.add_argument(
        "name", type=_dataset_name,
        help="registry dataset (an unknown name lists the choices)",
    )
    p.add_argument("output")
    p.add_argument("--scale", type=float, default=0.1)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
