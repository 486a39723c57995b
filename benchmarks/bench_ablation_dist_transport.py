"""Ablation: the distributed peel's transports, scaling and footprint.

The ``repro.dist`` PR's claims, measured and machine-recorded:

* ``method="dist"`` produces the bit-identical trussness map as the
  flat engine on the registry's largest datasets at ranks 1, 2 and 4
  on *both* transports (asserted inside ``dist_transport_rows`` before
  any time is reported) — neither the rank count nor the fabric
  changes the wave schedule;
* the coordinator's global state is really gone: the peak *per-rank*
  dedupe-state size (the hash-partitioned dead-triangle bitmap,
  ``dedupe_peak_bytes``) must strictly shrink as ranks grow — no rank
  holds the global triangle set;
* the message volume is visible: ``bytes_per_wave`` totals every
  frame (header included) the ranks exchanged per wave — the control
  allgathers plus the two routed data rounds — identically accounted
  by the loopback and TCP fabrics;
* wall time is compared, not hard-gated: on a core-starved host every
  added rank only adds exchange latency, and the JSON documents
  whichever way the comparison lands.

``BENCH_dist.json`` (path overridable via ``REPRO_BENCH_DIST_JSON``)
is the machine-readable artifact CI uploads next to
``BENCH_parallel.json``.

Run explicitly (the tier-1 suite collects only tests/)::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_dist_transport.py -s
"""

import os

import pytest

from record import best_of, write_json
from repro.bench import print_table
from repro.core import truss_decomposition_dist, truss_decomposition_flat
from repro.datasets import (
    IN_MEMORY_DATASETS,
    MASSIVE_DATASETS,
    SMALL_DATASETS,
    load_dataset,
)

RANKS_LIST = (1, 2, 4)
TRANSPORTS = ("loopback", "tcp")
REPEATS = 2

#: the acceptance bar names *every* registry dataset, not just the
#: massive trio the timing sweep uses
ALL_DATASETS = SMALL_DATASETS + IN_MEMORY_DATASETS + MASSIVE_DATASETS


def dist_transport_rows(scale):
    """``method="dist"`` across transports and rank counts, parity-checked.

    Every run is asserted bit-identical to the flat engine before its
    time is reported (the rank count and transport never change the
    wave schedule).  Alongside best-of-``REPEATS`` wall time, each
    configuration reports the transport's own accounting:
    ``B/wave`` is the total on-the-wire message volume (frame headers
    included, summed over all ranks) divided by the wave count, and
    ``dedupe (B)`` is the *peak per-rank* dedupe-state size — the
    hash-partitioned dead-triangle bitmap, which must shrink as ranks
    grow because no rank holds the global triangle set.
    """
    rows = []
    for name in MASSIVE_DATASETS:
        g = load_dataset(name, scale=scale)
        flat_s, (ref,) = best_of(lambda: truss_decomposition_flat(g), 1)
        row = {
            "dataset": name,
            "|E|": g.num_edges,
            "kmax": ref.kmax,
            "flat (s)": flat_s,
        }
        for transport in TRANSPORTS:
            for ranks in RANKS_LIST:
                seconds, results = best_of(
                    lambda: truss_decomposition_dist(
                        g, ranks=ranks, transport=transport
                    ),
                    REPEATS,
                )
                for result in results:
                    assert result == ref, (
                        name, transport, ranks,
                    )
                extra = results[-1].stats.extra
                key = f"{transport} r={ranks}"
                row[f"{key} (s)"] = seconds
                row[f"{key} peel (s)"] = extra.get("peel_s", 0.0)
                row[f"{key} B/wave"] = extra.get("bytes_per_wave", 0)
                row[f"{key} dedupe (B)"] = extra.get(
                    "dedupe_peak_bytes", 0
                )
        # the schedule is config-invariant, so one column each suffices
        row["waves"] = extra.get("waves", 0)
        row["triangles"] = extra.get("triangles", 0)
        row["index_build (s)"] = extra.get("index_build_s", 0.0)
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_dist_parity(name, scale):
    """Bit-identical to flat on every registry dataset, both fabrics."""
    g = load_dataset(name, scale=scale)
    ref = truss_decomposition_flat(g)
    for transport in TRANSPORTS:
        for ranks in RANKS_LIST:
            assert truss_decomposition_dist(
                g, ranks=ranks, transport=transport
            ) == ref, (name, transport, ranks)


def test_dist_transport_ablation(scale):
    """The transport/rank sweep, recorded as BENCH_dist.json."""
    rows = dist_transport_rows(scale)
    print_table(
        "dist_transport",
        rows,
        "Ablation: distributed peel across transports and rank counts",
    )
    cpu_count = os.cpu_count() or 1
    largest = max(rows, key=lambda r: r["|E|"])
    doc = {
        "suite": "bench_ablation_dist_transport",
        "scale": scale,
        "cpu_count": cpu_count,
        "ranks_list": list(RANKS_LIST),
        "transports": list(TRANSPORTS),
        "datasets": rows,
        "largest_dataset": largest["dataset"],
        "per_wave_bytes": {
            transport: {
                f"r={ranks}": largest[f"{transport} r={ranks} B/wave"]
                for ranks in RANKS_LIST
            }
            for transport in TRANSPORTS
        },
        "dedupe_peak_bytes": {
            f"r={ranks}": largest[f"loopback r={ranks} dedupe (B)"]
            for ranks in RANKS_LIST
        },
    }
    loop_1 = largest["loopback r=1 (s)"]
    tcp_max = largest[f"tcp r={RANKS_LIST[-1]} (s)"]
    if tcp_max > loop_1:
        doc["note"] = (
            f"tcp at {RANKS_LIST[-1]} ranks ran at "
            f"{loop_1 / max(tcp_max, 1e-9):.2f}x vs one loopback rank "
            f"on {largest['dataset']} (|E|={largest['|E|']}, "
            f"{largest['waves']} waves, {cpu_count}-core host).  Every "
            "wave costs one control allgather plus two routed data "
            "rounds; real rank processes pay that on actual sockets, "
            "which wins wall time only once waves are large and cores "
            "(or hosts) are real — the per-wave byte and per-rank "
            "dedupe columns are the host-independent signal."
        )
    path = write_json(doc, "BENCH_dist.json", "REPRO_BENCH_DIST_JSON")
    print(
        f"\nwrote {path} (dedupe peak by ranks: "
        + ", ".join(
            f"r={r}: {doc['dedupe_peak_bytes'][f'r={r}']:.0f}B"
            for r in RANKS_LIST
        )
        + ")"
    )

    # the acceptance contract: every row carries both fabrics' wall
    # time and message volume, traffic is nonzero whenever more than
    # one rank ran, and the per-rank dedupe state *shrinks* as ranks
    # grow — distributing the coordinator's last global structure
    for row in rows:
        for transport in TRANSPORTS:
            for ranks in RANKS_LIST:
                key = f"{transport} r={ranks}"
                assert row[f"{key} (s)"] is not None, (row["dataset"], key)
                if ranks > 1:
                    assert row[f"{key} B/wave"] > 0, (row["dataset"], key)
        dedupe = [
            row[f"loopback r={ranks} dedupe (B)"] for ranks in RANKS_LIST
        ]
        if row["triangles"] >= max(RANKS_LIST):
            assert all(
                a > b for a, b in zip(dedupe, dedupe[1:])
            ), (row["dataset"], dedupe)
