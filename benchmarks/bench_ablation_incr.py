"""Ablation: incremental truss maintenance vs from-scratch recompute.

The streaming PR's claim, measured and machine-recorded: on the
largest massive-registry dataset, repairing trussness through
``TrussMaintainer`` after an edge update costs work proportional to
the bounded affected region, while the only alternative — re-running
the flat engine on the mutated graph — pays the full peel every time.

* **asserted**: at batch size 1 (the query-server write path: one
  update, one repair, freshness after every write) the incremental
  side beats from-scratch recompute per update.  This ordering holds
  on any host: the repair peels a handful of edges against a frozen
  boundary, the recompute peels all of them.
* **recorded, not asserted**: how the gap narrows as batches grow —
  at batch 256 one recompute amortizes over the whole batch while the
  batched repair's region (slack 2·B) swells, so the crossover point
  is host- and graph-dependent; the JSON documents wherever it lands.

``BENCH_incr.json`` (path overridable via ``REPRO_BENCH_INCR_JSON``)
is the artifact the tier-2 ``stream-soak`` CI job uploads: per-batch
walls, per-update milliseconds, speedups and mean affected-region
size, plus host context.

Run explicitly (the tier-1 suite collects only tests/)::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_incr.py -s
"""

import os
import random

from record import write_json
from repro.bench import measure, print_table
from repro.core import truss_decomposition_flat
from repro.datasets import MASSIVE_DATASETS, load_dataset
from repro.stream import TrussMaintainer

BATCH_SIZES = (1, 16, 256)
N_UPDATES = 256
SEED = 2012


def incremental_rows(scale):
    """Incremental repair vs from-scratch recompute, per batch size.

    Picks the largest massive-registry dataset (by edge count at this
    scale), generates a seeded update stream over its vertex range
    (alternating fresh inserts and deletes of original edges, so most
    updates are effective and triangle-touching), and replays it in
    chunks of each batch size through (a) the incremental maintainer's
    ``apply_batch`` and (b) what a server without a write path would
    pay — mutate a mirror, full flat recompute per chunk.  The two end
    states are asserted bit-identical before any time is reported.

    The from-scratch side makes long streams unaffordable at small
    batch sizes, so each row replays ``min(N_UPDATES, max(24, B))``
    updates and reports *per-update* milliseconds alongside the raw
    walls — the per-update columns are the comparable ones.
    """
    graphs = {
        name: load_dataset(name, scale=scale) for name in MASSIVE_DATASETS
    }
    name, g = max(graphs.items(), key=lambda kv: kv[1].num_edges)
    rng = random.Random(SEED)
    verts = sorted(g.vertices())
    originals = sorted(g.edges())
    rng.shuffle(originals)
    updates = []
    for i in range(N_UPDATES):
        if i % 2 and i // 2 < len(originals):
            updates.append(("delete", *originals[i // 2]))
        else:
            u, v = rng.sample(verts, 2)
            updates.append(("insert", u, v))
    rows = []
    for batch in BATCH_SIZES:
        ups = updates[: min(N_UPDATES, max(24, batch))]
        tm = TrussMaintainer.from_graph(g)
        inc = measure(
            lambda: [
                tm.apply_batch(ups[i : i + batch])
                for i in range(0, len(ups), batch)
            ],
            track_memory=False,
        )
        mirror = g.copy()
        last = {}

        def replay_scratch():
            td = None
            for i in range(0, len(ups), batch):
                for op, u, v in ups[i : i + batch]:
                    if op == "insert":
                        mirror.add_edge(u, v)
                    else:
                        mirror.discard_edge(u, v)
                td = truss_decomposition_flat(mirror)
            last["td"] = td

        scratch = measure(replay_scratch, track_memory=False)
        assert dict(tm.trussness) == dict(last["td"].trussness), (
            name, batch,
        )
        extra = tm.stats.extra
        repairs = max(1, int(extra.get("repairs", 1)))
        rows.append({
            "dataset": name,
            "|E|": g.num_edges,
            "batch": batch,
            "updates": len(ups),
            "incremental (s)": inc.seconds,
            "scratch (s)": scratch.seconds,
            "incremental/update (ms)": 1e3 * inc.seconds / len(ups),
            "scratch/update (ms)": 1e3 * scratch.seconds / len(ups),
            "speedup": scratch.seconds / max(inc.seconds, 1e-9),
            "affected/repair": extra.get("affected_edges", 0) / repairs,
        })
    return rows


def test_incremental_vs_scratch_ablation(scale):
    """The update-batch comparison, recorded as BENCH_incr.json."""
    rows = incremental_rows(scale)
    print_table(
        "incremental_updates",
        rows,
        "Ablation: incremental repair vs from-scratch recompute",
    )
    single = next(r for r in rows if r["batch"] == 1)
    doc = {
        "suite": "bench_ablation_incr",
        "scale": scale,
        "cpu_count": os.cpu_count() or 1,
        "dataset": single["dataset"],
        "batch_sizes": list(BATCH_SIZES),
        "rows": rows,
        "single_update_speedup": single["speedup"],
        "single_update_repair_ms": single["incremental/update (ms)"],
    }
    path = write_json(doc, "BENCH_incr.json", "REPRO_BENCH_INCR_JSON")
    print(f"\nwrote {path} (dataset={single['dataset']})")

    # the acceptance contract: parity was asserted inside
    # incremental_rows before any time was reported, and single-edge
    # repair must beat a full recompute on the largest dataset
    for row in rows:
        assert row["incremental (s)"] > 0 and row["scratch (s)"] > 0, row
    assert single["speedup"] > 1.0, single
