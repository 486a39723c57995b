"""Ablation: survivability — checkpoint overhead and crash recovery.

The survivable-peeling PR's claims, measured and machine-recorded:

* wave checkpointing is cheap insurance: the fractional wall-time
  overhead of snapshot barriers vs the same run with snapshots off is
  reported per interval (4, 8, 16 waves) and *asserted bounded* at the
  default interval — the knob must be safe to leave on;
* recovery works and is worth it: a scripted mid-run rank kill under
  ``on_failure="retry"`` completes bit-identically to the flat engine
  (asserted inside ``fault_recovery_rows``), and the end-to-end wall
  time of the crashed-and-recovered run — respawn, rewind, resume —
  is recorded next to the clean run's;
* the rewind is real on long runs: the resumed epoch is recorded so
  the JSON shows whether the mesh restarted from scratch (``-1``) or
  picked up a passed barrier.

``BENCH_faults.json`` (path overridable via ``REPRO_BENCH_FAULTS_JSON``)
is the machine-readable artifact CI's chaos job uploads next to
``BENCH_dist.json``.

Run explicitly (the tier-1 suite collects only tests/)::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_faults.py -s
"""

from record import best_of, write_json
from repro.bench import print_table
from repro.core import truss_decomposition_dist, truss_decomposition_flat
from repro.datasets import MASSIVE_DATASETS, load_dataset
from repro.dist.faults import FaultPlan

INTERVALS = (4, 8, 16)
RANKS = 2
REPEATS = 2

#: the scripted kill's earliest round (see ``fault_recovery_rows``)
KILL_ROUND = 8

#: overhead ceiling asserted at the default barrier interval — generous
#: because CI hosts are noisy, but tight enough that an accidentally
#: quadratic snapshot (or one taken every wave) fails loudly
MAX_DEFAULT_OVERHEAD = 0.5


def fault_recovery_rows(scale):
    """Checkpoint cost and crash-recovery time for ``method="dist"``.

    Three measurements per dataset, all parity-checked against the
    flat engine before any time is reported:

    * ``ckpt off (s)`` — the recovering supervisor with snapshots
      disabled (``checkpoint_interval=0``), the overhead baseline;
    * ``ckpt@I …`` — wall time, snapshot count and fractional overhead
      vs that baseline at each barrier interval ``I`` (smaller
      interval = more barriers = more insurance and more cost);
    * ``recovery …`` — a scripted mid-run crash under
      ``on_failure="retry"``: end-to-end wall time including the
      respawn and the rewind, plus the epoch the mesh resumed from
      (``-1`` means no barrier had passed yet and it restarted).  The
      kill round is ``max(KILL_ROUND, waves)`` — roughly mid-peel,
      since a rank sends about three frames per wave — so runs long
      enough to have passed a barrier demonstrate a real rewind.
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
            "ranks": RANKS,
        }

        def timed_dist(**kwargs):
            seconds, results = best_of(
                lambda: truss_decomposition_dist(
                    g, ranks=RANKS, on_failure="retry", **kwargs
                ),
                REPEATS,
            )
            for result in results:
                assert result == ref, (name, kwargs)
            return seconds, results[-1].stats.extra

        base, extra = timed_dist(checkpoint_interval=0)
        row["ckpt off (s)"] = base
        row["waves"] = extra.get("waves", 0)
        for interval in INTERVALS:
            seconds, extra = timed_dist(checkpoint_interval=interval)
            row[f"ckpt@{interval} (s)"] = seconds
            row[f"ckpt@{interval} snaps"] = extra.get("checkpoints", 0)
            row[f"ckpt@{interval} ovh"] = seconds / max(base, 1e-9) - 1
        seconds, extra = timed_dist(
            checkpoint_interval=INTERVALS[len(INTERVALS) // 2],
            fault_plan=FaultPlan.kill(
                1, round=max(KILL_ROUND, int(row["waves"]))
            ),
        )
        assert extra.get("retries") == 1, (name, extra)
        row["recovery (s)"] = seconds
        row["resumed epoch"] = extra.get("resumed_from_epoch", -1)
        rows.append(row)
    return rows


def test_fault_ablation(scale):
    """The checkpoint/recovery sweep, recorded as BENCH_faults.json."""
    rows = fault_recovery_rows(scale)
    print_table(
        "faults",
        rows,
        "Ablation: checkpoint overhead and crash recovery (dist, 2 ranks)",
    )
    doc = {
        "suite": "bench_ablation_faults",
        "scale": scale,
        "intervals": list(INTERVALS),
        "max_default_overhead": MAX_DEFAULT_OVERHEAD,
        "datasets": rows,
        "overhead_by_interval": {
            f"ckpt@{i}": max(row[f"ckpt@{i} ovh"] for row in rows)
            for i in INTERVALS
        },
        "recovery_seconds": {
            row["dataset"]: row["recovery (s)"] for row in rows
        },
    }
    path = write_json(doc, "BENCH_faults.json", "REPRO_BENCH_FAULTS_JSON")
    print(
        f"\nwrote {path} (worst default-interval overhead: "
        f"{doc['overhead_by_interval']['ckpt@8']:+.1%})"
    )

    # the acceptance contract: snapshots at the default interval stay
    # cheap, every recovery run actually recovered (asserted row-side),
    # and the columns the JSON promises are all present
    for row in rows:
        assert row["recovery (s)"] is not None, row["dataset"]
        for interval in INTERVALS:
            assert row[f"ckpt@{interval} (s)"] is not None
        assert row["ckpt@8 ovh"] < MAX_DEFAULT_OVERHEAD, (
            row["dataset"], row["ckpt@8 ovh"],
        )
