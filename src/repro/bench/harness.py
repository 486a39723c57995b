"""Experiment harness: one function per table/figure of the paper.

Each ``table*_rows`` function runs the experiment and returns rows
shaped like the paper's table, with the paper's reported values
alongside the measured ones so the "shape" claims (who wins, by what
factor, where crossovers fall) can be eyeballed — and asserted by the
benchmark suite.

All experiments take a ``scale`` so CI-speed runs and fuller runs share
one code path.  Determinism: datasets are seeded, and memory budgets
derive from graph size, so rows only vary in the timing columns.

Only the paper's methods run here.  The ablations of this package's own
engines (flat, the kernels, parallel, dist, faults, the incremental
maintainer, ingest) build their rows in the ``benchmarks/`` script that
asserts on them.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.tables import render_table
from repro.core import (
    truss_decomposition_baseline,
    truss_decomposition_bottomup,
    truss_decomposition_improved,
    truss_decomposition_mapreduce,
    truss_decomposition_topdown,
)
from repro.cores import GraphStatistics, average_clustering, max_core
from repro.datasets import (
    IN_MEMORY_DATASETS,
    MASSIVE_DATASETS,
    SMALL_DATASETS,
    TRUSS_VS_CORE_DATASETS,
    dataset_spec,
    load_dataset,
    manager_graph,
    running_example_graph,
    RUNNING_EXAMPLE_CLASSES,
    PAPER_CLUSTERING,
)
from repro.exio import IOStats, MemoryBudget
from repro.graph.adjacency import Graph


@dataclass
class Measured:
    """A run's result plus wall-clock seconds and peak heap bytes."""

    result: object
    seconds: float
    peak_bytes: int


def measure(fn: Callable[[], object], track_memory: bool = True) -> Measured:
    """Time a callable; optionally record tracemalloc peak."""
    if track_memory:
        tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    peak = 0
    if track_memory:
        _cur, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return Measured(result=result, seconds=seconds, peak_bytes=peak)


def external_budget(g: Graph, fraction: int = 4) -> MemoryBudget:
    """The 'does not fit in memory' budget: |G|/fraction units."""
    return MemoryBudget(units=max(16, g.size // fraction))


# ---------------------------------------------------------------------------
# Table 2 — dataset statistics
# ---------------------------------------------------------------------------
def table2_rows(scale: float = 1.0, names: Optional[Sequence[str]] = None) -> List[Dict]:
    """n, m, size, dmax, dmed, kmax for every dataset stand-in."""
    rows = []
    for name in names or (SMALL_DATASETS + IN_MEMORY_DATASETS + MASSIVE_DATASETS):
        g = load_dataset(name, scale=scale)
        spec = dataset_spec(name)
        stats = GraphStatistics.of(g)
        td = truss_decomposition_improved(g)
        rows.append(
            {
                "dataset": name,
                "|V|": stats.num_vertices,
                "|E|": stats.num_edges,
                "size(B)": stats.size_bytes,
                "dmax": stats.max_degree,
                "dmed": stats.median_degree,
                "kmax": td.kmax,
                "paper |V|": int(spec.paper.num_vertices),
                "paper |E|": int(spec.paper.num_edges),
                "paper kmax": spec.paper.kmax,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 3 — TD-inmem vs TD-inmem+
# ---------------------------------------------------------------------------
PAPER_TABLE3 = {
    "wiki": (8856.0, 121.0),
    "amazon": (68.0, 31.0),
    "skitter": (9204.0, 281.0),
    "blog": (1261.0, 361.0),
}


def table3_rows(scale: float = 1.0, names: Optional[Sequence[str]] = None) -> List[Dict]:
    """Running time and peak memory of Algorithm 1 vs Algorithm 2."""
    rows = []
    for name in names or IN_MEMORY_DATASETS:
        g = load_dataset(name, scale=scale)
        improved = measure(lambda: truss_decomposition_improved(g))
        baseline = measure(lambda: truss_decomposition_baseline(g))
        assert baseline.result == improved.result, name
        paper_base, paper_impr = PAPER_TABLE3.get(name, (None, None))
        rows.append(
            {
                "dataset": name,
                "TD-inmem (s)": baseline.seconds,
                "TD-inmem+ (s)": improved.seconds,
                "speedup": baseline.seconds / max(improved.seconds, 1e-9),
                "mem inmem (MB)": baseline.peak_bytes / 1e6,
                "mem inmem+ (MB)": improved.peak_bytes / 1e6,
                "paper speedup": (
                    paper_base / paper_impr if paper_base else None
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 4 — TD-bottomup vs TD-MR
# ---------------------------------------------------------------------------
PAPER_TABLE4 = {
    "p2p": (1.0, 4200.0),
    "hep": (1.0, 14760.0),
    "lj": (664.0, None),
    "btc": (1768.0, None),
    "web": (6314.0, None),
}


def table4_rows(
    scale_small: float = 0.25,
    scale_massive: float = 0.35,
    run_mapreduce: bool = True,
) -> List[Dict]:
    """TD-bottomup everywhere; TD-MR only where it can finish.

    The paper could only run TD-MR on P2P and HEP (3+ orders of
    magnitude slower); we mirror that: MR runs on the two small
    datasets (with Hadoop-style per-round materialization through the
    accounted block layer), the massive three get '-' in the MR column.
    """
    import tempfile

    from repro.mapreduce import LocalMRRuntime

    rows = []
    for name in SMALL_DATASETS + MASSIVE_DATASETS:
        small = name in SMALL_DATASETS
        g = load_dataset(name, scale=scale_small if small else scale_massive)
        stats = IOStats()
        bottomup = measure(
            lambda: truss_decomposition_bottomup(
                g, budget=external_budget(g), stats=stats
            ),
            track_memory=False,
        )
        mr_seconds = None
        mr_blocks = None
        if run_mapreduce and small:
            with tempfile.TemporaryDirectory() as spill:
                mr_io = IOStats()
                runtime = LocalMRRuntime(
                    num_reducers=8, spill_dir=Path(spill), io_stats=mr_io
                )
                mr = measure(
                    lambda: truss_decomposition_mapreduce(g, runtime=runtime),
                    track_memory=False,
                )
            assert mr.result == bottomup.result, name
            mr_seconds = mr.seconds
            mr_blocks = mr_io.total_blocks
        paper_bu, paper_mr = PAPER_TABLE4.get(name, (None, None))
        rows.append(
            {
                "dataset": name,
                "|E|": g.num_edges,
                "TD-bottomup (s)": bottomup.seconds,
                "TD-MR (s)": mr_seconds,
                "block I/Os": stats.total_blocks,
                "MR block I/Os": mr_blocks,
                "paper bottomup (s)": paper_bu,
                "paper MR (s)": paper_mr,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 5 — TD-topdown top-20 vs all, vs TD-bottomup
# ---------------------------------------------------------------------------
PAPER_TABLE5 = {
    "lj": (149.0, 941.0, 664.0),
    "btc": (1744.0, 1744.0, 1768.0),
    "web": (2354.0, None, 6314.0),
}


def table5_rows(scale: float = 0.25, t: int = 20) -> List[Dict]:
    """Top-t vs full top-down vs bottom-up on the massive datasets.

    Reports wall time and block I/O; the paper's ordering claims live in
    the I/O columns (its testbed was disk-bound; our scaled files are
    page-cached).  The "all" column disables the kinit fast-forward to
    match the regime the paper measured (on their graphs the first
    fitting candidate is at ``k ~ k1st`` anyway).
    """
    rows = []
    for name in MASSIVE_DATASETS:
        g = load_dataset(name, scale=scale)
        budget = external_budget(g)
        io_top, io_all, io_bu = IOStats(), IOStats(), IOStats()
        topt = measure(
            lambda: truss_decomposition_topdown(
                g, t=t, budget=budget, stats=io_top
            ),
            track_memory=False,
        )
        full = measure(
            lambda: truss_decomposition_topdown(
                g, budget=budget, stats=io_all, use_kinit=False
            ),
            track_memory=False,
        )
        bottomup = measure(
            lambda: truss_decomposition_bottomup(g, budget=budget, stats=io_bu),
            track_memory=False,
        )
        assert full.result == bottomup.result, name
        paper = PAPER_TABLE5.get(name, (None, None, None))
        rows.append(
            {
                "dataset": name,
                f"top-{t} (s)": topt.seconds,
                "all (s)": full.seconds,
                "bottomup (s)": bottomup.seconds,
                f"top-{t} I/O": io_top.total_blocks,
                "all I/O": io_all.total_blocks,
                "bottomup I/O": io_bu.total_blocks,
                "paper top-20 (s)": paper[0],
                "paper all (s)": paper[1],
                "paper bottomup (s)": paper[2],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 6 — kmax-truss vs cmax-core
# ---------------------------------------------------------------------------
PAPER_TABLE6 = {
    "amazon": (5000, 33000, 55000, 442000, 11, 10, 0.99, 0.72),
    "wiki": (237, 700, 32000, 147000, 53, 131, 0.64, 0.42),
    "skitter": (185, 222, 16000, 33000, 68, 111, 0.95, 0.71),
    "blog": (49, 387, 2000, 54000, 49, 86, 1.00, 0.52),
    "lj": (383, 395, 146000, 155000, 362, 372, 1.00, 0.99),
    "btc": (653, 1295, 10000, 838000, 7, 641, 0.45, 0.00002),
    "web": (498, 862, 82000, 148000, 166, 165, 1.00, 0.59),
}


def table6_rows(scale: float = 0.5, names: Optional[Sequence[str]] = None) -> List[Dict]:
    """Size, density and clustering of the kmax-truss vs the cmax-core."""
    rows = []
    for name in names or TRUSS_VS_CORE_DATASETS:
        g = load_dataset(name, scale=scale)
        td = truss_decomposition_improved(g)
        kmax, t = td.max_truss()
        cmax, c = max_core(g)
        paper = PAPER_TABLE6.get(name)
        rows.append(
            {
                "dataset": name,
                "|V_T|": t.num_vertices,
                "|V_C|": c.num_vertices,
                "|E_T|": t.num_edges,
                "|E_C|": c.num_edges,
                "kmax": kmax,
                "cmax": cmax,
                "CC_T": average_clustering(t),
                "CC_C": average_clustering(c),
                "paper kmax/cmax": f"{paper[4]}/{paper[5]}" if paper else None,
                "paper CC_T/CC_C": f"{paper[6]}/{paper[7]}" if paper else None,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 1 and 2
# ---------------------------------------------------------------------------
def figure1_rows() -> List[Dict]:
    """Example 1's comparison of G, its 3-core and its 4-truss."""
    from repro.cores import k_core

    g = manager_graph()
    td = truss_decomposition_improved(g)
    c3 = k_core(g, 3)
    t4 = td.k_truss(4)
    rows = []
    for label, sub, paper_cc in (
        ("G", g, PAPER_CLUSTERING[0]),
        ("3-core", c3, PAPER_CLUSTERING[1]),
        ("4-truss", t4, PAPER_CLUSTERING[2]),
    ):
        rows.append(
            {
                "subgraph": label,
                "|V|": sub.num_vertices,
                "|E|": sub.num_edges,
                "CC": average_clustering(sub),
                "paper CC": paper_cc,
            }
        )
    return rows


def figure2_rows() -> List[Dict]:
    """Example 2's k-classes of the running example, ours vs paper."""
    g = running_example_graph()
    td = truss_decomposition_improved(g)
    rows = []
    for k in sorted(RUNNING_EXAMPLE_CLASSES):
        rows.append(
            {
                "k": k,
                "|Phi_k| measured": len(td.k_class(k)),
                "|Phi_k| paper": len(RUNNING_EXAMPLE_CLASSES[k]),
                "match": sorted(td.k_class(k))
                == sorted(RUNNING_EXAMPLE_CLASSES[k]),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------
TABLE_HEADERS = {
    "table2": [
        "dataset", "|V|", "|E|", "size(B)", "dmax", "dmed", "kmax",
        "paper |V|", "paper |E|", "paper kmax",
    ],
    "table3": [
        "dataset", "TD-inmem (s)", "TD-inmem+ (s)", "speedup",
        "mem inmem (MB)", "mem inmem+ (MB)", "paper speedup",
    ],
    "table4": [
        "dataset", "|E|", "TD-bottomup (s)", "TD-MR (s)", "block I/Os",
        "MR block I/Os", "paper bottomup (s)", "paper MR (s)",
    ],
    "table5": [
        "dataset", "top-20 (s)", "all (s)", "bottomup (s)",
        "top-20 I/O", "all I/O", "bottomup I/O",
        "paper top-20 (s)", "paper all (s)", "paper bottomup (s)",
    ],
    "table6": [
        "dataset", "|V_T|", "|V_C|", "|E_T|", "|E_C|", "kmax", "cmax",
        "CC_T", "CC_C", "paper kmax/cmax", "paper CC_T/CC_C",
    ],
    "figure1": ["subgraph", "|V|", "|E|", "CC", "paper CC"],
    "figure2": ["k", "|Phi_k| measured", "|Phi_k| paper", "match"],
}


def print_table(name: str, rows: List[Dict], title: str) -> str:
    """Render one experiment's rows with its canonical headers."""
    headers = TABLE_HEADERS.get(name) or list(rows[0]) if rows else []
    text = render_table(title, headers, rows)
    print(text)
    return text
