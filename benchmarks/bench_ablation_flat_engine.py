"""Ablation: the flat edge-indexed engine vs the paper's in-memory pair.

``method="flat"`` peels the same levels as TD-inmem+, as
level-synchronous waves over the CSR snapshot's canonical edge-id
arrays instead of dict-of-set adjacency (see :mod:`repro.core.flat`).
The claims asserted here:

* flat produces the identical trussness map on every registry dataset
  (``flat_engine_rows`` asserts equality before reporting any time);
* flat is at least 1.5x faster than TD-inmem+ on the largest registry
  dataset, and never meaningfully slower anywhere;
* both engines beat TD-inmem everywhere, so the ablation chain
  baseline -> improved -> flat is monotone.

Run explicitly (the tier-1 suite collects only tests/)::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_flat_engine.py -s
"""

import pytest

from record import best_of
from repro.bench import render_table
from repro.core import (
    truss_decomposition_baseline,
    truss_decomposition_flat,
    truss_decomposition_improved,
)
from repro.datasets import (
    IN_MEMORY_DATASETS,
    MASSIVE_DATASETS,
    load_dataset,
)

ABLATION_DATASETS = IN_MEMORY_DATASETS + MASSIVE_DATASETS
REPEATS = 2

#: the columns the ablation table prints
HEADERS = [
    "dataset", "|E|", "kmax", "TD-inmem (s)", "TD-inmem+ (s)",
    "flat (s)", "speedup vs inmem+",
]


def flat_engine_rows(scale):
    """The flat engine against TD-inmem+ and TD-inmem, same trussness.

    Every run of flat and of TD-inmem is checked for equality against
    the improved result before its time is reported.
    """
    rows = []
    for name in ABLATION_DATASETS:
        g = load_dataset(name, scale=scale)
        t_impr, improved = best_of(
            lambda: truss_decomposition_improved(g), REPEATS
        )
        ref = improved[-1]
        t_flat, flat = best_of(lambda: truss_decomposition_flat(g), REPEATS)
        t_base, base = best_of(
            lambda: truss_decomposition_baseline(g), REPEATS
        )
        for result in flat + base:
            assert result == ref
        rows.append(
            {
                "dataset": name,
                "|E|": g.num_edges,
                "kmax": ref.kmax,
                "TD-inmem (s)": t_base,
                "TD-inmem+ (s)": t_impr,
                "flat (s)": t_flat,
                "speedup vs inmem+": t_impr / max(t_flat, 1e-9),
            }
        )
    return rows


@pytest.mark.parametrize("name", ABLATION_DATASETS)
def test_flat_engine(benchmark, name, scale):
    g = load_dataset(name, scale=scale)
    reference = truss_decomposition_improved(g)
    td = benchmark.pedantic(
        lambda: truss_decomposition_flat(g), rounds=1, iterations=1
    )
    assert td == reference
    benchmark.extra_info["kmax"] = td.kmax


@pytest.mark.parametrize("name", ABLATION_DATASETS)
def test_improved_reference(benchmark, name, scale):
    g = load_dataset(name, scale=scale)
    benchmark.pedantic(
        lambda: truss_decomposition_improved(g), rounds=1, iterations=1
    )


def test_flat_engine_ablation_table(scale):
    """The ablation table plus the headline speedup claims."""
    rows = flat_engine_rows(scale)
    print(render_table(
        "Ablation: flat edge-indexed engine vs TD-inmem / TD-inmem+",
        HEADERS,
        rows,
    ))
    by_edges = sorted(rows, key=lambda r: r["|E|"])
    largest = by_edges[-1]
    # the headline claim: the flat substrate pays off most where there
    # is the most work — >= 1.5x on the largest registry dataset
    assert largest["speedup vs inmem+"] >= 1.5, largest
    # and it is never meaningfully slower anywhere
    assert all(r["speedup vs inmem+"] > 0.9 for r in rows), rows
    # ablation chain is monotone: baseline -> improved -> flat
    for r in rows:
        assert r["TD-inmem (s)"] > r["TD-inmem+ (s)"], r
        assert r["TD-inmem (s)"] > r["flat (s)"], r
