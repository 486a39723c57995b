"""Ablation: the pluggable wave-step kernel backends on the flat engine.

The kernel-layer PR's claims, measured and machine-recorded:

* every backend (``numpy``, and ``numba`` where the optional package
  is installed) produces the identical trussness map and wave
  schedule — asserted inside ``kernel_ablation_rows`` before any time
  is reported, and re-pinned here across the engine matrix;
* the ``numba`` delta is *recorded, not asserted*: JIT warm-up,
  cache state, and wave granularity decide whether compiled loops beat
  ``numpy``'s fused C ufuncs at CI scale, and the JSON documents
  whichever way it lands (the column is absent when numba is not
  installed, e.g. on the tier-1 legs).

``BENCH_kernel.json`` (path overridable via ``REPRO_BENCH_KERNEL_JSON``)
is the machine-readable artifact the tier-2 CI job uploads: per-dataset
wall clock per backend, the numba delta when present, and host
context.

Run explicitly (the tier-1 suite collects only tests/)::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_kernel.py -s
"""

import json
import os
from pathlib import Path

import pytest

from repro.bench.harness import kernel_ablation_rows, print_table
from repro.core import (
    truss_decomposition_flat,
    truss_decomposition_parallel,
)
from repro.datasets import SMALL_DATASETS, load_dataset
from repro.kernels import available_kernels, kernel_available

REPEATS = 2


def _json_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_KERNEL_JSON", "BENCH_kernel.json"))


@pytest.mark.parametrize("name", SMALL_DATASETS)
def test_kernel_parity_on_registry_datasets(name, scale):
    """Every backend, flat and pooled, one truth on real datasets."""
    g = load_dataset(name, scale=scale)
    ref = truss_decomposition_flat(g, kernel="numpy")
    for backend in available_kernels():
        assert truss_decomposition_flat(g, kernel=backend) == ref, (
            name, backend,
        )
        assert truss_decomposition_parallel(
            g, jobs=2, kernel=backend
        ) == ref, (name, backend)


def test_kernel_backend_ablation(scale):
    """The backend comparison, recorded as BENCH_kernel.json."""
    rows = kernel_ablation_rows(scale=scale, repeats=REPEATS)
    print_table(
        "kernel_backends",
        rows,
        "Ablation: wave-step kernel backends (flat engine)",
    )
    largest = max(rows, key=lambda r: r["|E|"])
    doc = {
        "suite": "bench_ablation_kernel",
        "scale": scale,
        "cpu_count": os.cpu_count() or 1,
        "backends": list(available_kernels()),
        "repeats": REPEATS,
        "datasets": rows,
        "largest_dataset": largest["dataset"],
    }
    if kernel_available("numba"):
        doc["numba_speedup_vs_numpy_largest"] = largest[
            "numba speedup vs numpy"
        ]
        if largest["numba speedup vs numpy"] < 1.0:
            doc["note"] = (
                f"numba ran at {largest['numba speedup vs numpy']:.2f}x "
                f"vs numpy on {largest['dataset']} "
                f"(|E|={largest['|E|']}, {largest['waves']} waves).  At "
                "CI scale each wave's frontier is small, so the njit "
                "loops' per-call dispatch competes with numpy's fused "
                "ufuncs; the delta is recorded, not gated."
            )
    path = _json_path()
    path.write_text(json.dumps(doc, indent=2, default=float) + "\n")
    print(f"\nwrote {path} (backends={doc['backends']})")

    # the acceptance contract of the ablation: every row carries a
    # wall time per available backend
    for row in rows:
        for backend in available_kernels():
            assert row[f"{backend} (s)"] is not None, (row, backend)
