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

No option picks a backend (:func:`repro.kernels.get_kernel` chooses one
per process), so each run here pins the process's backend the way the
kernel tests do, by setting ``repro.kernels._KERNEL``.

Run explicitly (the tier-1 suite collects only tests/)::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_kernel.py -s
"""

import os
from contextlib import contextmanager

import pytest

import repro.kernels as kernels
from record import best_of, write_json
from repro.bench import print_table
from repro.core import (
    truss_decomposition_flat,
    truss_decomposition_parallel,
)
from repro.datasets import SMALL_DATASETS, load_dataset

REPEATS = 2


def _backend_classes() -> dict:
    from repro.kernels.numpy_backend import NumpyKernel

    classes = {"numpy": NumpyKernel}
    try:
        from repro.kernels.numba_backend import NumbaKernel
    except ImportError:
        return classes
    classes["numba"] = NumbaKernel
    return classes


#: name -> class of every backend this process imports (numba's only
#: where the optional package is installed)
BACKENDS = _backend_classes()


@contextmanager
def pinned_kernel(name):
    """Run every engine on backend ``name`` inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_KERNEL", BACKENDS[name]())
        yield


def kernel_ablation_rows(scale):
    """The :mod:`repro.kernels` backends on the flat engine, same truth.

    Every backend's run is asserted equal to the first backend's result
    before its time is reported — the kernel contract says the wave
    schedule (and therefore the map) is backend-invariant.  The
    backends are every one importable in this process (the numba
    column only appears where the optional package is installed), on
    the small registry pair.
    """
    rows = []
    for name in SMALL_DATASETS:
        g = load_dataset(name, scale=scale)
        ref = None
        row = {"dataset": name, "|E|": g.num_edges}
        for backend in BACKENDS:
            with pinned_kernel(backend):
                seconds, results = best_of(
                    lambda: truss_decomposition_flat(g), REPEATS
                )
            if ref is None:
                ref = results[0]
            for result in results:
                assert result == ref, (name, backend)
            row[f"{backend} (s)"] = seconds
            # the engine-recorded phase split: the index build is
            # backend-invariant, the peel is where backends differ
            phases = results[-1].stats.extra
            row[f"{backend} peel (s)"] = phases.get("peel_s", 0.0)
            row["index_build (s)"] = phases.get("index_build_s", 0.0)
        row["kmax"] = ref.kmax
        extra = ref.stats.extra
        row["waves"] = extra.get("waves", 0)
        row["triangles"] = extra.get("triangles", 0)
        if "numba (s)" in row and "numpy (s)" in row:
            row["numba speedup vs numpy"] = row["numpy (s)"] / max(
                row["numba (s)"], 1e-9
            )
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", SMALL_DATASETS)
def test_kernel_parity_on_registry_datasets(name, scale):
    """Every backend, flat and pooled, one truth on real datasets."""
    g = load_dataset(name, scale=scale)
    with pinned_kernel("numpy"):
        ref = truss_decomposition_flat(g)
    for backend in BACKENDS:
        with pinned_kernel(backend):
            assert truss_decomposition_flat(g) == ref, (name, backend)
            assert truss_decomposition_parallel(g, jobs=2) == ref, (
                name, backend,
            )


def test_kernel_backend_ablation(scale):
    """The backend comparison, recorded as BENCH_kernel.json."""
    rows = kernel_ablation_rows(scale)
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
        "backends": list(BACKENDS),
        "repeats": REPEATS,
        "datasets": rows,
        "largest_dataset": largest["dataset"],
    }
    if "numba" in BACKENDS:
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
    path = write_json(doc, "BENCH_kernel.json", "REPRO_BENCH_KERNEL_JSON")
    print(f"\nwrote {path} (backends={doc['backends']})")

    # the acceptance contract of the ablation: every row carries a
    # wall time per available backend
    for row in rows:
        for backend in BACKENDS:
            assert row[f"{backend} (s)"] is not None, (row, backend)
