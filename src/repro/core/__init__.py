"""The paper's contribution: truss decomposition algorithms.

Public surface (see :mod:`repro.core.api` for the uniform front door)::

    truss_decomposition(g, method=...)   dispatching entry point
    decompose_file(path, method=...)     file -> trussness fast path
    apply_updates(g, updates, ...)       incremental write path (repro.stream)
    k_truss(g, k), trussness(g)          conveniences
    TrussDecomposition                   result model
    truss_decomposition_baseline         Algorithm 1  (TD-inmem)
    truss_decomposition_improved         Algorithm 2  (TD-inmem+)
    truss_decomposition_flat             Algorithm 2 over flat edge ids
    truss_decomposition_parallel         shared-memory parallel waves
    truss_decomposition_dist             rank-distributed wave peel
    truss_decomposition_bottomup         Algorithms 3+4 (TD-bottomup)
    truss_decomposition_topdown          Algorithm 7  (TD-topdown)
    truss_decomposition_mapreduce        Cohen's TD-MR baseline
    lower_bounding / upper_bounding      the bound stages, standalone

``truss_decomposition_flat``, ``truss_decomposition_parallel`` and
``truss_decomposition_dist`` are this repo's additions, not the
paper's: the same peel semantics as TD-inmem+, run over the CSR
snapshot's canonical edge-id arrays (see :mod:`repro.core.flat`),
serially, fanned out over a worker pool through
``multiprocessing.shared_memory`` (:mod:`repro.core.parallel` with a
``jobs`` knob), or distributed across rank processes over a real
message transport with per-rank state only (:mod:`repro.core.dist`
with ``ranks``/``transport`` knobs).  ``decompose_file`` feeds any of
them straight from a text edge list via the dict-free streaming CSR
ingest.

Each name resolves on first use, so importing this package loads no
method: ``truss_decomposition`` imports :mod:`repro.core.api` and the
flat engine, and the API imports any other engine only when a call
dispatches to it.
"""

from repro._lazy import lazy_names

__all__ = [
    "METHODS",
    "CSR_METHODS",
    "TRANSPORTS",
    "decompose_file",
    "truss_decomposition",
    "apply_updates",
    "k_truss",
    "trussness",
    "top_t_classes",
    "TrussDecomposition",
    "DecompositionStats",
    "truss_hierarchy",
    "TrussHierarchy",
    "HierarchyLevel",
    "truss_decomposition_baseline",
    "truss_decomposition_improved",
    "truss_decomposition_flat",
    "truss_decomposition_parallel",
    "truss_decomposition_dist",
    "truss_decomposition_bottomup",
    "truss_decomposition_topdown",
    "truss_decomposition_mapreduce",
    "truss_decomposition_semi_external",
    "k_truss_mr",
    "lower_bounding",
    "LowerBoundResult",
    "prepare_input",
    "upper_bounding",
    "h_index",
    "x_excluding",
    "ample_budget",
    "peel_level",
]

#: defining module -> the public names it provides
_SOURCES = {
    "repro.core.api": (
        "CSR_METHODS", "METHODS", "apply_updates", "decompose_file",
        "k_truss", "top_t_classes", "truss_decomposition", "trussness",
    ),
    "repro.core.bottomup": (
        "ample_budget", "peel_level", "truss_decomposition_bottomup",
    ),
    "repro.core.decomposition": ("DecompositionStats", "TrussDecomposition"),
    "repro.core.dist": ("TRANSPORTS", "truss_decomposition_dist"),
    "repro.core.flat": ("truss_decomposition_flat",),
    "repro.core.hierarchy": (
        "HierarchyLevel", "TrussHierarchy", "truss_hierarchy",
    ),
    "repro.core.lowerbound": (
        "LowerBoundResult", "lower_bounding", "prepare_input",
    ),
    "repro.core.mapreduce_truss": ("k_truss_mr", "truss_decomposition_mapreduce"),
    "repro.core.parallel": ("truss_decomposition_parallel",),
    "repro.core.semi_external": ("truss_decomposition_semi_external",),
    "repro.core.topdown": ("truss_decomposition_topdown",),
    "repro.core.truss_baseline": ("truss_decomposition_baseline",),
    "repro.core.truss_improved": ("truss_decomposition_improved",),
    "repro.core.upperbound": ("h_index", "upper_bounding", "x_excluding"),
}

__getattr__, __dir__ = lazy_names(globals(), _SOURCES)
