"""repro — Truss Decomposition in Massive Networks (VLDB 2012).

A full reproduction of Wang & Cheng's truss decomposition system:

* the improved in-memory algorithm (**TD-inmem+**, Algorithm 2) and
  Cohen's baseline (**TD-inmem**, Algorithm 1);
* the I/O-efficient **bottom-up** (Algorithms 3-4) and **top-down**
  (Algorithm 7) external-memory decompositions, with real spill files
  and measured block I/O in the Aggarwal-Vitter (M, B) model;
* Cohen's MapReduce baseline (**TD-MR**) on a local metered MR runtime;
* every substrate those need: graph storage (in-memory + on-disk
  adjacency), O(m^1.5) triangle engine, Chu-Cheng style partitioners,
  external merge sort, k-core decomposition, dataset generators.

Quickstart::

    from repro import Graph, truss_decomposition

    g = Graph([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)])
    td = truss_decomposition(g)
    td.kmax                # 4: the graph is a 4-clique
    td.k_truss(4).edges()  # the densest core

Every public name resolves on first use: ``import repro`` loads none of
the methods, and ``repro.truss_decomposition`` imports only the module
that defines it (PEP 562 ``__getattr__``; see :mod:`repro._lazy`).
"""

from repro._lazy import lazy_names

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "from_edges",
    "read_edge_list",
    "truss_decomposition",
    "trussness",
    "k_truss",
    "top_t_classes",
    "truss_hierarchy",
    "TrussDecomposition",
    "core_numbers",
    "k_core",
    "max_core",
    "average_clustering",
    "MemoryBudget",
    "IOStats",
    "ReproError",
    "__version__",
]

#: defining module -> the public names it provides
_SOURCES = {
    "repro.core.api": (
        "k_truss", "top_t_classes", "truss_decomposition", "trussness",
    ),
    "repro.core.decomposition": ("TrussDecomposition",),
    "repro.core.hierarchy": ("truss_hierarchy",),
    "repro.cores.kcore": ("core_numbers", "k_core", "max_core"),
    "repro.cores.metrics": ("average_clustering",),
    "repro.errors": ("ReproError",),
    "repro.exio.iostats": ("IOStats",),
    "repro.exio.memory": ("MemoryBudget",),
    "repro.graph.adjacency": ("Graph",),
    "repro.graph.builders": ("from_edges",),
    "repro.graph.io": ("read_edge_list",),
}

__getattr__, __dir__ = lazy_names(globals(), _SOURCES)
