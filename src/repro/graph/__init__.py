"""In-memory graph substrate: simple undirected graphs and views.

Public surface::

    Graph                     mutable adjacency-set graph
    CSRGraph                  immutable CSR snapshot
    EdgeTable, norm_edge      edge canonicalization and dense ids
    neighborhood_subgraph     Definition 4's NS(U)
    from_edges, read_edge_list, ...   constructors and (de)serialization

Each name resolves on first use, so a command that ingests straight
into a :class:`CSRGraph` does not load the builders, the text and
binary readers or the component search.
"""

from repro._lazy import lazy_names

__all__ = [
    "Graph",
    "CSRGraph",
    "connected_components",
    "num_connected_components",
    "largest_component",
    "Edge",
    "EdgeTable",
    "norm_edge",
    "norm_edges",
    "dedup_edges",
    "NeighborhoodSubgraph",
    "neighborhood_subgraph",
    "neighborhood_subgraph_from_edges",
    "union_edge_subgraph",
    "CleaningReport",
    "from_edges",
    "from_edges_cleaned",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "disjoint_union",
    "relabel_compact",
    "read_edge_list",
    "write_edge_list",
    "iter_edge_list",
    "read_adjacency_list",
    "write_adjacency_list",
    "read_binary_edges",
    "write_binary_edges",
    "iter_binary_edges",
]

#: defining module -> the public names it provides
_SOURCES = {
    "repro.graph.adjacency": ("Graph",),
    "repro.graph.builders": (
        "CleaningReport", "complete_graph", "cycle_graph",
        "disjoint_union", "from_edges", "from_edges_cleaned",
        "path_graph", "relabel_compact", "star_graph",
    ),
    "repro.graph.components": (
        "connected_components", "largest_component",
        "num_connected_components",
    ),
    "repro.graph.csr": ("CSRGraph",),
    "repro.graph.edges": (
        "Edge", "EdgeTable", "dedup_edges", "norm_edge", "norm_edges",
    ),
    "repro.graph.io": (
        "iter_binary_edges", "iter_edge_list", "read_adjacency_list",
        "read_binary_edges", "read_edge_list", "write_adjacency_list",
        "write_binary_edges", "write_edge_list",
    ),
    "repro.graph.views": (
        "NeighborhoodSubgraph", "neighborhood_subgraph",
        "neighborhood_subgraph_from_edges", "union_edge_subgraph",
    ),
}

__getattr__, __dir__ = lazy_names(globals(), _SOURCES)
