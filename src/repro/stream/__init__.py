"""Incremental truss maintenance for streaming edge updates.

One-shot decomposition cannot keep trussness fresh under the write
traffic the query-server north star targets: any insert/delete would
force a full re-peel.  This package maintains the decomposition
*incrementally* — the write path of truss-as-a-service.

Contract
--------

:class:`TrussMaintainer` (see :mod:`repro.stream.maintainer`) owns a
mutable graph plus its trussness and supports, seeded by one run of
the flat engine.  The state is keyed by edge id — the seed CSR's ids
plus one appended id per insert — in ``array('q')``/``bytearray``
columns; only the vertices a repair reaches are opened, each into a
``{neighbour: edge id}`` dict, and compaction turns the live ids back
into ``(u, v, phi, sup)`` rows sorted by ``(u, v)`` — the result
columns, the server's snapshot rows, and what
:meth:`TrussMaintainer.from_state` rebases onto.
``insert_edge``/``delete_edge``/``apply_batch`` then repair in three
steps:

1. **Enumerate** only the triangles through the updated edges: the
   common keys of the endpoints' opened adjacency dicts, each mapping
   to the two edge ids of its triangle.
2. **Bound** the affected set (:mod:`repro.stream.affected`): by the
   Jakkula–Karypis containment argument (arXiv 1908.10550), a single
   update moves any trussness by at most 1, and only edges reachable
   through same-level triangle chains from the update can move at all.
   The traversal closure of that rule is a *sound superset* of the
   changed edges: everything outside the region provably keeps its
   trussness.  For a batch of B effective updates the chain rule is
   relaxed by a slack of 2·B (levels drift at most one per update).
3. **Re-peel** just the region (:mod:`repro.stream.repeel`) with a
   plain-Python support-ordered peel (the paper's Algorithm 2) over
   per-edge triangle lists, against a *frozen boundary*: non-region
   triangle partners keep their old trussness and expire at it,
   reproducing exactly the support pressure the global peel would have
   applied.

Guarantees and complexity
-------------------------

* **Exactness** — after every update (and every batch), the maintained
  map is bit-identical to a from-scratch decomposition of the current
  graph; ``apply_batch(U)`` is bit-identical to applying ``U`` one at
  a time.  This is pinned by the hypothesis parity suite in
  ``tests/stream/``.
* **Bounded work** — a repair costs
  O(Σ_{e ∈ R∪∂R} deg(e) + peel(R)) where ``R`` is the affected region
  and ``∂R`` its frozen boundary: triangle enumeration touches only
  the neighbourhoods of region edges' endpoints (opening a vertex
  copies its CSR row of ids, never values), and the local peel is
  linear in the region's triangles plus its top support — independent
  of |E| for updates whose cascades stay local (the common case).  A
  worst-case update (or a large batch, whose slack widens the chain
  rule) can still cascade to O(|E|); when the bounded region covers
  more than a tenth of the graph the maintainer degrades to one flat
  re-peel instead of a frozen-boundary peel, so a repair never costs
  materially more than a single full decomposition.
* **Failure semantics** — duplicate inserts, deletes of absent edges
  and self-loop inserts are clean no-ops returning ``False`` (the
  mutators return whether the graph changed); an unknown batch op, or
  an endpoint that is not an integer in the signed 64-bit range,
  raises :class:`repro.errors.DecompositionError` *before* any
  mutation of the batch is rolled in.  ``last_affected`` exposes the
  region of the most recent repair for observability, and ``stats``
  counts repairs, affected/frozen edges and local triangles.
"""

from repro.stream.affected import expand_region
from repro.stream.maintainer import TrussMaintainer
from repro.stream.repeel import repeel_region
from repro.stream.updates import (
    Update,
    format_update,
    parse_update_line,
    read_update_lines,
    read_update_stream,
)

__all__ = [
    "TrussMaintainer",
    "Update",
    "expand_region",
    "format_update",
    "parse_update_line",
    "read_update_lines",
    "read_update_stream",
    "repeel_region",
]
