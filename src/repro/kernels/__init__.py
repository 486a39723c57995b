"""The peel-kernel layer: one wave inner step, every engine.

Every CSR peel engine — ``flat`` serial waves
(:func:`repro.core.flat.run_wave_peel`), the shared-memory ``parallel``
pool (:mod:`repro.core.parallel`) and the rank-distributed ``dist``
peel (:meth:`repro.dist.rank.Rank.run`) —
executes the same bulk-synchronous wave inner step, the loop Kabir &
Madduri's PKT (arXiv:1707.02000) shows saturating shared-memory
hardware when it is a tight kernel.  This package owns that step behind
one interface, :class:`PeelKernel`, so a compiled backend speeds up all
three engines at once; no engine carries a private gather/decrement
implementation.

The kernel contract
-------------------
A backend implements five operations over the flat eid-indexed peel
state the engines already share — the ``sup``/``alive``/``phi``/
``hist`` arrays plus the :class:`~repro.triangles.index_builder.
TriangleIndex` columns (``e1``/``e2``/``e3``/``tptr``/``tinc``, plain
ndarrays or read-only mmaps; a kernel must accept either).  ``tptr``
is int64; ``e1``/``e2``/``e3``/``tinc`` are int32 or int64, whichever
width the builder chose, and every output is int64 at either width:

* :meth:`~PeelKernel.pop_frontier` — pop a wave's frontier: set
  ``phi`` to the current level ``k``, debit the alive-support
  histogram at each popped edge's *current* support, clear ``alive``.
  ``frontier`` holds **array-local** indices (global edge id minus the
  slice's base offset), so the same call serves the global arrays
  (flat), a shared-memory view (parallel) and a rank-local shard
  slice (dist).  Must be a no-op on an empty frontier.
* :meth:`~PeelKernel.gather_incident` — the incidence gather: the
  sorted, deduplicated triangle ids incident to ``edge_ids`` (these
  are **global** edge ids indexing ``tptr``; callers add their ``lo``
  offset first).  With ``tdead`` given, triangles already marked dead
  are dropped — the *first-edge-wins* invariant: a triangle is
  destroyed exactly once, in the wave its first frontier edge pops,
  and only the survivor set is returned.  With ``tdead=None`` the raw
  deduped incidence is returned (the distributed peel defers liveness
  to each triangle's hash owner).
* :meth:`~PeelKernel.count_decrements` — the scatter count: for each
  destroyed triangle, its still-alive partner edges, as a sorted
  ``(touched, counts)`` decrement buffer.  ``lo``/``hi`` (when not
  ``None``) bound the caller's owned global edge-id range — partners
  outside it belong to another shard and are skipped; ``base`` is the
  array offset of the ``alive`` slice, and ``touched`` comes back
  array-local (global id minus ``base``).  Flat callers pass
  unbounded/offsetless; shard owners pass their plan bounds.
* :meth:`~PeelKernel.apply_decrements` — the support/histogram commit:
  ``sup[t] -= c`` for the buffer, histogram rows moved from the old to
  the new support value, returning the sub-frontier (touched edges at
  or below the wave floor ``k - 2``), sorted.  Supports here are
  *exact*, never clamped — the histogram floor scan depends on it.
* :meth:`~PeelKernel.merge_decrements` — fold per-partition decrement
  buffers into one (the dynamic-mode coordinator's reduction); the
  single-buffer case must pass through untouched.

Outputs are int64 and **sorted ascending, duplicate-free** wherever
the contract says so — engines searchsorted/route/split these arrays
and every backend must be bit-for-bit interchangeable: an admissible
backend produces, on every input, exactly the arrays the ``numpy``
reference backend produces (the cross-backend hypothesis sweep in
``tests/kernels/`` enforces this against the brute-force oracle, and
the per-op tests against plain loops in ``tests/oracles.py``).

Backends
--------
``numpy`` (:mod:`repro.kernels.numpy_backend`)
    The vectorized implementation the engines shipped with — the
    bit-identity reference.
``numba`` (:mod:`repro.kernels.numba_backend`)
    Optional ``@njit``-compiled gather/scatter loops, compiled lazily
    with ``cache=True`` so worker processes and ranks reuse the on-disk
    compilation cache instead of each paying the JIT warm-up;
    construction pre-compiles every entry point on int64 arrays, and
    an int32 index compiles its own specialization on first use.

Since the backends are bit-identical, which one runs is a speed
choice, and the code makes it: :func:`get_kernel` takes numba's
backend when its module imports and numpy's otherwise, once per
process, and every engine, pool worker and rank of a peel runs that
one.  No option picks a backend.

Every backend runs over numpy arrays, so the CSR engines need numpy:
without it :func:`get_kernel` raises one
:class:`~repro.errors.DecompositionError` naming numpy
(:data:`NUMPY_REQUIRED`), and every CSR entry point calls it before it
touches an array.  The paper's own methods (``method="improved"`` and
the rest) are stdlib and run without it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DecompositionError

try:  # every backend needs it; its absence is get_kernel's error
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: the one error of every CSR entry point when numpy is missing
NUMPY_REQUIRED = (
    "the CSR engines (flat, parallel, dist) and repro update need "
    "numpy, which is not installed; --method improved runs without it"
)


class PeelKernel:
    """The wave inner step: pop, gather, count, apply, merge.

    Array arguments follow the engines' flat eid-indexed layout (see
    the module doc for the full contract).  Backends are stateless —
    one shared instance per process serves every concurrent peel.
    """

    name = "abstract"

    def pop_frontier(self, sup, alive, phi, hist, frontier, k) -> None:
        """Pop ``frontier`` (array-local indices) at level ``k``."""
        raise NotImplementedError

    def gather_incident(self, tptr, tinc, edge_ids, tdead=None):
        """Sorted unique triangles incident to global ``edge_ids``."""
        raise NotImplementedError

    def count_decrements(
        self, e1, e2, e3, tris, alive, lo=None, hi=None, base=0
    ):
        """Sorted ``(touched, counts)`` for ``tris``'s live partners."""
        raise NotImplementedError

    def apply_decrements(self, sup, hist, touched, counts, k):
        """Commit a decrement buffer; return the sub-frontier."""
        raise NotImplementedError

    def merge_decrements(self, buffers):
        """Fold per-partition ``(touched, counts)`` buffers into one."""
        raise NotImplementedError


#: the process's backend, chosen by the first :func:`get_kernel` call
#: and kept, so a failed numba import is never retried (tests pin a
#: backend by setting this name)
_KERNEL: Optional[PeelKernel] = None


def get_kernel() -> PeelKernel:
    """The process's wave-step backend: numba's when
    :mod:`repro.kernels.numba_backend` imports, numpy's otherwise.

    Raises :class:`~repro.errors.DecompositionError`
    (:data:`NUMPY_REQUIRED`) without numpy.
    """
    global _KERNEL
    if _np is None:
        raise DecompositionError(NUMPY_REQUIRED)
    if _KERNEL is None:
        try:
            from repro.kernels.numba_backend import NumbaKernel as backend
        except ImportError:
            from repro.kernels.numpy_backend import NumpyKernel as backend
        _KERNEL = backend()
    return _KERNEL


__all__ = ["NUMPY_REQUIRED", "PeelKernel", "get_kernel"]
