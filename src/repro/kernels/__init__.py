"""The pluggable peel-kernel layer: one wave inner step, every engine.

Every CSR peel engine — ``flat`` serial waves
(:func:`repro.core.flat.run_wave_peel`), the shared-memory ``parallel``
pool (:mod:`repro.core.parallel`) and the rank-distributed ``dist``
peel (:meth:`repro.dist.rank.Rank.run`) —
executes the same bulk-synchronous wave inner step, the loop Kabir &
Madduri's PKT (arXiv:1707.02000) shows saturating shared-memory
hardware when it is a tight kernel.  This package owns that step behind
one interface, :class:`PeelKernel`, so a compiled backend dropped in
here speeds up all three engines simultaneously; no engine carries a
private gather/decrement implementation anymore.

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
``tests/kernels/`` enforces this against the brute-force oracle, the
per-op tests against plain loops in ``tests/oracles.py``, and
``kernel="numpy"`` is pinned as the bit-identity reference for the
pre-refactor engines).  A new backend registers a factory in
``_FACTORIES`` and passes that sweep; nothing else in the engines
needs to change.

Backends
--------
``numpy``
    The vectorized implementation the engines shipped with, moved here
    verbatim — the bit-identity reference and the default when numba
    is not installed.
``numba``
    Optional ``@njit``-compiled gather/scatter loops (auto-selected by
    ``kernel="auto"`` when importable).  Compiled lazily with
    ``cache=True`` so worker processes and ranks reuse the on-disk
    compilation cache instead of each paying the JIT warm-up;
    construction pre-compiles every entry point on int64 arrays, and
    an int32 index compiles its own specialization on first use.
    Never required: ``"auto"`` picks ``numpy`` when the import fails.

Every backend runs over numpy arrays, so the CSR engines need numpy:
without it :func:`resolve_kernel` raises one
:class:`~repro.errors.DecompositionError` naming numpy, and every CSR
entry point resolves its kernel before it touches an array.  The
paper's own methods (``method="improved"`` and the rest) are stdlib
and run without it.

Selection is threaded end to end as ``kernel="auto"|"numpy"|"numba"``
through ``truss_decomposition``/``decompose_file``/the CLI's
``--kernel`` flag; ``"auto"`` resolves via :func:`resolve_kernel` to
the best available backend.  The
follow-on the ROADMAP names — a cython/C extension — is one more
factory in this registry.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import DecompositionError

try:  # every backend needs it; its absence is resolve_kernel's error
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: every kernel name the knob accepts (besides ``"auto"``/``None``)
KERNELS = ("numpy", "numba")

#: ``"auto"`` preference order: most-compiled first
_AUTO_ORDER = ("numba", "numpy")

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


def _make_numpy() -> PeelKernel:
    from repro.kernels.numpy_backend import NumpyKernel

    return NumpyKernel()


def _make_numba() -> PeelKernel:
    try:
        from repro.kernels.numba_backend import NumbaKernel
    except ImportError as exc:
        raise DecompositionError(
            "kernel 'numba' needs the optional numba package, which is "
            f"not installed ({exc}); use kernel='auto' to fall back"
        ) from None
    return NumbaKernel()


_FACTORIES: Dict[str, Callable[[], PeelKernel]] = {
    "numpy": _make_numpy,
    "numba": _make_numba,
}

#: one stateless instance per backend per process
_INSTANCES: Dict[str, PeelKernel] = {}

#: the factory's message for each backend that failed to construct; a
#: failed import is never retried, so every ``resolve_kernel("auto")``
#: of a repair stays a dict lookup
_FAILED: Dict[str, str] = {}


def kernel_available(name: str) -> bool:
    """Whether backend ``name`` can be constructed in this process."""
    if _np is None or name not in _FACTORIES or name in _FAILED:
        return False
    if name in _INSTANCES:
        return True
    try:
        _INSTANCES[name] = _FACTORIES[name]()
    except DecompositionError as exc:
        _FAILED[name] = str(exc)
        return False
    return True


def available_kernels() -> Tuple[str, ...]:
    """The constructible backends, in registry order."""
    return tuple(name for name in KERNELS if kernel_available(name))


def resolve_kernel(kernel: Optional[str]) -> str:
    """Validate the kernel knob; ``None``/``"auto"`` picks the best.

    Shared by the flat, parallel and dist front doors so the accepted
    vocabulary (:data:`KERNELS`) can never drift between methods.
    Raises :class:`~repro.errors.DecompositionError` without numpy
    (:data:`NUMPY_REQUIRED`, whatever the name), for unknown names and
    for named backends that are not available; with numpy, ``"auto"``
    never fails.
    """
    if _np is None:
        raise DecompositionError(NUMPY_REQUIRED)
    if kernel is None or kernel == "auto":
        return next(name for name in _AUTO_ORDER if kernel_available(name))
    if kernel not in KERNELS:
        raise DecompositionError(
            f"unknown kernel {kernel!r}; expected one of "
            f"{('auto',) + KERNELS}"
        )
    if not kernel_available(kernel):
        # surface the factory's specific message (missing numba)
        raise DecompositionError(_FAILED[kernel])
    return kernel


def get_kernel(kernel: Optional[str] = None) -> PeelKernel:
    """The shared backend instance for ``kernel`` (default: auto)."""
    return _INSTANCES[resolve_kernel(kernel)]


__all__ = [
    "KERNELS",
    "NUMPY_REQUIRED",
    "PeelKernel",
    "available_kernels",
    "get_kernel",
    "kernel_available",
    "resolve_kernel",
]
