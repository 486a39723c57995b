"""The tracing-off overhead pin: under 5% of any real peel, by math.

An A/B wall-clock comparison of traced-off vs pre-instrumentation runs
would be hopelessly flaky at test scale, so the pin is deterministic
instead: measure what one ``tracer.enabled`` guard actually costs,
bound the number of guards a peel executes (a small constant per wave
and level plus a constant per run), and assert the product stays under
5% of the *measured* wall time of a real decomposition.  Every term is
measured in-process on the same host, so the ratio is stable.
"""

import time
import timeit

from helpers import needs_numpy
from repro.core import truss_decomposition_flat
from repro.datasets import load_dataset
from repro.obs import NULL_TRACER

#: both pins time a flat-engine peel
pytestmark = needs_numpy

#: guards per wave on the instrumented hot paths: wave entry, wave
#: exit, and slack for the exchange-accounting reads next to them
GUARDS_PER_WAVE = 4
#: guards per level: entry and exit
GUARDS_PER_LEVEL = 2
#: constant per run: run_start, kernel wrap, index build, peel span …
GUARDS_PER_RUN = 16


def _per_guard_seconds() -> float:
    """Seconds one ``if tracer.enabled:`` check costs, measured."""
    n = 200_000
    best = min(
        timeit.timeit(
            "if tr.enabled:\n    pass",
            globals={"tr": NULL_TRACER},
            number=n,
        )
        for _ in range(3)
    )
    return best / n


def test_null_tracer_guard_cost_under_5_percent():
    g = load_dataset("p2p", scale=0.25)
    t0 = time.perf_counter()
    td = truss_decomposition_flat(g)  # tracing off: the default path
    wall = time.perf_counter() - t0
    extra = td.stats.extra
    # on the stdlib substrate the flat engine takes the wedge-bisect
    # fallback — no wave loop, so only the per-run guards remain and
    # waves/levels stay 0; with numpy the wave counts must be real
    waves = int(extra.get("waves", 0))
    levels = int(extra.get("levels", 0))
    try:
        import numpy  # noqa: F401
        assert waves > 0 and levels > 0
    except ImportError:
        pass
    guards = (
        GUARDS_PER_WAVE * waves
        + GUARDS_PER_LEVEL * levels
        + GUARDS_PER_RUN
    )
    overhead = guards * _per_guard_seconds()
    assert overhead < 0.05 * wall, (
        f"{guards} guards x {_per_guard_seconds():.2e}s "
        f"= {overhead:.2e}s vs wall {wall:.4f}s"
    )


def test_untraced_run_emits_no_trace_state():
    g = load_dataset("p2p", scale=0.15)
    td = truss_decomposition_flat(g)
    extra = td.stats.extra
    # the tracing-only instruments stay silent when tracing is off:
    # no kernel-op counters, no frontier histogram series
    assert not any("kernel_ops" in key for key in extra)
    assert not any("frontier_edges" in key for key in extra)
