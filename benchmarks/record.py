"""What the ablation scripts share: a best-of-N timer and the JSON writer.

``best_of`` times a callable without tracemalloc (its allocation hooks
would favour the array engines over the dict-based ones) and keeps
every run's result, so a script can parity-check each run before it
reports the fastest time.  ``write_json`` writes a script's
``BENCH_*.json`` artifact to the path its environment variable names,
or to the default file name in the working directory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, List, Tuple

from repro.bench import measure


def best_of(fn: Callable[[], object], repeats: int) -> Tuple[float, List]:
    """The fastest of ``repeats`` timed calls of ``fn``, and each result."""
    runs = [measure(fn, track_memory=False) for _ in range(max(1, repeats))]
    return min(run.seconds for run in runs), [run.result for run in runs]


def write_json(doc: dict, name: str, env: str) -> Path:
    """Write ``doc`` to ``$env``, else to ``name``; return the path."""
    path = Path(os.environ.get(env, name))
    path.write_text(json.dumps(doc, indent=2, default=float) + "\n")
    return path
