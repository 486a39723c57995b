"""One parser for the ``'+ u v'`` / ``'- u v'`` update-stream format.

Three surfaces speak this format — the ``repro update`` CLI's updates
file (or stdin via ``-``), the server's bulk ``POST /updates`` request
body, and the payload of every write-ahead-log record
(:mod:`repro.serve.wal`) — so the parser lives here, once, and all of
them share a single code path.  A line is::

    + u v        insert edge (u, v)
    - u v        delete edge (u, v)
    # ...        comment (skipped)
                 blank (skipped)

:func:`parse_update_line` maps a line to the maintainer's
``(op, u, v)`` vocabulary (``"insert"``/``"delete"``);
:func:`format_update` is its exact inverse, producing the canonical
text an update is logged and transported as.
"""

from __future__ import annotations

import sys
from typing import IO, List, Optional, Tuple

from repro.graph.csr import INT64_MAX, INT64_MIN

Update = Tuple[str, int, int]

#: line opcode -> maintainer op (the vocabulary ``apply_batch`` takes)
OPS = {"+": "insert", "-": "delete"}

#: maintainer op (or line opcode) -> line opcode
_SYMBOL = {"insert": "+", "delete": "-", "+": "+", "-": "-"}

#: the ops an update stream (and so the server's WAL) can carry
UPDATE_OPS = frozenset(_SYMBOL)


def parse_update_line(
    line: str, *, where: str = "<updates>"
) -> Optional[Update]:
    """Parse one update line into ``(op, u, v)``.

    Returns ``None`` for blank lines and ``#`` comments.  Raises
    ``ValueError`` — prefixed with ``where`` (conventionally
    ``file:lineno``) — on anything else that is not a well-formed
    ``'+ u v'`` / ``'- u v'`` line, a vertex id outside the signed
    64-bit range (the maintainer's columns) included.
    """
    parts = line.split()
    if not parts or parts[0].startswith("#"):
        return None
    if len(parts) < 3 or parts[0] not in OPS:
        raise ValueError(
            f"{where}: expected '+ u v' or '- u v', got {line.strip()!r}"
        )
    try:
        u, v = int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(
            f"{where}: non-integer vertex id in {line.strip()!r}"
        ) from None
    if not (INT64_MIN <= u <= INT64_MAX and INT64_MIN <= v <= INT64_MAX):
        raise ValueError(
            f"{where}: vertex id outside the signed 64-bit range in "
            f"{line.strip()!r}"
        )
    return (OPS[parts[0]], u, v)


def read_update_lines(fh: IO[str], source: str = "<updates>") -> List[Update]:
    """Parse every update line of an open text stream, in order."""
    updates: List[Update] = []
    for lineno, line in enumerate(fh, 1):
        parsed = parse_update_line(line, where=f"{source}:{lineno}")
        if parsed is not None:
            updates.append(parsed)
    return updates


def read_update_stream(path) -> List[Update]:
    """Read an update-stream file; ``'-'`` reads standard input."""
    if str(path) == "-":
        return read_update_lines(sys.stdin, source="<stdin>")
    with open(path, encoding="utf-8") as fh:
        return read_update_lines(fh, source=str(path))


def format_update(op: str, u: int, v: int) -> str:
    """The canonical ``'+ u v'`` text of one update (parse's inverse)."""
    try:
        sym = _SYMBOL[op]
    except KeyError:
        raise ValueError(f"unknown update op: {op!r}") from None
    return f"{sym} {int(u)} {int(v)}"
