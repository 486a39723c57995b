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

Every surface tokenizes bytes the way the edge-list readers do
(:func:`repro.graph.io.iter_edge_list`): lines end at LF, CRLF or a
lone CR, tokens split at ASCII whitespace, and a vertex id is ``int()``
of its bytes.  So a non-ASCII byte, or a non-ASCII decimal digit such
as the Arabic-Indic one, is a non-integer id that fails with its
``source:line``, never a decode error and never a number.

:func:`parse_update_line` maps a line to the maintainer's
``(op, u, v)`` vocabulary (``"insert"``/``"delete"``);
:func:`format_update` is its exact inverse, producing the canonical
text an update is logged and transported as.
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Optional, Tuple, Union

from repro.graph.csr import INT64_MAX, INT64_MIN

Update = Tuple[str, int, int]

#: line opcode -> maintainer op (the vocabulary ``apply_batch`` takes)
OPS = {"+": "insert", "-": "delete"}

#: the same table over the opcode's bytes
_BYTE_OPS = {op.encode(): name for op, name in OPS.items()}

#: every op an update stream (and so the server's WAL and the
#: maintainer) takes: maintainer op or line opcode -> line opcode
UPDATE_OPS = {"insert": "+", "delete": "-", "+": "+", "-": "-"}


def parse_update_line(
    line: Union[bytes, str], *, where: str = "<updates>"
) -> Optional[Update]:
    """Parse one update line into ``(op, u, v)``.

    The line is bytes, or a ``str`` taken as its UTF-8.  Returns
    ``None`` for blank lines and ``#`` comments.  Raises
    ``ValueError`` — prefixed with ``where`` (conventionally
    ``file:lineno``) — on anything else that is not a well-formed
    ``'+ u v'`` / ``'- u v'`` line, a vertex id outside the signed
    64-bit range (the maintainer's columns) included.
    """
    if isinstance(line, str):
        line = line.encode()
    parts = line.split()
    if not parts or parts[0].startswith(b"#"):
        return None
    if len(parts) < 3 or parts[0] not in _BYTE_OPS:
        problem = "expected '+ u v' or '- u v', got"
    else:
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            problem = "non-integer vertex id in"
        else:
            if INT64_MIN <= u <= INT64_MAX and INT64_MIN <= v <= INT64_MAX:
                return (_BYTE_OPS[parts[0]], u, v)
            problem = "vertex id outside the signed 64-bit range in"
    shown = line.strip().decode(errors="replace")
    raise ValueError(f"{where}: {problem} {shown!r}")


def read_update_lines(
    lines: Iterable[Union[bytes, str]], source: str = "<updates>"
) -> List[Update]:
    """Parse every update line, in order; errors name ``source:lineno``."""
    updates: List[Update] = []
    for lineno, line in enumerate(lines, 1):
        parsed = parse_update_line(line, where=f"{source}:{lineno}")
        if parsed is not None:
            updates.append(parsed)
    return updates


def read_update_stream(path) -> List[Update]:
    """Read an update-stream file; ``'-'`` reads standard input.

    Both are read as bytes (stdin through its binary buffer; a text
    stream without one, such as a test's ``StringIO``, as its UTF-8),
    whatever the locale's encoding.
    """
    if str(path) != "-":
        with open(path, "rb") as fh:
            return read_update_lines(fh.read().splitlines(), str(path))
    stdin = sys.stdin
    if hasattr(stdin, "buffer"):
        data = stdin.buffer.read()
    else:
        data = stdin.read().encode()
    return read_update_lines(data.splitlines(), "<stdin>")


def format_update(op: str, u: int, v: int) -> str:
    """The canonical ``'+ u v'`` text of one update (parse's inverse)."""
    try:
        sym = UPDATE_OPS[op]
    except KeyError:
        raise ValueError(f"unknown update op: {op!r}") from None
    return f"{sym} {int(u)} {int(v)}"
