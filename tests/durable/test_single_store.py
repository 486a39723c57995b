"""Guard: one durable store.

Every fsync and every manifest write under ``src/repro`` lives in
:mod:`repro.durable`, apart from the WAL's own appends.  A second copy
of the protocol elsewhere fails this test.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ALLOWED = {SRC / "durable.py", SRC / "serve" / "wal.py"}


def _findings(path: Path):
    """``(line, kind)`` for each ``os.fsync``, ``fsync_dir`` or
    ``manifest.json`` literal in ``path``; docstrings do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr == "fsync"
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        ) or (
            isinstance(node, ast.alias) and node.name == "fsync"
        ):
            found.append((node.lineno, "os.fsync"))
        elif "fsync_dir" in (getattr(node, "id", None),
                             getattr(node, "attr", None),
                             getattr(node, "name", None)):
            found.append((node.lineno, "fsync_dir"))
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "manifest.json" in node.value and id(node) not in docstrings
        ):
            found.append((node.lineno, "manifest.json"))
    return found


def test_fsyncs_and_manifest_writes_live_in_the_store():
    offenders = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if path not in ALLOWED and (found := _findings(path))
    }
    assert offenders == {}


def test_guard_sees_what_it_guards():
    assert {kind for _, kind in _findings(SRC / "durable.py")} == {
        "os.fsync", "fsync_dir", "manifest.json",
    }
