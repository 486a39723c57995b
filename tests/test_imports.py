"""What a process imports, and the package names that resolve on use.

``repro``, ``repro.core``, ``repro.exio``, ``repro.graph`` and
``repro.triangles`` resolve their public names on first access, and
each CLI command imports only the modules it runs.  What a command
loads is checked in a fresh interpreter: in this process the other
tests have already filled ``sys.modules``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro
from repro.graph import complete_graph, write_edge_list

from helpers import needs_numpy, numpy

SRC = Path(repro.__file__).resolve().parent.parent

#: the lazy packages
LAZY = ("repro", "repro.core", "repro.exio", "repro.graph", "repro.triangles")

#: modules that neither ``decompose --method flat``, ``update`` nor the
#: serve write path runs; none of them may load
NEVER = (
    "repro.dist", "repro.mapreduce", "repro.partition", "repro.cores",
    "repro.cliques", "repro.bench", "repro.core.parallel",
    "repro.core.dist", "repro.core.bottomup", "repro.core.topdown",
    "repro.core.mapreduce_truss", "repro.core.semi_external",
    "repro.core.hierarchy", "repro.core.edge_runs", "repro.graph.builders",
    "repro.graph.io", "repro.graph.components", "repro.triangles.listing",
    "repro.triangles.external",
)

#: what the CLI loads only for ``update`` and ``serve``
NOT_CLI = ("repro.serve", "repro.stream")

_PRINT_MODULES = "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"


def _loaded(code: str, *argv: str) -> list:
    """The sorted ``sys.modules`` of a fresh interpreter after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", code + _PRINT_MODULES, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _within(loaded, packages) -> list:
    """The loaded modules that are one of ``packages`` or inside one."""
    return [
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in packages)
    ]


class TestImportBudget:
    def test_import_cli(self):
        loaded = _loaded("import repro.cli")
        assert _within(loaded, NEVER + NOT_CLI) == []
        # decompose and update run numpy; deferring it would only move
        # its cost from the import into the command
        assert ("numpy" in loaded) == (numpy is not None)

    @needs_numpy
    def test_decompose_flat(self, tmp_path):
        graph, out = tmp_path / "g.txt", tmp_path / "phi.txt"
        write_edge_list(complete_graph(5), graph)
        loaded = _loaded(
            "import sys\n"
            "import repro.cli\n"
            "args = ['decompose', sys.argv[1], '--method', 'flat',"
            " '-o', sys.argv[2]]\n"
            "assert repro.cli.main(args) == 0\n",
            str(graph), str(out),
        )
        assert _within(loaded, NEVER + NOT_CLI) == []
        assert len(out.read_text().splitlines()) == 10

    def test_import_serve_service(self):
        loaded = _loaded("import repro.serve.service")
        assert _within(loaded, NEVER) == []
        # the service imports its maintainer up front, so a timed
        # open() does not absorb that import
        assert "repro.stream.maintainer" in loaded

    def test_import_repro_loads_no_method(self):
        assert _within(_loaded("import repro"), ("repro",)) == [
            "repro", "repro._lazy",
        ]

    def test_every_name_resolves_on_first_use(self):
        # each name is looked up before any test imported its module
        _loaded(
            "import importlib, sys\n"
            "for package in sys.argv[1:]:\n"
            "    pkg = importlib.import_module(package)\n"
            "    for name in pkg.__all__:\n"
            "        getattr(pkg, name)\n",
            *LAZY,
        )


@pytest.mark.parametrize("package", LAZY)
class TestLazyNames:
    def test_names_are_their_defining_modules_objects(self, package):
        pkg = import_module(package)
        sourced = set()
        for module, names in pkg._SOURCES.items():
            home = import_module(module)
            for name in names:
                assert getattr(pkg, name) is getattr(home, name), name
            sourced.update(names)
        assert sourced <= set(pkg.__all__)
        for name in pkg.__all__:
            getattr(pkg, name)

    def test_dir_lists_every_public_name(self, package):
        pkg = import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_unknown_name_raises_attribute_error(self, package):
        pkg = import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            getattr(pkg, "no_such_name")
        assert not hasattr(pkg, "no_such_name")

    def test_star_import_binds_every_public_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(import_module(package).__all__) <= set(namespace)
