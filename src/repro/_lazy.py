"""Package names that resolve on first use (PEP 562).

A package ``__init__`` that imports every submodule makes each process
load, and compile, code it may never run.  A lazy package instead
declares which submodule defines each public name; :func:`lazy_names`
builds the module-level ``__getattr__`` and ``__dir__`` that import
that submodule on the first access of one of its names.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_names(
    namespace: dict, sources: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a lazy package.

    ``namespace`` is the package's ``globals()`` and ``sources`` maps
    each defining module to the public names it provides.  The first
    access of a name imports its module and stores the value in
    ``namespace``, so later lookups never reach ``__getattr__``.  Any
    other name raises :class:`AttributeError` naming the package, so
    ``hasattr`` and ``from package import *`` behave as they do for a
    package that imports its names eagerly.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in sources.items()
             for name in names}

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__
