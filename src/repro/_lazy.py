"""Lazy package exports (PEP 562 module ``__getattr__``/``__dir__``).

A package ``__init__`` that re-exports its submodules' public names
eagerly imports every submodule whenever any one of them is imported,
so a cold call that needs one engine pays for compiling and running all
of its siblings.  :func:`lazy_exports` defers each name to its first
access instead::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "bitsim": ("CompiledNetlist", "compile_netlist"),
        "synthesis": ("table_one",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for *package*.

    *exports* maps a submodule, relative to *package* (dotted for a
    nested one), to the names it provides.  On first access a name
    imports its own submodule only and is then bound in the package
    namespace; the submodules keyed in *exports* resolve as attributes
    too (``repro.hw.synthesis`` after ``import repro.hw``).
    """
    origin: Dict[str, str] = {name: module
                              for module, names in exports.items()
                              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name in origin:
            module = importlib.import_module(f".{origin[name]}", package)
            value = getattr(module, name)
        elif name in exports:
            value = importlib.import_module(f".{name}", package)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__
