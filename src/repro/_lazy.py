"""Package re-exports that import their submodule on first use (PEP 562).

A package ``__init__`` that re-exports its submodules' public names with
``from .x import ...`` loads every submodule the moment anything in the
package is imported: a regression batch would pay for the converter
testbench and the fast BCA model it never runs.  A package
built with :func:`lazy_exports` keeps the same ``__all__`` but imports
``.x`` only when one of its names is first read, then binds the value in
the package namespace so later reads are plain attribute lookups::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "node": ("BcaNode",),
        "bugs": ("ALL_BUGS", "BUG_CATALOG"),
    })

``from pkg import name``, ``pkg.name`` and ``from pkg import *`` all
resolve through the module ``__getattr__``; an unknown name raises
:class:`AttributeError` naming the package, as for any module.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, which
    re-exports each submodule's listed names (``{submodule: names}``,
    submodules relative to ``package``)."""
    where = {name: sub for sub, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        sub = where.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{sub}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__
