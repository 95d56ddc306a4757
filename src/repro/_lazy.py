"""Lazy package exports (PEP 562).

Every package ``__init__`` of ``repro`` names its public API as a table
from submodule to names and hands it to :func:`lazy_exports`.  Importing
a package then runs none of its submodules: the first read of a name (an
attribute access, ``from package import name`` or ``from package import
*``) imports the submodule that defines it and caches the value in the
package namespace, so later reads are plain lookups.  A submodule read
as an attribute (``repro.core`` after ``import repro``) is imported on
first access too.  A command imports only the modules it runs: ``repro
simulate`` loads no experiment, bench, scenario-engine, ensemble, serve
or viz module.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    namespace: Dict[str, object],
    table: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """PEP 562 hooks for ``package``, whose globals are ``namespace``.

    ``table`` maps each submodule, relative to ``package`` (``".engine"``),
    to the names it exports.  Returns ``(__getattr__, __dir__, __all__)``
    for the package to bind at module level: ``__getattr__`` resolves an
    exported name from its submodule, or a submodule's own name to the
    submodule, on first access and caches it in ``namespace`` (any other
    name raises :class:`AttributeError`), ``__dir__`` lists the namespace
    plus every exported name, and ``__all__`` is the exported names,
    sorted.
    """
    source = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif not name.startswith("__") and importlib.util.find_spec(
            f"{package}.{name}"
        ):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__, sorted(source)
