"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package that re-exports its public names with eager ``from .x import``
lines imports every submodule, and with them numpy, ``http.server`` and
the report writer, whenever any one of its modules is imported. A
spawned fleet worker that unpickles ``repro.fleet.executor._worker_main``
would then pay for the HTTP front and the client it never runs.
:func:`lazy_exports` builds the module-level ``__getattr__``/``__dir__``
pair that imports a name's defining module on first access instead.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, MutableMapping


def lazy_exports(
    namespace: MutableMapping[str, Any], table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for the package owning ``namespace``.

    ``table`` maps a module, relative to the package (``".sharding"``), to
    the public names it defines. A name is imported on first access and
    then stored in ``namespace``, so later lookups are plain attribute
    reads.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
