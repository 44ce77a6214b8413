"""Lazy package surfaces (PEP 562).

A package ``__init__`` declares which submodule defines each public
name; :func:`lazy_exports` turns that table into the package's
``__all__``, ``__getattr__`` and ``__dir__``.  A name is imported on
first access and then cached in the package namespace, so ``import
repro`` -- and a ``campaign --shard`` subprocess -- loads only the code
it actually touches.  Any other submodule still resolves as an
attribute (``import repro.batch; repro.batch.dispatch``).
"""

from __future__ import annotations

import importlib
import sys
from importlib.util import find_spec
from typing import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    names: dict[str, tuple[str, ...]],
    *,
    submodules: tuple[str, ...] = (),
    eager: tuple[str, ...] = (),
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package*.

    *names* maps a submodule (relative to *package*) to the public names
    it defines; *submodules* are public names that are submodules
    themselves.  Submodules listed in *eager* are imported now and their
    names bound at once -- needed where a name equals its submodule's
    (``repro.gen.uunifast``), since importing that submodule later would
    bind the module over the name.
    """
    namespace = vars(sys.modules[package])
    source = {name: sub for sub, defined in names.items() for name in defined}

    def __getattr__(name: str) -> object:
        if name in source:
            module = importlib.import_module(f"{package}.{source[name]}")
            value = getattr(module, name)
        elif not name.startswith("_") and find_spec(f"{package}.{name}"):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source) | set(submodules))

    for sub in eager:
        for name in names[sub]:
            __getattr__(name)
    return [*submodules, *source], __getattr__, __dir__
