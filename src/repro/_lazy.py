"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` re-exports names from its submodules.
Importing them all up front would compile and run every submodule, and
every module those import, before a process does any work; a run that
trains FedML would pay for the theory toolkit, the HTML dashboard and
the algorithms it does not run.  Instead each package lists where its
names come from and hands the listing to :func:`lazy_exports`::

    if TYPE_CHECKING:
        from .dataset import Dataset, FederatedDataset
    else:
        __getattr__, __dir__ = lazy_exports(
            __name__, {".dataset": ("Dataset", "FederatedDataset")}
        )

The ``TYPE_CHECKING`` imports are what type checkers and readers see; at
run time a name's submodule is imported on the first access to it, and
the value is stored in the package namespace, so later lookups never
reach ``__getattr__`` again.  ``tests/test_imports.py`` checks that
``__all__``, the listing and the map name the same set in every package
that uses the helper.

A lazy name must not equal one of its package's submodules: importing
that submodule sets the package attribute to the module, and
``__getattr__`` is only asked for attributes that are missing.  The two
packages that export such names (``repro.autodiff.tensor``,
``repro.attacks.fgsm``, ``repro.attacks.pgd``) import everything eagerly;
every run loads their submodules anyway.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each relative module (``".dataset"``) to the names
    the package re-exports from it; under ``"."`` it lists submodules the
    package exports as themselves (``from . import ops``).
    """
    source = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        if module == ".":
            value = import_module(f".{name}", package)
        else:
            value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
