"""Pluggable backend registry: name -> execution substrate.

Backends self-register at import time via :func:`register_backend`; the
built-in set (packed kernel, golden interpreter, circuit interpreter,
lazy-DFA, fault-injection harness) is imported lazily on the
first lookup so that importing :mod:`repro.backends` never drags the
whole simulator stack in (and cannot create import cycles with it).

Import discipline: this module depends only on the standard library and
:mod:`repro.errors`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple, Type

from repro.errors import BackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.artifact import CompiledArtifact
    from repro.backends.base import AutomatonBackend

#: The engine's default substrate: the packed-bitset mapped kernel.
DEFAULT_BACKEND = "packed-kernel"

#: Modules whose import registers the built-in backends.
_BUILTIN_MODULES = (
    "repro.backends.mapped",
    "repro.backends.golden",
    "repro.backends.circuit",
    "repro.backends.lazydfa",
    "repro.backends.faulty",
)


@dataclass(frozen=True)
class BackendSpec:
    """One registry entry: the backend class plus its naming."""

    name: str
    cls: Type["AutomatonBackend"]
    aliases: Tuple[str, ...] = ()


_REGISTRY: Dict[str, BackendSpec] = {}
_ALIASES: Dict[str, str] = {}
_builtins_loaded = False


def register_backend(name: str, *, aliases: Tuple[str, ...] = ()):
    """Class decorator registering an :class:`AutomatonBackend`.

    Sets the class's ``name`` attribute to the canonical registry name;
    re-registering a name replaces the previous entry (latest wins), so
    downstream code can override a built-in substrate.
    """

    def wrap(cls):
        cls.name = name
        _REGISTRY[name] = BackendSpec(name, cls, tuple(aliases))
        for alias in aliases:
            _ALIASES[alias] = name
        return cls

    return wrap


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def resolve_backend_name(name: str) -> str:
    """Canonical name for ``name`` (resolving aliases); raises
    :class:`BackendError` with the full roster on an unknown name."""
    _ensure_builtins()
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return canonical


def backend_names() -> List[str]:
    """Sorted canonical names of every registered backend."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def backend_spec(name: str) -> BackendSpec:
    """The full registry entry for ``name`` (alias-tolerant)."""
    return _REGISTRY[resolve_backend_name(name)]


def backend_class(name: str) -> Type["AutomatonBackend"]:
    """The backend class registered under ``name`` (alias-tolerant)."""
    return backend_spec(name).cls


def create_backend(
    name: str, artifact: "CompiledArtifact", **options
) -> "AutomatonBackend":
    """Instantiate the backend ``name`` from a compiled artifact.

    ``options`` are passed through to the backend's ``from_artifact``;
    every backend ignores options it does not understand, so callers can
    pass a superset (e.g. ``simulator_cls=`` is only meaningful to the
    kernel-table consumers).
    """
    return backend_class(name).from_artifact(artifact, **options)
