"""Execution backends: one compiled artifact, many substrates.

The package splits into three layers:

* :mod:`~repro.backends.artifact` — the :class:`CompiledArtifact` IR,
  the single versioned serialisation the on-disk cache persists;
* :mod:`~repro.backends.base` — the :class:`AutomatonBackend` protocol
  (``from_artifact`` / ``scan`` / ``scan_many`` / ``stream`` /
  ``capabilities``) and its capability type; what a scan returns is
  :class:`repro.sim.kernel.ScanResult`, the simulators' own;
* :mod:`~repro.backends.registry` — name -> backend class, with the
  built-in substrates (packed kernel, golden interpreter, circuit
  interpreter, lazy-DFA, fault-injection harness)
  registered lazily on first lookup.

Import discipline: importing this package must stay cheap and
cycle-free — :mod:`repro.sim.kernel` imports
:mod:`repro.backends.validation` at module scope.  Only the registry and
validation helpers load eagerly; everything else resolves lazily via
module ``__getattr__``.
"""

from __future__ import annotations

from repro.backends.registry import (
    DEFAULT_BACKEND,
    BackendSpec,
    backend_class,
    backend_names,
    backend_spec,
    create_backend,
    register_backend,
    resolve_backend_name,
)
from repro.backends.validation import (
    as_symbols,
    require_byte_streams,
    require_bytes,
    require_resume_count,
    require_stream_sequence,
)

#: Lazily resolved exports: name -> defining module.
_LAZY = {
    "ARTIFACT_FORMAT_VERSION": "repro.backends.artifact",
    "CompiledArtifact": "repro.backends.artifact",
    "AutomatonBackend": "repro.backends.base",
    "BackendCapabilities": "repro.backends.base",
    "BackendStream": "repro.backends.base",
    "PackedKernelBackend": "repro.backends.mapped",
    "GoldenInterpreterBackend": "repro.backends.golden",
    "CircuitInterpreterBackend": "repro.backends.circuit",
    "LazyDfaBackend": "repro.backends.lazydfa",
    "FaultInjectedBackend": "repro.backends.faulty",
}

__all__ = [
    "DEFAULT_BACKEND",
    "BackendSpec",
    "backend_class",
    "backend_names",
    "backend_spec",
    "create_backend",
    "register_backend",
    "resolve_backend_name",
    "as_symbols",
    "require_byte_streams",
    "require_bytes",
    "require_resume_count",
    "require_stream_sequence",
    *_LAZY,
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)
