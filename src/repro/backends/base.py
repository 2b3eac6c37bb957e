"""The execution-backend protocol: one contract for every substrate.

The paper evaluates the same NFAs on several execution substrates (the
cache automaton proper, the AP, CPU baselines); this module defines the
software analogue — a uniform :class:`AutomatonBackend` surface over the
golden interpreter, the packed-bitset kernel, the set-based circuit
interpreter, the fault-injection harness, and the CPU DFA baseline, so
the engine, the CLI, the eval harness, and the differential tests can
treat "which substrate scans the bytes" as a runtime parameter.

Every backend is constructed :meth:`~AutomatonBackend.from_artifact` a
:class:`~repro.backends.artifact.CompiledArtifact` and answers
:meth:`~AutomatonBackend.capabilities` so callers can discover — rather
than hard-code — whether it supports checkpointed resume, native
multi-stream batching, full energy-model activity profiles, or
per-report STE identity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backends.validation import require_resume_count
from repro.errors import SimulationError
from repro.sim.kernel import Checkpoint, ScanResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.backends.artifact import CompiledArtifact


#: Default capacity of a :class:`BoundedEventLog`.
EVENT_LOG_LIMIT = 64


class BoundedEventLog:
    """Ring buffer of health-event strings with a drop counter.

    Long-lived serving processes accumulate degradation notices (split
    chunks rescanned serially, quarantines, breaker trips) on every
    degraded scan; an unbounded list would grow for the life of the
    process.  This log keeps the most recent ``limit`` events and
    counts — rather than silently forgets — how many older ones were
    dropped, so ``len(log) + log.dropped`` stays a monotonic "events
    ever seen" counter that consumers (the per-tenant circuit breaker)
    can diff across scans.
    """

    def __init__(self, limit: int = EVENT_LOG_LIMIT):
        if limit < 1:
            raise ValueError(f"event-log limit must be >= 1, got {limit}")
        self._events: "deque[str]" = deque(maxlen=limit)
        self.limit = limit
        #: Events evicted to stay within ``limit``.
        self.dropped = 0

    def append(self, event: str) -> None:
        if len(self._events) == self.limit:
            self.dropped += 1
        self._events.append(event)

    def extend(self, events) -> None:
        for event in events:
            self.append(event)

    def events(self) -> Tuple[str, ...]:
        """The retained (most recent) events, oldest first."""
        return tuple(self._events)

    def __iter__(self) -> Iterator[str]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events) or self.dropped > 0


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend can and cannot do; consult before relying on it.
    Every backend reports the firing STE's identity and rule code.

    ``resume`` — checkpointed chunked scanning (:meth:`AutomatonBackend.
    stream` and the ``resume=`` argument); ``batch`` — a native
    multi-stream ``scan_many`` (others fall back to a per-stream loop);
    ``activity_profile`` — full energy-model counters (partition
    activations, G-switch crossings), not just symbol/report totals;
    ``fault_events`` — accepts injected
    :class:`~repro.faults.models.FaultEvent`\\ s;
    ``split`` — a single stream can be split across a worker pool with
    bit-identical results (``split_jobs=`` option /
    ``REPRO_SPLIT_JOBS``), the SFA-style intra-stream parallel path.
    """

    resume: bool = False
    batch: bool = False
    activity_profile: bool = False
    fault_events: bool = False
    split: bool = False
    description: str = ""


class BackendStream:
    """Stateful chunked scanner over one backend (global offsets)."""

    def __init__(self, backend: "AutomatonBackend"):
        self._backend = backend
        self.checkpoint: Optional[Checkpoint] = None

    @property
    def position(self) -> int:
        if self.checkpoint is None:
            return 0
        return self.checkpoint.symbols_processed

    def scan(self, chunk: bytes, *, collect_reports: bool = True) -> ScanResult:
        result = self._backend.scan(
            chunk, collect_reports=collect_reports, resume=self.checkpoint
        )
        self.checkpoint = result.checkpoint
        return result


class AutomatonBackend:
    """Base class / protocol for execution backends.

    Subclasses implement :meth:`from_artifact`, :meth:`scan`, and
    :meth:`capabilities`; ``scan_many`` and ``stream`` have protocol-level
    defaults (per-stream loop; checkpoint-driven scanner).  ``name`` is
    set by :func:`repro.backends.registry.register_backend`.
    """

    #: Canonical registry name (assigned at registration).
    name: str = "abstract"

    #: True when :meth:`from_artifact` consumes the artifact's packed
    #: kernel tables — the engine uses this to decide whether a backend
    #: construction failure on a warm cache hit indicts the artifact
    #: (quarantine + recompile) or the request itself.
    consumes_kernel_tables: bool = False

    #: Scan-time degradation notices and how many a bounded log evicted
    #: (:class:`BoundedEventLog`); a backend that records none — every
    #: one but lazy-dfa — keeps these empty defaults, so the
    #: engine reads them as plain attributes.
    health_events: Tuple[str, ...] = ()
    health_events_dropped: int = 0

    @classmethod
    def from_artifact(
        cls, artifact: "CompiledArtifact", **options
    ) -> "AutomatonBackend":
        raise NotImplementedError

    def capabilities(self) -> BackendCapabilities:
        raise NotImplementedError

    def scan(
        self,
        data: bytes,
        *,
        collect_reports: bool = True,
        resume: Optional[Checkpoint] = None,
    ) -> ScanResult:
        raise NotImplementedError

    def scan_many(
        self,
        streams: Sequence[bytes],
        *,
        resumes: Optional[Sequence[Optional[Checkpoint]]] = None,
        collect_reports: bool = True,
    ) -> List[ScanResult]:
        streams = list(streams)
        resumes = require_resume_count(resumes, len(streams))
        return [
            self.scan(data, collect_reports=collect_reports, resume=resume)
            for data, resume in zip(streams, resumes)
        ]

    def packed_tables(self) -> Dict[str, object]:
        """The packed kernel tables this backend built, for the engine
        to persist with the artifact; empty on a backend that runs on
        none (the two over a mapped simulator override)."""
        return {}

    def share_tables(self) -> Dict[str, object]:
        """Everything a worker process needs to rebuild this backend
        and scan with it (:func:`~repro.sim.lazydfa.
        kernel_dfa_from_tables`): a scan process gets them inside the
        tenant's spec, a shard fan-out inside each job; empty
        on a backend workers rebuild from the registration instead
        (lazy-dfa overrides, and turns what they return into reports
        with its ``materialise_raw``)."""
        return {}

    def bind_table_entry(self, cache, key: str) -> None:
        """Take the ``<key>.table`` entry of ``cache`` (a
        :class:`~repro.compiler.cache.CompileCache`), which a backend that
        learns a table as it scans adopts at build and stores into as it
        learns; the others — all but lazy-dfa — have nothing to keep
        there."""

    def stream(self) -> BackendStream:
        if not self.capabilities().resume:
            raise SimulationError(
                f"backend {self.name!r} does not support checkpointed "
                "streaming (capabilities().resume is False)"
            )
        return BackendStream(self)
