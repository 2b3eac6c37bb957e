"""Process-pool scan execution plane for the serving layer, and the
one definition of a **span** — the unit every plane scans in
(DESIGN.md, "Process-pool execution plane").

A span is a run of a request's bytes, the checkpoint to resume from, the
service's ``chunk_bytes`` and a time to stop at.  :func:`scan_span` is
the one chunk loop: one cursor of a span scanner, stepped once per
chunk — so chunk boundaries and checkpoints are the same on every
plane — always at least one chunk, stopping at the first chunk boundary
where ``time.monotonic()`` has passed the stop time: the request's
absolute deadline or :data:`SPAN_HOLD_S` after the span starts
scanning, whichever is first.  It hands back a :class:`SpanReply`.  The
service's request loop ships the rest of the request to a *plane* and
resumes from the reply, whichever plane it is:

* :func:`scan_span_inloop` — scanned on the event loop that asked, on
  the tenant's own backend.  The loop is held for the span: up to the
  hold quantum plus one chunk.
* :class:`ProcPoolScanExecutor` — long-lived worker *processes*
  (:mod:`repro.parallel`'s :class:`~repro.parallel.WorkerPool`: the
  processes, their pipes, the one-job-in-flight rule, the resource
  tracker rule and per-worker supervision are its), driven by the
  service's event loop.  Checkpoints are plain picklable values, so
  successive spans of one request may land on different processes.

On either plane a scanner is never held longer than the hold quantum
plus one chunk: that bound, in time and independent of how fast the
tenant's ruleset scans, is what drain, the deadline check between
spans, and fairness between tenants rely on.  When something
parent-side has to observe every chunk boundary — an injected
``clock=``, a ``set_scan_delay`` chaos hook — the service ships exactly
one chunk a span on both planes.

**Span scanners.**  Inside a span a chunk boundary carries the
scanner's cursor, not a checkpoint.  :class:`DfaSpans` scans every
lazy-DFA tenant, on both planes, on one
:class:`~repro.sim.lazydfa.DfaCursor` a span: the stream is entered,
left and its report events materialised once a span, and a chunk costs
its walk.  Its events are decoded into reports by :func:`_materialised`,
the one place either plane does it, once a span: parent-side for the
in-loop plane and for a pair a worker built from a spec's tables (a
bare kernel pair cannot name STE ids, so its reply crosses the pipe
``raw``), in the worker for an engine it rebuilt (the parent's engine
may have landed on another backend, a fallback tier, that cannot).  :class:`BackendSpans`
scans anything else (the packed kernel, the golden-fallback tier) with
one resumed ``backend.scan`` a chunk.

**A span job** is :func:`_serve_span` on ``(fingerprint, bytes, resume
checkpoint, chunk_bytes, deadline_at)``, submitted with the tenant's
:class:`TenantWorkerSpec` as its context; its reply crosses the pipe as
the plain tuple a :class:`SpanReply` is.  A worker that holds no engine
for the fingerprint (first span of the tenant on this process, engine
evicted from the per-process LRU, process respawned) fetches the spec
with :func:`~repro.parallel.ask_parent`, cold-starts the engine
(:func:`_build_engine`: from the tables the spec carries, else from its
registration) and goes on with the span it already has.  The spec —
pattern list and, for a lazy-DFA tenant, its kernel and warm DFA tables
— therefore crosses a pipe once per (worker, fingerprint) instead of
once per span, and the worker's engine cache is the only record of who
knows what.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Sequence

from repro.backends.lazydfa import LazyDfaBackend
from repro.parallel import WorkerPool, ask_parent
from repro.service.errors import WorkerCrashed
from repro.sim.kernel import Checkpoint
from repro.sim.lazydfa import DfaCursor, kernel_dfa_from_tables

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.service import TenantRegistration

#: Per-worker-process engine cache bound (fingerprint-keyed, LRU).
WORKER_ENGINE_CACHE_LIMIT = 8

#: Hold quantum: a span returns at the first chunk boundary this many
#: seconds after it started scanning, on either plane.  Long enough that
#: the pipe round trip and the span's own entry and exit are a small
#: share of it, short enough that drain-timeout overshoot and
#: head-of-line blocking behind one tenant stay at the scale of a few
#: chunks.
SPAN_HOLD_S = 0.005

#: ``metrics_snapshot()`` key -> the executor attribute it reads: spans
#: that came back, the chunks they covered, worker engine cold starts by
#: path, and the pool's replaced processes.
POOL_COUNTERS = {
    "pool_dispatches": "dispatched",
    "pool_chunks": "chunks",
    "pool_respawns": "respawns",
    "pool_cold_tables": "cold_tables",
    "pool_cold_rebuilds": "cold_rebuilds",
}


def worker_cache_spec(cache):
    """A picklable artifact-cache spec for worker processes.

    A live :class:`~repro.compiler.cache.CompileCache` cannot ship
    across the process boundary, so it collapses to its directory; every
    other spec form (``"auto"``, a path string, ``True``/``False``/``None``)
    is already picklable and means the same thing in the worker.
    """
    directory = getattr(cache, "directory", None)
    if directory is not None:
        return str(directory)
    return cache


@dataclass(frozen=True)
class TenantWorkerSpec:
    """What a worker needs to serve one tenant, picklable.

    ``tables`` (when set) are the tenant backend's
    :meth:`~repro.backends.base.AutomatonBackend.share_tables` — the
    kernel's packed tables and the warm lazy DFA's — for the fast path;
    they travel inside the spec, by value.  The registration rides along so
    a worker can always fall back to an engine rebuild — when the tables
    do not load — from the artifact cache ``cache`` names.
    """

    tenant: str
    registration: "TenantRegistration"
    cache: object
    tables: Optional[Dict[str, object]] = field(default=None, compare=False)


class SpanReply(NamedTuple):
    """What one span hands back, whichever plane scanned it.

    ``reports`` are finished :class:`~repro.sim.kernel.Report` objects
    unless ``raw``: then they are a :class:`DfaSpans` cursor's events —
    ``(offset from the span start, count, reporting-row bytes)`` — which
    :func:`_materialised` decodes before the request loop sees the
    reply.  ``consumed`` is a whole number of chunks unless the
    data ran out; ``degrades`` counts the health events the scanning
    backend logged meanwhile; ``built`` (``"tables"``/``"rebuild"``) and
    ``tables_error`` are set on the span that cold-started a worker's
    engine.
    """

    reports: Sequence
    checkpoint: Checkpoint
    consumed: int
    degrades: int
    raw: bool
    built: Optional[str] = None
    tables_error: Optional[str] = None


def _span_pieces(data: bytes, chunk_bytes: int, stop_at: float):
    """The chunks of one span.

    Always the first chunk; then one more per resumption — the consumer
    scans a chunk before asking for the next — until the data ends or
    ``time.monotonic()`` has passed ``stop_at``.
    """
    position = 0
    while True:
        yield data[position : position + chunk_bytes]
        position += chunk_bytes
        if position >= len(data) or time.monotonic() >= stop_at:
            return


def _stop_at(deadline_at: Optional[float]) -> float:
    """When a span starting now stops: :data:`SPAN_HOLD_S` from now, or
    the request's deadline (``time.monotonic()``) if that is sooner."""
    stop_at = time.monotonic() + SPAN_HOLD_S
    return stop_at if deadline_at is None else min(stop_at, deadline_at)


class _Resumes:
    """A span on a registered backend, a resumed ``scan`` per piece;
    reports come back with global offsets (each scan starts from the
    last one's checkpoint)."""

    def __init__(self, backend, checkpoint):
        self.backend = backend
        self.checkpoint = checkpoint
        self.reports: list = []

    def step(self, piece) -> None:
        result = self.backend.scan(piece, resume=self.checkpoint)
        self.reports.extend(result.reports)
        self.checkpoint = result.checkpoint


class BackendSpans:
    """Spans scanned on a registered backend through its ``scan(piece,
    resume=)``: the packed kernel, the golden-fallback tier, whatever a
    tenant registered that is not a lazy DFA.  ``health_event_count`` is
    the owning engine's (a bare backend has no degraded mode to log)."""

    raw = False

    def __init__(self, backend, health_event_count=lambda: 0):
        self.backend = backend
        self.health_event_count = health_event_count

    def open(self, checkpoint) -> _Resumes:
        return _Resumes(self.backend, checkpoint)

    @staticmethod
    def close(cursor: _Resumes):
        return cursor.reports, cursor.checkpoint


class DfaSpans:
    """Spans scanned on a kernel + lazy DFA, one :class:`~repro.sim.
    lazydfa.DfaCursor` a span: the tenant's own lazy-DFA backend
    in-loop, or the pair a worker rebuilt (from the tables in the
    tenant's spec, or its registration).  A piece is never split across
    processes.  The reply is ``raw``; ``backend`` decodes it
    (:func:`_materialised`), and is ``None`` for a pair built from a
    spec's tables, whose reply the parent decodes."""

    raw = True

    def __init__(self, kernel, dfa, backend=None, health_event_count=lambda: 0):
        self.kernel = kernel
        self.dfa = dfa
        self.backend = backend
        self.health_event_count = health_event_count

    def open(self, checkpoint) -> DfaCursor:
        return DfaCursor(self.kernel, self.dfa, checkpoint)

    @staticmethod
    def close(cursor: DfaCursor):
        events, _, checkpoint, _ = cursor.close()
        return events, checkpoint


def span_scanner(backend, health_event_count=lambda: 0):
    """How spans scan on ``backend``: :class:`DfaSpans` on a lazy DFA,
    :class:`BackendSpans` on anything else."""
    if isinstance(backend, LazyDfaBackend):
        return DfaSpans(
            backend.simulator.kernel, backend.dfa, backend, health_event_count
        )
    return BackendSpans(backend, health_event_count)


def scan_span(
    scanner, data, checkpoint, chunk_bytes, stop_at, built=None, tables_error=None
) -> SpanReply:
    """The one chunk loop: ``data`` in ``chunk_bytes`` pieces scanned one
    after the other from ``checkpoint`` (or the stream's start when
    ``None``) on one cursor of ``scanner``, until :func:`_span_pieces`
    stops."""
    events_before = scanner.health_event_count()
    cursor = scanner.open(checkpoint)
    consumed = 0
    for piece in _span_pieces(data, chunk_bytes, stop_at):
        cursor.step(piece)
        consumed += len(piece)
    found, checkpoint = scanner.close(cursor)
    degrades = scanner.health_event_count() - events_before
    return SpanReply(
        found, checkpoint, consumed, degrades, scanner.raw, built, tables_error
    )


def _materialised(reply: SpanReply, scanner) -> SpanReply:
    """``reply`` with its ``raw`` events decoded by ``scanner``'s
    backend — the one place either plane does it."""
    if not reply.raw:
        return reply
    total = sum(count for _, count, _ in reply.reports)
    result = scanner.backend.materialise_raw(
        (reply.reports, total, reply.checkpoint, reply.consumed), True
    )
    return reply._replace(reports=result.reports, raw=False)


async def scan_span_inloop(
    scanner, spec, data, checkpoint, chunk_bytes, deadline_at
) -> SpanReply:
    """The in-loop plane, called as :meth:`ProcPoolScanExecutor.
    scan_span` is and stopping where a worker's span does, but scanned
    here and now on the event loop, which it holds for the span."""
    reply = scan_span(
        scanner, data, checkpoint, chunk_bytes, _stop_at(deadline_at)
    )
    return _materialised(reply, scanner)


#: fingerprint -> span scanner, per worker process (module global).
_WORKER_ENGINES: "OrderedDict[str, object]" = OrderedDict()


def _cached_engine(fingerprint: str):
    engine = _WORKER_ENGINES.get(fingerprint)
    if engine is not None:
        _WORKER_ENGINES.move_to_end(fingerprint)
    return engine


def _build_engine(spec: TenantWorkerSpec):
    """Cold-start the spec's engine in this process and cache it.

    **Tables fast path** (``spec.tables`` set): rebuild the kernel and a
    seeded lazy DFA (:func:`~repro.sim.lazydfa.kernel_dfa_from_tables`)
    from the kernel's packed tables, the warm DFA's ``dfa_rows`` and its
    record of learned cells (``dfa_sources``/``dfa_columns``/
    ``dfa_targets``) and, when striding, the ``stride_*`` alphabet tables
    the spec carries.  Its spans reply ``raw``, so report identity is
    resolved exactly once, parent-side.  **Engine rebuild path** (no
    tables, or tables that do not load): the registration's
    :meth:`~repro.service.service.TenantRegistration.build_engine` — the
    call that built the parent's engine — warm-starting from the same
    artifact cache directory; a lazy-DFA engine's spans are ``raw``
    too (:func:`span_scanner`).

    Returns ``(scanner, built, tables_error)``: ``built`` is ``"tables"``
    or ``"rebuild"``; ``tables_error`` says why the spec's tables were
    not used, so the parent can count and log that it happened.
    """
    registration = spec.registration
    scanner, built, tables_error = None, "rebuild", None
    if spec.tables is not None:
        try:
            kernel, dfa = kernel_dfa_from_tables(
                spec.tables, registration.backend_options.get("max_states")
            )
            scanner, built = DfaSpans(kernel, dfa), "tables"
        except Exception as error:
            tables_error = f"{type(error).__name__}: {error}"
    if scanner is None:
        engine = registration.build_engine(spec.cache)
        scanner = span_scanner(engine.backend, engine.health_event_count)
        if isinstance(scanner, DfaSpans):
            # A worker reads the tenant's learned table; the parent's
            # engine is the one that stores it.
            scanner.dfa.persist(None)
    _WORKER_ENGINES[registration.fingerprint] = scanner
    while len(_WORKER_ENGINES) > WORKER_ENGINE_CACHE_LIMIT:
        _WORKER_ENGINES.popitem(last=False)
    return scanner, built, tables_error


def _serve_span(message) -> tuple:
    """One span job, start to reply, asking the parent for the tenant's
    spec when this process has no engine for it.

    ``deadline_at`` is the request's deadline on ``time.monotonic()`` —
    one clock for every process on the host — or ``None``; the hold
    quantum counts from here, after any engine cold start, so a queued
    or cold span still gets it.
    """
    fingerprint, data, resume, chunk_bytes, deadline_at = message
    scanner = _cached_engine(fingerprint)
    built = tables_error = None
    if scanner is None:
        scanner, built, tables_error = _build_engine(ask_parent())
    reply = scan_span(
        scanner, data, resume, chunk_bytes, _stop_at(deadline_at),
        built, tables_error,
    )
    if scanner.backend is not None:
        # A rebuilt engine decodes its own events: the parent's engine
        # may have landed on another backend (a fallback tier).
        reply = _materialised(reply, scanner)
    return tuple(reply)


class ProcPoolScanExecutor(WorkerPool):
    """The scan plane: a :class:`~repro.parallel.WorkerPool` whose jobs
    are spans, driven by the service's event loop.

    ``scan_span`` is the only hot entry point: it submits the span,
    awaits the reply the loop's reader callback picks up, and hands it
    back with a ``raw`` payload materialised through the parent's
    span scanner.  A span whose worker died surfaces as a
    retryable :class:`WorkerCrashed`, mirroring the coroutine-worker
    supervision contract.  The service's snapshot reads the counters
    :data:`POOL_COUNTERS` names off this object.
    """

    process_name = "scan-process"
    dispatched = chunks = cold_tables = cold_rebuilds = 0

    def lost_error(self, job) -> WorkerCrashed:
        return WorkerCrashed(job.context.tenant)

    async def scan_span(
        self,
        scanner,
        spec: TenantWorkerSpec,
        data: bytes,
        checkpoint: Optional[Checkpoint],
        chunk_bytes: int,
        deadline_at: Optional[float],
    ) -> SpanReply:
        # The checkpoint crosses the pipe as it is: nothing to flatten,
        # nothing to lose, and a marked one is refused on the far side.
        message = (
            spec.registration.fingerprint, data, checkpoint,
            chunk_bytes, deadline_at,
        )
        # The future carries WorkerCrashed when the worker died (it has
        # been replaced already) and the scan's own exception when a live
        # worker raised it; that one propagates as itself.
        reply = SpanReply._make(
            await self.submit(
                _serve_span, message, context=spec,
                loop=asyncio.get_running_loop(),
            )
        )
        reply = _materialised(reply, scanner)
        self.dispatched += 1
        self.chunks += -(-reply.consumed // chunk_bytes)
        if reply.built == "tables":
            self.cold_tables += 1
        elif reply.built == "rebuild":
            self.cold_rebuilds += 1
        return reply
