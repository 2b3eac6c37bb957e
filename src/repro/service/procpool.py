"""Process-pool scan execution plane for the serving layer, and the
one definition of a **span** — the unit every plane scans in
(DESIGN.md, "Process-pool execution plane").

A span is a run of a request's bytes, the checkpoint to resume from, the
service's ``chunk_bytes`` and a time to stop at.  :func:`scan_span` is
the one chunk loop: one ``scan(piece, resume=checkpoint)`` per chunk —
so chunk boundaries and checkpoints are the same on every plane — always
at least one chunk, returning at the first chunk boundary where
``time.monotonic()`` has passed the stop time.  It hands back a
:class:`SpanReply`.  The service's request loop asks a *plane* for the
next span and resumes from the reply, whichever plane it is:

* :func:`scan_span_inloop` — the degenerate case: the span is one chunk,
  scanned on the event loop that asked, on the tenant's own backend.
* :class:`ProcPoolScanExecutor` — long-lived worker *processes*
  (:mod:`repro.parallel`'s :class:`~repro.parallel.WorkerPool`: the
  processes, their pipes, the one-job-in-flight rule, the resource
  tracker rule and per-worker supervision are its), driven by the
  service's event loop.  The span is the rest of the request's bytes and
  the stop time the request's absolute deadline or :data:`SPAN_HOLD_S`
  after the worker starts scanning, whichever is first.  A worker is
  never held longer than the hold quantum plus one chunk: that bound, in
  time and independent of how fast the tenant's ruleset scans, is what
  drain, the parent's own deadline check between spans, and fairness
  between tenants rely on.  Checkpoints are plain picklable values, so
  successive spans of one request may land on different processes.  When
  something parent-side has to observe every chunk boundary — an
  injected ``clock=``, a ``set_scan_delay`` chaos hook — the service
  ships exactly one chunk a span, as the in-loop plane always does.

**A span job** is :func:`_serve_span` on ``(fingerprint, bytes, resume
checkpoint, chunk_bytes, deadline_at)``, submitted with the tenant's
:class:`TenantWorkerSpec` as its context; its reply crosses the pipe as
the plain tuple a :class:`SpanReply` is.  A worker that holds no engine
for the fingerprint (first span of the tenant on this process, engine
evicted from the per-process LRU, process respawned) fetches the spec
with :func:`~repro.parallel.ask_parent`, cold-starts the engine
(:func:`_build_engine`: from the tenant's shared-memory tables, else
from its registration) and goes on with the span it already has.  The
spec — pattern list included, 2–7 KB for the suite rulesets — therefore
crosses a pipe once per (worker, fingerprint) instead of once per span,
and the worker's engine cache is the only record of who knows what.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from repro.parallel import WorkerPool, ask_parent
from repro.service.errors import WorkerCrashed
from repro.sim.kernel import Checkpoint
from repro.sim.lazydfa import attach_kernel_dfa, scan_one

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.service import TenantRegistration

#: Per-worker-process engine cache bound (fingerprint-keyed, LRU).
WORKER_ENGINE_CACHE_LIMIT = 8

#: Hold quantum: a span returns at the first chunk boundary this many
#: seconds after it started scanning.  Long enough that the pipe
#: round trip is a small share of it, short enough that drain-timeout
#: overshoot and head-of-line blocking behind one tenant stay at the
#: scale of a few in-loop chunks.
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

    ``shm_meta`` (when set) is the :class:`~repro.parallel.SharedTables`
    handle for the fast path; the registration rides along so a worker
    can always fall back to an engine rebuild — e.g. when the block was
    unlinked by a hot-reload between dispatch and attach — from the
    artifact cache ``cache`` names.
    """

    tenant: str
    registration: "TenantRegistration"
    cache: object
    shm_meta: object = None


class SpanReply(NamedTuple):
    """What one span hands back, whichever plane scanned it.

    ``reports`` are finished :class:`~repro.sim.kernel.Report` objects
    unless ``raw``: then they are a shared-tables worker's events —
    ``(offset from the span start, count, reporting-row bytes)`` — which
    :meth:`ProcPoolScanExecutor.scan_span` decodes before anyone else
    sees the reply.  ``consumed`` is a whole number of chunks unless the
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
    """``(offset, chunk)`` pairs of one span.

    Always the first chunk; then one more per resumption — the consumer
    scans a chunk before asking for the next — until the data ends or
    ``time.monotonic()`` has passed ``stop_at``.
    """
    position = 0
    while True:
        yield position, data[position : position + chunk_bytes]
        position += chunk_bytes
        if position >= len(data) or time.monotonic() >= stop_at:
            return


class BackendSpans:
    """Spans scanned on a registered backend: a worker's rebuilt engine
    or, in-loop, the tenant's own.  ``health_event_count`` is the owning
    engine's (a bare backend has no degraded mode to log)."""

    raw = False

    def __init__(self, backend, health_event_count=lambda: 0):
        self.backend = backend
        self.health_event_count = health_event_count

    def scan_piece(self, piece, checkpoint, position, found):
        result = self.backend.scan(piece, resume=checkpoint)
        found.extend(result.reports)  # global offsets: it scanned from the resume
        return result.checkpoint


class TablesSpans:
    """Spans scanned on the kernel + warm DFA rebuilt from a tenant's
    shared-tables block; the reply is ``raw``."""

    raw = True

    def __init__(self, kernel, dfa):
        self.kernel = kernel
        self.dfa = dfa

    def health_event_count(self) -> int:
        return 0  # the bare kernel pair has no degraded mode to log

    def scan_piece(self, piece, checkpoint, position, found):
        events, _, checkpoint, _ = scan_one(
            self.kernel, self.dfa, piece, checkpoint, True
        )
        found.extend(
            (position + offset, count, row) for offset, count, row in events
        )
        return checkpoint


def scan_span(
    scanner, data, checkpoint, chunk_bytes, stop_at, built=None, tables_error=None
) -> SpanReply:
    """The one chunk loop: ``data`` in ``chunk_bytes`` pieces scanned one
    after the other from ``checkpoint`` (or the stream's start when
    ``None``) on ``scanner``, until :func:`_span_pieces` stops."""
    events_before = scanner.health_event_count()
    found: list = []
    consumed = 0
    for position, piece in _span_pieces(data, chunk_bytes, stop_at):
        checkpoint = scanner.scan_piece(piece, checkpoint, position, found)
        consumed += len(piece)
    degrades = scanner.health_event_count() - events_before
    return SpanReply(
        found, checkpoint, consumed, degrades, scanner.raw, built, tables_error
    )


async def scan_span_inloop(
    scanner, spec, data, checkpoint, chunk_bytes, deadline_at
) -> SpanReply:
    """The degenerate plane, called as :meth:`ProcPoolScanExecutor.
    scan_span` is: the caller ships one chunk a span and it is scanned
    here and now, on the event loop, so the request loop's yield between
    spans is a yield between chunks."""
    return scan_span(scanner, data, checkpoint, chunk_bytes, 0.0)


#: fingerprint -> span scanner, per worker process (module global).
_WORKER_ENGINES: "OrderedDict[str, object]" = OrderedDict()


def _cached_engine(fingerprint: str):
    engine = _WORKER_ENGINES.get(fingerprint)
    if engine is not None:
        _WORKER_ENGINES.move_to_end(fingerprint)
    return engine


def _build_engine(spec: TenantWorkerSpec):
    """Cold-start the spec's engine in this process and cache it.

    **Shared-tables fast path** (``spec.shm_meta`` set): attach the
    block the parent published — the kernel's packed tables, the warm
    DFA's ``dfa_rows``/``dfa_next`` and, when striding, the ``stride_*``
    alphabet tables — copy the arrays out and rebuild the kernel + a
    seeded lazy DFA (:func:`~repro.sim.lazydfa.attach_kernel_dfa`).  Its
    spans reply ``raw``, so report identity is resolved exactly once,
    parent-side.  **Engine rebuild path** (no block, or one that is
    gone or does not attach): the registration's
    :meth:`~repro.service.service.TenantRegistration.build_engine` — the
    call that built the parent's engine — warm-starting from the same
    artifact cache directory.

    Returns ``(scanner, built, tables_error)``: ``built`` is ``"tables"``
    or ``"rebuild"``; ``tables_error`` says why a published block was
    not used, so the parent can count and log that it happened.
    """
    registration = spec.registration
    scanner, built, tables_error = None, "rebuild", None
    if spec.shm_meta is not None:
        try:
            # copy=True: the parent may unlink the block (hot reload,
            # drain) while this engine keeps serving from the cache.
            kernel, dfa, _ = attach_kernel_dfa(
                spec.shm_meta,
                registration.backend_options.get("max_states"),
                copy=True,
            )
            scanner, built = TablesSpans(kernel, dfa), "tables"
        except Exception as error:
            tables_error = f"{type(error).__name__}: {error}"
    if scanner is None:
        engine = registration.build_engine(spec.cache)
        scanner = BackendSpans(engine.backend, engine.health_event_count)
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
    stop_at = time.monotonic() + SPAN_HOLD_S
    if deadline_at is not None:
        stop_at = min(stop_at, deadline_at)
    return tuple(
        scan_span(
            scanner, data, resume, chunk_bytes, stop_at, built, tables_error
        )
    )


class ProcPoolScanExecutor(WorkerPool):
    """The scan plane: a :class:`~repro.parallel.WorkerPool` whose jobs
    are spans, driven by the service's event loop.

    ``scan_span`` is the only hot entry point: it submits the span,
    awaits the reply the loop's reader callback picks up, and hands it
    back with a ``raw`` payload materialised through the parent's
    registered backend.  A span whose worker died surfaces as a
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
        scanner: BackendSpans,
        spec: TenantWorkerSpec,
        data: bytes,
        checkpoint: Optional[Checkpoint],
        chunk_bytes: int,
        deadline_at: Optional[float],
    ) -> SpanReply:
        # The checkpoint crosses the pipe as it is (one layout, or a
        # marked dialect): nothing to flatten, nothing to lose.
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
        if reply.raw:
            total = sum(count for _, count, _ in reply.reports)
            result = scanner.backend.materialise_raw(
                (reply.reports, total, reply.checkpoint, reply.consumed), True
            )
            reply = reply._replace(reports=result.reports, raw=False)
        self.dispatched += 1
        self.chunks += -(-reply.consumed // chunk_bytes)
        if reply.built == "tables":
            self.cold_tables += 1
        elif reply.built == "rebuild":
            self.cold_rebuilds += 1
        return reply
