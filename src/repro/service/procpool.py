"""Process-pool scan execution plane for the serving layer.

PR 8's :class:`~repro.service.service.ScanService` runs every CPU-bound
scan as a coroutine on one event loop, so one core is the throughput
ceiling.  This module moves the chunk scans into long-lived worker
*processes* while keeping every PR 8 semantic — deadlines at chunk
boundaries, checkpoint-resume bit-identity, breaker/fallback, graceful
drain.

The processes, their pipes, the one-job-in-flight rule, the resource
tracker rule and per-worker supervision are :mod:`repro.parallel`'s
:class:`~repro.parallel.WorkerPool`, driven by the service's event loop;
this module is what is about *scanning* on top of it.

**A span job** is :func:`_serve_span` on ``(fingerprint, bytes, resume
checkpoint, chunk_bytes, deadline_at, collect_reports)``, submitted with the
tenant's :class:`TenantWorkerSpec` as its context.  A worker that holds
no engine for the fingerprint (first span of the tenant on this process,
engine evicted from the per-process LRU, process respawned) fetches the
spec with :func:`~repro.parallel.ask_parent` and goes on with the span
it already has.  The spec — pattern list included, 2–7 KB for the suite
rulesets — therefore crosses a pipe once per (worker, fingerprint)
instead of once per span, and the worker's engine cache is the only
record of who knows what.  Besides the result, the reply carries what
only the worker knows: the health events its backend logged while
scanning (the parent feeds them to the tenant's breaker: its own engine
did not scan) and, on a cold start, how the engine was built and why a
published shared-tables block could not be used.

The unit of dispatch is a **span**: the rest of the request's bytes,
the service's ``chunk_bytes`` and the request's absolute deadline.  The
worker runs the chunk loop the event loop would have run — one
``scan(piece, resume=checkpoint)`` per chunk, so chunk boundaries and
checkpoints are those of the in-loop plane — always scans at least one
chunk, and returns at the first chunk boundary where
``time.monotonic()`` has passed the deadline or :data:`SPAN_HOLD_S`
since the span started.  A worker is never held longer than the hold
quantum plus one chunk: that bound, in time and independent of how fast
the tenant's ruleset scans, is what drain, the parent's own deadline
check between spans, and fairness between tenants rely on.  The parent
resumes from the offset and checkpoint a span returns, and checkpoints
are plain picklable values, so successive spans of one request may land
on different processes.  When something parent-side has to observe
every chunk boundary — an injected ``clock=``, a ``set_scan_delay``
chaos hook — the service ships exactly one chunk and the span
degenerates to per-chunk dispatch.

Each worker process keeps a small per-tenant engine cache keyed by the
registration fingerprint.  Cold-starting a tenant in a worker takes one
of two paths:

* **Shared-tables fast path** (lazy-DFA tenants): the parent publishes
  the kernel's packed tables plus the warm DFA's ``dfa_rows`` (state
  keys) and ``dfa_next`` (silent successors, ``-1`` where a transition
  is missing or reports) and, when striding, the ``stride_*`` alphabet
  tables, once per tenant through a :class:`~repro.parallel.SharedTables`
  shared-memory block; the worker attaches, copies the arrays out (the
  block may be unlinked on hot-reload while the worker lives on),
  rebuilds ``BitsetKernel.from_packed`` + a seeded
  :class:`~repro.sim.lazydfa.LazyDfaKernel`
  (:func:`~repro.sim.shard.attach_kernel_dfa`), and returns one *raw*
  result per span (events rebased to the span start) that the parent
  materialises through the registered backend — so ``(offset, ste_id,
  report_code)`` identity is resolved exactly once, parent-side, and is
  bit-identical to the in-loop path.
* **Engine rebuild path** (every other backend, and a block that is
  gone or does not attach): the worker rebuilds a full
  :class:`~repro.engine.CacheAutomatonEngine` from the registration in
  the spec, warm-starting from the same content-addressed artifact
  cache directory the parent used, and returns finished
  ``Report``/``Checkpoint`` objects.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.core.design import DesignPoint
from repro.parallel import WorkerPool, ask_parent
from repro.service.errors import WorkerCrashed
from repro.sim.golden import Checkpoint, Report
from repro.sim.kernel import BitsetKernel
from repro.sim.lazydfa import LazyDfaKernel
from repro.sim.shard import attach_kernel_dfa, scan_one

#: Per-worker-process engine cache bound (fingerprint-keyed, LRU).
WORKER_ENGINE_CACHE_LIMIT = 8

#: Hold quantum: a span returns at the first chunk boundary this many
#: seconds after it started scanning.  Long enough that the pipe
#: round trip is a small share of it, short enough that drain-timeout
#: overshoot and head-of-line blocking behind one tenant stay at the
#: scale of a few in-loop chunks.
SPAN_HOLD_S = 0.005


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
    """One tenant's registration, picklable for shipment to workers.

    ``shm_meta`` (when set) is the :class:`~repro.parallel.SharedTables`
    handle for the fast path; the full registration rides along so a
    worker can always fall back to an engine rebuild — e.g. when the
    block was unlinked by a hot-reload between dispatch and attach.
    """

    tenant: str
    fingerprint: str
    patterns: Tuple[str, ...]
    design: DesignPoint
    backend: Optional[str]
    stride: object
    backend_options: Tuple[Tuple[str, object], ...]
    compile_jobs: object
    cache: object
    dfa_max_states: Optional[int]
    shm_meta: object = None


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


class _TablesWorkerEngine:
    """Worker-side engine rebuilt from the shared-tables fast path."""

    def __init__(self, kernel: BitsetKernel, dfa: LazyDfaKernel):
        self.kernel = kernel
        self.dfa = dfa

    def health_event_count(self) -> int:
        return 0  # the bare kernel pair has no degraded mode to log

    def scan_span(self, data, checkpoint, chunk_bytes, stop_at, collect_reports):
        events = []
        total = consumed = 0
        for position, piece in _span_pieces(data, chunk_bytes, stop_at):
            piece_events, count, checkpoint, symbols = scan_one(
                self.kernel, self.dfa, piece, checkpoint, collect_reports
            )
            events.extend(
                (position + offset, fired, rep_bytes)
                for offset, fired, rep_bytes in piece_events
            )
            total += count
            consumed += symbols
        return "raw", (events, total, checkpoint, consumed)


class _BackendWorkerEngine:
    """Worker-side engine rebuilt from the full registration."""

    def __init__(self, engine):
        self.engine = engine
        self.backend = engine.backend

    def health_event_count(self) -> int:
        return self.engine.health_event_count()

    def scan_span(self, data, checkpoint, chunk_bytes, stop_at, collect_reports):
        reports = []
        consumed = 0
        for _, piece in _span_pieces(data, chunk_bytes, stop_at):
            result = self.backend.scan(
                piece, collect_reports=collect_reports, resume=checkpoint
            )
            reports.extend(result.reports)
            checkpoint = result.checkpoint
            consumed += len(piece)
        return "scan", (tuple(reports), checkpoint, consumed)


#: fingerprint -> worker engine, per worker process (module global).
_WORKER_ENGINES: "OrderedDict[str, object]" = OrderedDict()


def _cached_engine(fingerprint: str):
    engine = _WORKER_ENGINES.get(fingerprint)
    if engine is not None:
        _WORKER_ENGINES.move_to_end(fingerprint)
    return engine


def _build_engine(spec: TenantWorkerSpec):
    """Cold-start the spec's engine in this process and cache it.

    Returns ``(engine, built, tables_error)``: ``built`` is ``"tables"``
    or ``"rebuild"``; ``tables_error`` says why a published block was
    not used (hot-reload unlinked it, the attach failed) — the
    registration in the spec always suffices to rebuild the slow way,
    but the parent gets to count and log that it happened.
    """
    engine, built, tables_error = None, "rebuild", None
    if spec.shm_meta is not None:
        try:
            # copy=True: the parent may unlink the block (hot reload,
            # drain) while this engine keeps serving from the cache.
            kernel, dfa, _ = attach_kernel_dfa(
                spec.shm_meta, spec.dfa_max_states, copy=True
            )
            engine, built = _TablesWorkerEngine(kernel, dfa), "tables"
        except Exception as error:
            tables_error = f"{type(error).__name__}: {error}"
    if engine is None:
        from repro.engine import CacheAutomatonEngine

        engine = _BackendWorkerEngine(
            CacheAutomatonEngine.from_patterns(
                list(spec.patterns),
                design=spec.design,
                cache=spec.cache,
                backend=spec.backend,
                stride=spec.stride,
                backend_options=dict(spec.backend_options) or None,
                compile_jobs=spec.compile_jobs,
            )
        )
    _WORKER_ENGINES[spec.fingerprint] = engine
    while len(_WORKER_ENGINES) > WORKER_ENGINE_CACHE_LIMIT:
        _WORKER_ENGINES.popitem(last=False)
    return engine, built, tables_error


def _scan_span(engine, data, resume, chunk_bytes, deadline_at, collect_reports):
    """One span on a worker engine.

    ``resume`` is the resume checkpoint, as it came down the pipe, or
    ``None``; ``deadline_at`` is the request's deadline on
    ``time.monotonic()`` — one clock for every process on the host — or
    ``None``.  The span is cut into ``chunk_bytes`` pieces scanned one
    after the other from ``resume``; it always scans the first, and
    stops at the first boundary past the deadline or past
    :data:`SPAN_HOLD_S` (counted from here, after any engine cold
    start, so a queued or cold span still gets its quantum).  Returns
    ``("raw", RawScanResult)`` (fast path — event offsets relative to
    the span start, the parent materialises reports) or ``("scan",
    (reports, checkpoint, consumed))`` (engine path — already global
    offsets because the backend scanned with the resume checkpoint);
    either way the bytes consumed are a whole number of chunks unless
    the data ran out.
    """
    stop_at = time.monotonic() + SPAN_HOLD_S
    if deadline_at is not None:
        stop_at = min(stop_at, deadline_at)
    return engine.scan_span(data, resume, chunk_bytes, stop_at, collect_reports)


def _worker_scan_span(
    spec, data, resume, chunk_bytes, deadline_at, collect_reports
):
    """:func:`_scan_span` for a caller that has the spec at hand."""
    engine = _cached_engine(spec.fingerprint) or _build_engine(spec)[0]
    return _scan_span(
        engine, data, resume, chunk_bytes, deadline_at, collect_reports
    )


def _serve_span(message):
    """One span job, start to reply, asking the parent for the tenant's
    spec when this process has no engine for it."""
    fingerprint, *span = message
    engine = _cached_engine(fingerprint)
    built = tables_error = None
    if engine is None:
        engine, built, tables_error = _build_engine(ask_parent())
    events_before = engine.health_event_count()
    kind, body = _scan_span(engine, *span)
    degrades = engine.health_event_count() - events_before
    return kind, body, degrades, built, tables_error


class _SpanResult(NamedTuple):
    """What the service's request loop consumes of one span: the slice
    of ScanResult the in-loop plane reads, the bytes consumed, the
    health events the worker's backend logged meanwhile, and why a cold
    start could not use the tenant's published tables (else ``None``)."""

    reports: Sequence[Report]
    checkpoint: Checkpoint
    consumed: int
    degrades: int
    tables_error: Optional[str]


class ProcPoolScanExecutor(WorkerPool):
    """The scan plane: a :class:`~repro.parallel.WorkerPool` whose jobs
    are spans, driven by the service's event loop.

    ``scan_span`` is the only hot entry point: it submits the span,
    awaits the reply the loop's reader callback picks up, and hands back
    ``.reports``/``.checkpoint``/``.consumed``, materialising fast-path
    raw payloads through the parent's registered backend.  A span whose
    worker died surfaces as a retryable :class:`WorkerCrashed`,
    mirroring the coroutine-worker supervision contract.  ``dispatched``
    counts spans that came back and ``chunks`` the chunks they covered;
    ``cold_tables``/``cold_rebuilds`` count worker engine cold starts by
    path.  The service publishes all of them.
    """

    process_name = "scan-process"
    dispatched = chunks = cold_tables = cold_rebuilds = 0

    def lost_error(self, job) -> WorkerCrashed:
        return WorkerCrashed(job.context.tenant)

    async def scan_span(
        self,
        loop,
        spec: TenantWorkerSpec,
        backend,
        data: bytes,
        checkpoint: Optional[Checkpoint],
        chunk_bytes: int,
        deadline_at: Optional[float],
        collect_reports: bool = True,
    ) -> _SpanResult:
        # The checkpoint crosses the pipe as it is (one layout, or a
        # marked dialect): nothing to flatten, nothing to lose.
        message = (
            spec.fingerprint, data, checkpoint,
            chunk_bytes, deadline_at, collect_reports,
        )
        # The future carries WorkerCrashed when the worker died (it has
        # been replaced already) and the scan's own exception when a live
        # worker raised it; that one propagates as itself.
        kind, body, degrades, built, tables_error = await self.submit(
            _serve_span, message, context=spec, loop=loop
        )
        if kind == "raw":
            result = backend.materialise_raw(body, collect_reports)
            reports, after, consumed = result.reports, result.checkpoint, body[3]
        else:
            reports, after, consumed = body
        self.dispatched += 1
        self.chunks += -(-consumed // chunk_bytes)
        if built == "tables":
            self.cold_tables += 1
        elif built == "rebuild":
            self.cold_rebuilds += 1
        return _SpanResult(reports, after, consumed, degrades, tables_error)
