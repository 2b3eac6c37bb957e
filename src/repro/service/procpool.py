"""Process-pool scan execution plane for the serving layer.

PR 8's :class:`~repro.service.service.ScanService` runs every CPU-bound
scan as a coroutine on one event loop, so one core is the throughput
ceiling.  This module moves the chunk scans into long-lived worker
*processes* while keeping every PR 8 semantic — deadlines at chunk
boundaries, checkpoint-resume bit-identity, breaker/fallback, graceful
drain.

**The plane.**  ``N`` worker processes, each on its own duplex
:func:`multiprocessing.Pipe`, driven by the event loop itself: the
parent end of every pipe is registered with ``loop.add_reader``, a span
is one ``conn.send`` from the loop thread to an idle worker and one
``conn.recv`` when the descriptor turns readable.  There is no manager
thread, no feeder thread and no future crossing threads.  A worker has
**one span in flight**; further spans wait first-in first-out in the
parent and the reader callback hands the next one to a worker before it
resolves the span that just came back, so the worker scans while the
parent materialises.  Because a worker is only ever sent to while it
sits in ``recv``, neither side can block the other on a full pipe
buffer, whatever the size of a request or of a report-dense reply.

**Messages** (pickled by the pipe):

* parent → worker ``(fingerprint, bytes, cursor, chunk_bytes,
  deadline_at, collect_reports)`` — one span.  ``cursor`` is the resume
  checkpoint flattened to ``(symbols, vector, sod)`` or ``None``.
* worker → parent ``("need-spec",)`` — the worker holds no engine for
  that fingerprint (first span of the tenant on this process, engine
  evicted from the per-process LRU, process respawned); the parent
  answers with the tenant's :class:`TenantWorkerSpec` and the worker
  goes on with the span it already has.  The spec — pattern list
  included, 2–7 KB for the suite rulesets — therefore crosses a pipe
  once per (worker, fingerprint) instead of once per span, and the
  worker's engine cache is the only record of who knows what.
* worker → parent ``(kind, body, degrades, built, tables_error)`` — the
  span's result: ``("raw", RawScanResult)`` or ``("scan", (reports,
  checkpoint, consumed))`` as below, the health events the worker's
  backend logged while scanning (the parent feeds them to the tenant's
  breaker: its own engine did not scan), and, on a cold start, how the
  engine was built (``"tables"``/``"rebuild"``) plus the reason a
  published shared-tables block could not be used.
* worker → parent ``("error", exception)`` — the scan raised in a live
  worker; it propagates as itself and is the tenant's fault, as it
  would be in-loop.
* parent → worker ``None`` — stop.

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
  the kernel's packed tables plus the warm DFA transition tables once
  per tenant through the existing :class:`~repro.sim.shard.SharedTables`
  shared-memory block; the worker attaches, copies the arrays out (the
  block may be unlinked on hot-reload while the worker lives on),
  rebuilds ``BitsetKernel.from_packed`` + a seeded
  :class:`~repro.sim.lazydfa.LazyDfaKernel`, and returns one *raw*
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

**Tracker rule.**  Attaching a block registers it with
:mod:`multiprocessing.resource_tracker`.  A worker forked before the
parent's tracker exists would start a private one on its first attach,
and that tracker unlinks the tenant's *live* block when its worker
dies.  The tracker is therefore started before any worker is, so every
child inherits the parent's.

**Supervision is per worker.**  End-of-file on a pipe, a reply that
cannot be read, or a failed send means that one process is gone: the
span it held fails with a retryable
:class:`~repro.service.errors.WorkerCrashed`, the process is replaced
(counted in :attr:`ProcPoolScanExecutor.respawns`) and every other
worker, with the span it holds, carries on.  A death costs the span the
worker held or, if it held none, exactly the next span dispatched —
never zero, never two: a worker found dead while idle moves to the
front of the idle queue, where the next send to it fails.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker, util
from typing import Deque, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.automata.stride import StrideAlphabet
from repro.core.design import DesignPoint
from repro.service.errors import WorkerCrashed
from repro.sim.golden import Checkpoint, Report
from repro.sim.kernel import BitsetKernel
from repro.sim.lazydfa import LazyDfaKernel
from repro.sim.shard import RawScanResult, _scan_one, attach_tables

#: Per-worker-process engine cache bound (fingerprint-keyed, LRU).
WORKER_ENGINE_CACHE_LIMIT = 8

#: Hold quantum: a span returns at the first chunk boundary this many
#: seconds after it started scanning.  Long enough that the pipe
#: round trip is a small share of it, short enough that drain-timeout
#: overshoot and head-of-line blocking behind one tenant stay at the
#: scale of a few in-loop chunks.
SPAN_HOLD_S = 0.005

#: How long :meth:`ProcPoolScanExecutor.shutdown` waits for workers told
#: to stop before it kills them.  An idle worker exits within
#: milliseconds; one that has not after this long is wedged.
EXIT_GRACE_S = 1.0


def default_mp_method() -> str:
    """``fork`` where available (workers inherit the imported modules —
    no re-import tax per process), else ``spawn``."""
    try:
        get_context("fork")
        return "fork"
    except ValueError:  # pragma: no cover - non-POSIX
        return "spawn"


def worker_cache_spec(cache):
    """A picklable artifact-cache spec for worker processes.

    A live :class:`~repro.compiler.cache.CompileCache` cannot ship
    across the process boundary, so it collapses to its root directory
    (the parent of the versioned subdirectory it manages); every other
    spec form (``"auto"``, a path string, ``True``/``False``/``None``)
    is already picklable and means the same thing in the worker.
    """
    directory = getattr(cache, "directory", None)
    if directory is not None:
        return str(directory.parent)
    return cache


@dataclass(frozen=True)
class TenantWorkerSpec:
    """One tenant's registration, picklable for shipment to workers.

    ``shm_meta`` (when set) is the :class:`~repro.sim.shard.SharedTables`
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

    def scan_span(self, data, cursor, chunk_bytes, stop_at, collect_reports):
        base = 0 if cursor is None else cursor[0]
        events = []
        total = consumed = 0
        for position, piece in _span_pieces(data, chunk_bytes, stop_at):
            piece_events, count, vector, sod, symbols = _scan_one(
                self.kernel, self.dfa, piece, cursor, collect_reports
            )
            events.extend(
                (position + offset, fired, rep_bytes)
                for offset, fired, rep_bytes in piece_events
            )
            total += count
            consumed += symbols
            cursor = (base + consumed, vector, sod)
        raw: RawScanResult = (events, total, vector, sod, consumed)
        return "raw", raw


class _BackendWorkerEngine:
    """Worker-side engine rebuilt from the full registration."""

    def __init__(self, engine):
        self.engine = engine
        self.backend = engine.backend

    def health_event_count(self) -> int:
        return self.engine.health_event_count()

    def scan_span(self, data, cursor, chunk_bytes, stop_at, collect_reports):
        checkpoint = None if cursor is None else Checkpoint(*cursor)
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


def _build_tables_engine(spec: TenantWorkerSpec) -> _TablesWorkerEngine:
    shm, views = attach_tables(spec.shm_meta)
    try:
        # Copy out of the mapping: the parent may unlink the block (hot
        # reload, drain) while this engine keeps serving from the cache.
        tables = {name: np.array(view, copy=True) for name, view in views.items()}
    finally:
        del views
        shm.close()
    dfa_rows = tables.pop("dfa_rows")
    dfa_next = tables.pop("dfa_next")
    dfa_reps = tables.pop("dfa_reps")
    alphabet = None
    if "stride_k" in tables:
        alphabet = StrideAlphabet.from_tables(
            {
                "stride_k": tables.pop("stride_k"),
                "stride_class_of": tables.pop("stride_class_of"),
                "stride_reps": tables.pop("stride_reps"),
            }
        )
    kernel = BitsetKernel.from_packed(tables)
    dfa = LazyDfaKernel(
        kernel, max_states=spec.dfa_max_states, alphabet=alphabet
    )
    dfa.seed(dfa_rows, dfa_next, dfa_reps)
    return _TablesWorkerEngine(kernel, dfa)


def _build_backend_engine(spec: TenantWorkerSpec) -> _BackendWorkerEngine:
    from repro.engine import CacheAutomatonEngine

    engine = CacheAutomatonEngine.from_patterns(
        list(spec.patterns),
        design=spec.design,
        cache=spec.cache,
        backend=spec.backend,
        stride=spec.stride,
        backend_options=dict(spec.backend_options) or None,
        compile_jobs=spec.compile_jobs,
    )
    return _BackendWorkerEngine(engine)


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
            engine, built = _build_tables_engine(spec), "tables"
        except Exception as error:
            tables_error = f"{type(error).__name__}: {error}"
    if engine is None:
        engine = _build_backend_engine(spec)
    _WORKER_ENGINES[spec.fingerprint] = engine
    while len(_WORKER_ENGINES) > WORKER_ENGINE_CACHE_LIMIT:
        _WORKER_ENGINES.popitem(last=False)
    return engine, built, tables_error


def _scan_span(engine, data, cursor, chunk_bytes, deadline_at, collect_reports):
    """One span on a worker engine.

    ``cursor`` is the resume checkpoint flattened to ``(symbols, vector,
    sod)`` or ``None``; ``deadline_at`` is the request's deadline on
    ``time.monotonic()`` — one clock for every process on the host — or
    ``None``.  The span is cut into ``chunk_bytes`` pieces scanned one
    after the other from ``cursor``; it always scans the first, and
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
    return engine.scan_span(data, cursor, chunk_bytes, stop_at, collect_reports)


def _worker_scan_span(
    spec, data, cursor, chunk_bytes, deadline_at, collect_reports
):
    """:func:`_scan_span` for a caller that has the spec at hand."""
    engine = _cached_engine(spec.fingerprint) or _build_engine(spec)[0]
    return _scan_span(
        engine, data, cursor, chunk_bytes, deadline_at, collect_reports
    )


def _serve_span(conn, fingerprint, *span):
    """One span message, start to reply, asking the parent for the
    tenant's spec when this process has no engine for it."""
    engine = _cached_engine(fingerprint)
    built = tables_error = None
    if engine is None:
        conn.send(("need-spec",))
        engine, built, tables_error = _build_engine(conn.recv())
    events_before = engine.health_event_count()
    kind, body = _scan_span(engine, *span)
    degrades = engine.health_event_count() - events_before
    return kind, body, degrades, built, tables_error


def _worker_main(conn, inherited) -> None:
    """A scan worker process: spans off its pipe, one at a time, until
    the parent says stop or goes away."""
    # A forked child holds a copy of every descriptor the parent had
    # open, the parent's ends of all the pipes among them; while any
    # copy is open no worker ever reads end-of-file from a parent that
    # died without saying stop.
    for parent_end in inherited:
        parent_end.close()
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            try:
                reply = _serve_span(conn, *message)
            except Exception as error:  # the scan's own failure: report it
                reply = ("error", error)
            conn.send(reply)
    except (EOFError, OSError):
        return  # the parent's end of the pipe is closed


class _SpanResult(NamedTuple):
    """What the service's request loop consumes of one span: the slice
    of BackendResult the in-loop plane reads, the bytes consumed, the
    health events the worker's backend logged meanwhile, and why a cold
    start could not use the tenant's published tables (else ``None``)."""

    reports: Sequence[Report]
    checkpoint: Checkpoint
    consumed: int
    degrades: int
    tables_error: Optional[str]


def _cursor(checkpoint: Optional[Checkpoint]):
    """A resume checkpoint flattened to the ``(symbols, vector, sod)``
    tuple a worker span starts from; ``None`` stays ``None``."""
    if checkpoint is None:
        return None
    return (
        checkpoint.symbols_processed,
        checkpoint.active_state_vector,
        checkpoint.start_of_data_pending,
    )


class _Span(NamedTuple):
    """One span between ``scan_span`` and the worker that serves it."""

    spec: TenantWorkerSpec
    message: tuple
    future: object


class _Worker:
    """One worker process, the parent's end of its pipe, the span it
    holds (``None`` = idle) and the loop watching the pipe."""

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.span: Optional[_Span] = None
        self.loop = None


class ProcPoolScanExecutor:
    """Supervised scan worker processes the event loop drives directly.

    ``scan_span`` is the only hot entry point: it sends ``(fingerprint,
    bytes, checkpoint, chunk_bytes, deadline)`` down an idle worker's
    pipe (or queues the span until one is idle), awaits the reply the
    loop's reader callback picks up, and hands back ``.reports``/
    ``.checkpoint``/``.consumed``, materialising fast-path raw payloads
    through the parent's registered backend.  A worker that died is
    replaced on the spot and the span it held — or, if it was idle, the
    next one sent to it — surfaces as a retryable :class:`WorkerCrashed`,
    mirroring the coroutine-worker supervision contract.  ``dispatched``
    counts spans that came back and ``chunks`` the chunks they covered;
    ``cold_tables``/``cold_rebuilds`` count worker engine cold starts by
    path.  The service publishes all of them.
    """

    def __init__(self, workers: int, *, mp_method: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"need at least one scan worker, got {workers}")
        self.workers = workers
        self._mp_method = mp_method or default_mp_method()
        self._workers: List[_Worker] = []
        self._idle: Deque[_Worker] = deque()
        self._pending: Deque[_Span] = deque()
        self.respawns = 0
        self.dispatched = 0
        self.chunks = 0
        self.cold_tables = 0
        self.cold_rebuilds = 0

    # -- processes ----------------------------------------------------------

    def start(self) -> None:
        """Bring the plane up to ``workers`` processes."""
        while len(self._workers) < self.workers:
            self._ready(self._spawn())

    def _spawn(self) -> _Worker:
        # Before the fork, so the child inherits this tracker instead of
        # starting its own on its first attach (module docstring).
        resource_tracker.ensure_running()
        context = get_context(self._mp_method)
        parent_end, child_end = context.Pipe()
        inherited = ()
        if self._mp_method == "fork":
            inherited = [parent_end, *(peer.conn for peer in self._workers)]
        process = context.Process(
            target=_worker_main, args=(child_end, inherited), name="scan-process"
        )
        process.start()
        child_end.close()
        worker = _Worker(process, parent_end)
        # An owner that never calls shutdown() must not hang the
        # interpreter's exit, which joins every child still running.
        util.Finalize(worker, process.kill, exitpriority=10)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        self._unwatch(worker)
        worker.conn.close()
        worker.process.kill()
        worker.process.join()

    def shutdown(self) -> None:
        """Stop every worker; bounded by :data:`EXIT_GRACE_S` even when
        one is wedged.  Spans still held or queued (none after a drain)
        fail with :class:`WorkerCrashed`."""
        workers, self._workers = self._workers, []
        self._idle.clear()
        orphans = [worker.span for worker in workers if worker.span is not None]
        orphans.extend(self._pending)
        self._pending.clear()
        for worker in workers:
            self._unwatch(worker)
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already dead
            worker.conn.close()
        give_up_at = time.monotonic() + EXIT_GRACE_S
        for worker in workers:
            worker.process.join(max(0.0, give_up_at - time.monotonic()))
            self._retire(worker)
        for span in orphans:
            if not span.future.done():
                span.future.set_exception(WorkerCrashed(span.spec.tenant))

    def worker_pids(self) -> Tuple[int, ...]:
        """Pids of the worker processes (chaos hooks / tests)."""
        return tuple(worker.process.pid for worker in self._workers)

    def crash_one(self) -> Optional[int]:
        """Chaos hook: SIGKILL one worker process; returns its pid.

        The victim is the worker the next span would go to, or a busy
        one when none is idle, so the span in flight, or else the next
        one dispatched, fails with a retryable :class:`WorkerCrashed`.
        Returns only once the process has been reaped: until then its
        end of the pipe may still be open, and a span sent in that
        window would be neither refused nor answered deterministically.
        """
        if not self._workers:
            return None
        victim = self._idle[0] if self._idle else self._workers[0]
        victim.process.kill()
        victim.process.join()
        return victim.process.pid

    def kill_busy(self) -> int:
        """SIGKILL every worker still holding a span (drain gave up on
        them); supervision fails those spans and replaces the workers."""
        busy = [worker for worker in self._workers if worker.span is not None]
        for worker in busy:
            worker.process.kill()
        return len(busy)

    # -- the pipe plane -----------------------------------------------------

    def _watch(self, worker: _Worker, loop) -> None:
        self._unwatch(worker)
        loop.add_reader(worker.conn.fileno(), self._on_readable, worker)
        worker.loop = loop

    def _unwatch(self, worker: _Worker) -> None:
        # Always before the descriptor closes: the selector keys on it.
        if worker.loop is not None and not worker.loop.is_closed():
            worker.loop.remove_reader(worker.conn.fileno())
        worker.loop = None

    def _ready(self, worker: _Worker) -> None:
        """An idle worker: give it the oldest span still wanted, else
        queue it at the back of the idle line."""
        while self._pending:
            span = self._pending.popleft()
            if not span.future.done():  # else its waiter was cancelled
                self._send(worker, span)
                return
        self._idle.append(worker)

    def _send(self, worker: _Worker, span: _Span) -> None:
        loop = span.future.get_loop()
        if worker.loop is not loop:
            self._watch(worker, loop)
        worker.span = span
        try:
            worker.conn.send(span.message)
        except OSError as error:  # EPIPE: the process died while idle
            self._lost(worker, error)

    def _lost(self, worker: _Worker, error: BaseException) -> None:
        """The worker's process is gone (or unreadable): fail the span it
        held, replace it, and leave every other worker alone."""
        span, worker.span = worker.span, None
        if span is not None and not span.future.done():
            crashed = WorkerCrashed(span.spec.tenant)
            # Without its traceback: the frames are the pipe's, they say
            # nothing, and they would pin its buffers until a GC pass.
            crashed.__cause__ = error.with_traceback(None)
            span.future.set_exception(crashed)
        self._workers.remove(worker)
        self._retire(worker)
        self.respawns += 1
        self._ready(self._spawn())

    def _on_readable(self, worker: _Worker) -> None:
        span = worker.span
        try:
            reply = worker.conn.recv()
        except Exception as error:  # EOF, reset, a reply that won't unpickle
            if span is not None:
                self._lost(worker, error)
            else:
                # Died while idle.  Stop watching (end-of-file stays
                # readable for ever) and make it the next worker picked:
                # that send fails, so exactly one span pays for the death.
                self._unwatch(worker)
                self._idle.remove(worker)
                self._idle.appendleft(worker)
            return
        if reply[0] == "need-spec":
            try:
                worker.conn.send(span.spec)
            except OSError as error:
                self._lost(worker, error)
            return
        # The worker is free the moment its reply is read, and not
        # before: a cancelled waiter's span is still running in the
        # process, and handing the worker out early would give the next
        # request this reply.  Feed it before resolving, so it scans
        # while the loop materialises.
        worker.span = None
        self._ready(worker)
        if span.future.done():
            return  # the waiter was cancelled; nobody wants this reply
        if reply[0] == "error":
            span.future.set_exception(reply[1])
        else:
            span.future.set_result(reply)

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
        if len(self._workers) < self.workers:
            self.start()
        message = (
            spec.fingerprint, data, _cursor(checkpoint),
            chunk_bytes, deadline_at, collect_reports,
        )
        span = _Span(spec, message, loop.create_future())
        if self._idle:
            self._send(self._idle.popleft(), span)
        else:
            self._pending.append(span)
        # The future carries WorkerCrashed when the worker died (it has
        # been replaced already) and the scan's own exception when a live
        # worker raised it; that one propagates as itself.
        kind, body, degrades, built, tables_error = await span.future
        if kind == "raw":
            base = 0 if checkpoint is None else checkpoint.symbols_processed
            result = backend.materialise_raw(body, base, collect_reports)
            reports, after, consumed = result.reports, result.checkpoint, body[4]
        else:
            reports, after, consumed = body
        self.dispatched += 1
        self.chunks += -(-consumed // chunk_bytes)
        if built == "tables":
            self.cold_tables += 1
        elif built == "rebuild":
            self.cold_rebuilds += 1
        return _SpanResult(reports, after, consumed, degrades, tables_error)
