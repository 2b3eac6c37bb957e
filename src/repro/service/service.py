"""Resilient multi-tenant asyncio scan service over the engine.

The production-serving layer the ROADMAP's north star calls for: a
long-lived :class:`ScanService` wraps one
:class:`~repro.engine.CacheAutomatonEngine` per *tenant* (pattern set →
engine via the content-addressed artifact cache — compile once, serve
forever; re-registering with a changed pattern set hot-reloads the
engine) and is robust by construction:

* **Admission control** — one bounded queue across tenants
  (``max_queue``), per-tenant in-flight and stream-size limits, and
  fair round-robin dequeue so one flooding tenant cannot starve the
  rest.  A full queue *sheds load* with a typed, retryable
  :class:`~repro.service.errors.Overloaded` instead of growing without
  bound.
* **Deadlines** — every request carries a time budget; scans run in
  chunks through the engine's checkpoint machinery, so an expired
  deadline interrupts *mid-stream* and returns a typed
  :class:`~repro.service.errors.DeadlineExceeded` carrying the
  partial-progress offset, the reports already emitted, and the resume
  checkpoint (resuming yields bit-identical reports).
* **Circuit breaker** — per tenant; repeated primary-backend failures
  or engine ``health()`` degrade events trip it open, after which the
  tenant's traffic is served by the golden-fallback tier (the
  reference interpreter) until a cooldown-gated probe succeeds.
* **Supervision** — a crashed worker task fails its in-flight request
  with a retryable :class:`~repro.service.errors.WorkerCrashed` and is
  restarted; the event is counted and logged.
* **Graceful drain** — :meth:`ScanService.stop` stops admitting,
  lets queued and in-flight work finish (or deadlines it out after
  ``drain_timeout``), then joins the workers.  Scan worker processes
  live as long as the service, a tenant's shared-memory block
  (:class:`~repro.parallel.SharedTables`) as long as its registration;
  ``stop`` ends both, so a drained service holds no OS resources.

Scanning is CPU-bound Python, so workers are cooperating coroutines on
one loop: each yields between chunks, which is what makes deadlines,
fairness, and drain responsive without threads.  The clock is
injectable for deterministic tests.

* **Process-pool execution** — ``scan_workers=N`` (default 0 = in-loop)
  dispatches every primary-tier scan to long-lived worker *processes*
  (:mod:`repro.service.procpool`, on the :mod:`repro.parallel` plane),
  each on its own pipe watched by this loop, lifting the one-core
  ceiling while keeping all of the above.  The dispatch unit is a
  *span*: the rest of the request's bytes plus its checkpoint and
  absolute deadline.  The worker runs the same chunk
  loop, at the same chunk boundaries, and hands back at the first
  boundary past the deadline or a 5 ms hold quantum
  (:data:`~repro.service.procpool.SPAN_HOLD_S`); the request loop here
  re-reads the deadline between spans and resumes from the returned
  offset.  Deadlines therefore still interrupt at chunk boundaries,
  drain and fairness wait at most one quantum for a worker, spans of
  one request may land on different processes, results are
  bit-identical to ``scan_workers=0``, and a dead process surfaces as a
  retryable :class:`~repro.service.errors.WorkerCrashed` for the span
  it held, with that one process replaced.  An injected ``clock=`` or a
  ``set_scan_delay`` hook has to see every chunk boundary from this
  side, so then a span is exactly one chunk.
  Lazy-DFA tenants publish their packed kernel + warm DFA tables once
  through a :class:`~repro.parallel.SharedTables` block so workers
  rebuild zero-copy; other backends rebuild from the registration
  through the shared artifact cache.  The golden-fallback tier (breaker
  open) always runs in-loop — the reference interpreter must not depend
  on the machinery it is the fallback for.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import BoundedEventLog
from repro.backends.registry import create_backend, resolve_backend_name
from repro.backends.validation import require_bytes
from repro.core.design import CA_P, DesignPoint
from repro.engine import CacheAutomatonEngine
from repro.errors import ReproError
from repro.parallel import SharedTables
from repro.service.breaker import CircuitBreaker
from repro.service.errors import (
    DeadlineExceeded,
    Overloaded,
    ServiceClosed,
    StreamTooLarge,
    UnknownTenant,
    WorkerCrashed,
)
from repro.service.procpool import (
    ProcPoolScanExecutor,
    TenantWorkerSpec,
    worker_cache_spec,
)
from repro.sim.golden import Checkpoint, Report

#: Default per-chunk scan granularity — the deadline/fairness quantum.
DEFAULT_CHUNK_BYTES = 4096

#: Default bound on the shared admission queue.
DEFAULT_MAX_QUEUE = 64

#: Cap on retained latency samples (oldest dropped beyond this).
LATENCY_SAMPLE_LIMIT = 100_000


@dataclass(frozen=True)
class TenantLimits:
    """Per-tenant resource limits enforced at admission / construction.

    ``max_stream_bytes`` rejects oversized requests outright
    (:class:`StreamTooLarge`); ``max_in_flight`` bounds one tenant's
    queued + executing requests (:class:`Overloaded` beyond it);
    ``dfa_max_states`` caps the lazy-DFA backend's transition-cache
    state budget so one pathological ruleset cannot grow its DFA cache
    without limit (ignored by backends without a DFA cache; under the
    hybrid backend it caps each lazy-DFA group).
    """

    max_stream_bytes: int = 1 << 20
    max_in_flight: int = 8
    dfa_max_states: Optional[int] = None


@dataclass(frozen=True)
class ScanOutcome:
    """One successfully served scan."""

    tenant: str
    reports: Tuple[Report, ...]
    offset: int
    checkpoint: Optional[Checkpoint]
    served_by: str
    fallback: bool
    latency_s: float

    def report_rows(self) -> List[Tuple[int, str, Optional[str]]]:
        """(offset, ste_id, report_code) rows, for differential checks."""
        return [(r.offset, r.ste_id, r.report_code) for r in self.reports]


@dataclass
class ServiceMetrics:
    """Service-wide counters (per-tenant breakdowns live on the
    tenants; see :meth:`ScanService.metrics_snapshot`)."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    oversized: int = 0
    timeouts: int = 0
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    worker_restarts: int = 0
    fallback_scans: int = 0
    reloads: int = 0
    pool_respawns: int = 0
    pool_dispatches: int = 0
    pool_chunks: int = 0
    pool_cold_tables: int = 0
    pool_cold_rebuilds: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


_TENANT_COUNTERS = (
    "submitted",
    "completed",
    "failed",
    "shed",
    "oversized",
    "timeouts",
    "fallback_scans",
    "breaker_trips",
    "breaker_recoveries",
)


class _TenantState:
    """Everything the service holds per registered tenant."""

    def __init__(
        self,
        name: str,
        fingerprint: str,
        engine: CacheAutomatonEngine,
        limits: TenantLimits,
        breaker: CircuitBreaker,
    ):
        self.name = name
        self.fingerprint = fingerprint
        self.engine = engine
        self.limits = limits
        self.breaker = breaker
        self.queue: Deque["_Request"] = deque()
        self.in_flight = 0
        self.counters: Dict[str, int] = {key: 0 for key in _TENANT_COUNTERS}
        self._fallback = None
        #: Registration kwargs kept verbatim so worker processes can
        #: rebuild this tenant's engine (process-pool execution).
        self.registration: Dict[str, object] = {}
        #: Lazily built picklable spec + published shared-memory block
        #: for the process pool; reset on hot-reload.
        self.worker_spec: Optional[TenantWorkerSpec] = None
        self.shared: Optional[SharedTables] = None
        #: Chaos hooks (fault-injection harness): raise ``chaos_error``
        #: on the next ``chaos_faults`` primary scans; sleep
        #: ``chaos_delay`` seconds per chunk (a "slow tenant").
        self.chaos_faults = 0
        self.chaos_error: Exception = ReproError("injected fault")
        self.chaos_delay = 0.0

    def fallback(self):
        """The tenant's golden-fallback backend (built on first use).

        The reference interpreter scans from the automaton alone, so it
        cannot be poisoned by whatever degraded the primary; its adapter
        reads the artifact's placement only to translate checkpoints, so
        a stream the primary suspended resumes here."""
        if self._fallback is None:
            self._fallback = create_backend(
                "golden-interpreter", self.engine.artifact
            )
        return self._fallback

    def reset_backend_state(self):
        self._fallback = None
        self.worker_spec = None
        self.close_shared()

    def close_shared(self):
        if self.shared is not None:
            shared, self.shared = self.shared, None
            shared.close()


class _Request:
    """One admitted scan request moving through the queue."""

    __slots__ = (
        "tenant",
        "data",
        "resume",
        "deadline_at",
        "future",
        "submitted_at",
    )

    def __init__(self, tenant, data, resume, deadline_at, future, submitted_at):
        self.tenant = tenant
        self.data = data
        self.resume = resume
        self.deadline_at = deadline_at
        self.future = future
        self.submitted_at = submitted_at


def tenant_fingerprint(
    patterns: Sequence[str],
    *,
    design: DesignPoint,
    backend: Optional[str],
    stride,
    backend_options: Optional[Dict[str, object]],
) -> str:
    """Content hash of a tenant's registration; a changed fingerprint
    on re-registration triggers an engine hot-reload."""
    digest = hashlib.sha256()
    for pattern in patterns:
        digest.update(pattern.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(design.name.encode("utf-8"))
    digest.update(repr(backend).encode("utf-8"))
    digest.update(repr(stride).encode("utf-8"))
    digest.update(
        repr(sorted((backend_options or {}).items())).encode("utf-8")
    )
    return digest.hexdigest()


class ScanService:
    """Long-lived multi-tenant scan service (asyncio).

    Lifecycle: construct → :meth:`register` tenants (also allowed while
    running) → ``await start()`` → ``await scan(...)`` from any number
    of client coroutines → ``await stop()``.  ``async with`` does
    start/stop automatically.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        scan_workers: int = 0,
        max_queue: int = DEFAULT_MAX_QUEUE,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        default_deadline: Optional[float] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        cache="auto",
        clock: Callable[[], float] = time.monotonic,
        mp_method: Optional[str] = None,
    ):
        if workers < 1:
            raise ReproError(f"need at least one worker, got {workers}")
        if scan_workers < 0:
            raise ReproError(
                f"scan_workers must be >= 0, got {scan_workers}"
            )
        if max_queue < 1:
            raise ReproError(f"max_queue must be >= 1, got {max_queue}")
        if chunk_bytes < 1:
            raise ReproError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.worker_count = workers
        #: 0 = scan in-loop (PR 8 semantics, one core); N > 0 = dispatch
        #: primary-tier spans to N persistent worker processes.
        self.scan_workers = scan_workers
        self._procpool: Optional[ProcPoolScanExecutor] = None
        if scan_workers > 0:
            self._procpool = ProcPoolScanExecutor(
                scan_workers, mp_method=mp_method
            )
        self.max_queue = max_queue
        self.chunk_bytes = chunk_bytes
        self.default_deadline = default_deadline
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._cache = cache
        self._clock = clock
        self.metrics = ServiceMetrics()
        self.events = BoundedEventLog()
        self._tenants: Dict[str, _TenantState] = {}
        self._rr: List[str] = []
        self._rr_index = 0
        self._queued = 0
        self._executing = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_SAMPLE_LIMIT)
        self._cond: Optional[asyncio.Condition] = None
        self._executing_requests: List[_Request] = []
        self._workers: Dict[int, asyncio.Task] = {}
        self._accepting = False
        self._shutdown = False
        self._started = False

    # -- tenant registration -----------------------------------------------

    def register(
        self,
        name: str,
        patterns: Sequence[str],
        *,
        limits: Optional[TenantLimits] = None,
        design: DesignPoint = CA_P,
        backend: Optional[str] = None,
        stride=None,
        backend_options: Optional[Dict[str, object]] = None,
        compile_jobs=None,
    ) -> bool:
        """Register (or hot-reload) a tenant's pattern set.

        The engine is built through the artifact cache, so re-serving a
        previously compiled pattern set is a warm start.  Registering an
        existing tenant with an unchanged fingerprint is a no-op
        (returns ``False``); a changed fingerprint swaps in a freshly
        built engine atomically between requests (returns ``True``) —
        note that checkpoints issued by the old engine do not carry
        over.  ``limits.dfa_max_states`` caps the lazy-DFA backend's
        ``max_states`` cache budget when that backend is selected (a
        smaller ``backend_options["max_states"]`` stands, a larger one
        is cut down to it); under the hybrid backend the budget applies
        to every lazy-DFA group (other substrates ignore the option).
        """
        patterns = list(patterns)
        if not patterns:
            raise ReproError(f"tenant {name!r}: empty pattern set")
        limits = limits or TenantLimits()
        options = dict(backend_options or {})
        if (
            limits.dfa_max_states is not None
            and backend is not None
            and resolve_backend_name(backend) in ("lazy-dfa", "hybrid")
        ):
            # A cap, not a default: a budget the caller (or a client
            # frame) asks for is honoured only below the tenant's limit.
            cap, asked = limits.dfa_max_states, options.get("max_states")
            options["max_states"] = cap if asked is None else min(asked, cap)
        fingerprint = tenant_fingerprint(
            patterns,
            design=design,
            backend=backend,
            stride=stride,
            backend_options=options,
        )
        existing = self._tenants.get(name)
        if existing is not None and existing.fingerprint == fingerprint:
            existing.limits = limits
            return False
        engine = CacheAutomatonEngine.from_patterns(
            patterns,
            design=design,
            cache=self._cache,
            backend=backend,
            stride=stride,
            backend_options=options or None,
            compile_jobs=compile_jobs,
        )
        registration = {
            "patterns": tuple(patterns),
            "design": design,
            "backend": backend,
            "stride": stride,
            "backend_options": options,
            "compile_jobs": compile_jobs,
        }
        if existing is not None:
            existing.fingerprint = fingerprint
            existing.engine = engine
            existing.limits = limits
            existing.breaker = self._new_breaker()
            existing.registration = registration
            existing.reset_backend_state()
            self.metrics.reloads += 1
            self.events.append(
                f"tenant {name!r} hot-reloaded "
                f"(fingerprint {fingerprint[:12]}, "
                f"tier {engine.health().tier})"
            )
            return True
        state = _TenantState(
            name, fingerprint, engine, limits, self._new_breaker()
        )
        state.registration = registration
        self._tenants[name] = state
        self._rr.append(name)
        self.events.append(
            f"tenant {name!r} registered ({len(patterns)} pattern(s), "
            f"tier {engine.health().tier})"
        )
        return True

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            threshold=self.breaker_threshold,
            cooldown=self.breaker_cooldown,
            clock=self._clock,
        )

    def tenant_names(self) -> List[str]:
        return list(self._rr)

    def tenant_engine(self, name: str) -> CacheAutomatonEngine:
        return self._tenant(name).engine

    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            raise UnknownTenant(name)
        return state

    # -- chaos hooks (fault-injection harness) ------------------------------

    def inject_scan_faults(
        self, tenant: str, count: int, error: Optional[Exception] = None
    ) -> None:
        """Make the tenant's next ``count`` primary scans raise.

        Chaos hook for the load-generation harness and tests: the
        injected failures exercise the breaker trip → golden-fallback →
        recovery path deterministically.  Fallback-tier scans are never
        affected.
        """
        state = self._tenant(tenant)
        state.chaos_faults = count
        if error is not None:
            state.chaos_error = error

    def set_scan_delay(self, tenant: str, delay_s: float) -> None:
        """Chaos hook: sleep ``delay_s`` before each of the tenant's
        chunks — a "slow tenant" whose requests burn their deadlines
        without starving other tenants (workers yield while sleeping).
        """
        self._tenant(tenant).chaos_delay = max(0.0, delay_s)

    def crash_scan_process(self) -> Optional[int]:
        """Chaos hook: SIGKILL one scan worker *process* (returns its
        pid, or ``None`` without a process pool).

        The span it held, or else the next one dispatched, fails with
        a retryable :class:`WorkerCrashed` and that process is replaced
        — the process-level twin of :meth:`crash_worker`.
        """
        if self._procpool is None:
            return None
        return self._procpool.crash_one()

    def crash_worker(self, index: int = 0) -> bool:
        """Chaos hook: kill one worker task mid-flight.

        Its in-flight request (if any) fails with a retryable
        :class:`WorkerCrashed`; the supervisor restarts the worker and
        counts it.  Returns ``False`` when no such worker exists.
        """
        task = self._workers.get(index)
        if task is None or task.done():
            return False
        task.cancel()
        return True

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise ReproError("service already started")
        self._started = True
        self._accepting = True
        self._cond = asyncio.Condition()
        if self._procpool is not None:
            self._procpool.start()
        for index in range(self.worker_count):
            self._spawn_worker(index)
        self.events.append(
            f"service started: {self.worker_count} worker(s), "
            f"{self.scan_workers} scan process(es), "
            f"queue bound {self.max_queue}, chunk {self.chunk_bytes} B"
        )

    def _spawn_worker(self, index: int) -> None:
        task = asyncio.get_running_loop().create_task(
            self._worker_loop(), name=f"scan-worker-{index}"
        )
        self._workers[index] = task
        task.add_done_callback(
            lambda done, index=index: self._on_worker_done(index, done)
        )

    def _on_worker_done(self, index: int, task: asyncio.Task) -> None:
        if self._shutdown:
            return
        # Any exit before shutdown is a crash (cancellation included):
        # count it, log it, restart the slot.
        self.metrics.worker_restarts += 1
        self.events.append(f"worker {index} crashed; restarted")
        self._spawn_worker(index)
        asyncio.get_running_loop().create_task(self._poke())

    async def _poke(self) -> None:
        # Wake drain waiters after out-of-band state changes (a crashed
        # worker cannot notify on its own way out).
        async with self._cond:
            self._cond.notify_all()

    async def stop(self, *, drain_timeout: Optional[float] = None) -> None:
        """Graceful drain: stop admitting, finish (or deadline-out)
        pending work, join the workers.

        New requests are rejected with :class:`ServiceClosed` the moment
        this is called.  Queued and in-flight requests run to
        completion; if ``drain_timeout`` seconds pass first, every
        pending request's deadline is forced to *now*, so in-flight
        scans are interrupted at their next chunk boundary (on the
        process pool: when the span a worker holds comes back, at most
        the hold quantum later) with a :class:`DeadlineExceeded`
        carrying their partial progress.  A scan process that still
        holds its span a second ``drain_timeout`` after that is wedged:
        it is killed, which fails the span with :class:`WorkerCrashed`,
        so the drain is bounded whatever a worker does.  The pool is
        then shut down and every tenant's published
        :class:`~repro.parallel.SharedTables` block unlinked, so a
        stopped service holds no OS resources beyond the engines
        themselves.
        """
        if not self._started or self._shutdown:
            return
        self._accepting = False
        self.events.append("drain started: admission closed")
        async with self._cond:
            self._cond.notify_all()
            try:
                await asyncio.wait_for(
                    self._cond.wait_for(self._idle), drain_timeout
                )
            except asyncio.TimeoutError:
                expired = self._expire_pending()
                self.events.append(
                    f"drain timeout: deadlined {expired} pending request(s)"
                )
                if self._procpool is not None:
                    try:
                        await asyncio.wait_for(
                            self._cond.wait_for(self._idle), drain_timeout
                        )
                    except asyncio.TimeoutError:
                        killed = self._procpool.kill_busy()
                        if killed:
                            self.events.append(
                                f"drain timeout: killed {killed} wedged "
                                "scan process(es)"
                            )
                await self._cond.wait_for(self._idle)
            self._shutdown = True
            self._cond.notify_all()
        await asyncio.gather(
            *list(self._workers.values()), return_exceptions=True
        )
        if self._procpool is not None:
            self._procpool.shutdown()
        for state in self._tenants.values():
            state.close_shared()
        self.events.append("service stopped: drain complete")

    def _idle(self) -> bool:
        return self._queued == 0 and self._executing == 0

    def _expire_pending(self) -> int:
        now = self._clock()
        expired = 0
        for state in self._tenants.values():
            for request in state.queue:
                request.deadline_at = now
                expired += 1
        # In-flight requests read ``deadline_at`` at every chunk
        # boundary, so flipping it interrupts them too.
        for request in self._executing_requests:
            request.deadline_at = now
            expired += 1
        return expired

    async def __aenter__(self) -> "ScanService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- admission ----------------------------------------------------------

    async def scan(
        self,
        tenant: str,
        data: bytes,
        *,
        deadline: Optional[float] = None,
        resume: Optional[Checkpoint] = None,
    ) -> ScanOutcome:
        """Admit one scan request and await its outcome.

        ``deadline`` is the request's time budget in seconds (``None``
        uses the service default; that too being ``None`` means
        unbounded).  ``resume`` continues a previous stream — pass the
        checkpoint from an earlier outcome (or from a
        :class:`DeadlineExceeded`) together with the remaining bytes.

        Raises the typed service errors documented in
        :mod:`repro.service.errors`; transient ones
        (``Overloaded``, ``WorkerCrashed``) carry ``retryable=True``
        for the backoff-retrying client.
        """
        async with self._cond_or_closed():
            future = self._admit(tenant, data, deadline, resume)
            self._cond.notify()
        return await future

    def _cond_or_closed(self) -> asyncio.Condition:
        if self._cond is None:
            raise ServiceClosed("service was never started")
        return self._cond

    def _admit(self, tenant, data, deadline, resume) -> "asyncio.Future":
        self.metrics.submitted += 1
        if not self._accepting:
            raise ServiceClosed()
        state = self._tenant(tenant)
        state.counters["submitted"] += 1
        require_bytes(data, f"scan stream for tenant {tenant!r}")
        if len(data) > state.limits.max_stream_bytes:
            self.metrics.oversized += 1
            state.counters["oversized"] += 1
            raise StreamTooLarge(
                tenant, len(data), state.limits.max_stream_bytes
            )
        if state.in_flight >= state.limits.max_in_flight:
            self.metrics.shed += 1
            state.counters["shed"] += 1
            raise Overloaded(
                tenant,
                f"tenant in-flight limit reached "
                f"({state.limits.max_in_flight})",
            )
        if self._queued >= self.max_queue:
            self.metrics.shed += 1
            state.counters["shed"] += 1
            raise Overloaded(
                tenant, f"admission queue full ({self.max_queue})"
            )
        if deadline is None:
            deadline = self.default_deadline
        now = self._clock()
        deadline_at = None if deadline is None else now + deadline
        future = asyncio.get_running_loop().create_future()
        request = _Request(tenant, data, resume, deadline_at, future, now)
        state.queue.append(request)
        state.in_flight += 1
        self._queued += 1
        self.metrics.admitted += 1
        return future

    # -- execution ----------------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            async with self._cond:
                request = None
                while True:
                    request = self._pop_next()
                    if request is not None:
                        self._executing += 1
                        break
                    if self._shutdown:
                        return
                    await self._cond.wait()
            try:
                await self._execute(request)
            finally:
                # Wake drain waiters and idle peers even if _execute
                # re-raised a cancellation (shield the lock handshake
                # from the pending cancellation so the notify lands).
                await asyncio.shield(self._poke())

    def _pop_next(self) -> Optional[_Request]:
        """Fair dequeue: round-robin across tenants with pending work."""
        count = len(self._rr)
        for step in range(1, count + 1):
            index = (self._rr_index + step) % count
            state = self._tenants[self._rr[index]]
            if state.queue:
                self._rr_index = index
                self._queued -= 1
                return state.queue.popleft()
        return None

    async def _execute(self, request: _Request) -> None:
        state = self._tenants[request.tenant]
        self._executing_requests.append(request)
        try:
            outcome = await self._scan_request(state, request)
        except asyncio.CancelledError:
            self.metrics.failed += 1
            state.counters["failed"] += 1
            if not request.future.done():
                request.future.set_exception(WorkerCrashed(state.name))
            raise
        except DeadlineExceeded as error:
            self.metrics.timeouts += 1
            state.counters["timeouts"] += 1
            if not request.future.done():
                request.future.set_exception(error)
        except Exception as error:
            self.metrics.failed += 1
            state.counters["failed"] += 1
            if not request.future.done():
                request.future.set_exception(error)
        else:
            self.metrics.completed += 1
            state.counters["completed"] += 1
            self._latencies.append(outcome.latency_s)
            if not request.future.done():
                request.future.set_result(outcome)
        finally:
            state.in_flight -= 1
            self._executing -= 1
            self._executing_requests.remove(request)

    async def _scan_request(
        self, state: _TenantState, request: _Request
    ) -> ScanOutcome:
        """Chunked scan with deadline checks at every chunk boundary
        (in-loop) or between spans and, worker-side, at every chunk
        boundary within one (process pool)."""
        breaker = state.breaker
        on_primary = breaker.allow_primary()
        if on_primary:
            backend = state.engine.backend
            health_before = state.engine.health_event_count()
        else:
            backend = state.fallback()
            self.metrics.fallback_scans += 1
            state.counters["fallback_scans"] += 1
        # Primary-tier scans go to the process pool when one is
        # configured; the golden-fallback tier always scans in-loop.
        pool = self._procpool if on_primary else None
        spec = self._tenant_worker_spec(state) if pool is not None else None
        loop = asyncio.get_running_loop() if pool is not None else None
        data = request.data
        checkpoint = request.resume
        base = 0 if checkpoint is None else checkpoint.symbols_processed
        reports: List[Report] = []
        position = 0
        worker_degrades = 0
        try:
            while position < len(data):
                if (
                    request.deadline_at is not None
                    and self._clock() >= request.deadline_at
                ):
                    raise DeadlineExceeded(
                        state.name,
                        offset=base + position,
                        reports=reports,
                        checkpoint=checkpoint,
                    )
                if on_primary and state.chaos_faults > 0:
                    state.chaos_faults -= 1
                    raise state.chaos_error
                if state.chaos_delay:
                    await asyncio.sleep(state.chaos_delay)
                if pool is None:
                    piece = data[position : position + self.chunk_bytes]
                    result = backend.scan(piece, resume=checkpoint)
                    position += len(piece)
                else:
                    # A worker holds a span for up to the hold quantum
                    # on its own monotonic clock.  An injected clock or
                    # a per-chunk delay has to see every chunk boundary
                    # from here, so then the span is one chunk.  (An
                    # armed fault never gets this far: it was raised
                    # two statements up.)
                    if self._clock is time.monotonic and not state.chaos_delay:
                        span, deadline_at = data[position:], request.deadline_at
                    else:
                        span = data[position : position + self.chunk_bytes]
                        deadline_at = None
                    result = await pool.scan_span(
                        loop, spec, backend, span, checkpoint,
                        self.chunk_bytes, deadline_at,
                    )
                    position += result.consumed
                    # The parent's engine did not scan: what degraded,
                    # degraded in the worker.
                    worker_degrades += result.degrades
                    if result.tables_error is not None:
                        self.events.append(
                            f"tenant {state.name!r}: scan process could "
                            "not use the published tables "
                            f"({result.tables_error}); engine rebuilt"
                        )
                checkpoint = result.checkpoint
                reports.extend(result.reports)
                # Yield between chunks (spans): this is what keeps
                # deadlines, fairness, and drain responsive on one
                # event loop.
                await asyncio.sleep(0)
        except DeadlineExceeded:
            raise
        except asyncio.CancelledError:
            raise
        except WorkerCrashed:
            # A dead scan process is an infrastructure fault, not a
            # tenant fault: surface the retryable error (the process
            # has already been replaced) without charging the breaker.
            self.events.append(
                f"scan process died serving tenant {state.name!r}; "
                "process replaced"
            )
            raise
        except Exception:
            if on_primary and breaker.record_failure():
                self._note_trip(state)
            raise
        if on_primary:
            degrades = (
                state.engine.health_event_count() - health_before
                + worker_degrades
            )
            if degrades > 0:
                self.events.append(
                    f"tenant {state.name!r}: {degrades} engine degrade "
                    "event(s) observed during scan"
                )
                if breaker.record_failure(degrades):
                    self._note_trip(state)
            elif breaker.record_success():
                self._note_recovery(state)
        return ScanOutcome(
            tenant=state.name,
            reports=tuple(reports),
            offset=base + position,
            checkpoint=checkpoint,
            served_by=backend.name,
            fallback=not on_primary,
            latency_s=self._clock() - request.submitted_at,
        )

    def _tenant_worker_spec(self, state: _TenantState) -> TenantWorkerSpec:
        """The tenant's picklable spec for worker processes (cached).

        Built on first process-pool scan: backends exposing
        ``share_tables``/``materialise_raw`` (lazy-DFA) additionally
        publish their tables through one shared-memory block, held for
        the tenant's lifetime and released on hot-reload or drain.
        """
        if state.worker_spec is None:
            registration = state.registration
            options = dict(registration.get("backend_options") or {})
            backend = state.engine.backend
            shm_meta = None
            if hasattr(backend, "share_tables") and hasattr(
                backend, "materialise_raw"
            ):
                state.shared = SharedTables(backend.share_tables())
                shm_meta = state.shared.meta
            state.worker_spec = TenantWorkerSpec(
                tenant=state.name,
                fingerprint=state.fingerprint,
                patterns=tuple(registration["patterns"]),
                design=registration["design"],
                backend=registration["backend"],
                stride=registration["stride"],
                backend_options=tuple(sorted(options.items())),
                compile_jobs=registration["compile_jobs"],
                cache=worker_cache_spec(self._cache),
                dfa_max_states=options.get("max_states"),
                shm_meta=shm_meta,
            )
        return state.worker_spec

    def _note_trip(self, state: _TenantState) -> None:
        self.metrics.breaker_trips += 1
        state.counters["breaker_trips"] += 1
        self.events.append(
            f"circuit OPEN for tenant {state.name!r} after "
            f"{state.breaker.failures} failure signal(s); "
            "golden-fallback tier serving"
        )

    def _note_recovery(self, state: _TenantState) -> None:
        self.metrics.breaker_recoveries += 1
        state.counters["breaker_recoveries"] += 1
        self.events.append(
            f"circuit CLOSED for tenant {state.name!r}: "
            "recovery probe succeeded"
        )

    # -- observability -------------------------------------------------------

    def breaker_state(self, tenant: str) -> str:
        return self._tenant(tenant).breaker.state

    def latencies(self) -> Tuple[float, ...]:
        """Latency samples (seconds) of completed requests, in order."""
        return tuple(self._latencies)

    def metrics_snapshot(self) -> Dict[str, object]:
        """Counters, queue gauges, breaker states, and recent events."""
        if self._procpool is not None:
            self.metrics.pool_respawns = self._procpool.respawns
            self.metrics.pool_dispatches = self._procpool.dispatched
            self.metrics.pool_chunks = self._procpool.chunks
            self.metrics.pool_cold_tables = self._procpool.cold_tables
            self.metrics.pool_cold_rebuilds = self._procpool.cold_rebuilds
        return {
            **self.metrics.as_dict(),
            "scan_workers": self.scan_workers,
            "queued": self._queued,
            "executing": self._executing,
            "tenants": {
                name: {
                    **state.counters,
                    "in_flight": state.in_flight,
                    "breaker": state.breaker.state,
                }
                for name, state in self._tenants.items()
            },
            "events_dropped": self.events.dropped,
            "events": list(self.events),
        }
