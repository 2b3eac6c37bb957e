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
  live as long as the service and ``stop`` ends them, so a drained
  service holds no OS resources.

Scanning is CPU-bound Python, so workers are cooperating coroutines on
one loop: each yields between *spans* — whole chunks scanned until the
request's deadline or the hold quantum (``procpool.SPAN_HOLD_S``) has
passed — which is what makes deadlines, fairness, and drain responsive
without threads.  The clock is injectable for deterministic tests (an
injected clock makes every span one chunk).

* **Process-pool execution** — ``scan_workers=N`` (default 0 = in-loop)
  dispatches every primary-tier scan to long-lived worker *processes*,
  lifting the one-core ceiling while keeping all of the above.  The
  request loop asks its plane for one *span* at a time and resumes from
  the reply; :mod:`repro.service.procpool` defines the span, the one
  chunk loop both planes run, and what bounds the time a span holds a
  worker or the loop.  Results are bit-identical to ``scan_workers=0``,
  and a dead process surfaces as a retryable
  :class:`~repro.service.errors.WorkerCrashed` for the span it held,
  with that one process replaced.  The golden-fallback tier (breaker
  open) always runs in-loop — the reference interpreter must not depend
  on the machinery it is the fallback for.

Three values cross the boundaries (caller or wire → service → worker and
back), each defined once: a tenant's :class:`TenantRegistration` (here),
a span's :class:`~repro.service.procpool.SpanReply`, and a response — a
:class:`ScanOutcome` (here) or a :mod:`~repro.service.errors` class —
whose wire form :mod:`repro.service.net` derives from the type.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.backends.base import BoundedEventLog
from repro.backends.registry import create_backend, resolve_backend_name
from repro.backends.validation import require_bytes
from repro.compiler.cache import design_fingerprint
from repro.core.design import CA_P, DesignPoint
from repro.engine import CacheAutomatonEngine
from repro.errors import ReproError
from repro.service.breaker import CircuitBreaker
from repro.service.errors import (
    DeadlineExceeded,
    Overloaded,
    ProtocolError,
    ServiceClosed,
    StreamTooLarge,
    UnknownTenant,
    WorkerCrashed,
)
from repro.service.procpool import (
    POOL_COUNTERS,
    BackendSpans,
    ProcPoolScanExecutor,
    TenantWorkerSpec,
    scan_span_inloop,
    span_scanner,
    worker_cache_spec,
)
from repro.sim.golden import Checkpoint, Report

#: Default per-chunk scan granularity: chunks are where a deadline can
#: cut a scan and where a checkpoint falls.  Fairness between requests is
#: the hold quantum's, ``procpool.SPAN_HOLD_S``: a span scans whole
#: chunks until that much time has passed.
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
    without limit (ignored by backends without a DFA cache).
    """

    max_stream_bytes: int = 1 << 20
    max_in_flight: int = 8
    dfa_max_states: Optional[int] = None


@dataclass(frozen=True)
class TenantRegistration:
    """What a tenant registered — everything its engine is built from,
    as one value from :meth:`ScanService.register` or a ``register``
    frame to every scan worker that serves the tenant."""

    patterns: Tuple[str, ...]
    design: DesignPoint = CA_P
    backend: Optional[str] = None
    stride: object = None
    backend_options: Mapping[str, object] = field(default_factory=dict)
    compile_jobs: object = None

    _WIRE_FIELDS = ("patterns", "backend", "stride", "backend_options")

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of what decides the engine's behaviour (not
        ``compile_jobs``): a changed fingerprint on re-registration
        triggers a hot-reload, and workers key their engines by it."""
        payload = json.dumps(
            [
                list(self.patterns), design_fingerprint(self.design),
                self.backend, self.stride, self.backend_options,
            ],
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def build_engine(self, cache) -> CacheAutomatonEngine:
        """The engine this registration describes, through the artifact
        cache — the service's and every worker's, so they cannot differ."""
        return CacheAutomatonEngine.from_patterns(
            list(self.patterns),
            design=self.design,
            cache=cache,
            backend=self.backend,
            stride=self.stride,
            backend_options=dict(self.backend_options) or None,
            compile_jobs=self.compile_jobs,
        )

    def to_wire(self) -> Dict[str, object]:
        """The ``register`` frame's fields; ``design`` and
        ``compile_jobs`` are the server's to choose and do not travel."""
        return {name: getattr(self, name) for name in self._WIRE_FIELDS}

    @classmethod
    def from_wire(cls, header: Mapping[str, object]) -> "TenantRegistration":
        sent = {
            name: header[name]
            for name in cls._WIRE_FIELDS
            if header.get(name) is not None
        }
        patterns = sent.get("patterns")
        if not isinstance(patterns, list) or not all(
            isinstance(pattern, str) for pattern in patterns
        ):
            raise ProtocolError("register needs patterns[] of strings")
        if not isinstance(sent.get("backend_options", {}), dict):
            raise ProtocolError("backend_options must be an object")
        return cls(**{**sent, "patterns": tuple(patterns)})


@dataclass(frozen=True)
class ScanOutcome:
    """One successfully served scan; its fields are the response
    header's (:mod:`repro.service.net`)."""

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


#: Every event the service counts, by name: per tenant and service-wide
#: (the keys of a :meth:`ScanService.metrics_snapshot` tenant row), then
#: service-wide only (with them, the attributes of
#: :class:`ServiceMetrics` and the snapshot's own counter keys).
TENANT_COUNTERS = (
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
SERVICE_COUNTERS = TENANT_COUNTERS + ("admitted", "worker_restarts", "reloads")


class ServiceMetrics:
    """Service-wide counters, one attribute per :data:`SERVICE_COUNTERS`
    name (per-tenant breakdowns live on the tenants; see
    :meth:`ScanService.metrics_snapshot`)."""

    def __init__(self):
        vars(self).update(dict.fromkeys(SERVICE_COUNTERS, 0))

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class _TenantState:
    """Everything the service holds per registered tenant."""

    def __init__(
        self,
        name: str,
        registration: TenantRegistration,
        engine: CacheAutomatonEngine,
        limits: TenantLimits,
        breaker: CircuitBreaker,
    ):
        self.name = name
        #: Kept so worker processes can rebuild this tenant's engine.
        self.registration = registration
        self.engine = engine
        self.limits = limits
        self.breaker = breaker
        self.queue: Deque["_Request"] = deque()
        self.in_flight = 0
        self.counters: Dict[str, int] = dict.fromkeys(TENANT_COUNTERS, 0)
        self._fallback = None
        #: Lazily built picklable spec for the process pool; reset on
        #: hot-reload.
        self.worker_spec: Optional[TenantWorkerSpec] = None
        #: Chaos hooks (fault-injection harness): raise ``chaos_error``
        #: on the next ``chaos_faults`` primary scans; sleep
        #: ``chaos_delay`` seconds per chunk (a "slow tenant").
        self.chaos_faults = 0
        self.chaos_error: Exception = ReproError("injected fault")
        self.chaos_delay = 0.0

    def primary(self):
        """The tenant's engine, as the span planes scan on it."""
        return span_scanner(self.engine.backend, self.engine.health_event_count)

    def fallback(self) -> BackendSpans:
        """The tenant's golden-fallback backend (built on first use).

        The reference interpreter scans from the automaton alone, so it
        cannot be poisoned by whatever degraded the primary; its adapter
        reads the artifact's placement only to translate checkpoints, so
        a stream the primary suspended resumes here."""
        if self._fallback is None:
            self._fallback = BackendSpans(
                create_backend("golden-interpreter", self.engine.artifact)
            )
        return self._fallback

    def reset_backend_state(self):
        self._fallback = None
        self.worker_spec = None


@dataclass(slots=True, eq=False)
class _Request:
    """One admitted scan request moving through the queue (compared by
    identity: the executing list removes *this* request)."""

    tenant: str
    data: bytes
    resume: Optional[Checkpoint]
    deadline_at: Optional[float]
    future: "asyncio.Future"
    submitted_at: float


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
        is cut down to it; other substrates ignore the option).
        """
        registration = TenantRegistration(
            tuple(patterns), design, backend, stride,
            dict(backend_options or {}), compile_jobs,
        )
        return self.install(name, registration, limits=limits)

    def install(
        self,
        name: str,
        registration: TenantRegistration,
        *,
        limits: Optional[TenantLimits] = None,
    ) -> bool:
        """:meth:`register`, for a caller that holds the registration as
        one value (the network front end, off a ``register`` frame)."""
        if not registration.patterns:
            raise ReproError(f"tenant {name!r}: empty pattern set")
        limits = limits or TenantLimits()
        cap = limits.dfa_max_states
        if (
            cap is not None
            and registration.backend is not None
            and resolve_backend_name(registration.backend) == "lazy-dfa"
        ):
            # A cap, not a default: a budget the caller (or a client
            # frame) asks for is honoured only below the tenant's limit.
            options = dict(registration.backend_options)
            asked = options.get("max_states")
            options["max_states"] = cap if asked is None else min(asked, cap)
            registration = replace(registration, backend_options=options)
        fingerprint = registration.fingerprint
        existing = self._tenants.get(name)
        if (
            existing is not None
            and existing.registration.fingerprint == fingerprint
        ):
            existing.limits = limits
            return False
        engine = registration.build_engine(self._cache)
        if existing is not None:
            existing.registration = registration
            existing.engine = engine
            existing.limits = limits
            existing.breaker = self._new_breaker()
            existing.reset_backend_state()
            self._count(None, "reloads")
            self.events.append(
                f"tenant {name!r} hot-reloaded "
                f"(fingerprint {fingerprint[:12]}, "
                f"tier {engine.health().tier})"
            )
            return True
        self._tenants[name] = _TenantState(
            name, registration, engine, limits, self._new_breaker()
        )
        self._rr.append(name)
        self.events.append(
            f"tenant {name!r} registered "
            f"({len(registration.patterns)} pattern(s), "
            f"tier {engine.health().tier})"
        )
        return True

    def _count(self, state: Optional[_TenantState], name: str) -> None:
        """One more ``name`` event, service-wide and on ``state``."""
        vars(self.metrics)[name] += 1
        if state is not None:
            state.counters[name] += 1

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
        self._count(None, "worker_restarts")
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
        then shut down, so a stopped service holds no OS resources
        beyond the engines themselves.
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
        # A closed service counts the request without looking at it.
        state = self._tenants.get(tenant) if self._accepting else None
        self._count(state, "submitted")
        if not self._accepting:
            raise ServiceClosed()
        if state is None:
            raise UnknownTenant(tenant)
        require_bytes(data, f"scan stream for tenant {tenant!r}")
        if len(data) > state.limits.max_stream_bytes:
            self._count(state, "oversized")
            raise StreamTooLarge(
                tenant, len(data), state.limits.max_stream_bytes
            )
        if state.in_flight >= state.limits.max_in_flight:
            self._count(state, "shed")
            raise Overloaded(
                tenant,
                f"tenant in-flight limit reached "
                f"({state.limits.max_in_flight})",
            )
        if self._queued >= self.max_queue:
            self._count(state, "shed")
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
        self._count(None, "admitted")
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
            self._count(state, "failed")
            if not request.future.done():
                request.future.set_exception(WorkerCrashed(state.name))
            raise
        except Exception as error:
            timed_out = isinstance(error, DeadlineExceeded)
            self._count(state, "timeouts" if timed_out else "failed")
            if not request.future.done():
                request.future.set_exception(error)
        else:
            self._count(state, "completed")
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
        """One request, a span at a time: deadline checks between spans
        here and, within a span a worker holds, at every chunk boundary
        there."""
        breaker = state.breaker
        on_primary = breaker.allow_primary()
        if on_primary:
            scanner = state.primary()
        else:
            scanner = state.fallback()
            self._count(state, "fallback_scans")
        # Primary-tier spans go to the process pool when one is
        # configured; the golden-fallback tier always scans in-loop.
        pooled = on_primary and self._procpool is not None
        scan_span = self._procpool.scan_span if pooled else scan_span_inloop
        spec = self._tenant_worker_spec(state) if pooled else None
        # A span holds its scanner — a worker, or this loop — for up to
        # the hold quantum on the monotonic clock, on either plane.  An
        # injected clock or a per-chunk delay has to see every chunk
        # boundary from here, so then the span is one chunk.  (An armed
        # fault never gets as far as a span: it is raised two statements
        # before.)
        whole_spans = self._clock is time.monotonic
        data = request.data
        checkpoint = request.resume
        base = 0 if checkpoint is None else checkpoint.symbols_processed
        reports: List[Report] = []
        position = degrades = 0
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
                if whole_spans and not state.chaos_delay:
                    span, deadline_at = data[position:], request.deadline_at
                else:
                    span = data[position : position + self.chunk_bytes]
                    deadline_at = None
                reply = await scan_span(
                    scanner, spec, span, checkpoint,
                    self.chunk_bytes, deadline_at,
                )
                position += reply.consumed
                checkpoint = reply.checkpoint
                reports.extend(reply.reports)
                # What degraded, degraded where the span was scanned.
                degrades += reply.degrades
                if reply.tables_error is not None:
                    self.events.append(
                        f"tenant {state.name!r}: scan process could "
                        "not use the tenant's tables "
                        f"({reply.tables_error}); engine rebuilt"
                    )
                # Yield between spans: this is what keeps deadlines,
                # fairness, and drain responsive on one event loop.
                await asyncio.sleep(0)
        except DeadlineExceeded:
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
            served_by=scanner.backend.name,
            fallback=not on_primary,
            latency_s=self._clock() - request.submitted_at,
        )

    def _tenant_worker_spec(self, state: _TenantState) -> TenantWorkerSpec:
        """The tenant's picklable spec for worker processes (cached).

        Built on first process-pool scan: a backend with tables to share
        (lazy-DFA) puts them in the spec, which a worker receives once
        per engine it builds; hot reload drops the spec.
        """
        if state.worker_spec is None:
            state.worker_spec = TenantWorkerSpec(
                state.name,
                state.registration,
                worker_cache_spec(self._cache),
                state.engine.backend.share_tables() or None,
            )
        return state.worker_spec

    def _note_trip(self, state: _TenantState) -> None:
        self._count(state, "breaker_trips")
        self.events.append(
            f"circuit OPEN for tenant {state.name!r} after "
            f"{state.breaker.failures} failure signal(s); "
            "golden-fallback tier serving"
        )

    def _note_recovery(self, state: _TenantState) -> None:
        self._count(state, "breaker_recoveries")
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
        return {
            **self.metrics.as_dict(),
            # Zeros without a pool: None has no such attribute.
            **{
                key: getattr(self._procpool, attribute, 0)
                for key, attribute in POOL_COUNTERS.items()
            },
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
