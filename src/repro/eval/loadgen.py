"""Open-loop load generation + observability for the scan service.

Drives a :class:`~repro.service.service.ScanService` with concurrent
clients arriving on a fixed open-loop schedule (arrivals do not wait
for completions — queueing delay is *measured*, not hidden), optionally
injecting faults mid-run:

* **worker kill** — one service worker task is cancelled mid-flight;
  its request fails retryably and the supervisor restarts the slot;
* **slow tenant** — one tenant's chunks are artificially delayed so its
  requests burn their deadlines, demonstrating per-tenant isolation
  (round-robin dequeue keeps the other tenants' latency bounded);
* **oversized stream** — periodic requests exceed the tenant's
  ``max_stream_bytes`` and are rejected with a typed error;
* **backend faults** — injected primary-scan errors trip the tenant's
  circuit breaker open (golden-fallback tier serves) and the
  cooldown-gated probe recovers it within the run.

Each run produces one :class:`RunRecord` — a flat row in the style of a
benchmark run table (throughput_rps, avg/p50/p95/p99 latency — global
*and* per tenant — failure/shed/timeout/retry counters, breaker and
worker events) — which ``repro loadgen`` prints and
``tests/test_loadgen.py`` gates on (zero unhandled exceptions, breaker
trip *and* recovery, shed or retried requests under faults).  It is a
chaos harness, not the benchmark: performance numbers come from
``benchmarks/e2e`` (``BENCHMARK.json``).

The execution plane and transport are configurable so the same
open-loop schedule can compare serving modes like-for-like:

* ``scan_workers=N`` runs the service with the process-pool scan
  executor (:mod:`repro.service.procpool`; 0 = in-loop);
* ``transport="tcp"`` drives the requests through a real socket — a
  local :class:`~repro.service.net.ScanServer` is started on
  ``127.0.0.1`` and every request crosses the framed wire protocol via
  :class:`~repro.service.net.NetScanClient`;
* ``connect=(host, port)`` targets an *external* already-running
  ``repro serve`` instead (tenants are registered over the wire;
  fault injection requires a local service and is rejected).
"""

from __future__ import annotations

import asyncio
import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, SimulationError
from repro.service import (
    ConnectionLost,
    DeadlineExceeded,
    NetScanClient,
    Overloaded,
    RetryingClient,
    ScanServer,
    ScanService,
    ServiceError,
    StreamTooLarge,
    TENANT_COUNTERS,
    TenantLimits,
    WorkerCrashed,
)
from repro.workloads.inputs import LOWERCASE, random_over_alphabet

#: Run-row schema generation: bumped when the run table gains required
#: columns (2 = scan_workers/transport/pool_respawns + per-tenant
#: latency percentiles); ``tests/test_loadgen.py`` pins the row keys.
RUN_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's traffic shape for a loadgen run."""

    name: str
    patterns: Tuple[str, ...] = ("cat", "dog+", "ba[rt]")
    rate_rps: float = 25.0
    stream_bytes: int = 2048
    deadline_s: Optional[float] = 0.5
    max_stream_bytes: int = 1 << 16
    max_in_flight: int = 4
    dfa_max_states: Optional[int] = 512
    backend: str = "lazy-dfa"

    def limits(self) -> TenantLimits:
        return TenantLimits(
            max_stream_bytes=self.max_stream_bytes,
            max_in_flight=self.max_in_flight,
            dfa_max_states=self.dfa_max_states,
        )


@dataclass(frozen=True)
class FaultPlan:
    """What to break, and when (seconds into the run)."""

    worker_kill_at: Optional[float] = None
    oversized_every: int = 0
    oversized_tenant: Optional[str] = None
    slow_tenant: Optional[str] = None
    slow_delay_s: float = 0.02
    flaky_tenant: Optional[str] = None
    flaky_faults: int = 0
    flaky_at: float = 0.0

    def active(self) -> List[str]:
        kinds = []
        if self.worker_kill_at is not None:
            kinds.append("worker-kill")
        if self.oversized_every:
            kinds.append("oversized-stream")
        if self.slow_tenant:
            kinds.append("slow-tenant")
        if self.flaky_faults:
            kinds.append("backend-error")
        return kinds


@dataclass(frozen=True)
class LoadgenConfig:
    """One loadgen run: service shape, tenant mix, fault plan."""

    tenants: Tuple[TenantProfile, ...]
    duration_s: float = 2.0
    workers: int = 2
    #: Scan worker *processes* (0 = in-loop coroutine scanning).
    scan_workers: int = 0
    #: "inproc" calls the service object directly; "tcp" drives every
    #: request through the framed socket protocol.
    transport: str = "inproc"
    #: (host, port) of an external ``repro serve`` (tcp only); ``None``
    #: starts a loopback server in-process.
    connect: Optional[Tuple[str, int]] = None
    max_queue: int = 32
    chunk_bytes: int = 1024
    breaker_threshold: int = 2
    breaker_cooldown: float = 0.3
    drain_timeout: float = 2.0
    seed: int = 7
    label: str = "loadgen"
    scenario: str = "baseline"
    faults: FaultPlan = field(default_factory=FaultPlan)
    cache: object = False


@dataclass
class RunRecord:
    """One row of the service run table."""

    run_id: str
    label: str
    scenario: str
    seed: int
    duration_s: float
    workers: int
    scan_workers: int
    transport: str
    max_queue: int
    chunk_bytes: int
    tenants: int
    faults: List[str]
    schema_version: int
    requests_sent: int
    completed: int
    failed: int
    shed: int
    timeouts: int
    oversized: int
    retried: int
    retry_exhausted: int
    unhandled_exceptions: int
    throughput_rps: float
    latency_avg_ms: Optional[float]
    latency_p50_ms: Optional[float]
    latency_p95_ms: Optional[float]
    latency_p99_ms: Optional[float]
    failure_rate: float
    fallback_scans: int
    breaker_trips: int
    breaker_recoveries: int
    breaker_recovered: bool
    worker_restarts: int
    pool_respawns: int
    degrade_events: int
    events_dropped: int
    #: Per-tenant counters + breaker state + latency percentiles
    #: (latency_p50_ms/p95_ms/p99_ms from that tenant's own samples).
    per_tenant: Dict[str, Dict[str, object]]

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in [0, 100]); ``None`` on no samples."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def _tenant_stream(profile: TenantProfile, seed: int) -> bytes:
    """Deterministic input with planted pattern literals, so scans do
    real match work instead of idling through random bytes."""
    data = bytearray(
        random_over_alphabet(profile.stream_bytes, LOWERCASE, seed=seed)
    )
    rng = random.Random(seed ^ 0x5EED)
    literals = [
        pattern.encode("ascii")
        for pattern in profile.patterns
        if pattern.isalnum()
    ] or [b"cat"]
    step = max(16, profile.stream_bytes // 32)
    for position in range(0, max(1, len(data) - 8), step):
        literal = literals[rng.randrange(len(literals))]
        data[position : position + len(literal)] = literal
    return bytes(data)


def _validate_transport(config: LoadgenConfig) -> None:
    if config.transport not in ("inproc", "tcp"):
        raise ReproError(
            f"unknown loadgen transport {config.transport!r} "
            "(expected 'inproc' or 'tcp')"
        )
    if config.connect is not None:
        if config.transport != "tcp":
            raise ReproError("connect= requires transport='tcp'")
        if config.faults.active():
            raise ReproError(
                "fault injection needs a local service; it cannot drive "
                "an external server (drop connect= or the fault plan)"
            )


async def _drive(config: LoadgenConfig) -> RunRecord:
    _validate_transport(config)
    external = config.connect is not None
    service: Optional[ScanService] = None
    server: Optional[ScanServer] = None
    net: Optional[NetScanClient] = None
    if not external:
        service = ScanService(
            workers=config.workers,
            scan_workers=config.scan_workers,
            max_queue=config.max_queue,
            chunk_bytes=config.chunk_bytes,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown,
            cache=config.cache,
        )
        for profile in config.tenants:
            service.register(
                profile.name,
                list(profile.patterns),
                limits=profile.limits(),
                backend=profile.backend,
            )
        await service.start()

    try:
        if config.transport == "tcp":
            if external:
                host, port = config.connect
            else:
                server = ScanServer(service)
                await server.start()
                host, port = server.address
            net = await NetScanClient.connect(host, port, timeout=10.0)
            if external:
                # The remote service never saw these tenants: register
                # over the wire (idempotent for unchanged fingerprints).
                for profile in config.tenants:
                    await net.register(
                        profile.name,
                        list(profile.patterns),
                        limits=profile.limits(),
                        backend=profile.backend,
                    )
            scan_target = net
        else:
            scan_target = service

        async def snapshot_now() -> Dict[str, object]:
            if external:
                return await net.health()
            return service.metrics_snapshot()

        before = await snapshot_now()
        client = RetryingClient(
            scan_target,
            max_attempts=4,
            base_delay=0.01,
            max_delay=0.1,
            rng=random.Random(config.seed),
        )
        streams = {
            profile.name: _tenant_stream(profile, config.seed)
            for profile in config.tenants
        }
        faults = config.faults
        latencies: List[float] = []
        tenant_latencies: Dict[str, List[float]] = {
            profile.name: [] for profile in config.tenants
        }
        counters = {
            "sent": 0,
            "completed": 0,
            "failed": 0,
            "timeouts": 0,
            "oversized": 0,
            "shed_abandoned": 0,
            "unhandled": 0,
        }

        loop = asyncio.get_running_loop()
        epoch = loop.time()

        async def one_request(profile: TenantProfile, index: int, at: float):
            counters["sent"] += 1
            data = streams[profile.name]
            if (
                faults.oversized_every
                and profile.name == (faults.oversized_tenant or profile.name)
                and index % faults.oversized_every == faults.oversized_every - 1
            ):
                data = b"\x00" * (profile.max_stream_bytes + 1)
            try:
                await client.scan(
                    profile.name, data, deadline=profile.deadline_s
                )
                counters["completed"] += 1
                latency = loop.time() - (epoch + at)
                latencies.append(latency)
                tenant_latencies[profile.name].append(latency)
            except DeadlineExceeded:
                counters["timeouts"] += 1
            except StreamTooLarge:
                counters["oversized"] += 1
            except (Overloaded, WorkerCrashed, ConnectionLost):
                # Retry budget exhausted: the request is abandoned, which
                # is the open-loop client's last resort under shed load.
                counters["shed_abandoned"] += 1
            except ServiceError:
                counters["failed"] += 1
            except ReproError:
                counters["failed"] += 1
            except Exception:  # noqa: BLE001 - the run table must see these
                counters["unhandled"] += 1

        # Open-loop arrival schedule: every tenant's arrivals merged in
        # time order, independent of completions.
        schedule: List[Tuple[float, TenantProfile, int]] = []
        for profile in config.tenants:
            count = max(1, int(profile.rate_rps * config.duration_s))
            for index in range(count):
                schedule.append((index / profile.rate_rps, profile, index))
        schedule.sort(key=lambda item: item[0])

        breaker_saw_open = False
        if faults.slow_tenant:
            service.set_scan_delay(faults.slow_tenant, faults.slow_delay_s)
        flaky_pending = faults.flaky_faults
        kill_pending = faults.worker_kill_at is not None
        tasks: List[asyncio.Task] = []
        for at, profile, index in schedule:
            now = loop.time() - epoch
            if at > now:
                await asyncio.sleep(at - now)
                now = at
            if (
                flaky_pending
                and faults.flaky_tenant
                and now >= faults.flaky_at
            ):
                service.inject_scan_faults(
                    faults.flaky_tenant,
                    flaky_pending,
                    SimulationError("loadgen: injected backend fault"),
                )
                flaky_pending = 0
            if kill_pending and now >= faults.worker_kill_at:
                service.crash_worker(0)
                kill_pending = False
            tasks.append(
                asyncio.ensure_future(one_request(profile, index, at))
            )
            if (
                service is not None
                and not breaker_saw_open
                and any(
                    service.breaker_state(name) == "open"
                    for name in service.tenant_names()
                )
            ):
                breaker_saw_open = True
        if kill_pending:
            service.crash_worker(0)
        if service is not None:
            for name in service.tenant_names():
                if service.breaker_state(name) == "open":
                    breaker_saw_open = True
        await asyncio.gather(*tasks)

        after = await snapshot_now()
        if service is not None:
            recovered = breaker_saw_open and all(
                service.breaker_state(name) != "open"
                for name in service.tenant_names()
            )
        else:
            recovered = False
    finally:
        if net is not None:
            await net.close()
        if server is not None:
            await server.stop()
        if service is not None:
            await service.stop(drain_timeout=config.drain_timeout)

    wall = max(config.duration_s, 1e-9)
    completed = counters["completed"]
    sent = counters["sent"]
    latencies_ms = [value * 1e3 for value in latencies]

    def delta(key: str) -> int:
        return int(after.get(key, 0)) - int(before.get(key, 0))

    tenants_before = before.get("tenants", {})
    per_tenant: Dict[str, Dict[str, object]] = {}
    for name, row in after.get("tenants", {}).items():
        row_before = tenants_before.get(name, {})
        merged: Dict[str, object] = {
            key: int(row.get(key, 0)) - int(row_before.get(key, 0))
            for key in TENANT_COUNTERS
        }
        merged["in_flight"] = row.get("in_flight", 0)
        merged["breaker"] = row.get("breaker", "closed")
        samples_ms = [
            value * 1e3 for value in tenant_latencies.get(name, ())
        ]
        merged["latency_p50_ms"] = percentile(samples_ms, 50)
        merged["latency_p95_ms"] = percentile(samples_ms, 95)
        merged["latency_p99_ms"] = percentile(samples_ms, 99)
        per_tenant[name] = merged

    return RunRecord(
        run_id=f"{config.label}-{config.scenario}-s{config.seed}",
        label=config.label,
        scenario=config.scenario,
        seed=config.seed,
        duration_s=config.duration_s,
        workers=config.workers,
        scan_workers=(
            int(after.get("scan_workers", 0))
            if external
            else config.scan_workers
        ),
        transport=config.transport,
        max_queue=config.max_queue,
        chunk_bytes=config.chunk_bytes,
        tenants=len(config.tenants),
        faults=config.faults.active(),
        schema_version=RUN_SCHEMA_VERSION,
        requests_sent=sent,
        completed=completed,
        failed=counters["failed"] + counters["shed_abandoned"],
        shed=delta("shed"),
        timeouts=counters["timeouts"],
        oversized=counters["oversized"],
        retried=client.retries,
        retry_exhausted=client.exhausted,
        unhandled_exceptions=counters["unhandled"],
        throughput_rps=completed / wall,
        latency_avg_ms=(
            statistics.fmean(latencies_ms) if latencies_ms else None
        ),
        latency_p50_ms=percentile(latencies_ms, 50),
        latency_p95_ms=percentile(latencies_ms, 95),
        latency_p99_ms=percentile(latencies_ms, 99),
        failure_rate=1.0 - (completed / sent) if sent else 0.0,
        fallback_scans=delta("fallback_scans"),
        breaker_trips=delta("breaker_trips"),
        breaker_recoveries=delta("breaker_recoveries"),
        breaker_recovered=recovered,
        worker_restarts=delta("worker_restarts"),
        pool_respawns=delta("pool_respawns"),
        degrade_events=(
            len(after.get("events", ())) + int(after.get("events_dropped", 0))
        ),
        events_dropped=int(after.get("events_dropped", 0)),
        per_tenant=per_tenant,
    )


def run_loadgen(config: LoadgenConfig) -> RunRecord:
    """Run one loadgen scenario to completion and return its run row."""
    return asyncio.run(_drive(config))


# -- canned scenarios --------------------------------------------------------


def baseline_config(
    *,
    duration_s: float = 2.0,
    seed: int = 7,
    label: str = "loadgen",
) -> LoadgenConfig:
    """Two healthy tenants, no faults: the throughput/latency floor."""
    return LoadgenConfig(
        tenants=(
            TenantProfile(name="alpha", rate_rps=30.0),
            TenantProfile(
                name="beta",
                patterns=("error", "warn(ing)?", "cr[ia]tical"),
                rate_rps=20.0,
            ),
        ),
        duration_s=duration_s,
        seed=seed,
        label=label,
        scenario="baseline",
    )


def serving_config(
    *,
    scan_workers: int = 0,
    transport: str = "inproc",
    connect: Optional[Tuple[str, int]] = None,
    duration_s: float = 2.0,
    seed: int = 7,
    label: str = "loadgen",
) -> LoadgenConfig:
    """The serving-plane comparison scenario: identical open-loop load,
    parameterised over the execution plane (``scan_workers``) and the
    transport (``inproc`` vs ``tcp``), so in-loop, process-pool, and
    networked serving rows can be put side by side.

    Streams are larger than the baseline scenario's (16 KiB, chunked at
    2 KiB) so each request does enough CPU work for the execution plane
    to matter; deadlines are generous enough that the comparison
    measures throughput, not timeout policy.
    """
    scenario = f"serve-{transport}-w{scan_workers}"
    if connect is not None:
        transport = "tcp"  # connecting out is necessarily networked
        scenario = f"serve-connect-w{scan_workers}"
    return LoadgenConfig(
        tenants=(
            TenantProfile(
                name="alpha",
                rate_rps=24.0,
                stream_bytes=16384,
                deadline_s=3.0,
                max_in_flight=8,
            ),
            TenantProfile(
                name="beta",
                patterns=("error", "warn(ing)?", "cr[ia]tical"),
                rate_rps=16.0,
                stream_bytes=16384,
                deadline_s=3.0,
                max_in_flight=8,
            ),
        ),
        duration_s=duration_s,
        workers=4,
        scan_workers=scan_workers,
        transport=transport,
        connect=connect,
        max_queue=64,
        chunk_bytes=2048,
        seed=seed,
        label=label,
        scenario=scenario,
    )


def faulted_config(
    *,
    duration_s: float = 2.5,
    seed: int = 7,
    label: str = "loadgen",
) -> LoadgenConfig:
    """The resilience gauntlet: worker kill + slow tenant + oversized
    streams + injected backend faults (breaker trip and recovery)."""
    return LoadgenConfig(
        tenants=(
            TenantProfile(name="hot", rate_rps=40.0),
            # max_in_flight=1 with inter-arrival (50 ms) far below the
            # delayed service time (>= 120 ms of injected chunk delay)
            # guarantees overlapping arrivals are shed -> retried, so
            # the run table's shed/retried columns are deterministic.
            TenantProfile(
                name="slow",
                patterns=("needle", "hay+stack"),
                rate_rps=20.0,
                deadline_s=0.08,
                max_in_flight=1,
                stream_bytes=4096,
            ),
            TenantProfile(
                name="flaky",
                patterns=("cat", "dog+"),
                rate_rps=25.0,
            ),
        ),
        duration_s=duration_s,
        seed=seed,
        label=label,
        scenario="fault-injected",
        faults=FaultPlan(
            worker_kill_at=duration_s * 0.4,
            oversized_every=5,
            oversized_tenant="hot",
            slow_tenant="slow",
            slow_delay_s=0.03,
            flaky_tenant="flaky",
            flaky_faults=2,
            flaky_at=duration_s * 0.15,
        ),
    )
