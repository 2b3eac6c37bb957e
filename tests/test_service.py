"""The resilient multi-tenant scan service.

Deterministic wherever time matters: the service clock is injectable,
so deadline interruption, breaker cooldowns, and backoff bounds are
tested with fake clocks and counted sleeps rather than wall-clock
sleeps and luck.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import BoundedEventLog
from repro.compiler.cache import cache_key
from repro.core.design import CA_P
from repro.engine import CacheAutomatonEngine
from repro.errors import ReproError, SimulationError
from repro.service import (
    CircuitBreaker,
    DeadlineExceeded,
    Overloaded,
    RetryingClient,
    ScanService,
    ServiceClosed,
    StreamTooLarge,
    TenantLimits,
    TenantRegistration,
    UnknownTenant,
    WorkerCrashed,
)

PATTERNS = ["cat", "dog+", "ba[rt]"]
DATA = b"the cat sat on the bar while the dog dogged a bat " * 4


def run(coro):
    return asyncio.run(coro)


class Ticker:
    """Fake monotonic clock: advances ``step`` seconds per reading."""

    def __init__(self, step: float = 0.0, start: float = 100.0):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


async def make_service(**kwargs):
    kwargs.setdefault("cache", False)
    service = ScanService(**kwargs)
    service.register("acme", PATTERNS)
    await service.start()
    return service


def reference_rows(tenant_engine, data: bytes):
    backend = tenant_engine.backend
    result = backend.scan(data)
    return [(r.offset, r.ste_id, r.report_code) for r in result.reports]


class TestScanBasics:
    def test_scan_returns_reports(self):
        async def scenario():
            service = await make_service()
            outcome = await service.scan("acme", DATA)
            await service.stop()
            return service, outcome

        service, outcome = run(scenario())
        assert outcome.tenant == "acme"
        assert outcome.offset == len(DATA)
        assert not outcome.fallback
        assert outcome.report_rows() == reference_rows(
            service.tenant_engine("acme"), DATA
        )

    def test_chunked_scan_matches_unchunked(self):
        async def scenario():
            service = await make_service(chunk_bytes=7)
            outcome = await service.scan("acme", DATA)
            await service.stop()
            return service, outcome

        service, outcome = run(scenario())
        assert outcome.report_rows() == reference_rows(
            service.tenant_engine("acme"), DATA
        )

    def test_unknown_tenant(self):
        async def scenario():
            service = await make_service()
            with pytest.raises(UnknownTenant):
                await service.scan("ghost", b"abc")
            await service.stop()

        run(scenario())

    def test_oversized_stream_rejected(self):
        async def scenario():
            service = ScanService(cache=False)
            service.register(
                "tiny", PATTERNS, limits=TenantLimits(max_stream_bytes=16)
            )
            await service.start()
            with pytest.raises(StreamTooLarge):
                await service.scan("tiny", b"x" * 17)
            outcome = await service.scan("tiny", b"the cat!")
            await service.stop()
            return service, outcome

        service, outcome = run(scenario())
        assert service.metrics.oversized == 1
        assert len(outcome.reports) == 1

    def test_scan_after_stop_is_closed(self):
        async def scenario():
            service = await make_service()
            await service.stop()
            with pytest.raises(ServiceClosed):
                await service.scan("acme", DATA)

        run(scenario())


class TestDeadlines:
    def test_mid_stream_interrupt_and_bit_identical_resume(self):
        """The acceptance-criteria test: a deadline fires *mid-stream*
        (nonzero partial offset, strictly inside the input) and resuming
        from the carried checkpoint yields exactly the reports an
        uninterrupted scan produces."""
        clock = Ticker(step=1.0)

        async def scenario():
            service = ScanService(chunk_bytes=16, clock=clock, cache=False)
            service.register("acme", PATTERNS)
            await service.start()
            # One clock reading per chunk boundary: a budget of 3.5
            # ticks expires after a few chunks, well inside the input.
            with pytest.raises(DeadlineExceeded) as info:
                await service.scan("acme", DATA, deadline=3.5)
            error = info.value
            rest = await service.scan(
                "acme",
                DATA[error.offset :],
                deadline=10_000,
                resume=error.checkpoint,
            )
            await service.stop()
            return service, error, rest

        service, error, rest = run(scenario())
        assert 0 < error.offset < len(DATA)
        assert error.offset % 16 == 0  # interrupted at a chunk boundary
        resumed = [
            (r.offset, r.ste_id, r.report_code) for r in error.reports
        ] + rest.report_rows()
        assert resumed == reference_rows(
            service.tenant_engine("acme"), DATA
        )
        assert service.metrics.timeouts == 1

    def test_deadline_error_is_not_retryable(self):
        assert DeadlineExceeded("t", offset=3).retryable is False

    def test_default_deadline_applies(self):
        clock = Ticker(step=1.0)

        async def scenario():
            service = ScanService(
                chunk_bytes=8, default_deadline=2.5, clock=clock, cache=False
            )
            service.register("acme", PATTERNS)
            await service.start()
            with pytest.raises(DeadlineExceeded):
                await service.scan("acme", DATA)
            await service.stop()

        run(scenario())


class TestAdmission:
    def test_tenant_in_flight_limit_sheds(self):
        async def scenario():
            service = ScanService(workers=1, cache=False)
            service.register(
                "acme", PATTERNS, limits=TenantLimits(max_in_flight=1)
            )
            await service.start()
            service.set_scan_delay("acme", 0.01)
            first = asyncio.ensure_future(service.scan("acme", DATA))
            await asyncio.sleep(0)
            with pytest.raises(Overloaded) as info:
                await service.scan("acme", DATA)
            assert info.value.retryable
            await first
            await service.stop()
            return service

        service = run(scenario())
        assert service.metrics.shed == 1
        assert service.metrics.completed == 1

    def test_queue_bound_sheds(self):
        async def scenario():
            service = ScanService(workers=1, max_queue=2, cache=False)
            service.register(
                "acme", PATTERNS, limits=TenantLimits(max_in_flight=64)
            )
            await service.start()
            service.set_scan_delay("acme", 0.01)
            pending = [
                asyncio.ensure_future(service.scan("acme", DATA))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            with pytest.raises(Overloaded):
                await service.scan("acme", DATA)
            await asyncio.gather(*pending)
            await service.stop()
            return service

        service = run(scenario())
        assert service.metrics.shed == 1

    def test_round_robin_interleaves_tenants(self):
        """A tenant that floods the queue cannot starve another: the
        dequeue order alternates between tenants with pending work."""
        order = []

        async def scenario():
            service = ScanService(workers=1, max_queue=64, cache=False)
            service.register("flood", PATTERNS)
            service.register("meek", PATTERNS)
            await service.start()

            async def tracked(tenant):
                outcome = await service.scan(tenant, b"the cat")
                order.append(outcome.tenant)

            jobs = [asyncio.ensure_future(tracked("flood")) for _ in range(4)]
            jobs.append(asyncio.ensure_future(tracked("meek")))
            await asyncio.gather(*jobs)
            await service.stop()

        run(scenario())
        # The meek tenant's single request lands in the first round of
        # the rotation (position 0 or 1), never behind the flood.
        assert order.index("meek") <= 1


    @pytest.mark.parametrize("backend", ["lazy-dfa"])
    def test_dfa_budget_is_a_cap_not_a_default(self, backend):
        """``backend_options`` reach ``register`` verbatim from a client
        frame: asking for more states than the tenant's limit must not
        get them, asking for fewer must."""

        def budgets(requested):
            service = ScanService(cache=False)
            service.register(
                "acme",
                PATTERNS,
                backend=backend,
                limits=TenantLimits(dfa_max_states=256),
                backend_options={"max_states": requested},
            )
            return service.tenant_engine("acme").backend.cache_info()["max_states"]

        assert budgets(10**9) == 256
        assert budgets(None) == 256
        assert budgets(100) == 100


class TestCircuitBreaker:
    def test_unit_transitions(self):
        clock = Ticker(step=0.0)
        breaker = CircuitBreaker(threshold=2, cooldown=5.0, clock=clock)
        assert breaker.state == "closed"
        assert not breaker.record_failure()
        assert breaker.record_failure()  # second failure trips
        assert breaker.state == "open"
        assert not breaker.allow_primary()  # cooldown not elapsed
        clock.advance(5.1)
        assert breaker.allow_primary()  # half-open probe
        assert breaker.state == "half-open"
        assert breaker.record_success()
        assert breaker.state == "closed"

    def test_trip_fallback_recover_end_to_end(self):
        clock = Ticker(step=0.0)

        async def scenario():
            service = ScanService(
                workers=1,
                breaker_threshold=2,
                breaker_cooldown=4.0,
                clock=clock,
                cache=False,
            )
            service.register("acme", PATTERNS)
            await service.start()
            service.inject_scan_faults(
                "acme", 2, SimulationError("injected")
            )
            for _ in range(2):
                with pytest.raises(SimulationError):
                    await service.scan("acme", DATA)
            assert service.breaker_state("acme") == "open"
            # While open, traffic is served by the golden-fallback tier
            # with identical results.
            during = await service.scan("acme", DATA)
            assert during.fallback
            assert during.served_by == "golden-interpreter"
            clock.advance(4.1)
            probe = await service.scan("acme", DATA)
            assert not probe.fallback
            assert service.breaker_state("acme") == "closed"
            await service.stop()
            return service, during

        service, during = run(scenario())
        assert during.report_rows() == reference_rows(
            service.tenant_engine("acme"), DATA
        )
        assert service.metrics.breaker_trips == 1
        assert service.metrics.breaker_recoveries == 1
        assert service.metrics.fallback_scans == 1


class TestWorkerSupervision:
    def test_crash_fails_request_retryably_and_restarts(self):
        async def scenario():
            service = await make_service(workers=1)
            service.set_scan_delay("acme", 0.01)
            pending = asyncio.ensure_future(service.scan("acme", DATA))
            await asyncio.sleep(0.005)
            assert service.crash_worker(0)
            with pytest.raises(WorkerCrashed) as info:
                await pending
            assert info.value.retryable
            service.set_scan_delay("acme", 0.0)
            # The restarted worker serves the next request.
            outcome = await service.scan("acme", DATA)
            await service.stop()
            return service, outcome

        service, outcome = run(scenario())
        assert service.metrics.worker_restarts == 1
        assert outcome.offset == len(DATA)

    def test_client_retries_through_crash(self):
        async def scenario():
            service = await make_service(workers=1)
            client = RetryingClient(
                service, base_delay=0.001, rng=random.Random(0)
            )
            service.set_scan_delay("acme", 0.01)
            pending = asyncio.ensure_future(client.scan("acme", DATA))
            await asyncio.sleep(0.005)
            service.crash_worker(0)
            service.set_scan_delay("acme", 0.0)
            outcome = await pending
            await service.stop()
            return service, client, outcome

        service, client, outcome = run(scenario())
        assert client.retries >= 1
        assert outcome.offset == len(DATA)


class TestDrain:
    def test_stop_completes_queued_work(self):
        async def scenario():
            service = await make_service(workers=2)
            pending = [
                asyncio.ensure_future(service.scan("acme", DATA))
                for _ in range(6)
            ]
            await asyncio.sleep(0)
            await service.stop()
            outcomes = await asyncio.gather(*pending)
            return service, outcomes

        service, outcomes = run(scenario())
        assert all(o.offset == len(DATA) for o in outcomes)
        assert service.metrics.completed == 6

    def test_drain_timeout_deadlines_stuck_requests(self):
        async def scenario():
            service = await make_service(workers=1, chunk_bytes=16)
            service.set_scan_delay("acme", 0.05)  # far slower than drain
            pending = asyncio.ensure_future(service.scan("acme", DATA))
            await asyncio.sleep(0.01)
            await service.stop(drain_timeout=0.01)
            try:
                await pending
            except DeadlineExceeded as error:
                return service, error
            raise AssertionError("expected DeadlineExceeded")

        service, error = run(scenario())
        # Interrupted at a chunk boundary with resumable progress.
        assert error.checkpoint is not None or error.offset == 0
        assert service.metrics.timeouts == 1

    def test_stop_is_idempotent(self):
        async def scenario():
            service = await make_service()
            await service.stop()
            await service.stop()

        run(scenario())


class TestHotReload:
    def test_same_patterns_noop(self):
        async def scenario():
            service = await make_service()
            changed = service.register("acme", PATTERNS)
            await service.stop()
            return service, changed

        service, changed = run(scenario())
        assert changed is False
        assert service.metrics.reloads == 0

    def test_changed_patterns_swap_engine(self):
        async def scenario():
            service = await make_service()
            before = await service.scan("acme", b"cat and emu")
            changed = service.register("acme", ["emu"])
            after = await service.scan("acme", b"cat and emu")
            await service.stop()
            return service, changed, before, after

        service, changed, before, after = run(scenario())
        assert changed is True
        assert service.metrics.reloads == 1
        assert [r.report_code for r in before.reports] == ["cat"]
        assert [r.report_code for r in after.reports] == ["emu"]


    def test_distinct_registrations_never_share_a_fingerprint(self):
        """A pattern holding the byte a hash might join patterns with,
        and a design that differs in a field but not in its name, are
        reloads — not a stale ruleset that keeps serving."""
        service = ScanService(cache=False)
        assert service.register("t", ["a", "b"]) is True
        assert service.register("t", ["a\x00b"]) is True
        assert len(service.tenant_engine("t").automaton) == 3
        assert service.register("t", ["a\x00b"]) is False
        narrow = replace(CA_P, g1_wires_per_partition=8)
        assert narrow.name == CA_P.name
        assert service.register("t", ["a\x00b"], design=narrow) is True
        assert service.tenant_engine("t").design == narrow


class TestRegistration:
    @settings(max_examples=50, deadline=None)
    @given(
        patterns=st.lists(st.text(max_size=6), min_size=1, max_size=5),
        backend=st.sampled_from([None, "lazy-dfa", "hybrid"]),
        stride=st.sampled_from([None, 1, 2, 4, "auto"]),
        options=st.dictionaries(
            st.sampled_from(["max_states", "jobs", "split_jobs"]),
            st.one_of(st.none(), st.integers(1, 1 << 20)),
        ),
    )
    def test_wire_round_trip_is_equal(self, patterns, backend, stride, options):
        registration = TenantRegistration(
            tuple(patterns), backend=backend, stride=stride,
            backend_options=options,
        )
        wire = json.loads(json.dumps(registration.to_wire()))
        decoded = TenantRegistration.from_wire(wire)
        assert decoded == registration
        assert decoded.fingerprint == registration.fingerprint
        reordered = replace(
            registration, backend_options=dict(reversed(options.items()))
        )
        assert reordered.fingerprint == registration.fingerprint

    @pytest.mark.parametrize(
        "backend, stride, limits",
        [
            (None, None, None),
            ("lazy-dfa", 2, TenantLimits(dfa_max_states=128)),
            ("hybrid", None, TenantLimits(dfa_max_states=64)),
        ],
    )
    def test_a_worker_builds_the_parents_engine(
        self, tmp_path, backend, stride, limits
    ):
        """The registration a pool worker receives (it crosses a pipe,
        so: pickled) builds what ``register()`` built."""
        service = ScanService(scan_workers=1, cache=str(tmp_path))
        service.register(
            "t", PATTERNS, backend=backend, stride=stride, limits=limits
        )
        state = service._tenant("t")
        spec = pickle.loads(pickle.dumps(service._tenant_worker_spec(state)))
        ours = service.tenant_engine("t")
        theirs = spec.registration.build_engine(spec.cache)

        def identity(engine):
            artifact = engine.artifact
            return (
                cache_key(artifact.automaton, artifact.design, stride=engine.stride),
                engine.health().backend,
                engine.stride,
                getattr(getattr(engine.backend, "dfa", None), "_max_states", None),
            )

        assert identity(theirs) == identity(ours)
        assert theirs.health().tier == "warm-cache"


class TestRetryingClient:
    def test_backoff_bounds_and_sleep_count(self):
        """Each delay is equal-jittered over a capped exponential:
        within (d/2, d] for d = min(max_delay, base * 2**attempt)."""
        sleeps = []

        async def fake_sleep(delay):
            sleeps.append(delay)

        class AlwaysShedding:
            async def scan(self, *args, **kwargs):
                raise Overloaded("t", "full")

        client = RetryingClient(
            AlwaysShedding(),
            max_attempts=4,
            base_delay=0.1,
            max_delay=0.3,
            rng=random.Random(42),
            sleep=fake_sleep,
        )
        with pytest.raises(Overloaded):
            run(client.scan("t", b"x"))
        assert len(sleeps) == 3  # attempts 1..3 back off; 4th raises
        for attempt, delay in enumerate(sleeps):
            ceiling = min(0.3, 0.1 * 2**attempt)
            assert ceiling * 0.5 <= delay <= ceiling
        assert client.retries == 3
        assert client.exhausted == 1

    def test_non_retryable_propagates_immediately(self):
        calls = []

        class Rejecting:
            async def scan(self, *args, **kwargs):
                calls.append(1)
                raise StreamTooLarge("t", 10, 5)

        client = RetryingClient(Rejecting(), max_attempts=5)
        with pytest.raises(StreamTooLarge):
            run(client.scan("t", b"x"))
        assert len(calls) == 1
        assert client.retries == 0


class TestBoundedEventLog:
    def test_drops_oldest_and_counts(self):
        log = BoundedEventLog(limit=3)
        for index in range(5):
            log.append(f"event-{index}")
        assert log.events() == ("event-2", "event-3", "event-4")
        assert log.dropped == 2
        assert len(log) == 3

    def test_rejects_silly_limit(self):
        with pytest.raises(ValueError):
            BoundedEventLog(limit=0)

    def test_engine_health_events_bounded(self):
        """A long-lived engine's health log stays flat: events beyond
        the ring capacity surface as ``events_dropped``, and the
        monotonic total keeps counting."""
        from repro.regex.compile import compile_patterns

        engine = CacheAutomatonEngine(
            compile_patterns(["abc"]), cache=None
        )
        limit = engine._health_events.limit
        for index in range(limit + 10):
            engine._health_events.append(f"degrade-{index}")
        health = engine.health()
        assert health.events_dropped >= 10
        assert len(health.events) <= limit
        assert len(health.events) + health.events_dropped >= limit + 10

    def test_health_event_count_is_the_snapshot_total(self):
        """The breaker's cheap counter agrees with the ``health()``
        snapshot it replaces, across both logs and past the ring."""
        engine = CacheAutomatonEngine.from_patterns(
            ["abc"], cache=None, backend="lazy-dfa"
        )

        def total():
            health = engine.health()
            return len(health.events) + health.events_dropped

        assert engine.health_event_count() == total()
        engine.backend._health_events.append("scan-time degrade")
        for index in range(engine._health_events.limit + 3):
            engine._health_events.append(f"degrade-{index}")
        assert engine.health_event_count() == total()
        assert total() >= engine._health_events.limit + 4


class TestServiceObservability:
    def test_metrics_snapshot_shape(self):
        async def scenario():
            service = await make_service()
            await service.scan("acme", DATA)
            snapshot = service.metrics_snapshot()
            await service.stop()
            return snapshot

        snapshot = run(scenario())
        assert snapshot["completed"] == 1
        assert snapshot["tenants"]["acme"]["completed"] == 1
        assert snapshot["tenants"]["acme"]["breaker"] == "closed"
        assert any("registered" in event for event in snapshot["events"])
        # Consumers index these by name (the CLI tables, the loadgen's
        # deltas, the benchmark, the ``health`` verb's clients).
        assert set(snapshot) == {
            "submitted", "admitted", "completed", "failed", "shed",
            "oversized", "timeouts", "breaker_trips", "breaker_recoveries",
            "worker_restarts", "fallback_scans", "reloads", "pool_respawns",
            "pool_dispatches", "pool_chunks", "pool_cold_tables",
            "pool_cold_rebuilds", "scan_workers", "queued", "executing",
            "tenants", "events_dropped", "events",
        }
        assert set(snapshot["tenants"]["acme"]) == {
            "submitted", "completed", "failed", "shed", "oversized",
            "timeouts", "fallback_scans", "breaker_trips",
            "breaker_recoveries", "in_flight", "breaker",
        }

    def test_register_validates(self):
        service = ScanService(cache=False)
        with pytest.raises(ReproError):
            service.register("empty", [])
        with pytest.raises(ReproError):
            ScanService(workers=0)
