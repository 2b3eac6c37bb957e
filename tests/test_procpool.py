"""Multi-process scan execution plane (``repro.service.procpool``).

The load-bearing property is bit-identity: whatever the execution plane
— spans of chunks scanned in the event loop (``scan_workers=0``) or
dispatched to a pool of worker processes (``scan_workers=N``),
including deadline interruption and mid-request resume — the report
stream must be byte-for-byte the same.  Supervision (SIGKILLed worker process →
retryable ``WorkerCrashed`` → pool respawn) mirrors the coroutine
contract, now across real process boundaries.
"""

from __future__ import annotations

import asyncio
import glob
import itertools
import multiprocessing
import os
import random
import time
from collections import OrderedDict
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.compiler import compile_automaton
from repro.compiler.cache import CompileCache
from repro.core.design import CA_P
from repro.engine import CacheAutomatonEngine
from repro.service import (
    DeadlineExceeded,
    ScanService,
    ServiceClosed,
    TenantLimits,
    WorkerCrashed,
)
from repro.backends import registry as backend_registry
from repro.backends.artifact import CompiledArtifact
from repro.backends.mapped import PackedKernelBackend
from repro.parallel import default_mp_method
from repro.service import procpool
from repro.service import service as service_module
from repro.regex.compile import compile_patterns
from repro.service.procpool import ProcPoolScanExecutor, worker_cache_spec
from tests.conftest import chain_automaton

PATTERNS = ["cat", "dog+", "ba[rt]"]
DATA = b"the cat sat on the bar while the dog dogged a bat " * 4


def run(coro):
    return asyncio.run(coro)


def shm_blocks():
    """The shared-memory blocks on this host (none where there is no
    ``/dev/shm``)."""
    return set(glob.glob("/dev/shm/psm_*"))


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


def rows(outcome_or_reports):
    reports = getattr(outcome_or_reports, "reports", outcome_or_reports)
    return [(r.offset, r.ste_id, r.report_code) for r in reports]


async def scan_rows(data, *, backend=None, scan_workers=0, chunk_bytes=16,
                    clock=None, deadline=None):
    """One full scan through a throwaway service; returns report rows."""
    kwargs = {} if clock is None else {"clock": clock}
    service = ScanService(
        workers=1,
        scan_workers=scan_workers,
        chunk_bytes=chunk_bytes,
        cache=False,
        **kwargs,
    )
    service.register("acme", PATTERNS, backend=backend)
    await service.start()
    try:
        outcome = await service.scan("acme", data, deadline=deadline)
        return rows(outcome), service.metrics_snapshot()
    finally:
        await service.stop()


class TestDifferentialBitIdentity:
    @pytest.mark.parametrize("backend", [None, "lazy-dfa"])
    def test_procpool_matches_inloop(self, backend):
        """The acceptance-criteria differential: identical report rows
        across ``scan_workers in {0, 2}`` for both the engine-rebuild
        path (default backend) and the tables fast path (lazy-dfa)."""
        inloop, _ = run(scan_rows(DATA, backend=backend, scan_workers=0))
        pooled, snapshot = run(
            scan_rows(DATA, backend=backend, scan_workers=2)
        )
        assert pooled == inloop
        assert len(inloop) > 0
        assert snapshot["scan_workers"] == 2

    @pytest.mark.parametrize("backend", [None, "lazy-dfa"])
    def test_deadline_interrupt_and_resume(self, backend):
        """A deadline fires mid-stream on the process-pool plane and the
        checkpoint resumes — chunks before and after the interruption
        may land on *different processes* — with the combined stream
        bit-identical to an uninterrupted in-loop scan."""
        reference, _ = run(scan_rows(DATA, backend=backend, scan_workers=0))
        clock = Ticker(step=1.0)

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=2, chunk_bytes=16,
                clock=clock, cache=False,
            )
            service.register("acme", PATTERNS, backend=backend)
            await service.start()
            try:
                with pytest.raises(DeadlineExceeded) as info:
                    await service.scan("acme", DATA, deadline=3.5)
                error = info.value
                rest = await service.scan(
                    "acme",
                    DATA[error.offset:],
                    deadline=10_000,
                    resume=error.checkpoint,
                )
                return error, rest
            finally:
                await service.stop()

        error, rest = run(scenario())
        assert 0 < error.offset < len(DATA)
        assert rows(error.reports) + rows(rest) == reference


class TestWorkerSpan:
    """``_serve_span`` called in this process: what one job does with
    its bytes, chunk size and deadline."""

    @pytest.fixture(params=[None, "lazy-dfa"])
    def tenant(self, request, monkeypatch):
        """(backend, span) for the engine-rebuild and tables paths;
        ``span(data, checkpoint, chunk_bytes, deadline_at)`` returns
        (report rows, checkpoint, bytes consumed)."""
        service = ScanService(workers=1, scan_workers=1, cache=False)
        service.register("acme", PATTERNS, backend=request.param)
        state = service._tenant("acme")
        spec = service._tenant_worker_spec(state)
        assert (spec.tables is not None) == (request.param == "lazy-dfa")
        # This process plays the worker: give it an engine cache of its
        # own for the length of the test, holding the tenant's engine
        # (a real worker would ask its parent for the spec).
        monkeypatch.setattr(procpool, "_WORKER_ENGINES", OrderedDict())
        procpool._build_engine(spec)
        backend = state.engine.backend

        def span(data, checkpoint, chunk_bytes, deadline_at):
            reply = procpool.SpanReply._make(
                procpool._serve_span(
                    (spec.registration.fingerprint, data, checkpoint,
                     chunk_bytes, deadline_at)
                )
            )
            assert reply.raw == (request.param == "lazy-dfa")
            reports = reply.reports
            if reply.raw:
                total = sum(count for _, count, _ in reports)
                reports = backend.materialise_raw(
                    (reports, total, reply.checkpoint, reply.consumed), True
                ).reports
            return rows(reports), reply.checkpoint, reply.consumed

        return backend, span

    def test_expired_deadline_scans_one_chunk_and_resumes(self, tenant):
        backend, span = tenant
        whole = backend.scan(DATA)
        first, checkpoint, consumed = span(
            DATA, None, 16, time.monotonic() - 1.0
        )
        assert consumed == 16
        assert checkpoint == backend.scan(DATA[:16]).checkpoint
        got = first
        while consumed < len(DATA):  # one more span, unless the host stalls
            more, checkpoint, step = span(DATA[consumed:], checkpoint, 16, None)
            got += more
            consumed += step
        assert got == rows(whole.reports)
        assert checkpoint == whole.checkpoint

    def test_no_deadline_consumes_all_the_data(self, tenant, monkeypatch):
        # The hold quantum still applies without a deadline; lift it so
        # a stalled host cannot cut this span short.
        monkeypatch.setattr(procpool, "SPAN_HOLD_S", 60.0)
        backend, span = tenant
        whole = backend.scan(DATA)
        got, checkpoint, consumed = span(DATA, None, 16, None)
        assert consumed == len(DATA)
        assert got == rows(whole.reports)
        assert checkpoint == whole.checkpoint

    def test_hold_quantum_cuts_a_span_at_a_chunk_boundary(
        self, tenant, monkeypatch
    ):
        monkeypatch.setattr(procpool, "SPAN_HOLD_S", 0.0)
        _, span = tenant
        _, checkpoint, consumed = span(DATA, None, 48, None)
        assert consumed == 48
        assert checkpoint.symbols_processed == 48

    def test_rebuilt_lazy_dfa_engine_decodes_its_own_span(self, monkeypatch):
        """Without tables in its spec a worker rebuilds the lazy-DFA
        engine and scans its span on one cursor too, but hands back
        decoded reports: the parent's engine may have landed on another
        backend (the golden-fallback tier) that cannot read raw events."""
        monkeypatch.setattr(procpool, "SPAN_HOLD_S", 60.0)
        monkeypatch.setattr(procpool, "_WORKER_ENGINES", OrderedDict())
        service = ScanService(workers=1, scan_workers=1, cache=False)
        service.register("acme", PATTERNS, backend="lazy-dfa")
        state = service._tenant("acme")
        spec = replace(service._tenant_worker_spec(state), tables=None)
        scanner, built, _ = procpool._build_engine(spec)
        assert isinstance(scanner, procpool.DfaSpans) and built == "rebuild"
        reply = procpool.SpanReply._make(
            procpool._serve_span(
                (spec.registration.fingerprint, DATA, None, 16, None)
            )
        )
        whole = state.engine.backend.scan(DATA)
        assert not reply.raw
        assert rows(reply.reports) == rows(whole.reports)
        assert reply.checkpoint == whole.checkpoint
        assert reply.consumed == len(DATA)


class TestSpans:
    """Requests that take several spans, on the real clock."""

    @pytest.mark.parametrize("backend", [None, "lazy-dfa"])
    def test_odd_chunk_sizes_match_inloop(self, backend):
        """Both worker paths, chunk sizes that do not divide the data:
        offsets, STE ids, report codes and the final checkpoint are
        those of ``scan_workers=0``."""
        data = DATA * 64
        rng = random.Random(12)
        sizes = [
            size for size in (rng.randrange(7, 1500) for _ in range(8))
            if len(data) % size
        ][:3]
        assert len(sizes) == 3

        async def scan(scan_workers, chunk_bytes):
            service = ScanService(
                workers=1, scan_workers=scan_workers,
                chunk_bytes=chunk_bytes, cache=False,
            )
            service.register("acme", PATTERNS, backend=backend)
            await service.start()
            try:
                outcome = await service.scan("acme", data)
                return rows(outcome), outcome.checkpoint, outcome.offset
            finally:
                await service.stop()

        for chunk_bytes in sizes:
            assert run(scan(2, chunk_bytes)) == run(scan(0, chunk_bytes))

    @pytest.mark.parametrize("backend", [None, "lazy-dfa"])
    @pytest.mark.parametrize("chunk_bytes", [1, 7, 2048])
    def test_span_replies_match_inloop(self, backend, chunk_bytes, monkeypatch):
        """The request loop sees one sequence of span replies whichever
        plane serves it (a clock of its own makes every span one chunk,
        on either plane)."""
        data = DATA * (64 if chunk_bytes == 2048 else 4)
        seen = []

        def recording(owner, name):
            scan_span = getattr(owner, name)

            async def record(*args):
                reply = await scan_span(*args)
                seen.append(reply)
                return reply

            monkeypatch.setattr(owner, name, record)

        recording(service_module, "scan_span_inloop")
        recording(procpool.ProcPoolScanExecutor, "scan_span")

        async def replies(scan_workers):
            service = ScanService(
                workers=1, scan_workers=scan_workers, chunk_bytes=chunk_bytes,
                cache=False, clock=lambda: time.monotonic(),
            )
            service.register("acme", PATTERNS, backend=backend)
            await service.start()
            try:
                await service.scan("acme", data)
            finally:
                await service.stop()
            taken, seen[:] = list(seen), []
            return taken

        inloop, pooled = run(replies(0)), run(replies(2))
        assert len(inloop) == -(-len(data) // chunk_bytes)
        assert [type(reply) for reply in pooled] == [procpool.SpanReply] * len(inloop)
        # All but how a worker's engine was cold-started.
        assert [reply[:5] for reply in pooled] == [reply[:5] for reply in inloop]
        assert sum(reply.built is not None for reply in pooled) in (1, 2)

    @pytest.mark.parametrize("backend", [None, "lazy-dfa"])
    @pytest.mark.parametrize("hold_s", [60.0, 0.0])
    def test_inloop_spans_hold_the_quantum(self, backend, hold_s, monkeypatch):
        """On the real clock an in-loop span stops where a worker's
        does: a quantum longer than the scan takes the request in one
        span, a zero quantum makes every span one chunk."""
        monkeypatch.setattr(procpool, "SPAN_HOLD_S", hold_s)
        data, chunk_bytes = DATA * 8, 64
        consumed = []
        scan_span_inloop = service_module.scan_span_inloop

        async def record(*args):
            reply = await scan_span_inloop(*args)
            consumed.append(reply.consumed)
            return reply

        monkeypatch.setattr(service_module, "scan_span_inloop", record)
        got, _ = run(
            scan_rows(data, backend=backend, chunk_bytes=chunk_bytes)
        )
        chunks = -(-len(data) // chunk_bytes)
        if hold_s:
            assert consumed == [len(data)]
        else:
            assert consumed == [chunk_bytes] * (chunks - 1) + [
                len(data) - (chunks - 1) * chunk_bytes
            ]
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS, backend=backend, cache=False
        )
        assert got == rows(engine.backend.scan(data))

    def test_inloop_lazy_dfa_span_never_splits_a_chunk(self, monkeypatch):
        """Chunks long enough for a split-stream scan (>= 2 x
        ``SPLIT_MIN_CHUNK``) with ``REPRO_SPLIT_JOBS`` set: the in-loop
        plane scans them on the event loop and starts no process."""
        monkeypatch.setenv("REPRO_SPLIT_JOBS", "2")
        data = DATA * 200  # 40,000 bytes: two 16 KiB chunks and a tail

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=0, chunk_bytes=16384, cache=False
            )
            service.register("acme", PATTERNS, backend="lazy-dfa")
            await service.start()
            try:
                outcome = await service.scan("acme", data)
                return outcome, service.tenant_engine("acme").backend
            finally:
                await service.stop()

        outcome, backend = run(scenario())
        assert backend.worker_cache_info() == {"workers": 0}
        assert multiprocessing.active_children() == []
        serial = CacheAutomatonEngine.from_patterns(
            PATTERNS, backend="lazy-dfa", cache=False,
            backend_options={"split_jobs": 1},
        ).backend.scan(data)
        assert rows(outcome) == rows(serial)
        assert outcome.checkpoint == serial.checkpoint

    @pytest.mark.parametrize(
        "backend, copies, chunk_bytes, scan_workers",
        [
            pytest.param(None, 320, 256, 2, id="None-320-256"),
            pytest.param("lazy-dfa", 5242, 2048, 2, id="lazy-dfa-5242-2048"),
            pytest.param(None, 320, 256, 0, id="inloop-None-320-256"),
            pytest.param(
                "lazy-dfa", 5242, 2048, 0, id="inloop-lazy-dfa-5242-2048"
            ),
        ],
    )
    def test_real_clock_deadline_interrupts_and_resumes(
        self, backend, copies, chunk_bytes, scan_workers
    ):
        """A span reads the request's deadline on the monotonic clock,
        in a worker or in-loop: a budget several times shorter than the
        scan (>= 100 ms on either substrate, ~0.5 ms a chunk) interrupts
        it part-way at a chunk boundary, and resuming reproduces the
        uninterrupted rows."""
        data = DATA * copies
        reference, _ = run(
            scan_rows(
                data, backend=backend, scan_workers=0, chunk_bytes=chunk_bytes,
                clock=lambda: time.monotonic(),  # one chunk a span
            )
        )

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=scan_workers, chunk_bytes=chunk_bytes,
                cache=False,
            )
            service.register("acme", PATTERNS, backend=backend)
            await service.start()
            try:
                await service.scan("acme", DATA)  # worker cold start
                with pytest.raises(DeadlineExceeded) as info:
                    await service.scan("acme", data, deadline=0.03)
                error = info.value
                rest = await service.scan(
                    "acme", data[error.offset:], resume=error.checkpoint
                )
                return error, rest, service.metrics_snapshot()
            finally:
                await service.stop()

        error, rest, snapshot = run(scenario())
        assert 0 < error.offset < len(data)
        assert error.offset % chunk_bytes == 0
        assert rows(error.reports) + rows(rest) == reference
        assert rest.checkpoint.symbols_processed == len(data)
        assert snapshot["timeouts"] == 1
        if scan_workers:
            # Several chunks rode each executor round trip.
            assert 0 < snapshot["pool_dispatches"] < snapshot["pool_chunks"]
        else:
            assert snapshot["pool_dispatches"] == 0

    def test_drain_timeout_interrupts_a_large_request(self):
        """A worker hands back within the hold quantum, so forcing the
        deadlines at ``drain_timeout`` stops a 1 MiB request that has no
        deadline of its own long before it would finish (~2 s)."""
        data = DATA * 5242

        async def scenario():
            service = ScanService(workers=1, scan_workers=1, cache=False)
            service.register("acme", PATTERNS)
            await service.start()
            await service.scan("acme", DATA)  # worker cold start
            request = asyncio.ensure_future(service.scan("acme", data))
            while service._executing == 0:
                await asyncio.sleep(0.001)
            started = time.monotonic()
            await service.stop(drain_timeout=0.05)
            elapsed = time.monotonic() - started
            with pytest.raises(DeadlineExceeded) as info:
                await request
            return elapsed, info.value

        elapsed, error = run(scenario())
        assert elapsed < 1.0
        assert 0 < error.offset < len(data)

    def test_counters_reach_the_snapshot(self):
        _, snapshot = run(scan_rows(DATA, scan_workers=1))
        assert snapshot["pool_dispatches"] >= 1
        # 200 bytes in 16-byte chunks.
        assert snapshot["pool_chunks"] == 13
        _, snapshot = run(scan_rows(DATA, scan_workers=0))
        assert snapshot["pool_dispatches"] == snapshot["pool_chunks"] == 0


#: ^-anchored patterns keep the start-of-data cycle pending at a fresh
#: stream; the rest report often enough that pieces end on reports.
CURSOR_PATTERNS = ["^ab", "^c", "b[ac]+", "ca", "a.b"]


@pytest.fixture(scope="module")
def cursor_artifact():
    machine = compile_patterns(CURSOR_PATTERNS, report_codes=CURSOR_PATTERNS)
    return CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))


class TestDfaSpanScanner:
    """One cursor a span against a resumed ``scan`` a piece: the same
    reports as lists (offset, STE id, code and their order), the same
    checkpoint, every byte consumed."""

    @given(
        data=st.binary(max_size=160).map(
            lambda raw: bytes(b"abc"[byte % 3] for byte in raw)
        ),
        cut=st.integers(min_value=0, max_value=160),
        sizes=st.lists(st.integers(min_value=0, max_value=40), max_size=8),
        stride=st.sampled_from([1, 2]),
        flushing=st.booleans(),
    )
    @example(data=b"", cut=0, sizes=[], stride=1, flushing=False)
    @example(data=b"abcab", cut=0, sizes=[2, 3], stride=1, flushing=False)
    @example(data=b"cabcabca", cut=3, sizes=[1], stride=2, flushing=True)
    @settings(max_examples=80, deadline=None)
    def test_cursor_span_equals_chained_resumed_scans(
        self, cursor_artifact, data, cut, sizes, stride, flushing
    ):
        reference = create_backend("lazy-dfa", cursor_artifact)
        spans = create_backend("lazy-dfa", cursor_artifact, stride=stride)
        if flushing:
            spans.dfa._max_states = 3  # flushes inside the span's walks
        cut = min(cut, len(data))
        # A fresh stream (start of data pending), or one suspended mid-way.
        resume = reference.scan(data[:cut]).checkpoint if cut else None
        rest = data[cut:]
        pieces = []
        position = 0
        for size in itertools.cycle(sizes + [7]):
            pieces.append(rest[position : position + size])
            position += size
            if position >= len(rest):
                break
        expected, checkpoint = [], resume
        for piece in pieces:
            result = reference.scan(piece, resume=checkpoint)
            expected += rows(result)
            checkpoint = result.checkpoint

        scanner = procpool.span_scanner(spans)
        assert isinstance(scanner, procpool.DfaSpans)
        cursor = scanner.open(resume)
        for piece in pieces:
            cursor.step(piece)
        found, got = scanner.close(cursor)
        reply = procpool._materialised(
            procpool.SpanReply(found, got, len(rest), 0, scanner.raw), scanner
        )
        assert rows(reply.reports) == expected
        assert reply.checkpoint == checkpoint
        assert reply.checkpoint.symbols_processed == len(data)
        assert (spans.dfa.cache_info()["flushes"] > 0) <= flushing


class TestSupervision:
    def test_crashed_process_is_typed_and_pool_respawns(self):
        async def scenario():
            service = ScanService(
                workers=1, scan_workers=2, chunk_bytes=16, cache=False
            )
            service.register("acme", PATTERNS)
            await service.start()
            try:
                before = rows(await service.scan("acme", DATA))
                pid = service.crash_scan_process()
                assert pid is not None
                with pytest.raises(WorkerCrashed) as info:
                    await service.scan("acme", DATA)
                assert info.value.retryable
                after = rows(await service.scan("acme", DATA))
                return before, after, service.metrics_snapshot()
            finally:
                await service.stop()

        before, after, snapshot = run(scenario())
        assert after == before
        assert snapshot["pool_respawns"] == 1

    def test_crash_does_not_charge_the_breaker(self):
        """A dead process is an infrastructure fault, not evidence the
        tenant's primary backend is bad: the breaker stays closed."""

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=1, breaker_threshold=1, cache=False
            )
            service.register("acme", PATTERNS)
            await service.start()
            try:
                await service.scan("acme", DATA)
                service.crash_scan_process()
                with pytest.raises(WorkerCrashed):
                    await service.scan("acme", DATA)
                return service.breaker_state("acme")
            finally:
                await service.stop()

        assert run(scenario()) == "closed"


    def test_kill_mid_span_is_typed_and_retry_has_no_duplicates(self):
        """SIGKILL the only worker while it holds a span of a long
        request: the request fails with the retryable error (partial
        reports are dropped with it) and the retry from the start equals
        the in-loop rows — nothing reported twice."""
        data = DATA * 1280
        reference, _ = run(scan_rows(data, scan_workers=0, chunk_bytes=512))

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=1, chunk_bytes=512, cache=False
            )
            service.register("acme", PATTERNS)
            await service.start()
            try:
                request = asyncio.ensure_future(service.scan("acme", data))
                while service._procpool.dispatched == 0:
                    await asyncio.sleep(0.001)
                assert service.crash_scan_process() is not None
                with pytest.raises(WorkerCrashed) as info:
                    await request
                assert info.value.retryable
                retried = await service.scan("acme", data)
                return rows(retried), service.metrics_snapshot()
            finally:
                await service.stop()

        retried, snapshot = run(scenario())
        assert retried == reference
        assert snapshot["pool_respawns"] == 1

    def test_worker_side_exception_is_not_a_crash(self):
        """An ``OSError``/``RuntimeError`` raised *by the scan* inside a
        live worker is the tenant's fault: it propagates as itself,
        charges the breaker (so the tenant lands on the golden tier
        instead of retrying forever) and leaves the pool — and other
        tenants' spans in it — alone."""
        parent = os.getpid()
        saved = dict(backend_registry._REGISTRY)

        @backend_registry.register_backend("raises-in-worker")
        class RaisesInWorker(PackedKernelBackend):
            def scan(self, data, **kwargs):
                if os.getpid() != parent:
                    raise RuntimeError("engine rebuild hit the recursion limit")
                return super().scan(data, **kwargs)

        async def scenario():
            # fork: the workers inherit the registration above.
            service = ScanService(
                workers=1, scan_workers=1, breaker_threshold=1,
                cache=False, mp_method="fork",
            )
            service.register("acme", PATTERNS, backend="raises-in-worker")
            await service.start()
            try:
                with pytest.raises(RuntimeError, match="recursion limit"):
                    await service.scan("acme", DATA)
                assert service.breaker_state("acme") == "open"
                outcome = await service.scan("acme", DATA)
                return outcome, service.metrics_snapshot()
            finally:
                await service.stop()

        try:
            outcome, snapshot = run(scenario())
        finally:
            backend_registry._REGISTRY.clear()
            backend_registry._REGISTRY.update(saved)
        assert outcome.fallback
        assert snapshot["pool_respawns"] == 0
        assert snapshot["breaker_trips"] == 1


class TestLifecycle:
    def test_stop_closes_pool_and_shared_tables(self):
        """Stop ends every worker process and leaves ``/dev/shm`` as it
        found it: a tenant's tables reach the workers inside its spec,
        so there is no shared-memory block to close."""
        found = shm_blocks()

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=2, chunk_bytes=16, cache=False
            )
            service.register("acme", PATTERNS, backend="lazy-dfa")
            await service.start()
            await service.scan("acme", DATA)
            state = service._tenant("acme")
            assert state.worker_spec is not None and state.worker_spec.tables
            assert shm_blocks() == found
            processes = [w.process for w in service._procpool._workers]
            assert processes
            await service.stop()
            assert not service._procpool._workers
            assert not any(process.is_alive() for process in processes)
            assert shm_blocks() == found
            with pytest.raises(ServiceClosed):
                await service.scan("acme", DATA)

        run(scenario())

    def test_hot_reload_swaps_spec_and_shared_block(self):
        """Re-registering with new patterns drops the cached worker spec,
        whose tables stand in for the old shared block; the next pooled
        scan serves the *new* pattern set and publishes no block."""
        found = shm_blocks()

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=2, chunk_bytes=16, cache=False
            )
            service.register("acme", PATTERNS, backend="lazy-dfa")
            await service.start()
            try:
                before = await service.scan("acme", b"cat and emu")
                state = service._tenant("acme")
                first_spec = state.worker_spec
                assert first_spec is not None and first_spec.tables
                assert service.register("acme", ["emu"], backend="lazy-dfa")
                assert state.worker_spec is None
                after = await service.scan("acme", b"cat and emu")
                assert state.worker_spec is not first_spec
                assert state.worker_spec.tables
                assert shm_blocks() == found
                return before, after
            finally:
                await service.stop()

        before, after = run(scenario())
        assert [r.report_code for r in before.reports] == ["cat"]
        assert [r.report_code for r in after.reports] == ["emu"]

    def test_fallback_tier_scans_in_loop(self):
        """While the breaker is open the golden-fallback tier must not
        depend on the process pool: fallback scans dispatch zero chunks
        to workers."""
        from repro.errors import SimulationError

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=1, breaker_threshold=1, cache=False
            )
            service.register("acme", PATTERNS)
            await service.start()
            try:
                service.inject_scan_faults("acme", 1, SimulationError("boom"))
                with pytest.raises(SimulationError):
                    await service.scan("acme", DATA)
                assert service.breaker_state("acme") == "open"
                dispatched = service._procpool.dispatched
                outcome = await service.scan("acme", DATA)
                assert outcome.fallback
                assert service._procpool.dispatched == dispatched
            finally:
                await service.stop()

        run(scenario())


class TestExecutorUnit:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ProcPoolScanExecutor(0)

    def test_default_mp_method_is_known(self):
        assert default_mp_method() in ("fork", "spawn")

    def test_worker_cache_spec_forms(self, tmp_path):
        cache = CompileCache(tmp_path / "artifacts")
        spec = worker_cache_spec(cache)
        # A live cache collapses to its directory: a worker building
        # CompileCache(spec) lands on the same one.
        assert spec == str(tmp_path / "artifacts")
        assert CompileCache(spec).directory == cache.directory
        for passthrough in ("auto", True, False, None):
            assert worker_cache_spec(passthrough) == passthrough


# -- the pipe plane ---------------------------------------------------------


def process_gone(pid: int) -> bool:
    """True once ``pid`` has been reaped (children of this process)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


async def until(condition, timeout=10.0):
    """Poll ``condition()`` on the running loop; fail past ``timeout``."""
    give_up_at = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up_at, "condition never held"
        await asyncio.sleep(0.001)


class TestPipePlane:
    def test_spec_crosses_the_pipe_once_per_worker(self, monkeypatch):
        """50 spans over two workers: the spec is pickled once for each
        worker that served the tenant — as often as an engine was cold
        started — and never again."""
        pickled = []

        def counting_getstate(self):
            pickled.append(self.registration.fingerprint)
            return self.__dict__

        monkeypatch.setattr(
            procpool.TenantWorkerSpec, "__getstate__", counting_getstate,
            raising=False,
        )

        async def scenario():
            service = ScanService(
                workers=4, scan_workers=2, chunk_bytes=64, cache=False
            )
            service.register(
                "acme", PATTERNS, backend="lazy-dfa",
                limits=TenantLimits(max_in_flight=50),
            )
            await service.start()
            try:
                outcomes = await asyncio.gather(
                    *(service.scan("acme", DATA) for _ in range(50))
                )
                return outcomes, service.metrics_snapshot()
            finally:
                await service.stop()

        reference, _ = run(scan_rows(DATA, backend="lazy-dfa", chunk_bytes=64))
        outcomes, snapshot = run(scenario())
        assert all(rows(outcome) == reference for outcome in outcomes)
        assert snapshot["pool_dispatches"] >= 50
        assert 1 <= len(pickled) <= 2
        assert snapshot["pool_cold_tables"] == len(pickled)
        assert snapshot["pool_cold_rebuilds"] == 0

    def test_need_spec_after_eviction_stays_bit_identical(self):
        """More tenants than a worker's engine cache holds, visited in a
        cycle: every visit finds the engine evicted, asks for the spec
        again, cold starts — and reports what the in-loop plane does."""
        count = procpool.WORKER_ENGINE_CACHE_LIMIT + 1
        tenants = {
            f"tenant-{index}": (
                PATTERNS + [f"bat{index}"],
                "lazy-dfa" if index % 2 else None,
            )
            for index in range(count)
        }
        data = DATA + b" bat0 bat3 bat8 "

        async def scan_all(scan_workers):
            service = ScanService(
                workers=1, scan_workers=scan_workers, chunk_bytes=64,
                cache=False,
            )
            for name, (patterns, backend) in tenants.items():
                service.register(name, patterns, backend=backend)
            await service.start()
            try:
                seen = [
                    (name, rows(await service.scan(name, data)))
                    for _ in range(2)
                    for name in tenants
                ]
                return seen, service.metrics_snapshot()
            finally:
                await service.stop()

        pooled, snapshot = run(scan_all(1))
        inloop, _ = run(scan_all(0))
        assert pooled == inloop
        assert any(found for _, found in pooled)
        cold = snapshot["pool_cold_tables"] + snapshot["pool_cold_rebuilds"]
        assert cold == 2 * count
        assert snapshot["pool_cold_tables"] == 2 * (count // 2)

    def test_hot_reload_under_traffic(self):
        """Re-registering while requests are queued and in flight: each
        request is served whole by the pattern set it started on, none
        fails, and everything admitted after the reload sees the new
        set."""
        data = DATA * 40
        old_rows, _ = run(scan_rows(data, chunk_bytes=256))

        async def scenario():
            service = ScanService(
                workers=4, scan_workers=2, chunk_bytes=256, cache=False
            )
            service.register("acme", PATTERNS, backend="lazy-dfa")
            await service.start()
            try:
                before = [
                    asyncio.ensure_future(service.scan("acme", data))
                    for _ in range(4)
                ]
                await until(lambda: service._procpool.dispatched > 0)
                assert service.register("acme", ["sat", "bat"], backend="lazy-dfa")
                after = [
                    asyncio.ensure_future(service.scan("acme", data))
                    for _ in range(4)
                ]
                return (
                    [rows(outcome) for outcome in await asyncio.gather(*before)],
                    [rows(outcome) for outcome in await asyncio.gather(*after)],
                    rows(service.tenant_engine("acme").backend.scan(data).reports),
                )
            finally:
                await service.stop()

        before, after, new_rows = run(scenario())
        assert new_rows != old_rows
        assert all(found in (old_rows, new_rows) for found in before)
        assert before[0] == old_rows  # it was in a worker when the reload came
        assert all(found == new_rows for found in after)

    @pytest.mark.parametrize("backend", [None, "lazy-dfa"])
    def test_reply_larger_than_the_pipe_buffer(self, backend):
        """40 000 reports come back in one reply — far past the 64 KiB a
        pipe buffers — while more spans are queued behind it."""
        data = b"a" * 40_000

        async def scan(scan_workers):
            service = ScanService(
                workers=2, scan_workers=scan_workers, chunk_bytes=1 << 16,
                cache=False,
            )
            service.register("acme", ["a"], backend=backend)
            await service.start()
            try:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(
                        *(service.scan("acme", data) for _ in range(3))
                    ),
                    60,
                )
                return [rows(outcome) for outcome in outcomes]
            finally:
                await service.stop()

        pooled = run(scan(1))
        assert len(pooled[0]) == 40_000
        assert pooled == run(scan(0))

    def test_cancelled_waiter_does_not_leak_its_reply(self):
        """``crash_worker`` cancels a service coroutine whose span is
        still running in the process.  That reply is read and dropped
        before the process serves anyone else: the next request, on the
        same process, gets its own rows."""
        long_data = b"dog " * 50_000
        reference, _ = run(scan_rows(DATA, chunk_bytes=512))

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=1, chunk_bytes=512, cache=False
            )
            service.register("acme", PATTERNS)
            await service.start()
            try:
                pool = service._procpool
                doomed = asyncio.ensure_future(service.scan("acme", long_data))
                await until(lambda: not pool._idle)  # the span is out
                assert service.crash_worker(0)
                with pytest.raises(WorkerCrashed):
                    await doomed
                outcome = await service.scan("acme", DATA)
                return outcome, pool.worker_pids(), service.metrics_snapshot()
            finally:
                await service.stop()

        outcome, pids, snapshot = run(scenario())
        assert rows(outcome) == reference
        assert outcome.offset == len(DATA)
        assert snapshot["worker_restarts"] == 1
        assert snapshot["pool_respawns"] == 0 and len(pids) == 1


class TestPerWorkerSupervision:
    def test_idle_worker_killed_costs_exactly_the_next_span(self):
        """SIGKILL, from outside, the idle worker that is *not* next in
        line.  The loop sees its pipe close, the next span pays with a
        retryable error, one process is replaced — and the replacement
        still attaches the tenant's shared block."""

        async def scenario():
            service = ScanService(
                workers=2, scan_workers=2, chunk_bytes=64, cache=False
            )
            service.register("acme", PATTERNS, backend="lazy-dfa")
            await service.start()
            try:
                pool = service._procpool

                async def burst():
                    return await asyncio.gather(
                        *(service.scan("acme", DATA) for _ in range(8))
                    )

                reference = rows((await burst())[0])
                # Both processes have served: both pipes are watched.
                assert service.metrics_snapshot()["pool_cold_tables"] == 2
                victim = pool._idle[-1].process
                os.kill(victim.pid, 9)
                await until(lambda: not victim.is_alive())
                await asyncio.sleep(0.05)  # the reader sees end-of-file
                with pytest.raises(WorkerCrashed) as info:
                    await service.scan("acme", DATA)
                assert info.value.retryable
                after = await burst()
                return reference, after, victim.pid, pool.worker_pids(), \
                    service.metrics_snapshot()
            finally:
                await service.stop()

        reference, after, victim, pids, snapshot = run(scenario())
        assert all(rows(outcome) == reference for outcome in after)
        assert snapshot["pool_respawns"] == 1
        assert len(pids) == 2 and victim not in pids
        assert snapshot["pool_cold_tables"] == 3
        assert snapshot["pool_cold_rebuilds"] == 0
        assert snapshot["failed"] == 1

    def test_busy_worker_killed_spares_the_other_workers_span(self):
        """Two long requests, one per process; SIGKILL one process.
        Exactly one request fails (retryable), the other finishes with
        in-loop rows, and one process is replaced."""
        data = DATA * 2000
        reference, _ = run(
            scan_rows(data, backend="lazy-dfa", chunk_bytes=512)
        )

        async def scenario():
            service = ScanService(
                workers=2, scan_workers=2, chunk_bytes=512, cache=False
            )
            service.register("acme", PATTERNS, backend="lazy-dfa")
            await service.start()
            try:
                pool = service._procpool
                await asyncio.gather(
                    *(service.scan("acme", DATA) for _ in range(8))
                )
                requests = [
                    asyncio.ensure_future(service.scan("acme", data))
                    for _ in range(2)
                ]
                await until(
                    lambda: all(w.span is not None for w in pool._workers)
                )
                os.kill(pool._workers[0].process.pid, 9)
                results = await asyncio.gather(
                    *requests, return_exceptions=True
                )
                retried = await service.scan("acme", data)
                return results, retried, service.metrics_snapshot()
            finally:
                await service.stop()

        results, retried, snapshot = run(scenario())
        crashed = [r for r in results if isinstance(r, WorkerCrashed)]
        served = [r for r in results if not isinstance(r, Exception)]
        assert len(crashed) == 1 and len(served) == 1, results
        assert rows(served[0]) == reference
        assert rows(retried) == reference
        assert snapshot["pool_respawns"] == 1
        assert snapshot["pool_cold_rebuilds"] == 0

    def test_drain_kills_a_wedged_worker_and_leaves_no_child(self):
        """SIGSTOP the only worker while it holds a span: the drain
        deadlines the request, waits its budget once more, kills the
        process (the span fails retryable) and returns — with every
        child, the replacement included, reaped."""
        data = DATA * 5242

        async def scenario():
            service = ScanService(workers=1, scan_workers=1, cache=False)
            service.register("acme", PATTERNS)
            await service.start()
            pool = service._procpool
            await service.scan("acme", DATA)  # worker cold start
            request = asyncio.ensure_future(service.scan("acme", data))
            await until(lambda: not pool._idle)
            (wedged,) = pool.worker_pids()
            os.kill(wedged, 19)  # SIGSTOP
            started = time.monotonic()
            try:
                await service.stop(drain_timeout=0.1)
            finally:
                if not process_gone(wedged):  # a failed drain: clean up
                    os.kill(wedged, 9)
            elapsed = time.monotonic() - started
            with pytest.raises(WorkerCrashed):
                await request
            return elapsed, wedged, service.metrics_snapshot()

        elapsed, wedged, snapshot = run(scenario())
        assert elapsed < 5.0
        assert process_gone(wedged)
        assert snapshot["pool_respawns"] == 1
        assert any("wedged" in event for event in snapshot["events"])
        assert not [
            child for child in multiprocessing.active_children()
            if child.name == "scan-process"
        ]


class TestWorkerSideSignals:
    """What only the worker knows has to come back in the span reply."""

    def test_worker_side_degrade_reaches_the_breaker(self):
        """Under the pool the parent's engine does not scan, so its own
        health log never moves; the degrade events a worker's backend
        logs ride the reply and charge the tenant as they would
        in-loop."""
        parent = os.getpid()
        saved = dict(backend_registry._REGISTRY)

        @backend_registry.register_backend("degrades-in-worker")
        class DegradesInWorker(PackedKernelBackend):
            health_events_dropped = 0

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.health_events = ()

            def scan(self, data, **kwargs):
                if os.getpid() != parent:
                    self.health_events += ("group fell back to golden",)
                return super().scan(data, **kwargs)

        async def scenario():
            # fork: the worker inherits the registration above.
            service = ScanService(
                workers=1, scan_workers=1, breaker_threshold=2,
                chunk_bytes=64, cache=False, mp_method="fork",
            )
            service.register("acme", PATTERNS, backend="degrades-in-worker")
            await service.start()
            try:
                first = await service.scan("acme", DATA)
                state = service.breaker_state("acme")
                second = await service.scan("acme", DATA)
                return first, state, second, service.metrics_snapshot()
            finally:
                await service.stop()

        try:
            first, state, second, snapshot = run(scenario())
        finally:
            backend_registry._REGISTRY.clear()
            backend_registry._REGISTRY.update(saved)
        # 200 bytes in 64-byte chunks: four scans, four events, one span.
        assert not first.fallback and state == "open"
        assert second.fallback and rows(second) == rows(first)
        assert snapshot["breaker_trips"] == 1
        assert any("4 engine degrade" in e for e in snapshot["events"])

    def test_tables_that_do_not_load_are_counted_and_logged(self):
        """A spec whose tables the kernel refuses (a head outside the
        state vector): the worker rebuilds from the registration,
        bit-identically, and the parent counts the rebuild and logs why."""

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=1, chunk_bytes=64, cache=False
            )
            service.register("acme", PATTERNS, backend="lazy-dfa")
            state = service._tenant("acme")
            spec = service._tenant_worker_spec(state)
            tables = dict(spec.tables)
            tables["succ_heads"] = tables["succ_heads"] + int(tables["n_bits"])
            state.worker_spec = replace(spec, tables=tables)
            await service.start()
            try:
                got = await service.scan("acme", DATA)
                return got, service.metrics_snapshot()
            finally:
                await service.stop()

        got, snapshot = run(scenario())
        inloop, _ = run(scan_rows(DATA, backend="lazy-dfa"))
        assert rows(got) == inloop
        assert snapshot["pool_cold_tables"] == 0
        assert snapshot["pool_cold_rebuilds"] == 1
        assert any(
            "could not use the tenant's tables (SimulationError: corrupt "
            "kernel tables" in event
            for event in snapshot["events"]
        )


# -- cross-process artifact-cache contention (satellite) --------------------

_CONTENTION_PATTERNS_SIZE = 300


def _contention_build(slot, directory, barrier, queue):
    """Child-process body: cold-start an engine against the shared cache
    directory (whose artifact has been corrupted) and report the landing
    tier plus scan rows.  Module-level so it works under any mp start
    method."""
    automaton = chain_automaton(
        _CONTENTION_PATTERNS_SIZE, seed=3, automaton_id="contention"
    )
    cache = CompileCache(directory)
    barrier.wait()
    engine = CacheAutomatonEngine(automaton, cache=cache)
    health = engine.health()
    data = bytes(range(256)) * 20
    queue.put((
        slot,
        health.tier,
        health.backend,
        [(m.end, m.state, m.rule) for m in engine.scan(data)],
    ))


class TestCrossProcessCacheContention:
    def test_corrupt_artifact_race_lands_both_processes_healthy(
        self, tmp_path
    ):
        """PR 8 proved the warm-cache → quarantine → recompile chain is
        safe under *thread* contention; the process pool makes the same
        race real across process boundaries.  Two worker processes
        cold-start the same fingerprint against one cache directory
        holding a corrupt artifact: whatever interleaving they take,
        both must land on a healthy (non-golden) tier with bit-identical
        scan results."""
        directory = str(tmp_path / "shared")
        automaton = chain_automaton(
            _CONTENTION_PATTERNS_SIZE, seed=3, automaton_id="contention"
        )
        seeder = CompileCache(directory)
        seeder.store_artifact(
            CompiledArtifact.from_mapping(compile_automaton(automaton, CA_P))
        )
        artifact = next((tmp_path / "shared").rglob("*.artifact"))
        artifact.write_bytes(b"garbage, not a cache entry")

        context = multiprocessing.get_context(default_mp_method())
        barrier = context.Barrier(2)
        queue = context.Queue()
        children = [
            context.Process(
                target=_contention_build,
                args=(slot, directory, barrier, queue),
            )
            for slot in range(2)
        ]
        for child in children:
            child.start()
        results = {}
        for _ in children:
            slot, tier, backend, scan_rows_ = queue.get(timeout=120)
            results[slot] = (tier, backend, scan_rows_)
        for child in children:
            child.join(timeout=120)
            assert child.exitcode == 0

        assert set(results) == {0, 1}
        for tier, backend, _ in results.values():
            assert tier != "golden-fallback"
            assert backend != "golden-interpreter"
        assert results[0][2] == results[1][2]
        # Whichever process re-stored the artifact, a later cold start
        # gets a clean warm hit.
        relieved = CacheAutomatonEngine(
            automaton, cache=CompileCache(directory)
        )
        assert relieved.cache_info()["hits"] == 1
        assert relieved.health().tier == "warm-cache"
