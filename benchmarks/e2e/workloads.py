"""The five workloads.

Every workload has the same four steps, so that every end-to-end metric
is defined on every workload:

``build``   bring the system from rulesets to "first result" (one
            *ready* sample per ruleset; cold on an empty cache directory,
            warm on a populated one);
``walk``    the first walk of a fresh system over the warm-up slices;
``measure`` the measured phase — closed loop, and for the serving
            workloads an open loop after it;
``close``   stop everything the build started.

An *operation* is the workload's unit of work: one slice scanned
(offline-*), one ruleset taken from patterns to its first result
(ruleset-churn), one request (serve-*).  Every timed sample carries the
time it started and ended, the workloads tick the noise reference
(``host.Calibrator``) between samples, and values are reported in
quiet-host time.  Nothing here imports ``repro.eval``: the load
generator is the benchmark's own.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import host
import loads
from check import Checker, head, match_triples, outcome_triples
from layers import fold_engine
from repro.engine import CacheAutomatonEngine
from repro.service import (
    NetScanClient,
    RetryingClient,
    ScanServer,
    ScanService,
    TenantLimits,
)
from spans import Tracer

MB = 1e6
#: Callers of the closed loop and client connections: one per CPU.
CALLERS = max(1, host.stamp()["host.cpus"])

Samples = List[host.Sample]


@dataclass
class Measured:
    """What one measured phase produced, in end-to-end terms."""

    scan_mb_per_s: float
    capacity_rps: float
    latency_p50_ms: float
    within_limit_share: float
    cpu_ms_per_mb: float
    samples: int
    #: Per-layer counters and tails read at the same boundaries.
    detail: Dict[str, float] = field(default_factory=dict)


class Tally:
    """Samples and counters of one measured phase."""

    def __init__(self) -> None:
        self.samples: Dict[object, Samples] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)


@dataclass
class Starts:
    """Start-up samples, one list per ruleset, one sample per set-up."""

    ready: List[Samples]
    first_scan: List[Samples]
    walk: List[Samples]

    @classmethod
    def empty(cls, rulesets: int) -> "Starts":
        return cls(*([[] for _ in range(rulesets)] for _ in range(3)))


class Workload:
    name: str
    why: str
    #: An operation slower than this misses ``within_limit_share``.
    limit_ms: float
    #: Set-ups per run: ``setup_s`` and the start-up metrics are medians
    #: over them, the last system built is the one measured.
    setup_reps: int
    #: References before and after a timed call: more where the call is
    #: long, because its slowdown is read from them alone.
    references: int = 2

    def __init__(self, checker: Checker, tracer: Tracer, calib: host.Calibrator):
        self.checker = checker
        self.tracer = tracer
        self.calib = calib
        self.attempted = 0
        self.failed = 0
        #: Cache and kernel counters of every engine the workload dropped
        #: (traced runs only; see layers.fold_engine).
        self.counts: Dict[str, float] = {}

    def _verify(self, key, data: bytes, got) -> bool:
        self.attempted += 1
        ok = self.checker.check(key, data, got)
        if not ok:
            self.failed += 1
        return ok

    def _error(self) -> None:
        self.attempted += 1
        self.failed += 1

    def _retire(self, engine: CacheAutomatonEngine) -> None:
        if self.tracer.enabled:
            fold_engine(self.counts, engine)

    def _mean(self, samples: Samples) -> float:
        """Quiet-host mean: for units whose work differs (fresh bytes)."""
        return statistics.fmean(map(self.calib.quiet, samples))

    def _median(self, samples: Samples) -> float:
        """Quiet-host median: for repetitions of the same work."""
        return statistics.median(map(self.calib.quiet, samples))

    def _within(self, samples: Samples) -> int:
        """How many of the samples met the workload's limit."""
        return sum(self.calib.quiet(one) * 1e3 <= self.limit_ms for one in samples)

    def shutdown(self) -> None:
        """Release what outlives the steps (the serving event loop)."""


# -- offline ------------------------------------------------------------------


class Offline(Workload):
    """Closed loop, one caller, ``engine.scan`` over fixed-size slices."""

    slice_bytes: int
    #: Bytes of each slice re-scanned on the golden interpreter.
    check_prefix: int

    def generate(self, seed: int) -> loads.Load:
        self.load = self._make_load(seed)
        self.automata = {}
        for ruleset in self.load.rulesets:
            self.automata[ruleset.name] = ruleset.build()
            self.checker.add_automaton(ruleset.name, self.automata[ruleset.name])
        # One ring per ruleset for the whole run: a second measured phase
        # goes on where the first stopped, on bytes not yet scanned.
        self.pools = {
            ruleset.name: loads.CircularSlices(ruleset.streams[0], self.slice_bytes)
            for ruleset in self.load.rulesets
        }
        return self.load

    def build(self, cache_dir: str, starts: Starts):
        engines = {}
        for index, ruleset in enumerate(self.load.rulesets):
            self.calib.tick(self.references)
            started = time.perf_counter()
            with self.tracer.span("engine.ctor", ruleset.name):
                engine = host.quietly(
                    CacheAutomatonEngine,
                    self.automata[ruleset.name],
                    auto=True,
                    cache=cache_dir,
                )
            built = time.perf_counter()
            matches = engine.scan(ruleset.probe)
            done = time.perf_counter()
            self.calib.tick(self.references)
            starts.ready[index].append((done - started, started, done))
            starts.first_scan[index].append((done - built, built, done))
            self._verify(ruleset.name, ruleset.probe, match_triples(matches))
            engines[ruleset.name] = engine
        return engines

    def walk(self, engines, starts: Starts) -> None:
        for index, ruleset in enumerate(self.load.rulesets):
            engine = engines[ruleset.name]
            self.calib.tick(self.references)
            started = time.perf_counter()
            results = [engine.scan(piece) for piece in ruleset.warm]
            done = time.perf_counter()
            self.calib.tick(self.references)
            starts.walk[index].append((done - started, started, done))
            for piece, matches in zip(ruleset.warm, results):
                self._verify(
                    ruleset.name,
                    *head(piece, match_triples(matches), self.check_prefix),
                )

    def measure(self, engines, seconds: float, tally: Tally) -> None:
        # Results are compared after the phase, on the prefix of each
        # slice, so that the interpreter's time is not taken from it.
        pending = []
        deadline = time.perf_counter() + seconds
        self.calib.tick(self.references)
        while time.perf_counter() < deadline or not pending:
            for name, pool in self.pools.items():
                piece = pool.next()
                engine = engines[name]
                cpu_before = time.process_time()
                started = time.perf_counter()
                with self.tracer.span("engine.scan", name):
                    matches = engine.scan(piece)
                done = time.perf_counter()
                cpu = time.process_time() - cpu_before
                self.calib.tick(self.references)
                tally.samples["time", name].append((done - started, started, done))
                tally.samples["cpu", name].append((cpu, started, done))
                pending.append(
                    (
                        name,
                        head(piece, match_triples(matches), self.check_prefix),
                        (done - started, started, done),
                    )
                )
        for name, cut, sample in pending:
            if self._verify(name, *cut):
                tally.samples["correct"].append(sample)
        tally.counts["operations"] += len(pending)

    def finish(self, tally: Tally) -> Measured:
        # One slice of every ruleset is the unit of work; its time is the
        # sum of the per-ruleset slice times, which a slow ruleset cannot
        # hide in and a fast one cannot dominate.  Slices are fresh bytes,
        # so the mean is taken: a median would drop the report-dense ones.
        unit_s = sum(self._mean(tally.samples["time", name]) for name in self.pools)
        unit_cpu_s = sum(self._mean(tally.samples["cpu", name]) for name in self.pools)
        typical_s = sum(self._median(tally.samples["time", name]) for name in self.pools)
        every = [
            self.calib.quiet(sample)
            for name in self.pools
            for sample in tally.samples["time", name]
        ]
        rulesets = len(self.pools)
        unit_mb = rulesets * self.slice_bytes / MB
        return Measured(
            scan_mb_per_s=unit_mb / unit_s,
            capacity_rps=rulesets / unit_s,
            latency_p50_ms=typical_s / rulesets * 1e3,
            within_limit_share=self._within(tally.samples["correct"])
            / tally.counts["operations"],
            cpu_ms_per_mb=unit_cpu_s * 1e3 / unit_mb,
            samples=int(tally.counts["operations"]),
            detail={"latency_p95_ms": host.percentile(every, 0.95) * 1e3},
        )

    def close(self, engines) -> None:
        for engine in engines.values():
            self._retire(engine)
        engines.clear()


class OfflineFriendly(Offline):
    name = "offline-friendly"
    why = (
        "Determinisation-friendly suite rulesets land on lazy-dfa: its hot "
        "loop and report materialisation do the work; compiler, packed "
        "kernel and service do none."
    )
    slice_bytes = loads.FRIENDLY_SLICE
    check_prefix = loads.FRIENDLY_SLICE // 16
    limit_ms = 3.0
    setup_reps = 5
    _make_load = staticmethod(loads.offline_friendly)


class OfflineHostile(Offline):
    name = "offline-hostile"
    why = (
        "Determinisation-hostile rulesets plus x.{14}y land on hybrid/packed-"
        "kernel: step cache and hybrid merge do the work; a lazy-dfa "
        "warm-hit change must show nothing here."
    )
    slice_bytes = loads.HOSTILE_SLICE
    check_prefix = loads.HOSTILE_SLICE // 16
    limit_ms = 75.0
    setup_reps = 3
    references = 6
    _make_load = staticmethod(loads.offline_hostile)


# -- ruleset churn ------------------------------------------------------------


class RulesetChurn(Workload):
    """Pattern lists taken from patterns to a first result, over and over.

    Set-up is the cold cycle (empty cache directory); its twin is the
    warm cycle (fresh engine objects, populated directory); the measured
    phase is the rewrite cycle, in which every fourth list has one rule
    edited, so stores run beside loads and hits beside misses.
    """

    name = "ruleset-churn"
    why = (
        "Start-up as the CLI and hot-reload see it: regex, classify, "
        "compiler and the artifact cache (reads and writes) do the work and "
        "the scan is ~1 ms."
    )
    limit_ms = 200.0
    setup_reps = 3
    references = 4

    def generate(self, seed: int) -> loads.Load:
        self.load = loads.ruleset_churn(seed)
        #: Rewrite cycles so far; every edit is named after its cycle.
        self.cycle = 0
        for index, ruleset in enumerate(self.load.rulesets):
            self.checker.add_patterns(index, ruleset.patterns)
        return self.load

    def _ready(self, patterns, ruleset, cache_dir):
        """patterns → engine → first result; returns the engine, its
        matches, and when it started, was built and had scanned."""
        started = time.perf_counter()
        with self.tracer.span("engine.from_patterns", ruleset.name):
            engine = host.quietly(
                CacheAutomatonEngine.from_patterns,
                patterns,
                auto=True,
                cache=cache_dir,
            )
        built = time.perf_counter()
        matches = engine.scan(ruleset.probe)
        return engine, matches, started, built, time.perf_counter()

    def build(self, cache_dir: str, starts: Starts):
        engines = []
        for index, ruleset in enumerate(self.load.rulesets):
            self.calib.tick(self.references)
            engine, matches, started, built, done = self._ready(
                ruleset.patterns, ruleset, cache_dir
            )
            self.calib.tick(self.references)
            starts.ready[index].append((done - started, started, done))
            starts.first_scan[index].append((done - built, built, done))
            self._verify(index, ruleset.probe, match_triples(matches))
            engines.append(engine)
        return cache_dir, engines

    def walk(self, system, starts: Starts) -> None:
        """Nothing to warm: every operation builds a fresh engine."""

    @staticmethod
    def edited(index: int) -> bool:
        """Every fourth list, spread over the four kinds of list."""
        return index % 4 == (index // 4) % 4

    def measure(self, system, seconds: float, tally: Tally) -> None:
        cache_dir, _ = system
        deadline = time.perf_counter() + seconds
        # Whole cycles only, so every run measures the same mix of lists.
        while True:
            self.cycle += 1
            for index, ruleset in enumerate(self.load.rulesets):
                patterns, key = ruleset.patterns, index
                if self.edited(index):
                    patterns = loads.churn_edit(
                        ruleset.patterns, self.load.seed, index, self.cycle
                    )
                    key = (index, self.cycle)
                    self.checker.add_patterns(key, patterns)
                self.calib.tick(self.references)
                cpu_before = time.process_time()
                engine, first, started, built, again = self._ready(
                    patterns, ruleset, cache_dir
                )
                matches = engine.scan(ruleset.streams[0])
                done = time.perf_counter()
                cpu = time.process_time() - cpu_before
                self.calib.tick(self.references)
                self._retire(engine)
                ok = self._verify(key, ruleset.probe, match_triples(first))
                ok &= self._verify(key, ruleset.streams[0], match_triples(matches))
                if key != index:
                    self.checker.forget(key)
                ready: host.Sample = (again - started, started, again)
                tally.samples["ready", index].append(ready)
                tally.samples["scan", index].append((done - built, built, done))
                tally.samples["total", index].append((done - started, started, done))
                tally.samples["cpu", index].append((cpu, started, done))
                if ok:
                    tally.samples["correct"].append(ready)
                tally.counts["operations"] += 1
            if time.perf_counter() >= deadline:
                return

    def finish(self, tally: Tally) -> Measured:
        lists = range(len(self.load.rulesets))
        cycle_s = sum(self._median(tally.samples["total", index]) for index in lists)
        cycle_cpu_s = sum(self._median(tally.samples["cpu", index]) for index in lists)
        cycle_mb = sum(
            len(r.probe) + len(r.streams[0]) for r in self.load.rulesets
        ) / MB
        ready = [self._median(tally.samples["ready", index]) for index in lists]
        scan_s = sum(self._median(tally.samples["scan", index]) for index in lists)
        return Measured(
            scan_mb_per_s=cycle_mb / scan_s,
            capacity_rps=len(lists) / cycle_s,
            latency_p50_ms=statistics.fmean(ready) * 1e3,
            within_limit_share=self._within(tally.samples["correct"])
            / tally.counts["operations"],
            cpu_ms_per_mb=cycle_cpu_s * 1e3 / cycle_mb,
            samples=int(tally.counts["operations"]),
            detail={"latency_p95_ms": host.percentile(ready, 0.95) * 1e3},
        )

    def close(self, system) -> None:
        _, engines = system
        for engine in engines:
            self._retire(engine)
        engines.clear()


# -- serving ------------------------------------------------------------------

#: Slices of the closed loop, seconds of wall time actually elapsed.
SLICE_S = 0.25
#: The serving workloads tick the reference from the service's own loop,
#: this often: it sees what the service sees and takes ~2 % of the loop.
_TICK_S = 0.015
#: How long the open loop waits for stragglers after its last send.
_STRAGGLER_S = 5.0
_SERVICE_COUNTERS = (
    "shed", "timeouts", "fallback_scans", "breaker_trips", "worker_restarts",
    "pool_respawns",
)


@dataclass
class _Served:
    service: ScanService
    server: Optional[ScanServer]
    connections: List[NetScanClient]
    callers: List[RetryingClient]


@dataclass
class _Tick:
    at: float
    requests: int
    bytes: int
    cpu_self: float
    cpu_children: float


class Serving(Workload):
    """Four lazy-dfa tenants behind ``ScanService``; request sizes
    2/16/64 KiB weighted 6:3:1.  Phase A is a closed loop with one caller
    per CPU; phase B a seeded-Poisson open loop at ``rate_per_s``, timed
    from when each request was due."""

    scan_workers: int
    tcp: bool
    rate_per_s: float

    def __init__(self, checker, tracer, calib, loop=None):
        super().__init__(checker, tracer, calib)
        self.loop = loop or asyncio.new_event_loop()
        #: First request of each tenant on each fresh service, seconds.
        self.first_request_s: List[float] = []
        #: Position in the request order; segments go on where the last stopped.
        self.cursor = 0

    def generate(self, seed: int) -> loads.Load:
        self.load = loads.serving(self.name, seed, self.rate_per_s)
        for ruleset in self.load.rulesets:
            self.checker.add_patterns(ruleset.name, ruleset.patterns)
            # Requests replay these streams, so every response is compared
            # with an interpretation made here, once.
            for data in [ruleset.probe, *ruleset.warm, *ruleset.streams]:
                self.checker.expected(ruleset.name, data)
        return self.load

    # Each step runs on the workload's own loop, which outlives the step:
    # the service's tasks and sockets belong to it.
    def build(self, cache_dir, starts: Starts):
        return self.loop.run_until_complete(self._build(cache_dir, starts))

    def walk(self, served, starts: Starts) -> None:
        self.loop.run_until_complete(self._walk(served, starts))

    def measure(self, served, seconds: float, tally: Tally) -> None:
        self.loop.run_until_complete(self._measure(served, seconds, tally))

    def close(self, served) -> None:
        self.loop.run_until_complete(self._close(served))

    def shutdown(self) -> None:
        self.loop.close()

    async def _build(self, cache_dir, starts: Starts) -> _Served:
        service = ScanService(
            workers=4,
            scan_workers=self.scan_workers,
            chunk_bytes=2048,
            cache=cache_dir,
        )
        await service.start()
        server = None
        connections: List[NetScanClient] = []
        targets: Sequence[object] = [service] * CALLERS
        if self.tcp:
            server = ScanServer(service)
            await server.start()
            for _ in range(CALLERS):
                connections.append(await NetScanClient.connect(*server.address))
            targets = connections
        callers = [
            RetryingClient(target, rng=random.Random(self.load.seed + index))
            for index, target in enumerate(targets)
        ]
        served = _Served(service, server, connections, callers)
        for index, ruleset in enumerate(self.load.rulesets):
            self.calib.tick(self.references)
            started = time.perf_counter()
            with self.tracer.span("service.register", ruleset.name):
                host.quietly(
                    service.register,
                    ruleset.name,
                    ruleset.patterns,
                    backend="lazy-dfa",
                    limits=TenantLimits(dfa_max_states=ruleset.dfa_max_states),
                )
            registered = time.perf_counter()
            triples = await self._request(served, 0, ruleset, ruleset.probe)
            done = time.perf_counter()
            self.calib.tick(self.references)
            starts.ready[index].append((done - started, started, done))
            starts.first_scan[index].append((done - registered, registered, done))
            self.first_request_s.append(done - registered)
            self._settle(ruleset, ruleset.probe, triples)
        return served

    async def _request(self, served, caller, ruleset, data):
        """One request; the result triples, or ``None`` when it failed."""
        try:
            outcome = await served.callers[caller].scan(ruleset.name, data)
        except Exception:  # typed service errors and transport faults alike
            return None
        return outcome_triples(outcome)

    def _settle(self, ruleset, data, triples) -> bool:
        if triples is None:
            self._error()
            return False
        return self._verify(ruleset.name, data, triples)

    async def _walk(self, served, starts: Starts) -> None:
        for index, ruleset in enumerate(self.load.rulesets):
            self.calib.tick(self.references)
            started = time.perf_counter()
            results = [
                await self._request(served, 0, ruleset, data)
                for data in ruleset.warm
            ]
            done = time.perf_counter()
            self.calib.tick(self.references)
            starts.walk[index].append((done - started, started, done))
            for data, triples in zip(ruleset.warm, results):
                self._settle(ruleset, data, triples)

    def _pick(self, index: int):
        tenant, stream = self.load.requests[index % len(self.load.requests)]
        ruleset = self.load.rulesets[tenant]
        return ruleset, ruleset.streams[stream]

    async def _ticker(self, until: float, done: List[int], workers, ticks: List[_Tick]):
        """Tick the reference on the service's loop every ``_TICK_S`` and
        cut the phase into slices of the wall time that really elapsed."""
        while True:
            self.calib.tick(1)
            now = time.perf_counter()
            if not ticks or now - ticks[-1].at >= SLICE_S or now >= until:
                cpu_self, cpu_children = host.cpu_seconds(workers)
                ticks.append(_Tick(now, done[0], done[1], cpu_self, cpu_children))
            if now >= until:
                return
            await asyncio.sleep(_TICK_S)

    async def _closed_loop(self, served, seconds: float, workers):
        """``CALLERS`` callers, each sending its next request when the
        previous one completes.  Returns the responses and the ticks."""
        rows = []
        done = [0, 0]
        deadline = time.perf_counter() + seconds
        ticks: List[_Tick] = []

        async def caller(slot: int) -> None:
            while time.perf_counter() < deadline:
                ruleset, data = self._pick(self.cursor)
                self.cursor += 1
                with self.tracer.span("request", self.cursor):
                    triples = await self._request(served, slot, ruleset, data)
                if triples is not None:
                    done[0] += 1
                    done[1] += len(data)
                rows.append((ruleset, data, triples))

        await asyncio.gather(
            self._ticker(deadline, done, workers, ticks),
            *(caller(slot) for slot in range(CALLERS)),
        )
        return rows, ticks

    async def _open_loop(self, served, seconds: float):
        """Requests sent on the seeded schedule whether or not earlier
        ones completed.  Returns (lateness, latency sample, ruleset, data,
        triples) rows and the number sent; latency runs from the due time."""
        rows = []
        tasks = []
        started = time.perf_counter()

        async def send(index: int, due: float, lateness: float) -> None:
            ruleset, data = self._pick(index)
            with self.tracer.span("request", index):
                triples = await self._request(
                    served, index % CALLERS, ruleset, data
                )
            done = time.perf_counter()
            sample = (done - started - due, started + due, done)
            rows.append((lateness, sample, ruleset, data, triples))

        ticker = asyncio.ensure_future(
            self._ticker(started + seconds + SLICE_S, [0, 0], (), [])
        )
        due = 0.0
        for gap in self.load.gaps:
            due += gap
            if due >= seconds:
                break
            delay = started + due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness = max(0.0, time.perf_counter() - started - due)
            tasks.append(asyncio.ensure_future(send(self.cursor, due, lateness)))
            self.cursor += 1
        await ticker
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=_STRAGGLER_S)
            for task in pending:  # abandoned: counts as a miss
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        return rows, len(tasks)

    async def _measure(self, served, seconds: float, tally: Tally) -> None:
        workers = host.descendant_pids()
        closed, ticks = await self._closed_loop(served, seconds / 2, workers)
        opened, sent = await self._open_loop(served, seconds / 2)

        for ruleset, data, triples in closed:
            self._settle(ruleset, data, triples)
        for a, b in zip(ticks, ticks[1:]):
            tally.values["slices"].append(
                (
                    a.at, b.at, b.requests - a.requests, b.bytes - a.bytes,
                    b.cpu_self - a.cpu_self, b.cpu_children - a.cpu_children,
                )
            )

        for late, sample, ruleset, data, triples in opened:
            tally.values["lateness"].append(late)
            if not self._settle(ruleset, data, triples):
                continue
            tally.samples["latency", len(data)].append(sample)
            tally.samples["latency"].append(sample)
        for _ in range(sent - len(opened)):  # abandoned after the wait
            self._error()
        tally.counts["sent"] += sent
        tally.counts["samples"] += len(closed) + sent
        tally.counts["retries"] += sum(c.retries for c in served.callers)
        tally.counts["exhausted"] += sum(c.exhausted for c in served.callers)
        snapshot = served.service.metrics_snapshot()
        for key in _SERVICE_COUNTERS:
            tally.counts[key] += snapshot[key]

    def finish(self, tally: Tally) -> Measured:
        # The median of each request size, weighted by how often the size
        # is sent: the median over all requests falls on the edge between
        # the 2 KiB and the 16 KiB cluster and jumps with the draw.
        weights = dict(loads.BLOCK_MIX)
        latency = sum(
            self._median(tally.samples["latency", size]) * count
            for size, count in weights.items()
        ) / sum(weights.values())
        every = list(map(self.calib.quiet, tally.samples["latency"]))
        counts = tally.counts
        # Closed loop: every slice in quiet-host seconds; rates are totals
        # over their sum, so a slice that drew more 64 KiB requests than
        # another weighs what it carried.
        closed_s = closed_cpu_s = cpu_self = cpu_children = 0.0
        requests = volume = 0
        for started, ended, done, size, own, children in tally.values["slices"]:
            slowdown = self.calib.slowdown(started, ended)
            closed_s += (ended - started) / slowdown
            closed_cpu_s += (own + children) / slowdown
            requests += done
            volume += size
            cpu_self += own
            cpu_children += children
        return Measured(
            scan_mb_per_s=volume / closed_s / MB,
            capacity_rps=requests / closed_s,
            latency_p50_ms=latency * 1e3,
            within_limit_share=self._within(tally.samples["latency"]) / counts["sent"],
            cpu_ms_per_mb=closed_cpu_s * 1e3 / (volume / MB),
            samples=int(counts["samples"]),
            detail={
                "latency_p50_all_ms": statistics.median(every) * 1e3,
                "latency_p95_ms": host.percentile(every, 0.95) * 1e3,
                "latency_p99_ms": host.percentile(every, 0.99) * 1e3,
                "lateness_ms_p95": host.percentile(tally.values["lateness"], 0.95) * 1e3,
                "sent": counts["sent"],
                "child_cpu_share": cpu_children / max(1e-9, cpu_self + cpu_children),
                "retries": counts["retries"],
                "exhausted": counts["exhausted"],
                **{key: counts[key] for key in _SERVICE_COUNTERS},
            },
        )

    async def _close(self, served: _Served) -> None:
        for name in served.service.tenant_names():
            self._retire(served.service.tenant_engine(name))
        for connection in served.connections:
            await connection.close()
        if served.server is not None:
            await served.server.stop()
        await served.service.stop()


class ServeInloop(Serving):
    name = "serve-inloop"
    why = (
        "ScanService called in-process: admission, fair dequeue, chunking/"
        "resume and the lazy DFA share one loop; process pool and wire are "
        "bypassed."
    )
    scan_workers = 0
    tcp = False
    rate_per_s = 150.0
    limit_ms = 20.0
    setup_reps = 5


class ServePoolTcp(Serving):
    name = "serve-pool-tcp"
    why = (
        "Same tenants, mix and seed through 2 scan worker processes behind "
        "the TCP front end: chunk dispatch/IPC, shared-memory warm start, "
        "codec and socket are added."
    )
    scan_workers = 2
    tcp = True
    rate_per_s = 60.0
    limit_ms = 40.0
    setup_reps = 4


WORKLOADS = (OfflineFriendly, OfflineHostile, RulesetChurn, ServeInloop, ServePoolTcp)


def by_name(name: str):
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)
