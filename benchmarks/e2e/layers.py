"""Per-layer metrics of the traced run.

Each probe times one layer from outside, through the public entry points
listed in README.md, and records a span around every call.  A metric's
*source* is the workload itself where the workload exercises the layer
(its own engines, caches and service), and otherwise a probe over the
workload's rulesets and inputs; the serving layers are always probed on
the four serving tenants, because a ruleset that is not a pattern list
cannot be registered with the service.  METRICS.md names the source of
every metric.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

import host
from repro.backends import create_backend
from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.compiler.cache import CompileCache
from repro.compiler.classify import classify_automaton
from repro.core.design import CA_P
from repro.engine import CacheAutomatonEngine
from repro.service.net import encode_frame, read_frame
from repro.workloads.suite import get_benchmark

#: Rulesets a probe looks at (ruleset-churn has 24; four are enough to
#: price a layer and keep the traced run inside its time limit).
_PROBE_RULESETS = 4
_CHUNK_BYTES = 2048
#: Chunks per request of the stack probe: the three request sizes.
_STACK_CHUNKS = (1, 8, 32)
_STACK_REPEATS = 7


class _Clock:
    """Times one call: a span around it, the noise reference on both
    sides of it, and the result in quiet-host seconds."""

    def __init__(self, tracer, calib):
        self.tracer = tracer
        self.calib = calib

    def __call__(self, name: str, request, call: Callable[[], object]):
        self.calib.tick()
        with self.tracer.span(name, request):
            started = time.perf_counter()
            value = call()
            ended = time.perf_counter()
        self.calib.tick()
        return self.calib.quiet((ended - started, started, ended)), value

    async def awaited(self, name: str, request, call) -> float:
        self.calib.tick()
        with self.tracer.span(name, request):
            started = time.perf_counter()
            await call()
            ended = time.perf_counter()
        self.calib.tick()
        return self.calib.quiet((ended - started, started, ended))


# -- counters folded from the workload's own engines ------------------------------


def _fold_backend(counts: Dict[str, float], backend) -> None:
    """Add one backend's cache counters; hybrid recurses into its groups."""
    for group in getattr(backend, "groups", ()):
        _fold_backend(counts, group.backend)
    info = None
    if hasattr(backend, "cache_info"):
        info = backend.cache_info()
    elif hasattr(backend, "simulator") and hasattr(backend.simulator, "cache_info"):
        info = backend.simulator.cache_info()
    if not info:
        return
    if "states" in info:  # lazy-dfa dialect
        for key in ("states", "hits", "misses", "flushes"):
            counts[f"lazydfa.{key}"] = counts.get(f"lazydfa.{key}", 0) + info[key]
    if "step" in info:  # packed-kernel dialect
        for layer in ("step", "propagate"):
            for key in ("hits", "misses", "flushes"):
                name = f"kernel.{layer}_{key}"
                counts[name] = counts.get(name, 0) + info[layer].get(key, 0)


def fold_engine(counts: Dict[str, float], engine: CacheAutomatonEngine) -> None:
    """Fold an engine that is about to be dropped into ``counts``."""
    health = engine.health()
    counts["engines"] = counts.get("engines", 0) + 1
    counts["tier_warm"] = counts.get("tier_warm", 0) + (health.tier == "warm-cache")
    for key, value in engine.cache_info().items():
        counts[f"cache.{key}"] = counts.get(f"cache.{key}", 0) + value
    _fold_backend(counts, engine.backend)


def _ratio(counts: Dict[str, float], hits: str, misses: str) -> float:
    total = counts.get(hits, 0) + counts.get(misses, 0)
    return counts.get(hits, 0) / total if total else 0.0


# -- start-up chain ---------------------------------------------------------------


def _placement(classification) -> str:
    """The substrate ``auto=True`` would pick (engine.py's policy)."""
    substrates = {
        classification.backend_of(index)
        for index in range(classification.component_count)
    }
    if len(substrates) > 1:
        return "hybrid"
    return next(iter(substrates)) if substrates else "packed-kernel"


def startup_chain(rulesets, scratch: str, clock: _Clock) -> Tuple[Dict[str, float], list]:
    """regex → classify → cache load (miss) → compile → artifact → backend
    build → cache store, then load (hit) → build again; against the engine
    constructor's total on a second empty directory."""
    spent: Dict[str, float] = {}
    built = []
    states = partitions = lazy = components = 0
    artifact_bytes = 0
    residual = 0.0

    def step(name: str, ruleset, call):
        took, value = clock(name, ruleset.name, lambda: host.quietly(call))
        spent[name] = spent.get(name, 0.0) + took
        return took, value

    for number, ruleset in enumerate(rulesets):
        cache = CompileCache(os.path.join(scratch, f"chain{number}"))
        _, automaton = step("regex", ruleset, ruleset.build)
        took_classify, classification = step(
            "classify", ruleset, lambda: classify_automaton(automaton)
        )
        took_miss, _ = step(
            "cache.load_miss", ruleset,
            lambda: cache.load_artifact(automaton, CA_P, stride=1),
        )
        took_compile, mapping = step(
            "compiler.compile", ruleset, lambda: compile_automaton(automaton, CA_P)
        )
        took_artifact, artifact = step(
            "artifact", ruleset, lambda: CompiledArtifact.from_mapping(mapping, stride=1)
        )
        name = _placement(classification)
        took_build, backend = step(
            "backends.build_cold", ruleset,
            lambda: create_backend(name, artifact, stride=1, classification=classification),
        )
        stored = artifact
        if hasattr(backend, "packed_tables"):
            stored = artifact.with_kernel_tables(backend.packed_tables())
        took_store, path = step(
            "cache.store", ruleset, lambda: cache.store_artifact(stored)
        )
        _, loaded = step(
            "cache.load", ruleset,
            lambda: cache.load_artifact(automaton, CA_P, stride=1),
        )
        step(
            "backends.build_warm", ruleset,
            lambda: create_backend(name, loaded, stride=1),
        )
        took_ctor, _ = step(
            "engine.ctor_cold", ruleset,
            lambda: CacheAutomatonEngine(
                automaton, auto=True, cache=os.path.join(scratch, f"ctor{number}")
            ),
        )
        residual += took_ctor - (
            took_classify + took_miss + took_compile + took_artifact
            + took_build + took_store
        )
        states += len(automaton)
        partitions += mapping.partition_count
        components += classification.component_count
        lazy += sum(
            classification.backend_of(index) == "lazy-dfa"
            for index in range(classification.component_count)
        )
        artifact_bytes += os.path.getsize(path) if path else 0
        built.append((ruleset, automaton, artifact))

    count = len(rulesets)
    per_ruleset_ms = {name: took / count * 1e3 for name, took in spent.items()}
    return {
        "regex.compile_ms": per_ruleset_ms["regex"],
        "regex.states": states,
        "classify.ms": per_ruleset_ms["classify"],
        "classify.lazy_share": lazy / max(1, components),
        "compiler.compile_ms": per_ruleset_ms["compiler.compile"],
        "compiler.partitions": partitions,
        "cache.load_ms": per_ruleset_ms["cache.load"],
        "cache.store_ms": per_ruleset_ms["cache.store"],
        "cache.artifact_kb": artifact_bytes / count / 1024,
        "backends.build_cold_ms": per_ruleset_ms["backends.build_cold"],
        "backends.build_warm_ms": per_ruleset_ms["backends.build_warm"],
        "engine.ctor_residual_ms": residual / count * 1e3,
    }, built


# -- substrates -------------------------------------------------------------------

_SUBSTRATES = (
    ("lazy-dfa", "lazy-dfa", {"stride": 1}),
    ("lazy-dfa-s2", "lazy-dfa", {"stride": 2}),
    ("packed-kernel", "packed-kernel", {}),
    ("hybrid", "hybrid", {"stride": 1}),
    ("golden", "golden-interpreter", {}),
)


def substrates(built, piece_bytes: int, clock: _Clock) -> Dict[str, float]:
    """Every substrate over the same bytes of every probed ruleset: a
    first pass on a fresh backend, a second pass on other bytes, and (for
    the plain lazy DFA) a count-only pass."""
    out: Dict[str, float] = {}
    for label, name, options in _SUBSTRATES:
        first = again = count = 0.0
        for ruleset, _, artifact in built:
            data = (ruleset.warm[0] if ruleset.warm else ruleset.streams[0])
            one, two = ruleset.probe[:piece_bytes], data[:piece_bytes]
            backend = host.quietly(lambda: create_backend(name, artifact, **options))
            first += clock(f"{label}.first_pass", ruleset.name, lambda: backend.scan(one))[0]
            again += clock(f"{label}.scan", ruleset.name, lambda: backend.scan(two))[0]
            if label == "lazy-dfa":
                count += clock(
                    f"{label}.count", ruleset.name,
                    lambda: backend.scan(two, collect_reports=False),
                )[0]
        scanned = piece_bytes * len(built)
        out[f"{label}.scan_ns_per_byte"] = again / scanned * 1e9
        if label in ("lazy-dfa", "lazy-dfa-s2", "packed-kernel"):
            out[f"{label}.first_pass_ns_per_byte"] = first / scanned * 1e9
        if label == "lazy-dfa":
            out["lazy-dfa.count_ns_per_byte"] = count / scanned * 1e9
    return out


_DENSE_TILES = 2000


def materialise(engines_and_data, clock: _Clock) -> float:
    """ns per report that ``engine.scan`` adds on top of ``backend.scan``
    (building ``Match`` records), over the workload's own warm engines.

    The difference of two scans only resolves a per-report cost when
    reports are dense, so the bytes around the first match of each
    ruleset's data are tiled into a stream that reports on every tile;
    rulesets that match nothing in their data are left out.
    """
    extra = 0.0
    reports = 0
    for engine, data in engines_and_data:
        found = engine.scan(data)
        if not found:
            continue
        end = found[0].end + 1
        dense = data[max(0, end - 64) : end] * _DENSE_TILES
        took_engine, matches = clock("engine.scan", None, lambda: engine.scan(dense))
        took_backend, _ = clock("backend.scan", None, lambda: engine.backend.scan(dense))
        extra += took_engine - took_backend
        reports += len(matches)
    return extra / max(1, reports) * 1e9


# -- the serving stack, level by level ----------------------------------------------


def _fit(points: Sequence[Tuple[int, float]]) -> Tuple[float, float]:
    """Least-squares (intercept, slope) of time against chunks/request."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    return mean_y - slope * mean_x, slope


async def _stack(inloop, pooled, load, clock: _Clock) -> Dict[str, float]:
    """L0 ``backend.scan(whole)`` → L1 backend chunked with resume → L2
    ``ScanService.scan`` in-loop → L3 the same with 2 scan workers → L4
    through ``NetScanClient``; same inputs, one caller."""

    async def _now(call) -> None:
        call()

    def chunked(backend, data):
        checkpoint = None
        for start in range(0, len(data), _CHUNK_BYTES):
            result = backend.scan(data[start : start + _CHUNK_BYTES], resume=checkpoint)
            checkpoint = result.checkpoint

    levels: Dict[str, Dict[int, List[float]]] = {
        level: {chunks: [] for chunks in _STACK_CHUNKS}
        for level in ("L0", "L1", "L2", "L3", "L4")
    }
    workers = host.descendant_pids()
    cpu_pool = [0.0, 0.0]
    request = 0
    for ruleset in load.rulesets:
        backend = inloop.service.tenant_engine(ruleset.name).backend
        for chunks in _STACK_CHUNKS:
            data = next(
                s for s in ruleset.streams if len(s) == chunks * _CHUNK_BYTES
            )
            calls = (
                ("L0", lambda: _now(lambda: backend.scan(data))),
                ("L1", lambda: _now(lambda: chunked(backend, data))),
                ("L2", lambda: inloop.service.scan(ruleset.name, data)),
                ("L3", lambda: pooled.service.scan(ruleset.name, data)),
                ("L4", lambda: pooled.connections[0].scan(ruleset.name, data)),
            )
            for _, call in calls:  # the first call of each kind is a warm-up
                await call()
            # Levels take turns, so that a drift of the host over the
            # probe lands on all of them and not on their differences.
            for _ in range(_STACK_REPEATS):
                for level, call in calls:
                    request += 1
                    before = host.cpu_seconds(workers) if level == "L3" else None
                    took = await clock.awaited(level, request, call)
                    if before is not None:
                        after = host.cpu_seconds(workers)
                        cpu_pool[0] += after[0] - before[0]
                        cpu_pool[1] += after[1] - before[1]
                    levels[level][chunks].append(took)
    medians = {
        level: [(chunks, statistics.median(levels[level][chunks])) for chunks in _STACK_CHUNKS]
        for level in levels
    }
    fits = {level: _fit(points) for level, points in medians.items()}
    wire = statistics.fmean(
        l4 - l3 for (_, l4), (_, l3) in zip(medians["L4"], medians["L3"])
    )

    # Codec alone: the same request frames, and response frames carrying
    # the same report rows, encoded and read back without a socket.
    codec: List[float] = []
    for ruleset in load.rulesets:
        data = ruleset.streams[0]
        outcome = await inloop.service.scan(ruleset.name, data)
        rows = [list(row) for row in outcome.report_rows()]

        async def both_frames() -> None:
            for header, blob in (
                ({"id": 1, "op": "submit", "tenant": ruleset.name, "deadline": None}, data),
                ({"id": 1, "ok": True, "tenant": ruleset.name, "reports": rows}, b""),
            ):
                reader = asyncio.StreamReader()
                reader.feed_data(encode_frame(header, blob))
                await read_frame(reader)

        codec.append(await clock.awaited("net.codec", ruleset.name, both_frames))
    pings = [
        await clock.awaited("net.ping", None, pooled.connections[0].ping)
        for _ in range(50)
    ]

    middle = _STACK_CHUNKS[1]
    at_middle = {level: dict(points)[middle] for level, points in medians.items()}
    self_times = {
        "L0": at_middle["L0"],
        "L1": at_middle["L1"] - at_middle["L0"],
        "L2": at_middle["L2"] - at_middle["L1"],
        "L3": at_middle["L3"] - at_middle["L2"],
        "L4": at_middle["L4"] - at_middle["L3"],
    }
    return {
        "service.overhead_us_per_req": (fits["L2"][0] - fits["L1"][0]) * 1e6,
        "service.chunk_us_per_chunk": (fits["L2"][1] - fits["L1"][1]) * 1e6,
        "procpool.fixed_us_per_req": (fits["L3"][0] - fits["L2"][0]) * 1e6,
        "procpool.dispatch_us_per_chunk": (fits["L3"][1] - fits["L2"][1]) * 1e6,
        "procpool.child_cpu_share": cpu_pool[1] / max(1e-9, sum(cpu_pool)),
        "net.wire_us_per_req": wire * 1e6,
        "net.codec_us_per_req": statistics.median(codec) * 1e6,
        "net.ping_rtt_us": statistics.median(pings) * 1e6,
        "_stack": {
            "chunks_per_request": middle,
            "median_s": at_middle,
            "self_time_s": self_times,
            "self_time_sum_over_L4": sum(self_times.values()) / at_middle["L4"],
        },
    }


async def _one_caller_p50(served, workload, clock: _Clock, requests: int = 120) -> float:
    """Median latency of the request mix with nobody else in the system."""
    took: List[float] = []
    for index in range(requests):
        ruleset, data = workload._pick(index)
        took.append(
            await clock.awaited(
                "request.alone", index,
                lambda: served.callers[0].scan(ruleset.name, data),
            )
        )
    return statistics.median(took)


# -- sharded and split scanning -----------------------------------------------------


def parallel_scans(seed: int, clock: _Clock) -> Dict[str, float]:
    """``sim.shard`` (scan_many over worker processes) and ``sim.split``
    (one stream split across them) at 1 and 2 jobs.  No workload sets
    jobs > 1 today, so these are always probed on Bro217."""
    bench = get_benchmark("Bro217")
    automaton = bench.build()
    streams = [bench.input_stream(64 * 1024, seed=seed * 10 + n) for n in range(8)]
    long_stream = bench.input_stream(512 * 1024, seed=seed * 10 + 9)
    out: Dict[str, float] = {}
    degraded = 0
    for jobs in (1, 2):
        sharded = host.quietly(lambda: CacheAutomatonEngine(
            automaton, backend="lazy-dfa", cache=None, scan_jobs=jobs
        ))
        took, _ = clock(
            f"shard.scan_many_j{jobs}", None,
            lambda: host.quietly(lambda: sharded.scan_many(streams)),
        )
        out[f"shard.scan_many_mb_per_s_j{jobs}"] = sum(map(len, streams)) / took / 1e6
        split = host.quietly(lambda: CacheAutomatonEngine(
            automaton, backend="lazy-dfa", cache=None, split_jobs=jobs
        ))
        took, _ = clock(
            f"split.scan_j{jobs}", None,
            lambda: host.quietly(lambda: split.scan(long_stream)),
        )
        out[f"split.scan_mb_per_s_j{jobs}"] = len(long_stream) / took / 1e6
        degraded += sum("rescanned serially" in event for event in split.health().events)
    out["split.degraded_chunks"] = degraded
    return out


# -- the simulated machine ----------------------------------------------------------


def model(built) -> Dict[str, float]:
    """The paper's machine model on fixed bytes: must repeat exactly, and a
    simulator speed-up must leave it identical."""
    energy: List[float] = []
    partitions = reports = 0
    cache_kb = 0.0
    for ruleset, automaton, _ in built:
        engine = host.quietly(lambda: CacheAutomatonEngine(automaton, cache=None))
        reports += len(engine.scan(ruleset.probe[:_CHUNK_BYTES]))
        summary = engine.performance_summary()
        energy.append(summary.energy_nj_per_symbol or 0.0)
        partitions += summary.partitions
        cache_kb += summary.cache_kilobytes
    return {
        "model.energy_nj_per_symbol": statistics.fmean(energy),
        "model.partitions": partitions,
        "model.cache_kb": cache_kb,
        "model.reports": reports,
    }


# -- everything ---------------------------------------------------------------------


def collect(workload, system, measured, plain, scratch: str, tracer) -> Dict[str, float]:
    """All per-layer metrics of one traced run.  ``measured`` is the traced
    measured phase, ``plain`` the same phase with tracing off."""
    import workloads

    clock = _Clock(tracer, workload.calib)
    rulesets = workload.load.rulesets[:_PROBE_RULESETS]
    out, built = startup_chain(rulesets, scratch, clock)
    hostile = isinstance(workload, workloads.OfflineHostile)
    out.update(substrates(built, 1024 if hostile else 8192, clock))
    out.update(model(built))
    out.update(parallel_scans(workload.load.seed, clock))

    # The workload's own warm engines, before they are folded away.
    if isinstance(workload, workloads.Serving):
        warm = [
            (system.service.tenant_engine(r.name), r.warm[0]) for r in rulesets
        ]
    elif isinstance(workload, workloads.Offline):
        warm = [(system[r.name], r.warm[0][:32768]) for r in rulesets]
    else:
        warm = [(system[1][i], r.streams[0]) for i, r in enumerate(rulesets)]
    out["engine.materialise_ns_per_report"] = materialise(warm, clock)

    # Serving layers: the workload's own service where it has one, else a
    # probe service on the serving tenants.  Probes share the workload's
    # checker (one golden pass) and one event loop (the stack awaits both
    # services from one coroutine).
    own = isinstance(workload, workloads.Serving)
    loop = workload.loop if own else asyncio.new_event_loop()
    probes = {}
    for cls in (workloads.ServeInloop, workloads.ServePoolTcp):
        if isinstance(workload, cls):
            probes[cls] = (workload, system)
            continue
        probe = cls(workload.checker, tracer, workload.calib, loop=loop)
        probe.generate(workload.load.seed)
        starts = workloads.Starts.empty(len(probe.load.rulesets))
        served = probe.build(os.path.join(scratch, f"probe-{cls.name}"), starts)
        probe.walk(served, starts)
        probes[cls] = (probe, served)
    inloop, inloop_served = probes[workloads.ServeInloop]
    pooled, pooled_served = probes[workloads.ServePoolTcp]
    stack = loop.run_until_complete(
        _stack(inloop_served, pooled_served, inloop.load, clock)
    )
    out.update({k: v for k, v in stack.items() if not k.startswith("_")})
    tracer.extra["stack"] = stack["_stack"]

    serving = workload if isinstance(workload, workloads.Serving) else inloop
    served = system if serving is workload else inloop_served
    alone = serving.loop.run_until_complete(_one_caller_p50(served, serving, clock))
    detail = measured.detail
    if serving is not workload:
        burst = workloads.Tally()
        serving.measure(served, 2.0, burst)
        detail = serving.finish(burst).detail
    out.update(
        {
            "service.queue_inflation": detail["latency_p50_all_ms"] / (alone * 1e3),
            "service.latency_p95_ms": detail["latency_p95_ms"],
            "service.latency_p99_ms": detail["latency_p99_ms"],
            "service.shed": detail["shed"],
            "service.timeouts": detail["timeouts"],
            "service.fallback_scans": detail["fallback_scans"],
            "service.breaker_trips": detail["breaker_trips"],
            "service.worker_restarts": detail["worker_restarts"],
            "client.retries": detail["retries"],
            "client.exhausted": detail["exhausted"],
            "loadgen.lateness_ms_p95": detail["lateness_ms_p95"],
            "loadgen.sent": detail["sent"],
            "procpool.respawns": pooled_served.service.metrics_snapshot()["pool_respawns"],
            "procpool.first_request_ms": statistics.median(pooled.first_request_s) * 1e3,
        }
    )
    for probe, probe_served in probes.values():
        if probe is not workload:
            probe.close(probe_served)
            workload.attempted += probe.attempted
            workload.failed += probe.failed
    if not own:
        loop.close()

    counts = workload.counts
    out.update(
        {
            "engine.tier_warm_share": counts.get("tier_warm", 0) / max(1, counts.get("engines", 0)),
            "cache.hits": counts.get("cache.hits", 0),
            "cache.misses": counts.get("cache.misses", 0),
            "cache.stores": counts.get("cache.stores", 0),
            "cache.quarantines": counts.get("cache.quarantines", 0),
            "cache.retries": counts.get("cache.retries", 0),
            "cache.hit_ratio": _ratio(counts, "cache.hits", "cache.misses"),
            "lazydfa.states": counts.get("lazydfa.states", 0),
            "lazydfa.misses": counts.get("lazydfa.misses", 0),
            "lazydfa.flushes": counts.get("lazydfa.flushes", 0),
            "lazydfa.hit_ratio": _ratio(counts, "lazydfa.hits", "lazydfa.misses"),
            "kernel.step_hit_ratio": _ratio(counts, "kernel.step_hits", "kernel.step_misses"),
            "kernel.step_flushes": counts.get("kernel.step_flushes", 0),
            "kernel.propagate_hit_ratio": _ratio(
                counts, "kernel.propagate_hits", "kernel.propagate_misses"
            ),
            "trace.overhead_share": plain.capacity_rps / measured.capacity_rps - 1.0,
        }
    )
    return out
