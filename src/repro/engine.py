"""High-level scanning engine: the library's front door.

Wraps the whole pipeline — regex/ANML front-end, space optimisation,
compiler, execution backends, performance/energy models — behind one
object, in the style of a software pattern-matching engine:

>>> from repro.engine import CacheAutomatonEngine
>>> engine = CacheAutomatonEngine.from_patterns(["bat", "c[ao]t"])
>>> [match.end for match in engine.scan(b"the cat sat on the bat")]
[6, 21]

The engine itself is a *policy* layer.  All execution goes through the
pluggable backend registry (:mod:`repro.backends`): compilation produces
one :class:`~repro.backends.artifact.CompiledArtifact`, the requested
backend (``backend=`` — default the packed-bitset mapped kernel) is
instantiated from it, and the engine's job is deciding *which* artifact
and backend serve traffic — warm cache hit, cold compile,
quarantine-and-recompile, or golden-interpreter fallback
(:meth:`CacheAutomatonEngine.health` reports which rung won and why).

Streams can be scanned incrementally (:meth:`CacheAutomatonEngine.stream`
returns a stateful scanner using the Section 2.9 checkpoint mechanism),
several independent streams can share one warm packed-bitset kernel
(:meth:`CacheAutomatonEngine.scan_many` for whole inputs,
:meth:`CacheAutomatonEngine.stream_many` for chunked traffic — the
Section 6 multi-stream scenario), and :meth:`performance_summary`
reports the modelled line rate, cache footprint, and energy for the
traffic seen so far.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.automata.anml import HomogeneousAutomaton, from_anml
from repro.automata.stride import StrideAlphabet, resolve_stride
from repro.backends.artifact import CompiledArtifact
from repro.backends.base import (
    AutomatonBackend,
    BackendCapabilities,
    BoundedEventLog,
)
from repro.backends.registry import (
    DEFAULT_BACKEND,
    backend_class,
    create_backend,
    resolve_backend_name,
)
from repro.backends.validation import (
    require_byte_streams,
    require_bytes,
    require_stream_sequence,
)
from repro.baselines.ap import ApModel
from repro.compiler import Mapping, compile_automaton, compile_space_optimized
from repro.compiler.cache import CacheStats, CompileCache, cache_key, source_key
from repro.compiler.classify import cached_placement, place_automaton
from repro.core.design import CA_P, DesignPoint
from repro.core.energy import ActivityProfile, EnergyModel
from repro.errors import DegradedModeWarning, ReproError, SimulationError
from repro.regex.compile import compile_patterns
from repro.sim.functional import MappedSimulator

#: Accepted values for the engine's ``cache`` argument.
CacheSpec = Union[CompileCache, str, Path, bool, None]

#: Engine tiers, best first — which rung of the fallback chain built the
#: scanning backend (see :meth:`CacheAutomatonEngine.health`).
TIER_WARM_CACHE = "warm-cache"
TIER_COLD_COMPILE = "cold-compile"
TIER_RECOMPILED = "recompiled"
TIER_GOLDEN = "golden-fallback"

#: Health-event retention per engine: a long-lived serving process keeps
#: the most recent events and counts the rest as dropped, instead of
#: growing the log for the life of the process.
HEALTH_EVENT_LIMIT = 64


def _resolve_cache(cache: CacheSpec) -> Optional[CompileCache]:
    if cache is None or cache is False:
        return None
    if isinstance(cache, CompileCache):
        return cache
    if cache is True or cache == "auto":
        return CompileCache()
    return CompileCache(cache)


@dataclass(frozen=True)
class Match:
    """One match: the rule that fired and the end offset (0-based)."""

    end: int
    rule: Optional[str]
    state: str


@dataclass(frozen=True)
class EngineHealth:
    """Which tier of the fallback chain served this engine, and why.

    ``tier`` is one of ``warm-cache`` (artifact cache hit), ``cold-compile``
    (no cached artifact), ``recompiled`` (a corrupt artifact was
    quarantined first), or ``golden-fallback`` (the requested backend could
    not be built and the reference interpreter is scanning instead).
    ``backend`` is the registry name of the backend actually serving
    traffic; ``requested`` is the name the caller asked for (``None``
    when the default was used), so a fallback is visible as
    ``backend != requested``.  ``events`` is the ordered log of
    degradation decisions taken during construction; ``cache`` snapshots
    the artifact-cache counters.
    """

    tier: str
    backend: str
    degraded: bool
    events: Tuple[str, ...]
    cache: Dict[str, int]
    requested: Optional[str] = None
    #: Events evicted from the bounded logs (engine + backend) to keep a
    #: long-lived process's memory flat; ``len(events) + events_dropped``
    #: is a monotonic "events ever seen" counter.
    events_dropped: int = 0


@dataclass(frozen=True)
class PerformanceSummary:
    """Modelled performance of the engine on the traffic seen so far."""

    design: str
    throughput_gbps: float
    speedup_vs_ap: float
    cache_kilobytes: float
    states: int
    partitions: int
    energy_nj_per_symbol: Optional[float]
    average_power_watts: Optional[float]


class StreamScanner:
    """Incremental scanner over one logical input stream.

    Feed chunks with :meth:`scan`; match offsets are global across
    chunks, exactly as if the whole stream were scanned at once.
    """

    def __init__(self, engine: "CacheAutomatonEngine"):
        self._engine = engine
        # Raises SimulationError on a backend that cannot resume.
        self._stream = engine._backend.stream()

    @property
    def position(self) -> int:
        """Symbols consumed so far."""
        return self._stream.position

    def scan(self, chunk: bytes) -> List[Match]:
        require_bytes(chunk, "stream chunk")
        result = self._stream.scan(chunk)
        self._engine._accumulate(result.profile)
        return self._engine._matches(result.reports)


class MultiStreamScanner:
    """Batched incremental scanner over several logical input streams.

    Each call to :meth:`scan` feeds one chunk per stream; on the default
    backend the chunks run one after the other on one warm kernel
    (:meth:`repro.sim.functional.MappedSimulator.run_many`), sharing its
    match matrix and its memoised propagation and step tables across
    streams.  Match offsets are global per stream, exactly as if each
    stream were scanned on its own.
    """

    def __init__(self, engine: "CacheAutomatonEngine", count: int):
        if count <= 0:
            raise SimulationError(
                f"stream count must be positive, got {count}"
            )
        self._engine = engine
        # One resume cursor per stream; ``stream()`` raises
        # SimulationError on a backend that cannot resume.
        self._streams = [engine._backend.stream() for _ in range(count)]

    @property
    def stream_count(self) -> int:
        return len(self._streams)

    @property
    def positions(self) -> List[int]:
        """Symbols consumed so far, per stream."""
        return [stream.position for stream in self._streams]

    def scan(self, chunks: Sequence[bytes]) -> List[List[Match]]:
        """Feed one chunk per stream; returns each stream's new matches.

        Use ``b""`` for streams with no pending traffic this round.
        """
        chunks = require_stream_sequence(
            chunks,
            "scan() expects a sequence of per-stream chunks, "
            "not a single byte string",
        )
        if len(chunks) != len(self._streams):
            raise SimulationError(
                f"got {len(chunks)} chunks for {len(self._streams)} streams"
            )
        for index, chunk in enumerate(chunks):
            require_bytes(chunk, f"chunk for stream {index}")
        results = self._engine._backend.scan_many(
            chunks, resumes=[stream.checkpoint for stream in self._streams]
        )
        matches: List[List[Match]] = []
        for stream, result in zip(self._streams, results):
            stream.checkpoint = result.checkpoint
            self._engine._accumulate(result.profile)
            matches.append(self._engine._matches(result.reports))
        return matches


class CacheAutomatonEngine:
    """A compiled, ready-to-scan Cache Automaton instance."""

    def __init__(
        self,
        automaton: HomogeneousAutomaton,
        *,
        design: DesignPoint = CA_P,
        optimize: bool = False,
        cache: CacheSpec = "auto",
        compile_jobs: Union[int, str, None] = None,
        scan_jobs: Union[int, str, None] = None,
        split_jobs: Union[int, str, None] = None,
        stride: Union[int, str, None] = None,
        backend: Optional[str] = None,
        backend_options: Optional[Dict[str, object]] = None,
        auto: bool = False,
    ):
        """Compile ``automaton`` onto ``design``.

        ``optimize=True`` runs the space-optimisation ladder first (use
        with the space-oriented design CA_S); the default maps the
        automaton as-is, which is the CA_P configuration.

        ``cache`` controls the content-addressed artifact cache:
        ``"auto"`` (default) uses ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro``; a path or :class:`CompileCache` selects a
        specific store; ``None``/``False`` compiles cold every time.  A
        cache hit rebuilds both the mapping and the packed simulator
        tables without recompiling; :meth:`cache_info` reports hit/miss/
        bypass counts.  ``compile_jobs`` caps the compiler's parallel
        split workers (also settable via ``REPRO_COMPILE_JOBS``).

        ``backend`` selects the execution substrate by registry name
        (see :func:`repro.backends.backend_names`; aliases accepted) —
        the packed mapped kernel by default.  ``auto=True`` (default
        off) is the placement policy knob: when no backend is named, the
        engine picks the substrate itself
        (:func:`repro.compiler.classify.place_automaton`) — the lazy DFA
        when every component's subset-closure probe closes, else the
        packed kernel, for the whole ruleset; the probes run in component
        order and stop at the first that aborts.  The decision and its
        reason (the deciding component, or that all probes close) are
        recorded in :meth:`health`.  The decision is a compile product
        like the placement: it is read from the cached artifact when that
        carries one, the probes run only when it does not, and what they
        decided is stored with the artifact.  ``backend_options`` are passed
        through to the backend's ``from_artifact``.
        ``scan_jobs`` presets the worker count for process-sharded
        ``scan_many`` on backends that support it (the lazy-DFA
        backend; also settable via ``REPRO_SCAN_JOBS``; unset, a batch
        is scanned serially); it is shorthand
        for ``backend_options={"jobs": ...}``.  ``split_jobs`` presets
        the *single-stream* split worker count on backends whose
        capabilities claim ``split`` (the lazy-DFA backend's SFA-style
        split scanning; also settable via ``REPRO_SPLIT_JOBS``) — a
        ``scan`` over one long input is partitioned across the pool
        with bit-identical results; it is shorthand for
        ``backend_options={"split_jobs": ...}``.  A scan that has to
        degrade (frontier explosion forcing serial chunk rescans) is
        surfaced through :meth:`health`.

        ``stride`` selects k-stride execution (k in {1, 2, 4}; also
        settable via ``REPRO_STRIDE``): the lazy-DFA backend consumes k
        bytes per cached transition over a CAMA-style compressed class
        alphabet, with matches bit-identical to the unstrided run.  The
        compressed alphabet is derived once from the automaton, cached
        inside the artifact (stride is part of the design fingerprint),
        and may *degrade* to a smaller k when the ruleset's byte-class
        count makes the strided table intractable — :attr:`stride`
        reports the effective value and :meth:`health` logs a degrade.
        Backends without a strided path ignore the option.

        The optimisation ladder chooses among several automaton variants,
        so ``optimize=True`` always bypasses the cache (the key would
        identify the input automaton, not the variant actually mapped).

        Construction walks a documented fallback chain and never leaves
        the engine unusable short of a compile error: a warm cache hit is
        preferred; a corrupt artifact is quarantined and the automaton
        recompiled; if the default backend cannot be built at all, the
        golden reference interpreter serves traffic (slower, but
        match-for-match identical).  An explicitly requested backend is
        never silently substituted — its construction errors propagate.
        :meth:`health` reports which tier won and why.
        """
        self.design = design
        self._cache = _resolve_cache(cache)
        self._health_events = BoundedEventLog(HEALTH_EVENT_LIMIT)
        self._tier = TIER_COLD_COMPILE
        self._requested_backend = (
            None if backend is None else resolve_backend_name(backend)
        )
        backend_name = self._requested_backend or DEFAULT_BACKEND
        backend_options = dict(backend_options or {})
        if scan_jobs is not None:
            backend_options.setdefault("jobs", scan_jobs)
        if split_jobs is not None:
            backend_options.setdefault("split_jobs", split_jobs)
        stride = resolve_stride(stride)
        alphabet: Optional[StrideAlphabet] = None
        if stride > 1:
            # Derive the compressed alphabet from the input automaton's
            # symbol sets; in the non-optimised path this is the mapped
            # automaton, so the partition matches the kernel's exactly.
            alphabet = StrideAlphabet.from_automaton(automaton, stride)
            if alphabet.stride != stride:
                self._health_events.append(
                    f"stride degraded from {stride} to {alphabet.stride} "
                    f"({alphabet.n_byte_classes} byte classes exceed the "
                    "stride-class budget)"
                )
                stride = alphabet.stride
            if stride == 1:
                alphabet = None
        self.stride = stride
        backend_options.setdefault("stride", stride)
        engine_backend: Optional[AutomatonBackend] = None
        artifact: Optional[CompiledArtifact] = None
        loaded: Optional[CompiledArtifact] = None
        classify_tables: Optional[Dict[str, object]] = None
        recompiling = False

        if self._cache is not None and not optimize:
            # load_artifact quarantines (deletes + warns about) corrupt
            # artifacts itself; the stats delta tells us it happened.
            quarantines_before = self._cache.stats.quarantines
            loaded = self._cache.load_artifact(
                automaton, design, stride=stride
            )
            if self._cache.stats.quarantines > quarantines_before:
                recompiling = True
                self._health_events.append(
                    "quarantined corrupt cache artifact"
                )
        if auto and self._requested_backend is None:
            decision = (
                None
                if loaded is None
                else cached_placement(loaded.classify_tables)
            )
            source = "; decision read from the artifact"
            if decision is None:
                decision = place_automaton(automaton)
                classify_tables = decision.to_tables()
                source = ""
            # One hostile component sends the whole ruleset to the packed
            # kernel; the friendly ones ride along for nothing.
            self._health_events.append(
                f"auto placement selected {decision.substrate} "
                f"({decision.reason()}{source})"
            )
            backend_name = decision.substrate

        if optimize:
            if self._cache is not None:
                self._cache.stats.bypasses += 1
            mapping = compile_space_optimized(
                automaton, design, jobs=compile_jobs
            )
            # The ladder may map a different automaton variant, whose
            # byte classes can differ from the input's — let the backend
            # rederive the alphabet from the kernel it actually runs.
            artifact = CompiledArtifact.from_mapping(mapping)
        else:
            if loaded is not None:
                try:
                    engine_backend = self._create_backend(
                        backend_name, loaded, backend_options
                    )
                    artifact = loaded
                    self._tier = TIER_WARM_CACHE
                except Exception as error:
                    if not backend_class(backend_name).consumes_kernel_tables:
                        # The artifact is not implicated: this backend
                        # never touched its kernel tables.
                        raise
                    # Tables passed the loader's integrity checks but the
                    # kernel still refused them (stale format, bad shapes).
                    self._cache.quarantine_mapping(
                        automaton, design, stride=stride
                    )
                    warnings.warn(
                        "cached simulator tables rejected "
                        f"({type(error).__name__}: {error}); "
                        "quarantining artifact and recompiling",
                        DegradedModeWarning,
                        stacklevel=2,
                    )
                    self._health_events.append(
                        "cached tables rejected by kernel; "
                        "quarantined and recompiled"
                    )
                    recompiling = True
            if artifact is None:
                mapping = compile_automaton(
                    automaton, design, jobs=compile_jobs
                )
                artifact = CompiledArtifact.from_mapping(
                    mapping,
                    stride=stride,
                    stride_tables=(
                        alphabet.tables() if alphabet is not None else None
                    ),
                )
                if recompiling:
                    self._tier = TIER_RECOMPILED

        if engine_backend is None:
            engine_backend = self._build_backend(
                backend_name, artifact, backend_options
            )
        if (
            self._cache is not None
            and not optimize
            and self._tier is not TIER_GOLDEN
        ):
            # Persist what this build computed and the artifact lacks: the
            # backend's packed tables, and the auto=True decision, so
            # warm starts skip the subset-closure probes; a fresh one
            # supersedes tables that were not trusted.
            stored = artifact
            if not artifact.kernel_tables:
                tables = engine_backend.packed_tables()
                if tables:
                    stored = stored.with_kernel_tables(tables)
            if classify_tables is not None:
                stored = stored.with_classify_tables(classify_tables)
            if self._tier is not TIER_WARM_CACHE or stored is not artifact:
                self._cache.store_artifact(stored)
            # A backend that learns a table as it scans starts from the
            # one an earlier engine on this artifact stored, and stores
            # what it learns for the next.
            quarantines_before = self._cache.stats.quarantines
            engine_backend.bind_table_entry(
                self._cache, cache_key(artifact.automaton, design, stride=stride)
            )
            if self._cache.stats.quarantines > quarantines_before:
                self._health_events.append("quarantined corrupt cached DFA table")

        self.artifact = artifact
        self.mapping: Mapping = artifact.mapping
        self._backend = engine_backend
        #: The automaton actually mapped (the optimised variant when
        #: ``optimize`` selected one).
        self.automaton = artifact.automaton
        self._profile = ActivityProfile()

    @staticmethod
    def _create_backend(
        backend_name: str,
        artifact: CompiledArtifact,
        options: Dict[str, object],
    ) -> AutomatonBackend:
        # The module-global MappedSimulator is resolved at call time so a
        # substituted implementation reaches the kernel-table backends.
        options = dict(options)
        options.setdefault("simulator_cls", MappedSimulator)
        return create_backend(backend_name, artifact, **options)

    def _build_backend(
        self,
        backend_name: str,
        artifact: CompiledArtifact,
        options: Dict[str, object],
    ) -> AutomatonBackend:
        """Requested backend if possible; golden interpreter as the last
        rung — but only when the caller did not name a backend."""
        try:
            return self._create_backend(backend_name, artifact, options)
        except Exception as error:
            if self._requested_backend is not None:
                raise
            warnings.warn(
                "packed simulator construction failed "
                f"({type(error).__name__}: {error}); "
                "falling back to the golden reference interpreter",
                DegradedModeWarning,
                stacklevel=3,
            )
            self._health_events.append(
                "packed kernel construction failed; "
                "golden interpreter serving traffic"
            )
            self._tier = TIER_GOLDEN
            return self._create_backend("golden-interpreter", artifact, {})

    def health(self) -> EngineHealth:
        """Which fallback tier served this engine, and the decisions taken.

        Construction-time events (cache quarantine, stride degrade,
        backend fallback) are joined by any *scan-time* degradations the
        backend has recorded since — e.g. split-scan chunks rescanned
        serially after an entry-state frontier explosion.  Both logs are
        bounded ring buffers (:data:`HEALTH_EVENT_LIMIT` /
        :data:`~repro.backends.base.EVENT_LOG_LIMIT`);
        ``events_dropped`` counts evictions, so a long-lived serving
        process neither grows without limit nor miscounts degradations.
        """
        backend = self._backend
        return EngineHealth(
            tier=self._tier,
            backend=backend.name,
            degraded=self._tier in (TIER_RECOMPILED, TIER_GOLDEN),
            events=tuple(self._health_events) + tuple(backend.health_events),
            cache=self.cache_info(),
            requested=self._requested_backend,
            events_dropped=(
                self._health_events.dropped + backend.health_events_dropped
            ),
        )

    def health_event_count(self) -> int:
        """Health events ever logged by this engine and its backend —
        ``len(events) + events_dropped`` of :meth:`health` without
        building the snapshot.  Monotonic; consumers diff it across a
        scan (the service's breaker does, twice per request)."""
        backend = self._backend
        return (
            len(self._health_events)
            + self._health_events.dropped
            + len(backend.health_events)
            + backend.health_events_dropped
        )

    @property
    def backend(self) -> AutomatonBackend:
        """The execution backend serving this engine's traffic."""
        return self._backend

    def backend_capabilities(self) -> BackendCapabilities:
        """Capability flags of the backend serving traffic."""
        return self._backend.capabilities()

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/bypass/store counts for this engine's artifact cache
        (all zero when caching is disabled); the compiled-automaton
        lookups of :meth:`from_patterns` are counted apart, under
        ``automaton_*``."""
        stats = CacheStats() if self._cache is None else self._cache.stats
        return stats.as_dict()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_patterns(
        cls,
        patterns: Sequence[str],
        *,
        rule_ids: Optional[Iterable[str]] = None,
        optimize: bool = False,
        cache: CacheSpec = "auto",
        **options,
    ) -> "CacheAutomatonEngine":
        """Compile a regex rule set; matches carry the rule id.

        ``optimize`` and ``cache`` are read here too; every other
        keyword is the constructor's.

        The compiled automaton is itself a cache entry, addressed by the
        pattern list, the rule ids and the front-end version
        (:func:`~repro.compiler.cache.source_key`): with a populated
        cache the regex front end does not run, the automaton is rebuilt
        from stored arrays and re-verified by its fingerprint.  A corrupt
        entry is quarantined and the patterns compiled as on a miss.
        """
        codes = list(rule_ids) if rule_ids is not None else list(patterns)
        cache = _resolve_cache(cache)
        machine = key = None
        quarantined = False
        if cache is not None and not optimize:
            key = source_key(patterns, codes, "engine")
            quarantines_before = cache.stats.quarantines
            machine = cache.load_automaton(key)
            quarantined = cache.stats.quarantines > quarantines_before
        if machine is None:
            machine = compile_patterns(
                patterns, report_codes=codes, automaton_id="engine"
            )
            if key is not None:
                cache.store_automaton(key, machine)
        engine = cls(machine, optimize=optimize, cache=cache, **options)
        if quarantined:
            engine._health_events.append(
                "quarantined corrupt cached automaton; patterns recompiled"
            )
        return engine

    @classmethod
    def from_anml(cls, document: str, **options) -> "CacheAutomatonEngine":
        """Build from an ANML document; every keyword is the
        constructor's."""
        return cls(from_anml(document), **options)

    @classmethod
    def from_anml_file(cls, path: str, **options) -> "CacheAutomatonEngine":
        """Build from an ANML file; every keyword is the constructor's."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_anml(handle.read(), **options)

    # -- scanning ------------------------------------------------------------

    @staticmethod
    def _matches(reports) -> List[Match]:
        return [
            Match(report.offset, report.report_code, report.ste_id)
            for report in reports
        ]

    def scan(self, data: bytes) -> List[Match]:
        """Scan one complete input; returns matches in offset order."""
        require_bytes(data, "scan() input")
        result = self._backend.scan(data)
        self._accumulate(result.profile)
        return self._matches(result.reports)

    def count(self, data: bytes) -> int:
        """Number of match events in ``data`` (no record materialisation)."""
        require_bytes(data, "count() input")
        result = self._backend.scan(data, collect_reports=False)
        self._accumulate(result.profile)
        return result.profile.reports

    def scan_many(self, streams: Sequence[bytes]) -> List[List[Match]]:
        """Scan several independent streams in one backend call.

        The Section 6 multi-stream scenario: every stream runs the same
        compiled automaton, so the default backend scans them one after
        the other on one shared warm kernel — a transition any stream
        has visited is a cache hit for all of them (the lazy-DFA backend
        shards the streams across processes when ``scan_jobs`` asks for
        workers; backends without a ``scan_many`` of their own get the
        protocol's per-stream loop).  Returns one match list per stream, each
        identical to ``scan`` on that stream alone.
        """
        streams = require_byte_streams(
            streams,
            what="scan_many() stream",
            single_hint=(
                "scan_many() expects a sequence of byte streams; "
                "use scan() for a single input"
            ),
        )
        results = self._backend.scan_many(streams)
        matches: List[List[Match]] = []
        for result in results:
            self._accumulate(result.profile)
            matches.append(self._matches(result.reports))
        return matches

    def stream(self) -> StreamScanner:
        """A stateful scanner for chunked input (global offsets)."""
        return StreamScanner(self)

    def stream_many(self, count: int) -> MultiStreamScanner:
        """A batched stateful scanner over ``count`` logical streams."""
        return MultiStreamScanner(self, count)

    def _accumulate(self, profile: ActivityProfile):
        self._profile = self._profile.merged_with(profile)

    # -- introspection ----------------------------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.automaton)

    @property
    def cache_bytes(self) -> int:
        return self.mapping.cache_bytes()

    @property
    def throughput_gbps(self) -> float:
        return self.design.throughput_gbps

    def scan_time_ms(self, input_bytes: int) -> float:
        """Modelled hardware time to stream ``input_bytes``."""
        if input_bytes < 0:
            raise ReproError("negative input length")
        return input_bytes / (self.design.frequency_ghz * 1e9) * 1e3

    def performance_summary(self) -> PerformanceSummary:
        """Line rate, footprint, and energy — the last only when traffic
        was scanned on a backend that measures activity
        (``capabilities().activity_profile``): a symbols/reports-only
        profile would put the energy at exactly zero, not at unknown."""
        energy_model = EnergyModel(self.design)
        energy = power = None
        if (
            self._profile.symbols
            and self._backend.capabilities().activity_profile
        ):
            energy = energy_model.energy_per_symbol_nj(self._profile)
            power = energy_model.average_power_watts(self._profile)
        return PerformanceSummary(
            design=self.design.name,
            throughput_gbps=self.design.throughput_gbps,
            speedup_vs_ap=ApModel().speedup_of(self.design),
            cache_kilobytes=self.cache_bytes / 1024.0,
            states=self.state_count,
            partitions=self.mapping.partition_count,
            energy_nj_per_symbol=energy,
            average_power_watts=power,
        )
