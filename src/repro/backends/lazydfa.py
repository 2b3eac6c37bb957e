"""The lazy-DFA backend: on-demand determinisation of the packed kernel.

This is the default DFA strategy (it owns the ``cpu-dfa``/``cpu``/``dfa``
aliases): instead of eagerly determinising the automaton — which blows
up on real rule sets like PowerEN — it hash-conses the packed kernel's
activation rows into DFA states *as the input visits them*
(:class:`~repro.sim.lazydfa.LazyDfaKernel`), so a warm transition costs
one list index and match/report semantics stay bit-identical to the
golden interpreter, full STE identity included.  The eager subset
construction survives only as the paper's CPU model,
:class:`~repro.baselines.cpu.DfaCpuEngine`.

``scan_many`` additionally shards streams across a process pool
(:mod:`repro.sim.shard`): each worker's job carries the kernel's packed
tables and the warm DFA transition tables, workers rebuild from them
and return raw report events, and the parent materialises
:class:`Report` objects — so results are deterministic and independent
of the worker count.  Control the pool with the ``jobs=``
backend option (engine: ``backend_options={"jobs": N}``) or
``REPRO_SCAN_JOBS``.

The ``stride=`` option (or ``REPRO_STRIDE``) turns on k-stride
execution: the DFA consumes k bytes per cached transition over a
CAMA-style compressed class alphabet
(:mod:`repro.automata.stride`), with reports still bit-identical to
the golden run.  Striding composes with sharding — the compressed
alphabet rides in the same job.

``scan`` can additionally *split one stream* across a worker pool
(:mod:`repro.sim.split`, SFA-style): the parent scans the leading
chunk on its warm DFA while workers build entry-state -> (exit state,
deferred events) mappings for the rest, and a left-to-right join
replays the true event stream — bit-identical to the serial scan at
every worker count and stride, STE identity and resume cursor
included.  Control it with the ``split_jobs=`` backend option (or
``REPRO_SPLIT_JOBS``); a chunk whose entry-state frontier explodes is
rescanned serially and surfaced through :attr:`health_events`.  A
failure of the worker plane degrades either fan-out to the serial loop
with a :class:`~repro.errors.DegradedModeWarning`
(:func:`repro.parallel.fan_out` holds that policy).
"""

from __future__ import annotations

import functools
import warnings
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.automata.stride import StrideAlphabet, resolve_stride
from repro.backends.artifact import CompiledArtifact
from repro.backends.base import (
    AutomatonBackend,
    BackendCapabilities,
    BoundedEventLog,
)
from repro.backends.mapped import simulator_from_artifact
from repro.backends.registry import register_backend
from repro.backends.validation import require_resume_count
from repro.errors import DegradedModeWarning
from repro.parallel import resolve_jobs
from repro.sim.functional import MappedSimulator
from repro.sim.kernel import (
    Checkpoint,
    Report,
    RunStats,
    ScanResult,
    as_symbols,
)
from repro.sim.lazydfa import (
    LazyDfaKernel,
    RawScanResult,
    merge_cache_infos,
    scan_one,
)
from repro.sim.shard import SCAN_JOBS_ENV, scan_streams_sharded
from repro.sim.split import (
    SPLIT_JOBS_ENV,
    SPLIT_MIN_CHUNK,
    SfaKernel,
    effective_split_jobs,
    scan_stream_split,
)

_CAPABILITIES = BackendCapabilities(
    resume=True,
    batch=True,
    activity_profile=False,
    fault_events=False,
    split=True,
    description=(
        "lazy-DFA over the packed kernel: activation rows hash-consed "
        "into DFA states on demand (RE2-style bounded transition cache, "
        "flush on overflow), bit-identical reports with full STE "
        "identity; optional k-stride execution over a compressed class "
        "alphabet (stride= / REPRO_STRIDE); scan_many shards streams "
        "across a process pool, tables inside each job; scan splits "
        "one stream across workers via SFA state mappings "
        "(split_jobs= / REPRO_SPLIT_JOBS)"
    ),
)


@register_backend("lazy-dfa", aliases=("cpu-dfa", "cpu", "dfa"))
class LazyDfaBackend(AutomatonBackend):
    """Execution as lazily-determinised transitions over the kernel."""

    consumes_kernel_tables = True

    def __init__(
        self,
        simulator: MappedSimulator,
        *,
        jobs: Union[int, str, None] = None,
        max_states: Optional[int] = None,
        stride: Union[int, str, None] = None,
        alphabet: Optional[StrideAlphabet] = None,
        split_jobs: Union[int, str, None] = None,
        split_min_chunk: int = SPLIT_MIN_CHUNK,
        split_slot_limit: Optional[int] = None,
    ):
        self.simulator = simulator
        self.dfa = LazyDfaKernel(
            simulator.kernel,
            max_states=max_states,
            stride=stride,
            alphabet=alphabet,
        )
        self._jobs = jobs
        self._split_jobs = split_jobs
        self._split_min_chunk = max(1, int(split_min_chunk))
        self._split_slot_limit = split_slot_limit
        #: Master SFA mapping automaton for split scanning, built on
        #: first use; each join folds the workers' newly-discovered
        #: states back in, so later calls ship a warmer cache.
        self._sfa: Optional[SfaKernel] = None
        #: Aggregate of worker-process DFA/SFA cache counters across
        #: every sharded and split scan (see :meth:`worker_cache_info`).
        self._worker_totals: Dict[str, int] = {"workers": 0}
        self._health_events = BoundedEventLog()

    @classmethod
    def from_artifact(
        cls,
        artifact: CompiledArtifact,
        *,
        simulator_cls=None,
        jobs: Union[int, str, None] = None,
        max_states: Optional[int] = None,
        stride: Union[int, str, None] = None,
        split_jobs: Union[int, str, None] = None,
        split_min_chunk: int = SPLIT_MIN_CHUNK,
        split_slot_limit: Optional[int] = None,
        **_options,
    ) -> "LazyDfaBackend":
        """Build over the artifact's kernel tables when present (warm
        path), else from the mapping; no subset construction ever runs.

        ``jobs`` presets the ``scan_many`` worker count (``None`` defers
        to ``REPRO_SCAN_JOBS``, default serial); ``split_jobs``
        presets the single-stream split worker count (``None`` defers to
        ``REPRO_SPLIT_JOBS``, default serial); ``max_states`` overrides
        the DFA cache's state budget.  ``stride`` resolution: explicit
        argument, else the stride the artifact was compiled with, else
        ``REPRO_STRIDE``, else 1.  When the resolved stride matches the
        artifact's cached ``stride_tables``, the compressed alphabet is
        rebuilt from the cache instead of rederived.
        """
        simulator = simulator_from_artifact(artifact, simulator_cls)
        if stride is None and artifact.stride != 1:
            stride = artifact.stride
        stride = resolve_stride(stride)
        alphabet = None
        if stride != 1 and stride == artifact.stride and artifact.stride_tables:
            alphabet = StrideAlphabet.from_tables(dict(artifact.stride_tables))
        return cls(
            simulator,
            jobs=jobs,
            max_states=max_states,
            stride=stride,
            alphabet=alphabet,
            split_jobs=split_jobs,
            split_min_chunk=split_min_chunk,
            split_slot_limit=split_slot_limit,
        )

    def capabilities(self) -> BackendCapabilities:
        return _CAPABILITIES

    def packed_tables(self) -> dict:
        """The simulator's kernel tables, for persisting into the cache."""
        return self.simulator.packed_tables()

    def share_tables(self) -> Dict[str, np.ndarray]:
        """Everything a worker process needs to rebuild this backend.

        The union of the kernel's packed tables and the lazy DFA's
        :meth:`~repro.sim.lazydfa.LazyDfaKernel.export_tables` (warm
        transition tables plus the compressed stride alphabet when
        strided); a worker rebuilds from it with
        :func:`~repro.sim.lazydfa.kernel_dfa_from_tables`.
        """
        tables = dict(self.simulator.kernel.packed_tables())
        tables.update(self.dfa.export_tables())
        return tables

    def bind_table_entry(self, cache, key: str) -> None:
        """Adopt the table ``cache`` holds under ``key`` for this kernel
        (a warm start scans warm from its first byte), then store the
        table there as scans learn
        (:meth:`~repro.sim.lazydfa.LazyDfaKernel.persist`)."""
        kernel = self.dfa.digest()
        cache.load_table(key, kernel, self.dfa.seed)
        self.dfa.persist(functools.partial(cache.store_table, key, kernel))

    def cache_info(self) -> Dict[str, int]:
        """The DFA transition cache's effectiveness counters."""
        return self.dfa.cache_info()

    def worker_cache_info(self) -> Dict[str, int]:
        """Aggregate worker-process cache counters (sharded + split).

        Per-worker lazy-DFA/SFA ``cache_info`` dicts come back with
        every fan-out result and are folded into one running total
        (:func:`~repro.sim.lazydfa.merge_cache_infos` conventions:
        counters sum, gauges max, ``workers`` counts contributors).
        ``{"workers": 0}`` until a pooled scan has run.
        """
        return dict(self._worker_totals)

    def _absorb_worker_infos(self, infos) -> None:
        infos = [info for info in infos if info]
        if infos:
            self._worker_totals = merge_cache_infos(
                [self._worker_totals] + list(infos)
            )

    @property
    def health_events(self) -> Tuple[str, ...]:
        """Scan-time degradation notices (e.g. split chunks rescanned
        serially after an entry-state frontier explosion); the engine
        merges these into :meth:`~repro.engine.CacheAutomatonEngine.
        health`.  Bounded ring buffer — :attr:`health_events_dropped`
        counts evictions."""
        return tuple(self._health_events)

    @property
    def health_events_dropped(self) -> int:
        """Events evicted from the bounded scan-time log."""
        return self._health_events.dropped

    # -- report materialisation --------------------------------------------

    def materialise_raw(
        self, raw: RawScanResult, collect_reports: bool
    ) -> ScanResult:
        """Turn a :data:`~repro.sim.lazydfa.RawScanResult` — this
        process's or a worker's — into a full
        :class:`~repro.sim.kernel.ScanResult` with parent-side STE
        identity (raw reporting-row bytes -> ``(ste_id, report_code)``
        via the simulator's memoising decoder) and the same report
        ordering as a serial scan; the checkpoint is the one the scan
        left the kernel with, which also says where in its stream the
        scan began."""
        raw_events, report_total, checkpoint, symbols = raw
        base_offset = checkpoint.symbols_processed - symbols
        reports: List[Report] = []
        if collect_reports:
            emit = self.simulator.decoder.emit
            for event_offset, _count, rep_bytes in raw_events:
                emit(rep_bytes, base_offset + event_offset, reports)
        return ScanResult.counted(
            reports,
            symbols=symbols,
            report_count=report_total,
            checkpoint=checkpoint,
            stats=RunStats(symbols_processed=symbols),
        )

    # -- scanning ----------------------------------------------------------

    def scan(
        self,
        data: bytes,
        *,
        collect_reports: bool = True,
        resume: Optional[Checkpoint] = None,
        split_jobs: Union[int, str, None] = None,
    ) -> ScanResult:
        """Scan one stream; when ``split_jobs`` (argument, backend
        option, or ``REPRO_SPLIT_JOBS``) resolves above 1 and the input
        is long enough to amortise the fork, the stream is split across
        a worker pool with bit-identical results (:mod:`repro.sim.
        split`); otherwise — including pool failure — the serial loop
        below runs."""
        # Opt-in: splitting one stream forks processes, so unset means 1.
        workers = resolve_jobs(
            self._split_jobs if split_jobs is None else split_jobs,
            SPLIT_JOBS_ENV,
            1,
        )
        raw = self._scan_split(data, resume, workers) if workers > 1 else None
        if raw is None:
            raw = scan_one(
                self.simulator.kernel, self.dfa, data, resume, collect_reports
            )
        return self.materialise_raw(raw, collect_reports)

    def _scan_split(
        self, data: bytes, resume: Optional[Checkpoint], workers: int
    ) -> Optional[RawScanResult]:
        """One SFA-split scan attempt; ``None`` falls back to serial."""
        jobs = effective_split_jobs(len(data), workers, self._split_min_chunk)
        if jobs < 2:
            return None
        if self._sfa is None:
            options = {}
            if self._split_slot_limit is not None:
                options["slot_limit"] = self._split_slot_limit
            self._sfa = SfaKernel(self.simulator.kernel, **options)
        outcome = scan_stream_split(
            self.simulator.kernel,
            self.dfa,
            self._sfa,
            data,
            jobs,
            resume=resume,
        )
        if outcome is None:
            return None
        raw, stats = outcome
        self._absorb_worker_infos(stats.get("worker_cache_infos", ()))
        degraded = stats.get("degraded_chunks", 0)
        if degraded:
            notice = (
                f"split scan: entry-state frontier exceeded the slot "
                f"limit in {degraded} of {stats['chunks']} chunks; "
                "those chunks were rescanned serially"
            )
            self._health_events.append(notice)
            warnings.warn(notice, DegradedModeWarning, stacklevel=3)
        return raw

    def scan_many(
        self,
        streams: Sequence[bytes],
        *,
        resumes: Optional[Sequence[Optional[Checkpoint]]] = None,
        collect_reports: bool = True,
        jobs: Union[int, str, None] = None,
    ) -> List[ScanResult]:
        """Scan a batch of streams, sharding across processes when
        ``jobs`` (argument, backend option, or ``REPRO_SCAN_JOBS``;
        unset means 1, ``"auto"`` every core) resolves above 1.  Results
        are index-ordered and identical to the serial loop for every
        worker count.
        """
        streams = list(streams)
        resumes = require_resume_count(resumes, len(streams))
        # Opt-in, like the split above: sharding forks a pool and
        # pickles the tables into every job whatever the batch holds.
        workers = resolve_jobs(
            self._jobs if jobs is None else jobs, SCAN_JOBS_ENV, 1
        )
        if workers > 1 and len(streams) > 1:
            items = [
                (bytes(as_symbols(data)), resume)
                for data, resume in zip(streams, resumes)
            ]
            tables = self.share_tables()
            outcome = scan_streams_sharded(
                tables,
                items,
                workers,
                collect_events=collect_reports,
                max_states=self.dfa.cache_info()["max_states"],
            )
            if outcome is not None:
                raws, worker_infos = outcome
                self._absorb_worker_infos(worker_infos)
                return [
                    self.materialise_raw(raw, collect_reports) for raw in raws
                ]
        return [
            self.scan(data, collect_reports=collect_reports, resume=resume)
            for data, resume in zip(streams, resumes)
        ]
