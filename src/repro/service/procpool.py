"""Process-pool scan execution plane for the serving layer.

PR 8's :class:`~repro.service.service.ScanService` runs every CPU-bound
scan as a coroutine on one event loop, so one core is the throughput
ceiling.  This module moves the chunk scans into a persistent pool of
worker *processes* while keeping every PR 8 semantic — deadlines at
chunk boundaries, checkpoint-resume bit-identity, breaker/fallback,
graceful drain.

The unit of dispatch is a **span**: one job carries the rest of the
request's bytes, the service's ``chunk_bytes`` and the request's
absolute deadline.  The worker runs the chunk loop the event loop would
have run — one ``scan(piece, resume=checkpoint)`` per chunk, so chunk
boundaries and checkpoints are those of the in-loop plane — always
scans at least one chunk, and returns at the first chunk boundary where
``time.monotonic()`` has passed the deadline or :data:`SPAN_HOLD_S`
since the span started.  One executor round trip (~0.4 ms, more than
two 2 KiB chunks of scanning) is thus paid per span, not per chunk,
while a worker is never held longer than the hold quantum plus one
chunk: that bound, in time and independent of how fast the tenant's
ruleset scans, is what drain, the parent's own deadline check between
spans, and fairness between tenants rely on.  The parent resumes from
the offset and checkpoint a span returns, and checkpoints are plain
picklable values, so successive spans of one request may land on
different processes.  When something parent-side has to observe every
chunk boundary — an injected ``clock=``, a ``set_scan_delay`` chaos
hook — the service ships exactly one chunk and the span degenerates to
per-chunk dispatch.

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
* **Engine rebuild path** (every other backend, and any shared-memory
  failure): the worker rebuilds a full
  :class:`~repro.engine.CacheAutomatonEngine` from the registration
  shipped in the spec, warm-starting from the same content-addressed
  artifact cache directory the parent used, and returns finished
  ``Report``/``Checkpoint`` objects.

Supervision: a dead worker process breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`, so the executor is
respawned (counted in :attr:`ProcPoolScanExecutor.respawns`) and the
in-flight span fails with a retryable
:class:`~repro.service.errors.WorkerCrashed` — exactly the PR 8
contract, now for real processes.  Only the pool's own death counts:
an exception the scan raised inside a live worker comes back as itself
and is the tenant's fault, as it would be in-loop.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context
from multiprocessing.connection import wait as wait_for_exit
from typing import NamedTuple, Optional, Sequence, Tuple

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
#: seconds after it started scanning.  Long enough that the executor
#: round trip is a small share of it, short enough that drain-timeout
#: overshoot and head-of-line blocking behind one tenant stay at the
#: scale of a few in-loop chunks.
SPAN_HOLD_S = 0.005


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

    def __init__(self, backend):
        self.backend = backend

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
    return _BackendWorkerEngine(engine.backend)


def _worker_engine(spec: TenantWorkerSpec):
    engine = _WORKER_ENGINES.get(spec.fingerprint)
    if engine is None:
        if spec.shm_meta is not None:
            try:
                engine = _build_tables_engine(spec)
            except Exception:
                # The block can be gone (hot-reload unlinked it) or the
                # attach can fail; the registration in the spec always
                # suffices to rebuild the slow way.
                engine = _build_backend_engine(spec)
        else:
            engine = _build_backend_engine(spec)
        _WORKER_ENGINES[spec.fingerprint] = engine
        while len(_WORKER_ENGINES) > WORKER_ENGINE_CACHE_LIMIT:
            _WORKER_ENGINES.popitem(last=False)
    else:
        _WORKER_ENGINES.move_to_end(spec.fingerprint)
    return engine


def _worker_scan_span(
    spec, data, cursor, chunk_bytes, deadline_at, collect_reports
):
    """Scan one span in a worker process (top-level so it pickles).

    ``cursor`` is the resume checkpoint flattened to ``(symbols, vector,
    sod)`` or ``None``; ``deadline_at`` is the request's deadline on
    ``time.monotonic()`` — one clock for every process on the host — or
    ``None``.  The span is cut into ``chunk_bytes`` pieces scanned one
    after the other from ``cursor``; it always scans the first, and
    stops at the first boundary past the deadline or past
    :data:`SPAN_HOLD_S` (counted from here, after any engine cold
    start, so a queued or cold job still gets its quantum).  Returns
    ``("raw", RawScanResult)`` (fast path — event offsets relative to
    the span start, the parent materialises reports) or ``("scan",
    (reports, checkpoint, consumed))`` (engine path — already global
    offsets because the backend scanned with the resume checkpoint);
    either way the bytes consumed are a whole number of chunks unless
    the data ran out.
    """
    engine = _worker_engine(spec)
    stop_at = time.monotonic() + SPAN_HOLD_S
    if deadline_at is not None:
        stop_at = min(stop_at, deadline_at)
    return engine.scan_span(data, cursor, chunk_bytes, stop_at, collect_reports)


def _worker_pid() -> int:
    """Chaos-hook helper: the worker process's own pid."""
    return os.getpid()


class _SpanResult(NamedTuple):
    """What the service's request loop consumes of one span: the slice
    of BackendResult the in-loop plane reads, plus the bytes consumed."""

    reports: Sequence[Report]
    checkpoint: Checkpoint
    consumed: int


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


class ProcPoolScanExecutor:
    """A supervised ``ProcessPoolExecutor`` dispatching scan spans.

    ``scan_span`` is the only hot entry point: it ships ``(spec, bytes,
    checkpoint, chunk_bytes, deadline)`` to a worker via
    ``loop.run_in_executor`` and hands back ``.reports``/``.checkpoint``
    /``.consumed``, materialising fast-path raw payloads through the
    parent's registered backend.  A broken pool (worker process died) is
    respawned on the spot and the failed span surfaces as a retryable
    :class:`WorkerCrashed` — mirroring the coroutine-worker supervision
    contract.  ``dispatched`` counts spans that came back and ``chunks``
    the chunks they covered; the service publishes both.
    """

    def __init__(self, workers: int, *, mp_method: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"need at least one scan worker, got {workers}")
        self.workers = workers
        self._mp_method = mp_method or default_mp_method()
        self._pool: Optional[ProcessPoolExecutor] = None
        self.respawns = 0
        self.dispatched = 0
        self.chunks = 0

    def start(self) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context(self._mp_method),
            )

    def shutdown(self) -> None:
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=True)

    def _respawn(self, broken: Optional[ProcessPoolExecutor]) -> None:
        if self._pool is not broken:
            return  # a concurrent failure already swapped the pool
        self._pool = None
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)
        self.respawns += 1
        self.start()

    def worker_pids(self) -> Tuple[int, ...]:
        """Pids of the live pool processes (chaos hooks / tests).

        The pool spawns processes lazily, so this dispatches a no-op
        job first to guarantee at least one process exists.
        """
        if self._pool is None:
            return ()
        self._pool.submit(_worker_pid).result()
        return tuple(self._pool._processes.keys())

    def crash_one(self) -> Optional[int]:
        """Chaos hook: SIGKILL one pool process; returns its pid.

        A span in flight, or else the next one dispatched, observes the
        broken pool, fails with a retryable :class:`WorkerCrashed`, and
        triggers a respawn.  The kill is asynchronous, so this returns
        only once the process has ended: a whole request is often one
        span, and one submitted ahead of the death could complete on
        another worker before the executor noticed anything.
        """
        import signal

        pids = self.worker_pids()
        if not pids:
            return None
        victim = self._pool._processes[pids[0]]
        os.kill(victim.pid, signal.SIGKILL)
        wait_for_exit([victim.sentinel], timeout=5.0)
        return victim.pid

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
        if self._pool is None:
            self.start()
        pool = self._pool
        job = partial(
            _worker_scan_span,
            spec, data, _cursor(checkpoint),
            chunk_bytes, deadline_at, collect_reports,
        )
        # Pool death shows in two places and nowhere else: submit refuses
        # a broken (BrokenProcessPool, a RuntimeError) or shut-down pool
        # or cannot start a process, and a process dying under the job
        # fails the future with BrokenProcessPool.  Respawn so the *next*
        # span lands on fresh workers, and fail this one with the typed
        # retryable error.  Anything else the future raises was raised by
        # the scan in a live worker and propagates as itself.
        try:
            future = loop.run_in_executor(pool, job)
        except (OSError, RuntimeError) as error:
            self._respawn(pool)
            raise WorkerCrashed(spec.tenant) from error
        try:
            kind, body = await future
        except BrokenProcessPool as error:
            self._respawn(pool)
            raise WorkerCrashed(spec.tenant) from error
        if kind == "raw":
            base = 0 if checkpoint is None else checkpoint.symbols_processed
            result = backend.materialise_raw(body, base, collect_reports)
            span = _SpanResult(result.reports, result.checkpoint, body[4])
        else:
            span = _SpanResult(*body)
        self.dispatched += 1
        self.chunks += -(-span.consumed // chunk_bytes)
        return span
