"""Process-parallel sharded scanning over shared kernel/DFA tables.

The Section 6 multi-stream scenario scales past one core by sharding
independent input streams across worker processes
(:func:`repro.parallel.fan_out`).  The expensive state — the packed
kernel tables and the lazy DFA's two published tables, ``dfa_rows``
(state keys) and ``dfa_next`` (silent successors; see
:mod:`repro.sim.lazytable`), plus the stride alphabet when striding —
is published *once* as a single shared-memory block; each worker maps
it zero-copy, rebuilds a :class:`~repro.sim.kernel.BitsetKernel` via
``from_packed`` and a warm-seeded
:class:`~repro.sim.lazydfa.LazyDfaKernel` (:func:`attach_kernel_dfa`),
and scans its shard of streams.  Shards
are strided slices and come back in submission order, so reassembly is
deterministic — the worker count never changes what a scan returns,
only how fast it returns.

Worker count comes from ``jobs=`` or the ``REPRO_SCAN_JOBS`` environment
variable; sharding is opt-in (unset means 1 — a fork per batch costs
more than a short batch does — and ``"auto"`` asks for every core).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.stride import StrideAlphabet
from repro.parallel import attach_tables, detach_tables, fan_out
from repro.sim.kernel import BitsetKernel, Checkpoint, as_symbols
from repro.sim.lazydfa import LazyDfaKernel

SCAN_JOBS_ENV = "REPRO_SCAN_JOBS"

#: One stream's raw scan outcome, before report materialisation — not a
#: result type beside :class:`~repro.sim.kernel.ScanResult` but its one
#: *pickle form*, what crosses a process boundary (worker pipe, pool
#: span), with one decoder
#: (:meth:`~repro.backends.lazydfa.LazyDfaBackend.materialise_raw`):
#: (events as (offset from the scan's first symbol, count,
#:  reporting_row_bytes), report_total, checkpoint to resume from,
#:  symbols_scanned) — so the scan began ``symbols_scanned`` before the
#: checkpoint's global symbol counter.
RawScanResult = Tuple[List[Tuple[int, int, bytes]], int, Checkpoint, int]


def attach_kernel_dfa(meta, max_states: Optional[int], *, copy: bool):
    """Rebuild the kernel + warm lazy DFA a parent published
    (:meth:`~repro.backends.lazydfa.LazyDfaBackend.share_tables`) under
    the parent's DFA state budget; returns ``(kernel, dfa, handle)``.

    ``copy=False`` is zero-copy: the kernel aliases the mapping, and the
    caller drops the pair, then closes ``handle``.  ``copy=True`` copies
    the arrays out and closes the mapping here (``handle`` is ``None``):
    a long-lived worker's pair outlives a block its parent may unlink at
    any time (hot reload, drain).
    """
    handle, tables = attach_tables(meta)
    try:
        if copy:
            tables = {name: np.array(view) for name, view in tables.items()}
        alphabet = None
        if "stride_k" in tables:
            # from_tables copies, so the alphabet outlives the mapping.
            alphabet = StrideAlphabet.from_tables(tables)
        kernel = BitsetKernel.from_packed(tables)
        dfa = LazyDfaKernel(kernel, max_states=max_states, alphabet=alphabet)
        dfa.seed(tables)
    except BaseException:
        del tables
        detach_tables(handle)
        raise
    if copy:  # no view of the mapping is left
        handle.close()
        return kernel, dfa, None
    return kernel, dfa, handle


def scan_one(
    kernel: BitsetKernel,
    dfa: LazyDfaKernel,
    data: bytes,
    resume: Optional[Checkpoint],
    collect_events: bool,
) -> RawScanResult:
    """Scan one stream on a kernel/DFA pair — the parent's serial scan
    and every worker's, so they cannot differ."""
    symbols = as_symbols(data)
    prev, _, sod, base = kernel.enter(resume)
    events, total, final_row, sod = dfa.scan(
        symbols, prev=prev, sod=sod, collect_events=collect_events
    )
    raw_events = [(offset,) + dfa.event(event_id) for offset, event_id in events]
    checkpoint = kernel.leave(final_row, sod, base + len(symbols))
    return raw_events, total, checkpoint, len(symbols)


def _scan_shard_worker(job) -> Tuple[List[RawScanResult], Dict[str, int]]:
    """Scan one shard of streams against the shared tables.

    Returns the raw results plus the worker DFA's
    :meth:`~LazyDfaKernel.cache_info` counters — per-worker
    hit/miss/flush totals would otherwise die with the process, leaving
    the parent's aggregate blind to the fan-out.
    """
    meta, (items, collect_events, max_states) = job
    kernel, dfa, handle = attach_kernel_dfa(meta, max_states, copy=False)
    try:
        raws = [
            scan_one(kernel, dfa, data, resume, collect_events)
            for data, resume in items
        ]
        return raws, dfa.cache_info()
    finally:
        # Seeding copied what the DFA keeps of the mapping; the kernel
        # aliases it.
        kernel = dfa = None
        detach_tables(handle)


def scan_streams_sharded(
    tables: Dict[str, np.ndarray],
    items: Sequence[Tuple[bytes, Optional[Checkpoint]]],
    jobs: int,
    *,
    collect_events: bool = True,
    max_states: Optional[int] = None,
) -> Optional[Tuple[List[RawScanResult], List[Dict[str, int]]]]:
    """Shard ``items`` — ``(data, resume checkpoint or None)`` pairs —
    across ``jobs`` workers; results in item order.

    ``tables`` is the union of the kernel's packed tables and the lazy
    DFA's :meth:`~repro.sim.lazydfa.LazyDfaKernel.export_tables`;
    ``max_states`` the parent DFA's state budget, which every worker's
    DFA takes over.  Returns ``(raw results, per-worker cache
    counters)`` — merge the counters with
    :func:`~repro.sim.lazydfa.merge_cache_infos` — or ``None`` when the
    worker plane itself is unusable (the caller falls back to its serial
    path); worker exceptions propagate.
    """
    items = list(items)
    if not items:
        return [], []
    jobs = min(max(1, jobs), len(items))
    shard_results = fan_out(
        _scan_shard_worker,
        [(items[start::jobs], collect_events, max_states) for start in range(jobs)],
        jobs,
        what="process-sharded scanning",
        tables=tables,
    )
    if shard_results is None:
        return None
    raws: List[RawScanResult] = [None] * len(items)
    for start, (shard_raws, _) in enumerate(shard_results):
        raws[start::jobs] = shard_raws
    return raws, [info for _, info in shard_results]
