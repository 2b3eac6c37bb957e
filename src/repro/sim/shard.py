"""Process-parallel sharded scanning over one warm kernel/DFA pair.

The Section 6 multi-stream scenario scales past one core by sharding
independent input streams across worker processes
(:func:`repro.parallel.fan_out`).  Each job carries the tables its
worker needs — the packed kernel tables and the lazy DFA's published
table, ``dfa_rows`` (state keys) and the
``dfa_sources``/``dfa_columns``/``dfa_targets`` record of silent
transitions (see :mod:`repro.sim.lazytable`), plus the stride alphabet
when striding — and the worker rebuilds a
:class:`~repro.sim.kernel.BitsetKernel` and a warm-seeded
:class:`~repro.sim.lazydfa.LazyDfaKernel` from them
(:func:`~repro.sim.lazydfa.kernel_dfa_from_tables`) and scans its shard
of streams.  Shards are strided slices and come back in submission
order, so reassembly is deterministic — the worker count never changes
what a scan returns, only how fast it returns.

Worker count comes from ``jobs=`` or the ``REPRO_SCAN_JOBS`` environment
variable; sharding is opt-in (unset means 1 — a fork per batch costs
more than a short batch does — and ``"auto"`` asks for every core).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel import fan_out
from repro.sim.kernel import Checkpoint
from repro.sim.lazydfa import RawScanResult, kernel_dfa_from_tables, scan_one

SCAN_JOBS_ENV = "REPRO_SCAN_JOBS"


def _scan_shard_worker(job) -> Tuple[List[RawScanResult], Dict[str, int]]:
    """Scan one shard of streams against the tables its job carries.

    Returns the raw results plus the worker DFA's
    :meth:`~LazyDfaKernel.cache_info` counters — per-worker
    hit/miss/flush totals would otherwise die with the process, leaving
    the parent's aggregate blind to the fan-out.
    """
    tables, items, collect_events, max_states = job
    kernel, dfa = kernel_dfa_from_tables(tables, max_states)
    raws = [
        scan_one(kernel, dfa, data, resume, collect_events)
        for data, resume in items
    ]
    return raws, dfa.cache_info()


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
        [
            (tables, items[start::jobs], collect_events, max_states)
            for start in range(jobs)
        ],
        jobs,
        what="process-sharded scanning",
    )
    if shard_results is None:
        return None
    raws: List[RawScanResult] = [None] * len(items)
    for start, (shard_raws, _) in enumerate(shard_results):
        raws[start::jobs] = shard_raws
    return raws, [info for _, info in shard_results]
