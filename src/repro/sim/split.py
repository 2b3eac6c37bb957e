"""SFA-style split-stream scanning: one input, N workers, exact joins.

:mod:`repro.sim.shard` parallelises *across* streams; this module splits
*one* stream.  The Simultaneous Finite Automata construction (Sin'ya &
Matsuzaki) scans every chunk from every possible entry state at once,
producing an entry-state -> (exit state, report events) mapping; the
mappings compose associatively, so a left-to-right join resolves the
true entry state of every chunk and replays exactly the events a serial
scan would have produced.

Enumerating entry states naively is intractable — the lazy DFA never
knows its full state space.  The packed kernel's transition is
*union-linear* in the activation row (``propagate(a | b) ==
propagate(a) | propagate(b)``), so any entry state decomposes into its
single-bit parts and the chunk mapping is affine::

    exit(entry) = const | UNION_{bit in entry} linear[bit]

where ``const`` is the scan from the empty row (start states firing
every cycle) and ``linear[bit]`` tracks the entry bit's influence with
*no* start-state refresh.  Distinct linear images collapse quickly and
only ever merge or die (the reachable entry-state frontier the
DFA-vs-NFA literature observes stays small), so a worker tracks one
const row plus a short ordered tuple of distinct linear rows — and that
whole tuple is one :class:`SfaKernel` state, a key of the same
:class:`~repro.sim.lazytable.LazyTable` the lazy DFA caches its
transitions in (hash-consing, bounded budget with flush, publication:
see that module).  A warm worker byte is therefore **one list
index**, the same cost as the serial lazy DFA; rare transitions with
*effects* (slot deaths/merges, report events) carry their bookkeeping
on the side, as the table's flush-immune records.

The join applies each chunk's mapping to the exit row of the previous
chunk: resolve the entry bits to their slot groups, union the const and
surviving linear exits, merge per-offset report rows (no cross terms —
reporting is union-linear too), and replay the events with absolute
offsets.  Results are bit-identical to a serial scan, STE identity and
checkpoint cursor included, for every worker count.

When the entry frontier *does* explode (more distinct linear images at
a chunk's first byte than ``slot_limit``), the worker abandons the
mapping and the parent rescans that one chunk serially at join time —
degradation is per-chunk, reported through the backend's health events.

Worker count comes from ``split_jobs=`` or ``REPRO_SPLIT_JOBS``,
defaulting to 1: splitting a stream forks processes, so it is opt-in,
unlike the multi-stream sharder's CPU-count default.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.parallel import fan_out
from repro.sim.kernel import BitsetKernel, Checkpoint, as_symbols
from repro.sim.lazydfa import RawScanResult
from repro.sim.lazytable import Interner, LazyTable

SPLIT_JOBS_ENV = "REPRO_SPLIT_JOBS"

#: Budget for cached SFA states (const row + linear-slot rows each).
SFA_CACHE_BYTES = 32 * 1024 * 1024

#: Ceiling on distinct linear rows at a chunk's first byte; beyond it
#: the chunk's mapping is abandoned (entry-state frontier explosion)
#: and the parent rescans that chunk serially at join time.
SFA_SLOT_LIMIT = 256

#: Smallest chunk worth forking a worker for; shorter inputs scan
#: serially even when ``split_jobs`` asks for more workers.
SPLIT_MIN_CHUNK = 4096


def effective_split_jobs(length: int, jobs: int, min_chunk: int) -> int:
    """Actual chunk count: never more than one chunk per ``min_chunk``
    input bytes, so tiny inputs stay on the serial path."""
    if min_chunk <= 0:
        min_chunk = 1
    return max(1, min(int(jobs), length // min_chunk))


def _rows_of(key: Tuple[bytes, ...]) -> Tuple[np.ndarray, ...]:
    return tuple(np.frombuffer(row, np.uint64) for row in key)


class SfaKernel:
    """Lazily-determinised *mapping* automaton over one packed kernel.

    A state is the whole chunk-scan mapping at one input position,
    canonically represented as ``(const row, ordered distinct linear
    rows)`` — a tuple of row bytes, the key of one
    :class:`~repro.sim.lazytable.LazyTable` state, walked by the table
    exactly like :class:`~repro.sim.lazydfa.LazyDfaKernel`'s.  Most
    transitions are *silent* (every linear slot survives 1:1, nobody
    reports): their cell is the successor's row, one list index a byte.
    The rest carry a flush-immune *effect* record: which source slots
    died or merged (and into which surviving slot), plus the cycle's
    reporting rows for the const part and each firing slot, applied to
    the chunk's slot groups after the walk, in walk order.

    The cached automaton is shared state; the per-chunk group
    bookkeeping lives in :meth:`scan_mapping`'s locals, so one kernel
    serves many chunks and its cache keeps warming.  ``export_tables``
    /:meth:`seed` ship the table's record of silent transitions inside
    each worker's job, as the lazy DFA's tables travel — effectful
    transitions recompute on first use, one miss each.
    """

    def __init__(
        self,
        kernel: BitsetKernel,
        *,
        max_states: Optional[int] = None,
        slot_limit: int = SFA_SLOT_LIMIT,
    ):
        self._kernel = kernel
        self._slot_limit = max(1, int(slot_limit))
        if max_states is None:
            # States are heavier than lazy-DFA states: a const row, a
            # handful of slot rows, and a 256-entry transition list.
            est = 16 * kernel.row_bytes + 256 * 8 + 512
            max_states = SFA_CACHE_BYTES // est
        #: State keys are ``(const row, slot rows...)`` bytes, decoded
        #: to row arrays.  Transition records are *effects*:
        #: ``(survivors or None when 1:1, const reporting row or None,
        #: ((slot, reporting row), ...))``.
        self._table = LazyTable(256, max(64, int(max_states)), _rows_of)
        # Per-first-byte entry construction, memoised by byte value:
        # (state key, bit -> group table, const offset-0 reporting
        # row).  Stores row bytes, not state ids, so it survives cache
        # flushes.
        self._entries: Dict[int, tuple] = {}

    @property
    def slot_limit(self) -> int:
        return self._slot_limit

    # -- entry construction ------------------------------------------------

    def _entry(self, sym0: int) -> tuple:
        """Mapping state after a chunk's first byte, memoised per byte.

        Every entry bit alive on ``sym0`` (its match row contains the
        byte) steps to its successor mask; distinct masks become the
        initial linear slots, and ``group_of_bit`` records which slot
        each bit feeds (-1: dead after one cycle — the join still
        charges its offset-0 report directly from the entry row).  The
        const part takes the idle step, and its offset-0 reporting row
        rides along.
        """
        memo = self._entries.get(sym0)
        if memo is None:
            kernel = self._kernel
            idle_matched = kernel.match_matrix[sym0] & kernel.start_all_row
            const_row, _ = kernel.propagate(idle_matched)
            const_rep = idle_matched & kernel.report_row
            const0 = const_rep.tobytes() if const_rep.any() else None
            group_of_bit = np.full(kernel.n_bits, -1, dtype=np.int32)
            slot_keys: Dict[bytes, int] = {}
            for bit in kernel.bit_indices(kernel.match_matrix[sym0]):
                successors = kernel.propagate(
                    kernel.pack(1 << int(bit))
                )[0]
                if not successors.any():
                    continue
                group_of_bit[bit] = slot_keys.setdefault(
                    successors.tobytes(), len(slot_keys)
                )
            group_of_bit.setflags(write=False)
            key = (const_row.tobytes(),) + tuple(slot_keys)
            memo = (key, group_of_bit, const0)
            self._entries[sym0] = memo
        return memo

    # -- transitions -------------------------------------------------------

    def _miss(self, sid: int, symbol: int) -> Tuple[int, object]:
        """Fill the ``(sid, symbol)`` transition; returns ``(sid, cell)``
        as :meth:`LazyTable.fill` does (``sid`` may have been remapped
        by a flush)."""
        kernel = self._kernel
        const_row, *slot_rows = self._table.states[sid]

        match_row = kernel.match_matrix[symbol]
        matched_const = match_row & (const_row | kernel.start_all_row)
        next_const, _ = kernel.propagate(matched_const)
        const_rep = matched_const & kernel.report_row
        const_rep_bytes = const_rep.tobytes() if const_rep.any() else None

        survivors: List[int] = []
        next_keys: Dict[bytes, int] = {}
        slot_reps: List[Tuple[int, bytes]] = []
        for index, row in enumerate(slot_rows):
            matched = match_row & row
            rep = matched & kernel.report_row
            if rep.any():
                slot_reps.append((index, rep.tobytes()))
            successor, nonzero = kernel.propagate(matched)
            if not nonzero:
                survivors.append(-1)
                continue
            survivors.append(
                next_keys.setdefault(successor.tobytes(), len(next_keys))
            )

        identity = survivors == list(range(len(slot_rows)))
        if identity and const_rep_bytes is None and not slot_reps:
            effect = None
        else:
            effect = (
                None if identity else tuple(survivors),
                const_rep_bytes,
                tuple(slot_reps),
            )
        return self._table.fill(
            sid, symbol, (next_const.tobytes(),) + tuple(next_keys), effect
        )

    # -- mapping scan ------------------------------------------------------

    def scan_mapping(self, symbols: np.ndarray) -> Optional[dict]:
        """The chunk's entry-state -> (exit, events) mapping, or ``None``
        when the entry frontier exceeds ``slot_limit`` (the caller
        rescans the chunk serially at join time).

        The mapping is returned in join-ready form: ``group_of_bit``
        resolves any entry row to its slot groups; ``exit_of_group``
        and the event lists carry the per-group contributions the join
        unions with the const part.  All offsets are chunk-local.
        """
        if len(symbols) == 0:
            raise ValueError("split mapping chunks must be non-empty")
        columns = symbols.tobytes()
        entry_key, group_of_bit, const0 = self._entry(columns[0])
        n_groups = len(entry_key) - 1
        if n_groups > self._slot_limit:
            return None
        table = self._table
        # Per-chunk bookkeeping: which original groups ride each slot.
        slot_groups: List[List[int]] = [[group] for group in range(n_groups)]
        const_events: List[Tuple[int, bytes]] = []
        if const0 is not None:
            const_events.append((0, const0))
        linear_events: List[Tuple[int, bytes, Tuple[int, ...]]] = []

        trail: List[int] = []
        sid = table.walk(
            table.intern(entry_key), columns, self._miss, trail, 1
        )
        effects = table.records.values
        for i, effect_id in table.recorded(trail):
            survivors, const_rep, slot_reps = effects[effect_id]
            if const_rep is not None:
                const_events.append((i, const_rep))
            for slot_index, rep in slot_reps:
                groups = slot_groups[slot_index]
                if groups:
                    linear_events.append((i, rep, tuple(groups)))
            if survivors is not None:
                merged: Dict[int, List[int]] = {}
                for slot_index, dest in enumerate(survivors):
                    if dest < 0:
                        continue
                    merged.setdefault(dest, []).extend(
                        slot_groups[slot_index]
                    )
                slot_groups = [
                    merged.get(dest, []) for dest in range(len(merged))
                ]

        const_exit, *exit_slots = table.keys[sid]
        exit_of_group: List[Optional[bytes]] = [None] * n_groups
        for slot_index, groups in enumerate(slot_groups):
            for group in groups:
                exit_of_group[group] = exit_slots[slot_index]
        return {
            "group_of_bit": np.asarray(group_of_bit),
            "n_groups": n_groups,
            "const_exit": const_exit,
            "exit_of_group": exit_of_group,
            "const_events": const_events,
            "linear_events": linear_events,
            "slots_final": sum(1 for groups in slot_groups if groups),
        }

    # -- publication -------------------------------------------------------

    def export_tables(self) -> Dict[str, np.ndarray]:
        """Canonical SFA tables, as a worker's job carries them.

        State keys travel as a pool of distinct rows (``sfa_rows``) plus,
        per state, its row ids — const first, then the slots
        (``sfa_key_rids`` sliced by ``sfa_key_indptr``).  Only *silent*
        transitions ship, as the table's record (``sfa_sources``,
        ``sfa_columns``, ``sfa_targets``; :meth:`LazyTable.publish`);
        effectful ones recompute on first use in the consumer, exactly
        the discipline :meth:`LazyDfaKernel.export_tables` applies to
        reporting transitions.
        """
        keys, sources, columns, targets = self._table.publish()
        pool = Interner()
        rids: List[int] = []
        indptr = [0]
        for key in keys:
            rids.extend(map(pool.id, key))
            indptr.append(len(rids))
        return {
            "sfa_rows": np.frombuffer(
                b"".join(pool.values), dtype=np.uint64
            ).reshape(len(pool.values), self._kernel.words),
            "sfa_key_indptr": np.array(indptr, dtype=np.int32),
            "sfa_key_rids": np.array(rids, dtype=np.int32),
            "sfa_sources": sources,
            "sfa_columns": columns,
            "sfa_targets": targets,
        }

    def seed(self, tables: Dict[str, np.ndarray]) -> None:
        """Merge :meth:`export_tables` output into this kernel, up to
        the state budget (:meth:`LazyTable.adopt`).

        Works on a warm kernel too (ids are remapped through the keys),
        which is how the parent folds each worker's newly-discovered
        states back into its master cache after a join — the next split
        call ships the union to every worker.
        """
        rows = [
            row.tobytes()
            for row in np.asarray(tables["sfa_rows"], dtype=np.uint64)
        ]
        indptr = np.asarray(tables["sfa_key_indptr"]).tolist()
        rids = np.asarray(tables["sfa_key_rids"]).tolist()
        keys = [
            tuple(rows[rid] for rid in rids[start:end])
            for start, end in zip(indptr, indptr[1:])
        ]
        self._table.adopt(
            keys,
            tables["sfa_sources"],
            tables["sfa_columns"],
            tables["sfa_targets"],
        )

    # -- introspection -----------------------------------------------------

    def cache_info(self) -> Dict[str, int]:
        """Mapping-automaton cache counters (lazy-DFA conventions);
        ``rows`` counts the distinct packed rows the live states hold."""
        info = self._table.counters()
        info.update(
            rows=len({row for key in self._table.keys for row in key}),
            effects=len(self._table.records.values),
            slot_limit=self._slot_limit,
        )
        return info


# -- worker ----------------------------------------------------------------


def _split_mapping_worker(job):
    """Build one chunk's mapping against the tables its job carries.

    Rebuilds the kernel, seeds the SFA from the parent's warm silent
    transitions, and maps its chunk.  Returns ``(mapping, newly-warmed
    SFA tables, cache counters)`` — the parent merges the tables back
    so the cache keeps warming across calls.
    """
    tables, data, slot_limit = job
    sfa = SfaKernel(BitsetKernel.from_packed(tables), slot_limit=slot_limit)
    sfa.seed(tables)
    mapping = sfa.scan_mapping(as_symbols(data))
    return mapping, sfa.export_tables(), sfa.cache_info()


# -- join ------------------------------------------------------------------


def _or_bytes(left: bytes, right: bytes) -> bytes:
    return (
        int.from_bytes(left, "little") | int.from_bytes(right, "little")
    ).to_bytes(len(left), "little")


def _apply_mapping(
    kernel: BitsetKernel,
    entry_row: np.ndarray,
    first_byte: int,
    mapping: dict,
) -> Tuple[List[Tuple[int, bytes]], np.ndarray]:
    """Resolve one chunk's mapping at its true entry row.

    Returns the chunk-local ``(offset, reporting row)`` events (offset
    order, rows already unioned across the const part and the entry's
    surviving slot groups) and the exit activation row.
    """
    group_of_bit = mapping["group_of_bit"]
    groups = set()
    for bit in kernel.bit_indices(entry_row):
        group = int(group_of_bit[bit])
        if group >= 0:
            groups.add(group)
    merged: Dict[int, bytes] = {}
    # Offset 0: the entry bits' own reporting contribution never enters
    # the worker's mapping (its linear slots start after the first
    # byte) — charge it directly from the entry row.
    entry_rep = kernel.match_matrix[first_byte] & entry_row & kernel.report_row
    if entry_rep.any():
        merged[0] = entry_rep.tobytes()
    for offset, rep in mapping["const_events"]:
        have = merged.get(offset)
        merged[offset] = rep if have is None else _or_bytes(have, rep)
    for offset, rep, event_groups in mapping["linear_events"]:
        if groups.isdisjoint(event_groups):
            continue
        have = merged.get(offset)
        merged[offset] = rep if have is None else _or_bytes(have, rep)
    exit_bytes = mapping["const_exit"]
    exit_of_group = mapping["exit_of_group"]
    for group in groups:
        contribution = exit_of_group[group]
        if contribution is not None:
            exit_bytes = _or_bytes(exit_bytes, contribution)
    exit_row = np.frombuffer(exit_bytes, dtype=np.uint64)
    return sorted(merged.items()), exit_row


def _chunk_bounds(length: int, chunks: int) -> List[Tuple[int, int]]:
    """Contiguous chunk (start, end) pairs covering ``length`` bytes."""
    base, extra = divmod(length, chunks)
    bounds = []
    start = 0
    for index in range(chunks):
        end = start + base + (1 if index < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def scan_stream_split(
    kernel: BitsetKernel,
    dfa,
    sfa: SfaKernel,
    data: bytes,
    jobs: int,
    *,
    resume: Optional[Checkpoint] = None,
) -> Optional[Tuple[RawScanResult, dict]]:
    """Scan one stream across ``jobs`` parallel actors; exact join.

    The parent is actor 0: it hands chunks 1..N-1, each with the kernel
    + SFA tables, to worker processes, scans chunk 0 itself on the
    (warm) lazy DFA ``dfa`` while they run, then joins left-to-right.
    Returns ``(raw result, stats)`` in the serial scan's raw form, or
    ``None`` when the worker plane itself is unusable (the caller falls
    back to its serial path); worker exceptions propagate.  A chunk
    whose mapping was abandoned (frontier explosion) is rescanned
    serially on ``dfa`` during the join and counted in
    ``stats["degraded_chunks"]``.
    """
    symbols = as_symbols(data)
    length = len(symbols)
    bounds = _chunk_bounds(length, max(2, int(jobs)))
    prev, _, sod, base = kernel.enter(resume)

    tables = dict(kernel.packed_tables())
    tables.update(sfa.export_tables())
    # Actor 0: the parent scans the leader chunk on its own warm DFA
    # while the workers map the rest.
    scan_leader = partial(
        dfa.scan,
        symbols[bounds[0][0] : bounds[0][1]],
        prev=prev,
        sod=sod,
        collect_events=True,
    )
    leader: list = []
    worker_returns = fan_out(
        _split_mapping_worker,
        [
            (tables, bytes(data[start:end]), sfa.slot_limit)
            for start, end in bounds[1:]
        ],
        len(bounds) - 1,
        what="split-stream scanning",
        meanwhile=lambda: leader.append(scan_leader()),
    )
    if worker_returns is None:
        return None
    leader_events, leader_total, prev, sod = leader[0]
    for _, export, _ in worker_returns:
        sfa.seed(export)

    # Offsets stay stream-local: the caller's materialisation applies
    # the resume base, exactly as it does for the serial raw results.
    raw_events: List[Tuple[int, int, bytes]] = [
        (offset,) + dfa.event(event_id) for offset, event_id in leader_events
    ]
    total = leader_total

    degraded = 0
    for (mapping, _, _), (start, end) in zip(worker_returns, bounds[1:]):
        if mapping is None:
            # Frontier explosion: rescan this one chunk serially from
            # its (now known) true entry row.
            degraded += 1
            events, chunk_total, prev, sod = dfa.scan(
                symbols[start:end], prev=prev, sod=sod, collect_events=True
            )
            raw_events.extend(
                (start + offset,) + dfa.event(event_id)
                for offset, event_id in events
            )
            total += chunk_total
            continue
        chunk_events, prev = _apply_mapping(
            kernel, prev, int(symbols[start]), mapping
        )
        for offset, rep_bytes in chunk_events:
            count = int.from_bytes(rep_bytes, "little").bit_count()
            raw_events.append((start + offset, count, rep_bytes))
            total += count

    raw: RawScanResult = (
        raw_events, total, kernel.leave(prev, sod, base + length), length
    )
    stats = {
        "chunks": len(bounds),
        "degraded_chunks": degraded,
        "worker_cache_infos": [info for _, _, info in worker_returns],
    }
    return raw, stats
