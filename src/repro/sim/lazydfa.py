"""Lazy-DFA execution layer over the packed-bitset kernel.

The packed kernel (:mod:`repro.sim.kernel`) pays a handful of numpy
operations per non-idle cycle; the eager CPU-DFA baseline avoids that
per-cycle work but its subset construction blows up on real rule sets
(PowerEN aborts past 4000 states).  This module takes the middle road
the fast CPU regex engines take (RE2, Hyperscan): determinise *lazily*,
caching only the DFA states an input actually visits.

A DFA state is one distinct pending successor-activation row of the
underlying :class:`~repro.sim.kernel.BitsetKernel` — the packed vector
``run_chunk`` threads between cycles.  Rows are hash-consed into dense
integer ids; each state owns a transition row filled on demand.  A
transition records the successor state id plus the cycle's report
outcome, so a warm transition costs two Python list indexes and zero
numpy work.  Canonical ``(state, symbol) -> (next_id, report count)``
tables are kept in parallel ``int32`` arrays — the form the
process-sharded scanner (:mod:`repro.sim.shard`) publishes through
shared memory so worker processes start with a warm cache.

**k-stride execution** (CAMA's alphabet transformation): with a
:class:`~repro.automata.stride.StrideAlphabet` the DFA consumes k input
bytes per cached transition.  Transition rows are indexed by the
*compressed* stride-class id — the k-fold product of byte equivalence
classes, typically a few hundred columns, never a dense ``256**k``
row.  A missing strided transition is materialised by stepping the
unstrided kernel over the class's representative bytes (every window
in a class drives the kernel identically), recording the successor row
plus a flush-immune *report combo* — the ``(intra-window offset,
event id)`` pairs fired along the way — so strided report events expand
to exactly the offsets and reporting-row identities the unstrided run
produces.  Input whose length is not a multiple of k ends with uncached
single-byte tail cycles, and the start-of-data cycle always runs
unstrided, so checkpoints taken at *any* byte offset interoperate
bit-identically with every other execution path.

The state/transition budget is bounded: when interning would exceed it,
the whole cache is flushed and repopulated on demand (RE2's policy —
cheap, and an adversarial input degrades to the kernel's propagate
path instead of exhausting memory).  Reporting transitions additionally
record the packed *reporting-row* bytes in a flush-immune event table,
so callers can materialise golden-convention :class:`Report` objects
(full STE identity) lazily and bit-identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.automata.stride import StrideAlphabet, resolve_stride
from repro.errors import StrideError
from repro.sim.kernel import BitsetKernel, popcount_row

#: Budget for cached DFA states (transition rows + packed vectors).
DFA_CACHE_BYTES = 16 * 1024 * 1024

#: Per-state cache cost estimate at width 256: int32 next/reps rows +
#: the Python transition list (~8 bytes/slot + header) + the interned
#: packed row.  Strided kernels scale the row terms by their width.
_STATE_COST_BYTES = 256 * (4 + 4 + 8) + 512

#: ``cache_info``-style keys that accumulate across workers; everything
#: else (state counts, budgets, stride geometry) is a gauge and merges
#: by maximum.
_MERGE_SUM_KEYS = frozenset(
    ("hits", "misses", "flushes", "events", "tail_steps", "effects")
)


def merge_cache_infos(infos) -> Dict[str, int]:
    """Aggregate ``cache_info()`` dicts across scan workers.

    Counters (hits/misses/flushes/events/tail steps/effects) sum;
    gauges (state counts, budgets, stride geometry) take the maximum;
    ``workers`` counts the dicts merged.  The operation is associative
    — merging previously-merged aggregates (each contributing its own
    ``workers`` count) gives the same totals as merging the originals —
    so a backend can fold each scan's worker counters into one running
    aggregate instead of retaining every per-worker dict.
    """
    merged: Dict[str, int] = {}
    workers = 0
    for info in infos:
        workers += int(info.get("workers", 1))
        for key, value in info.items():
            if key == "workers":
                continue
            if key in _MERGE_SUM_KEYS:
                merged[key] = merged.get(key, 0) + int(value)
            else:
                merged[key] = max(merged.get(key, 0), int(value))
    merged["workers"] = workers
    return merged


class LazyDfaKernel:
    """On-demand determinisation of one :class:`BitsetKernel`.

    ``stride``/``alphabet`` select k-stride execution: pass ``stride=2``
    to derive the compressed alphabet from the kernel's match matrix, or
    an explicit :class:`StrideAlphabet` (e.g. rebuilt from cached or
    shared tables).  The *effective* stride may be smaller than
    requested when the class budget forces a degrade — see
    :meth:`cache_info`.

    ``max_states`` bounds the cached DFA (default derived from
    :data:`DFA_CACHE_BYTES`); crossing it flushes the whole cache, RE2-style.
    The instance is single-threaded mutable state — share the underlying
    kernel across threads/processes, not this object.
    """

    def __init__(
        self,
        kernel: BitsetKernel,
        *,
        max_states: Optional[int] = None,
        stride: Union[int, str, None] = 1,
        alphabet: Optional[StrideAlphabet] = None,
    ):
        self._kernel = kernel
        if alphabet is None:
            stride = resolve_stride(stride)
            if stride > 1:
                alphabet = StrideAlphabet.from_kernel(kernel, stride)
            self._stride_requested = stride
        else:
            self._stride_requested = alphabet.stride
        if alphabet is not None and alphabet.stride == 1:
            alphabet = None
        self._alphabet = alphabet
        self._stride = alphabet.stride if alphabet is not None else 1
        self._width = (
            alphabet.n_stride_classes if alphabet is not None else 256
        )
        if max_states is None:
            # The state *budget* is stride-invariant: a strided kernel
            # visits the same activation rows as the unstrided one, so
            # shrinking the state count by the wider table's per-state
            # cost would thrash exactly the workloads striding targets.
            # A strided table instead spends proportionally more bytes
            # (width/256 × the nominal budget, worst case) — that is
            # the classic multi-stride memory-for-throughput trade.
            max_states = DFA_CACHE_BYTES // (
                _STATE_COST_BYTES + kernel.row_bytes
            )
        self._max_states = max(64, int(max_states))
        self._lookups = 0
        self._misses = 0
        self._flushes = 0
        self._tail_steps = 0
        # Report events are flush-immune: event ids stay valid for the
        # lifetime of the kernel, so encoded transitions created after a
        # flush can reuse them and callers can resolve identity lazily.
        self._events: List[Tuple[int, bytes]] = []
        self._event_of: Dict[bytes, int] = {}
        # Report combos (strided path): the report events a k-byte
        # transition fires, as (intra-window offset, event id) pairs.
        # Flush-immune for the same reason events are.
        self._combos: List[Tuple[Tuple[int, int], ...]] = []
        self._combo_totals: List[int] = []
        self._combo_of: Dict[Tuple[Tuple[int, int], ...], int] = {}
        self._reset_states()

    def _reset_states(self):
        self._ids: Dict[bytes, int] = {}
        self._rows: List[np.ndarray] = []
        #: Hot-loop view: per-state width-entry lists of encoded
        #: transitions (-1 missing; ``next_id`` when silent; else
        #: ``(event_or_combo_id + 1) << 32 | next_id`` — an event id
        #: unstrided, a combo id strided).
        self._enc_rows: List[list] = []
        capacity = 256
        self._next = np.full((capacity, self._width), -1, dtype=np.int32)
        self._reps = np.zeros((capacity, self._width), dtype=np.int32)

    # -- state interning ---------------------------------------------------

    def intern(self, row: np.ndarray) -> int:
        """Dense DFA state id of packed activation row ``row``."""
        key = np.ascontiguousarray(row).tobytes()
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self._rows)
            self._ids[key] = sid
            frozen = np.frombuffer(key, dtype=np.uint64)
            self._rows.append(frozen)
            self._enc_rows.append([-1] * self._width)
            while sid >= self._next.shape[0]:
                self._next = self._grow(self._next, -1)
                self._reps = self._grow(self._reps, 0)
        return sid

    @staticmethod
    def _grow(table: np.ndarray, fill: int) -> np.ndarray:
        grown = np.full(
            (table.shape[0] * 2, table.shape[1]), fill, dtype=np.int32
        )
        grown[: table.shape[0]] = table
        return grown

    @property
    def stride(self) -> int:
        """Effective stride (after any class-budget degrade)."""
        return self._stride

    @property
    def alphabet(self) -> Optional[StrideAlphabet]:
        """The compressed stride alphabet, or ``None`` when unstrided."""
        return self._alphabet

    def event(self, event_id: int) -> Tuple[int, bytes]:
        """``(report_count, reporting_row_bytes)`` of one report event."""
        return self._events[event_id]

    # -- transition construction -------------------------------------------

    def _event_id(self, count: int, rep_bytes: bytes) -> int:
        event_id = self._event_of.get(rep_bytes)
        if event_id is None:
            event_id = len(self._events)
            self._event_of[rep_bytes] = event_id
            self._events.append((count, rep_bytes))
        return event_id

    def _combo_id(self, combo: Tuple[Tuple[int, int], ...], total: int) -> int:
        combo_id = self._combo_of.get(combo)
        if combo_id is None:
            combo_id = len(self._combos)
            self._combo_of[combo] = combo_id
            self._combos.append(combo)
            self._combo_totals.append(total)
        return combo_id

    def _plain_step(self, prev: np.ndarray, symbol: int):
        """One uncached cycle (no start-of-data states)."""
        kernel = self._kernel
        enabled = prev | kernel.start_all_row
        matched = kernel.match_matrix[symbol] & enabled
        nxt, _ = kernel.propagate(matched)
        rep_row = matched & kernel.report_row
        return nxt, popcount_row(rep_row), rep_row

    def _miss(self, sid: int, symbol: int) -> Tuple[int, int]:
        """Fill the ``(sid, symbol)`` transition; returns ``(sid, enc)``.

        May flush the whole cache (when the state budget is exhausted);
        the returned ``sid`` is the — possibly re-interned — id of the
        *current* state, so the scan loop's cursor survives the remap.
        """
        self._misses += 1
        prev = self._rows[sid]
        nxt, count, rep_row = self._plain_step(prev, symbol)
        if len(self._rows) >= self._max_states:
            self._flushes += 1
            self._reset_states()
            sid = self.intern(prev)
        nid = self.intern(nxt)
        if count == 0:
            enc = nid
        else:
            enc = ((self._event_id(count, rep_row.tobytes()) + 1) << 32) | nid
        self._enc_rows[sid][symbol] = enc
        self._next[sid, symbol] = nid
        self._reps[sid, symbol] = count
        return sid, enc

    def _miss_strided(self, sid: int, sclass: int) -> Tuple[int, int]:
        """Fill the ``(sid, stride class)`` transition.

        Materialised by running the class's representative window
        through k unstrided kernel cycles — any window in the class
        yields the same successor row and report events, because bytes
        in one equivalence class have identical match-matrix rows.
        """
        self._misses += 1
        prev = self._rows[sid]
        row = prev
        combo: List[Tuple[int, int]] = []
        total = 0
        for delta, byte in enumerate(
            self._alphabet.representative_bytes(sclass)
        ):
            row, count, rep_row = self._plain_step(row, byte)
            if count:
                total += count
                combo.append((delta, self._event_id(count, rep_row.tobytes())))
        if len(self._rows) >= self._max_states:
            self._flushes += 1
            self._reset_states()
            sid = self.intern(prev)
        nid = self.intern(row)
        if total == 0:
            enc = nid
        else:
            enc = ((self._combo_id(tuple(combo), total) + 1) << 32) | nid
        self._enc_rows[sid][sclass] = enc
        self._next[sid, sclass] = nid
        self._reps[sid, sclass] = total
        return sid, enc

    def _sod_step(self, prev: np.ndarray, symbol: int):
        """One uncached cycle with the start-of-data states enabled."""
        kernel = self._kernel
        enabled = prev | kernel.start_all_row | kernel.start_sod_row
        matched = kernel.match_matrix[symbol] & enabled
        nxt, _ = kernel.propagate(matched)
        rep_row = matched & kernel.report_row
        return nxt, popcount_row(rep_row), rep_row

    # -- scanning ----------------------------------------------------------

    def scan(
        self,
        symbols: np.ndarray,
        *,
        prev: np.ndarray,
        sod: bool,
        collect_events: bool = True,
    ) -> Tuple[List[Tuple[int, int]], int, np.ndarray, bool]:
        """Drive the DFA over ``symbols`` from activation row ``prev``.

        Returns ``(events, report_total, final_row, sod)`` where
        ``events`` is a list of ``(offset, event_id)`` report events in
        stream order (empty unless ``collect_events``), ``report_total``
        counts every reporting STE firing, and ``final_row`` is the
        pending activation row after the last symbol — exactly the
        cursor :meth:`BitsetKernel.run_chunk` would have produced, so
        checkpoints interoperate with every other execution path,
        strided or not.
        """
        if self._alphabet is not None:
            return self._scan_strided(
                symbols, prev=prev, sod=sod, collect_events=collect_events
            )
        events: List[Tuple[int, int]] = []
        report_total = 0
        length = len(symbols)
        if length == 0:
            return events, report_total, prev, sod
        sym_list = symbols.tolist()
        i = 0
        if sod:
            # Start-of-data states are enabled for exactly one cycle, so
            # that cycle runs outside the cache and the DFA proper only
            # ever sees transitions keyed by the activation row alone.
            prev, count, rep_row = self._sod_step(prev, sym_list[0])
            if count:
                report_total += count
                if collect_events:
                    events.append((0, self._event_id(count, rep_row.tobytes())))
            sod = False
            i = 1
        self._lookups += length - i
        sid = self.intern(prev)
        enc_rows = self._enc_rows
        row = enc_rows[sid]
        while i < length:
            value = row[sym_list[i]]
            if value < 0:
                sid, value = self._miss(sid, sym_list[i])
                enc_rows = self._enc_rows
            if value < 4294967296:
                sid = value
            else:
                sid = value & 4294967295
                event_id = (value >> 32) - 1
                report_total += self._events[event_id][0]
                if collect_events:
                    events.append((i, event_id))
            row = enc_rows[sid]
            i += 1
        return events, report_total, self._rows[sid], sod

    def _scan_strided(
        self,
        symbols: np.ndarray,
        *,
        prev: np.ndarray,
        sod: bool,
        collect_events: bool,
    ) -> Tuple[List[Tuple[int, int]], int, np.ndarray, bool]:
        """k-stride scan: cached k-byte groups plus an unstrided tail.

        Report combos expand to absolute ``(offset, event id)`` pairs,
        so callers see exactly the event stream the unstrided scan
        emits — same offsets, same flush-immune event ids.
        """
        events: List[Tuple[int, int]] = []
        report_total = 0
        length = len(symbols)
        if length == 0:
            return events, report_total, prev, sod
        pos = 0
        if sod:
            prev, count, rep_row = self._sod_step(prev, int(symbols[0]))
            if count:
                report_total += count
                if collect_events:
                    events.append((0, self._event_id(count, rep_row.tobytes())))
            sod = False
            pos = 1
        k = self._stride
        groups = (length - pos) // k
        tail_start = pos + groups * k
        if groups:
            classes = self._alphabet.stride_classes(
                symbols[pos:tail_start]
            ).tolist()
            self._lookups += groups
            sid = self.intern(prev)
            enc_rows = self._enc_rows
            row = enc_rows[sid]
            combos = self._combos
            combo_totals = self._combo_totals
            for j in range(groups):
                value = row[classes[j]]
                if value < 0:
                    sid, value = self._miss_strided(sid, classes[j])
                    enc_rows = self._enc_rows
                    combos = self._combos
                    combo_totals = self._combo_totals
                if value < 4294967296:
                    sid = value
                else:
                    sid = value & 4294967295
                    combo_id = (value >> 32) - 1
                    report_total += combo_totals[combo_id]
                    if collect_events:
                        group_base = pos + j * k
                        for delta, event_id in combos[combo_id]:
                            events.append((group_base + delta, event_id))
                row = enc_rows[sid]
            prev = self._rows[sid]
        # Odd-length tail: fall back to uncached unstrided cycles so the
        # final activation row (the resume cursor) is bit-identical to
        # the unstrided run's.
        for i in range(tail_start, length):
            self._tail_steps += 1
            prev, count, rep_row = self._plain_step(prev, int(symbols[i]))
            if count:
                report_total += count
                if collect_events:
                    events.append((i, self._event_id(count, rep_row.tobytes())))
        return events, report_total, prev, sod

    # -- sharding support --------------------------------------------------

    def export_tables(self) -> Dict[str, np.ndarray]:
        """Canonical DFA tables for publication to worker processes.

        ``dfa_rows`` are the interned packed activation rows (state id
        order); ``dfa_next``/``dfa_reps`` the ``(states, width)`` int32
        transition tables (-1 = not yet computed), where width is 256
        unstrided or the compressed stride-class count.  A strided
        kernel additionally ships its alphabet (``stride_k``,
        ``stride_class_of``, ``stride_reps``) so workers rebuild the
        identical class map.  Reporting-row bytes are deliberately *not*
        exported — a seeded worker recomputes a reporting transition on
        first use (see :meth:`seed`).
        """
        states = len(self._rows)
        words = self._kernel.words
        if states:
            rows = np.ascontiguousarray(np.stack(self._rows))
        else:
            rows = np.zeros((0, words), dtype=np.uint64)
        tables = {
            "dfa_rows": rows,
            "dfa_next": np.ascontiguousarray(self._next[:states]),
            "dfa_reps": np.ascontiguousarray(self._reps[:states]),
        }
        if self._alphabet is not None:
            tables.update(self._alphabet.tables())
        return tables

    def seed(
        self, rows: np.ndarray, nxt: np.ndarray, reps: np.ndarray
    ) -> None:
        """Warm-start from :meth:`export_tables` output.

        Non-reporting transitions seed directly into the hot-loop lists;
        reporting ones stay missing (their reporting-row bytes were not
        shipped) and recompute through the miss path on first use — a
        one-time propagate per distinct reporting transition.
        """
        nxt = np.asarray(nxt)
        if nxt.ndim == 2 and nxt.shape[0] and nxt.shape[1] != self._width:
            raise StrideError(
                f"seed tables have width {nxt.shape[1]} but this kernel's "
                f"stride-{self._stride} alphabet has width {self._width}"
            )
        states = len(rows)
        if not states:
            return
        silent = np.where(np.asarray(reps) == 0, nxt, -1)
        if not self._rows:
            # Bulk path for a fresh kernel (the shard-worker case):
            # intern without per-row placeholder lists and convert the
            # whole silent table in one C-level call — at stride >1 the
            # table is states x C**k and the per-row loop dominates
            # worker startup.
            # Copy: the caller's rows may view shared memory that is
            # unmapped right after seeding.
            contiguous = np.array(rows, dtype=np.uint64)
            contiguous.setflags(write=False)
            for index in range(states):
                self._ids[contiguous[index].tobytes()] = index
            self._rows = list(contiguous)
            self._enc_rows = silent.tolist()
            while states > self._next.shape[0]:
                self._next = self._grow(self._next, -1)
                self._reps = self._grow(self._reps, 0)
        else:
            silent_lists = silent.tolist()
            for sid_source in range(states):
                sid = self.intern(rows[sid_source])
                self._enc_rows[sid] = silent_lists[sid_source]
        self._next[:states] = nxt
        self._reps[:states] = reps

    # -- introspection -----------------------------------------------------

    def cache_info(self) -> Dict[str, int]:
        """Transition-cache effectiveness counters.

        ``hits`` is derived (lookups minus misses); ``flushes`` counts
        wholesale cache resets; ``events`` the distinct reporting
        transitions recorded since construction.  ``stride`` is the
        effective stride after any class-budget degrade
        (``stride_requested`` keeps the asked-for value);
        ``stride_classes`` is the transition-row width and
        ``tail_steps`` counts uncached odd-tail cycles.
        """
        return {
            "states": len(self._rows),
            "max_states": self._max_states,
            "hits": self._lookups - self._misses,
            "misses": self._misses,
            "flushes": self._flushes,
            "events": len(self._events),
            "stride": self._stride,
            "stride_requested": self._stride_requested,
            "stride_classes": self._width,
            "tail_steps": self._tail_steps,
        }
