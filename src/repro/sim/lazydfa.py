"""Lazy-DFA execution layer over the packed-bitset kernel.

The packed kernel (:mod:`repro.sim.kernel`) pays a handful of numpy
operations per non-idle cycle; the eager CPU-DFA baseline avoids that
per-cycle work but its subset construction blows up on real rule sets
(PowerEN aborts past 4000 states).  This module takes the middle road
the fast CPU regex engines take (RE2, Hyperscan): determinise *lazily*,
caching only the DFA states an input actually visits.

A DFA state is one distinct pending successor-activation row of the
underlying :class:`~repro.sim.kernel.BitsetKernel` — the packed vector
``run_chunk`` threads between cycles.  The states and their transitions
live in a :class:`~repro.sim.lazytable.LazyTable` keyed by the row held
as one Python int (hash-consing, the chained rows and the walk over
them, the bounded budget with flush on overflow, the flush-immune record
table and the record of learned transitions it publishes are all its;
see that module), so a warm transition costs one Python list index and
zero numpy work.
What is this module's own is the step function — one kernel cycle, or
k of them — what a reporting transition records, and how a walk's
records turn into report events.

**A miss is integer arithmetic.**  The step function works on rows held
as ints, the paper's wired-OR written in Python: ``matched = match[byte]
& (prev | start)``, the successor row is the OR of the successor ints of
``matched``'s set bits (:meth:`~repro.sim.kernel.BitsetKernel.
propagate_int`, memoised), and the reports fired are ``(matched &
report).bit_count()``.  A byte's match int and a bit's successor int are
read off the kernel's packed tables the first time a step needs them,
so a warm start pays nothing for them up front.  Numpy is left at the
boundaries: entering and leaving the kernel (checkpoint rows),
publication (:meth:`LazyDfaKernel.export_tables` /
:meth:`LazyDfaKernel.seed`, whose ``dfa_rows`` stay packed ``uint64``
rows beside the table's record of learned cells) and the reporting-row
bytes an event carries.

**k-stride execution** (CAMA's alphabet transformation): with a
:class:`~repro.automata.stride.StrideAlphabet` the DFA consumes k input
bytes per cached transition.  Transition rows are indexed by the
*compressed* stride-class id — the k-fold product of byte equivalence
classes, typically a few hundred columns, never a dense ``256**k``
row.  A missing strided transition is materialised by stepping the
unstrided kernel over the class's representative bytes (every window
in a class drives the kernel identically), recording the successor row
plus a *report combo* — the ``(intra-window offset, event id)`` pairs
fired along the way — so strided report events expand to exactly the
offsets and reporting-row identities the unstrided run produces.
Input whose length is not a multiple of k ends with uncached
single-byte tail cycles, and the start-of-data cycle always runs
unstrided, so checkpoints taken at *any* byte offset interoperate
bit-identically with every other execution path.

Reporting transitions record the packed *reporting-row* bytes as a
flush-immune *event*, so callers can materialise golden-convention
:class:`Report` objects (full STE identity) lazily and bit-identically.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.automata.stride import StrideAlphabet, resolve_stride
from repro.parallel import attach_tables, detach_tables
from repro.sim.kernel import BitsetKernel, Checkpoint, as_symbols
from repro.sim.lazytable import Interner, LazyTable

#: Budget for cached DFA states (transition rows + row keys).
DFA_CACHE_BYTES = 16 * 1024 * 1024

#: Per-state cache cost estimate at width 256: the Python transition
#: list (~8 bytes/slot + header) and the interned row key, plus 8
#: bytes/slot of slack that keeps the default state budget where every
#: recorded run had it.  Strided kernels scale the row terms by their
#: width.
_STATE_COST_BYTES = 256 * (8 + 8) + 512

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
        #: State keys are activation rows held as ints; columns are
        #: bytes, or stride classes when striding.  A reporting
        #: transition's record is the event itself unstrided, ``(report
        #: total, combo)`` strided.
        self._table = LazyTable(
            alphabet.n_stride_classes if alphabet is not None else 256,
            max(64, int(max_states)),
            int,
            partial(int.to_bytes, length=kernel.row_bytes, byteorder="little"),
        )
        # The step function's rows as ints: a byte's match row the first
        # time a step reads it (the kernel's list, which its shift step
        # indexes too), the rest now.
        self._match = kernel._match_ints
        self._start_all = kernel.unpack(kernel.start_all_row)
        self._start_sod = self._start_all | kernel.unpack(kernel.start_sod_row)
        self._report = kernel.unpack(kernel.report_row)
        self._tail_steps = 0
        # Report events — ``(count, reporting-row bytes)`` — are
        # flush-immune: event ids stay valid for the lifetime of the
        # kernel, so callers can resolve identity lazily.  Unstrided,
        # every transition record is an event, so the table's record
        # ids *are* the event ids; a strided table's records are combos
        # that refer to events by id.
        events = self._table.records if alphabet is None else Interner()
        self._events: List[Tuple[int, bytes]] = events.values
        self._event_id = events.id
        #: Where :meth:`closed` hands the table (see :meth:`persist`), and
        #: the table's ``(misses, transitions)`` at its last store or
        #: adoption.
        self._store: Optional[Callable[[Dict[str, np.ndarray]], object]] = None
        self._stored = (0, 0)

    @property
    def _max_states(self) -> int:
        return self._table.max_states

    @_max_states.setter
    def _max_states(self, value: int) -> None:
        # Assigned directly (past the constructor's floor of 64) by the
        # flush tests; the budget itself lives in the table.
        self._table.max_states = value

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

    def _step(self, prev: int, byte: int, enable: int) -> Tuple[int, int]:
        """One uncached kernel cycle on rows held as ints: ``(next row,
        reporting row)``.  ``enable`` is ``_start_all``, or
        ``_start_sod`` on the start-of-data cycle."""
        match = self._match[byte]
        if match is None:
            match = self._kernel.match_int(byte)
        matched = match & (prev | enable)
        return self._kernel.propagate_int(matched), matched & self._report

    def _event(self, rep: int) -> Tuple[int, bytes]:
        """The ``(count, reporting-row bytes)`` event of a non-zero
        reporting row."""
        return rep.bit_count(), rep.to_bytes(self._kernel.row_bytes, "little")

    def _miss(self, sid: int, column: int) -> Tuple[int, object]:
        """Fill the ``(sid, column)`` transition; returns ``(sid, cell)``
        as :meth:`LazyTable.fill` does (``sid`` may have been remapped
        by a flush).

        ``column`` is a byte, or a stride class materialised by running
        its representative window through k unstrided kernel cycles —
        any window in the class yields the same successor row and report
        events, because bytes in one equivalence class have identical
        match-matrix rows.
        """
        row = self._table.states[sid]
        if self._alphabet is None:
            row, rep = self._step(row, column, self._start_all)
            record = self._event(rep) if rep else None
        else:
            combo: List[Tuple[int, int]] = []
            total = 0
            for delta, byte in enumerate(
                self._alphabet.representative_bytes(column)
            ):
                row, rep = self._step(row, byte, self._start_all)
                if rep:
                    event = self._event(rep)
                    total += event[0]
                    combo.append((delta, self._event_id(event)))
            record = (total, tuple(combo)) if combo else None
        return self._table.fill(sid, column, row, record)

    def _uncached(
        self,
        prev: int,
        byte: int,
        enable: int,
        at: int,
        events: Optional[List[Tuple[int, int]]],
    ) -> Tuple[int, int]:
        """A :meth:`_step` outside the table — the start-of-data cycle,
        an odd tail's — whose report event, if any, is appended to
        ``events`` at offset ``at``; returns ``(next row, reports
        fired)``."""
        prev, rep = self._step(prev, byte, enable)
        if not rep:
            return prev, 0
        event = self._event(rep)
        if events is not None:
            events.append((at, self._event_id(event)))
        return prev, event[0]

    # -- scanning ----------------------------------------------------------

    def _value(self, state: Union[int, np.ndarray]) -> int:
        """The activation row of an :meth:`advance` state, as an int."""
        if state.__class__ is int:
            return self._table.states[state]
        return self._kernel.unpack(state)

    def _array(self, value: int) -> np.ndarray:
        """An activation row held as an int, as a read-only array."""
        raw = value.to_bytes(self._kernel.row_bytes, "little")
        return np.frombuffer(raw, np.uint64)

    def row(self, state: Union[int, np.ndarray]) -> np.ndarray:
        """The activation row of an :meth:`advance` state."""
        if state.__class__ is int:
            return self._array(self._table.states[state])
        return state

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
        events: List[Tuple[int, int]] = []
        state, sod, report_total = self.advance(
            prev, sod, symbols.tobytes(), 0, events if collect_events else None
        )
        return events, report_total, self.row(state), sod

    def advance(
        self,
        state: Union[int, np.ndarray],
        sod: bool,
        columns: bytes,
        offset: int,
        events: Optional[List[Tuple[int, int]]],
    ) -> Tuple[Union[int, np.ndarray], bool, int]:
        """Step the DFA over the bytes ``columns``, whose first byte is
        the ``offset``-th of the scan; returns ``(state, sod,
        report_total)``.

        A state is a table state id (an ``int``) or an activation row
        not interned yet (an array: what a scan enters with; :meth:`row`
        reads either).  An unstrided scan leaves an id behind, so the
        next call on it walks on without re-interning.  Report events
        are appended to ``events`` as ``(offset, event_id)`` unless it
        is ``None``.
        """
        if self._alphabet is not None:
            return self._advance_strided(state, sod, columns, offset, events)
        report_total = 0
        if not columns:
            return state, sod, report_total
        table = self._table
        start = 0
        if sod:
            # Start-of-data states are enabled for exactly one cycle, so
            # that cycle runs outside the cache and the DFA proper only
            # ever sees transitions keyed by the activation row alone.
            row, report_total = self._uncached(
                self._value(state), columns[0], self._start_sod, offset, events
            )
            state = table.intern(row)
            sod = False
            start = 1
        elif state.__class__ is not int:
            state = table.intern(self._kernel.unpack(state))
        trail: List[int] = []
        state = table.walk(state, columns, self._miss, trail, start)
        if trail:
            records = table.records.values
            for event_id, times in table.tally(trail).items():
                report_total += records[event_id][0] * times
            if events is not None:
                events += table.recorded(trail, offset)
        return state, sod, report_total

    def _advance_strided(
        self,
        state: Union[int, np.ndarray],
        sod: bool,
        columns: bytes,
        offset: int,
        events: Optional[List[Tuple[int, int]]],
    ) -> Tuple[Union[int, np.ndarray], bool, int]:
        """k-stride :meth:`advance`: cached k-byte groups plus an
        unstrided tail, leaving an activation row behind.

        Report combos expand to absolute ``(offset, event id)`` pairs,
        so callers see exactly the event stream the unstrided scan
        emits — same offsets, same flush-immune event ids.
        """
        length = len(columns)
        if length == 0:
            return state, sod, 0
        prev = self._value(state)
        report_total = 0
        pos = 0
        if sod:
            prev, report_total = self._uncached(
                prev, columns[0], self._start_sod, offset, events
            )
            sod = False
            pos = 1
        k = self._stride
        groups = (length - pos) // k
        tail_start = pos + groups * k
        if groups:
            classes = self._alphabet.stride_classes(
                np.frombuffer(columns, dtype=np.uint8)[pos:tail_start]
            ).tolist()
            table = self._table
            trail: List[int] = []
            sid = table.walk(table.intern(prev), classes, self._miss, trail)
            records = table.records.values
            for j, combo_id in table.recorded(trail):
                total, combo = records[combo_id]
                report_total += total
                if events is not None:
                    group_base = offset + pos + j * k
                    for delta, event_id in combo:
                        events.append((group_base + delta, event_id))
            prev = table.states[sid]
        # Odd-length tail: fall back to uncached unstrided cycles so the
        # final activation row (the resume cursor) is bit-identical to
        # the unstrided run's.
        for i in range(tail_start, length):
            self._tail_steps += 1
            prev, count = self._uncached(
                prev, columns[i], self._start_all, offset + i, events
            )
            report_total += count
        return self._array(prev), sod, report_total

    # -- sharding support --------------------------------------------------

    def export_tables(self) -> Dict[str, np.ndarray]:
        """Canonical DFA tables for publication to worker processes.

        ``dfa_rows`` are the interned packed activation rows (state id
        order; each packed once, :meth:`LazyTable.packed_keys`);
        ``dfa_sources``, ``dfa_columns`` and ``dfa_targets`` the
        table's record of silent transitions (:meth:`LazyTable.publish`),
        where a column is a byte unstrided or a compressed stride class.
        A strided kernel additionally ships its alphabet (``stride_k``,
        ``stride_class_of``, ``stride_reps``) so workers rebuild the
        identical class map.  Reporting transitions are deliberately
        *not* exported — a seeded worker recomputes one on first use
        (see :meth:`seed`).  The consumers are worker processes (a
        service tenant's spec, a shard fan-out) and the ``<key>.table``
        cache entry (:meth:`persist`), which keeps all but the alphabet.
        """
        keys, sources, columns, targets = self._table.publish()
        tables = {
            "dfa_rows": np.frombuffer(self._table.packed_keys(), np.uint64).reshape(
                len(keys), self._kernel.words
            ),
            "dfa_sources": sources,
            "dfa_columns": columns,
            "dfa_targets": targets,
        }
        if self._alphabet is not None:
            tables.update(self._alphabet.tables())
        return tables

    def seed(self, tables: Dict[str, np.ndarray]) -> None:
        """Warm-start from — or, on a warm kernel, merge in —
        :meth:`export_tables` output, up to the state budget
        (:meth:`LazyTable.adopt`): a worker's copy of its parent's table,
        or the ``<key>.table`` cache entry an earlier engine on this
        kernel stored (:meth:`persist`).

        Non-reporting transitions seed directly into the hot-loop lists;
        reporting ones stay missing (their reporting-row bytes were not
        shipped) and recompute through the miss path on first use — a
        one-time propagate per distinct reporting transition.  Tables
        this kernel could not have exported raise ``ValueError``:
        ``dfa_rows`` that are not ``(states, words)`` ``uint64``, or a
        record that :meth:`LazyTable.adopt` refuses (a column past this
        kernel's width, an id that names no row).
        """
        rows = np.asarray(tables["dfa_rows"])
        if (
            rows.dtype != np.uint64
            or rows.ndim != 2
            or rows.shape[1] != self._kernel.words
        ):
            # A row of another width would be a state of its own here.
            raise ValueError(
                f"seed: dfa_rows are {rows.dtype} {rows.shape}, not the "
                f"uint64 (states, {self._kernel.words}) this kernel's "
                f"states need"
            )
        raw, row_bytes = rows.tobytes(), self._kernel.row_bytes
        packed = [raw[at : at + row_bytes] for at in range(0, len(raw), row_bytes)]
        self._table.adopt(
            [int.from_bytes(row, "little") for row in packed],
            tables["dfa_sources"],
            tables["dfa_columns"],
            tables["dfa_targets"],
            packed,
        )

    # -- persistence -------------------------------------------------------

    def digest(self) -> str:
        """CRC-32 (8 hex digits) of the tables this kernel steps on: the
        packed kernel tables and, strided, the alphabet's — each table's
        name, dtype, shape and bytes in name order.  A learned table is
        good only on the kernel whose digest it carries."""
        tables = dict(self._kernel.packed_tables())
        if self._alphabet is not None:
            tables.update(self._alphabet.tables())
        crc = 0
        for name in sorted(tables):
            array = np.ascontiguousarray(tables[name])
            crc = zlib.crc32(f"{name}:{array.dtype.str}:{array.shape};".encode(), crc)
            crc = zlib.crc32(array, crc)
        return f"{crc:08x}"

    def persist(
        self, store: Optional[Callable[[Dict[str, np.ndarray]], object]]
    ) -> None:
        """From now on hand :meth:`export_tables` to ``store`` whenever a
        scan ends having learned enough (:meth:`closed`); ``None`` stops
        it.  What the table holds now counts as stored."""
        self._store = store
        self._stored = (self._table.misses, self._table.transitions)

    def closed(self) -> None:
        """A scan on this kernel ended (:meth:`DfaCursor.close`): store
        the table when the misses since its last store or adoption at
        least equal the transitions it held then.  Each store at least
        doubles the misses behind it, so a kernel stores O(log misses)
        times, and a store costs a fraction of the misses that paid for
        it."""
        if self._store is None:
            return
        misses, held = self._stored
        learned = self._table.misses - misses
        if learned and learned >= held:
            self._stored = (self._table.misses, self._table.transitions)
            self._store(self.export_tables())

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
        info = self._table.counters()
        info.update(
            events=len(self._events),
            stride=self._stride,
            stride_requested=self._stride_requested,
            stride_classes=self._table.width,
            tail_steps=self._tail_steps,
        )
        return info


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


def kernel_dfa_from_tables(tables, max_states: Optional[int]):
    """The kernel + warm lazy DFA a parent's
    :meth:`~repro.backends.lazydfa.LazyDfaBackend.share_tables` describe,
    under the parent's DFA state budget: ``(kernel, dfa)``.  The kernel
    aliases the arrays it is given."""
    alphabet = None
    if "stride_k" in tables:
        # from_tables copies: the alphabet never aliases ``tables``.
        alphabet = StrideAlphabet.from_tables(tables)
    kernel = BitsetKernel.from_packed(tables)
    dfa = LazyDfaKernel(kernel, max_states=max_states, alphabet=alphabet)
    dfa.seed(tables)
    return kernel, dfa


def attach_kernel_dfa(meta, max_states: Optional[int]):
    """:func:`kernel_dfa_from_tables` on a published
    :class:`~repro.parallel.SharedTables` block, zero-copy: returns
    ``(kernel, dfa, handle)``, and the caller drops the pair, then
    closes ``handle``."""
    handle, tables = attach_tables(meta)
    try:
        kernel, dfa = kernel_dfa_from_tables(tables, max_states)
    except BaseException:
        del tables
        detach_tables(handle)
        raise
    return kernel, dfa, handle


class DfaCursor:
    """One stream scanned on a kernel/DFA pair a piece at a time: the
    stream is entered once, each :meth:`step` costs its walk and its
    trail, and :meth:`close` leaves once.

    Between pieces the stream's place is ``(state, sod, offset)`` — the
    DFA state the last walk ended in, whether the start-of-data cycle is
    still pending, and the bytes stepped so far — not a
    :class:`Checkpoint`, so a piece boundary costs no unpack, re-intern
    or pack.  Nothing else may scan on the DFA while a cursor is open
    (a state id is only good until the table flushes, and only this
    cursor's own walks may flush it).
    """

    __slots__ = (
        "kernel", "dfa", "state", "sod", "base", "offset", "total", "events",
    )

    def __init__(
        self,
        kernel: BitsetKernel,
        dfa: LazyDfaKernel,
        resume: Optional[Checkpoint],
        collect_events: bool = True,
    ):
        self.kernel = kernel
        self.dfa = dfa
        self.state, _, self.sod, self.base = kernel.enter(resume)
        self.offset = self.total = 0
        self.events: Optional[List[Tuple[int, int]]] = (
            [] if collect_events else None
        )

    def step(self, piece: bytes) -> None:
        """Scan the stream's next ``piece`` of bytes."""
        if piece.__class__ is not bytes:
            piece = as_symbols(piece).tobytes()
        self.state, self.sod, total = self.dfa.advance(
            self.state, self.sod, piece, self.offset, self.events
        )
        self.total += total
        self.offset += len(piece)

    def close(self) -> RawScanResult:
        """What the pieces stepped so far scanned, as one raw result."""
        dfa = self.dfa
        raw_events = [
            (offset,) + dfa.event(event_id)
            for offset, event_id in self.events or ()
        ]
        checkpoint = self.kernel.leave(
            dfa.row(self.state), self.sod, self.base + self.offset
        )
        dfa.closed()
        return raw_events, self.total, checkpoint, self.offset


def scan_one(
    kernel: BitsetKernel,
    dfa: LazyDfaKernel,
    data: bytes,
    resume: Optional[Checkpoint],
    collect_events: bool,
) -> RawScanResult:
    """Scan one stream on a kernel/DFA pair — the backend's serial scan
    and every shard worker's: a :class:`DfaCursor` opened, stepped once
    and closed, where a service span steps one a chunk, so they cannot
    differ."""
    cursor = DfaCursor(kernel, dfa, resume, collect_events)
    cursor.step(data)
    return cursor.close()
