"""Packed-bitset simulation kernel shared by the golden and mapped simulators.

The interpreters in :mod:`repro.sim.golden` and :mod:`repro.sim.functional`
originally stepped one symbol per Python-loop iteration over
arbitrary-precision ints.  This module replaces that representation with
``uint64`` word arrays so the per-symbol work becomes a handful of fixed-size
numpy operations, and layers four accelerations on top:

* **match matrix** — the 256-entry match table is one ``(256, words)``
  ``uint64`` matrix; a whole chunk of input gathers its per-symbol match
  candidates in a single fancy-index operation;
* **step cache** — a non-idle cycle is stepped on **per-component
  tables** (:class:`_ComponentTables`): each weakly connected component
  of the successor table is determinised lazily on its own words and
  byte classes, the tables are indexed by *byte column* (bytes no
  component tells apart) so that all of them advance with one ``take``
  of one table row a byte, and the per-cycle histories are rebuilt a
  block at a time from the component states.  What steps outside it
  (the start-of-data cycle, the idle tables, a checkpoint's stray bits,
  the lazy DFA's misses) propagates on rows held as Python ints
  (:meth:`~BitsetKernel.propagate_int`: one successor int per set bit,
  read off the kernel's edge list, or one numpy scatter of a wide row's
  edge heads), memoised by the row;
* **shift step** — a kernel whose edges fall in at most
  :data:`SHIFT_OFFSETS` distinct bit offsets (``target − source``) skips
  the step cache: a non-idle cycle, and every later one of its chunk, is
  Shift-And on Python ints, ``next = OR over d of shift(matched & M_d,
  d)`` with ``M_d`` the sources of the edges at offset ``d``, exact with
  no learning and no table memory;
* **idle fast path** — while no state is active and the start states are
  quiescent, the enabled vector is exactly the all-input start set, so the
  kernel skips ahead over whole input slices with one vectorised
  escape-table lookup instead of stepping per symbol.

Simulators drive the kernel chunk-at-a-time through :meth:`run_chunk`,
which fills per-cycle matched/enabled histories; all statistics (match
counts, partition activity, reports) are then computed *batchwise* over the
packed history arrays, keeping them bit-for-bit identical to the scalar
reference semantics.

This module is also the only one that knows how a stream gets *into and
out of* a kernel (DESIGN.md, "Entering and leaving the kernel"): build
(:meth:`BitsetKernel.from_automaton`), enter (:meth:`~BitsetKernel.enter`),
drive (:meth:`~BitsetKernel.drive`, the one ``CHUNK_SYMBOLS`` loop), leave
(:meth:`~BitsetKernel.leave`) and decode (:class:`ReportDecoder`).  The
decision behind them is the bit layout of a :class:`Checkpoint`, and
there is one: the artifact's placement layout (:func:`placement_ids`).
What comes out is one type as well, :class:`ScanResult`, from both
simulators and every backend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.automata.anml import START_KINDS, HomogeneousAutomaton, StartKind
from repro.automata.symbols import byte_signature_words
from repro.backends.validation import as_symbols
from repro.core.energy import ActivityProfile
from repro.errors import FaultError, SimulationError

#: Symbols processed per kernel chunk (gather + batched-stats granularity).
CHUNK_SYMBOLS = 4096

#: Budget for memoised propagation results, in bytes.
PROPAGATE_CACHE_BYTES = 32 * 1024 * 1024

#: Set bits above which :meth:`BitsetKernel.propagate_int` scatters the
#: heads of a row's edges in numpy instead of ORing one successor int a
#: bit.  Warm, per row of 32 / 64 / 96 / 128 set bits, the int OR against
#: the scatter: Fermi 7 / 21 / 29 / 40 vs 16 / 18 / 19 / 20 µs, Snort
#: 14 / 25 / 37 / 48 vs 21 / 23 / 24 / 27 µs (2-CPU x86-64 host); on a
#: synthetic million-state automaton the two cross between 64 and 256.
PROPAGATE_SCATTER_BITS = 64

#: Budget for the step cache in bytes: the component tables flush when
#: their states fill it.
STEP_CACHE_BYTES = 16 * 1024 * 1024

#: Distinct bit offsets (``target − source``) up to which a kernel steps
#: its non-idle cycles by shifts instead of on the step cache.  Warm, per
#: byte, shifts against the step cache: 1 offset (Fermi) 0.8 vs 4.8 µs,
#: 3 (``x.{14}y``) 0.62 vs 0.48 (but no cold misses), 20 (Hamming) 8–11
#: vs 3–5, ~80 (Levenshtein) 11–16 vs 2–2.5 (2-CPU x86-64 host, with a
#: whole-row level then in front of the component tables, and partitions
#: filled in sorted-id order); any value from 3 to 19 splits them alike.
#: Filled in automaton order, Hamming has 4 offsets and Levenshtein 46.
SHIFT_OFFSETS = 8

#: Cycles the component tables step between two rebuilds of the per-cycle
#: histories (and two looks at whether the machine has gone idle).
COMPONENT_BLOCK = 256

#: Distinct reporting rows a :class:`ReportDecoder` memoises before it
#: drops them all and starts over.
DECODE_MEMO_ROWS = 65536


def _popcount_rows_native(rows: np.ndarray) -> np.ndarray:
    return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)


def _popcount_rows_unpackbits(rows: np.ndarray) -> np.ndarray:
    # ``np.bitwise_count`` needs numpy >= 2.0; this path serves older
    # installs by widening each uint64 row to bits and summing.
    flat = np.unpackbits(
        np.ascontiguousarray(rows).view(np.uint8), axis=-1
    )
    return flat.sum(axis=-1, dtype=np.int64)


if hasattr(np, "bitwise_count"):
    _popcount_rows_impl = _popcount_rows_native
else:  # pragma: no cover - exercised via the fallback unit test
    _popcount_rows_impl = _popcount_rows_unpackbits


def popcount_rows(rows: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a ``(cycles, words)`` uint64 matrix."""
    return _popcount_rows_impl(rows)


@dataclass(frozen=True)
class Report:
    """One match event: ``ste_id`` fired on the symbol at ``offset``."""

    offset: int
    ste_id: str
    report_code: Optional[str] = None


@dataclass(frozen=True)
class Checkpoint:
    """Suspend/resume state (Section 2.9).

    The OS can suspend an NFA process "by recording the number of input
    symbols processed and the active state vector to memory" — which is
    exactly this object: the global symbol counter, the active-state
    vector (successor activations pending for the next symbol), and
    whether the start-of-data states are still armed.

    ``dialect`` is ``None`` for the one portable layout — the artifact's
    placement, see :func:`placement_ids` — which every backend built
    from the same artifact reads and writes, and the only one that
    crosses the wire.  A writer whose vector means something else (the
    golden *simulator*'s automaton order) names itself here, and only a
    reader asking for that dialect accepts the checkpoint
    (:meth:`require`).
    """

    symbols_processed: int
    active_state_vector: int
    start_of_data_pending: bool
    dialect: Optional[str] = None

    def require(self, dialect: Optional[str]) -> None:
        """Raise :class:`SimulationError` unless this checkpoint is in
        ``dialect``, the one the caller resumes from, and its vector and
        symbol count are ones a writer could have produced.  Every
        reader calls this first: a checkpoint can come from outside (the
        wire), a negative vector has no lowest set bit to stop
        :meth:`relaid`, and a negative count would put reports before
        the stream's start."""
        if self.dialect != dialect:
            raise SimulationError(
                f"cannot resume a {self.dialect or 'placement-layout'} "
                f"checkpoint where {dialect or 'placement-layout'} ones "
                "are read: its state vector means something else there"
            )
        if self.active_state_vector < 0:
            raise SimulationError(
                "checkpoint carries a negative state vector; was it taken "
                "on a different automaton?"
            )
        if self.symbols_processed < 0:
            raise SimulationError(
                "checkpoint carries a negative symbol count; no stream "
                "resumes before its start"
            )

    def relaid(
        self, target_of: Mapping[int, int], dialect: Optional[str] = None
    ) -> "Checkpoint":
        """This suspended stream with every active bit renumbered
        through ``target_of`` (source bit -> target bit) and stamped
        ``dialect``; the cost is the number of *active* states.  A bit
        ``target_of`` does not name means another automaton wrote the
        checkpoint, and raises."""
        vector, relaid = self.active_state_vector, 0
        while vector:
            low = vector & -vector
            target = target_of.get(low.bit_length() - 1)
            if target is None:
                raise SimulationError(
                    f"checkpoint activates state bit {low.bit_length() - 1}, which "
                    "holds no state here; was it taken on a different automaton?"
                )
            relaid |= 1 << target
            vector ^= low
        return Checkpoint(
            self.symbols_processed, relaid, self.start_of_data_pending, dialect
        )

    def wire_row(self) -> list:
        """``[symbols, hex(vector), sod]`` (JSON numbers cannot carry the
        vector exactly); a marked checkpoint does not travel."""
        if self.dialect is not None:
            raise SimulationError(
                f"a {self.dialect} checkpoint does not leave the process: "
                "only placement-layout ones are read on the other side"
            )
        pending = bool(self.start_of_data_pending)
        return [self.symbols_processed, hex(self.active_state_vector), pending]

    @classmethod
    def from_wire_row(cls, row) -> "Checkpoint":
        """Inverse of :meth:`wire_row`; ``TypeError``/``ValueError`` on a
        malformed row."""
        symbols, vector, sod = row
        if type(symbols) is not int or symbols < 0:  # bool is not a count
            raise ValueError("a symbol count is an integer >= 0")
        if type(sod) is not bool:
            raise ValueError("sod is true or false")
        vector = int(vector, 16)
        if vector < 0:
            raise ValueError("a state vector is not negative")
        return cls(symbols, vector, sod)


@dataclass
class RunStats:
    """Per-run activity statistics (feeds Table 1 and the energy model).

    ``matched_per_cycle`` is populated only when the run requested
    ``collect_cycle_stats=True`` — both
    :class:`repro.sim.golden.GoldenSimulator` and
    :class:`repro.sim.functional.MappedSimulator` honour the flag, so
    the two simulators' stats agree field-for-field.
    """

    symbols_processed: int = 0
    total_matched_states: int = 0
    matched_per_cycle: List[int] = field(default_factory=list)

    @property
    def average_active_states(self) -> float:
        """Mean number of matched (active) states per input symbol."""
        if self.symbols_processed == 0:
            return 0.0
        return self.total_matched_states / self.symbols_processed


@dataclass
class ScanResult:
    """What one scan leaves behind: the one result type of every
    simulator and every backend.

    ``reports`` follow golden-simulator conventions (0-based end
    offsets).  The counting convention lives here and nowhere else:
    ``profile.reports`` counts reporting-STE firings whether or not
    ``reports`` was materialised (``collect_reports=False`` leaves the
    list empty, not the count), and ``profile.symbols`` counts the
    symbols this scan consumed; the rest of the activity profile
    (partition activations, G-switch crossings) is filled by the mapped
    simulator alone — a backend says so through
    ``capabilities().activity_profile`` — and :meth:`counted` builds the
    two-count profile of everyone else.  ``checkpoint`` resumes the
    stream (Section 2.9) on backends supporting it.

    The remaining fields are substrate extras, empty unless their one
    producer fills them: ``stats`` (run statistics), ``output_buffer``
    (the mapped simulator's CBOX output-buffer model, Section 2.8),
    ``detected`` (the fault-injected backend's parity-detection cycles),
    and the mapped simulator's two opt-in diagnostics,
    ``partition_activation_counts`` (``collect_partition_stats=True``:
    cycles each partition's array was accessed) and ``output_records``
    (``collect_records=True``: one Section 2.8 entry per reporting
    partition and cycle).
    """

    reports: List[Report]
    profile: ActivityProfile
    checkpoint: Optional[Checkpoint] = None
    stats: Optional[RunStats] = None
    output_buffer: Optional[object] = None
    detected: Tuple[int, ...] = ()
    partition_activation_counts: Optional[np.ndarray] = None
    output_records: Sequence[object] = ()

    def report_offsets(self) -> List[int]:
        return sorted({report.offset for report in self.reports})

    @classmethod
    def counted(
        cls,
        reports: List[Report],
        *,
        symbols: int,
        report_count: Optional[int] = None,
        checkpoint: Optional[Checkpoint] = None,
        stats: Optional[RunStats] = None,
    ) -> "ScanResult":
        """Result with a symbols/reports-only activity profile;
        ``report_count`` defaults to ``len(reports)`` (pass it whenever
        ``reports`` may not have been materialised)."""
        profile = ActivityProfile()
        profile.add_activity(
            symbols=symbols,
            reports=len(reports) if report_count is None else report_count,
        )
        return cls(reports, profile, checkpoint, stats)


def placement_bits(mapping) -> Dict[str, int]:
    """STE id -> state-vector bit in the placement layout of ``mapping``
    (a :class:`~repro.compiler.mapping.Mapping`), the layout of every
    portable :class:`Checkpoint`: partition-major, slot-minor, each
    partition a full ``partition_size`` span so numpy can reduce spans."""
    bits = mapping.part * mapping.design.partition_size + mapping.slot
    return dict(zip(mapping.automaton.edge_index_arrays().ids, bits.tolist()))


def placement_ids(mapping) -> List[str]:
    """State-vector bit -> STE id, the inverse of :func:`placement_bits`
    (``""`` on the bits that pad a partition's span)."""
    ids = [""] * (mapping.partition_count * mapping.design.partition_size)
    for ste_id, bit in placement_bits(mapping).items():
        ids[bit] = ste_id
    return ids


def report_rank(automaton: HomogeneousAutomaton) -> Dict[str, int]:
    """STE id -> its place among the reports of one offset: position in
    ``automaton.ste_ids()``, the order the golden interpreter fires in."""
    return {ste_id: rank for rank, ste_id in enumerate(automaton.ste_ids())}


class ReportDecoder:
    """Reporting-row bytes -> the ``(ste_id, report_code)`` of every
    firing bit, memoised by the row's bytes (an automaton fires few
    distinct reporting rows).  Within one offset the order is
    :func:`report_rank`'s whatever the substrate's bit layout, so every
    backend emits the golden interpreter's sequence.  ``bit_ids()``
    builds the substrate's own bit -> STE id table; it and the rank are
    built on the first decode: a simulator rebuilt from cached tables
    never touches the automaton until a report fires.
    """

    def __init__(
        self,
        automaton: HomogeneousAutomaton,
        bit_ids: Callable[[], Sequence[str]],
    ):
        self._automaton = automaton
        self._bit_ids = bit_ids
        self._ids: Optional[Sequence[str]] = None
        self._rank: Dict[str, int] = {}
        self._memo: Dict[bytes, Tuple[Tuple[str, Optional[str]], ...]] = {}

    def emit(self, row_bytes: bytes, offset: int, reports: List[Report]) -> None:
        """Append one :class:`Report` per firing bit of the row."""
        found = self._memo.get(row_bytes)
        if found is None:
            found = self._decode(row_bytes)
        for ste_id, code in found:
            reports.append(Report(offset, ste_id, code))

    def _decode(self, row_bytes: bytes) -> Tuple[Tuple[str, Optional[str]], ...]:
        if self._ids is None:
            self._ids = self._bit_ids()
            self._rank = report_rank(self._automaton)
        bits = BitsetKernel.bit_indices(np.frombuffer(row_bytes, np.uint64))
        fired = sorted((self._ids[bit] for bit in bits), key=self._rank.__getitem__)
        found = tuple(zip(fired, map(self._automaton.report_code, fired)))
        if len(self._memo) >= DECODE_MEMO_ROWS:
            self._memo.clear()
        self._memo[row_bytes] = found
        return found


#: What one hash-consed component state costs beside its table cells,
#: its base and its row words: its int key, its id and their dictionary
#: slot.
_COMPONENT_STATE_BYTES = 200

#: Components from which stepping them all with one ``take`` a byte beats
#: a Python loop over each.  With every transition known the sweep costs
#: ~550 ns a byte whatever the count and the loop ~100 ns a component, so
#: they cross at six to seven; on a cold 2 KiB the loop is still ahead at
#: twelve (the sweep's misses are stepped twice).  Measured on 1–24
#: independent ``x[yz]+.{2}z``-shaped components, 2-CPU x86-64 host.
_VECTOR_WIDTH = 8

#: What a propagation-memo entry (its key's and its result's int headers
#: and a dictionary slot) costs beside its two rows.
_PROP_ENTRY_BYTES = 256


class _ComponentTables:
    """The step cache: one lazily determinised table per weakly
    connected component of a kernel's successor table.

    A component's state is its share of the pending-activation row — the
    words it occupies under its own mask, since components may share a
    word — read as one Python int, by which it is hash-consed and on
    which it is learned: its successor on one of its own byte classes
    (bytes its states cannot tell apart) is the OR of per-bit successor
    ints.  A *byte column* is a set of bytes that no component tells
    apart.  The states of all components share dense ids, and the
    ``(columns, capacity)`` ``int32`` table ``trans`` holds the successor
    of state ``s`` on the bytes of column ``g`` at ``trans[g, s]``, ``0``
    while unknown; ``rows[base[s]:]`` holds its row words.  Id ``0`` is a
    sink that every column maps to itself, so a stretch of cycles is
    stepped without looking — one ``trans[column_of[byte]].take(state)``
    per byte, all components at once — and a missing transition shows
    afterwards as a zero.  A transition learned on a class is written
    into every column where the component has that class, so what is
    missed is still one (state, class) pair.  At ``limit`` states (give
    or take one a component) everything is dropped and the current
    states re-interned, the policy of
    :class:`repro.sim.lazytable.LazyTable`; the table grows by half,
    never past the ids that limit allows.
    """

    def __init__(self, kernel: "BitsetKernel"):
        from repro.automata.components import component_labels

        self._kernel = kernel
        words = kernel.words
        tail, head = kernel.edges()
        label = component_labels(words * 64, tail, head)
        member = np.zeros(words * 64, dtype=bool)
        member[tail] = member[head] = True
        bits = np.flatnonzero(member)
        found, component = np.unique(label[bits], return_inverse=True)
        self.components = len(found)
        # One slot per (component, word it occupies), component-major.
        slots, slot = np.unique(component * words + (bits >> 6), return_inverse=True)
        self._slot_comp, self._slot_word = np.divmod(slots, words)
        self._slot_mask = np.zeros(len(slots), dtype=np.uint64)
        np.bitwise_or.at(
            self._slot_mask, slot, np.uint64(1) << (bits & 63).astype(np.uint64)
        )
        #: Bits some transition touches: what a factored row may hold.
        self.member_row = np.zeros(words, dtype=np.uint64)
        np.bitwise_or.at(self.member_row, self._slot_word, self._slot_mask)
        bounds = np.searchsorted(self._slot_comp, np.arange(self.components + 1))
        self._words = [
            self._slot_word[lo:hi] for lo, hi in zip(bounds, bounds[1:])
        ]
        self._masks = [
            self._slot_mask[lo:hi] for lo, hi in zip(bounds, bounds[1:])
        ]
        # A component's int: bit 64 k + b is bit b of its k-th word.  Its
        # successor int of each such bit, an edge at a time (an edge's
        # head is in its tail's component).
        local = np.zeros(words * 64, dtype=np.intp)
        local[bits] = (slot - bounds[component]) * 64 + (bits & 63)
        owner = np.zeros(words * 64, dtype=np.intp)
        owner[bits] = component
        self._successors = [[0] * (64 * len(own)) for own in self._words]
        for index, bit, target in zip(
            owner[tail].tolist(), local[tail].tolist(), local[head].tolist()
        ):
            self._successors[index][bit] |= 1 << target
        # Byte classes, per component: bytes that match the same states.
        self._classes = np.empty((256, self.components), dtype=np.intp)
        self._class_values: List[List[int]] = []
        self._start: List[int] = []
        for index, (own, masks) in enumerate(zip(self._words, self._masks)):
            seen = np.ascontiguousarray(kernel.match_matrix[:, own] & masks)
            _, byte, klass = np.unique(
                seen.view(np.dtype((np.void, seen.shape[1] * 8))).ravel(),
                return_index=True,
                return_inverse=True,
            )
            self._classes[:, index] = klass
            self._class_values.append(list(map(kernel.unpack, seen[byte])))
            self._start.append(kernel.unpack(kernel.start_all_row[own] & masks))
        # Byte columns: the distinct rows of ``_classes``.  ``_fills`` has,
        # per component and class, the columns a transition learned on
        # that class is written into.
        self._column_classes, column_of = np.unique(
            self._classes, axis=0, return_inverse=True
        )
        self._column_of = column_of.reshape(-1)
        self._fills = [
            [
                np.flatnonzero(self._column_classes[:, index] == klass)
                for klass in range(len(values))
            ]
            for index, values in enumerate(self._class_values)
        ]
        # Rebuilding full rows: slots in word order, one group per word.
        by_word = np.argsort(self._slot_word, kind="stable")
        self._gather_comp = self._slot_comp[by_word]
        self._gather_cell = (
            np.arange(len(by_word)) - bounds[self._slot_comp]
        )[by_word].astype(np.int32)
        self._occupied_words, self._word_starts = np.unique(
            self._slot_word[by_word], return_index=True
        )

        widest = max(map(len, self._words), default=1)
        columns = len(self._column_classes)
        # A state's cells, its base and its row words, at the widest.
        state_bytes = 4 * columns + 8 + 8 * widest + _COMPONENT_STATE_BYTES
        #: State budget; never so small that a flush leaves no room for
        #: the states of one cycle.
        self.limit = max(3 * self.components, STEP_CACHE_BYTES // state_bytes)
        #: Ids the tables can need: the sink, ``limit`` states and one more
        #: a component (see :meth:`split` and :meth:`_restep`).
        self._most = self.limit + self.components + 1
        capacity = min(1024, self._most)
        self.trans = np.zeros((columns, capacity), dtype=np.int32)
        self._by_column = list(self.trans)
        self.base = np.zeros(capacity, dtype=np.intp)
        self.rows = np.zeros(capacity * widest, dtype=np.uint64)
        self._widest = widest
        self._ids: List[Dict[int, int]] = [{} for _ in range(self.components)]
        self._history = np.empty((COMPONENT_BLOCK + 1, self.components), np.int32)
        self.lookups = 0
        self.misses = 0
        self.flushes = 0
        self._reset()

    def _reset(self) -> None:
        """Empty tables: the sink, and every component's all-zero state."""
        self.trans[:] = 0
        self._row_top = self._widest
        self.states = 0
        self._values = [0]
        for ids in self._ids:
            ids.clear()
        self.zero = np.array(
            [self.intern(index, 0) for index in range(self.components)],
            dtype=np.int32,
        )

    def _grow(self) -> None:
        """Room for half as many ids again, never more than ``_most``."""
        old = len(self.base)
        capacity = min(self._most, old + old // 2)
        trans = np.zeros((len(self.trans), capacity), dtype=np.int32)
        trans[:, :old] = self.trans
        self.trans, self._by_column = trans, list(trans)
        self.base = np.concatenate([self.base, np.zeros(capacity - old, np.intp)])
        more = np.zeros((capacity - old) * self._widest, np.uint64)
        self.rows = np.concatenate([self.rows, more])

    def intern(self, component: int, value: int) -> int:
        """Id of the state of ``component`` whose row words read ``value``."""
        ids = self._ids[component]
        state = ids.get(value)
        if state is None:
            self.states = state = self.states + 1
            if state == len(self.base):
                self._grow()
            width, base = len(self._words[component]), self._row_top
            self._row_top += width
            row = np.frombuffer(value.to_bytes(8 * width, "little"), np.uint64)
            self.rows[base : self._row_top] = row
            self.base[state] = base
            self._values.append(value)
            ids[value] = state
        return state

    def split(self, prev: np.ndarray) -> np.ndarray:
        """The component states whose rows OR together to ``prev``,
        interned after a flush when the tables are full."""
        if self.states >= self.limit:
            self.flushes += 1
            self._reset()
        state = self.zero.copy()
        live = np.flatnonzero(prev[self._slot_word] & self._slot_mask)
        unpack = self._kernel.unpack
        for index in np.unique(self._slot_comp[live]).tolist():
            own = prev[self._words[index]] & self._masks[index]
            state[index] = self.intern(index, unpack(own))
        return state

    def rows_of(self, states: np.ndarray) -> np.ndarray:
        """``(cycles, components)`` states -> the ``(cycles, words)`` rows
        they stand for: the OR of their components' rows."""
        cells = self.base.take(states).take(self._gather_comp, axis=1)
        cells += self._gather_cell
        out = np.zeros((len(states), self._kernel.words), dtype=np.uint64)
        out[:, self._occupied_words] = np.bitwise_or.reduceat(
            self.rows.take(cells), self._word_starts, axis=1
        )
        return out

    def step(self, state: np.ndarray, sym: np.ndarray) -> np.ndarray:
        """Advance ``state`` over ``sym`` (at most a block of symbols):
        row ``k`` of the result is the state before cycle ``k``, the last
        row the state after the last cycle stepped — fewer than
        ``len(sym)``, and at least one, when the tables filled up on the
        way (the caller reads the rows out, then comes back for the
        rest, which starts with a flush).  The result is valid until
        the next call.

        The block is stepped blind, all components at once, then looked
        over for zeros.  Components are independent, so a zero spoils
        its own column only: the components that lacked a transition are
        stepped again one by one from where they did, learning as they
        go.  With few components that Python loop over each is cheaper
        than one ``take`` a byte over all, and does all the stepping.
        """
        cycles = len(sym)
        if self.states >= self.limit:
            state = self.split(self.rows_of(state[None])[0])  # flushes first
        history = self._history[: cycles + 1]
        history[0] = state
        if self.components >= _VECTOR_WIDTH:
            lacking = self._sweep(history, sym)
        else:
            lacking = [(component, 0) for component in range(self.components)]
        reached = cycles
        for component, cycle in lacking:
            reached = min(reached, self._restep(component, sym, history, cycle))
        return history[: reached + 1]

    def _sweep(self, history: np.ndarray, sym: np.ndarray) -> List[Tuple[int, int]]:
        """Step every component over ``sym`` blind from ``history[0]``;
        returns ``(component, first cycle it lacked a transition on)``
        for those that ran into the sink."""
        rows, tables = list(history), self._by_column
        # Every cell is an id in range: ``clip`` spares the bounds check
        # that makes ``take`` buffer its output.
        for cycle, column in enumerate(self._column_of[sym].tolist()):
            tables[column].take(rows[cycle], out=rows[cycle + 1], mode="clip")
        holes = history[1:] == 0
        components = np.flatnonzero(holes.any(axis=0))
        first = holes[:, components].argmax(axis=0)
        return list(zip(components.tolist(), first.tolist()))

    def _restep(
        self, component: int, sym: np.ndarray, history: np.ndarray, cycle: int
    ) -> int:
        """Step ``component`` alone from ``cycle`` (where it lacked a
        transition) to the end of ``sym``, learning what it lacks;
        returns the cycle it got to — short of the end, but past
        ``cycle``, when the tables are full."""
        state = int(history[cycle, component])
        trans = memoryview(self.trans)
        after = []
        for column in self._column_of[sym[cycle:]].tolist():
            target = trans[column, state]
            if target == 0:
                if after and self.states >= self.limit:
                    break
                klass = int(self._column_classes[column, component])
                target = self._learn(component, state, klass)
                trans = memoryview(self.trans)
            after.append(target)
            state = target
        history[cycle + 1 : cycle + 1 + len(after), component] = after
        return cycle + len(after)

    def _learn(self, component: int, state: int, klass: int) -> int:
        """Fill the transition of ``component``'s ``state`` on its byte
        class ``klass``, in every column of that class; returns the
        successor."""
        matched = self._values[state] | self._start[component]
        matched &= self._class_values[component][klass]
        successors, value = self._successors[component], 0
        while matched:
            low = matched & -matched
            value |= successors[low.bit_length() - 1]
            matched ^= low
        target = self.intern(component, value)
        self.trans[self._fills[component][klass], state] = target
        self.misses += 1
        return target


def edge_list(
    n_bits: int, tails: Sequence[int], heads: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(succ_indptr, succ_heads)`` of the edges ``tails[i] ->
    heads[i]`` over ``n_bits`` states: ``int64`` offsets, one a tail bit
    and one more, into ``int32`` heads sorted by tail and then head, an
    edge given twice kept once."""
    ends = np.asarray([tails, heads], dtype=np.int64).reshape(2, -1)
    if ends.size and not 0 <= ends.min() <= ends.max() < n_bits:
        raise SimulationError(f"an edge leaves the {n_bits}-bit state vector")
    tail, head = np.divmod(np.unique(ends[0] * n_bits + ends[1]), n_bits)
    indptr = np.searchsorted(tail, np.arange(n_bits + 1, dtype=np.int64))
    return indptr.astype(np.int64), head.astype(np.int32)


class BitsetKernel:
    """Packed-word execution engine for one fixed automaton bit layout.

    ``n_bits`` is the size of the state vector (for the mapped simulator
    this includes per-partition span padding); ``edges`` is a ``(tails,
    heads)`` pair of bit sequences, one position an edge (an L-switch
    cross-point); ``match_table`` (256 entries, or already the ``(256,
    words)`` ``uint64`` match matrix), ``start_all``, ``start_sod`` and
    ``report_mask`` are arbitrary-precision-int tables
    (:meth:`from_automaton` derives them all) — the kernel packs them
    once at construction.  The edges are kept as one edge list,
    ``succ_indptr``/``succ_heads`` (:func:`edge_list`).
    """

    #: The :attr:`Checkpoint.dialect` this kernel reads and writes:
    #: ``None`` when its bits are the placement layout (whoever builds
    #: it on another bit order says so here).
    dialect: Optional[str] = None

    def __init__(
        self,
        n_bits: int,
        edges: Tuple[Sequence[int], Sequence[int]],
        match_table: Union[List[int], np.ndarray],
        start_all: int,
        start_sod: int,
        report_mask: int,
    ):
        self.n_bits = n_bits
        self.words = max(1, -(-n_bits // 64))
        self.row_bytes = self.words * 8

        self.match_matrix = (
            np.ascontiguousarray(match_table, dtype=np.uint64)
            if isinstance(match_table, np.ndarray)
            else self._pack_rows(match_table)
        )
        if self.match_matrix.shape != (256, self.words):
            raise SimulationError(
                f"a match matrix of {self.match_matrix.shape}, not "
                f"(256, {self.words})"
            )
        self.match_matrix.setflags(write=False)
        self.start_all_row = self.pack(start_all)
        self.start_all_row.setflags(write=False)
        self.start_sod_row = self.pack(start_sod)
        self.start_sod_row.setflags(write=False)
        self.report_row = self.pack(report_mask)
        self.report_row.setflags(write=False)
        self.has_sod = start_sod != 0
        self._set_edges(*edge_list(n_bits, *edges))
        self._init_caches()

    @classmethod
    def from_automaton(
        cls, automaton: HomogeneousAutomaton, bit_of: Mapping[str, int], n_bits: int
    ) -> "BitsetKernel":
        """The kernel of ``automaton`` with STE ``s`` at bit ``bit_of[s]``
        of an ``n_bits`` vector (bits no STE owns stay inert)."""
        form = automaton._array_form()
        bits = np.array([bit_of[ste_id] for ste_id in form.ids], dtype=np.int64)
        edges = bits[form.sources], bits[form.targets]

        def row(selected: np.ndarray) -> int:
            """The int with the selected states' bits set."""
            grid = np.zeros(-(-n_bits // 8) * 8, dtype=np.uint8)
            grid[bits[selected]] = 1
            return int.from_bytes(
                np.packbits(grid, bitorder="little").tobytes(), "little"
            )

        start_all = row(form.start == START_KINDS.index(StartKind.ALL_INPUT))
        start_sod = row(form.start == START_KINDS.index(StartKind.START_OF_DATA))
        report_mask = row(form.reporting)
        match_table = byte_signature_words(form.masks, form.mask_of, bits, n_bits)[0]
        return cls(
            n_bits, edges, match_table,
            start_all, start_sod, report_mask,
        )

    def _set_edges(self, indptr: np.ndarray, heads: np.ndarray) -> None:
        """Adopt the edge list ``(succ_indptr, succ_heads)``: the heads of
        the edges out of bit ``t`` are ``succ_heads[succ_indptr[t]:
        succ_indptr[t + 1]]``.  Raises :class:`SimulationError` unless it
        is one over this kernel's ``n_bits``."""
        indptr, heads = np.ascontiguousarray(indptr), np.ascontiguousarray(heads)
        n_bits = self.n_bits
        if not (
            indptr.dtype == np.int64
            and heads.dtype == np.int32
            and indptr.shape == (n_bits + 1,)
            and heads.ndim == 1
            and indptr[0] == 0
            and indptr[-1] == len(heads)
            and (np.diff(indptr) >= 0).all()
            and (len(heads) == 0 or 0 <= heads.min() <= heads.max() < n_bits)
        ):
            raise SimulationError(
                f"corrupt kernel tables: succ_indptr ({indptr.dtype} "
                f"{indptr.shape}) and succ_heads ({heads.dtype} {heads.shape}) "
                f"are not an edge list over {n_bits} bits"
            )
        indptr.setflags(write=False)
        heads.setflags(write=False)
        self.succ_indptr, self.succ_heads = indptr, heads

    def _init_caches(self):
        """Fresh memoisation state (shared by all construction paths)."""
        # Propagation memo, keyed by the matched row as an int, and each
        # bit's successor int, derived the first time a row sets the bit.
        self._prop_ints: Dict[int, int] = {}
        self._prop_limit = max(
            1024, PROPAGATE_CACHE_BYTES // (2 * self.row_bytes + _PROP_ENTRY_BYTES)
        )
        self._prop_hits = 0
        self._prop_misses = 0
        self._successor_ints: Optional[List[Optional[int]]] = None
        self._tails: Optional[np.ndarray] = None
        self._match_ints: List[Optional[int]] = [None] * 256
        # Shift step: ``None`` until the first non-idle cycle counts the
        # edges' offsets, then :meth:`_shift_plan`'s ``(left, right,
        # start_all)``, or ``()`` on the step cache.
        self._shifts: Optional[tuple] = None
        self._shift_cycles = 0
        # Step cache: the component tables, built on the first non-idle
        # cycle a shift plan does not take.
        self._components: Optional[_ComponentTables] = None
        self._occupied_row: Optional[np.ndarray] = None
        self._idle_next: Optional[np.ndarray] = None
        self._idle_escape: Optional[np.ndarray] = None
        self._scratch = np.zeros(self.words, dtype=np.uint64)

    # -- packed-table round-trip ------------------------------------------

    def packed_tables(self) -> Dict[str, np.ndarray]:
        """The kernel's packed tables, keyed for :meth:`from_packed`.

        Everything expensive about kernel construction is the big-int ->
        array conversion; exporting the arrays lets an artefact cache
        round-trip a kernel without ever rebuilding the int masks.
        """
        return {
            "n_bits": np.asarray(self.n_bits, dtype=np.int64),
            "match_matrix": self.match_matrix,
            "start_all": self.start_all_row,
            "start_sod": self.start_sod_row,
            "report": self.report_row,
            "succ_indptr": self.succ_indptr,
            "succ_heads": self.succ_heads,
        }

    @classmethod
    def from_packed(cls, tables: Dict[str, np.ndarray]) -> "BitsetKernel":
        """Rebuild a kernel directly from :meth:`packed_tables` output.

        The tables are validated for mutual consistency (shapes, dtypes,
        word widths, an edge list that stays inside the state vector)
        before use: they typically arrive from an on-disk
        artefact cache, and a corrupt artefact must surface here as a
        :class:`SimulationError` the engine can quarantine on — not as a
        wrong-shaped gather deep inside a scan.
        """
        self = cls.__new__(cls)
        try:
            self.n_bits = int(tables["n_bits"])
        except (KeyError, TypeError, ValueError) as error:
            raise SimulationError(f"corrupt kernel tables: {error}") from None
        if self.n_bits <= 0:
            raise SimulationError(
                f"corrupt kernel tables: n_bits={self.n_bits}"
            )
        self.words = max(1, -(-self.n_bits // 64))
        self.row_bytes = self.words * 8

        def frozen(array: np.ndarray, shape) -> np.ndarray:
            array = np.ascontiguousarray(array)
            if array.dtype != np.uint64 or array.shape != shape:
                raise SimulationError(
                    "corrupt kernel tables: expected uint64 array of shape "
                    f"{shape}, got {array.dtype} {array.shape}"
                )
            array.setflags(write=False)
            return array

        try:
            self.match_matrix = frozen(tables["match_matrix"], (256, self.words))
            self.start_all_row = frozen(tables["start_all"], (self.words,))
            self.start_sod_row = frozen(tables["start_sod"], (self.words,))
            self.report_row = frozen(tables["report"], (self.words,))
            self.has_sod = bool(self.start_sod_row.any())
            self._set_edges(tables["succ_indptr"], tables["succ_heads"])
        except KeyError as error:
            raise SimulationError(
                f"corrupt kernel tables: missing {error}"
            ) from None
        self._init_caches()
        return self

    # -- fault modelling ---------------------------------------------------

    def match_parity(self) -> np.ndarray:
        """Per-symbol parity of the match-matrix rows, as ``(256,)`` uint8.

        Models a per-column parity bit stored alongside each STE column:
        any odd number of bit flips in one match-vector read changes the
        read's parity against this table, so single-event upsets in the
        match path are always detectable.
        """
        return (popcount_rows(self.match_matrix) & 1).astype(np.uint8)

    def with_faults(
        self,
        *,
        drop_edges: Tuple[Tuple[int, int], ...] = (),
        stuck_high_bits: Tuple[int, ...] = (),
    ) -> "BitsetKernel":
        """A fault-perturbed copy of this kernel (fresh caches).

        ``drop_edges`` are ``(source_bit, target_bit)`` pairs whose
        crossbar cross-point is stuck at 0 — the transition never fires.
        ``stuck_high_bits`` are state bits whose L-switch enable wire is
        stuck at 1 — the state is enabled every cycle, modelled by
        promoting it to an all-input start state.  The perturbed kernel
        shares nothing mutable with the original.
        """
        tables = {
            name: array.copy() for name, array in self.packed_tables().items()
        }
        tail, head = self.edges()
        kept = np.ones(len(head), dtype=bool)
        for source, target in drop_edges:
            if not (0 <= source < self.n_bits and 0 <= target < self.n_bits):
                raise FaultError(
                    f"edge fault ({source}, {target}) outside state space"
                )
            kept &= (tail != source) | (head != target)
        indptr, heads = edge_list(self.n_bits, tail[kept], head[kept])
        tables["succ_indptr"], tables["succ_heads"] = indptr, heads
        for bit in stuck_high_bits:
            if not 0 <= bit < self.n_bits:
                raise FaultError(f"stuck-high bit {bit} outside state space")
            tables["start_all"][bit >> 6] |= np.uint64(1 << (bit & 63))
        return BitsetKernel.from_packed(tables)

    # -- packing -----------------------------------------------------------

    def pack(self, value: int) -> np.ndarray:
        """Arbitrary-precision int -> (words,) uint64 array (little-endian)."""
        try:
            raw = value.to_bytes(self.row_bytes, "little")
        except OverflowError:
            raise SimulationError(
                f"state vector needs more than {self.n_bits} bits; "
                "was the checkpoint taken on a different automaton?"
            ) from None
        return np.frombuffer(raw, dtype=np.uint64).copy()

    def unpack(self, row: np.ndarray) -> int:
        """(words,) uint64 array -> arbitrary-precision int."""
        return int.from_bytes(row.tobytes(), "little")

    def _pack_rows(self, masks: List[int]) -> np.ndarray:
        """Ints -> their read-only ``(len(masks), words)`` uint64 rows."""
        width = self.row_bytes
        raw = b"".join([mask.to_bytes(width, "little") for mask in masks])
        return np.frombuffer(raw, dtype=np.uint64).reshape(len(masks), self.words)

    @staticmethod
    def bit_indices(row: np.ndarray) -> np.ndarray:
        """Ascending indices of the set bits in one packed row."""
        flat = np.unpackbits(
            np.ascontiguousarray(row).view(np.uint8), bitorder="little"
        )
        return np.flatnonzero(flat)

    # -- propagation -------------------------------------------------------

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """The edge list as ``(tail, head)`` bit arrays, one pair an edge,
        sorted by tail and then head."""
        return self._edge_tails(), self.succ_heads.astype(np.intp)

    def _edge_tails(self) -> np.ndarray:
        """The tail bit of every entry of ``succ_heads``."""
        if self._tails is None:
            self._tails = np.repeat(
                np.arange(self.n_bits, dtype=np.intp), np.diff(self.succ_indptr)
            )
            self._tails.setflags(write=False)
        return self._tails

    def match_int(self, byte: int) -> int:
        """The match row of ``byte`` as one int, unpacked the first time
        it is asked for into the list both int steppers index
        (:meth:`_run_shifts` and the lazy DFA's miss)."""
        value = self._match_ints[byte]
        if value is None:
            value = self._match_ints[byte] = self.unpack(self.match_matrix[byte])
        return value

    def _occupied(self) -> np.ndarray:
        """Row of the bits that hold a state: those a byte matches, a
        transition reaches, a start or a report names.  What is left is
        padding, which no scan ever sets."""
        if self._occupied_row is None:
            row = np.bitwise_or.reduce(self.match_matrix, axis=0)
            row |= self.start_all_row
            row |= self.start_sod_row
            row |= self.report_row
            heads = self.succ_heads
            np.bitwise_or.at(
                row, heads >> 6, np.uint64(1) << (heads & 63).astype(np.uint64)
            )
            self._occupied_row = row
        return self._occupied_row

    def propagate(self, row: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Enabled-successor row of ``row``, plus a non-zero flag:
        :meth:`propagate_int` on the row read as one int.  The returned
        array is read-only."""
        found = self.propagate_int(self.unpack(row))
        out = np.frombuffer(found.to_bytes(self.row_bytes, "little"), np.uint64)
        return out, found != 0

    def propagate_int(self, matched: int) -> int:
        """The successor row of a matched row held as one int: the OR of
        the successor ints of its set bits.

        A bit's successor int is read off its slice of the edge list the
        first time a row sets it, so memory grows only with the bits
        scans reach.  A row of more than :data:`PROPAGATE_SCATTER_BITS`
        set bits scatters the heads of its bits' edges in numpy instead
        (:meth:`_scatter`).  Results are memoised by ``matched``, up to
        the entries that :data:`PROPAGATE_CACHE_BYTES` allows.
        """
        found = self._prop_ints.get(matched)
        if found is not None:
            self._prop_hits += 1
            return found
        self._prop_misses += 1
        if matched.bit_count() > PROPAGATE_SCATTER_BITS:
            found = self._scatter(matched)
        else:
            successors = self._successor_ints
            if successors is None:
                successors = self._successor_ints = [None] * self.n_bits
            found, rest = 0, matched
            while rest:
                bit = rest.bit_length() - 1
                value = successors[bit]
                if value is None:
                    value = successors[bit] = self._successor_int(bit)
                found |= value
                rest ^= 1 << bit
        if len(self._prop_ints) < self._prop_limit:
            self._prop_ints[matched] = found
        return found

    def _scatter(self, matched: int) -> int:
        """:meth:`propagate_int` of a wide row in numpy: the heads of
        every edge whose tail ``matched`` sets, as one int."""
        raw = np.frombuffer(matched.to_bytes(self.row_bytes, "little"), np.uint8)
        live = np.unpackbits(raw, bitorder="little").view(bool)
        reached = np.zeros(self.words * 64, dtype=np.uint8)
        reached[self.succ_heads[live[self._edge_tails()]]] = 1
        packed = np.packbits(reached, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def _successor_int(self, bit: int) -> int:
        """The successor row of state ``bit`` as one int."""
        lo, hi = self.succ_indptr[bit : bit + 2].tolist()
        value = 0
        for head in self.succ_heads[lo:hi].tolist():
            value |= 1 << head
        return value

    # -- stepping non-idle cycles ------------------------------------------

    def _shift_plan(self) -> tuple:
        """``(left, right, start_all)``: per offset ``d`` of the edges,
        the int ``M_d`` of their tails and ``|d|``, split by the
        direction of the shift, and the all-input start row as an int —
        or ``()`` when shifts are off (:data:`SHIFT_OFFSETS` is 0) or
        the edges fall in more offsets than it allows.  A kernel without
        edges has no offsets and an empty plan, whose successor row is
        always 0.  Decided once, on the first non-idle cycle; a shift
        kernel unpacks every match row now."""
        tail, head = self.edges()
        offsets, which = np.unique(head - tail, return_inverse=True)
        if SHIFT_OFFSETS <= 0 or len(offsets) > SHIFT_OFFSETS:
            return ()
        masks = [0] * len(offsets)
        for index, bit in zip(which.tolist(), tail.tolist()):
            masks[index] |= 1 << bit
        for byte in range(256):
            self.match_int(byte)
        pairs = list(zip(masks, offsets.tolist()))
        return (
            [(mask, d) for mask, d in pairs if d >= 0],
            [(mask, -d) for mask, d in pairs if d < 0],
            self.unpack(self.start_all_row),
        )

    def _run_shifts(
        self,
        sym_list: list,
        matched_rows: np.ndarray,
        enabled_rows: Optional[np.ndarray],
        i: int,
        prev: np.ndarray,
    ) -> Tuple[int, np.ndarray, bool]:
        """Step the cycles from ``i`` to the end of the chunk by shifts,
        filling the histories as :meth:`run_chunk` does; returns the
        ``(i, prev, prev_nonzero)`` cursor.

        Exact: each ``(M_d, d)`` pair moves the matched tails of the
        edges at offset ``d`` onto their heads, and together the pairs
        are every edge.  A bit no edge touches (a checkpoint may set one)
        is in no ``M_d``: enabled one cycle, then gone.  An idle cycle
        is the same step from an empty state, so the stretch does not go
        back to the idle path when the machine goes quiet: on rulesets
        that converge, that would be a stretch of a few cycles between
        every two escapes."""
        left, right, start = self._shifts
        match, state = self._match_ints, self.unpack(prev)
        states = []
        for byte in itertools.islice(sym_list, i, None):
            states.append(state)
            row = match[byte] & (state | start)
            state = 0
            for mask, d in left:
                state |= (row & mask) << d
            for mask, d in right:
                state |= (row & mask) >> d
        j = len(sym_list)
        self._shift_cycles += j - i
        # One row a cycle leaves the ints; the rest is numpy.
        enabled = None if enabled_rows is None else enabled_rows[i:j]
        enabled = np.bitwise_or(
            self._pack_rows(states), self.start_all_row, out=enabled
        )
        matched_rows[i:j] &= enabled
        return j, self.pack(state), bool(state)

    def _run_components(
        self,
        sym: np.ndarray,
        matched_rows: np.ndarray,
        enabled_rows: Optional[np.ndarray],
        i: int,
        prev: np.ndarray,
    ) -> Tuple[int, np.ndarray, bool]:
        """Step the cycles from ``i`` on the component tables, filling
        the histories as :meth:`run_chunk` does, until the machine is
        idle or the chunk ends; returns the ``(i, prev, prev_nonzero)``
        cursor."""
        level = self._components
        if level is None:
            level = self._components = _ComponentTables(self)
        start_row = self.start_all_row
        if (prev & ~level.member_row).any():
            # Bits no transition touches: only a checkpoint sets them, and
            # they are gone a cycle later.
            enabled = prev | start_row
            matched_rows[i] &= enabled
            if enabled_rows is not None:
                enabled_rows[i] = enabled
            return (i + 1, *self.propagate(matched_rows[i]))
        state = level.split(prev)
        cycles = len(sym)
        while i < cycles:
            history = level.step(state, sym[i : i + COMPONENT_BLOCK])
            stepped = len(history) - 1
            enabled = level.rows_of(history[:stepped])
            enabled |= start_row
            matched_rows[i : i + stepped] &= enabled
            if enabled_rows is not None:
                enabled_rows[i : i + stepped] = enabled
            level.lookups += stepped * level.components
            i += stepped
            state = history[stepped].copy()
            if (state == level.zero).all():
                return i, np.zeros(self.words, dtype=np.uint64), False
        return i, level.rows_of(state[None])[0], True

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/flush counters for the kernel's memoisation layers.

        ``propagate`` covers the propagation memo (:meth:`propagate_int`,
        which :meth:`propagate` calls too: its hits and misses count
        calls, ``size`` and ``limit`` entries); ``step`` the component
        tables that :meth:`run_chunk`'s non-idle cycles step on, all zero
        until the first such cycle builds them — ``lookups`` are the
        component transitions looked up (a cycle stepped looks one up
        per component), ``misses`` those the tables lacked and computed,
        ``hits`` the difference, ``states`` the states held against
        their ``limit``; ``shift`` how a kernel whose edges fall in few
        bit offsets steps instead — ``offsets`` their number (0 on the
        step cache, and until the first non-idle cycle decides),
        ``cycles`` the cycles stepped by shifts.
        """
        left, right, _ = self._shifts or ((), (), 0)
        step = {
            key: getattr(self._components, key, 0)
            for key in ("components", "states", "limit", "lookups", "misses", "flushes")
        }
        step["hits"] = step["lookups"] - step["misses"]
        return {
            "propagate": {
                "hits": self._prop_hits,
                "misses": self._prop_misses,
                "size": len(self._prop_ints),
                "limit": self._prop_limit,
            },
            "step": step,
            "shift": {
                "offsets": len(left) + len(right),
                "cycles": self._shift_cycles,
            },
        }

    # -- idle fast path ----------------------------------------------------

    def _ensure_idle_tables(self):
        """``_idle_next[symbol]`` is the activation row an idle machine
        (only all-input start states enabled) produces on ``symbol``;
        ``_idle_escape[symbol]`` flags the symbols that wake it up."""
        if self._idle_next is not None:
            return
        start = self.unpack(self.start_all_row)
        nxt = [self.propagate_int(self.match_int(byte) & start) for byte in range(256)]
        self._idle_next = self._pack_rows(nxt)
        self._idle_escape = np.array(list(map(bool, nxt)))

    # -- entering, driving, leaving -----------------------------------------

    def enter(self, resume: Optional[Checkpoint]) -> Tuple[np.ndarray, bool, bool, int]:
        """The ``(prev, prev_nonzero, sod, base)`` cursor a scan starts
        from: a fresh stream, or the suspended one ``resume`` describes
        (``base`` is its global symbol counter)."""
        if resume is None:
            return self.pack(0), False, self.has_sod, 0
        resume.require(self.dialect)
        vector = resume.active_state_vector
        prev = self.pack(vector)
        if vector:
            stray = prev & ~self._occupied()
            if stray.any():  # the bit scan only on the error path
                raise SimulationError(
                    f"checkpoint activates state bit {self.bit_indices(stray)[0]}, "
                    "which holds no state here; was it taken on a different "
                    "automaton?"
                )
        sod = self.has_sod and resume.start_of_data_pending
        return prev, vector != 0, sod, resume.symbols_processed

    def leave(self, prev: np.ndarray, sod: bool, symbols_processed: int) -> Checkpoint:
        """The :class:`Checkpoint` of a scan suspended at cursor ``(prev,
        sod)`` after ``symbols_processed`` symbols of its stream."""
        vector = self.unpack(prev)
        return Checkpoint(symbols_processed, vector, bool(sod), self.dialect)

    def drive(
        self,
        data: bytes,
        resume: Optional[Checkpoint],
        on_chunk: Callable[..., None],
        *,
        enabled_history: bool = False,
    ) -> Tuple[int, Checkpoint]:
        """Scan ``data`` from ``resume``, :data:`CHUNK_SYMBOLS` at a time.

        After each chunk ``on_chunk(sym, matched_rows, enabled_rows,
        offset)`` gets its symbols, per-cycle matched history, enabled
        history (``None`` unless ``enabled_history``) and the global
        offset of its first symbol.  Returns ``(symbols scanned,
        checkpoint to resume from)``.
        """
        symbols = as_symbols(data)
        prev, prev_nonzero, sod, base = self.enter(resume)
        for start in range(0, len(symbols), CHUNK_SYMBOLS):
            sym = symbols[start : start + CHUNK_SYMBOLS]
            matched_rows = self.match_matrix[sym]
            enabled_rows = None
            if enabled_history:
                enabled_rows = np.empty((len(sym), self.words), np.uint64)
            prev, prev_nonzero, sod = self.run_chunk(
                sym, matched_rows, enabled_rows, prev, prev_nonzero, sod
            )
            on_chunk(sym, matched_rows, enabled_rows, base + start)
        return len(symbols), self.leave(prev, sod, base + len(symbols))

    # -- chunk stepping ----------------------------------------------------

    def run_chunk(
        self,
        sym: np.ndarray,
        matched_rows: np.ndarray,
        enabled_rows: Optional[np.ndarray],
        prev: np.ndarray,
        prev_nonzero: bool,
        sod: bool,
    ) -> Tuple[np.ndarray, bool, bool]:
        """Advance the machine over one chunk of input.

        On entry ``matched_rows`` must be ``match_matrix[sym]``; on exit it
        holds the per-cycle *matched* vectors.  ``enabled_rows`` (optional)
        receives the per-cycle *enabled* vectors — every row is written.
        ``prev`` is the pending successor-activation row (may alias a
        cached, read-only row); returns the updated
        ``(prev, prev_nonzero, sod)`` cursor.

        A non-idle cycle steps by shifts (:meth:`_run_shifts`) on a
        kernel whose edges fall in at most ``SHIFT_OFFSETS`` offsets, and
        then so does every later cycle of the chunk, idle or not; on any
        other kernel it steps on the component tables
        (:meth:`_run_components`) until the machine is idle again or the
        chunk ends.
        """
        cycles = len(sym)
        start_row = self.start_all_row
        escape_positions: Optional[np.ndarray] = None
        sym_list: Optional[list] = None
        i = 0
        while i < cycles:
            if prev_nonzero and not sod:
                if self._shifts is None:
                    self._shifts = self._shift_plan()
                if self._shifts:
                    if sym_list is None:
                        sym_list = sym.tolist()
                    i, prev, prev_nonzero = self._run_shifts(
                        sym_list, matched_rows, enabled_rows, i, prev
                    )
                else:
                    i, prev, prev_nonzero = self._run_components(
                        sym, matched_rows, enabled_rows, i, prev
                    )
                continue
            if sod:
                # Start-of-data enables extra start states for exactly one
                # cycle; step it outside the tables so their states stay
                # keyed purely by the activation row.
                if enabled_rows is None:
                    erow = self._scratch
                else:
                    erow = enabled_rows[i]
                np.bitwise_or(prev, start_row, out=erow)
                erow |= self.start_sod_row
                sod = False
                mrow = matched_rows[i]
                mrow &= erow
                prev, prev_nonzero = self.propagate(mrow)
                i += 1
                continue
            # Idle: the enabled vector is exactly the all-input start set
            # until a symbol whose matched start states have successors.
            if self._idle_escape is None:
                self._ensure_idle_tables()
            if escape_positions is None:
                escape_positions = np.flatnonzero(self._idle_escape[sym])
            cursor = int(np.searchsorted(escape_positions, i))
            if cursor < escape_positions.size:
                j = int(escape_positions[cursor])
            else:
                j = cycles
            if j > i:
                matched_rows[i:j] &= start_row
                if enabled_rows is not None:
                    enabled_rows[i:j] = start_row
            if j < cycles:
                if enabled_rows is not None:
                    enabled_rows[j] = start_row
                matched_rows[j] &= start_row
                prev = self._idle_next[int(sym[j])]
                prev_nonzero = True
            i = j + 1
        return prev, prev_nonzero, sod
