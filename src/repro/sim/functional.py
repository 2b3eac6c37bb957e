"""Functional simulation of a *mapped* Cache Automaton.

Where :mod:`repro.sim.golden` interprets the automaton abstractly, this
simulator executes the compiled :class:`~repro.compiler.mapping.Mapping`:
states live at (partition, slot) locations, matches are per-partition
match-vector reads, and successor activation travels through L/G switch
paths.  Two things fall out of that fidelity:

* **equivalence evidence** — its reports must equal the golden
  interpreter's on every input (asserted in the integration tests);
* the :class:`~repro.core.energy.ActivityProfile` driving Figure 9 —
  per-cycle active-partition counts (a partition is *accessed* whenever
  its active-state vector is non-zero; idle partitions are clock-gated
  by the wired-OR disabling circuit) and dynamic G-switch crossings.

States are laid out so each partition occupies one contiguous 256-bit
span of a packed ``uint64`` state vector; execution runs on the shared
packed-bitset kernel (:mod:`repro.sim.kernel`) and all per-partition
reductions — activity, G-switch fan-in, report extraction — are computed
batchwise over whole chunks of cycle history with
``reshape(-1, span_words).any(axis=-1)``-style numpy operations, keeping
multi-megabyte runs tractable while staying bit-for-bit equivalent to
the scalar reference semantics.

:meth:`MappedSimulator.run_many` runs several independent input streams
(the Section 6 multi-stream scenario) one after the other on the one warm
kernel: they share its match matrix, propagation memo, step tables and
idle fast-path tables, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from repro.backends.validation import require_resume_count
from repro.compiler.mapping import Mapping
from repro.core.energy import ActivityProfile
from repro.errors import SimulationError
from repro.sim.kernel import (
    BitsetKernel,
    Checkpoint,
    Report,
    ReportDecoder,
    RunStats,
    ScanResult,
    placement_bits,
    placement_positions,
    popcount_rows,
)

#: Output buffer geometry (Section 2.8): 64 entries, CPU interrupt on full.
OUTPUT_BUFFER_ENTRIES = 64


@dataclass(frozen=True)
class OutputRecord:
    """One CBOX output-buffer entry (Section 2.8).

    "An output reporting event creates a new entry in the output buffer
    consisting of active state mask, partition ID, input symbol, and
    input symbol counter."
    """

    partition: int
    #: Matched-state mask of the partition (bit = slot) at report time.
    active_state_mask: int
    symbol: int
    #: Global input-symbol counter (= report offset).
    symbol_counter: int


@dataclass
class OutputBufferModel:
    """Models the CBOX output buffer: entries consumed per report event,
    interrupts raised whenever it fills (Section 2.8)."""

    entries: int = OUTPUT_BUFFER_ENTRIES
    events: int = 0
    interrupts: int = 0

    def record(self, new_events: int):
        self.events += new_events
        if self.events >= self.entries:
            overflow, self.events = divmod(self.events, self.entries)
            self.interrupts += overflow


class _RunAccumulator:
    """Batchwise statistics for one stream: consumes chunk histories.

    Each :meth:`add` call folds one chunk's packed matched/enabled cycle
    history into the run's stats, activity profile, output-buffer model,
    and (optionally) reports, per-partition counts, and output records —
    reproducing exactly what the scalar per-symbol loop accumulated.
    """

    def __init__(
        self,
        simulator: "MappedSimulator",
        *,
        collect_reports: bool,
        collect_partition_stats: bool,
        collect_records: bool,
        collect_cycle_stats: bool,
    ):
        self._simulator = simulator
        self.collect_reports = collect_reports
        self.collect_records = collect_records
        self.collect_cycle_stats = collect_cycle_stats
        self.stats = RunStats()
        self.profile = ActivityProfile()
        self.buffer_model = OutputBufferModel()
        self.reports: List[Report] = []
        self.output_records: List[OutputRecord] = []
        self.partition_counts = (
            np.zeros(simulator.mapping.partition_count, dtype=np.int64)
            if collect_partition_stats
            else None
        )

    def add(
        self,
        sym: np.ndarray,
        matched_rows: np.ndarray,
        enabled_rows: np.ndarray,
        base_offset: int,
    ):
        simulator = self._simulator
        counts = popcount_rows(matched_rows)
        self.stats.total_matched_states += int(counts.sum())
        if self.collect_cycle_stats:
            self.stats.matched_per_cycle.extend(counts.tolist())
        if simulator.mapping.partition_count == 0:
            return

        activity = simulator._partition_any(enabled_rows)
        partition_activations = int(np.count_nonzero(activity))
        if self.partition_counts is not None:
            self.partition_counts += activity.sum(axis=0, dtype=np.int64)

        g1_crossings = g4_crossings = 0
        g1_switches = g4_switches = 0
        g1_rows = matched_rows & simulator._g1_row
        if g1_rows.any():
            g1_crossings = int(popcount_rows(g1_rows).sum())
            g1_switches = simulator._switches_hit(g1_rows, simulator._way_starts)
        g4_rows = matched_rows & simulator._g4_row
        if g4_rows.any():
            g4_crossings = int(popcount_rows(g4_rows).sum())
            g4_switches = simulator._switches_hit(g4_rows, simulator._domain_starts)

        report_count = 0
        reporting_rows = matched_rows & simulator._kernel.report_row
        report_counts = popcount_rows(reporting_rows)
        report_cycles = np.flatnonzero(report_counts)
        if report_cycles.size:
            report_count = int(report_counts.sum())
            for cycle in report_cycles:
                cycle = int(cycle)
                offset = base_offset + cycle
                self.buffer_model.record(int(report_counts[cycle]))
                if self.collect_reports:
                    simulator.decoder.emit(
                        reporting_rows[cycle].tobytes(), offset, self.reports
                    )
                if self.collect_records:
                    simulator._emit_records(
                        reporting_rows[cycle],
                        matched_rows[cycle],
                        int(sym[cycle]),
                        offset,
                        self.output_records,
                    )
        self.profile.add_activity(
            partition_activations=partition_activations,
            g1_crossings=g1_crossings,
            g4_crossings=g4_crossings,
            g1_switch_activations=g1_switches,
            g4_switch_activations=g4_switches,
            reports=report_count,
        )

    def finish(self, symbols: int, checkpoint: Checkpoint) -> ScanResult:
        self.stats.symbols_processed = symbols
        self.profile.add_activity(symbols=symbols)
        return ScanResult(
            self.reports, self.profile, checkpoint, self.stats,
            self.buffer_model,
            partition_activation_counts=self.partition_counts,
            output_records=self.output_records,
        )


class MappedSimulator:
    """Cycle-functional simulator over a compiled mapping."""

    def __init__(self, mapping: Mapping):
        self.mapping = mapping
        partition_size = mapping.design.partition_size
        partition_count = mapping.partition_count

        self._init_span_geometry()
        bit_of = placement_bits(mapping)
        self._kernel = BitsetKernel.from_automaton(
            mapping.automaton, bit_of, partition_count * partition_size
        )
        # Sources of partition-crossing edges drive a G1 (within-way) or
        # G4 (cross-way) wire; a good mapping has few of them.
        arrays = mapping.automaton.edge_index_arrays()
        crossing, same_way = mapping.crossing_edges()
        g1_sources = 0
        g4_sources = 0
        for position, within_way in zip(
            arrays.sources[crossing].tolist(), same_way.tolist()
        ):
            bit = 1 << bit_of[arrays.ids[position]]
            if within_way:
                g1_sources |= bit
            else:
                g4_sources |= bit
        self._g1_row = self._kernel.pack(g1_sources)
        self._g1_row.setflags(write=False)
        self._g4_row = self._kernel.pack(g4_sources)
        self._g4_row.setflags(write=False)
        self._init_way_groups()

    def _init_span_geometry(self):
        """Span geometry and the report decoder (both construction paths)."""
        design = self.mapping.design
        partition_size = design.partition_size
        self._span_bits = partition_size
        self._span_bytes = (partition_size + 7) // 8
        if partition_size % 8:
            raise SimulationError("partition size must be byte-aligned")
        self._span_words = partition_size // 64 if partition_size % 64 == 0 else 0
        self._mask_bytes = self.mapping.partition_count * partition_size // 8
        # Reporting rows -> report identities in placement bit order; the
        # bit -> rank array is built on the first report, so rebuilding
        # from cached tables stays free of per-state Python loops.
        positions = partial(placement_positions, self.mapping)
        self.decoder = ReportDecoder(self.mapping.automaton, positions)

    def _init_way_groups(self):
        # Way id per partition, for per-way G-switch activation counting;
        # group boundaries for the batched "distinct ways hit per cycle"
        # reduction: partitions sorted (stably) by way / by G4 domain.
        self._partition_ways = self.mapping.ways.astype(np.int64)
        if self.mapping.partition_count:
            order = np.argsort(self._partition_ways, kind="stable")
            self._way_order = order
            sorted_ways = self._partition_ways[order]
            self._way_starts = np.flatnonzero(
                np.r_[True, np.diff(sorted_ways) != 0]
            )
            sorted_domains = sorted_ways // 4
            self._domain_starts = np.flatnonzero(
                np.r_[True, np.diff(sorted_domains) != 0]
            )
        else:
            self._way_order = np.zeros(0, dtype=np.int64)
            self._way_starts = np.zeros(0, dtype=np.int64)
            self._domain_starts = np.zeros(0, dtype=np.int64)

    @property
    def kernel(self) -> BitsetKernel:
        """The packed-bitset kernel executing this mapping (read-mostly;
        used by the fault-injection harness in :mod:`repro.faults`)."""
        return self._kernel

    def cache_info(self) -> dict:
        """Hit/miss/flush counters of the kernel's memoisation layers
        (see :meth:`repro.sim.kernel.BitsetKernel.cache_info`)."""
        return self._kernel.cache_info()

    # -- packed-table round-trip ------------------------------------------

    def packed_tables(self) -> dict:
        """All packed tables needed to rebuild this simulator without
        touching the automaton again (see :meth:`from_cached`)."""
        tables = dict(self._kernel.packed_tables())
        tables["g1_row"] = self._g1_row
        tables["g4_row"] = self._g4_row
        return tables

    @classmethod
    def from_cached(cls, mapping: Mapping, tables: dict) -> "MappedSimulator":
        """Rebuild a simulator from :meth:`packed_tables` output.

        Skips every per-state Python loop of regular construction.
        """
        self = cls.__new__(cls)
        self.mapping = mapping
        self._init_span_geometry()
        self._kernel = BitsetKernel.from_packed(tables)  # reads its own keys
        self._g1_row = np.ascontiguousarray(tables["g1_row"])
        self._g1_row.setflags(write=False)
        self._g4_row = np.ascontiguousarray(tables["g4_row"])
        self._g4_row.setflags(write=False)
        self._init_way_groups()
        return self

    # -- packed-history helpers -------------------------------------------

    def _partition_any(self, rows: np.ndarray) -> np.ndarray:
        """Boolean (cycles, partitions) 'any set bit in the span' matrix.

        The span's words (or bytes) are ORed one at a time: ``.any()``
        over a short innermost axis is several times slower (8x on
        Hamming's 20 spans of four words)."""
        cycles = rows.shape[0]
        partitions = self.mapping.partition_count
        if self._span_words:
            spans = rows.reshape(cycles, partitions, self._span_words)
        else:
            spans = (
                np.ascontiguousarray(rows)
                .view(np.uint8)[:, : self._mask_bytes]
                .reshape(cycles, partitions, self._span_bytes)
            )
        seen = spans[:, :, 0].copy()
        for index in range(1, spans.shape[2]):
            seen |= spans[:, :, index]
        return seen != 0

    def _switches_hit(self, rows: np.ndarray, group_starts: np.ndarray) -> int:
        """Sum over cycles of switch groups with >= 1 active partition."""
        activity = self._partition_any(rows)[:, self._way_order]
        hits = np.logical_or.reduceat(activity, group_starts, axis=1)
        return int(np.count_nonzero(hits))

    def _emit_records(
        self,
        reporting_row: np.ndarray,
        matched_row: np.ndarray,
        symbol: int,
        offset: int,
        output_records: List[OutputRecord],
    ):
        matched_bytes = np.ascontiguousarray(matched_row).tobytes()
        active = self._partition_any(reporting_row.reshape(1, -1))[0]
        for partition in np.flatnonzero(active):
            partition = int(partition)
            span = matched_bytes[
                partition * self._span_bytes : (partition + 1) * self._span_bytes
            ]
            output_records.append(
                OutputRecord(
                    partition, int.from_bytes(span, "little"), symbol, offset
                )
            )

    # -- simulation --------------------------------------------------------

    def run(
        self,
        data: bytes,
        *,
        collect_reports: bool = True,
        resume: Optional[Checkpoint] = None,
        collect_partition_stats: bool = False,
        collect_records: bool = False,
        collect_cycle_stats: bool = False,
    ) -> ScanResult:
        """Process ``data``, returning reports, stats, and activity profile.

        ``resume`` continues a suspended stream from a previous run's
        ``checkpoint`` (the active-state vector plus the global symbol
        counter, per Section 2.9); report offsets stay global.

        ``collect_partition_stats`` additionally accumulates per-partition
        activation counts (for utilisation heat maps / hot-spot analysis);
        ``collect_records`` materialises the Section 2.8 output-buffer
        entries (partition id + active-state mask + symbol + counter);
        ``collect_cycle_stats`` keeps the per-cycle matched-state counts,
        mirroring the golden simulator's flag.
        """
        accumulator = _RunAccumulator(
            self,
            collect_reports=collect_reports,
            collect_partition_stats=collect_partition_stats,
            collect_records=collect_records,
            collect_cycle_stats=collect_cycle_stats,
        )
        symbols, checkpoint = self._kernel.drive(
            data, resume, accumulator.add, enabled_history=True
        )
        return accumulator.finish(symbols, checkpoint)

    def run_many(
        self,
        streams: Sequence[bytes],
        *,
        resumes: Optional[Sequence[Optional[Checkpoint]]] = None,
        **collect,
    ) -> List[ScanResult]:
        """Run several independent streams on this simulator's kernel.

        This is the Section 6 multi-stream scenario: every stream scans
        the same compiled automaton, so they share one packed kernel —
        the match matrix, the memoised propagation table, and the idle
        fast-path tables all warm up once and serve the whole batch (a
        propagation pattern any stream has visited is a dictionary hit
        for all of them).  Each stream is one :meth:`run`, so per-stream
        throughput matches the solo path and results are bit-for-bit
        those of running each stream on its own.  An earlier revision
        advanced all streams in cycle lockstep through ``(streams,
        words)`` matrix rows; that paid 3-D slicing overhead every cycle,
        disabled the idle fast path (all streams are rarely idle
        *simultaneously*), and amortised nothing the shared propagation
        table did not already amortise — aggregate throughput trailed the
        solo path by ~20%.  ``resumes`` optionally supplies one
        checkpoint (or ``None``) per stream; the ``collect_*`` flags
        are :meth:`run`'s.
        """
        streams = list(streams)
        resumes = require_resume_count(resumes, len(streams))
        return [
            self.run(stream, resume=resume, **collect)
            for stream, resume in zip(streams, resumes)
        ]


def simulate_mapping(
    mapping: Mapping, data: bytes, **kwargs
) -> ScanResult:
    """One-shot convenience wrapper around :class:`MappedSimulator`."""
    return MappedSimulator(mapping).run(data, **kwargs)
