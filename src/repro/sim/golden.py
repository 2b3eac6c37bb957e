"""Golden reference interpreter for homogeneous automata.

This is the reproduction's stand-in for VASim: a functional, hardware-
agnostic interpreter defining the ground-truth semantics that the mapped
Cache Automaton simulation (:mod:`repro.sim.functional`) must reproduce
bit-for-bit.

Semantics per input symbol (Micron AP / ANML convention):

1. *enabled* = successors of last cycle's matched states, plus all-input
   start states, plus start-of-data start states on the first symbol;
2. *matched* = enabled states whose label contains the symbol;
3. every matched reporting state emits a report record for this offset.

Execution runs on the packed-bitset kernel (:mod:`repro.sim.kernel`):
state sets are ``uint64`` word arrays, each chunk of input gathers its
match candidates from a ``(256, words)`` match matrix in one shot, and a
non-idle cycle is either one ``take`` of the kernel's per-component step
tables (learned from per-bit successor ints of a precomputed successor
table) or, when the automaton's edges fall in a few bit offsets of this
simulator's bit order, a handful of shifts on Python ints — so each
cycle costs a few fixed-size operations instead of per-state Python
work, and idle stretches of the input are skipped in whole vectorised
slices.  Both ways run the same ``run_chunk`` as the mapped simulator, so the kernel's
tests compare it with an interpreter that shares no kernel code.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.automata.anml import HomogeneousAutomaton
from repro.sim.kernel import (  # Checkpoint, Report, RunStats: re-exported
    BitsetKernel,
    Checkpoint,
    Report,
    ReportDecoder,
    RunStats,
    ScanResult,
    popcount_rows,
)

#: :attr:`Checkpoint.dialect` of checkpoints :class:`GoldenSimulator`
#: itself writes and reads: bit = position in ``automaton.ste_ids()``.
#: The simulator knows no placement — it is the reference, and must not
#: be poisonable by one — so the portable placement layout is the
#: business of its backend adapter (:mod:`repro.backends.golden`).
AUTOMATON_ORDER = "automaton-order"


class GoldenSimulator:
    """Reference interpreter over a fixed automaton (reusable across runs)."""

    def __init__(self, automaton: HomogeneousAutomaton):
        automaton.validate()
        self.automaton = automaton
        ids = automaton.ste_ids()
        #: STE id -> bit of this simulator's state vector.
        self.bit_of: Dict[str, int] = {s: bit for bit, s in enumerate(ids)}
        self._kernel = BitsetKernel.from_automaton(automaton, self.bit_of, len(ids))
        self._kernel.dialect = AUTOMATON_ORDER
        self._decoder = ReportDecoder(automaton, lambda: automaton._array_form().order)

    def run(
        self,
        data: bytes,
        *,
        collect_reports: bool = True,
        collect_cycle_stats: bool = False,
        resume: Optional[Checkpoint] = None,
    ) -> ScanResult:
        """Process ``data`` and return reports plus activity statistics.

        ``collect_reports=False`` skips report materialisation (useful for
        very long activity-profiling runs; ``profile.reports`` still
        counts the firings); ``collect_cycle_stats`` keeps the full per-cycle
        matched-state counts, not just the total.

        Passing a previous run's ``checkpoint`` as ``resume`` continues a
        suspended stream: report offsets stay global, and splitting a
        stream at any point yields exactly the reports of one long run.
        Entry, the chunk loop and exit are the kernel's
        (:meth:`~repro.sim.kernel.BitsetKernel.drive`).
        """
        kernel = self._kernel
        reports: List[Report] = []
        stats = RunStats()
        report_count = 0

        def on_chunk(sym, matched_rows, _enabled_rows, offset):
            nonlocal report_count
            counts = popcount_rows(matched_rows)
            stats.total_matched_states += int(counts.sum())
            if collect_cycle_stats:
                stats.matched_per_cycle.extend(counts.tolist())
            reporting_rows = matched_rows & kernel.report_row
            fired = popcount_rows(reporting_rows)
            report_count += int(fired.sum())
            if collect_reports:
                for cycle in np.flatnonzero(fired).tolist():
                    self._decoder.emit(
                        reporting_rows[cycle].tobytes(),
                        offset + cycle,
                        reports,
                    )

        stats.symbols_processed, checkpoint = kernel.drive(
            data, resume, on_chunk
        )
        return ScanResult.counted(
            reports,
            symbols=stats.symbols_processed,
            report_count=report_count,
            checkpoint=checkpoint,
            stats=stats,
        )


def simulate(automaton: HomogeneousAutomaton, data: bytes, **kwargs) -> ScanResult:
    """One-shot convenience wrapper around :class:`GoldenSimulator`."""
    return GoldenSimulator(automaton).run(data, **kwargs)


def match_offsets(automaton: HomogeneousAutomaton, data: bytes) -> List[int]:
    """Sorted distinct offsets at which any reporting state fires."""
    return simulate(automaton, data).report_offsets()


def average_active_states(
    automaton: HomogeneousAutomaton, data: bytes
) -> float:
    """Table 1's *Avg. Active States* metric for ``automaton`` on ``data``."""
    result = simulate(automaton, data, collect_reports=False)
    return result.stats.average_active_states
