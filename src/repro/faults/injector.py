"""Seeded fault injection and detection over a compiled mapping.

:class:`FaultInjector` turns per-subsystem rates into a deterministic
plan of :class:`~repro.faults.models.FaultEvent`\\ s; :func:`draw_event`
draws exactly one event for a chosen site (the campaign runner's
one-fault-per-trial mode, which keeps outcome attribution unambiguous).

:class:`FaultySimulator` executes a :class:`~repro.sim.functional.
MappedSimulator`'s packed kernel under a set of events:

* persistent crossbar faults become a perturbed kernel
  (:meth:`~repro.sim.kernel.BitsetKernel.with_faults`): stuck-at-0
  cross-points drop successor-table edges, stuck-at-1 enable wires
  promote their state to an all-input start;
* transient match flips XOR single bits into the raw match-vector reads
  before the enabled-AND, exactly where a sense-amplifier upset lands;
* transient state faults set/clear one bit of the pending activation
  vector between cycles.

Detection is a per-column parity check: the golden parity of every
match-matrix row is computed at configuration time
(:meth:`~repro.sim.kernel.BitsetKernel.match_parity`) and each faulted
read is re-checked against it, so any odd-weight match upset is caught.
Execution uses the plain per-cycle reference recurrence (memoised
propagation, but *no* idle fast path): the fast path's escape tables
are built from the unfaulted match matrix and would teleport over
injected faults, so the harness refuses to take shortcuts.  Its
unfaulted run is asserted against the golden interpreter by the
campaign runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import FaultError
from repro.faults.models import (
    DETECTED,
    MASKED,
    SDC,
    FaultConfig,
    FaultEvent,
    FaultSite,
)
from repro.sim.functional import MappedSimulator
from repro.sim.kernel import CHUNK_SYMBOLS, as_symbols, placement_bits, popcount_rows


def draw_event(
    rng: np.random.Generator,
    site: FaultSite,
    config: FaultConfig,
    n_symbols: int,
    bits: np.ndarray,
    edges: Sequence[Tuple[int, int]],
) -> FaultEvent:
    """Draw one fault event for ``site`` (uniform over its coordinates).

    ``bits`` are the occupied state-bit indices and ``edges`` the
    ``(source_bit, target_bit)`` transition list of the mapping under
    test; ``config`` decides which kinds are in play at the site.
    """
    if bits.size == 0:
        raise FaultError("cannot inject into an automaton with no states")
    if site is FaultSite.MATCH:
        if n_symbols <= 0:
            raise FaultError("transient faults need a non-empty input")
        return FaultEvent(
            site, "flip",
            int(rng.integers(n_symbols)), int(bits[rng.integers(bits.size)]),
        ).validate()
    if site is FaultSite.STATE:
        if n_symbols <= 0:
            raise FaultError("transient faults need a non-empty input")
        kinds = [
            kind
            for kind, rate in (
                ("drop", config.state_drop_rate),
                ("ghost", config.state_ghost_rate),
            )
            if rate > 0
        ] or ["drop", "ghost"]
        kind = kinds[int(rng.integers(len(kinds)))]
        return FaultEvent(
            site, kind,
            int(rng.integers(n_symbols)), int(bits[rng.integers(bits.size)]),
        ).validate()
    kinds = [
        kind
        for kind, rate in (
            ("stuck0", config.crossbar_stuck0_rate),
            ("stuck1", config.crossbar_stuck1_rate),
        )
        if rate > 0
    ] or ["stuck0", "stuck1"]
    if not edges:
        kinds = [kind for kind in kinds if kind != "stuck0"]
        if not kinds:
            raise FaultError("no edges to inject stuck-at-0 faults into")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "stuck0":
        source, target = edges[int(rng.integers(len(edges)))]
        return FaultEvent(site, "stuck0", -1, source, target).validate()
    return FaultEvent(
        site, "stuck1", -1, int(bits[rng.integers(bits.size)])
    ).validate()


class FaultInjector:
    """Plans deterministic fault events from per-subsystem rates.

    The same ``(config, input length, target)`` always yields the same
    plan: all randomness flows through one ``numpy`` generator seeded
    with ``config.seed``.
    """

    def __init__(self, config: FaultConfig):
        self.config = config.validate()

    def plan(
        self,
        n_symbols: int,
        bits: np.ndarray,
        edges: Sequence[Tuple[int, int]],
    ) -> Tuple[FaultEvent, ...]:
        """Rate-driven plan: transient counts are binomial in the stream
        length, stuck-at faults one coin per cross-point / enable wire."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        events: List[FaultEvent] = []
        if bits.size == 0:
            return ()
        for site, kind, rate in (
            (FaultSite.MATCH, "flip", config.match_flip_rate),
            (FaultSite.STATE, "drop", config.state_drop_rate),
            (FaultSite.STATE, "ghost", config.state_ghost_rate),
        ):
            if rate <= 0 or n_symbols == 0:
                continue
            count = int(rng.binomial(n_symbols, rate))
            cycles = rng.integers(0, n_symbols, size=count)
            chosen = bits[rng.integers(0, bits.size, size=count)]
            events.extend(
                FaultEvent(site, kind, int(cycle), int(bit)).validate()
                for cycle, bit in zip(cycles, chosen)
            )
        if config.crossbar_stuck0_rate > 0 and edges:
            struck = np.flatnonzero(
                rng.random(len(edges)) < config.crossbar_stuck0_rate
            )
            events.extend(
                FaultEvent(
                    FaultSite.CROSSBAR, "stuck0", -1,
                    edges[index][0], edges[index][1],
                ).validate()
                for index in struck.tolist()
            )
        if config.crossbar_stuck1_rate > 0:
            struck = np.flatnonzero(
                rng.random(bits.size) < config.crossbar_stuck1_rate
            )
            events.extend(
                FaultEvent(
                    FaultSite.CROSSBAR, "stuck1", -1, int(bits[index])
                ).validate()
                for index in struck.tolist()
            )
        return tuple(events)


@dataclass(frozen=True)
class FaultRunReport:
    """Outcome-relevant record of one (possibly faulted) run.

    ``signature`` pins the exact report stream — one ``(offset, packed
    reporting-row bytes)`` pair per reporting cycle — so comparing two
    runs compares every report's offset *and* identity.  ``detected``
    lists the cycles at which the match-vector parity check fired.
    """

    signature: Tuple[Tuple[int, bytes], ...]
    detected: Tuple[int, ...]
    events: Tuple[FaultEvent, ...]

    def report_offsets(self) -> List[int]:
        return sorted({offset for offset, _ in self.signature})


def classify(report: FaultRunReport, reference: FaultRunReport) -> str:
    """masked / detected / sdc for one faulted run vs its clean reference."""
    if report.detected:
        return DETECTED
    return MASKED if report.signature == reference.signature else SDC


class FaultySimulator:
    """Drives a compiled mapping's kernel under injected faults."""

    def __init__(self, simulator: MappedSimulator):
        self._kernel = simulator.kernel
        self._parity = self._kernel.match_parity()
        bit_of = placement_bits(simulator.mapping)
        #: Occupied state-bit indices (injection targets; padding slots
        #: hold no automaton state, so faults there are trivially masked).
        self.state_bits = np.array(sorted(bit_of.values()), dtype=np.int64)
        #: Transitions as (source_bit, target_bit), in automaton order.
        self.edge_bits: List[Tuple[int, int]] = [
            (bit_of[source], bit_of[target])
            for source, target in simulator.mapping.automaton.edges()
        ]

    def run(
        self, data: bytes, events: Sequence[FaultEvent] = ()
    ) -> FaultRunReport:
        """Scan ``data`` with ``events`` injected; see the module doc."""
        symbols = as_symbols(data)
        drop_edges = []
        stuck_high = []
        match_flips: Dict[int, List[int]] = {}
        state_faults: Dict[int, List[Tuple[str, int]]] = {}
        for event in events:
            event.validate()
            if event.kind == "stuck0":
                drop_edges.append((event.bit, event.target))
            elif event.kind == "stuck1":
                stuck_high.append(event.bit)
            elif event.kind == "flip":
                match_flips.setdefault(event.cycle, []).append(event.bit)
            else:
                state_faults.setdefault(event.cycle, []).append(
                    (event.kind, event.bit)
                )
        kernel = self._kernel
        if drop_edges or stuck_high:
            kernel = kernel.with_faults(
                drop_edges=tuple(drop_edges),
                stuck_high_bits=tuple(stuck_high),
            )

        signature: List[Tuple[int, bytes]] = []
        detected: List[int] = []
        prev, prev_nonzero, sod, _ = kernel.enter(None)
        start_row = kernel.start_all_row
        report_row = kernel.report_row
        for start in range(0, len(symbols), CHUNK_SYMBOLS):
            sym = symbols[start : start + CHUNK_SYMBOLS]
            matched = kernel.match_matrix[sym]
            for cycle, bits in match_flips.items():
                if start <= cycle < start + len(sym):
                    for bit in bits:
                        matched[cycle - start, bit >> 6] ^= np.uint64(
                            1 << (bit & 63)
                        )
            # Per-column parity of the raw reads, against the golden table.
            parity = (popcount_rows(matched) & 1).astype(np.uint8)
            for cycle in np.flatnonzero(parity != self._parity[sym]):
                detected.append(start + int(cycle))
            for i in range(len(sym)):
                for kind, bit in state_faults.get(start + i, ()):
                    if not prev.flags.writeable:
                        prev = prev.copy()
                    mask = np.uint64(1 << (bit & 63))
                    if kind == "drop":
                        prev[bit >> 6] &= ~mask
                    else:
                        prev[bit >> 6] |= mask
                    prev_nonzero = bool(prev.any())
                mrow = matched[i]
                if prev_nonzero or sod:
                    erow = np.bitwise_or(prev, start_row)
                    if sod:
                        erow |= kernel.start_sod_row
                        sod = False
                    mrow &= erow
                else:
                    mrow &= start_row
                reporting = mrow & report_row
                if reporting.any():
                    signature.append((start + i, reporting.tobytes()))
                prev, prev_nonzero = kernel.propagate(mrow)
        return FaultRunReport(
            tuple(signature), tuple(detected), tuple(events)
        )
