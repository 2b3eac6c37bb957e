"""Mapping utilisation, activity, and compile-phase profiling reports.

Turns a compiled mapping plus a simulated run into the reports a system
operator would want: per-partition fill and activity (which arrays burn
power), per-way load, and the energy attribution between array accesses,
local switches, global switches, and wires.  :func:`profile_compile`
additionally times the compiler itself, phase by phase (validate /
components / pack / split / place / check / bitstream, with the split
phase further attributed to coarsening and FM refinement), so compile-
time optimisation work has a measured breakdown to aim at.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.automata.anml import HomogeneousAutomaton
from repro.compiler.bitstream import generate
from repro.compiler.constraints import check
from repro.compiler.mapping import Compiler, Mapping
from repro.core.design import DesignPoint
from repro.core.energy import ActivityProfile, EnergyModel
from repro.errors import SimulationError
from repro.sim.functional import MappedSimulator
from repro.sim.kernel import ScanResult


@dataclass(frozen=True)
class PartitionActivity:
    """One partition's occupancy and dynamic activity."""

    index: int
    way: int
    occupancy: int
    capacity: int
    activation_cycles: int
    total_cycles: int

    @property
    def fill_fraction(self) -> float:
        return self.occupancy / self.capacity if self.capacity else 0.0

    @property
    def duty_cycle(self) -> float:
        """Fraction of cycles this partition's array was accessed."""
        if self.total_cycles == 0:
            return 0.0
        return self.activation_cycles / self.total_cycles


@dataclass(frozen=True)
class EnergyBreakdown:
    """Where the per-symbol energy goes (array / L / G / wires), in pJ."""

    array_pj: float
    l_switch_pj: float
    g_switch_pj: float
    wire_pj: float

    @property
    def total_pj(self) -> float:
        return self.array_pj + self.l_switch_pj + self.g_switch_pj + self.wire_pj

    def rows(self) -> List[tuple]:
        total = self.total_pj or 1.0
        return [
            ("Component", "pJ/symbol", "Share"),
            ("SRAM array reads", self.array_pj, f"{self.array_pj/total:.0%}"),
            ("L-switches", self.l_switch_pj, f"{self.l_switch_pj/total:.0%}"),
            ("G-switches", self.g_switch_pj, f"{self.g_switch_pj/total:.0%}"),
            ("global wires", self.wire_pj, f"{self.wire_pj/total:.0%}"),
        ]


def profile_mapping(
    mapping: Mapping, data: bytes, *, simulator: Optional[MappedSimulator] = None
) -> ScanResult:
    """Run the mapped simulation with per-partition stats enabled."""
    simulator = simulator or MappedSimulator(mapping)
    return simulator.run(data, collect_reports=False, collect_partition_stats=True)


def partition_activity(
    mapping: Mapping, result: ScanResult
) -> List[PartitionActivity]:
    """Per-partition fill + duty-cycle table from a profiled run."""
    if result.partition_activation_counts is None:
        raise SimulationError(
            "run was not profiled; use profile_mapping() or pass "
            "collect_partition_stats=True"
        )
    counts = result.partition_activation_counts
    return [
        PartitionActivity(
            index=partition.index,
            way=partition.way,
            occupancy=partition.occupancy,
            capacity=mapping.design.partition_size,
            activation_cycles=int(counts[partition.index]),
            total_cycles=result.profile.symbols,
        )
        for partition in mapping.partitions
    ]


def way_load(activities: List[PartitionActivity]) -> List[tuple]:
    """Aggregate duty cycle per way (where does the power concentrate)."""
    ways = sorted({activity.way for activity in activities})
    rows = [("Way", "Partitions", "Mean duty cycle", "Max duty cycle")]
    for way in ways:
        members = [a for a in activities if a.way == way]
        duties = [a.duty_cycle for a in members]
        rows.append((
            way, len(members), sum(duties) / len(duties), max(duties)
        ))
    return rows


def energy_breakdown(
    mapping: Mapping, profile: ActivityProfile
) -> EnergyBreakdown:
    """Attribute the measured per-symbol energy to hardware components."""
    if profile.symbols == 0:
        raise SimulationError("profile covers no symbols")
    model = EnergyModel(mapping.design)
    symbols = profile.symbols
    array_pj = profile.partition_activations * model.sram.access_energy_pj / symbols
    l_switch_pj = (
        profile.partition_activations
        * mapping.design.l_switch.access_energy_pj
        / symbols
    )
    g_switch_pj = (
        profile.g1_switch_activations * model.g1_event_pj
        + profile.g4_switch_activations * model.g4_event_pj
    ) / symbols
    wire_pj = (
        profile.g1_crossings * model.g1_wire_pj_per_crossing
        + profile.g4_crossings * model.g4_wire_pj_per_crossing
    ) / symbols
    return EnergyBreakdown(array_pj, l_switch_pj, g_switch_pj, wire_pj)


def hottest_partitions(
    activities: List[PartitionActivity], count: int = 5
) -> List[PartitionActivity]:
    """The partitions with the highest duty cycles (power hot spots)."""
    return sorted(activities, key=lambda a: a.duty_cycle, reverse=True)[:count]


def utilisation_report(
    mapping: Mapping, result: ScanResult
) -> List[tuple]:
    """A per-partition table: fill, duty cycle, way."""
    rows = [("Partition", "Way", "STEs", "Fill", "Duty cycle")]
    for activity in partition_activity(mapping, result):
        rows.append((
            activity.index,
            activity.way,
            activity.occupancy,
            f"{activity.fill_fraction:.0%}",
            f"{activity.duty_cycle:.1%}",
        ))
    return rows


# -- compile-phase profiling --------------------------------------------------

#: Phase display order for :meth:`CompileProfile.rows`.
_PHASE_ORDER = (
    "validate",
    "components",
    "pack",
    "split",
    "split:coarsen",
    "split:refine",
    "place",
    "check",
    "bitstream",
)


@dataclass(frozen=True)
class CompileProfile:
    """Wall-clock attribution of one cold compile, in milliseconds.

    ``phases`` maps phase name to milliseconds.  The ``split:coarsen``
    and ``split:refine`` entries are *components of* ``split`` (graph
    coarsening and FM refinement inside the k-way bisector), not
    additional time; the bisection bookkeeping between them is
    ``split`` minus their sum.
    """

    phases: Dict[str, float]
    states: int
    partitions: int

    @property
    def total_ms(self) -> float:
        return sum(
            duration
            for name, duration in self.phases.items()
            if not name.startswith("split:")
        )

    def rows(self) -> List[tuple]:
        """A printable table, slowest-first ordering preserved by phase."""
        rows = [("Phase", "ms", "Share")]
        total = self.total_ms or 1.0
        for name in _PHASE_ORDER:
            if name not in self.phases:
                continue
            duration = self.phases[name]
            share = "" if name.startswith("split:") else f"{duration/total:.0%}"
            label = "  " + name if name.startswith("split:") else name
            rows.append((label, round(duration, 3), share))
        rows.append(("total", round(self.total_ms, 3), "100%"))
        return rows


def profile_compile(
    automaton: HomogeneousAutomaton,
    design: DesignPoint,
    *,
    include_bitstream: bool = True,
) -> Tuple[CompileProfile, Mapping]:
    """Compile ``automaton`` cold and attribute the wall-clock per phase.

    Runs the compiler single-process (``jobs=1``) so the coarsen/refine
    sub-phase timers — installed by temporarily wrapping the k-way
    bisector's references — observe every split instead of only the ones
    that stay in the parent process.  Returns the profile and the
    resulting mapping (already constraint-checked).
    """
    from repro.partitioning import kway

    clock = time.perf_counter
    sub_totals = {"coarsen": 0.0, "refine": 0.0}

    def _timed(name, func):
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                sub_totals[name] += clock() - started

        return wrapper

    original_coarsen = kway.coarsen
    original_refine = kway.refine_bisection
    kway.coarsen = _timed("coarsen", original_coarsen)
    kway.refine_bisection = _timed("refine", original_refine)
    try:
        compiler = Compiler(design, jobs=1)
        mapping = compiler.compile(automaton)
    finally:
        kway.coarsen = original_coarsen
        kway.refine_bisection = original_refine

    phases = {
        name: duration * 1e3
        for name, duration in compiler.last_phase_timings.items()
    }
    phases["split:coarsen"] = sub_totals["coarsen"] * 1e3
    phases["split:refine"] = sub_totals["refine"] * 1e3

    started = clock()
    check(mapping)
    phases["check"] = (clock() - started) * 1e3

    if include_bitstream:
        started = clock()
        generate(mapping)
        phases["bitstream"] = (clock() - started) * 1e3

    return (
        CompileProfile(
            phases=phases,
            states=len(automaton),
            partitions=mapping.partition_count,
        ),
        mapping,
    )
