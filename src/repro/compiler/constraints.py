"""Interconnect wire-budget validation for compiled mappings.

The hierarchical interconnect gives every partition a fixed number of
global wires (Section 2.4): ``g1`` wires carry signals to/from other
partitions of the same way, ``g4`` wires to/from partitions of other
ways.  A *signal* is one source STE's match line — one wire fans out to
any number of destinations inside the G-switch, so the budget constrains
distinct boundary-crossing *source states* per partition, in each
direction (the L-switch also has only ``g1 + g4`` returning inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.compiler.mapping import Mapping
from repro.errors import ConnectivityError


@dataclass
class PartitionWireUsage:
    """Distinct crossing signals at one partition's boundary."""

    out_g1: Set[str] = field(default_factory=set)
    out_g4: Set[str] = field(default_factory=set)
    in_g1: Set[str] = field(default_factory=set)
    in_g4: Set[str] = field(default_factory=set)


@dataclass
class ConstraintReport:
    """Wire usage across all partitions, against the design budget."""

    usage: List[PartitionWireUsage]
    g1_budget: int
    g4_budget: int

    @property
    def max_out_g1(self) -> int:
        return max((len(u.out_g1) for u in self.usage), default=0)

    @property
    def max_out_g4(self) -> int:
        return max((len(u.out_g4) for u in self.usage), default=0)

    @property
    def max_in_g1(self) -> int:
        return max((len(u.in_g1) for u in self.usage), default=0)

    @property
    def max_in_g4(self) -> int:
        return max((len(u.in_g4) for u in self.usage), default=0)

    def violations(self) -> List[str]:
        problems = []
        for index, usage in enumerate(self.usage):
            if len(usage.out_g1) > self.g1_budget:
                problems.append(
                    f"partition {index}: {len(usage.out_g1)} outgoing within-way "
                    f"signals exceed the {self.g1_budget}-wire G1 budget"
                )
            if len(usage.in_g1) > self.g1_budget:
                problems.append(
                    f"partition {index}: {len(usage.in_g1)} incoming within-way "
                    f"signals exceed the {self.g1_budget}-wire G1 budget"
                )
            if len(usage.out_g4) > self.g4_budget:
                problems.append(
                    f"partition {index}: {len(usage.out_g4)} outgoing cross-way "
                    f"signals exceed the {self.g4_budget}-wire G4 budget"
                )
            if len(usage.in_g4) > self.g4_budget:
                problems.append(
                    f"partition {index}: {len(usage.in_g4)} incoming cross-way "
                    f"signals exceed the {self.g4_budget}-wire G4 budget"
                )
        return problems

    @property
    def satisfied(self) -> bool:
        return not self.violations()


def analyse(mapping: Mapping) -> ConstraintReport:
    """Measure every partition's boundary wire usage.

    Partition-crossing edges come from one vectorised comparison
    (:meth:`Mapping.crossing_edges`); only those few edges (their count
    is bounded by the wire budgets when the mapping is any good) fall
    back to per-edge Python to collect distinct source signals.
    """
    usage = [PartitionWireUsage() for _ in range(mapping.partition_count)]
    arrays = mapping.automaton.edge_index_arrays()
    crossing, same_way = mapping.crossing_edges()
    sources = arrays.sources[crossing]
    ids = arrays.ids
    for position, source_partition, target_partition, within_way in zip(
        sources.tolist(),
        mapping.part[sources].tolist(),
        mapping.part[arrays.targets[crossing]].tolist(),
        same_way.tolist(),
    ):
        source = ids[position]
        if within_way:
            usage[source_partition].out_g1.add(source)
            usage[target_partition].in_g1.add(source)
        else:
            usage[source_partition].out_g4.add(source)
            usage[target_partition].in_g4.add(source)
    return ConstraintReport(
        usage,
        g1_budget=mapping.design.g1_wires_per_partition,
        g4_budget=mapping.design.g4_wires_per_partition,
    )


def check(mapping: Mapping) -> ConstraintReport:
    """Validate ``mapping``; raises :class:`ConnectivityError` on violation."""
    report = analyse(mapping)
    problems = report.violations()
    if problems:
        preview = "; ".join(problems[:4])
        raise ConnectivityError(
            f"{len(problems)} wire-budget violation(s) in mapping of "
            f"{mapping.automaton.automaton_id!r} onto {mapping.design.name}: "
            f"{preview}"
        )
    return report
