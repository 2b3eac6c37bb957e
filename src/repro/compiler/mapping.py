"""The Cache Automaton compiler: NFA states -> cache partitions.

Implements Section 3.2's three-step algorithm:

1. find connected components (CCs) — each is an atomic mapping unit;
2. pack CCs no larger than a partition greedily, smallest first, filling
   each partition with as many whole CCs as fit (Section 3.3's case
   study);
3. split oversized CCs across ``k`` partitions with multilevel k-way
   graph partitioning (:mod:`repro.partitioning`, the METIS substitute),
   minimising inter-partition transitions and load-balancing states.

Partitions are then *placed* onto ways so that partitions of the same CC
share a way whenever possible (within-way G1 wires are cheaper and more
plentiful than cross-way G4 wires), and the result is validated against
the design's wire budget by :mod:`repro.compiler.constraints`.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.automata.anml import HomogeneousAutomaton
from repro.automata.components import connected_components
from repro.core.design import DesignPoint
from repro.errors import CapacityError
from repro.parallel import fan_out, resolve_jobs
from repro.partitioning import PartitionGraph, partition_into_capacity

#: Environment override for the split-and-place worker count ("1" = serial).
COMPILE_JOBS_ENV = "REPRO_COMPILE_JOBS"

#: Oversized-CC states below which process fan-out cannot pay for itself.
PARALLEL_SPLIT_MIN_STATES = 4096


def _component_seed(base_seed: int, component: List[str]) -> int:
    """Deterministic per-component partitioning seed.

    Derived from the component's member ids (not from a shared RNG
    stream), so splitting CCs concurrently — in any order, on any worker
    count — yields bit-identical assignments to the serial path.
    """
    digest = zlib.crc32("\x00".join(component).encode("utf-8"))
    return (base_seed * 0x9E3779B1 + digest) & 0xFFFFFFFF


def _component_split_payload(
    automaton: HomogeneousAutomaton, component: List[str]
) -> Tuple[int, List[Tuple[int, int]], List[str]]:
    """(node count, directed intra-CC edge list, members) for one split.

    The edges are listed in sorted order: the split follows their order,
    and a successor set's own order depends on the hash seed and on the
    order its edges were added in."""
    index = {ste_id: i for i, ste_id in enumerate(component)}
    edges: List[Tuple[int, int]] = []
    for ste_id in component:
        source = index[ste_id]
        for target in sorted(automaton.successors(ste_id)):
            if target in index and target != ste_id:
                edges.append((source, index[target]))
    return len(component), edges, component


def _split_payload_worker(
    payload: Tuple[int, List[Tuple[int, int]], List[str], int, int],
) -> List[List[str]]:
    """Split one oversized CC (module-level: workers import it by name)."""
    node_count, edges, component, capacity, seed = payload
    graph = PartitionGraph([1] * node_count)
    for source, target in edges:
        graph.add_edge(source, target, 1)
    assignment = partition_into_capacity(
        graph, capacity, rng=random.Random(seed)
    )
    parts: Dict[int, List[str]] = {}
    for node, ste_id in enumerate(component):
        parts.setdefault(assignment[node], []).append(ste_id)
    return [parts[key] for key in sorted(parts)]


@dataclass
class MappedPartition:
    """One partition: up to ``partition_size`` STEs on two SRAM arrays.

    ``way`` is a *global* way index; dividing by the design's
    ``ways_used`` yields the slice it lives in (an NFA larger than one
    slice's NFA ways spills onto further slices, whose capacity is part
    of the compiler's admission check).
    """

    index: int
    way: int
    #: Offsets of STEs within the partition, in slot order.
    ste_ids: List[str] = field(default_factory=list)

    def slot_of(self, ste_id: str) -> int:
        return self.ste_ids.index(ste_id)

    @property
    def occupancy(self) -> int:
        return len(self.ste_ids)

    def slice_index(self, ways_per_slice: int) -> int:
        return self.way // ways_per_slice

    def way_in_slice(self, ways_per_slice: int) -> int:
        return self.way % ways_per_slice


def placement_arrays(
    automaton: HomogeneousAutomaton, ste_lists: Sequence[Sequence[str]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(part, slot)`` of the placement that puts ``ste_lists[p][s]`` at
    slot ``s`` of partition ``p``, aligned with
    ``automaton.edge_index_arrays().ids``.  The lists must hold every
    state of the automaton exactly once."""
    index = automaton.edge_index_arrays().index
    sizes = np.fromiter(map(len, ste_lists), np.int32, len(ste_lists))
    positions = np.fromiter(
        map(index.__getitem__, chain.from_iterable(ste_lists)),
        np.int32,
        len(index),
    )
    part = np.empty(len(index), dtype=np.int32)
    slot = np.empty(len(index), dtype=np.int32)
    part[positions] = np.repeat(
        np.arange(len(ste_lists), dtype=np.int32), sizes
    )
    starts = np.cumsum(sizes, dtype=np.int32) - sizes
    slot[positions] = np.arange(len(index), dtype=np.int32) - np.repeat(
        starts, sizes
    )
    return part, slot


@dataclass(eq=False)
class Mapping:
    """A compiled placement of an automaton onto a Cache Automaton design.

    The placement *is* three arrays — for every STE a (partition, slot),
    for every partition a way — and that is what the compiler writes,
    the artifact cache stores and the simulator kernel reads.  The
    per-state Python views (:attr:`partitions`, :attr:`location`) are
    derived from them on first access, so a warm start that only scans
    builds neither.
    """

    design: DesignPoint
    automaton: HomogeneousAutomaton
    #: Partition index per state, aligned with
    #: ``automaton.edge_index_arrays().ids``.
    part: np.ndarray
    #: Slot within its partition per state, same alignment.
    slot: np.ndarray
    #: Global way index per partition.
    ways: np.ndarray

    @cached_property
    def partitions(self) -> List[MappedPartition]:
        """The partitions with their slot-ordered STE id lists."""
        order = np.lexsort((self.slot, self.part))
        bounds = np.searchsorted(
            self.part[order], np.arange(self.partition_count + 1)
        ).tolist()
        ids = self.automaton.edge_index_arrays().ids
        order = order.tolist()
        return [
            MappedPartition(
                index, way, [ids[position] for position in order[start:end]]
            )
            for index, (way, start, end) in enumerate(
                zip(self.ways.tolist(), bounds, bounds[1:])
            )
        ]

    @cached_property
    def location(self) -> Dict[str, Tuple[int, int]]:
        """ste id -> (partition index, slot within partition)."""
        return dict(
            zip(
                self.automaton.edge_index_arrays().ids,
                zip(self.part.tolist(), self.slot.tolist()),
            )
        )

    # -- edge classification -------------------------------------------------

    def partition_of(self, ste_id: str) -> int:
        return self.location[ste_id][0]

    def edge_kind(self, source: str, target: str) -> str:
        """'local' (same partition), 'g1' (same way), or 'g4' (cross-way)."""
        source_partition = self.partition_of(source)
        target_partition = self.partition_of(target)
        if source_partition == target_partition:
            return "local"
        if self.ways[source_partition] == self.ways[target_partition]:
            return "g1"
        return "g4"

    def crossing_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """The partition-crossing edges, as indices into the automaton's
        ``edge_index_arrays()``, and per such edge whether it stays
        within one way (G1) or crosses ways (G4)."""
        arrays = self.automaton.edge_index_arrays()
        source_partitions = self.part[arrays.sources]
        target_partitions = self.part[arrays.targets]
        crossing = np.flatnonzero(source_partitions != target_partitions)
        same_way = (
            self.ways[source_partitions[crossing]]
            == self.ways[target_partitions[crossing]]
        )
        return crossing, same_way

    def classify_edges(self) -> Dict[str, int]:
        crossing, same_way = self.crossing_edges()
        g1 = int(np.count_nonzero(same_way))
        return {
            "local": self.automaton.edge_index_arrays().sources.size
            - len(crossing),
            "g1": g1,
            "g4": len(crossing) - g1,
        }

    # -- capacity metrics ------------------------------------------------------

    @property
    def partition_count(self) -> int:
        return len(self.ways)

    @property
    def ways_used(self) -> int:
        return len(np.unique(self.ways))

    @property
    def slices_used(self) -> int:
        """LLC slices the mapping spans (NFA ways per slice from the design)."""
        return len(np.unique(self.ways // self.design.ways_used))

    def cache_bytes(self) -> int:
        """Figure 8's utilisation metric: bytes of SRAM holding STE columns."""
        return self.design.geometry.cache_bytes_for_partitions(
            self.partition_count, full_subarrays=self.design.full_subarrays
        )

    def cache_megabytes(self) -> float:
        return self.cache_bytes() / (1024.0 * 1024.0)

    def occupancy_fraction(self) -> float:
        """Mapped STEs / STE slots claimed (packing efficiency)."""
        slots = self.partition_count * self.design.partition_size
        return len(self.automaton) / slots if slots else 0.0

    def __repr__(self) -> str:
        return (
            f"Mapping({self.automaton.automaton_id!r} -> {self.design.name},"
            f" partitions={self.partition_count}, ways={self.ways_used},"
            f" {self.cache_megabytes():.3f} MB)"
        )


class Compiler:
    """Maps homogeneous automata onto a Cache Automaton design point."""

    def __init__(
        self,
        design: DesignPoint,
        *,
        rng: Optional[random.Random] = None,
        max_slices: int = 16,
        jobs: Union[int, str, None] = None,
    ):
        design.validate()
        self.design = design
        self.rng = rng or random.Random(0xCA)
        self.max_slices = max_slices
        self.jobs = jobs
        #: Wall-clock seconds per compile phase, refreshed by :meth:`compile`.
        self.last_phase_timings: Dict[str, float] = {}

    # -- public API ------------------------------------------------------------

    def compile(self, automaton: HomogeneousAutomaton) -> Mapping:
        """Produce a validated mapping (raises on infeasible automata)."""
        timings: Dict[str, float] = {}
        clock = time.perf_counter
        started = clock()
        automaton.validate()
        timings["validate"] = clock() - started

        partition_size = self.design.partition_size
        started = clock()
        components = connected_components(automaton)
        timings["components"] = clock() - started

        small = [cc for cc in components if len(cc) <= partition_size]
        large = [cc for cc in components if len(cc) > partition_size]

        # Step 2: greedy smallest-first packing of whole CCs.  components()
        # returns size-ascending order already.  First-fit with a residual
        # capacity per group, so each placement is an int compare instead
        # of re-summing the group's CC sizes.
        started = clock()
        groups: List[List[List[str]]] = []  # groups of CCs per partition
        residuals: List[int] = []
        for component in small:
            size = len(component)
            for group_index, room in enumerate(residuals):
                if size <= room:
                    groups[group_index].append(component)
                    residuals[group_index] = room - size
                    break
            else:
                groups.append([component])
                residuals.append(partition_size - size)
        packed_partitions: List[List[str]] = [
            [ste for cc in group for ste in cc] for group in groups
        ]
        timings["pack"] = clock() - started

        # Step 3: k-way split of each oversized CC; record which partitions
        # belong to the same CC so placement can co-locate them.
        started = clock()
        cc_partition_groups = self._split_components(
            automaton, large, partition_size
        )
        timings["split"] = clock() - started

        started = clock()
        mapping = self._place(automaton, packed_partitions, cc_partition_groups)
        timings["place"] = clock() - started
        self.last_phase_timings = timings
        return mapping

    # -- splitting ----------------------------------------------------------------

    def _split_components(
        self,
        automaton: HomogeneousAutomaton,
        components: List[List[str]],
        partition_size: int,
    ) -> List[List[List[str]]]:
        """Split every oversized CC, fanning out to processes when it pays.

        Each CC gets a seed derived from its own member ids (plus one base
        draw from the compiler RNG), so results are identical whatever the
        worker count or completion order; the merge preserves submission
        order, keeping the partition numbering deterministic too.
        """
        if not components:
            return []
        base_seed = self.rng.getrandbits(32)
        payloads = [
            _component_split_payload(automaton, component)
            + (partition_size, _component_seed(base_seed, component))
            for component in components
        ]
        jobs = resolve_jobs(self.jobs, COMPILE_JOBS_ENV)
        total_states = sum(payload[0] for payload in payloads)
        if (
            jobs > 1
            and len(payloads) > 1
            and total_states >= PARALLEL_SPLIT_MIN_STATES
        ):
            # None = the worker plane was unusable (already warned); an
            # exception raised inside _split_payload_worker is a compiler
            # bug or an infeasible split and has propagated.
            splits = fan_out(
                _split_payload_worker, payloads, jobs,
                what="parallel CC splitting",
            )
            if splits is not None:
                return splits
        return [_split_payload_worker(payload) for payload in payloads]

    # -- placement ----------------------------------------------------------------

    def _place(
        self,
        automaton: HomogeneousAutomaton,
        packed_partitions: List[List[str]],
        cc_partition_groups: List[List[List[str]]],
    ) -> Mapping:
        per_way = self.design.partitions_per_way
        max_partitions = per_way * self.design.ways_used * self.max_slices
        total_partitions = len(packed_partitions) + sum(
            len(group) for group in cc_partition_groups
        )
        if total_partitions > max_partitions:
            raise CapacityError(
                f"automaton needs {total_partitions} partitions but "
                f"{self.max_slices} slice(s) x {self.design.ways_used} ways "
                f"provide only {max_partitions}"
            )

        #: STE list per position of the dense way-major layout; a
        #: position's way is ``position // per_way`` and ``None`` is padding.
        layout: List[Optional[List[str]]] = []

        domain_ways = 4  # ways spanned by one G4 switch

        def allocate(ste_lists: List[List[str]], *, keep_together: bool):
            """Assign each STE list a partition; co-locate ways if asked.

            A split CC's partitions are placed contiguously from a way
            boundary so the group spans as few ways as possible; groups
            spanning several ways are additionally aligned to a 4-way
            G4-switch domain, since cross-way wires exist only inside one.
            """
            start_index = len(layout)
            needed = len(ste_lists)
            if keep_together and needed > 1:
                span_ways = -(-needed // per_way)
                if self.design.g4_wires_per_partition == 0 and span_ways > 1:
                    raise CapacityError(
                        f"a connected component needs {needed} partitions "
                        f"({span_ways} ways) but {self.design.name} has no "
                        "cross-way wires; use the space-optimised design or "
                        "reduce the component"
                    )
                if span_ways > domain_ways:
                    raise CapacityError(
                        f"a connected component spans {span_ways} ways; one "
                        f"G4 switch domain covers only {domain_ways}"
                    )
                # Align to a way boundary; to a domain boundary if the
                # group would otherwise straddle two G4 domains.
                if start_index % per_way:
                    start_index += per_way - (start_index % per_way)
                start_way = start_index // per_way
                if span_ways > 1 and start_way % domain_ways + span_ways > domain_ways:
                    start_way += domain_ways - (start_way % domain_ways)
                    start_index = start_way * per_way
                layout.extend([None] * (start_index - len(layout)))
            layout.extend(ste_lists)

        # Place split CCs first (they need way alignment), then the packed
        # small-CC partitions, which have no inter-partition edges at all.
        for group in sorted(cc_partition_groups, key=len, reverse=True):
            allocate(group, keep_together=True)
        allocate(packed_partitions, keep_together=False)

        # Padding positions hold no partition: the occupied ones are
        # numbered densely and keep the way they were allocated on.
        occupied = [
            position for position, ste_list in enumerate(layout) if ste_list
        ]
        # Within a partition the L-switch is a full crossbar, so a slot is
        # free: fill each in automaton order, which lays a chain or grid
        # out with one bit stride per direction for the kernel's shifts.
        order = {ste: rank for rank, ste in enumerate(automaton.ste_ids())}
        ste_lists = [sorted(layout[p], key=order.__getitem__) for p in occupied]
        part, slot = placement_arrays(automaton, ste_lists)
        ways = np.asarray(occupied, dtype=np.int32) // per_way
        return Mapping(self.design, automaton, part, slot, ways)
