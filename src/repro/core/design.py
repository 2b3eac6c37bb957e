"""Cache Automaton design points: CA_P, CA_S, and exploration variants.

A :class:`DesignPoint` bundles the slice geometry, the switch topology,
the wire technology, and the mapping footprint, and derives from them the
pipeline timing (Table 3), throughput (Figure 7), reachability and area
(Figure 10), and capacity.  The two headline designs:

* ``CA_P`` — performance-optimised: STEs only in ``Array_L`` halves
  (4-way column mux), 128x128 within-way G-switches, 2 GHz operation;
* ``CA_S`` — space-optimised: full sub-arrays (8-way mux), 256x256
  within-way G-switches plus a 512x512 switch spanning 4 ways, 1.2 GHz.

Section 5.5's ablations are expressed as derived variants
(:meth:`DesignPoint.without_sa_cycling`, :meth:`DesignPoint.with_h_bus`),
and Figure 10's high-frequency/low-reachability corner as ``CA_64``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core.geometry import PARTITION_SIZE, SliceGeometry, XEON_SLICE
from repro.core.params import GLOBAL_WIRES, H_BUS_WIRES, WireParameters
from repro.core.switches import SwitchInventory, SwitchSpec
from repro.core.timing import PipelineTiming, pipeline_timing
from repro.errors import HardwareModelError


@dataclass(frozen=True)
class DesignPoint:
    """One point in the Cache Automaton design space."""

    name: str
    description: str
    geometry: SliceGeometry = XEON_SLICE
    #: Mapping footprint: whole sub-arrays (CA_S) vs Array_L halves (CA_P).
    full_subarrays: bool = False
    #: STEs per partition (256 except for exploration corners).
    partition_size: int = PARTITION_SIZE
    #: Within-way G-switch wires per partition (0 disables the G-switch).
    g1_wires_per_partition: int = 16
    #: 4-way G-switch wires per partition (0 disables it).
    g4_wires_per_partition: int = 0
    ways_used: int = 8
    sense_amp_cycling: bool = True
    wires: WireParameters = GLOBAL_WIRES
    #: The frequency the paper chooses to operate at (<= max frequency).
    operating_frequency_ghz: float = 2.0

    # -- topology ------------------------------------------------------------

    @property
    def partitions_per_way(self) -> int:
        per_way_stes = self.geometry.stes_per_way(full_subarrays=self.full_subarrays)
        return per_way_stes // self.partition_size

    @property
    def partitions_per_slice(self) -> int:
        return self.partitions_per_way * self.ways_used

    @property
    def states_per_slice(self) -> int:
        return self.partitions_per_slice * self.partition_size

    @property
    def l_switch(self) -> SwitchSpec:
        """Local switch: partition inputs plus returning global wires.

        The physical L-switch is provisioned for the full interconnect
        (16 G1 + 8 G4 returning wires for a 256-STE partition — Table 2
        lists 280x256 for *both* designs, even though CA_P leaves the G4
        inputs unused).  Exploration points with more wires than the
        provision grow the switch accordingly.
        """
        provisioned = 24 * self.partition_size // PARTITION_SIZE
        wires = max(
            provisioned,
            self.g1_wires_per_partition + self.g4_wires_per_partition,
        )
        return SwitchSpec(self.partition_size + wires, self.partition_size)

    @property
    def g1_switch(self) -> Optional[SwitchSpec]:
        """Within-way global switch: all partitions' G1 wires cross-connect."""
        if self.g1_wires_per_partition == 0:
            return None
        ports = self.g1_wires_per_partition * self.partitions_per_way
        return SwitchSpec(ports, ports)

    @property
    def g4_switch(self) -> Optional[SwitchSpec]:
        """Four-way global switch (space-optimised design only)."""
        if self.g4_wires_per_partition == 0:
            return None
        ports = self.g4_wires_per_partition * self.partitions_per_way * 4
        return SwitchSpec(ports, ports)

    @property
    def column_mux_degree(self) -> int:
        mux = self.geometry.column_mux_degree(full_subarrays=self.full_subarrays)
        # Exploration corners with small partitions read fewer columns.
        return max(1, mux * self.partition_size // PARTITION_SIZE)

    # -- timing ----------------------------------------------------------------

    @property
    def g_wire_mm(self) -> float:
        return self.geometry.array_to_gswitch_mm

    @property
    def g_wire4_mm(self) -> float:
        return self.geometry.array_to_gswitch4_mm

    @property
    def l_wire_mm(self) -> float:
        """Return wire from the farthest global switch to the L-switch."""
        if self.g4_wires_per_partition:
            return self.g_wire4_mm
        if self.g1_wires_per_partition:
            return self.g_wire_mm
        return 0.0

    @property
    def timing(self) -> PipelineTiming:
        return pipeline_timing(
            column_mux_degree=self.column_mux_degree,
            l_switch=self.l_switch,
            g_switch=self.g1_switch,
            g_wire_mm=self.g_wire_mm,
            l_wire_mm=self.l_wire_mm,
            g_switch4=self.g4_switch,
            g_wire4_mm=self.g_wire4_mm,
            sense_amp_cycling=self.sense_amp_cycling,
            wires=self.wires,
        )

    @property
    def max_frequency_ghz(self) -> float:
        return self.timing.max_frequency_ghz

    @property
    def frequency_ghz(self) -> float:
        """Effective symbol rate: the chosen operating point, never above max."""
        return min(self.operating_frequency_ghz, self.max_frequency_ghz)

    @property
    def throughput_gbps(self) -> float:
        """Deterministic line rate: one 8-bit symbol per cycle."""
        return self.frequency_ghz * 8.0

    # -- reachability / area (Figure 10) -----------------------------------------

    @property
    def reachability(self) -> float:
        """Average number of states reachable from a state in one cycle.

        Every state reaches its whole partition through the L-switch; the
        partition's G1 wires reach the other partitions of the way, and
        G4 wires reach the remaining partitions of the 4-way group.  The
        per-state average weights the global wires by their share of the
        partition's states.
        """
        reach = float(self.partition_size)
        if self.g1_wires_per_partition:
            other = (self.partitions_per_way - 1) * self.partition_size
            reach += self.g1_wires_per_partition / self.partition_size * other
        if self.g4_wires_per_partition:
            group = 4 * self.partitions_per_way * self.partition_size
            beyond_way = group - self.partitions_per_way * self.partition_size
            reach += self.g4_wires_per_partition / self.partition_size * beyond_way
        return reach

    @property
    def max_fan_in(self) -> int:
        """Maximum incoming transitions per state (AP supports only 16)."""
        return self.partition_size

    def switch_inventory(self, states: Optional[int] = None) -> SwitchInventory:
        """The switch complement serving ``states`` (default: one slice)."""
        states = states or self.states_per_slice
        partitions = -(-states // self.partition_size)  # ceil
        ways = -(-partitions // self.partitions_per_way)
        return SwitchInventory(
            local=self.l_switch,
            local_count=partitions,
            global_way=self.g1_switch,
            global_way_count=ways if self.g1_switch else 0,
            global_ways4=self.g4_switch,
            global_ways4_count=-(-ways // 4) if self.g4_switch else 0,
            supported_states=partitions * self.partition_size,
        )

    def area_overhead_mm2(self, states: int = 32 * 1024) -> float:
        """Total switch area for a ``states``-sized state space (Fig. 10).

        Figure 10 reports overhead for 32K STEs.  The perf-optimised
        design stores 32K STEs across twice as many (half-filled)
        sub-arrays, hence twice the L-switch count of its per-slice
        inventory — which lands both designs at ~4.3-4.6 mm^2.
        """
        inventory = self.switch_inventory(states)
        return inventory.total_area_mm2()

    # -- capacity ---------------------------------------------------------------

    # -- variants ---------------------------------------------------------------

    def without_sa_cycling(self) -> "DesignPoint":
        """Section 5.5 ablation: plain column-multiplexed reads."""
        return replace(
            self,
            name=f"{self.name}-noSA",
            description=f"{self.description} (no sense-amp cycling)",
            sense_amp_cycling=False,
            operating_frequency_ghz=1000.0,  # report the derived maximum
        )

    def with_h_bus(self) -> "DesignPoint":
        """Section 5.5 ablation: reuse the slice's H-Bus wires (300 ps/mm)."""
        return replace(
            self,
            name=f"{self.name}-HBus",
            description=f"{self.description} (H-Bus wires)",
            wires=H_BUS_WIRES,
            operating_frequency_ghz=1000.0,
        )

    def validate(self):
        if self.partition_size <= 0 or self.partition_size > PARTITION_SIZE:
            raise HardwareModelError(
                f"partition size {self.partition_size} outside (0, 256]"
            )
        if self.ways_used > self.geometry.ways:
            raise HardwareModelError("cannot use more ways than the slice has")
        if self.operating_frequency_ghz <= 0:
            raise HardwareModelError("operating frequency must be positive")


#: Performance-optimised design (Table 3: 438/227/263 ps, 2.3 GHz max, 2 GHz).
CA_P = DesignPoint(
    name="CA_P",
    description="performance-optimised Cache Automaton",
    full_subarrays=False,
    g1_wires_per_partition=16,
    g4_wires_per_partition=0,
    operating_frequency_ghz=2.0,
)

#: Space-optimised design (Table 3: 687/468/304 ps, 1.4 GHz max, 1.2 GHz).
CA_S = DesignPoint(
    name="CA_S",
    description="space-optimised Cache Automaton",
    full_subarrays=True,
    g1_wires_per_partition=16,
    g4_wires_per_partition=8,
    operating_frequency_ghz=1.2,
)

#: Figure 10's high-frequency corner: 64-state partitions, no global
#: switches — one sense phase per read, ~4 GHz, reachability 64.
CA_64 = DesignPoint(
    name="CA_64",
    description="64-state-reach exploration corner",
    full_subarrays=False,
    partition_size=64,
    g1_wires_per_partition=0,
    g4_wires_per_partition=0,
    operating_frequency_ghz=4.0,
)


def design_space() -> List[DesignPoint]:
    """The Figure 10 Cache Automaton design points, low to high reach."""
    return [CA_64, CA_P, CA_S]
