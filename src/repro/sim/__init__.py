"""Simulators: golden reference, mapped functional, and bit-level crossbar."""

from repro.sim.circuit import CircuitRunResult, CircuitSimulator, simulate_circuit
from repro.sim.crossbar import CrossbarLevelSimulator
from repro.sim.functional import MappedSimulator, simulate_mapping
from repro.sim.golden import (
    Checkpoint,
    GoldenSimulator,
    Report,
    RunStats,
    average_active_states,
    match_offsets,
    simulate,
)
from repro.sim.kernel import ScanResult

__all__ = [
    "Checkpoint",
    "CircuitRunResult",
    "CircuitSimulator",
    "CrossbarLevelSimulator",
    "GoldenSimulator",
    "MappedSimulator",
    "Report",
    "RunStats",
    "ScanResult",
    "average_active_states",
    "match_offsets",
    "simulate",
    "simulate_circuit",
    "simulate_mapping",
]
