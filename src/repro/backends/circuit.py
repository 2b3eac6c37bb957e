"""The circuit-interpreter backend: element-level ANML semantics.

Lifts the artifact's homogeneous automaton into a pure-STE
:class:`~repro.automata.elements.CircuitAutomaton` and scans with the
set-based :class:`~repro.sim.circuit.CircuitSimulator`.  Deliberately
the slowest, most literal substrate in the registry: per-symbol Python
sets, no bitset packing, no placement — which makes it a third
independent implementation of the report semantics for the differential
matrix (a bug would have to be reproduced in set algebra, in the golden
kernel, *and* in the mapped kernel to slip through).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.automata.anml import HomogeneousAutomaton
from repro.automata.elements import CircuitAutomaton
from repro.backends.artifact import CompiledArtifact
from repro.backends.base import AutomatonBackend, BackendCapabilities
from repro.backends.registry import register_backend
from repro.backends.validation import require_bytes
from repro.errors import SimulationError
from repro.sim.circuit import CircuitSimulator
from repro.sim.kernel import Checkpoint, ScanResult, report_rank

_CAPABILITIES = BackendCapabilities(
    resume=False,
    batch=False,
    activity_profile=False,
    fault_events=False,
    description=(
        "set-based element-level interpreter over the automaton lifted "
        "to an ANML circuit; independent reference, whole-stream only"
    ),
)


def _lift_to_circuit(automaton: HomogeneousAutomaton) -> CircuitAutomaton:
    """A pure-STE circuit with the automaton's exact structure."""
    circuit = CircuitAutomaton()
    for ste in automaton.stes():
        circuit.add_ste(
            ste.ste_id,
            ste.symbols,
            start=ste.start,
            reporting=ste.reporting,
            report_code=ste.report_code,
        )
    for source, target in automaton.edges():
        circuit.connect(source, target)
    return circuit


@register_backend("circuit", aliases=("circuit-interpreter",))
class CircuitInterpreterBackend(AutomatonBackend):
    """Execution on the element-level circuit interpreter."""

    def __init__(self, simulator: CircuitSimulator, rank: Dict[str, int]):
        self.simulator = simulator
        #: The interpreter fires in sorted-id order; every backend
        #: reports in :func:`~repro.sim.kernel.report_rank`'s.
        self._rank = rank

    @classmethod
    def from_artifact(
        cls, artifact: CompiledArtifact, **_options
    ) -> "CircuitInterpreterBackend":
        automaton = artifact.automaton
        return cls(
            CircuitSimulator(_lift_to_circuit(automaton)), report_rank(automaton)
        )

    def capabilities(self) -> BackendCapabilities:
        return _CAPABILITIES

    def scan(
        self,
        data: bytes,
        *,
        collect_reports: bool = True,
        resume: Optional[Checkpoint] = None,
    ) -> ScanResult:
        if resume is not None:
            raise SimulationError(
                "backend 'circuit' does not support checkpointed resume"
            )
        require_bytes(data, "input")
        run = self.simulator.run(data)
        rank = self._rank
        return ScanResult.counted(
            sorted(run.reports, key=lambda r: (r.offset, rank[r.ste_id]))
            if collect_reports
            else [],
            symbols=len(data),
            report_count=len(run.reports),
        )
