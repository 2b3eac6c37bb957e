"""The golden-interpreter backend: ground-truth semantics, no placement.

Wraps :class:`~repro.sim.golden.GoldenSimulator` (the VASim stand-in)
behind the backend protocol.  The simulator ignores the artifact's
placement and kernel tables entirely — which is exactly why the engine
uses it as the last-resort fallback tier: it cannot be poisoned by a
corrupt artifact.  The placement is read for one thing only, here:
checkpoints cross this adapter in the portable placement layout
(:mod:`repro.sim.kernel`), so a stream suspended on any other backend of
the artifact — the service's primary tier when its breaker opens, say —
resumes on this one, and the other way round.
No activity profile beyond symbol/report totals (there is no placement
to attribute activity to).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.backends.artifact import CompiledArtifact
from repro.backends.base import AutomatonBackend, BackendCapabilities
from repro.backends.registry import register_backend
from repro.errors import SimulationError
from repro.sim.golden import AUTOMATON_ORDER, GoldenSimulator
from repro.sim.kernel import Checkpoint, ScanResult, placement_bits

_CAPABILITIES = BackendCapabilities(
    resume=True,
    batch=False,
    activity_profile=False,
    fault_events=False,
    description=(
        "reference interpreter over the automaton alone; ground-truth "
        "reports, no placement-level activity accounting"
    ),
)


@register_backend("golden-interpreter", aliases=("golden",))
class GoldenInterpreterBackend(AutomatonBackend):
    """Execution on the hardware-agnostic reference interpreter."""

    def __init__(self, artifact: CompiledArtifact):
        self.simulator = GoldenSimulator(artifact.automaton)
        placed = placement_bits(artifact.mapping)
        #: placement bit -> simulator bit, and back (checkpoint relays).
        try:
            self._inward: Dict[int, int] = {
                placed[ste_id]: bit
                for ste_id, bit in self.simulator.bit_of.items()
            }
        except KeyError as missing:
            raise SimulationError(
                f"corrupt artifact: its placement holds no slot for STE {missing}"
            ) from None
        self._outward = {bit: at for at, bit in self._inward.items()}

    @classmethod
    def from_artifact(
        cls, artifact: CompiledArtifact, **_options
    ) -> "GoldenInterpreterBackend":
        return cls(artifact)

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
            resume.require(None)
            resume = resume.relaid(self._inward, AUTOMATON_ORDER)
        result = self.simulator.run(
            data, collect_reports=collect_reports, resume=resume
        )
        result.checkpoint = result.checkpoint.relaid(self._outward)
        return result
