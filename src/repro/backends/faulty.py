"""The fault-injection backend: the mapped kernel under injected faults.

Wraps :class:`~repro.faults.injector.FaultySimulator` behind the backend
protocol so the fault campaign runs through the same registry as every
other substrate.  Events are fixed at construction (``events=`` option)
— a faulted machine *is* a different machine, so "which faults" is part
of backend identity, not a per-scan argument; with no events it must be
report-equivalent to every clean backend, which is exactly how the
differential matrix exercises it.

:meth:`FaultInjectedBackend.run_report` exposes the raw
:class:`~repro.faults.injector.FaultRunReport` (signature + parity
detections) for the campaign's masked/detected/SDC classification;
:meth:`scan` decodes the signature into golden-convention reports.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.artifact import CompiledArtifact
from repro.backends.base import AutomatonBackend, BackendCapabilities
from repro.backends.mapped import simulator_from_artifact
from repro.backends.registry import register_backend
from repro.faults.injector import FaultRunReport, FaultySimulator
from repro.faults.models import FaultEvent
from repro.errors import SimulationError
from repro.sim.functional import MappedSimulator
from repro.sim.kernel import Checkpoint, Report, ScanResult

_CAPABILITIES = BackendCapabilities(
    resume=False,
    batch=False,
    activity_profile=False,
    fault_events=True,
    description=(
        "mapped kernel executed under injected faults with match-parity "
        "detection; events are fixed at construction"
    ),
)


@register_backend("fault-injected", aliases=("faulty",))
class FaultInjectedBackend(AutomatonBackend):
    """Execution on the fault-injection harness over the mapped kernel."""

    consumes_kernel_tables = True

    def __init__(
        self,
        simulator: MappedSimulator,
        events: Tuple[FaultEvent, ...] = (),
    ):
        self.simulator = simulator
        self.faulty = FaultySimulator(simulator)
        self.events = tuple(events)

    @classmethod
    def from_artifact(
        cls,
        artifact: CompiledArtifact,
        *,
        events: Sequence[FaultEvent] = (),
        simulator_cls=None,
        **_options,
    ) -> "FaultInjectedBackend":
        return cls(
            simulator_from_artifact(artifact, simulator_cls), tuple(events)
        )

    def capabilities(self) -> BackendCapabilities:
        return _CAPABILITIES

    # -- campaign surface --------------------------------------------------

    @property
    def state_bits(self) -> np.ndarray:
        """Occupied state-bit indices (fault-injection targets)."""
        return self.faulty.state_bits

    @property
    def edge_bits(self) -> List[Tuple[int, int]]:
        """Transitions as (source_bit, target_bit) pairs."""
        return self.faulty.edge_bits

    def run_report(
        self, data: bytes, events: Optional[Sequence[FaultEvent]] = None
    ) -> FaultRunReport:
        """Raw signature/detection report; ``events`` overrides the
        construction-time set for one run (the campaign's per-trial use)."""
        chosen = self.events if events is None else tuple(events)
        return self.faulty.run(data, chosen)

    # -- protocol ----------------------------------------------------------

    def scan(
        self,
        data: bytes,
        *,
        collect_reports: bool = True,
        resume: Optional[Checkpoint] = None,
    ) -> ScanResult:
        if resume is not None:
            raise SimulationError(
                "backend 'fault-injected' does not support checkpointed "
                "resume"
            )
        run = self.run_report(data)
        # A faulted kernel keeps the placement's bit order, so the
        # signature's rows decode like any clean reporting row.
        reports: List[Report] = []
        for offset, row_bytes in run.signature:
            self.simulator.decoder.emit(row_bytes, offset, reports)
        result = ScanResult.counted(
            reports if collect_reports else [],
            symbols=len(data),
            report_count=len(reports),
        )
        result.detected = run.detected
        return result
