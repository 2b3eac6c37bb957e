"""The default backend: the packed-bitset mapped-kernel simulator.

Wraps :class:`~repro.sim.functional.MappedSimulator` — the
cycle-functional model of the compiled placement — behind the
:class:`~repro.backends.base.AutomatonBackend` protocol.  This is the
only backend with the full capability set: checkpointed resume,
multi-stream scanning on one warm kernel, and the complete energy-model
activity profile (partition activations, G1/G4 switch crossings, CBOX
output buffer).

``hybrid`` is an alias: ``auto=True`` runs a ruleset with any
determinisation-hostile component on this backend, whole, because its
kernel needs no determinisation: a placement whose edges fall in a few
bit offsets (a chain, a bounded gap like ``x.{14}y``) steps by shifts,
and any other steps each component on its own table.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backends.artifact import CompiledArtifact
from repro.backends.base import AutomatonBackend, BackendCapabilities
from repro.backends.registry import register_backend
from repro.sim.functional import MappedSimulator
from repro.sim.kernel import Checkpoint, ScanResult

_CAPABILITIES = BackendCapabilities(
    resume=True,
    batch=True,
    activity_profile=True,
    fault_events=False,
    description=(
        "packed-bitset simulation of the compiled mapping; full "
        "activity/energy accounting, resume, and multi-stream scanning "
        "(a per-stream loop on one shared warm kernel)"
    ),
)


def simulator_from_artifact(
    artifact: CompiledArtifact, simulator_cls=None
) -> MappedSimulator:
    """The mapped simulator of ``artifact``: from its kernel tables when
    present (the warm path — no per-state Python loops), else from the
    mapping.

    ``simulator_cls`` substitutes the simulator implementation (the
    degradation tests drive this); it must match the
    :class:`MappedSimulator` construction surface.
    """
    simulator_cls = simulator_cls or MappedSimulator
    if artifact.kernel_tables:
        return simulator_cls.from_cached(
            artifact.mapping, artifact.kernel_tables
        )
    return simulator_cls(artifact.mapping)


@register_backend("packed-kernel", aliases=("kernel", "mapped", "hybrid"))
class PackedKernelBackend(AutomatonBackend):
    """Execution on the packed uint64 kernel of the mapped simulator."""

    consumes_kernel_tables = True

    def __init__(self, simulator: MappedSimulator):
        self.simulator = simulator

    @classmethod
    def from_artifact(
        cls, artifact: CompiledArtifact, *, simulator_cls=None, **_options
    ) -> "PackedKernelBackend":
        """Build over :func:`simulator_from_artifact`'s simulator."""
        return cls(simulator_from_artifact(artifact, simulator_cls))

    def capabilities(self) -> BackendCapabilities:
        return _CAPABILITIES

    def packed_tables(self) -> dict:
        """The simulator's kernel tables, for persisting into the cache."""
        return self.simulator.packed_tables()

    def scan(
        self,
        data: bytes,
        *,
        collect_reports: bool = True,
        resume: Optional[Checkpoint] = None,
    ) -> ScanResult:
        return self.simulator.run(
            data, collect_reports=collect_reports, resume=resume
        )

    def scan_many(
        self,
        streams: Sequence[bytes],
        *,
        resumes: Optional[Sequence[Optional[Checkpoint]]] = None,
        collect_reports: bool = True,
    ) -> List[ScanResult]:
        return self.simulator.run_many(  # checks the resume count
            streams, resumes=resumes, collect_reports=collect_reports
        )
