"""The hybrid backend: per-component substrate partitioning.

The cache-automaton design routes each part of the workload to the
substrate it fits; this backend does the same in software.  The
automaton's weakly connected components are classified by the
per-component cost model (:mod:`repro.compiler.classify`) — DFA-friendly
CCs (small subset closure) onto the ``lazy-dfa`` transition cache,
subset-hostile CCs (the ones that abort eager determinisation or thrash
the lazy cache) onto the ``packed-kernel`` — and one *sub-artifact* per
substrate group is compiled from the induced sub-automaton (CCs share no
edges, so any union of them is edge-closed).  A scan runs every group
over the same input and merges the report streams in offset order; the
merged stream is bit-identical to running the whole automaton on a
single identity-preserving backend, because each report is produced by
exactly one CC and CCs do not interact.

Checkpoints are plain: a scan resumes from, and leaves, one
:class:`~repro.sim.kernel.Checkpoint` in the *whole* artifact's placement
layout — what a single backend over the same artifact reads and writes —
scattered onto the groups' own sub-placements by STE id at entry and
gathered back at exit.  So chunked ``stream``/resume scanning, batched
``scan_many``, the process-pool plane, the wire and a fallback tier all
work exactly as on a single backend.  Degradation is *per group*: a
group whose backend cannot be built, or whose scan raises, falls back to
the golden interpreter for that group alone — the other groups stay on
their fast substrates — and the event is surfaced through
:attr:`health_events`.

Options accepted by ``from_artifact`` (unknown options are ignored, per
the registry contract): ``stride``/``jobs``/``split_jobs``/``max_states``
and the rest of the lazy-DFA surface are forwarded to every group
backend (each ignores what it does not understand), so e.g. a tenant's
``dfa_max_states`` budget bounds each lazy group's transition cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.automata.components import extract_component
from repro.backends.artifact import CompiledArtifact
from repro.backends.base import (
    AutomatonBackend,
    BackendCapabilities,
    BoundedEventLog,
)
from repro.backends.registry import create_backend, register_backend
from repro.backends.validation import require_resume_count
from repro.compiler.classify import (
    ComponentClassification,
    CostModel,
    classify_automaton,
)
from repro.errors import AutomatonError, SimulationError
from repro.sim.kernel import (
    Checkpoint,
    Report,
    RunStats,
    ScanResult,
    placement_bits,
    report_rank,
)

#: Per-group fallback substrate when the assigned backend fails.
FALLBACK_SUBSTRATE = "golden-interpreter"


@dataclass
class HybridGroup:
    """One substrate group: contiguous CCs executing on one backend."""

    index: int
    requested: str
    backend_name: str
    backend: AutomatonBackend
    artifact: CompiledArtifact
    components: Tuple[int, ...]
    members: Tuple[str, ...]


_CAPABILITIES_DESCRIPTION = (
    "pattern-structure-aware partitioned execution: each connected "
    "component runs on the substrate the per-CC cost model assigns "
    "(lazy-dfa for DFA-friendly CCs, packed-kernel for subset-hostile "
    "ones); report streams merge in offset order, bit-identical to a "
    "single-backend scan"
)


@register_backend("hybrid")
class HybridBackend(AutomatonBackend):
    """Partitioned execution across per-component substrate groups."""

    # Group backends rebuild their kernels from per-group sub-mappings;
    # the whole-automaton kernel tables in the artifact are never read,
    # so a construction failure never indicts the cached artifact.
    consumes_kernel_tables = False

    def __init__(
        self,
        artifact: CompiledArtifact,
        classification: ComponentClassification,
        groups: List[HybridGroup],
        health_events: Optional[BoundedEventLog] = None,
    ):
        self.artifact = artifact
        self.classification = classification
        self.groups = groups
        self._health_events = health_events or BoundedEventLog()
        whole = placement_bits(artifact.mapping)
        owns = [placement_bits(group.artifact.mapping) for group in groups]
        #: Per group: whole-placement bit -> the group's own placement
        #: bit for its members, and back.
        self._scatters = [
            {whole[ste_id]: own[ste_id] for ste_id in group.members}
            for group, own in zip(groups, owns)
        ]
        self._gathers = [
            {bit: at for at, bit in scatter.items()}
            for scatter in self._scatters
        ]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_artifact(
        cls,
        artifact: CompiledArtifact,
        *,
        classification: Optional[ComponentClassification] = None,
        cost_model: Optional[CostModel] = None,
        probe_budget: Optional[int] = None,
        **options,
    ) -> "HybridBackend":
        """Partition the artifact's automaton and build one backend per
        substrate group.

        The per-CC classification comes from, in order: the explicit
        ``classification`` argument, the artifact's ``classify_tables``
        (the warm path — no re-probing), or a fresh
        :func:`~repro.compiler.classify.classify_automaton` run.  All
        remaining ``options`` are forwarded to every group backend;
        each group ignores what it does not understand.
        """
        events = BoundedEventLog()
        automaton = artifact.automaton
        if classification is None and artifact.classify_tables:
            try:
                classification = ComponentClassification.from_tables(
                    dict(artifact.classify_tables), automaton
                )
            except AutomatonError as error:
                events.append(
                    f"cached classification tables rejected ({error}); "
                    "reclassifying"
                )
        if classification is None:
            classification = classify_automaton(
                automaton,
                cost_model=cost_model,
                probe_budget=probe_budget,
            )
        from repro.compiler import compile_automaton

        groups: List[HybridGroup] = []
        for group_index, (substrate, component_indexes) in enumerate(
            classification.groups()
        ):
            members: List[str] = []
            for component in component_indexes:
                members.extend(classification.components[component])
            sub_automaton = extract_component(
                automaton,
                members,
                automaton_id=(
                    f"{automaton.automaton_id}.hybrid{group_index}"
                ),
            )
            mapping = compile_automaton(sub_automaton, artifact.design)
            sub_artifact = CompiledArtifact.from_mapping(mapping)
            backend_name = substrate
            try:
                backend = create_backend(substrate, sub_artifact, **options)
            except Exception as error:  # noqa: BLE001 - degrade per group
                events.append(
                    f"hybrid group {group_index} ({substrate}, "
                    f"{len(members)} states) failed to build "
                    f"({type(error).__name__}: {error}); "
                    f"falling back to {FALLBACK_SUBSTRATE}"
                )
                backend_name = FALLBACK_SUBSTRATE
                backend = create_backend(FALLBACK_SUBSTRATE, sub_artifact)
            groups.append(
                HybridGroup(
                    index=group_index,
                    requested=substrate,
                    backend_name=backend_name,
                    backend=backend,
                    artifact=sub_artifact,
                    components=tuple(component_indexes),
                    members=tuple(members),
                )
            )
        if not groups:
            raise SimulationError(
                "hybrid backend needs at least one non-empty component group"
            )
        return cls(artifact, classification, groups, events)

    # -- introspection -----------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        placement = ", ".join(
            f"group{group.index}={group.backend_name}"
            f"({len(group.components)} CCs, {len(group.members)} states)"
            for group in self.groups
        )
        return BackendCapabilities(
            resume=True,
            batch=True,
            activity_profile=False,
            report_identity=True,
            fault_events=False,
            split=False,
            description=f"{_CAPABILITIES_DESCRIPTION}; placement: {placement}",
        )

    def classify_tables(self) -> Dict[str, object]:
        """The classification as artifact payload tables (cache path)."""
        return self.classification.to_tables()

    def placement(self) -> List[Dict[str, object]]:
        """One row per substrate group, for health/CLI/report surfaces."""
        return [
            {
                "group": group.index,
                "backend": group.backend_name,
                "requested": group.requested,
                "components": len(group.components),
                "states": len(group.members),
            }
            for group in self.groups
        ]

    @property
    def health_events(self) -> Tuple[str, ...]:
        """Per-group build/scan degradation notices (bounded log)."""
        events = list(self._health_events)
        for group in self.groups:
            events.extend(group.backend.health_events)
        return tuple(events)

    @property
    def health_events_dropped(self) -> int:
        dropped = self._health_events.dropped
        for group in self.groups:
            dropped += group.backend.health_events_dropped
        return dropped

    # -- scanning ----------------------------------------------------------

    def _scatter(self, resume: Optional[Checkpoint]) -> List[Optional[Checkpoint]]:
        """``resume`` as one checkpoint per group, in the group's layout."""
        if resume is None:
            return [None] * len(self.groups)
        resume.require(None)
        parts = [resume.relaid(own, partial=True) for own in self._scatters]
        # Every active state belongs to exactly one group; one that landed
        # in none sits on a bit this artifact's placement leaves empty.
        placed = sum(part.active_state_vector.bit_count() for part in parts)
        if placed != resume.active_state_vector.bit_count():
            raise SimulationError(
                "checkpoint activates state bits this artifact's placement "
                "leaves empty; was it taken on a different automaton?"
            )
        return parts

    def _degrade_group(self, group: HybridGroup, error: Exception) -> None:
        """Swap one group onto the golden interpreter after a scan error."""
        self._health_events.append(
            f"hybrid group {group.index} ({group.backend_name}, "
            f"{len(group.members)} states) scan failed "
            f"({type(error).__name__}: {error}); "
            f"group degraded to {FALLBACK_SUBSTRATE}"
        )
        group.backend = create_backend(FALLBACK_SUBSTRATE, group.artifact)
        group.backend_name = FALLBACK_SUBSTRATE

    def _on_group(self, group: HybridGroup, method: str, *args, **kwargs):
        """``group.backend.<method>(...)``, retried once on the golden
        interpreter when the assigned substrate raises."""
        try:
            return getattr(group.backend, method)(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - degrade per group
            if group.backend_name == FALLBACK_SUBSTRATE:
                raise
            self._degrade_group(group, error)
            return getattr(group.backend, method)(*args, **kwargs)

    @cached_property
    def _rank(self) -> Dict[str, int]:
        return report_rank(self.artifact.automaton)

    def _merge(
        self,
        group_results: Sequence[ScanResult],
        data_symbols: int,
    ) -> ScanResult:
        reports: List[Report] = []
        report_count = 0
        for result in group_results:
            report_count += result.profile.reports
            reports.extend(result.reports)  # none, unless collected
        if reports:
            # Offset order, and within an offset the one order every
            # backend reports in, whichever group fired.
            rank = self._rank
            reports.sort(key=lambda report: (report.offset, rank[report.ste_id]))
        parts = [
            result.checkpoint.relaid(whole)
            for whole, result in zip(self._gathers, group_results)
        ]
        return ScanResult.counted(
            reports,
            symbols=data_symbols,
            report_count=report_count,
            checkpoint=Checkpoint.union(parts),
            stats=RunStats(symbols_processed=data_symbols),
        )

    def scan(
        self,
        data: bytes,
        *,
        collect_reports: bool = True,
        resume: Optional[Checkpoint] = None,
    ) -> ScanResult:
        """Scan every group over ``data`` and merge in offset order."""
        results = [
            self._on_group(
                group, "scan", data,
                collect_reports=collect_reports, resume=group_resume,
            )
            for group, group_resume in zip(self.groups, self._scatter(resume))
        ]
        return self._merge(results, len(data))

    def scan_many(
        self,
        streams: Sequence[bytes],
        *,
        resumes: Optional[Sequence[Optional[Checkpoint]]] = None,
        collect_reports: bool = True,
    ) -> List[ScanResult]:
        """Batched scan: each group batches natively across the streams
        (the lazy-DFA group shards across processes when ``jobs`` asks
        for workers, the packed group runs them one after the other on
        its warm kernel), then per-stream merge.
        """
        streams = list(streams)
        resumes = require_resume_count(resumes, len(streams))
        scattered = [self._scatter(resume) for resume in resumes]
        group_results = [
            self._on_group(
                group, "scan_many", streams,
                resumes=[parts[position] for parts in scattered],
                collect_reports=collect_reports,
            )
            for position, group in enumerate(self.groups)
        ]
        return [
            self._merge(
                [results[stream] for results in group_results],
                len(streams[stream]),
            )
            for stream in range(len(streams))
        ]
