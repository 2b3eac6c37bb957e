"""The eager-determinisation baseline backend: a table-driven DFA walk.

Wraps :class:`~repro.baselines.cpu.DfaCpuEngine` behind the backend
protocol, with a resume-capable scan loop over the dense transition
table (the DFA state *is* the checkpoint).  Determinisation collapses
which rule fired into a single accepting bit, so reports carry match
offsets only — ``capabilities().report_identity`` is False and the
differential matrix compares this backend on offsets alone, exactly the
comparison the paper's CPU-baseline numbers rest on.

Subset construction is *eager*: the whole DFA is built before the first
symbol, which blows up on real rule sets (PowerEN exceeds any sane state
cap).  It is therefore registered as ``eager-dfa``; the ``cpu-dfa``
name — and the default CPU-DFA strategy — now belong to the lazy-DFA
backend (:mod:`repro.backends.lazydfa`), which determinises on demand
and never aborts.
"""

from __future__ import annotations

from typing import List, Optional

from repro.backends.artifact import CompiledArtifact
from repro.backends.base import AutomatonBackend, BackendCapabilities
from repro.backends.registry import register_backend
from repro.backends.validation import as_symbols
from repro.baselines.cpu import DfaCpuEngine
from repro.errors import DeterminisationExplosion, SimulationError
from repro.sim.kernel import Checkpoint, Report, RunStats, ScanResult

#: STE id stamped on every report (determinisation erased the real one),
#: and the dialect of this backend's checkpoints: a minimised-DFA state
#: id is no active state vector, so nothing else may resume from one.
REPORT_ID = "eager-dfa"

_CAPABILITIES = BackendCapabilities(
    resume=True,
    batch=False,
    activity_profile=False,
    report_identity=False,
    fault_events=False,
    description=(
        "determinised table-driven DFA baseline; match offsets only "
        "(rule identity is erased by subset construction)"
    ),
)


@register_backend("eager-dfa", aliases=("eager",))
class CpuDfaBackend(AutomatonBackend):
    """Execution as one dense-table DFA transition per input byte."""

    def __init__(self, engine: DfaCpuEngine):
        self.engine = engine

    @classmethod
    def from_artifact(
        cls,
        artifact: CompiledArtifact,
        *,
        minimize: bool = True,
        max_states: int = 200_000,
        **_options,
    ) -> "CpuDfaBackend":
        """Determinise the artifact's automaton into a scanning DFA.

        Raises :class:`~repro.errors.DeterminisationExplosion` when
        subset construction blows past ``max_states`` — the blow-up
        itself is one of the paper's motivating observations, so it
        surfaces rather than being silently capped.  The error is
        attributed to a connected component: each CC is probed with the
        classifier's bounded subset closure, and the id and state
        estimate of the worst offender ride on the exception (the
        engine's fallback chain records them as a typed health event).
        """
        try:
            return cls(
                DfaCpuEngine(
                    artifact.automaton,
                    minimize=minimize,
                    max_states=max_states,
                )
            )
        except DeterminisationExplosion as error:
            if error.component_id is not None:
                raise
            raise cls._attribute_explosion(
                artifact.automaton, max_states, error
            ) from error

    @staticmethod
    def _attribute_explosion(
        automaton, max_states: int, error: DeterminisationExplosion
    ) -> DeterminisationExplosion:
        """Pin the blow-up on a component via per-CC closure probes."""
        from repro.automata.components import connected_components
        from repro.compiler.classify import probe_subset_closure

        worst_id: Optional[str] = None
        worst_rows = 0
        for members in connected_components(automaton):
            rows, aborted, _classes = probe_subset_closure(
                automaton, members, budget=max_states
            )
            estimate = rows if not aborted else max_states
            if estimate > worst_rows:
                worst_rows = estimate
                worst_id = members[0]
        return DeterminisationExplosion(
            f"subset construction exceeded {max_states} states "
            f"(worst component {worst_id!r}, "
            f"~{worst_rows} subset-closure rows)",
            component_id=worst_id,
            state_estimate=max(worst_rows, error.state_estimate),
            max_states=max_states,
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
        """One table load per symbol; golden-convention report offsets.

        The DFA enters an accepting state *after* consuming the matching
        symbol, so the report offset is the 0-based index of that symbol
        — identical to the golden interpreter's convention.  On resume
        the checkpoint's ``active_state_vector`` carries the DFA state,
        hence the marked dialect, the only one accepted here.
        """
        symbols = as_symbols(data)
        dfa = self.engine.dfa
        if resume is None:
            state = dfa.start
            base_offset = 0
        else:
            resume.require(REPORT_ID)
            state = int(resume.active_state_vector)
            if state >= len(dfa.table):
                raise SimulationError(
                    f"checkpoint names DFA state {state} of {len(dfa.table)}; "
                    "was it taken on a different automaton?"
                )
            base_offset = resume.symbols_processed
        table = dfa.table
        accepting = dfa.accepting
        reports: List[Report] = []
        report_count = 0
        for index, symbol in enumerate(symbols.tolist()):
            state = int(table[state, symbol])
            if accepting[state]:
                report_count += 1
                if collect_reports:
                    reports.append(Report(base_offset + index, REPORT_ID))
        checkpoint = Checkpoint(
            symbols_processed=base_offset + len(symbols),
            active_state_vector=state,
            start_of_data_pending=False,
            dialect=REPORT_ID,
        )
        stats = RunStats(symbols_processed=len(symbols))
        return ScanResult.counted(
            reports,
            symbols=len(symbols),
            report_count=report_count,
            checkpoint=checkpoint,
            stats=stats,
        )
