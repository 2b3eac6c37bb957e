"""Pattern-structure-aware hybrid execution: classifier, cost model,
artifact v3 classify tables, the hybrid backend, and the engine/service
policy knobs around them.

The headline regression here is the ISSUE 9 acceptance scenario: one
DFA-hostile component (``x.{14}y`` — bounded-gap patterns are the
classic subset-construction blow-up) mixed with several DFA-friendly
literal-ish components.  The hybrid backend must keep the friendly
groups on the lazy DFA, banish the hostile one to the packed kernel,
and remain bit-identical to the golden interpreter — reports, STE
identity, and chunked resume included.
"""

import warnings

import pytest

from repro.backends.artifact import CompiledArtifact
from repro.backends.hybrid import FALLBACK_SUBSTRATE, HybridBackend
from repro.backends.registry import create_backend
from repro.compiler import compile_automaton
from repro.compiler.classify import (
    CostModel,
    classify_automaton,
    default_probe_budget,
    probe_subset_closure,
)
from repro.core.design import CA_P
from repro.engine import CacheAutomatonEngine
from repro.errors import (
    ArtifactError,
    AutomatonError,
    DeterminisationExplosion,
    SimulationError,
)
from repro.regex.compile import compile_patterns
from repro.sim.golden import Checkpoint

#: Four DFA-friendly components plus one hostile one (bounded gap).
MIXED_PATTERNS = ["bat", "c[ao]t", "dog+", "bar[t]?", "x.{14}y"]
FRIENDLY_PATTERNS = ["bat", "c[ao]t", "dog+"]
DATA = (
    b"the cat sat on the bat while x0123456789abcdy dogged bart bar dog; "
    b"a second xAAAAAAAAAAAAAAy gap match and one cot at the end cot"
)


def _artifact(patterns):
    machine = compile_patterns(patterns, report_codes=patterns)
    return CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))


def _report_set(result):
    return sorted(
        (r.offset, r.ste_id, r.report_code) for r in result.reports
    )


@pytest.fixture(scope="module")
def mixed_artifact():
    return _artifact(MIXED_PATTERNS)


@pytest.fixture(scope="module")
def golden_reports(mixed_artifact):
    backend = create_backend("golden-interpreter", mixed_artifact)
    return _report_set(backend.scan(DATA))


# ---------------------------------------------------------------------------
# classifier + cost model


class TestClassifier:
    def test_mixed_workload_assignment(self, mixed_artifact):
        classification = classify_automaton(mixed_artifact.automaton)
        assignment = {
            classification.backend_of(index)
            for index in range(classification.component_count)
        }
        assert assignment == {"lazy-dfa", "packed-kernel"}
        rows = classification.rows()
        hostile = [row for row in rows if row["backend"] == "packed-kernel"]
        assert len(hostile) == 1
        assert hostile[0]["probe_aborted"] == 1.0
        assert hostile[0]["det_growth"] > 4
        friendly = [row for row in rows if row["backend"] == "lazy-dfa"]
        assert len(friendly) == 4
        assert all(row["det_growth"] < 2 for row in friendly)

    def test_friendly_workload_single_substrate(self):
        artifact = _artifact(FRIENDLY_PATTERNS)
        classification = classify_automaton(artifact.automaton)
        assert {
            classification.backend_of(index)
            for index in range(classification.component_count)
        } == {"lazy-dfa"}

    def test_deterministic_across_runs(self, mixed_artifact):
        first = classify_automaton(mixed_artifact.automaton)
        second = classify_automaton(mixed_artifact.automaton)
        assert first.components == second.components
        assert (first.assignment == second.assignment).all()
        assert (first.features == second.features).all()

    def test_probe_counts_closure_rows(self, mixed_artifact):
        automaton = mixed_artifact.automaton
        classification = classify_automaton(automaton)
        for members in classification.components:
            rows, aborted, classes = probe_subset_closure(
                automaton, list(members), budget=1024
            )
            assert rows >= 1
            assert classes >= 1
            if not aborted:
                # A bigger budget cannot change a completed closure.
                again, _, _ = probe_subset_closure(
                    automaton, list(members), budget=4096
                )
                assert again == rows

    def test_per_component_columns_equal_the_per_state_loops(self):
        """The classifier computes each CC's byte signatures once, through
        the distinct-mask grouping, and hands them to the probe; the
        columns derived from them must be what the plain loops give."""
        from repro.compiler.classify import (
            FEATURE_COLUMNS,
            _component_byte_signatures,
        )
        from repro.workloads.suite import build_suite

        suite = {bench.name: bench for bench in build_suite(0.1)}
        for name in ("Hamming", "Fermi", "Snort", "Ranges1"):
            automaton = suite[name].build()
            classification = classify_automaton(automaton)
            for index, members in enumerate(classification.components):
                signatures = [0] * 256
                for position, ste_id in enumerate(members):
                    for symbol in automaton.ste(ste_id).symbols:
                        signatures[symbol] |= 1 << position
                assert signatures == _component_byte_signatures(
                    automaton, members
                )
                edges = sum(
                    1
                    for ste_id in members
                    for target in automaton.successors(ste_id)
                    if target in members
                )
                probed = probe_subset_closure(automaton, list(members))
                row = dict(zip(FEATURE_COLUMNS, classification.features[index]))
                assert row["edges"] == edges
                assert row["byte_classes"] == len(set(signatures)) == probed[2]
                assert (row["probe_states"], bool(row["probe_aborted"])) == (
                    probed[0], probed[1],
                )

    def test_probe_budget_scales_and_caps(self):
        assert default_probe_budget(1) == 48
        assert default_probe_budget(10) == 80
        assert default_probe_budget(10_000) == 512

    def test_cost_model_orders_the_substrates(self):
        model = CostModel(lazy_warm_us=0.25, kernel_word_us=1.8 / 21)
        # Warm lazy scanning must beat the kernel on a small friendly CC
        # and lose once the probe aborts (certain thrashing).
        assert model.lazy_cost_us(4, False) < model.kernel_cost_us(4)
        assert model.lazy_cost_us(4096, True) > model.kernel_cost_us(4096)

    def test_tables_round_trip(self, mixed_artifact):
        classification = classify_automaton(mixed_artifact.automaton)
        tables = classification.to_tables()
        from repro.compiler.classify import ComponentClassification

        restored = ComponentClassification.from_tables(
            tables, mixed_artifact.automaton
        )
        assert restored.components == classification.components
        assert (restored.assignment == classification.assignment).all()

    def test_tables_reject_wrong_automaton(self, mixed_artifact):
        classification = classify_automaton(mixed_artifact.automaton)
        tables = classification.to_tables()
        other = _artifact(FRIENDLY_PATTERNS)
        from repro.compiler.classify import ComponentClassification

        with pytest.raises(AutomatonError):
            ComponentClassification.from_tables(tables, other.automaton)


# ---------------------------------------------------------------------------
# artifact v3


class TestArtifactClassifyTables:
    def test_classify_tables_round_trip_payload(self, mixed_artifact):
        classification = classify_automaton(mixed_artifact.automaton)
        artifact = mixed_artifact.with_classify_tables(
            classification.to_tables()
        )
        buffer = artifact.to_payload()
        restored = CompiledArtifact.from_payload(
            buffer, artifact.automaton, artifact.design
        )
        assert set(restored.classify_tables) == set(artifact.classify_tables)
        backend = HybridBackend.from_artifact(restored)
        assert len(backend.placement()) == 2

    def test_version_2_payload_is_quarantined(self, tmp_path, monkeypatch):
        """A cache artifact written at version 2 must be rejected
        (ArtifactError -> quarantine + recompile), not half-loaded."""
        from repro.backends import artifact as artifact_module

        cache_dir = tmp_path / "cache"
        engine = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, cache=str(cache_dir)
        )
        assert engine.health().tier == "cold-compile"

        monkeypatch.setattr(artifact_module, "ARTIFACT_FORMAT_VERSION", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stale = CacheAutomatonEngine.from_patterns(
                MIXED_PATTERNS, cache=str(cache_dir)
            )
        health = stale.health()
        assert health.tier in ("recompiled", "cold-compile")


# ---------------------------------------------------------------------------
# hybrid backend


class TestHybridBackend:
    def test_placement_partitions_by_hostility(self, mixed_artifact):
        backend = create_backend("hybrid", mixed_artifact)
        placement = backend.placement()
        by_backend = {row["backend"]: row for row in placement}
        assert set(by_backend) == {"lazy-dfa", "packed-kernel"}
        assert by_backend["lazy-dfa"]["components"] == 4
        assert by_backend["packed-kernel"]["components"] == 1
        assert by_backend["packed-kernel"]["states"] == 16

    def test_bit_identical_to_golden(self, mixed_artifact, golden_reports):
        backend = create_backend("hybrid", mixed_artifact)
        result = backend.scan(DATA)
        assert _report_set(result) == golden_reports
        # Merged stream is offset-ordered.
        offsets = [r.offset for r in result.reports]
        assert offsets == sorted(offsets)

    def test_chunked_resume_identical(self, mixed_artifact, golden_reports):
        backend = create_backend("hybrid", mixed_artifact)
        for chunk in (1, 7, 23):
            reports = []
            checkpoint = None
            for start in range(0, len(DATA), chunk):
                result = backend.scan(
                    DATA[start:start + chunk], resume=checkpoint
                )
                reports.extend(
                    (r.offset, r.ste_id, r.report_code)
                    for r in result.reports
                )
                checkpoint = result.checkpoint
                # A plain checkpoint in the whole artifact's placement
                # layout: nothing hybrid-specific rides on it.
                assert type(checkpoint) is Checkpoint
                assert checkpoint.dialect is None
            assert sorted(reports) == golden_reports
            assert checkpoint == create_backend(
                "packed-kernel", mixed_artifact
            ).scan(DATA).checkpoint

    def test_scan_many_identical(self, mixed_artifact, golden_reports):
        backend = create_backend("hybrid", mixed_artifact)
        golden = create_backend("golden-interpreter", mixed_artifact)
        streams = [DATA, b"", DATA[:40], b"xy" * 30]
        results = backend.scan_many(streams)
        expected = [golden.scan(stream) for stream in streams]
        for result, want in zip(results, expected):
            assert _report_set(result) == _report_set(want)

    def test_count_only_scan(self, mixed_artifact, golden_reports):
        backend = create_backend("hybrid", mixed_artifact)
        result = backend.scan(DATA, collect_reports=False)
        assert result.reports == []
        assert result.profile.reports == len(golden_reports)

    def test_foreign_checkpoint_rejected(self, mixed_artifact):
        """Foreign now means what it means everywhere: a checkpoint in
        a marked dialect (eager-dfa's state id), or a vector naming
        state bits this artifact's placement does not have."""
        backend = create_backend("hybrid", mixed_artifact)
        eager = create_backend("eager-dfa", _artifact(FRIENDLY_PATTERNS))
        with pytest.raises(SimulationError, match="eager-dfa"):
            backend.scan(b"abc", resume=eager.scan(b"abc").checkpoint)
        placement = mixed_artifact.mapping
        n_bits = placement.partition_count * placement.design.partition_size
        # Too wide; a padding bit; negative (no lowest set bit to end on).
        for vector in (1 << n_bits, 1 << (n_bits - 1), -1):
            foreign = Checkpoint(
                symbols_processed=3,
                active_state_vector=vector,
                start_of_data_pending=False,
            )
            with pytest.raises(SimulationError, match="different automaton"):
                backend.scan(b"abc", resume=foreign)
        # A plain checkpoint that does fit is just a resume point.
        plain = Checkpoint(3, 0, False)
        assert backend.scan(b"cat", resume=plain).report_offsets() == [5]

    def test_group_degrades_to_golden(self, mixed_artifact, golden_reports):
        backend = create_backend("hybrid", mixed_artifact)

        class Boom:
            def scan(self, *args, **kwargs):
                raise SimulationError("injected group failure")

            def scan_many(self, *args, **kwargs):
                raise SimulationError("injected group failure")

        backend.groups[0].backend = Boom()
        result = backend.scan(DATA)
        assert _report_set(result) == golden_reports
        assert backend.groups[0].backend_name == FALLBACK_SUBSTRATE
        assert any(
            "fall" in event or "degrad" in event
            for event in backend.health_events
        )

    def test_respects_stored_classification(self, mixed_artifact):
        classification = classify_automaton(mixed_artifact.automaton)
        artifact = mixed_artifact.with_classify_tables(
            classification.to_tables()
        )
        backend = HybridBackend.from_artifact(artifact)
        assert [row["backend"] for row in backend.placement()] == [
            "lazy-dfa", "packed-kernel",
        ]

    def test_single_substrate_workload_single_group(self):
        artifact = _artifact(FRIENDLY_PATTERNS)
        backend = create_backend("hybrid", artifact)
        placement = backend.placement()
        assert len(placement) == 1
        assert placement[0]["backend"] == "lazy-dfa"


# ---------------------------------------------------------------------------
# determinisation-explosion satellite


class TestDeterminisationExplosion:
    def test_typed_error_carries_attribution(self, mixed_artifact):
        with pytest.raises(DeterminisationExplosion) as excinfo:
            create_backend(
                "eager-dfa", mixed_artifact, minimize=False, max_states=100
            )
        error = excinfo.value
        assert error.component_id is not None
        assert error.state_estimate >= 100
        assert error.max_states == 100
        assert error.component_id in str(error)
        # The hostile CC's states are the m4_* family (5th pattern).
        assert error.component_id.startswith("m4")

    def test_default_engine_records_health_event(self):
        engine = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS,
            cache=False,
            backend_options={"minimize": False, "max_states": 100},
        )
        # Default backend ignores the DFA options entirely.
        assert engine.health().tier == "cold-compile"


# ---------------------------------------------------------------------------
# engine policy


class TestEngineHybrid:
    def test_scan_matches_golden(self, golden_reports):
        engine = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, backend="hybrid"
        )
        ends = sorted(match.end for match in engine.scan(DATA))
        assert ends == sorted(offset for offset, _, _ in golden_reports)

    def test_health_reports_placement(self):
        engine = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, backend="hybrid"
        )
        health = engine.health()
        assert health.backend == "hybrid"
        assert {row["backend"] for row in health.placement} == {
            "lazy-dfa", "packed-kernel",
        }

    def test_warm_cache_persists_classification(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, backend="hybrid", cache=cache_dir
        )
        assert cold.health().tier == "cold-compile"
        warm = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, backend="hybrid", cache=cache_dir
        )
        assert warm.health().tier == "warm-cache"
        assert warm.artifact.classify_tables
        assert warm.health().placement == cold.health().placement

    def test_classification_stable_across_compile_jobs(self, tmp_path):
        placements = []
        for jobs in (1, 2):
            engine = CacheAutomatonEngine.from_patterns(
                MIXED_PATTERNS,
                backend="hybrid",
                cache=str(tmp_path / f"cache{jobs}"),
                compile_jobs=jobs,
            )
            placements.append(engine.health().placement)
        assert placements[0] == placements[1]

    def test_auto_mixed_selects_the_packed_kernel(self):
        """Once one component needs the kernel the others ride along on
        its per-component tables; ``hybrid`` is by request only."""
        engine = CacheAutomatonEngine.from_patterns(MIXED_PATTERNS, auto=True)
        health = engine.health()
        assert health.backend == "packed-kernel"
        assert health.placement == ()
        assert any(
            "auto placement selected packed-kernel" in event
            and "2 substrate(s)" in event
            for event in health.events
        )

    def test_auto_friendly_selects_single_substrate(self):
        engine = CacheAutomatonEngine.from_patterns(
            FRIENDLY_PATTERNS, auto=True
        )
        assert engine.health().backend == "lazy-dfa"
        assert engine.health().placement == ()

    def test_explicit_backend_wins_over_auto(self):
        engine = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, backend="packed-kernel", auto=True
        )
        assert engine.health().backend == "packed-kernel"

    def test_streaming_through_engine(self, golden_reports):
        engine = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, backend="hybrid"
        )
        scanner = engine.stream()
        ends = []
        for start in range(0, len(DATA), 11):
            ends.extend(
                match.end for match in scanner.scan(DATA[start:start + 11])
            )
        assert sorted(ends) == sorted(
            offset for offset, _, _ in golden_reports
        )


# ---------------------------------------------------------------------------
# service integration


class TestServiceHybrid:
    def test_tenant_budget_reaches_lazy_group(self):
        import asyncio

        from repro.service.service import ScanService, TenantLimits

        async def run():
            service = ScanService()
            await service.start()
            try:
                service.register(
                    "tenant",
                    MIXED_PATTERNS,
                    backend="hybrid",
                    limits=TenantLimits(dfa_max_states=512),
                )
                outcome = await service.scan("tenant", DATA)
                engine = service.tenant_engine("tenant")
                lazy = [
                    group
                    for group in engine._backend.groups
                    if group.backend_name == "lazy-dfa"
                ]
                assert lazy
                assert lazy[0].backend.dfa._max_states == 512
                return outcome
            finally:
                await service.stop()

        outcome = asyncio.run(run())
        assert outcome.served_by == "hybrid"
        assert outcome.reports
