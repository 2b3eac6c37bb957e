"""The ``auto=True`` placement (:mod:`repro.compiler.classify`): the
per-component census, the engine's early-exit decision and its artifact
tables, and the ``hybrid`` name, an alias of the packed kernel.

The headline scenario: one DFA-hostile component (``x.{14}y`` —
bounded-gap patterns are the classic subset-construction blow-up) mixed
with several DFA-friendly literal-ish components.  The census must call
the friendly components ``lazy-dfa`` and the hostile one
``packed-kernel`` — exactly the components whose subset-closure probe
aborts — the decision must name that component, and ``auto=True`` must
run the mixed ruleset whole on the packed kernel, bit-identical to the
golden interpreter.
"""

import warnings

import numpy as np
import pytest

import repro.engine
from repro.backends.artifact import CompiledArtifact
from repro.backends.mapped import PackedKernelBackend
from repro.backends.registry import (
    backend_names,
    create_backend,
    resolve_backend_name,
)
from repro.compiler import compile_automaton
from repro.compiler.cache import CompileCache
import repro.compiler.classify
from repro.automata.anml import HomogeneousAutomaton
from repro.compiler.classify import (
    cached_placement,
    classify_automaton,
    default_probe_budget,
    place_automaton,
    probe_subset_closure,
)
from repro.core.design import CA_P
from repro.engine import CacheAutomatonEngine
from repro.errors import SimulationError
from repro.regex.compile import compile_patterns
from repro.sim.golden import Checkpoint, GoldenSimulator

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


def _substrates(classification):
    return [
        classification.backend_of(index)
        for index in range(classification.component_count)
    ]


def _counting_classifier(monkeypatch):
    """Route the engine's placement decision through a call log; returns
    it."""
    calls = []
    place = repro.engine.place_automaton
    monkeypatch.setattr(
        "repro.engine.place_automaton",
        lambda automaton: calls.append(1) or place(automaton),
    )
    return calls


@pytest.fixture(scope="module")
def mixed_artifact():
    return _artifact(MIXED_PATTERNS)


@pytest.fixture(scope="module")
def golden_reports(mixed_artifact):
    backend = create_backend("golden-interpreter", mixed_artifact)
    return _report_set(backend.scan(DATA))


# ---------------------------------------------------------------------------
# classifier


class TestClassifier:
    def test_mixed_workload_assignment(self, mixed_artifact):
        classification = classify_automaton(mixed_artifact.automaton)
        assert set(_substrates(classification)) == {"lazy-dfa", "packed-kernel"}
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
        assert set(_substrates(classification)) == {"lazy-dfa"}

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
                probed = probe_subset_closure(automaton, list(members))
                row = dict(zip(FEATURE_COLUMNS, classification.features[index]))
                assert row["states"] == len(members)
                assert row["byte_classes"] == len(set(signatures)) == probed[2]
                assert (row["probe_states"], bool(row["probe_aborted"])) == (
                    probed[0], probed[1],
                )

    def test_probe_budget_scales_and_caps(self):
        assert default_probe_budget(1) == 48
        assert default_probe_budget(10) == 80
        assert default_probe_budget(10_000) == 512

    @pytest.mark.parametrize(
        "name", ["Fermi", "Hamming", "RandomForest", "Protomata", "Snort"]
    )
    def test_a_component_is_lazy_iff_its_probe_closes(self, name):
        """The rule, stated once: no cost model stands between the probe
        and the substrate."""
        from repro.workloads.suite import get_benchmark

        automaton = get_benchmark(name).build()
        classification = classify_automaton(automaton)
        for index, members in enumerate(classification.components):
            _, aborted, _ = probe_subset_closure(automaton, list(members))
            assert (classification.backend_of(index) == "lazy-dfa") == (
                not aborted
            ), (name, index)

    def test_tables_round_trip(self, mixed_artifact):
        placement = place_automaton(mixed_artifact.automaton)
        tables = placement.to_tables()
        assert set(tables) == {
            "classify_version", "classify_substrate",
            "classify_component", "classify_components",
        }
        assert cached_placement(tables) == placement

    def test_tables_reject_wrong_automaton(self, tmp_path, monkeypatch):
        """Tables name no automaton: they live in the artifact, whose
        cache key is the automaton's fingerprint, so another automaton
        never reads them — it is classified itself."""
        CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, auto=True, cache=tmp_path
        )
        calls = _counting_classifier(monkeypatch)
        other = CacheAutomatonEngine.from_patterns(
            FRIENDLY_PATTERNS, auto=True, cache=tmp_path
        )
        assert calls == [1]
        assert other.health().backend == "lazy-dfa"


# ---------------------------------------------------------------------------
# the engine's decision


@pytest.fixture(scope="module")
def suite_automata():
    from repro.workloads.suite import build_suite

    return {bench.name: bench.build() for bench in build_suite()}


def _census_verdict(automaton):
    """What the census says the engine must decide: the substrate, the
    first component whose probe aborted, and the component count."""
    classification = classify_automaton(automaton)
    aborted = [
        index
        for index in range(classification.component_count)
        if classification.backend_of(index) == "packed-kernel"
    ]
    count = classification.component_count
    substrate = "lazy-dfa" if count and not aborted else "packed-kernel"
    return substrate, (aborted[0] if aborted else None), count


class TestPlacement:
    """``place_automaton`` stops at the first aborted probe and must say
    what the full census says."""

    def test_every_suite_ruleset(self, suite_automata):
        placed = {}
        for name, automaton in suite_automata.items():
            placement = place_automaton(automaton)
            assert placement == _census_verdict(automaton), name
            placed[name] = placement.substrate
        # Both answers occur, so the equality is not vacuous.
        assert set(placed.values()) == {"lazy-dfa", "packed-kernel"}
        assert placed["Hamming"] == placed["Fermi"] == "packed-kernel"
        assert placed["Snort"] == placed["ExactMatch"] == "lazy-dfa"

    @pytest.mark.parametrize(
        "patterns, component",
        [
            (["x.{14}y"], 0),
            (MIXED_PATTERNS, 4),
            (FRIENDLY_PATTERNS, None),
            # Friendly rules, then one hostile rule, the last component
            # probed (components are probed smallest first).
            (FRIENDLY_PATTERNS + ["ab[0-9]e", "q(r|s)+t", "a.{12}b"], 5),
        ],
        ids=["bounded-gap", "mixed", "friendly", "hostile-last"],
    )
    def test_small_rulesets(self, patterns, component):
        automaton = compile_patterns(patterns, report_codes=patterns)
        placement = place_automaton(automaton)
        assert placement == _census_verdict(automaton)
        assert placement.component == component
        assert placement.component_count == len(patterns)

    def test_empty_automaton_runs_on_the_packed_kernel(self):
        automaton = HomogeneousAutomaton("empty")
        assert place_automaton(automaton) == ("packed-kernel", None, 0)
        assert _census_verdict(automaton) == ("packed-kernel", None, 0)
        assert place_automaton(automaton).reason() == "no component to probe"

    def test_probes_stop_at_the_first_abort(self, suite_automata, monkeypatch):
        """Hamming's first component aborts, so one probe decides;
        Snort's all close, so each is probed once."""
        calls = []
        probe = repro.compiler.classify.probe_subset_closure
        monkeypatch.setattr(
            repro.compiler.classify,
            "probe_subset_closure",
            lambda *args, **kwargs: calls.append(1) or probe(*args, **kwargs),
        )
        assert place_automaton(suite_automata["Hamming"]).component == 0
        assert len(calls) == 1
        calls.clear()
        snort = place_automaton(suite_automata["Snort"])
        assert snort.substrate == "lazy-dfa"
        assert len(calls) == snort.component_count == 170


# ---------------------------------------------------------------------------
# artifact tables


class TestArtifactClassifyTables:
    def test_classify_tables_round_trip_payload(self, mixed_artifact):
        placement = place_automaton(mixed_artifact.automaton)
        artifact = mixed_artifact.with_classify_tables(placement.to_tables())
        restored = CompiledArtifact.from_entry_bytes(
            artifact.entry_bytes(), artifact.automaton, artifact.design
        )
        assert set(restored.classify_tables) == set(artifact.classify_tables)
        assert cached_placement(restored.classify_tables) == placement

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
# the ``hybrid`` name


class TestHybridBackend:
    """``hybrid`` resolves to the packed kernel, whatever it is handed."""

    def test_bit_identical_to_golden(self, mixed_artifact):
        """The call the benchmark's probes make, verbatim."""
        assert "hybrid" not in backend_names()
        assert resolve_backend_name("hybrid") == "packed-kernel"
        backend = create_backend(
            "hybrid", mixed_artifact, stride=1,
            classification=classify_automaton(mixed_artifact.automaton),
        )
        assert type(backend) is PackedKernelBackend
        golden = create_backend("golden-interpreter", mixed_artifact)
        assert backend.scan(DATA).reports == golden.scan(DATA).reports

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
        """Foreign means what it means everywhere: a checkpoint in a
        marked dialect (``GoldenSimulator``'s automaton order), or a
        vector naming state bits this artifact's placement does not
        have."""
        backend = create_backend("hybrid", mixed_artifact)
        marked = GoldenSimulator(mixed_artifact.automaton).run(b"abc").checkpoint
        with pytest.raises(SimulationError, match="automaton-order"):
            backend.scan(b"abc", resume=marked)
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

    def test_respects_stored_classification(self, tmp_path, monkeypatch):
        """A stored decision is the decision: an ``auto=True`` warm start
        follows the artifact's tables without classifying again."""
        cold = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, auto=True, cache=tmp_path
        )
        assert cold.health().backend == "packed-kernel"
        artifact = CompileCache(tmp_path).load_artifact(
            cold.automaton, cold.design
        )
        tables = dict(artifact.classify_tables)
        tables["classify_substrate"] = np.asarray("lazy-dfa")
        tables["classify_component"] = np.asarray(-1, dtype=np.int64)
        CompileCache(tmp_path).store_artifact(
            artifact.with_classify_tables(tables)
        )
        calls = _counting_classifier(monkeypatch)
        warm = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, auto=True, cache=tmp_path
        )
        assert calls == []
        assert warm.health().backend == "lazy-dfa"


# ---------------------------------------------------------------------------
# determinisation-explosion satellite


class TestDeterminisationExplosion:
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
        assert engine.health().backend == "packed-kernel"
        ends = sorted(match.end for match in engine.scan(DATA))
        assert ends == sorted(offset for offset, _, _ in golden_reports)

    def test_health_reports_placement(self):
        """Why a ruleset landed where it did is in ``health().events``:
        the first component whose probe exceeded its budget, or that
        every probe closed."""
        for patterns, reason in (
            (
                MIXED_PATTERNS,
                "auto placement selected packed-kernel (component 4 of 5 "
                "exceeds its subset-closure budget)",
            ),
            (
                FRIENDLY_PATTERNS,
                "auto placement selected lazy-dfa (all 3 components' "
                "subset-closure probes close)",
            ),
        ):
            engine = CacheAutomatonEngine.from_patterns(
                patterns, auto=True, cache=False
            )
            assert reason in engine.health().events

    def test_warm_cache_persists_classification(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        cold = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, auto=True, cache=cache_dir
        )
        assert cold.health().tier == "cold-compile"
        calls = _counting_classifier(monkeypatch)
        warm = CacheAutomatonEngine.from_patterns(
            MIXED_PATTERNS, auto=True, cache=cache_dir
        )
        assert warm.health().tier == "warm-cache"
        assert calls == []
        assert set(warm.artifact.classify_tables) == {
            "classify_version", "classify_substrate",
            "classify_component", "classify_components",
        }
        (event,) = cold.health().events
        assert event.endswith(")")
        assert warm.health().events == (
            event[:-1] + "; decision read from the artifact)",
        )

    def test_classification_stable_across_compile_jobs(self, tmp_path):
        decisions = []
        for jobs in (1, 2):
            engine = CacheAutomatonEngine.from_patterns(
                MIXED_PATTERNS,
                auto=True,
                cache=str(tmp_path / f"cache{jobs}"),
                compile_jobs=jobs,
            )
            health = engine.health()
            decisions.append((health.backend, health.events))
        assert decisions[0] == decisions[1]

    def test_auto_mixed_selects_the_packed_kernel(self):
        """Once one component needs the kernel the others ride along on
        its per-component tables."""
        engine = CacheAutomatonEngine.from_patterns(MIXED_PATTERNS, auto=True)
        health = engine.health()
        assert health.backend == "packed-kernel"
        assert any(
            event.startswith("auto placement selected packed-kernel")
            for event in health.events
        )

    def test_auto_friendly_selects_single_substrate(self):
        engine = CacheAutomatonEngine.from_patterns(
            FRIENDLY_PATTERNS, auto=True
        )
        assert engine.health().backend == "lazy-dfa"

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
