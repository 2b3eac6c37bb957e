"""Tests for the high-level scanning engine façade."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.engine
from repro.compiler.cache import CompileCache
from repro.backends.registry import resolve_backend_name
from repro.compiler.classify import cached_substrates, classify_automaton
from repro.core.design import CA_S
from repro.engine import CacheAutomatonEngine, Match
from repro.errors import ReproError, SimulationError
from repro.regex.compile import compile_patterns
from repro.sim.golden import match_offsets


@pytest.fixture(scope="module")
def engine():
    return CacheAutomatonEngine.from_patterns(
        ["bat", "c[ao]t", "dog+"], rule_ids=["BAT", "CAT", "DOG"]
    )


class TestScan:
    def test_basic_matches(self, engine):
        matches = engine.scan(b"the cat sat on the bat")
        assert [(m.end, m.rule) for m in matches] == [(6, "CAT"), (21, "BAT")]

    def test_matches_are_value_objects(self, engine):
        match = engine.scan(b"a bat")[0]
        assert match == Match(4, "BAT", match.state)

    def test_count(self, engine):
        # cat, cot, bat, and dog+ firing at each of the three trailing g's.
        assert engine.count(b"cat cot bat doggg") == 6

    def test_agrees_with_golden(self, engine):
        data = b"doggo cats bats in a cot"
        expected = match_offsets(engine.automaton, data)
        assert [m.end for m in engine.scan(data)] == expected

    def test_docstring_example(self):
        engine = CacheAutomatonEngine.from_patterns(["bat", "c[ao]t"])
        ends = [match.end for match in engine.scan(b"the cat sat on the bat")]
        assert ends == [6, 21]


class TestStream:
    def test_chunked_equals_whole(self, engine):
        data = b"the cat sat on the bat; dogs in cots"
        whole = [(m.end, m.rule) for m in engine.scan(data)]
        scanner = engine.stream()
        chunked = []
        for start in range(0, len(data), 7):
            chunked.extend(
                (m.end, m.rule) for m in scanner.scan(data[start : start + 7])
            )
        assert chunked == whole
        assert scanner.position == len(data)

    def test_match_spanning_chunk_boundary(self, engine):
        scanner = engine.stream()
        first = scanner.scan(b"xxca")
        second = scanner.scan(b"txx")
        assert first == []
        assert [(m.end, m.rule) for m in second] == [(4, "CAT")]

    def test_independent_streams(self, engine):
        scanner_a = engine.stream()
        scanner_b = engine.stream()
        scanner_a.scan(b"ca")
        # scanner_b has no 'ca' prefix: 't' alone must not fire.
        assert scanner_b.scan(b"t") == []
        assert [(m.end, m.rule) for m in scanner_a.scan(b"t")] == [(2, "CAT")]


class TestConstructors:
    def test_from_anml(self, engine):
        from repro.automata.anml import to_anml

        clone = CacheAutomatonEngine.from_anml(to_anml(engine.automaton))
        data = b"bat cot"
        assert [m.end for m in clone.scan(data)] == [
            m.end for m in engine.scan(data)
        ]

    def test_from_anml_file(self, engine, tmp_path):
        from repro.automata.anml import to_anml

        path = tmp_path / "machine.anml"
        path.write_text(to_anml(engine.automaton), encoding="utf-8")
        clone = CacheAutomatonEngine.from_anml_file(str(path))
        assert clone.state_count == engine.state_count

    def test_optimize_with_ca_s(self):
        engine = CacheAutomatonEngine.from_patterns(
            ["prefix_one", "prefix_two"], design=CA_S, optimize=True
        )
        assert engine.state_count < 20  # shared 'prefix_' merged
        assert [m.end for m in engine.scan(b"a prefix_two!")] == [11]

    def test_unknown_option_is_a_type_error(self, engine):
        from repro.automata.anml import to_anml

        with pytest.raises(TypeError, match="nope"):
            CacheAutomatonEngine.from_patterns(["ab"], nope=1)
        with pytest.raises(TypeError, match="nope"):
            CacheAutomatonEngine.from_anml(to_anml(engine.automaton), nope=1)

    def test_default_rule_ids_are_patterns(self):
        engine = CacheAutomatonEngine.from_patterns(["ab+"])
        assert engine.scan(b"abb")[0].rule == "ab+"


class TestIntrospection:
    def test_static_properties(self, engine):
        assert engine.throughput_gbps == 16.0
        assert engine.cache_bytes == 8192
        assert engine.state_count == len(engine.automaton)

    def test_scan_time(self, engine):
        assert engine.scan_time_ms(2_000_000) == pytest.approx(1.0)
        with pytest.raises(ReproError):
            engine.scan_time_ms(-1)

    def test_summary_before_traffic(self):
        engine = CacheAutomatonEngine.from_patterns(["x"])
        summary = engine.performance_summary()
        assert summary.energy_nj_per_symbol is None
        assert summary.speedup_vs_ap == pytest.approx(15.0, rel=0.01)

    def test_summary_accumulates_traffic(self, engine):
        engine.scan(b"some traffic with a bat")
        summary = engine.performance_summary()
        assert summary.energy_nj_per_symbol > 0
        assert summary.average_power_watts > 0
        assert summary.design == "CA_P"
        assert summary.partitions == 1


    @pytest.mark.parametrize(
        "backend, measured",
        [
            ("packed-kernel", True),
            ("lazy-dfa", False),
            ("golden-interpreter", False),
        ],
    )
    def test_energy_is_unknown_without_an_activity_profile(
        self, backend, measured
    ):
        engine = CacheAutomatonEngine.from_patterns(["bat"], backend=backend)
        engine.scan(b"some traffic with a bat")
        summary = engine.performance_summary()
        for figure in (summary.energy_nj_per_symbol, summary.average_power_watts):
            assert (figure is not None) == measured
            assert figure is None or figure > 0


class TestMultiStream:
    def test_scan_many_equals_scan(self, engine):
        streams = [b"the cat sat", b"a bat!", b"", b"doggg"]
        batched = engine.scan_many(streams)
        for stream, matches in zip(streams, batched):
            assert matches == engine.scan(stream)

    def test_stream_many_chunked_equals_whole(self, engine):
        streams = [b"the cat sat on the bat", b"dogs sleep in cots", b"cat"]
        whole = [[(m.end, m.rule) for m in engine.scan(s)] for s in streams]
        scanner = engine.stream_many(len(streams))
        collected = [[] for _ in streams]
        for start in range(0, max(len(s) for s in streams), 5):
            chunks = [s[start : start + 5] for s in streams]
            for index, matches in enumerate(scanner.scan(chunks)):
                collected[index].extend((m.end, m.rule) for m in matches)
        assert collected == whole
        assert scanner.positions == [len(s) for s in streams]

    def test_stream_many_boundary_match(self, engine):
        scanner = engine.stream_many(2)
        first = scanner.scan([b"xxca", b"ba"])
        assert first == [[], []]
        second = scanner.scan([b"txx", b"t"])
        assert [(m.end, m.rule) for m in second[0]] == [(4, "CAT")]
        assert [(m.end, m.rule) for m in second[1]] == [(2, "BAT")]
        assert scanner.stream_count == 2

    def test_stream_many_validates(self, engine):
        with pytest.raises(ReproError):
            engine.stream_many(0)
        scanner = engine.stream_many(2)
        with pytest.raises(ReproError):
            scanner.scan([b"only one"])

    def test_scan_many_accumulates_profile(self):
        engine = CacheAutomatonEngine.from_patterns(["bat"])
        engine.scan_many([b"a bat", b"bat bat"])
        summary = engine.performance_summary()
        assert summary.energy_nj_per_symbol > 0


class TestInputValidation:
    def test_scan_rejects_non_bytes(self, engine):
        with pytest.raises(SimulationError, match="bytes-like.*str"):
            engine.scan("not bytes")
        with pytest.raises(SimulationError, match="bytes-like.*int"):
            engine.scan(42)

    def test_count_rejects_non_bytes(self, engine):
        with pytest.raises(SimulationError, match="bytes-like"):
            engine.count(None)

    def test_scan_accepts_bytes_like(self, engine):
        assert engine.scan(bytearray(b"a bat")) == engine.scan(b"a bat")
        assert engine.scan(memoryview(b"a bat")) == engine.scan(b"a bat")

    def test_scan_many_rejects_single_byte_string(self, engine):
        with pytest.raises(SimulationError, match="sequence of byte streams"):
            engine.scan_many(b"one stream")
        with pytest.raises(SimulationError, match="sequence of byte streams"):
            engine.scan_many("text")

    def test_scan_many_names_offending_stream(self, engine):
        with pytest.raises(SimulationError, match="stream 1"):
            engine.scan_many([b"fine", "broken"])

    def test_stream_chunk_rejects_non_bytes(self, engine):
        scanner = engine.stream()
        with pytest.raises(SimulationError, match="stream chunk"):
            scanner.scan("oops")

    def test_stream_many_rejects_bad_chunks(self, engine):
        scanner = engine.stream_many(2)
        with pytest.raises(SimulationError, match="sequence of per-stream"):
            scanner.scan(b"both")
        with pytest.raises(SimulationError, match="chunk for stream 0"):
            scanner.scan([None, b"ok"])
        # A failed scan must not corrupt the scanner's checkpoints.
        assert scanner.scan([b"bat", b""])[0]

    def test_empty_inputs_are_fine(self, engine):
        assert engine.scan(b"") == []
        assert engine.scan_many([]) == []
        assert engine.scan_many([b"", b""]) == [[], []]
        assert engine.count(b"") == 0


# -- warm starts ------------------------------------------------------------

FRIENDLY = ["bat", "c[ao]t", "dog+", "bar[t]?"]
HOSTILE = ["x.{14}y"]
WARM_DATA = (
    b"the cat sat on the bat while x0123456789abcdy dogged bart bar dog; "
    b"a second xAAAAAAAAAAAAAAy gap match and one cot at the end cot"
)
#: Where ``auto=True`` puts each list is the backend its label names: a
#: mixed one runs whole on the packed kernel, which ``hybrid`` is a name
#: for.
PLACEMENTS = {
    "lazy-dfa": FRIENDLY,
    "packed-kernel": HOSTILE,
    "hybrid": FRIENDLY + HOSTILE,
}


def _observed(engine):
    """What must not depend on whether the engine came up warm or cold."""
    health = engine.health()
    return (
        health.backend,
        health.events,
        sorted((m.end, m.rule, m.state) for m in engine.scan(WARM_DATA)),
    )


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"a warm start called {name}")

    return refused


@pytest.fixture()
def no_front_end(monkeypatch):
    """Arms raising stubs in place of the regex compiler and the per-CC
    classifier."""

    def arm():
        for target in (
            "repro.engine.compile_patterns",
            "repro.engine.classify_automaton",
        ):
            monkeypatch.setattr(target, _refuse(target))

    return arm


class TestWarmStartRecomputesNothing:
    @pytest.mark.parametrize("backend", sorted(PLACEMENTS))
    def test_from_patterns(self, tmp_path, no_front_end, backend):
        patterns = PLACEMENTS[backend]
        cold = CacheAutomatonEngine.from_patterns(
            patterns, auto=True, cache=tmp_path
        )
        assert cold.health().tier == "cold-compile"
        assert cold.health().backend == resolve_backend_name(backend)
        assert any("auto placement" in event for event in cold.health().events)
        no_front_end()
        warm = CacheAutomatonEngine.from_patterns(
            patterns, auto=True, cache=tmp_path
        )
        assert warm.health().tier == "warm-cache"
        assert _observed(warm) == _observed(cold)
        assert warm.cache_info()["stores"] == 0
        assert warm.automaton.ste_ids() == cold.automaton.ste_ids()

    @pytest.mark.parametrize("backend", sorted(PLACEMENTS))
    def test_from_automaton(self, tmp_path, no_front_end, backend):
        patterns = PLACEMENTS[backend]
        automaton = compile_patterns(patterns, report_codes=patterns)
        cold = CacheAutomatonEngine(automaton, auto=True, cache=tmp_path)
        assert cold.health().backend == resolve_backend_name(backend)
        no_front_end()
        warm = CacheAutomatonEngine(automaton, auto=True, cache=tmp_path)
        assert warm.health().tier == "warm-cache"
        assert _observed(warm) == _observed(cold)

    def test_checkpoints_travel_between_cold_and_warm(self, tmp_path):
        patterns = PLACEMENTS["hybrid"]
        cold = CacheAutomatonEngine.from_patterns(
            patterns, auto=True, cache=tmp_path
        )
        warm = CacheAutomatonEngine.from_patterns(
            patterns, auto=True, cache=tmp_path
        )
        head, tail = WARM_DATA[:50], WARM_DATA[50:]
        for first, second in ((cold, warm), (warm, cold)):
            left = first.backend.scan(head)
            right = second.backend.scan(tail, resume=left.checkpoint)
            whole = second.backend.scan(WARM_DATA)
            assert right.checkpoint == whole.checkpoint
            assert sorted(
                (r.offset, r.ste_id) for r in left.reports + right.reports
            ) == sorted((r.offset, r.ste_id) for r in whole.reports)

    def test_decision_is_stored_by_whoever_classified_first(self, tmp_path):
        """An engine that was told its backend stores no classification;
        the first ``auto=True`` engine on that artifact classifies once
        and adds it, the next one reads it."""
        CacheAutomatonEngine.from_patterns(
            FRIENDLY, backend="packed-kernel", cache=tmp_path
        )
        first = CompileCache(tmp_path)
        engine = CacheAutomatonEngine.from_patterns(
            FRIENDLY, auto=True, cache=first
        )
        assert engine.health().tier == "warm-cache"
        assert engine.health().backend == "lazy-dfa"
        assert first.stats.stores == 1
        second = CompileCache(tmp_path)
        again = CacheAutomatonEngine.from_patterns(
            FRIENDLY, auto=True, cache=second
        )
        assert second.stats.stores == 0
        assert again.artifact.classify_tables
        assert _observed(again) == _observed(engine)


class TestStaleClassification:
    """Tables that default ``classify_automaton`` would not have written
    are not a placement decision: the ruleset is classified again and the
    tables replaced."""

    @staticmethod
    def _restore(tmp_path, patterns, edit):
        """Cold-start ``patterns``, then rewrite the stored artifact's
        classification through ``edit``; returns the cold engine."""
        cold = CacheAutomatonEngine.from_patterns(
            patterns, auto=True, cache=tmp_path
        )
        artifact = CompileCache(tmp_path).load_artifact(
            cold.automaton, cold.design
        )
        CompileCache(tmp_path).store_artifact(
            artifact.with_classify_tables(edit(artifact.classify_tables))
        )
        return cold

    @staticmethod
    def _other_model(tables):
        """The tables a cost-model classifier wrote (table version 1):
        features, costs, the substrate list and the model's coefficients
        beside an assignment that sends every component to the packed
        kernel."""
        count = len(tables["classify_assignment"])
        return {
            "classify_version": np.asarray(1, dtype=np.int64),
            "classify_features": np.zeros((count, 10)),
            "classify_costs": np.zeros((count, 2)),
            "classify_assignment": np.ones(count, dtype=np.int32),
            "classify_substrates": np.asarray(["lazy-dfa", "packed-kernel"]),
            "classify_model": np.asarray([0.26, 25.0, 0.2, 0.094, 4096.0]),
        }

    @staticmethod
    def _other_version(tables):
        edited = dict(tables)
        edited["classify_version"] = np.asarray(99, dtype=np.int64)
        edited["classify_assignment"] = np.ones_like(
            tables["classify_assignment"]
        )
        return edited

    @pytest.mark.parametrize("backend", ["lazy-dfa", "hybrid"])
    @pytest.mark.parametrize("edit", ["_other_model", "_other_version"])
    def test_ignored_and_reclassified(
        self, tmp_path, monkeypatch, backend, edit
    ):
        patterns = PLACEMENTS[backend]
        cold = self._restore(tmp_path, patterns, getattr(self, edit))
        calls = []
        classify = repro.engine.classify_automaton
        monkeypatch.setattr(
            "repro.engine.classify_automaton",
            lambda automaton: calls.append(1) or classify(automaton),
        )
        cache = CompileCache(tmp_path)
        warm = CacheAutomatonEngine.from_patterns(
            patterns, auto=True, cache=cache
        )
        assert calls == [1]
        assert warm.health().tier == "warm-cache"
        assert _observed(warm) == _observed(cold)
        # The fresh tables replaced the stale ones: the next start reads
        # the decision again.
        assert cache.stats.stores == 1
        stored = CompileCache(tmp_path).load_artifact(
            warm.automaton, warm.design
        )
        assert cached_substrates(stored.classify_tables) is not None
        assert set(stored.classify_tables) == {
            "classify_version", "classify_assignment",
        }
        CacheAutomatonEngine.from_patterns(patterns, auto=True, cache=tmp_path)
        assert calls == [1]

    def test_malformed_tables_are_no_decision(self):
        tables = classify_automaton(
            CacheAutomatonEngine.from_patterns(
                PLACEMENTS["hybrid"], cache=None
            ).automaton
        ).to_tables()
        assert sorted(set(cached_substrates(tables))) == [
            "lazy-dfa", "packed-kernel",
        ]
        assert cached_substrates({}) is None
        for name, value in (
            ("classify_assignment", np.asarray([0, 7], dtype=np.int32)),
            ("classify_assignment", np.asarray([0, -1], dtype=np.int32)),
            ("classify_assignment", np.asarray([0.0, 1.0])),
            ("classify_version", np.asarray(1, dtype=np.int64)),
        ):
            assert cached_substrates({**tables, name: value}) is None


def test_engine_classifies_only_when_the_artifact_has_no_decision():
    """``classify_automaton`` is a compile stage, not a start-up step: the
    engine may call it in one place, under the test that found no usable
    decision in the cached artifact."""
    tree = ast.parse(Path(repro.engine.__file__).read_text(encoding="utf-8"))
    guarded = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = ast.unparse(node.test)
        for inner in node.body:
            for call in ast.walk(inner):
                if (
                    isinstance(call, ast.Call)
                    and ast.unparse(call.func) == "classify_automaton"
                ):
                    guarded.append(test)
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("classify_automaton")
    ]
    assert len(calls) == 1
    assert "substrates is None" in guarded
    source = ast.unparse(tree)
    assert source.index("load_artifact(") < source.index("classify_automaton(")
    assert "substrates = None if loaded is None else cached_substrates(" in source
