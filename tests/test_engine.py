"""Tests for the high-level scanning engine façade."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine
from repro.automata import anml
from repro.compiler.cache import CompileCache
from repro.backends.registry import resolve_backend_name
from repro.compiler import classify
from repro.compiler.classify import (
    SUBSTRATES,
    VERDICT_MEMO_BYTES,
    cached_placement,
    place_automaton,
)
from repro.core.design import CA_S
from repro.engine import CacheAutomatonEngine, Match
from repro.errors import DegradedModeWarning, ReproError, SimulationError
from repro.memo import BoundedMemo
from repro.regex.compile import compile_patterns
from repro.sim.golden import match_offsets
from tests.conftest import churn_patterns


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


#: What a warm start appends to the auto-placement event it read back.
FROM_ARTIFACT = "; decision read from the artifact)"


def _observed(engine):
    """What must not depend on whether the engine came up warm or cold:
    the backend, the events (a read-back decision's tag taken off) and
    the matches."""
    health = engine.health()
    return (
        health.backend,
        tuple(event.replace(FROM_ARTIFACT, ")") for event in health.events),
        sorted((m.end, m.rule, m.state) for m in engine.scan(WARM_DATA)),
    )


def _read_back(engine):
    """Whether the engine's one auto-placement event says the decision
    came from the artifact rather than from the probes."""
    (event,) = [
        event
        for event in engine.health().events
        if event.startswith("auto placement selected ")
    ]
    return event.endswith(FROM_ARTIFACT)


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"a warm start called {name}")

    return refused


@pytest.fixture()
def no_front_end(monkeypatch):
    """Arms raising stubs in place of the regex compiler and the
    ``auto=True`` placement decision."""

    def arm():
        for target in (
            "repro.engine.compile_patterns",
            "repro.engine.place_automaton",
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
        assert (_read_back(cold), _read_back(warm)) == (False, True)
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
        assert (_read_back(cold), _read_back(warm)) == (False, True)

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
        """An engine that was told its backend stores no decision; the
        first ``auto=True`` engine on that artifact decides once and adds
        it, the next one reads it."""
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
        assert (_read_back(engine), _read_back(again)) == (False, True)


#: What a cached automaton builds once something walks its graph.
PER_STATE_DICTS = {"_stes", "_successors", "_predecessors"}


class TestWarmStartBuildsNoStates:
    """A warm build and its scan read the cached automaton's arrays: they
    make a ``Ste`` for no state but one that fired, once, and never build
    the per-state dicts."""

    @pytest.mark.parametrize(
        "patterns, options",
        [
            (FRIENDLY, {"auto": True}),
            (FRIENDLY + HOSTILE, {"auto": True}),
            (FRIENDLY + HOSTILE, {"backend": "lazy-dfa"}),
            (FRIENDLY + HOSTILE, {"backend": "packed-kernel"}),
        ],
        ids=["auto-lazy-dfa", "auto-packed-kernel", "lazy-dfa", "packed-kernel"],
    )
    def test_only_fired_states_are_made(
        self, tmp_path, monkeypatch, patterns, options
    ):
        cold = CacheAutomatonEngine.from_patterns(
            patterns, cache=tmp_path, **options
        )
        made = []
        real = anml.Ste

        def counting(*args, **kwargs):
            ste = real(*args, **kwargs)
            made.append(ste.ste_id)
            return ste

        monkeypatch.setattr(anml, "Ste", counting)
        warm = CacheAutomatonEngine.from_patterns(
            patterns, cache=tmp_path, **options
        )
        matches = warm.scan(WARM_DATA)
        assert warm.health().tier == "warm-cache"
        assert warm.health().backend == cold.health().backend
        assert matches == cold.scan(WARM_DATA)
        fired = {match.state for match in matches}
        assert fired
        assert len(made) == len(set(made))
        assert set(made) <= fired
        assert not PER_STATE_DICTS & set(vars(warm.automaton))


class TestCorruptKernelTables:
    @pytest.mark.parametrize("backend", ["lazy-dfa", "packed-kernel"])
    def test_a_bad_edge_list_is_quarantined_and_recompiled(self, tmp_path, backend):
        """A stored ``kernel_succ_heads`` that leaves the state vector is
        refused by the kernel: the entry is quarantined, the ruleset
        recompiled, the reports are the cold start's, and the tables
        stored again serve the next start warm."""
        cold = CacheAutomatonEngine.from_patterns(
            FRIENDLY, backend=backend, cache=tmp_path
        )
        cache = CompileCache(tmp_path)
        artifact = cache.load_artifact(cold.automaton, cold.design)
        tables = dict(artifact.kernel_tables)
        tables["succ_heads"] = tables["succ_heads"] + int(tables["n_bits"])
        cache.store_artifact(artifact.with_kernel_tables(tables))
        with pytest.warns(DegradedModeWarning, match="rejected"):
            recovered = CacheAutomatonEngine.from_patterns(
                FRIENDLY, backend=backend, cache=tmp_path
            )
        health = recovered.health()
        assert health.tier == "recompiled"
        assert health.cache["quarantines"] == 1
        assert _observed(recovered)[2] == _observed(cold)[2]
        again = CacheAutomatonEngine.from_patterns(
            FRIENDLY, backend=backend, cache=tmp_path
        )
        assert again.health().tier == "warm-cache"
        assert _observed(again)[2] == _observed(cold)[2]


class TestStaleClassification:
    """Tables that ``place_automaton`` would not have written are not a
    placement decision: the ruleset is placed again and the tables
    replaced."""

    @staticmethod
    def _restore(tmp_path, patterns, edit):
        """Cold-start ``patterns``, then rewrite the stored artifact's
        decision through ``edit``; returns the cold engine."""
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
    def _other(tables):
        """The ``SUBSTRATES`` index of the substrate the ruleset does
        *not* run on: stale tables name it, so trusting them would
        show."""
        return int(cached_placement(tables).substrate == "lazy-dfa")

    @classmethod
    def _other_model(cls, tables):
        """The tables a cost-model classifier wrote (table version 1):
        features, costs, the substrate list and the model's coefficients
        beside an assignment that sends every component to the substrate
        the ruleset does not run on."""
        count = int(tables["classify_components"])
        return {
            "classify_version": np.asarray(1, dtype=np.int64),
            "classify_features": np.zeros((count, 10)),
            "classify_costs": np.zeros((count, 2)),
            "classify_assignment": np.full(
                count, cls._other(tables), dtype=np.int32
            ),
            "classify_substrates": np.asarray(["lazy-dfa", "packed-kernel"]),
            "classify_model": np.asarray([0.26, 25.0, 0.2, 0.094, 4096.0]),
        }

    @classmethod
    def _version_2(cls, tables):
        """The census's per-component assignment (table version 2), every
        component on the substrate the ruleset does not run on."""
        count = int(tables["classify_components"])
        return {
            "classify_version": np.asarray(2, dtype=np.int64),
            "classify_assignment": np.full(
                count, cls._other(tables), dtype=np.int32
            ),
        }

    @classmethod
    def _other_version(cls, tables):
        """A well-formed decision for the other substrate, under a table
        version nobody writes."""
        other = cls._other(tables)
        edited = dict(tables)
        edited["classify_version"] = np.asarray(99, dtype=np.int64)
        edited["classify_substrate"] = np.asarray(SUBSTRATES[other])
        # The packed kernel names component 0, the lazy DFA none (-1).
        edited["classify_component"] = np.asarray(other - 1, dtype=np.int64)
        return edited

    @pytest.mark.parametrize("backend", ["lazy-dfa", "hybrid"])
    @pytest.mark.parametrize(
        "edit", ["_other_model", "_version_2", "_other_version"]
    )
    def test_ignored_and_reclassified(
        self, tmp_path, monkeypatch, backend, edit
    ):
        patterns = PLACEMENTS[backend]
        cold = self._restore(tmp_path, patterns, getattr(self, edit))
        calls = []
        place = repro.engine.place_automaton
        monkeypatch.setattr(
            "repro.engine.place_automaton",
            lambda automaton: calls.append(1) or place(automaton),
        )
        cache = CompileCache(tmp_path)
        warm = CacheAutomatonEngine.from_patterns(
            patterns, auto=True, cache=cache
        )
        assert calls == [1]
        assert warm.health().tier == "warm-cache"
        assert _observed(warm) == _observed(cold)
        assert not _read_back(warm)
        # The fresh tables replaced the stale ones: the next start reads
        # the decision again.
        assert cache.stats.stores == 1
        stored = CompileCache(tmp_path).load_artifact(
            warm.automaton, warm.design
        )
        assert set(stored.classify_tables) == {
            "classify_version", "classify_substrate",
            "classify_component", "classify_components",
        }
        assert int(stored.classify_tables["classify_version"]) == 3
        assert cached_placement(stored.classify_tables).substrate == (
            resolve_backend_name(backend)
        )
        again = CacheAutomatonEngine.from_patterns(
            patterns, auto=True, cache=tmp_path
        )
        assert calls == [1]
        assert _read_back(again)
        assert _observed(again) == _observed(cold)

    def test_malformed_tables_are_no_decision(self):
        placement = place_automaton(
            CacheAutomatonEngine.from_patterns(
                PLACEMENTS["hybrid"], cache=None
            ).automaton
        )
        assert placement == ("packed-kernel", 4, 5)
        tables = placement.to_tables()
        assert cached_placement(tables) == placement
        assert cached_placement({}) is None
        for name, value in (
            ("classify_substrate", np.asarray("eager-dfa")),
            ("classify_substrate", np.asarray("lazy-dfa")),
            ("classify_substrate", np.asarray(1)),
            ("classify_component", np.asarray(5)),
            ("classify_component", np.asarray(-1)),
            ("classify_component", np.asarray(-2)),
            ("classify_component", np.asarray(4.0)),
            ("classify_component", np.asarray([4, 0])),
            ("classify_components", np.asarray(-1)),
            ("classify_components", np.asarray(4)),
            ("classify_version", np.asarray(2, dtype=np.int64)),
            ("classify_version", np.asarray("3")),
        ):
            assert cached_placement({**tables, name: value}) is None, name
        for missing in tables:
            partial = {k: v for k, v in tables.items() if k != missing}
            assert cached_placement(partial) is None, missing
        # A friendly ruleset's decision names no component.
        friendly = place_automaton(compile_patterns(FRIENDLY))
        assert friendly == ("lazy-dfa", None, len(FRIENDLY))
        assert cached_placement(friendly.to_tables()) == friendly
        stale = {
            **friendly.to_tables(),
            "classify_component": np.asarray(0, dtype=np.int64),
        }
        assert cached_placement(stale) is None


def test_engine_classifies_only_when_the_artifact_has_no_decision():
    """``place_automaton`` is a compile stage, not a start-up step: the
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
                    and ast.unparse(call.func) == "place_automaton"
                ):
                    guarded.append(test)
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith(
            ("place_automaton", "classify_automaton", "probe_subset_closure")
        )
    ]
    assert len(calls) == 1
    assert "decision is None" in guarded
    source = ast.unparse(tree)
    assert source.index("load_artifact(") < source.index("place_automaton(")
    assert "decision = None if loaded is None else cached_placement(" in source


# -- edits ----------------------------------------------------------------

#: Rules the edit properties draw from: friendly ones and hostile ones
#: (the bounded gaps abort their probes), some of them shaped alike.
EDIT_POOL = [
    "bat", "cat", "c[ao]t", "dog+", "bar[t]?", "^ab*c", "q(r|s)+t",
    "[0-9]+z", "x.{14}y", "a.{12}b", "k.{12}m",
]


def _edited_scan_text(patterns):
    """Bytes that fire some of ``patterns``' rules: the literal ones."""
    literals = [rule for rule in patterns if rule.isalnum()]
    return (" -- ".join(literals[:12]) + " padding text 0123456789 ").encode() * 4


@pytest.fixture()
def fresh_verdicts(monkeypatch):
    """An empty probe-verdict memo of the default bound for one test."""
    memo = BoundedMemo(VERDICT_MEMO_BYTES)
    monkeypatch.setattr(classify, "VERDICTS", memo)
    return memo


class TestAnEditRecompilesItsEdit:
    @pytest.mark.parametrize(
        "options",
        [{"auto": True}, {"backend": "lazy-dfa"}, {"backend": "packed-kernel"}],
        ids=["auto", "lazy-dfa", "packed-kernel"],
    )
    def test_a_cold_build_makes_no_per_state_object(
        self, tmp_path, monkeypatch, options
    ):
        """From patterns to reports, a cold build reads the automaton's
        columns only: nothing decodes it into states and edge sets."""
        decodes = []
        real = anml._ArrayAutomaton._decode
        monkeypatch.setattr(
            anml._ArrayAutomaton,
            "_decode",
            lambda self: decodes.append(1) or real(self),
        )
        patterns = churn_patterns(10)
        data = _edited_scan_text(patterns)
        engine = CacheAutomatonEngine.from_patterns(
            patterns, cache=tmp_path, **options
        )
        assert engine.health().tier == "cold-compile"
        matches = engine.scan(data)
        assert decodes == []
        assert not PER_STATE_DICTS & set(vars(engine.automaton))
        golden = CacheAutomatonEngine.from_patterns(
            patterns, backend="golden-interpreter", cache=None
        )
        assert matches and matches == golden.scan(data)

    def test_memoised_placement_equals_a_fresh_probe(self, fresh_verdicts):
        from repro.workloads.suite import build_suite

        for benchmark in build_suite():
            automaton = benchmark.build()
            fresh_verdicts.clear()
            fresh = place_automaton(automaton)
            probed = fresh_verdicts.info()["misses"]
            assert place_automaton(automaton) == fresh, benchmark.name
            assert fresh_verdicts.info()["misses"] == probed, benchmark.name

    def test_an_edit_probes_its_component_only(self, fresh_verdicts):
        patterns = churn_patterns(15)
        first = place_automaton(compile_patterns(patterns))
        assert first.substrate == "lazy-dfa"
        edited = list(patterns)
        edited[33] = "qzxwvy42"
        automaton = compile_patterns(edited)
        probed = fresh_verdicts.info()["misses"]
        memoised = place_automaton(automaton)
        assert fresh_verdicts.info()["misses"] == probed + 1
        fresh_verdicts.clear()
        assert memoised == place_automaton(automaton) == first

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.lists(st.sampled_from(EDIT_POOL), min_size=1, max_size=7),
        at=st.integers(0, 6),
        rule=st.sampled_from(EDIT_POOL),
    )
    def test_placement_after_an_edit_is_a_fresh_probes(self, base, at, rule):
        edited = list(base)
        edited[at % len(base)] = rule
        memo = classify.VERDICTS
        try:
            classify.VERDICTS = BoundedMemo(VERDICT_MEMO_BYTES)
            place_automaton(compile_patterns(base))
            memoised = place_automaton(compile_patterns(edited))
            classify.VERDICTS = BoundedMemo(VERDICT_MEMO_BYTES)
            assert memoised == place_automaton(compile_patterns(edited))
        finally:
            classify.VERDICTS = memo

    def test_the_verdict_memo_holds_its_byte_bound(self, fresh_verdicts):
        automaton = compile_patterns(churn_patterns(15))
        expected = place_automaton(automaton)
        fresh_verdicts.clear()
        fresh_verdicts.limit = 8_000
        assert place_automaton(automaton) == expected
        info = fresh_verdicts.info()
        assert info["evictions"] > 0
        assert 0 < info["bytes"] <= 8_000
