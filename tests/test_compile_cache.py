"""Content-addressed artifact cache: round trips, keys, invalidation.

The artifact key is ``(artifact layout version, design fingerprint,
automaton fingerprint)``; a hit must reproduce the cold artifacts
bit-for-bit, and any change to the automaton or the design
parameters must miss.  One level up, the source key ``(front-end
version, patterns, report codes, automaton id)`` addresses the compiled
automaton itself, rebuilt from arrays and re-verified by fingerprint.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import multiprocessing
import pickle
import random
import struct
import sys
import threading
import warnings
import zlib
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.anml import HomogeneousAutomaton, StartKind
from repro.automata.symbols import SymbolSet
from repro.backends import artifact as artifact_module
from repro.backends.artifact import CompiledArtifact
from repro.compiler import cache as cache_module
from repro.compiler import compile_automaton, mapping_to_json
from repro.compiler.cache import (
    ENTRY_MAGIC,
    CacheStats,
    CompileCache,
    automaton_fingerprint,
    cache_key,
    design_fingerprint,
    pack_entry,
    source_key,
    unpack_entry,
)
from repro.core.design import CA_64, CA_P
from repro.engine import CacheAutomatonEngine
from repro.errors import ArtifactError, AutomatonError, DegradedModeWarning
from repro.parallel import default_mp_method
from repro.regex.compile import compile_patterns
from repro.sim.functional import MappedSimulator
from repro.sim.kernel import placement_ids
from repro.sim.lazydfa import LazyDfaKernel
from repro.workloads import synth
from tests.conftest import chain_automaton


@pytest.fixture()
def cache(tmp_path):
    return CompileCache(tmp_path / "artifacts")


@pytest.fixture()
def automaton():
    return chain_automaton(600, seed=3, automaton_id="cache-test")


class TestFingerprints:
    def test_stable_across_calls(self, automaton):
        assert automaton_fingerprint(automaton) == automaton_fingerprint(
            automaton
        )

    def test_identical_content_same_fingerprint(self):
        first = chain_automaton(200, seed=9, automaton_id="twin")
        second = chain_automaton(200, seed=9, automaton_id="twin")
        assert automaton_fingerprint(first) == automaton_fingerprint(second)

    def test_mutation_changes_fingerprint(self, automaton):
        from repro.automata.symbols import SymbolSet

        before = automaton_fingerprint(automaton)
        automaton.add_ste("extra", SymbolSet.from_range("x", "x"))
        assert automaton_fingerprint(automaton) != before

    def test_design_params_change_key(self, automaton):
        assert cache_key(automaton, CA_P) != cache_key(automaton, CA_64)
        tweaked = replace(CA_P, name="CA_P_tweaked")
        assert design_fingerprint(tweaked) != design_fingerprint(CA_P)
        assert cache_key(automaton, tweaked) != cache_key(automaton, CA_P)

    def test_design_is_hashed_once_per_design(self, tmp_path, monkeypatch):
        """A warm start needs the design fingerprint for the artefact key
        and again to verify the artefact; two warm starts hash it once."""
        design = replace(CA_P, name="hashed-once")
        CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=tmp_path, design=design
        )
        hashed = []

        def counting_asdict(value):
            hashed.append(value)
            return asdict(value)

        monkeypatch.setattr("repro.compiler.cache.asdict", counting_asdict)
        cache_module._design_fingerprint.cache_clear()
        for _ in range(2):
            warm = CacheAutomatonEngine.from_patterns(
                PATTERNS, cache=tmp_path, design=design
            )
            assert warm.health().tier == "warm-cache"
        assert hashed == [design]


class TestMappingRoundTrip:
    def test_miss_then_hit(self, cache, automaton):
        assert cache.load_artifact(automaton, CA_P) is None
        assert cache.stats.misses == 1
        mapping = compile_automaton(automaton, CA_P)
        stored = cache.store_artifact(CompiledArtifact.from_mapping(mapping))
        assert stored is not None
        loaded = cache.load_artifact(automaton, CA_P).mapping
        assert cache.stats.hits == 1
        assert dict(loaded.location) == dict(mapping.location)
        assert [p.ste_ids for p in loaded.partitions] == [
            p.ste_ids for p in mapping.partitions
        ]
        assert [p.way for p in loaded.partitions] == [
            p.way for p in mapping.partitions
        ]
        assert loaded.cache_bytes() == mapping.cache_bytes()
        assert loaded.classify_edges() == mapping.classify_edges()

    def test_lazy_structures_equal_eager(self, cache, automaton):
        mapping = compile_automaton(automaton, CA_P)
        simulator = MappedSimulator(mapping)
        cache.store_artifact(
            CompiledArtifact.from_mapping(mapping, simulator.packed_tables())
        )
        artifact = cache.load_artifact(automaton, CA_P)
        loaded, tables = artifact.mapping, artifact.kernel_tables
        # Location behaves as a plain dict before materialisation…
        some_id = next(iter(mapping.location))
        assert loaded.location[some_id] == mapping.location[some_id]
        assert some_id in loaded.location
        assert len(loaded.location) == len(mapping.location)
        # …and the restored kernel tables rebuild an equivalent simulator.
        assert tables
        warm = MappedSimulator.from_cached(loaded, tables)
        data = bytes(range(256)) * 40
        cold_result = simulator.run(data)
        warm_result = warm.run(data)
        assert [
            (r.offset, r.ste_id, r.report_code) for r in cold_result.reports
        ] == [
            (r.offset, r.ste_id, r.report_code) for r in warm_result.reports
        ]

    def test_different_design_misses(self, cache, automaton):
        mapping = compile_automaton(automaton, CA_P)
        cache.store_artifact(CompiledArtifact.from_mapping(mapping))
        assert cache.load_artifact(automaton, CA_64) is None

    def test_mutated_automaton_misses(self, cache, automaton):
        from repro.automata.symbols import SymbolSet

        mapping = compile_automaton(automaton, CA_P)
        cache.store_artifact(CompiledArtifact.from_mapping(mapping))
        automaton.add_ste("tail", SymbolSet.from_range("q", "q"))
        assert cache.load_artifact(automaton, CA_P) is None

    def test_corrupt_artifact_is_a_miss(self, cache, automaton):
        mapping = compile_automaton(automaton, CA_P)
        path = cache.store_artifact(CompiledArtifact.from_mapping(mapping))
        path.write_bytes(b"not a cache entry")
        assert cache.load_artifact(automaton, CA_P) is None


#: Regex fragments the round-trip property strings together.
PIECES = ["a", "b", "[ab]", "c+", "d?", ".", "[^e]", "(f|gh)", "x.{3}y"]


class TestPlacementRoundTrip:
    @given(
        st.lists(
            st.lists(st.sampled_from(PIECES), max_size=6).map(
                lambda pieces: "k" + "".join(pieces)
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([CA_P, CA_64]),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_view_survives_the_payload(self, patterns, design):
        """compile -> to_payload -> entry -> from_payload: the three arrays
        carry the whole placement, so every view derived from them on the
        far side equals the one derived on the near side."""
        machine = compile_patterns(patterns)
        mapping = compile_automaton(machine, design)
        loaded = CompiledArtifact.from_entry_bytes(
            CompiledArtifact.from_mapping(mapping).entry_bytes(), machine, design
        ).mapping
        assert loaded.location == mapping.location
        assert [(p.index, p.way, p.ste_ids) for p in loaded.partitions] == [
            (p.index, p.way, p.ste_ids) for p in mapping.partitions
        ]
        for partition in loaded.partitions:
            for slot, ste_id in enumerate(partition.ste_ids):
                assert loaded.location[ste_id] == (partition.index, slot)
        assert placement_ids(loaded) == placement_ids(mapping)
        assert loaded.classify_edges() == mapping.classify_edges()
        assert mapping_to_json(loaded) == mapping_to_json(mapping)

    @pytest.mark.parametrize("backend", [None, "lazy-dfa", "hybrid"])
    def test_warm_start_and_quiet_scan_derive_no_view(self, tmp_path, backend):
        """What keeps a warm start cheap: neither per-state view of the
        placement is built until a report (or a caller) asks for one."""
        CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=tmp_path, backend=backend
        )
        warm = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=tmp_path, backend=backend
        )
        assert warm.health().tier == "warm-cache"
        assert warm.scan(b"nothing to see here") == []
        assert not {"partitions", "location"} & set(vars(warm.mapping))
        assert len(warm.mapping.location) == warm.state_count
        assert "location" in vars(warm.mapping)


def _write_parent_commit_entry(root, artifact):
    """``artifact`` where, and under the key, the commit before the
    layout constant entered the key would have stored it."""
    key = hashlib.sha256(
        f"repro:1:1:{artifact.design_fingerprint}:"
        f"{artifact.automaton_fingerprint}".encode("ascii")
    ).hexdigest()
    path = root / "v1" / key[:2] / f"{key}.npz"
    path.parent.mkdir(parents=True)
    path.write_bytes(artifact.entry_bytes())


def _bump_layout_after_store(root, artifact, monkeypatch):
    CompileCache(root).store_artifact(artifact)
    monkeypatch.setattr(
        "repro.backends.artifact.ARTIFACT_FORMAT_VERSION",
        artifact_module.ARTIFACT_FORMAT_VERSION + 1,
    )


def _entries(root):
    return [path for path in root.rglob("*") if path.is_file()]


class TestOtherLayoutsArePlainMisses:
    @pytest.mark.parametrize("origin", ["parent-commit", "layout-bump"])
    def test_never_read_never_quarantined(
        self, tmp_path, automaton, monkeypatch, origin
    ):
        artifact = CompiledArtifact.from_mapping(
            compile_automaton(automaton, CA_P)
        )
        if origin == "parent-commit":
            _write_parent_commit_entry(tmp_path, artifact)
        else:
            _bump_layout_after_store(tmp_path, artifact, monkeypatch)
        [stale] = _entries(tmp_path)
        before = stale.read_bytes()
        cache = CompileCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedModeWarning)
            engine = CacheAutomatonEngine(automaton, cache=cache)
        assert engine.health().tier == "cold-compile"
        assert cache.stats.misses == 1
        assert cache.stats.quarantines == 0
        assert cache.stats.stores == 1
        assert stale.read_bytes() == before
        assert len(_entries(tmp_path)) == 2


#: What a decoded automaton builds once something walks its graph.
PER_STATE_DICTS = {"_stes", "_successors", "_predecessors"}


def _undecoded(automaton):
    return not PER_STATE_DICTS & set(vars(automaton))


def _same_automaton(rebuilt, compiled):
    """Everything a user of the automaton can observe, order included.

    A freshly decoded ``rebuilt`` answers ids, size, membership and
    single states from its arrays, and carries its fingerprint: those are
    checked first, while it has built none of its per-state dicts; then
    every other query, which builds them."""
    fresh = _undecoded(rebuilt)
    ids = compiled.ste_ids()
    assert rebuilt.ste_ids() == ids
    assert len(rebuilt) == len(compiled)
    for ste_id in ids:
        assert ste_id in rebuilt
        assert rebuilt.ste(ste_id) == compiled.ste(ste_id)
        assert rebuilt.ste(ste_id) is rebuilt.ste(ste_id)
    assert "no such state" not in rebuilt
    with pytest.raises(AutomatonError, match="unknown STE"):
        rebuilt.ste("no such state")
    if fresh:
        assert rebuilt._fingerprint_memo == (
            rebuilt.mutation_version,
            automaton_fingerprint(compiled),
        )
        assert _undecoded(rebuilt)
    made = {ste_id: rebuilt.ste(ste_id) for ste_id in ids}
    assert rebuilt.automaton_id == compiled.automaton_id
    assert list(rebuilt.stes()) == list(compiled.stes())
    # The states handed out before the dicts were built are the ones in
    # them.
    assert all(rebuilt.ste(ste_id) is made[ste_id] for ste_id in ids)
    assert sorted(rebuilt.edges()) == sorted(compiled.edges())
    assert sorted(rebuilt.edges_unordered()) == sorted(compiled.edges())
    assert rebuilt.edge_count() == compiled.edge_count()
    for ste_id in ids:
        assert rebuilt.successors(ste_id) == compiled.successors(ste_id)
        assert rebuilt.predecessors(ste_id) == compiled.predecessors(ste_id)
        assert rebuilt.out_degree(ste_id) == compiled.out_degree(ste_id)
        assert rebuilt.in_degree(ste_id) == compiled.in_degree(ste_id)
    assert rebuilt.start_states() == compiled.start_states()
    assert rebuilt.reporting_states() == compiled.reporting_states()
    assert rebuilt.average_fan_out() == compiled.average_fan_out()
    assert repr(rebuilt) == repr(compiled)
    ours, theirs = rebuilt.edge_index_arrays(), compiled.edge_index_arrays()
    assert (ours.ids, ours.index) == (theirs.ids, theirs.index)
    assert sorted(zip(ours.sources.tolist(), ours.targets.tolist())) == sorted(
        zip(theirs.sources.tolist(), theirs.targets.tolist())
    )
    ours, theirs = rebuilt.to_arrays(), compiled.to_arrays()
    assert ours.keys() == theirs.keys()
    assert all(np.array_equal(ours[name], theirs[name]) for name in ours)
    if compiled.start_states():
        rebuilt.validate()
    else:
        with pytest.raises(AutomatonError):
            rebuilt.validate()
    assert automaton_fingerprint(rebuilt) == automaton_fingerprint(compiled)
    assert not _undecoded(rebuilt)


def _lonely():
    """States and no edges."""
    automaton = HomogeneousAutomaton("lonely")
    automaton.add_ste("b", SymbolSet.single("b"), start=StartKind.ALL_INPUT)
    automaton.add_ste(
        "a", SymbolSet.single("a"), start=StartKind.ALL_INPUT, reporting=True
    )
    return automaton


def _odd():
    """Anchored and all-input starts, a reporting state without a code, a
    code on a non-reporting state, a self loop, an id and a code JSON must
    escape, insertion order that is not sorted order."""
    automaton = HomogeneousAutomaton("odd \u2603 id")
    automaton.add_ste("z", SymbolSet.any(), start=StartKind.START_OF_DATA)
    automaton.add_ste(
        "a\n\"b", SymbolSet.single(0), start=StartKind.ALL_INPUT,
        reporting=True,
    )
    automaton.add_ste(
        "m", SymbolSet.from_range(250, 255), report_code="unused\x00",
    )
    automaton.add_ste(
        "b", SymbolSet.any(), reporting=True, report_code="c\u00f8de",
    )
    for source, target in [("z", "m"), ("m", "m"), ("m", "b"), ("z", "b")]:
        automaton.add_edge(source, target)
    return automaton


SYNTH_LISTS = {
    "ids": lambda: synth.ids_rules(40, seed=5),
    "dotstar": lambda: synth.dotstar_rules(30, 0.3, seed=6),
    "exact": lambda: synth.exact_match_rules(50, seed=7),
    "range": lambda: synth.range_rules(25, 1.0, seed=8),
}

#: ``compile_patterns(PINNED_PATTERNS, report_codes=PINNED_PATTERNS,
#: automaton_id="engine")`` under front-end version 3 (the automaton is
#: version 1's; version 3 hashes its columns instead of its states).
PINNED_PATTERNS = ["bat", "c[ao]t", "dog+", "bar[t]?", "x.{3}y", "^ab*c", "q|rs"]
PINNED_FINGERPRINT = (
    "2850152570c79d567b3fa64f46e7b31687a601761d5af0d5b8b464f7479319f7"
)


class TestSourceKey:
    def test_order_content_and_rule_ids_change_the_key(self):
        patterns = ["bat", "c[ao]t", "dog+"]
        base = source_key(patterns, patterns, "engine")
        assert base == source_key(list(patterns), tuple(patterns), "engine")
        assert base != source_key(patterns[::-1], patterns[::-1], "engine")
        assert base != source_key(patterns[::-1], patterns, "engine")
        edited = ["bat", "c[ao]t", "dog*"]
        assert base != source_key(edited, patterns, "engine")
        assert base != source_key(patterns, ["A", "B", "C"], "engine")
        assert base != source_key(patterns, patterns, "ruleset")
        # List boundaries are part of the key, not just the characters.
        assert source_key(["ab", "c"], ["x", "y"], "e") != source_key(
            ["a", "bc"], ["x", "y"], "e"
        )

    def test_front_end_version_changes_the_key(self, monkeypatch):
        patterns = ["bat"]
        before = source_key(patterns, patterns, "engine")
        monkeypatch.setattr("repro.compiler.cache.FRONT_END_VERSION", 99)
        assert source_key(patterns, patterns, "engine") != before

    def test_compiled_automaton_is_pinned(self):
        compiled = compile_patterns(
            PINNED_PATTERNS, report_codes=PINNED_PATTERNS, automaton_id="engine"
        )
        assert automaton_fingerprint(compiled) == PINNED_FINGERPRINT, (
            "the regex front end now compiles this list to a different "
            "automaton: bump repro.compiler.cache.FRONT_END_VERSION (cached "
            "automata written by the old front end must stop being served "
            "for these patterns), then re-pin this fingerprint"
        )


#: Scanned by :class:`TestEntriesArePinned`.
ENTRY_DATA = b"the cat sat on the bat; x0123456789abcdy doggg bart! qrs abbbc " * 8

#: Per rule list built with ``auto=True`` and scanned (forwards, then
#: backwards), each entry's ``(key prefix, SHA-256 prefix)``, as the
#: per-state front end wrote them: the array front end must write the
#: same bytes under the same names, so a directory the former filled
#: serves the latter only hits.
PINNED_ENTRIES = {
    "pinned": {
        ".automaton": ("f62eb09d937f5bf1", "29778352b6a7d850"),
        ".artifact": ("0c53e4962c25c40f", "b3c34570d659e691"),
        ".table": ("0c53e4962c25c40f", "d4eda10a0e5e5f5c"),
    },
    "friendly": {
        ".automaton": ("90a93ab9fa0319d2", "2d36c5207e6839e6"),
        ".artifact": ("77337d2e5537d8e6", "9d254f7baf3eb327"),
        ".table": ("77337d2e5537d8e6", "f8c93a6ce14ca64b"),
    },
}
ENTRY_LISTS = {
    "pinned": PINNED_PATTERNS,
    "friendly": ["bat", "c[ao]t", "dog+", "bar[t]?"],
}


class TestEntriesArePinned:
    @pytest.mark.parametrize("name", sorted(PINNED_ENTRIES))
    def test_new_entries_are_pinned_and_read_back_as_hits(self, tmp_path, name):
        rules = ENTRY_LISTS[name]
        cold = CacheAutomatonEngine.from_patterns(rules, auto=True, cache=tmp_path)
        expected = cold.scan(ENTRY_DATA)
        cold.scan(ENTRY_DATA[::-1])
        del cold
        gc.collect()
        written = {
            path.suffix: (
                path.stem[:16],
                hashlib.sha256(path.read_bytes()).hexdigest()[:16],
            )
            for path in tmp_path.rglob("*.*")
        }
        assert written == PINNED_ENTRIES[name]
        warm = CacheAutomatonEngine.from_patterns(rules, auto=True, cache=tmp_path)
        assert warm.scan(ENTRY_DATA) == expected
        info = warm.cache_info()
        assert (info["automaton_hits"], info["hits"], info["table_hits"]) == (1, 1, 1)
        assert not any(
            info[key] for key in info if key.endswith(("misses", "stores"))
        ), info


class TestAutomatonRoundTrip:
    @pytest.mark.parametrize("kind", sorted(SYNTH_LISTS))
    def test_rebuilt_equals_compiled(self, cache, kind):
        patterns = SYNTH_LISTS[kind]()
        compiled = compile_patterns(
            patterns, report_codes=patterns, automaton_id="engine"
        )
        key = source_key(patterns, patterns, "engine")
        assert cache.load_automaton(key) is None
        assert cache.store_automaton(key, compiled) is not None
        rebuilt = cache.load_automaton(key)
        _same_automaton(rebuilt, compiled)
        assert cache.stats.as_dict() == {
            **CacheStats().as_dict(),
            "automaton_misses": 1,
            "automaton_stores": 1,
            "automaton_hits": 1,
        }

    def test_every_field_survives(self):
        automaton = _odd()
        rebuilt = HomogeneousAutomaton.from_arrays(automaton.to_arrays())
        _same_automaton(rebuilt, automaton)
        # The rebuilt automaton is an ordinary one: it can be edited, and
        # its derived views follow.
        rebuilt.add_ste("tail", SymbolSet.single("t"))
        rebuilt.add_edge("b", "tail")
        assert "tail" in rebuilt.edge_index_arrays().index
        assert automaton_fingerprint(rebuilt) != automaton_fingerprint(automaton)

    @pytest.mark.parametrize("make", [_odd, _lonely, HomogeneousAutomaton])
    def test_small_automata_survive(self, make):
        """The odd automaton, one without edges, one without states."""
        automaton = make()
        _same_automaton(
            HomogeneousAutomaton.from_arrays(automaton.to_arrays()), automaton
        )

    @pytest.mark.parametrize("kind", sorted(SYNTH_LISTS))
    def test_pickle_and_copy_of_an_untouched_automaton(self, kind):
        compiled = compile_patterns(SYNTH_LISTS[kind]())
        rebuilt = HomogeneousAutomaton.from_arrays(compiled.to_arrays())
        unpickled = pickle.loads(pickle.dumps(rebuilt))
        assert _undecoded(rebuilt)
        _same_automaton(unpickled, compiled)
        _same_automaton(rebuilt.copy(), compiled)
        _same_automaton(rebuilt, compiled)

    @pytest.mark.parametrize(
        "query",
        [
            lambda a: list(a.stes()),
            lambda a: sorted(a.edges()),
            lambda a: sorted(a.edges_unordered()),
            lambda a: [sorted(a.successors(s)) for s in a.ste_ids()],
            lambda a: [sorted(a.predecessors(s)) for s in a.ste_ids()],
            lambda a: [(a.out_degree(s), a.in_degree(s)) for s in a.ste_ids()],
            lambda a: (a.edge_count(), a.average_fan_out()),
            lambda a: (a.start_states(), a.reporting_states()),
            lambda a: (a.validate(), repr(a)),
            lambda a: sorted(a.copy("twin").edges()),
            lambda a: sorted(a.relabelled("r").edges()),
        ],
    )
    def test_any_query_can_come_first(self, query):
        compiled = compile_patterns(SYNTH_LISTS["dotstar"]())
        rebuilt = HomogeneousAutomaton.from_arrays(compiled.to_arrays())
        assert query(rebuilt) == query(compiled)
        assert not _undecoded(rebuilt)
        _same_automaton(rebuilt, compiled)

    def test_threads_reading_an_untouched_automaton_agree(self):
        """Readers racing the one-time decode all see the whole graph."""
        compiled = compile_patterns(SYNTH_LISTS["ids"]())
        ids = compiled.ste_ids()

        def view(automaton, walk_first):
            """Half the readers walk the graph (and so decode it) while
            the other half are still making states one by one."""
            edges = sorted(automaton.edges_unordered()) if walk_first else []
            states = [automaton.ste(ste_id) for ste_id in ids]
            edges = edges or sorted(automaton.edges_unordered())
            return states, edges, [sorted(automaton.predecessors(s)) for s in ids]

        expected = view(compiled, True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                rebuilt = HomogeneousAutomaton.from_arrays(compiled.to_arrays())
                seen = []
                readers = [
                    threading.Thread(
                        target=lambda first=first: seen.append(
                            view(rebuilt, first)
                        )
                    )
                    for first in (True, False) * 2
                ]
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(timeout=60)
                    assert not reader.is_alive()
                assert seen == [expected] * len(readers)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda a: a.add_edge(a.ste_ids()[-1], a.ste_ids()[0]),
            lambda a: a.remove_ste(a.ste_ids()[1]),
            lambda a: a.add_ste("new", SymbolSet.single("n")),
            lambda a: a.replace_ste(replace(a.ste(a.ste_ids()[0]), reporting=True)),
        ],
        ids=["add_edge", "remove_ste", "add_ste", "replace_ste"],
    )
    def test_a_first_mutation_drops_the_fingerprint(self, mutate):
        compiled = compile_patterns(SYNTH_LISTS["ids"]())
        rebuilt = HomogeneousAutomaton.from_arrays(compiled.to_arrays())
        mutate(rebuilt)
        assert rebuilt._fingerprint_memo[0] != rebuilt.mutation_version
        twin = compiled.copy()
        mutate(twin)
        assert automaton_fingerprint(rebuilt) == automaton_fingerprint(twin)
        assert automaton_fingerprint(rebuilt) != automaton_fingerprint(compiled)
        _same_automaton(rebuilt, twin)

    def test_the_pinned_list_rebuilds_to_its_fingerprint(self):
        compiled = compile_patterns(
            PINNED_PATTERNS, report_codes=PINNED_PATTERNS, automaton_id="engine"
        )
        rebuilt = HomogeneousAutomaton.from_arrays(compiled.to_arrays())
        assert rebuilt._fingerprint_memo[1] == PINNED_FINGERPRINT
        assert automaton_fingerprint(rebuilt) == PINNED_FINGERPRINT
        assert _undecoded(rebuilt)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda a: a.pop("start"),
            lambda a: a.update(names=a["names"][:-3]),
            lambda a: a.update(order=a["order"][:-1]),
            lambda a: a.update(order=np.zeros_like(a["order"])),
            lambda a: a.update(mask_of=a["mask_of"] + len(a["masks"])),
            lambda a: a.update(masks=np.zeros_like(a["masks"])),
            lambda a: a.update(masks=a["masks"][:, :16]),
            lambda a: a.update(start=a["start"] + 3),
            lambda a: a.update(code_of=a["code_of"] - 1),
            lambda a: a.update(targets=a["targets"] + len(a["order"])),
            lambda a: a.update(sources=a["sources"][:-1]),
            lambda a: a.update(
                sources=np.repeat(a["sources"][:1], len(a["sources"])),
                targets=np.repeat(a["targets"][:1], len(a["targets"])),
            ),
            lambda a: a.update(
                names=np.frombuffer(
                    bytes(a["names"]).replace(b'"m1_0"', b'"m0_0"'),
                    dtype=np.uint8,
                )
            ),
        ],
    )
    def test_bulk_constructor_refuses_bad_arrays(self, damage):
        arrays = compile_patterns(["bat", "c[ao]t"]).to_arrays()
        HomogeneousAutomaton.from_arrays(arrays)
        damage(arrays)
        with pytest.raises(AutomatonError):
            HomogeneousAutomaton.from_arrays(arrays)


PATTERNS = ["bat", "c[ao]t", "dog+", "bar[t]?"]
PATTERN_DATA = b"the cat sat on the bat; dogged bart in a cot"


def _rows(engine, data=PATTERN_DATA):
    return [(m.end, m.state, m.rule) for m in engine.scan(data)]


def _automaton_entry(directory):
    [path] = list(directory.rglob("*.automaton"))
    return path


def _rewrite_entry(path, **members):
    """The entry at ``path`` with ``members`` replaced, as a valid entry
    (checksum included)."""
    arrays = unpack_entry(path.read_bytes())
    arrays.update(members)
    path.write_bytes(pack_entry(arrays))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_bit(path):
    """One bit inside the ``targets`` column's data: the magic tag and
    the header are intact, only the entry's checksum fails."""
    column = unpack_entry(path.read_bytes())["targets"].tobytes()
    payload = bytearray(path.read_bytes())
    payload[payload.index(column) + len(column) // 2] ^= 0x01
    path.write_bytes(bytes(payload))


def _wrong_key(path):
    _rewrite_entry(path, key=np.asarray("0" * 64))


def _other_automaton(path):
    """A well-formed entry whose arrays are another list's automaton."""
    _rewrite_entry(path, **compile_patterns(["zebra"]).to_arrays())


def _stale_fingerprint(path):
    _rewrite_entry(path, fingerprint=np.asarray("f" * 64))


def _fail_automaton_reads(monkeypatch, errors):
    """Make the cache's reads of automaton entries raise the next of
    ``errors`` until it runs out (the file is there; only reading it
    fails)."""

    def flaky_open(file, *args, **kwargs):
        if str(file).endswith(".automaton"):
            error = next(errors, None)
            if error is not None:
                raise error
        return open(file, *args, **kwargs)

    monkeypatch.setattr(
        "repro.compiler.cache.open", flaky_open, raising=False
    )


def _sealed(header, body=bytes(16)):
    """An entry with a valid magic tag and checksum around any header."""
    head = json.dumps(header).encode("ascii")
    rest = struct.pack("<I", len(head)) + head + bytes(-len(head) % 8) + body
    return ENTRY_MAGIC + struct.pack("<I", zlib.crc32(rest)) + rest


class TestEntryLayout:
    def test_members_read_back_as_written(self):
        members = {
            "version": np.asarray(5, dtype=np.int64),
            "key": np.asarray("0f" * 32),
            "names": np.frombuffer(b'{"id": "e"}', dtype=np.uint8),
            "masks": np.arange(96, dtype=np.uint8).reshape(3, 32),
            "reporting": np.array([True, False, True]),
            "empty": np.zeros((0, 32), dtype=np.uint8),
            "strided": np.arange(12, dtype=np.int32).reshape(3, 4)[:, ::2],
            "big_endian": np.arange(5, dtype=">u2"),
        }
        restored = unpack_entry(bytearray(pack_entry(members)))
        assert list(restored) == list(members)
        for name, array in members.items():
            assert restored[name].dtype == array.dtype, name
            assert restored[name].shape == array.shape, name
            assert np.array_equal(restored[name], array), name
            assert restored[name].flags.aligned, name
            assert restored[name].flags.writeable, name

    @pytest.mark.parametrize(
        "array",
        [
            np.array([{}], dtype=object),
            np.zeros(2, dtype=[("a", "<i4"), ("b", "|O")]),
            np.zeros(2, dtype=[("a", "<i4"), ("b", "<f8")]),
        ],
    )
    def test_members_that_are_not_plain_data_are_refused(self, array):
        with pytest.raises(ValueError, match="not plain data"):
            pack_entry({"member": array})

    @pytest.mark.parametrize(
        "header",
        [
            {"boxed": ["|O", [1], 0]},
            {"boxed": ["<i8,|O", [1], 0]},
            {"before": ["<i8", [1], -8]},
            {"past": ["<i8", [3], 0]},
            {"odd": ["not a dtype", [1], 0]},
            {"flat": ["<i8", 1, 0]},
            {"short": ["<i8", [1]]},
            ["not", "a", "mapping"],
        ],
    )
    def test_headers_that_describe_no_array_are_refused(self, header):
        with pytest.raises(ArtifactError):
            unpack_entry(_sealed(header))


class TestEveryBitFlipIsQuarantined:
    """One flipped bit at any byte of an entry of any kind — magic tag,
    checksum, header or body — is quarantined: the load neither raises
    nor returns, and a build over it recompiles (or, for a learned DFA
    table, re-learns it and scans as the cold engine did)."""

    @pytest.mark.parametrize("kind", ["automaton", "artifact", "table"])
    def test_flip_one_bit_at_every_byte(self, tmp_path, kind):
        directory = tmp_path / "cache"
        backend = "lazy-dfa" if kind == "table" else None

        def build():
            engine = CacheAutomatonEngine.from_patterns(
                PATTERNS, cache=directory, backend=backend
            )
            return engine, _rows(engine)

        cold, cold_rows = build()
        [path] = list(directory.rglob(f"*.{kind}"))
        good = path.read_bytes()
        cache = CompileCache(directory)
        if kind == "automaton":
            key = source_key(PATTERNS, PATTERNS, "engine")

            def load():
                return cache.load_automaton(key)

        elif kind == "artifact":

            def load():
                return cache.load_artifact(cold.automaton, cold.design)

        else:
            key = cache_key(cold.automaton, cold.design)
            kernel = cold.backend.dfa.digest()

            def load():
                dfa = LazyDfaKernel(cold.backend.simulator.kernel)
                if cache.load_table(key, kernel, dfa.seed):
                    return dfa

        assert load() is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedModeWarning)
            for position in range(len(good)):
                damaged = bytearray(good)
                damaged[position] ^= 1 << position % 8
                path.write_bytes(damaged)
                assert load() is None, position
                assert not path.exists(), position
                if position % 101 == 0:
                    path.write_bytes(damaged)
                    rebuilt, rows = build()
                    assert rows == cold_rows, position
                    assert path.read_bytes() == good, position
        assert cache.stats.quarantines == len(good)


class TestTableEntry:
    """The ``<key>.table`` entry: the lazy DFA's learned table, stored
    under the artifact's key and adopted only by the kernel it was
    learned on."""

    def _learn(self, directory, patterns=PATTERNS):
        engine = CacheAutomatonEngine.from_patterns(
            patterns, cache=directory, backend="lazy-dfa"
        )
        return engine, _rows(engine)

    def test_a_warm_engine_adopts_the_table_and_misses_only_reports(self, tmp_path):
        cold, cold_rows = self._learn(tmp_path)
        assert cold.cache_info()["table_stores"] == 1
        [path] = tmp_path.rglob("*.table")
        assert path.name == cache_key(cold.automaton, cold.design) + ".table"
        learned = cold.backend.dfa.export_tables()
        stored = unpack_entry(path.read_bytes())
        assert str(stored["kernel"]) == cold.backend.dfa.digest()
        assert sorted(stored) == [
            "dfa_columns", "dfa_rows", "dfa_sources", "dfa_targets",
            "kernel", "key",
        ]
        for name in ("dfa_rows", "dfa_sources", "dfa_columns", "dfa_targets"):
            assert np.array_equal(stored[name], learned[name]), name
        warm, warm_rows = self._learn(tmp_path)
        assert warm_rows == cold_rows
        assert warm.cache_info()["table_hits"] == 1
        reporting = cold.backend.cache_info()["misses"] - len(
            learned["dfa_sources"]
        )
        assert warm.backend.cache_info()["misses"] == reporting
        # Nothing new was learned, so nothing was stored again.
        assert warm.cache_info()["table_stores"] == 0

    @pytest.mark.parametrize(
        "damage",
        [
            lambda t: t.update(key=np.asarray("0" * 64)),
            lambda t: t.update(kernel=np.asarray("0" * 8)),
            lambda t: t.pop("dfa_targets"),
            lambda t: t.update(dfa_columns=t["dfa_columns"][:-1].copy()),
            lambda t: t.update(dfa_columns=t["dfa_columns"] + 256),
            lambda t: t.update(dfa_rows=np.zeros((2**40, 0), np.uint8)),
            lambda t: t.update(dfa_sources=t["dfa_sources"] + len(t["dfa_rows"])),
            lambda t: t.update(dfa_sources=t["dfa_sources"].reshape(-1, 1)),
            lambda t: t.update(dfa_targets=t["dfa_targets"] + len(t["dfa_rows"])),
            lambda t: t.update(dfa_rows=t["dfa_rows"][:, :-1].copy()),
        ],
        ids=[
            "key", "kernel", "missing", "ragged", "column-past-width",
            "empty-rows", "source-past-states", "two-d-member", "no-such-row",
            "row-width",
        ],
    )
    def test_a_resealed_bad_table_is_quarantined_and_relearned(
        self, tmp_path, damage
    ):
        _, cold_rows = self._learn(tmp_path)
        [path] = tmp_path.rglob("*.table")
        good = path.read_bytes()
        members = dict(unpack_entry(good))
        damage(members)
        path.write_bytes(pack_entry(members))
        cache = CompileCache(tmp_path)
        with pytest.warns(DegradedModeWarning, match="quarantined"):
            engine = CacheAutomatonEngine.from_patterns(
                PATTERNS, cache=cache, backend="lazy-dfa"
            )
        assert cache.stats.quarantines == 1 and cache.stats.table_misses == 1
        assert engine.backend.cache_info()["states"] == 0
        assert _rows(engine) == cold_rows
        assert path.read_bytes() == good

    def test_a_version_5_directory_is_plain_misses_until_restored(
        self, tmp_path, monkeypatch
    ):
        """Format 5 kept a table's learned cells as ascending flat indices
        (``dfa_width``, ``dfa_cells``, ``dfa_targets``).  Under its key
        nothing of that directory is looked up any more, so nothing is
        quarantined; the first build stores format-6 entries beside it,
        and the next build is warm on them."""
        monkeypatch.setattr(artifact_module, "ARTIFACT_FORMAT_VERSION", 5)
        _, rows = self._learn(tmp_path)
        [table] = tmp_path.rglob("*.table")
        stored = unpack_entry(table.read_bytes())
        cells = stored["dfa_sources"] * 256 + stored["dfa_columns"]
        order = np.argsort(cells)
        table.write_bytes(
            pack_entry(
                {
                    "key": stored["key"],
                    "kernel": stored["kernel"],
                    "dfa_rows": stored["dfa_rows"],
                    "dfa_width": np.asarray(256, dtype=np.int64),
                    "dfa_cells": cells[order].astype(np.int64),
                    "dfa_targets": stored["dfa_targets"][order],
                }
            )
        )
        written = {path: path.read_bytes() for path in _entries(tmp_path)}
        monkeypatch.undo()
        cache = CompileCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedModeWarning)
            _, new_rows = self._learn(cache)
        assert new_rows == rows
        assert cache.stats == CacheStats(
            misses=1, stores=1, automaton_hits=1, table_misses=1,
            table_stores=1,
        )
        assert {path: path.read_bytes() for path in written} == written
        assert len(_entries(tmp_path)) == len(written) + 2
        warm = CompileCache(tmp_path)
        _, warm_rows = self._learn(warm)
        assert warm_rows == rows
        assert (warm.stats.hits, warm.stats.table_hits) == (1, 1)
        assert warm.stats.quarantines == 0

    def test_a_table_learned_on_another_kernel_is_refused(self, tmp_path):
        other = ["zebra", "quag+a"]
        cold, _ = self._learn(tmp_path, other)
        [learned] = tmp_path.rglob("*.table")
        engine, rows = self._learn(tmp_path)
        [path] = set(tmp_path.rglob("*.table")) - {learned}
        path.unlink()
        # The other list's table, renamed and re-keyed to this one: a
        # whole, checksummed entry naming another kernel.
        key = cache_key(engine.automaton, engine.design)
        _rewrite_entry(learned, key=np.asarray(key))
        learned.rename(path)
        cache = CompileCache(tmp_path)
        with pytest.warns(DegradedModeWarning, match="another kernel"):
            refused = CacheAutomatonEngine.from_patterns(
                PATTERNS, cache=cache, backend="lazy-dfa"
            )
        assert cache.stats.table_hits == 0
        assert cache.stats.quarantines == 1
        assert "quarantined corrupt cached DFA table" in refused.health().events
        assert refused.backend.cache_info()["states"] == 0
        assert _rows(refused) == rows
        # The refused engine learned its own table and stored it.
        assert cache.stats.table_stores == 1
        dfa = LazyDfaKernel(engine.backend.simulator.kernel)
        digest = engine.backend.dfa.digest()
        assert cache.load_table(key, digest, dfa.seed)
        with pytest.warns(DegradedModeWarning, match="another kernel"):
            assert not cache.load_table(
                key, cold.backend.dfa.digest(), dfa.seed
            )
        assert not path.exists()

    def test_a_table_is_rewritten_without_renaming_over_it(
        self, tmp_path, monkeypatch
    ):
        cold, _ = self._learn(tmp_path)
        [path] = tmp_path.rglob("*.table")
        stored = path.read_bytes()
        over = []
        rename = cache_module.os.replace

        def replace(source, target):
            over.append(target.exists())
            rename(source, target)

        monkeypatch.setattr(cache_module.os, "replace", replace)
        cache = CompileCache(tmp_path)
        dfa = cold.backend.dfa
        key = cache_key(cold.automaton, cold.design)
        assert cache.store_table(key, dfa.digest(), dfa.export_tables()) == path
        assert over == [False]
        assert path.read_bytes() == stored
        assert not list(tmp_path.rglob("*.tmp"))


class TestAutomatonEntryFailures:
    @pytest.mark.parametrize(
        "damage",
        [_truncate, _flip_bit, _wrong_key, _other_automaton, _stale_fingerprint],
    )
    def test_bad_entry_is_quarantined_and_recompiled(self, tmp_path, damage):
        directory = tmp_path / "cache"
        cold = CacheAutomatonEngine.from_patterns(PATTERNS, cache=directory)
        entry = _automaton_entry(directory)
        damage(entry)
        cache = CompileCache(directory)
        with pytest.warns(DegradedModeWarning, match="quarantined"):
            recovered = CacheAutomatonEngine.from_patterns(PATTERNS, cache=cache)
        assert cache.stats.quarantines == 1
        assert cache.stats.automaton_hits == 0
        assert cache.stats.automaton_stores == 1
        assert any(
            "cached automaton" in event for event in recovered.health().events
        )
        # The artifact was not implicated, and the recompiled automaton
        # found it: warm tier, healthy, same answers.
        assert recovered.health().tier == "warm-cache"
        assert not recovered.health().degraded
        assert _rows(recovered) == _rows(cold)
        _same_automaton(recovered.automaton, cold.automaton)
        # The recompile re-stored a good entry.
        relieved = CompileCache(directory)
        CacheAutomatonEngine.from_patterns(PATTERNS, cache=relieved)
        assert relieved.stats.automaton_hits == 1
        assert relieved.stats.quarantines == 0

    def test_transient_read_errors_are_retried(self, tmp_path, monkeypatch):
        directory = tmp_path / "cache"
        CacheAutomatonEngine.from_patterns(PATTERNS, cache=directory)
        monkeypatch.setattr("repro.compiler.cache.time.sleep", lambda _: None)
        _fail_automaton_reads(monkeypatch, iter([OSError("transient")] * 2))
        cache = CompileCache(directory)
        engine = CacheAutomatonEngine.from_patterns(PATTERNS, cache=cache)
        assert cache.stats.retries == 2
        assert cache.stats.automaton_hits == 1
        assert engine.health().tier == "warm-cache"

    def test_persistent_read_errors_degrade_to_a_compile(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "cache"
        cold = CacheAutomatonEngine.from_patterns(PATTERNS, cache=directory)
        monkeypatch.setattr("repro.compiler.cache.time.sleep", lambda _: None)
        _fail_automaton_reads(
            monkeypatch, itertools.repeat(OSError("device not ready"))
        )
        cache = CompileCache(directory)
        with pytest.warns(DegradedModeWarning, match="cache read failed"):
            engine = CacheAutomatonEngine.from_patterns(PATTERNS, cache=cache)
        assert cache.stats.automaton_misses == 1
        assert cache.stats.quarantines == 0
        assert _automaton_entry(directory).exists()
        assert _rows(engine) == _rows(cold)

    def test_unwritable_directory_behaves_uncached(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache directory should go")
        uncached = CacheAutomatonEngine.from_patterns(PATTERNS, cache=None)
        for _ in range(2):
            cache = CompileCache(blocker)
            with pytest.warns(DegradedModeWarning, match="cache read failed"):
                engine = CacheAutomatonEngine.from_patterns(
                    PATTERNS, cache=cache
                )
            assert engine.health().tier == "cold-compile"
            assert cache.stats.automaton_misses == 1
            assert cache.stats.automaton_stores == 0
            assert cache.stats.stores == 0
            assert _rows(engine) == _rows(uncached) != []

    def test_disabled_cache_and_optimize_bypass_the_front_end_entry(
        self, tmp_path
    ):
        optimized = CompileCache(tmp_path / "optimized")
        CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=optimized, optimize=True
        )
        assert not _entries(optimized.directory)
        assert optimized.stats.automaton_misses == 0
        assert optimized.stats.automaton_stores == 0
        assert optimized.stats.bypasses == 1


class TestEngineCachePath:
    def test_warm_engine_matches_cold(self, cache, automaton):
        data = bytes(range(256)) * 40
        cold = CacheAutomatonEngine(automaton, cache=cache)
        assert cold.cache_info()["misses"] == 1
        assert cold.cache_info()["stores"] == 1
        warm = CacheAutomatonEngine(automaton, cache=cache)
        assert warm.cache_info()["hits"] == 1
        assert [
            (m.end, m.state, m.rule) for m in warm.scan(data)
        ] == [(m.end, m.state, m.rule) for m in cold.scan(data)]
        assert warm.cache_bytes == cold.cache_bytes
        assert warm.mapping.partition_count == cold.mapping.partition_count

    def test_disabled_cache_reports_zeroes(self, automaton):
        engine = CacheAutomatonEngine(automaton, cache=None)
        assert engine.cache_info() == {
            "hits": 0, "misses": 0, "bypasses": 0, "stores": 0,
            "quarantines": 0, "retries": 0,
            "automaton_hits": 0, "automaton_misses": 0, "automaton_stores": 0,
            "table_hits": 0, "table_misses": 0, "table_stores": 0,
        }

    def test_optimize_bypasses_cache(self, cache, automaton):
        engine = CacheAutomatonEngine(automaton, cache=cache, optimize=True)
        assert engine.cache_info()["bypasses"] == 1
        assert engine.cache_info()["hits"] == 0

    def test_artifact_counters_count_artifact_lookups_only(self, tmp_path):
        """``hits``/``misses``/``stores`` (and the hit ratio read off
        them) mean what they meant before ``from_patterns`` had entries of
        its own: one artifact lookup per engine."""
        cache = CompileCache(tmp_path / "cache")
        cold = CacheAutomatonEngine.from_patterns(PATTERNS, cache=cache)
        assert cold.cache_info() == {
            "hits": 0, "misses": 1, "bypasses": 0, "stores": 1,
            "quarantines": 0, "retries": 0,
            "automaton_hits": 0, "automaton_misses": 1, "automaton_stores": 1,
            "table_hits": 0, "table_misses": 0, "table_stores": 0,
        }
        warm = CacheAutomatonEngine.from_patterns(PATTERNS, cache=cache)
        assert warm.cache_info() == {
            "hits": 1, "misses": 1, "bypasses": 0, "stores": 1,
            "quarantines": 0, "retries": 0,
            "automaton_hits": 1, "automaton_misses": 1, "automaton_stores": 1,
            "table_hits": 0, "table_misses": 0, "table_stores": 0,
        }
        assert warm.health().cache == warm.cache_info()


class TestRetryJitter:
    """Transient-I/O retries back off with *jittered* exponential
    delays: half deterministic, half uniform-random, so concurrent
    engine constructors hammering one cache directory decorrelate."""

    def test_sleeps_counted_and_jittered(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.compiler.cache.time.sleep", sleeps.append
        )
        cache = CompileCache(
            tmp_path / "flaky",
            retry_attempts=4,
            retry_backoff=0.1,
            retry_rng=random.Random(0),
        )
        failures = iter([OSError("transient"), OSError("transient")])

        def flaky_operation():
            try:
                raise next(failures)
            except StopIteration:
                return "ok"

        assert cache._with_retries(flaky_operation) == "ok"
        # Two transient failures -> exactly two counted backoff sleeps,
        # each equal-jittered within (ceiling/2, ceiling] of the
        # exponential ceiling for its attempt.
        assert len(sleeps) == 2
        assert cache.stats.retries == 2
        for attempt, delay in enumerate(sleeps, start=1):
            ceiling = 0.1 * (2 ** (attempt - 1))
            assert ceiling * 0.5 <= delay <= ceiling

    def test_jitter_is_seeded(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.compiler.cache.time.sleep", lambda _: None)

        def delays(seed):
            cache = CompileCache(
                tmp_path / f"seeded-{seed}",
                retry_rng=random.Random(seed),
            )
            return [cache._retry_delay(attempt) for attempt in (1, 2, 3)]

        assert delays(1) == delays(1)
        assert delays(1) != delays(2)

    def test_exhaustion_reraises(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.compiler.cache.time.sleep", sleeps.append
        )
        cache = CompileCache(
            tmp_path / "dead",
            retry_attempts=3,
            retry_backoff=0.05,
            retry_rng=random.Random(7),
        )

        def always_failing():
            raise OSError("persistent")

        with pytest.raises(OSError):
            cache._with_retries(always_failing)
        assert len(sleeps) == 2  # attempts 1..2 back off; 3rd raises


def _cold_race_build(slot, directory, barrier, queue):
    """Child-process body: ``from_patterns`` against a shared, empty cache
    directory.  Module-level so it works under any mp start method."""
    cache = CompileCache(directory)
    barrier.wait()
    engine = CacheAutomatonEngine.from_patterns(
        PATTERNS + ["x.{14}y"], auto=True, cache=cache
    )
    health = engine.health()
    queue.put((slot, health.tier, health.backend, _rows(engine)))


class TestConcurrentTierChain:
    def test_two_processes_racing_cold_both_end_healthy(self, tmp_path):
        """Both children miss both levels, compile, and store the same
        two entries through atomic renames; neither may see a torn file,
        and what is left serves a third start warm at both levels."""
        directory = str(tmp_path / "shared")
        context = multiprocessing.get_context(default_mp_method())
        barrier = context.Barrier(2)
        queue = context.Queue()
        children = [
            context.Process(
                target=_cold_race_build, args=(slot, directory, barrier, queue)
            )
            for slot in range(2)
        ]
        for child in children:
            child.start()
        results = {}
        for _ in children:
            slot, *result = queue.get(timeout=120)
            results[slot] = result
        for child in children:
            child.join(timeout=120)
            assert child.exitcode == 0
        assert set(results) == {0, 1}
        for tier, backend, _ in results.values():
            assert tier in ("cold-compile", "warm-cache")
            assert backend == "packed-kernel"
        assert results[0][1:] == results[1][1:]
        cache = CompileCache(directory)
        relieved = CacheAutomatonEngine.from_patterns(
            PATTERNS + ["x.{14}y"], auto=True, cache=cache
        )
        assert relieved.health().tier == "warm-cache"
        assert cache.stats.automaton_hits == 1 and cache.stats.hits == 1
        assert cache.stats.quarantines == 0
        assert [relieved.health().backend, _rows(relieved)] == results[0][1:]
        assert not list((tmp_path / "shared").rglob("*.tmp"))

    def test_quarantine_race_lands_both_healthy(self, tmp_path, automaton):
        """Two engines, one cache directory, a corrupt artifact on disk:
        both constructors race through the warm-cache -> quarantine ->
        recompile chain, and whatever interleaving the threads take,
        both must land on a healthy (non-golden) tier with identical
        scan results."""
        directory = tmp_path / "shared"
        seeder = CompileCache(directory)
        seeder.store_artifact(
            CompiledArtifact.from_mapping(compile_automaton(automaton, CA_P))
        )
        artifact_path = next(directory.rglob("*.artifact"))
        artifact_path.write_bytes(b"garbage, not a cache entry")

        barrier = threading.Barrier(2)
        results = {}
        data = bytes(range(256)) * 20

        def build(slot):
            cache = CompileCache(directory)
            barrier.wait()
            engine = CacheAutomatonEngine(automaton, cache=cache)
            results[slot] = (
                engine.health(),
                [(m.end, m.state, m.rule) for m in engine.scan(data)],
            )

        threads = [
            threading.Thread(target=build, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert set(results) == {0, 1}
        healths = [results[slot][0] for slot in (0, 1)]
        for health in healths:
            assert health.tier != "golden-fallback"
            assert health.backend != "golden-interpreter"
        assert results[0][1] == results[1][1]
        # A later constructor gets a clean warm start from whichever
        # thread re-stored the artifact.
        relieved = CacheAutomatonEngine(
            automaton, cache=CompileCache(directory)
        )
        assert relieved.cache_info()["hits"] == 1
        assert relieved.health().tier == "warm-cache"
