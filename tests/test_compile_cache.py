"""Content-addressed artifact cache: round trips, keys, invalidation.

The cache key is ``(format version, mapping format, design fingerprint,
automaton fingerprint)``; a hit must reproduce the cold artifacts
bit-for-bit, and any change to the automaton or the design parameters
must miss.
"""

from __future__ import annotations

import random
import threading
from dataclasses import replace

import pytest

from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.compiler.bitstream import generate
from repro.compiler.cache import (
    CompileCache,
    automaton_fingerprint,
    bitstream_bytes,
    cache_key,
    design_fingerprint,
)
from repro.core.design import CA_64, CA_P
from repro.engine import CacheAutomatonEngine
from repro.sim.functional import MappedSimulator
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
        path.write_bytes(b"not an npz archive")
        assert cache.load_artifact(automaton, CA_P) is None


class TestBitstreamRoundTrip:
    def test_hit_returns_bit_identical_payload(self, cache, automaton):
        mapping = compile_automaton(automaton, CA_P)
        cold = bitstream_bytes(mapping, cache)
        assert cold == generate(mapping).to_bytes()
        warm = bitstream_bytes(mapping, cache)
        assert warm == cold
        assert cache.stats.hits >= 1

    def test_params_change_busts_key(self, cache, automaton):
        mapping = compile_automaton(automaton, CA_P)
        bitstream_bytes(mapping, cache)
        assert cache.load_bitstream(automaton, CA_64) is None


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
        }

    def test_optimize_bypasses_cache(self, cache, automaton):
        engine = CacheAutomatonEngine(automaton, cache=cache, optimize=True)
        assert engine.cache_info()["bypasses"] == 1
        assert engine.cache_info()["hits"] == 0

    def test_disabled_directory_behaves_uncached(self, automaton, tmp_path):
        cache = CompileCache(tmp_path / "off", enabled=False)
        first = CacheAutomatonEngine(automaton, cache=cache)
        second = CacheAutomatonEngine(automaton, cache=cache)
        assert second.cache_info()["hits"] == 0


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


class TestConcurrentTierChain:
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
        artifact_path = next(directory.rglob("*.npz"))
        artifact_path.write_bytes(b"garbage, not an npz archive")

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
