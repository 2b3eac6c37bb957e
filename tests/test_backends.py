"""Backend registry, artifact IR, and the cross-backend differential matrix.

The differential matrix is the refactor's safety net: every registered
execution backend must produce the golden interpreter's report list —
same offsets, STE ids, codes and order — on the same compiled artifact,
across crafted inputs, suite workloads, and seeded random streams,
whole-stream and chunked.
"""

import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backends import (
    DEFAULT_BACKEND,
    backend_class,
    backend_names,
    backend_spec,
    create_backend,
    register_backend,
    resolve_backend_name,
)
from repro.backends import registry as registry_module
from repro.backends.artifact import CompiledArtifact
from repro.backends.base import AutomatonBackend
from repro.compiler import compile_automaton
from repro.compiler.cache import CompileCache, pack_entry, unpack_entry
from repro.core.design import CA_P
from repro.engine import CacheAutomatonEngine
from repro.errors import (
    ArtifactError,
    BackendError,
    DegradedModeWarning,
    SimulationError,
)
from repro.regex.compile import compile_patterns
from repro.sim import functional as functional_module
from repro.sim import kernel as kernel_module
from repro.sim.golden import GoldenSimulator, match_offsets, simulate
from repro.sim.kernel import ScanResult, placement_bits
from repro.workloads.inputs import LOWERCASE, random_over_alphabet
from repro.workloads.suite import build_suite, suite_by_name
from tests.conftest import churn_patterns
from tests.test_lazydfa import _planted
from tests.test_parallel import inject_spawn_failure

PATTERNS = ["bat", "c[ao]t", "dog+", "bar[t]?"]
DATA = b"the cat sat on the bat; doggg barts in cots near a bart"

#: Suite benchmarks exercised by the matrix (small at scale 0.05).
SUITE_NAMES = ("Bro217", "ExactMatch", "Ranges05", "PowerEN")

#: Every registered backend, and ``hybrid``: a name for the packed kernel
#: that callers still ask for, held to the same matrix while they do.
NAMES = (*backend_names(), "hybrid")


def _artifact(patterns):
    machine = compile_patterns(patterns, report_codes=patterns)
    return CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))


@pytest.fixture(scope="module")
def pattern_artifact():
    return _artifact(PATTERNS)


@pytest.fixture(scope="module")
def suite_artifacts():
    benchmarks = {b.name: b for b in build_suite(0.05)}
    artifacts = {}
    for name in SUITE_NAMES:
        benchmark = benchmarks[name]
        artifacts[name] = (
            CompiledArtifact.from_mapping(
                compile_automaton(benchmark.build(), CA_P)
            ),
            benchmark.input_stream(768, 3),
        )
    return artifacts


@pytest.fixture(scope="module")
def ordered_artifacts():
    return {
        name: (
            CompiledArtifact.from_mapping(
                compile_automaton(suite_by_name()[name].build(), CA_P)
            ),
            suite_by_name()[name],
        )
        for name in ("EntityResolution", "Fermi", "SPM")
    }


class TestDifferentialMatrix:
    @pytest.mark.parametrize("name", NAMES)
    def test_crafted_input(self, name, pattern_artifact):
        golden = simulate(pattern_artifact.automaton, DATA).reports
        backend = create_backend(name, pattern_artifact)
        assert backend.scan(DATA).reports == golden

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("workload", SUITE_NAMES)
    def test_suite_workloads(self, name, workload, suite_artifacts):
        artifact, data = suite_artifacts[workload]
        golden = simulate(artifact.automaton, data).reports
        backend = create_backend(name, artifact)
        assert backend.scan(data).reports == golden

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("seed", (11, 12))
    def test_seeded_random_streams(self, name, seed, pattern_artifact):
        data = random_over_alphabet(600, b"abcdgorst ", seed=seed)
        golden = simulate(pattern_artifact.automaton, data).reports
        backend = create_backend(name, pattern_artifact)
        assert backend.scan(data).reports == golden

    @pytest.mark.parametrize("name", NAMES)
    def test_report_counts_without_collection(self, name, pattern_artifact):
        backend = create_backend(name, pattern_artifact)
        result = backend.scan(DATA, collect_reports=False)
        assert result.reports == []
        assert result.profile.reports == len(
            match_offsets(pattern_artifact.automaton, DATA)
        )


    @pytest.mark.parametrize("name", NAMES)
    def test_one_scan_result_and_one_counting_convention(
        self, name, pattern_artifact
    ):
        backend = create_backend(name, pattern_artifact)
        collected = backend.scan(DATA)
        counted = backend.scan(DATA, collect_reports=False)
        batched = backend.scan_many([DATA])[0]
        for result in (collected, counted, batched):
            assert type(result) is ScanResult
            assert result.profile.symbols == len(DATA)
            assert result.profile.reports == len(collected.reports)
        assert collected.reports and counted.reports == []

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize(
        "workload, length, seed",
        [("EntityResolution", 6000, 1), ("Fermi", 768, 2), ("SPM", 768, 1)],
    )
    def test_one_report_order_within_an_offset(
        self, name, workload, length, seed, ordered_artifacts
    ):
        """Rulesets where several states report on one symbol: every
        backend emits the golden interpreter's *sequence*, not just its
        multiset."""
        artifact, benchmark = ordered_artifacts[workload]
        data = benchmark.input_stream(length, seed)
        golden = simulate(artifact.automaton, data).reports
        offsets = [report.offset for report in golden]
        assert len(set(offsets)) < len(offsets)
        assert create_backend(name, artifact).scan(data).reports == golden

    def test_packed_kernel_scan_is_the_simulators_run(self, pattern_artifact):
        backend = create_backend("packed-kernel", pattern_artifact)
        scanned = backend.scan(DATA)
        run = backend.simulator.run(DATA)
        for field in (
            "reports", "profile", "checkpoint", "stats", "output_buffer"
        ):
            assert getattr(scanned, field) == getattr(run, field), field


def _spied(decoder, rows):
    """Record every ``(row bytes, decoded tuple)`` that ``decoder``
    decodes (the memo's misses) in ``rows``."""
    decode = decoder._decode

    def spy(row_bytes):
        found = decode(row_bytes)
        rows.append((row_bytes, found))
        return found

    decoder._decode = spy


def _by_rank(automaton, bit_of, row_bytes):
    """A reporting row decoded the way the decoder did before it read
    arrays: STE ids of the set bits through a dict, sorted by their place
    in ``automaton.ste_ids()``, each with its state's report code."""
    rank = {ste_id: at for at, ste_id in enumerate(automaton.ste_ids())}
    row = int.from_bytes(row_bytes, "little")
    fired = sorted(
        (ste_id for ste_id, bit in bit_of.items() if row >> bit & 1),
        key=rank.__getitem__,
    )
    return tuple((ste_id, automaton.ste(ste_id).report_code) for ste_id in fired)


class TestArrayDecoder:
    """``ReportDecoder`` reads a bit -> rank array and the array form's
    ids and codes for the fired states alone."""

    @staticmethod
    def _assert_decodes_as_before(automaton, data):
        artifact = CompiledArtifact.from_mapping(compile_automaton(automaton, CA_P))
        golden = GoldenSimulator(artifact.automaton)
        backend = create_backend("packed-kernel", artifact)
        golden_rows, placed_rows = [], []
        _spied(golden._decoder, golden_rows)
        _spied(backend.simulator.decoder, placed_rows)
        expected = golden.run(data).reports
        assert backend.scan(data).reports == expected
        assert len(golden_rows) == len(placed_rows)
        for bit_of, rows in (
            (golden.bit_of, golden_rows),
            (placement_bits(artifact.mapping), placed_rows),
        ):
            for row_bytes, found in rows:
                assert found == _by_rank(artifact.automaton, bit_of, row_bytes)
        return expected

    @pytest.mark.parametrize("name", [b.name for b in build_suite(1.0)])
    def test_every_suite_ruleset(self, name):
        """64 KiB of each ruleset's own input; two inputs fire nothing
        there (nor in 256 KiB)."""
        ruleset = suite_by_name()[name]
        reports = self._assert_decodes_as_before(
            ruleset.build(), ruleset.input_stream(65536, 3)
        )
        assert bool(reports) != (name in ("RandomForest", "Protomata"))

    @pytest.mark.parametrize("index", range(16))
    def test_every_churn_list(self, index):
        patterns = churn_patterns(index)
        automaton = compile_patterns(patterns, report_codes=patterns)
        self._assert_decodes_as_before(automaton, _planted(patterns, index))

    @pytest.mark.parametrize("fired", [1, 3, 64, 65, 200, None])
    def test_rows_of_any_density(self, fired):
        """A row with ``fired`` set bits (``None``: every state's)
        decodes as the reference does on both bit layouts."""
        automaton = suite_by_name()["Levenshtein"].build()
        artifact = CompiledArtifact.from_mapping(compile_automaton(automaton, CA_P))
        golden = GoldenSimulator(artifact.automaton)
        backend = create_backend("packed-kernel", artifact)
        for decoder, bit_of in (
            (golden._decoder, golden.bit_of),
            (backend.simulator.decoder, placement_bits(artifact.mapping)),
        ):
            bits = sorted(bit_of.values())
            chosen = bits if fired is None else bits[:: len(bits) // fired][:fired]
            row = sum(1 << bit for bit in chosen)
            row_bytes = row.to_bytes((bits[-1] // 64 + 1) * 8, "little")
            found = decoder._decode(row_bytes)
            assert len(found) == len(chosen)
            assert found == _by_rank(artifact.automaton, bit_of, row_bytes)

    def test_a_bit_no_state_owns_is_refused(self):
        artifact = CompiledArtifact.from_mapping(
            compile_automaton(compile_patterns(PATTERNS), CA_P)
        )
        backend = create_backend("packed-kernel", artifact)
        owned = set(placement_bits(artifact.mapping).values())
        stray = next(bit for bit in range(len(owned) + 1) if bit not in owned)
        with pytest.raises(SimulationError, match="no state owns"):
            backend.simulator.decoder._decode((1 << stray).to_bytes(64, "little"))

    @pytest.mark.parametrize("backend", ["lazy-dfa", "packed-kernel"])
    def test_a_warm_engines_first_report_builds_no_state_map(
        self, backend, tmp_path, monkeypatch
    ):
        """The decoder's first report on a warm engine neither places
        every STE id nor ranks every state."""

        def build():
            return CacheAutomatonEngine.from_patterns(
                PATTERNS, backend=backend, cache=tmp_path
            )

        expected = build().scan(DATA)
        assert expected

        def refuse(*_args):
            raise AssertionError("a per-state map was built")

        for module in (kernel_module, functional_module):
            monkeypatch.setattr(module, "placement_bits", refuse)
        monkeypatch.setattr(kernel_module, "report_rank", refuse)
        warm = build()
        assert warm.cache_info()["hits"] == 1
        assert warm.scan(DATA) == expected


def test_one_scan_result_type():
    """A second result class, a converter between two, or a probe for a
    member the backend protocol declares fails here instead of in
    review.  (The retired names are spelled in pieces so that a grep
    for them over the repository stays empty.)"""
    retired = "|".join(
        prefix + "Result" for prefix in ("Run", "MappedRun", "Backend")
    )
    dialects = re.compile(
        rf"class ({retired})\b|_basic_result|_to_result"
        r"|getattr\([^,()]+,\s*[\"'](health_events|health_events_dropped)[\"']"
    )
    offenders = [
        path.name
        for path in Path(repro.__file__).parent.rglob("*.py")
        if dialects.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


class TestChunkedResume:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("chunk_size", (7, 64))
    def test_chunked_equals_whole_stream(
        self, name, chunk_size, pattern_artifact
    ):
        backend = create_backend(name, pattern_artifact)
        if not backend.capabilities().resume:
            with pytest.raises(SimulationError):
                backend.stream()
            return
        stream = backend.stream()
        reports = []
        for start in range(0, len(DATA), chunk_size):
            reports.extend(stream.scan(DATA[start : start + chunk_size]).reports)
        assert reports == simulate(pattern_artifact.automaton, DATA).reports
        assert stream.position == len(DATA)

    @pytest.mark.parametrize("name", NAMES)
    def test_scan_many_matches_scan(self, name, pattern_artifact):
        backend = create_backend(name, pattern_artifact)
        streams = [DATA, b"no matches here", DATA[10:40]]
        results = backend.scan_many(streams)
        assert len(results) == len(streams)
        for data, result in zip(streams, results):
            assert result.reports == backend.scan(data).reports
            assert result.reports == (
                simulate(pattern_artifact.automaton, data).reports
            )

    @pytest.mark.parametrize("name", NAMES)
    def test_scan_many_resume_count_mismatch(self, name, pattern_artifact):
        backend = create_backend(name, pattern_artifact)
        with pytest.raises(SimulationError, match="2 checkpoints"):
            backend.scan_many([DATA], resumes=[None, None])


def _full_reports(result):
    return [(r.offset, r.ste_id, r.report_code) for r in result.reports]


class TestLazyDfa:
    """The lazy-DFA backend's cache policy and process-sharded batch."""

    def test_overflow_flush_mid_stream_is_bit_identical(
        self, pattern_artifact
    ):
        golden = match_offsets(pattern_artifact.automaton, DATA)
        reference = create_backend("lazy-dfa", pattern_artifact)
        backend = create_backend("lazy-dfa", pattern_artifact)
        # Force the state budget far below what DATA visits so the
        # cache flushes repeatedly mid-stream (the constructor clamps
        # max_states to >= 64, hence the direct override).
        backend.dfa._max_states = 3
        result = backend.scan(DATA)
        assert result.report_offsets() == golden
        assert _full_reports(result) == _full_reports(
            reference.scan(DATA)
        )
        info = backend.cache_info()
        assert info["flushes"] > 0
        assert info["states"] <= 4
        # A second pass over the thrashing cache still agrees.
        assert backend.scan(DATA).report_offsets() == golden

    def test_cache_info_counters(self, pattern_artifact):
        backend = create_backend("lazy-dfa", pattern_artifact)
        backend.scan(DATA)
        cold = backend.cache_info()
        assert cold["states"] > 0
        assert cold["misses"] > 0
        assert cold["events"] > 0
        backend.scan(DATA)
        warm = backend.cache_info()
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] > cold["hits"]

    def test_sharded_scan_many_independent_of_jobs(self, pattern_artifact):
        backend = create_backend("lazy-dfa", pattern_artifact)
        streams = [DATA, b"no matches here", DATA[5:40], DATA * 3, b""]
        serial = backend.scan_many(streams, jobs=1)
        for jobs in (2, 3):
            sharded = backend.scan_many(streams, jobs=jobs)
            assert len(sharded) == len(serial)
            for lone, many in zip(serial, sharded):
                assert _full_reports(many) == _full_reports(lone)
                assert many.checkpoint == lone.checkpoint
                assert many.profile.reports == lone.profile.reports

    def test_sharded_resume_matches_whole_stream(self, pattern_artifact):
        backend = create_backend("lazy-dfa", pattern_artifact)
        whole = backend.scan(DATA).report_offsets()
        splits = (20, 33)
        heads = [DATA[:split] for split in splits]
        first = backend.scan_many(heads, jobs=2)
        tails = [DATA[split:] for split in splits]
        second = backend.scan_many(
            tails, resumes=[r.checkpoint for r in first], jobs=2
        )
        for head, tail in zip(first, second):
            assert (
                head.report_offsets() + tail.report_offsets() == whole
            )

    def test_sharded_without_report_collection(self, pattern_artifact):
        backend = create_backend("lazy-dfa", pattern_artifact)
        streams = [DATA, DATA[7:]]
        results = backend.scan_many(
            streams, collect_reports=False, jobs=2
        )
        for data, result in zip(streams, results):
            assert result.reports == []
            assert result.profile.reports == len(
                match_offsets(pattern_artifact.automaton, data)
            )

    def test_pool_failure_degrades_to_serial(
        self, pattern_artifact, monkeypatch
    ):
        inject_spawn_failure(monkeypatch)
        backend = create_backend("lazy-dfa", pattern_artifact)
        golden = match_offsets(pattern_artifact.automaton, DATA)
        with pytest.warns(DegradedModeWarning, match="degrading to serial"):
            results = backend.scan_many([DATA, DATA[3:25]], jobs=2)
        assert results[0].report_offsets() == golden
        assert (
            results[1].report_offsets()
            == backend.scan(DATA[3:25]).report_offsets()
        )

    def test_sharded_workers_keep_the_parents_state_budget(
        self, pattern_artifact
    ):
        backend = create_backend("lazy-dfa", pattern_artifact, max_states=64)
        assert backend.cache_info()["max_states"] == 64
        backend.scan_many([DATA, DATA[7:], DATA[13:]], jobs=2)
        info = backend.worker_cache_info()
        assert info["workers"] == 2
        assert info["max_states"] == 64

    @pytest.mark.parametrize("name", ("lazy-dfa",))
    def test_forking_is_opt_in(self, name, tmp_path, monkeypatch):
        """An unset worker count never forks, however many cores the
        host has; an explicit one still does."""
        from repro.sim.shard import SCAN_JOBS_ENV

        monkeypatch.delenv(SCAN_JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        def workers(engine):
            return engine.backend.worker_cache_info()["workers"]

        streams = [DATA, DATA[7:]]
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=str(tmp_path), backend=name
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedModeWarning)
            serial = engine.scan_many(streams)
            engine.stream_many(2).scan([b"a cat", b"a bat"])
        assert workers(engine) == 0
        sharded = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=str(tmp_path), backend=name, scan_jobs=2
        )
        assert sharded.scan_many(streams) == serial
        assert workers(sharded) == 2

    def test_resolve_scan_jobs(self, monkeypatch):
        from repro.parallel import resolve_jobs
        from repro.sim.shard import SCAN_JOBS_ENV

        monkeypatch.delenv(SCAN_JOBS_ENV, raising=False)
        assert resolve_jobs(4, SCAN_JOBS_ENV) == 4
        assert resolve_jobs("3", SCAN_JOBS_ENV) == 3
        assert resolve_jobs(0, SCAN_JOBS_ENV) == 1
        assert resolve_jobs(None, SCAN_JOBS_ENV) >= 1
        monkeypatch.setenv(SCAN_JOBS_ENV, "5")
        assert resolve_jobs(None, SCAN_JOBS_ENV) == 5
        assert resolve_jobs("auto", SCAN_JOBS_ENV) == 5
        assert resolve_jobs(2, SCAN_JOBS_ENV) == 2

    def test_engine_scan_jobs_passthrough(self, tmp_path):
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=str(tmp_path), backend="lazy-dfa", scan_jobs=1
        )
        assert engine.backend._jobs == 1
        offsets = sorted(m.end for m in engine.scan(DATA))
        assert offsets == match_offsets(engine.automaton, DATA)


class TestStride:
    """k-stride execution: bit-identical to the unstrided golden run.

    The differential rows here compare the *strided* lazy-DFA against
    the unstrided golden interpreter — full STE identity and corrected
    offsets, across whole streams, odd-length tails, odd-offset
    resumes, cache flushes, and the process-sharded batch.
    """

    @pytest.mark.parametrize("stride", (2, 4))
    def test_crafted_input_matches_golden(self, stride, pattern_artifact):
        golden = create_backend("golden-interpreter", pattern_artifact)
        strided = create_backend(
            "lazy-dfa", pattern_artifact, stride=stride
        )
        assert strided.dfa.stride == stride
        assert _full_reports(strided.scan(DATA)) == _full_reports(
            golden.scan(DATA)
        )

    @pytest.mark.parametrize("workload", SUITE_NAMES)
    def test_suite_workloads_bit_identical(self, workload, suite_artifacts):
        artifact, data = suite_artifacts[workload]
        golden = create_backend("golden-interpreter", artifact)
        strided = create_backend("lazy-dfa", artifact, stride=2)
        # The sliced payloads land on odd lengths, exercising the
        # unstrided tail cycles.
        for payload in (data, data[:-1], data[:7], data[:1]):
            assert _full_reports(strided.scan(payload)) == _full_reports(
                golden.scan(payload)
            ), f"{workload} diverged on a {len(payload)}-byte stream"

    def test_empty_input(self, pattern_artifact):
        strided = create_backend("lazy-dfa", pattern_artifact, stride=2)
        result = strided.scan(b"")
        assert result.reports == []
        assert result.checkpoint.symbols_processed == 0
        assert strided.cache_info()["tail_steps"] == 0

    @pytest.mark.parametrize("chunk_size", (7, 13))
    def test_odd_offset_resume(self, chunk_size, pattern_artifact):
        # Odd chunk sizes land every checkpoint on an odd byte offset;
        # the strided stream must still agree with the whole-stream
        # golden run, reports and cursor alike.
        golden = create_backend("golden-interpreter", pattern_artifact)
        whole = _full_reports(golden.scan(DATA))
        strided = create_backend("lazy-dfa", pattern_artifact, stride=2)
        stream = strided.stream()
        reports = []
        for start in range(0, len(DATA), chunk_size):
            result = stream.scan(DATA[start : start + chunk_size])
            reports.extend(_full_reports(result))
        assert reports == whole
        assert stream.position == len(DATA)
        unstrided = create_backend("lazy-dfa", pattern_artifact)
        assert (
            strided.scan(DATA).checkpoint
            == unstrided.scan(DATA).checkpoint
        )

    def test_overflow_flush_is_bit_identical(self, pattern_artifact):
        golden = create_backend("golden-interpreter", pattern_artifact)
        backend = create_backend("lazy-dfa", pattern_artifact, stride=2)
        backend.dfa._max_states = 3
        result = backend.scan(DATA)
        assert _full_reports(result) == _full_reports(golden.scan(DATA))
        info = backend.cache_info()
        assert info["flushes"] > 0
        # Flushed and repopulated caches still agree on a second pass.
        assert _full_reports(backend.scan(DATA)) == _full_reports(
            golden.scan(DATA)
        )

    def test_sharded_scan_many_composes_with_stride(self, pattern_artifact):
        unstrided = create_backend("lazy-dfa", pattern_artifact)
        strided = create_backend("lazy-dfa", pattern_artifact, stride=2)
        streams = [DATA, b"no matches here", DATA[5:40], DATA * 3, b""]
        reference = unstrided.scan_many(streams, jobs=1)
        for jobs in (1, 2, 3):
            results = strided.scan_many(streams, jobs=jobs)
            for lone, many in zip(reference, results):
                assert _full_reports(many) == _full_reports(lone)
                assert many.checkpoint == lone.checkpoint
                assert many.profile.reports == lone.profile.reports

    def test_cache_info_reports_stride(self, pattern_artifact):
        backend = create_backend("lazy-dfa", pattern_artifact, stride=2)
        backend.scan(DATA)
        info = backend.cache_info()
        assert info["stride"] == 2
        assert info["stride_requested"] == 2
        assert 0 < info["stride_classes"] < 65536
        # After the one-cycle sod step, an even-length stream leaves an
        # odd remainder — exactly one uncached tail cycle.
        backend.scan(DATA[: len(DATA) - len(DATA) % 2])
        assert backend.cache_info()["tail_steps"] >= 1
        unstrided = create_backend("lazy-dfa", pattern_artifact)
        assert unstrided.cache_info()["stride"] == 1
        assert unstrided.cache_info()["stride_classes"] == 256

    def test_resolve_stride(self, monkeypatch):
        from repro.automata.stride import STRIDE_ENV, resolve_stride
        from repro.errors import StrideError

        monkeypatch.delenv(STRIDE_ENV, raising=False)
        assert resolve_stride(2) == 2
        assert resolve_stride("4") == 4
        assert resolve_stride(None) == 1
        assert resolve_stride("auto") == 1
        monkeypatch.setenv(STRIDE_ENV, "2")
        assert resolve_stride() == 2
        assert resolve_stride("auto") == 2
        assert resolve_stride(4) == 4
        with pytest.raises(StrideError, match="one of"):
            resolve_stride(3)
        with pytest.raises(StrideError, match="integer"):
            resolve_stride("fast")
        monkeypatch.setenv(STRIDE_ENV, "7")
        with pytest.raises(StrideError, match="REPRO_STRIDE"):
            resolve_stride()

    def test_env_reaches_backend(self, monkeypatch, pattern_artifact):
        from repro.automata.stride import STRIDE_ENV

        monkeypatch.setenv(STRIDE_ENV, "2")
        backend = create_backend("lazy-dfa", pattern_artifact)
        assert backend.dfa.stride == 2
        golden = create_backend("golden-interpreter", pattern_artifact)
        assert _full_reports(backend.scan(DATA)) == _full_reports(
            golden.scan(DATA)
        )

    def test_engine_stride_round_trip(self, tmp_path):
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=str(tmp_path), backend="lazy-dfa", stride=2
        )
        assert engine.stride == 2
        assert engine.backend.dfa.stride == 2
        assert engine.artifact.stride == 2
        assert engine.artifact.stride_tables
        reference = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=False, backend="golden"
        )
        expected = [(m.end, m.state, m.rule) for m in reference.scan(DATA)]
        assert [(m.end, m.state, m.rule) for m in engine.scan(DATA)] == (
            expected
        )
        # Second construction warm-starts from the stride-keyed artifact
        # and rebuilds the compressed alphabet from the cached tables.
        warm = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=str(tmp_path), backend="lazy-dfa", stride=2
        )
        assert warm.health().tier == "warm-cache"
        assert warm.backend.dfa.stride == 2
        assert [(m.end, m.state, m.rule) for m in warm.scan(DATA)] == (
            expected
        )

    def test_strided_and_unstrided_artifacts_keyed_apart(self, tmp_path):
        cache = CompileCache(tmp_path)
        plain = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=cache, backend="lazy-dfa"
        )
        strided = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=cache, backend="lazy-dfa", stride=2
        )
        paths = {
            cache.mapping_path(engine.automaton, engine.design, stride=s)
            for engine, s in ((plain, 1), (strided, 2))
        }
        assert len(paths) == 2
        assert all(path.exists() for path in paths)


class TestRegistry:
    def test_default_is_registered(self):
        assert DEFAULT_BACKEND in backend_names()

    def test_unknown_name(self):
        with pytest.raises(BackendError, match="unknown backend 'nope'"):
            resolve_backend_name("nope")

    @pytest.mark.parametrize("name", ("eager-dfa", "eager"))
    def test_retired_eager_dfa_is_an_unknown_name(self, name):
        """The eager subset-construction backend is gone, alias and all;
        its names get the roster of the five that remain."""
        roster = (
            "circuit, fault-injected, golden-interpreter, lazy-dfa, "
            "packed-kernel"
        )
        assert backend_names() == roster.split(", ")
        with pytest.raises(BackendError, match=f"registered backends: {roster}$"):
            resolve_backend_name(name)

    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("kernel", "packed-kernel"),
            ("mapped", "packed-kernel"),
            ("golden", "golden-interpreter"),
            ("circuit-interpreter", "circuit"),
            ("dfa", "lazy-dfa"),
            ("cpu", "lazy-dfa"),
            ("cpu-dfa", "lazy-dfa"),
            ("faulty", "fault-injected"),
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert resolve_backend_name(alias) == canonical
        assert backend_spec(alias).name == canonical

    def test_registration_is_latest_wins(self):
        saved_registry = dict(registry_module._REGISTRY)
        saved_aliases = dict(registry_module._ALIASES)
        try:

            @register_backend("temp-backend", aliases=("tmp",))
            class First(AutomatonBackend):
                pass

            assert backend_class("tmp") is First
            assert First.name == "temp-backend"

            @register_backend("temp-backend")
            class Second(AutomatonBackend):
                pass

            assert backend_class("temp-backend") is Second
        finally:
            registry_module._REGISTRY.clear()
            registry_module._REGISTRY.update(saved_registry)
            registry_module._ALIASES.clear()
            registry_module._ALIASES.update(saved_aliases)

    def test_every_backend_declares_capabilities(self, pattern_artifact):
        for name in backend_names():
            backend = create_backend(name, pattern_artifact)
            capabilities = backend.capabilities()
            assert capabilities.description
            assert backend.name == name


class TestCompiledArtifact:
    def test_npz_round_trip_cold(self, pattern_artifact):
        restored = CompiledArtifact.from_entry_bytes(
            pattern_artifact.entry_bytes(),
            pattern_artifact.automaton,
            pattern_artifact.design,
        )
        assert restored.automaton_fingerprint == (
            pattern_artifact.automaton_fingerprint
        )
        assert not restored.kernel_tables
        assert (
            restored.mapping.partition_count
            == pattern_artifact.mapping.partition_count
        )
        for partition, original in zip(
            restored.mapping.partitions, pattern_artifact.mapping.partitions
        ):
            assert list(partition.ste_ids) == list(original.ste_ids)

    def test_npz_round_trip_warm(self, pattern_artifact):
        backend = create_backend("packed-kernel", pattern_artifact)
        warm = pattern_artifact.with_kernel_tables(backend.packed_tables())
        restored = CompiledArtifact.from_entry_bytes(
            warm.entry_bytes(), warm.automaton, warm.design
        )
        assert set(restored.kernel_tables) == set(warm.kernel_tables)
        for key, table in warm.kernel_tables.items():
            assert np.array_equal(restored.kernel_tables[key], table)
        offsets = (
            create_backend("packed-kernel", restored)
            .scan(DATA)
            .report_offsets()
        )
        assert offsets == match_offsets(warm.automaton, DATA)

    def test_wrong_automaton_is_rejected(self, pattern_artifact):
        other = _artifact(["completely", "different"])
        with pytest.raises(ArtifactError, match="fingerprint"):
            CompiledArtifact.from_entry_bytes(
                pattern_artifact.entry_bytes(), other.automaton, other.design
            )

    def test_corrupt_payload_is_rejected(self, pattern_artifact):
        with pytest.raises(ArtifactError):
            CompiledArtifact.from_entry_bytes(
                b"not a cache entry",
                pattern_artifact.automaton,
                pattern_artifact.design,
            )

    def test_stride_round_trip(self, pattern_artifact):
        from repro.automata.stride import StrideAlphabet

        alphabet = StrideAlphabet.from_automaton(
            pattern_artifact.automaton, 2
        )
        strided = CompiledArtifact.from_mapping(
            pattern_artifact.mapping, stride=2, stride_tables=alphabet.tables()
        )
        restored = CompiledArtifact.from_entry_bytes(
            strided.entry_bytes(), strided.automaton, strided.design, stride=2
        )
        assert restored.stride == 2
        assert set(restored.stride_tables) == set(strided.stride_tables)
        for key, table in strided.stride_tables.items():
            assert np.array_equal(restored.stride_tables[key], table)
        backend = create_backend("lazy-dfa", restored)
        assert backend.dfa.stride == 2
        offsets = backend.scan(DATA).report_offsets()
        assert offsets == match_offsets(strided.automaton, DATA)

    def test_stride_mismatch_is_rejected(self, pattern_artifact):
        # A stride-1 payload must not satisfy a stride-2 load (and vice
        # versa) — the cache treats them as distinct artifacts.
        with pytest.raises(ArtifactError, match="stride"):
            CompiledArtifact.from_entry_bytes(
                pattern_artifact.entry_bytes(),
                pattern_artifact.automaton,
                pattern_artifact.design,
                stride=2,
            )

    def test_pre_stride_payload_is_rejected(self, pattern_artifact):
        # Simulate an artifact written before the stride-aware format:
        # downgrade the version member and drop the stride scalar.
        members = unpack_entry(pattern_artifact.entry_bytes())
        members["artifact_version"] = np.asarray(1, dtype=np.int64)
        del members["stride"]
        with pytest.raises(
            ArtifactError, match="unsupported artifact version 1"
        ):
            CompiledArtifact.from_entry_bytes(
                pack_entry(members),
                pattern_artifact.automaton,
                pattern_artifact.design,
            )

    def test_cache_quarantines_pre_stride_artifact(
        self, tmp_path, pattern_artifact
    ):
        cache = CompileCache(tmp_path)
        cache.store_artifact(pattern_artifact)
        path = cache.mapping_path(
            pattern_artifact.automaton, pattern_artifact.design
        )
        members = unpack_entry(path.read_bytes())
        members["artifact_version"] = np.asarray(1, dtype=np.int64)
        del members["stride"]
        path.write_bytes(pack_entry(members))
        with pytest.warns(DegradedModeWarning, match="artifact version"):
            assert (
                cache.load_artifact(
                    pattern_artifact.automaton, pattern_artifact.design
                )
                is None
            )
        assert not path.exists()


class TestEngineBackendSelection:
    @pytest.mark.parametrize("name", ("golden", "cpu-dfa", "circuit"))
    def test_explicit_backend_matches_default(self, name, tmp_path):
        default = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=str(tmp_path)
        )
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=str(tmp_path), backend=name
        )
        assert (
            sorted(m.end for m in engine.scan(DATA))
            == sorted(m.end for m in default.scan(DATA))
        )
        health = engine.health()
        assert health.backend == resolve_backend_name(name)
        assert health.requested == resolve_backend_name(name)

    def test_unknown_backend_raises(self, tmp_path):
        with pytest.raises(BackendError, match="unknown backend"):
            CacheAutomatonEngine.from_patterns(
                PATTERNS, cache=str(tmp_path), backend="warp-drive"
            )

    def test_default_reports_no_request(self, tmp_path):
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS, cache=str(tmp_path)
        )
        health = engine.health()
        assert health.backend == DEFAULT_BACKEND
        assert health.requested is None
