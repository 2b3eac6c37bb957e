"""Split-stream scanning (SFA mappings, :mod:`repro.sim.split`).

The contract under test: splitting ONE stream across N workers is
bit-identical to the serial scan — report offsets, STE identity, report
codes, totals, and the resume cursor — for every worker count, stride,
and chunk geometry; and degradations (frontier explosion, pool death)
stay correct and are surfaced, never silent.
"""

import random

import numpy as np
import pytest

from repro.backends import create_backend
from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.core.design import CA_P
from repro.engine import CacheAutomatonEngine
from repro.errors import DegradedModeWarning
from repro.regex.compile import compile_patterns
from repro.parallel import resolve_jobs
from repro.sim import split as split_module
from repro.sim.golden import match_offsets
from repro.sim.lazydfa import merge_cache_infos
from repro.sim.split import SPLIT_JOBS_ENV, SfaKernel, effective_split_jobs
from repro.workloads.suite import build_suite
from tests.test_parallel import (
    _raises_in_worker,
    inject_job_fault,
    inject_spawn_failure,
)


def resolve_split_jobs(jobs):
    """Split-stream resolution as the lazy-DFA backend calls it:
    ``REPRO_SPLIT_JOBS``, opt-in (default 1)."""
    return resolve_jobs(jobs, SPLIT_JOBS_ENV, 1)


#: Patterns chosen to keep entry-state influence alive across chunk
#: boundaries: a plus-loop, an overlap pair ("spl"/"it" spans "split"),
#: and a counter-ish repetition.
PATTERNS = ["needle", "na[gn]a+", "spl", "it", "c[ao]t+", "dog+"]

#: Suite benchmarks for the workload sweep (small at scale 0.05).
SUITE_NAMES = ("Bro217", "ExactMatch", "Ranges05", "PowerEN")


def _make_stream(length: int, seed: int = 77) -> bytes:
    rng = random.Random(seed)
    background = bytearray(
        rng.choice(b"abcdeghilnoprst ") for _ in range(length)
    )
    for position in range(50, length - 8, 211):
        background[position : position + 6] = b"needle"
    for position in range(120, length - 8, 397):
        background[position : position + 5] = b"split"
    for position in range(80, length - 8, 331):
        background[position : position + 4] = b"catt"
    return bytes(background)


def _full(result):
    return [(r.offset, r.ste_id, r.report_code) for r in result.reports]


@pytest.fixture(scope="module")
def artifact():
    machine = compile_patterns(PATTERNS, report_codes=PATTERNS)
    return CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))


@pytest.fixture(scope="module")
def stream():
    return _make_stream(4003)


@pytest.fixture(scope="module")
def serial_result(artifact, stream):
    return create_backend("lazy-dfa", artifact).scan(stream)


class TestResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(SPLIT_JOBS_ENV, raising=False)
        assert resolve_split_jobs(None) == 1

    def test_env_applies(self, monkeypatch):
        monkeypatch.setenv(SPLIT_JOBS_ENV, "3")
        assert resolve_split_jobs(None) == 3
        assert resolve_split_jobs("auto") == 3

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(SPLIT_JOBS_ENV, "3")
        assert resolve_split_jobs(2) == 2
        assert resolve_split_jobs("4") == 4

    def test_floor_is_one(self, monkeypatch):
        monkeypatch.delenv(SPLIT_JOBS_ENV, raising=False)
        assert resolve_split_jobs(0) == 1
        assert resolve_split_jobs(-3) == 1

    def test_effective_jobs_respects_min_chunk(self):
        assert effective_split_jobs(100, 4, 1000) == 1
        assert effective_split_jobs(2000, 4, 1000) == 2
        assert effective_split_jobs(100_000, 4, 1000) == 4
        assert effective_split_jobs(100, 4, 0) == 4


class TestBitIdentity:
    @pytest.mark.parametrize("jobs", (1, 2, 3, 4))
    @pytest.mark.parametrize("stride", (1, 2))
    def test_jobs_stride_matrix(self, jobs, stride, artifact, stream,
                                serial_result):
        backend = create_backend(
            "lazy-dfa", artifact,
            split_jobs=jobs, split_min_chunk=16, stride=stride,
        )
        result = backend.scan(stream)
        assert _full(result) == _full(serial_result)
        assert result.checkpoint == serial_result.checkpoint
        assert result.profile.reports == serial_result.profile.reports
        assert result.report_offsets() == match_offsets(
            artifact.automaton, stream
        )

    @pytest.mark.parametrize("workload", SUITE_NAMES)
    def test_suite_workloads(self, workload):
        benchmark = {b.name: b for b in build_suite(0.05)}[workload]
        artifact = CompiledArtifact.from_mapping(
            compile_automaton(benchmark.build(), CA_P)
        )
        data = benchmark.input_stream(1536, 3)
        serial = create_backend("lazy-dfa", artifact).scan(data)
        split = create_backend(
            "lazy-dfa", artifact, split_jobs=2, split_min_chunk=16
        ).scan(data)
        assert _full(split) == _full(serial)
        assert split.checkpoint == serial.checkpoint

    @pytest.mark.parametrize("length", (997, 1009, 2003))
    def test_odd_length_chunks(self, length, artifact):
        """Prime lengths over 3/4 workers: every chunk boundary lands at
        an odd offset, including the strided case (tail-seam path)."""
        data = _make_stream(length, seed=length)
        serial = create_backend("lazy-dfa", artifact).scan(data)
        for jobs, stride in ((3, 1), (4, 1), (3, 2), (4, 2)):
            split = create_backend(
                "lazy-dfa", artifact,
                split_jobs=jobs, split_min_chunk=8, stride=stride,
            ).scan(data)
            assert _full(split) == _full(serial), (jobs, stride)
            assert split.checkpoint == serial.checkpoint, (jobs, stride)

    def test_counts_without_collection(self, artifact, stream, serial_result):
        backend = create_backend(
            "lazy-dfa", artifact, split_jobs=2, split_min_chunk=16
        )
        result = backend.scan(stream, collect_reports=False)
        assert result.reports == []
        assert result.profile.reports == serial_result.profile.reports
        assert result.checkpoint == serial_result.checkpoint

    def test_scan_argument_overrides_option(self, artifact, stream,
                                            serial_result):
        backend = create_backend(
            "lazy-dfa", artifact, split_min_chunk=16
        )
        result = backend.scan(stream, split_jobs=3)
        assert _full(result) == _full(serial_result)

    def test_short_input_stays_serial(self, artifact):
        """Below jobs x min_chunk no pool is forked at all."""
        backend = create_backend("lazy-dfa", artifact, split_jobs=4)
        data = b"a needle in a catt stack"
        serial = create_backend("lazy-dfa", artifact).scan(data)
        assert _full(backend.scan(data)) == _full(serial)
        assert backend.worker_cache_info() == {"workers": 0}

    def test_second_call_reuses_warm_sfa(self, artifact, stream,
                                         serial_result):
        """The parent merges worker tables after the join, so a second
        split scan seeds workers with the whole discovered mapping
        automaton and stays bit-identical."""
        backend = create_backend(
            "lazy-dfa", artifact, split_jobs=3, split_min_chunk=16
        )
        first = backend.scan(stream)
        before = backend.worker_cache_info()
        second = backend.scan(stream)
        after = backend.worker_cache_info()
        assert _full(first) == _full(second) == _full(serial_result)
        assert after["workers"] == before["workers"] + 2
        # Warm second round: seeded workers mostly hit.
        assert after["hits"] > before["hits"]


class TestResumeInterop:
    @pytest.mark.parametrize("cut", (1, 997, 2001, 4002))
    def test_split_resumes_serial_checkpoint(self, cut, artifact, stream,
                                             serial_result):
        serial = create_backend("lazy-dfa", artifact)
        head = serial.scan(stream[:cut])
        tail_serial = serial.scan(stream[cut:], resume=head.checkpoint)
        split = create_backend(
            "lazy-dfa", artifact, split_jobs=3, split_min_chunk=8
        )
        tail_split = split.scan(stream[cut:], resume=head.checkpoint)
        assert _full(tail_split) == _full(tail_serial)
        assert tail_split.checkpoint == tail_serial.checkpoint
        assert _full(head) + _full(tail_split) == _full(serial_result)

    def test_serial_resumes_split_checkpoint(self, artifact, stream,
                                             serial_result):
        split = create_backend(
            "lazy-dfa", artifact, split_jobs=4, split_min_chunk=8
        )
        head = split.scan(stream[:2001])
        serial = create_backend("lazy-dfa", artifact)
        tail = serial.scan(stream[2001:], resume=head.checkpoint)
        assert _full(head) + _full(tail) == _full(serial_result)

    def test_streaming_through_split_backend(self, artifact, stream,
                                             serial_result):
        scanner = create_backend(
            "lazy-dfa", artifact, split_jobs=2, split_min_chunk=8
        ).stream()
        collected = []
        for start in range(0, len(stream), 1003):
            collected.extend(_full(scanner.scan(stream[start:start + 1003])))
        assert collected == _full(serial_result)


def _dense_frontier_stream() -> bytes:
    """All-'a' background: every chunk-boundary byte activates several
    STEs with distinct successor masks (the ``a+`` loop, the post-``n``
    position, the ``[ao]`` alternative), so ``slot_limit=1`` is
    guaranteed to trip no matter where the chunk boundaries fall —
    unlike mixed text, where a boundary byte like 'c' or 's' starts
    exactly one pattern and fits a single slot."""
    data = bytearray(b"a" * 4003)
    for position in (100, 600, 1500, 1990, 2600, 3500):
        data[position : position + 5] = b"nagaa"
    return bytes(data)


class TestDegradation:
    def test_frontier_explosion_degrades_per_chunk(self, artifact):
        data = _dense_frontier_stream()
        serial = create_backend("lazy-dfa", artifact).scan(data)
        backend = create_backend(
            "lazy-dfa", artifact,
            split_jobs=4, split_min_chunk=8, split_slot_limit=1,
        )
        with pytest.warns(DegradedModeWarning, match="rescanned serially"):
            result = backend.scan(data)
        assert _full(result) == _full(serial)
        assert result.checkpoint == serial.checkpoint
        assert any("frontier" in event for event in backend.health_events)

    def test_engine_surfaces_split_degradation(self, tmp_path):
        data = _dense_frontier_stream()
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS,
            backend="lazy-dfa",
            cache=str(tmp_path),
            split_jobs=2,
            backend_options={"split_min_chunk": 8, "split_slot_limit": 1},
        )
        with pytest.warns(DegradedModeWarning):
            matches = engine.scan(data)
        serial = CacheAutomatonEngine.from_patterns(
            PATTERNS, backend="lazy-dfa", cache=str(tmp_path)
        )
        assert matches == serial.scan(data)
        assert any("split scan" in event for event in engine.health().events)

    def test_pool_failure_degrades_to_serial(self, monkeypatch, artifact,
                                             stream, serial_result):
        inject_spawn_failure(monkeypatch)
        backend = create_backend(
            "lazy-dfa", artifact, split_jobs=2, split_min_chunk=8
        )
        with pytest.warns(DegradedModeWarning, match="degrading to serial"):
            result = backend.scan(stream)
        assert _full(result) == _full(serial_result)

    def test_worker_exception_propagates(self, monkeypatch, artifact, stream):
        """A worker-side failure is a bug, not a degrade: it must
        surface, mirroring the sharded pool policy."""
        inject_job_fault(
            monkeypatch, split_module, "_split_mapping_worker",
            _raises_in_worker,
        )
        backend = create_backend(
            "lazy-dfa", artifact, split_jobs=2, split_min_chunk=8
        )
        with pytest.raises(ValueError, match="rejected its payload"):
            backend.scan(stream)


class TestWorkerCounters:
    """Satellite: per-worker cache counters survive the join."""

    def test_merge_cache_infos_conventions(self):
        merged = merge_cache_infos([
            {"states": 10, "hits": 5, "misses": 2, "flushes": 1},
            {"states": 7, "hits": 3, "misses": 4, "flushes": 0},
        ])
        assert merged["states"] == 10      # gauge: max
        assert merged["hits"] == 8         # counter: sum
        assert merged["misses"] == 6
        assert merged["flushes"] == 1
        assert merged["workers"] == 2

    def test_merge_is_associative_over_aggregates(self):
        a = {"hits": 5, "states": 10}
        b = {"hits": 3, "states": 7}
        c = {"hits": 2, "states": 12}
        once = merge_cache_infos([a, b, c])
        folded = merge_cache_infos([merge_cache_infos([a, b]), c])
        assert once == folded

    def test_empty_merge(self):
        assert merge_cache_infos([]) == {"workers": 0}

    def test_sharded_scan_many_aggregates(self, artifact, stream):
        backend = create_backend("lazy-dfa", artifact)
        streams = [stream[i * 1000 : (i + 1) * 1000] for i in range(4)]
        assert backend.worker_cache_info() == {"workers": 0}
        backend.scan_many(streams, jobs=2)
        info = backend.worker_cache_info()
        assert info["workers"] == 2
        assert info["hits"] + info["misses"] > 0

    def test_split_scan_aggregates(self, artifact, stream):
        backend = create_backend(
            "lazy-dfa", artifact, split_jobs=3, split_min_chunk=8
        )
        backend.scan(stream)
        info = backend.worker_cache_info()
        assert info["workers"] == 2  # jobs - 1 mapping workers
        assert info["misses"] > 0


class TestCapabilitiesAndCli:
    def test_capability_flag(self, artifact):
        assert create_backend("lazy-dfa", artifact).capabilities().split
        assert not create_backend(
            "golden-interpreter", artifact
        ).capabilities().split

    def test_cli_split_matches_serial(self, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "rules.txt"
        rules.write_text("needle\nc[ao]t+\n")
        # Must clear 2 x SPLIT_MIN_CHUNK so the CLI (which exposes no
        # min-chunk knob) actually forks the split pool.
        payload = tmp_path / "input.bin"
        payload.write_bytes(_make_stream(9000, seed=9))
        assert main([
            "scan", str(rules), str(payload), "--backend", "lazy-dfa",
        ]) == 0
        serial_output = capsys.readouterr().out
        assert main([
            "scan", str(rules), str(payload), "--backend", "lazy-dfa",
            "--split-jobs", "2",
        ]) == 0
        split_output = capsys.readouterr().out
        assert split_output == serial_output
        assert "offset" in serial_output


class TestSfaKernelInternals:
    def _kernel(self, artifact):
        return create_backend("lazy-dfa", artifact).simulator.kernel

    def test_flush_keeps_mappings_correct(self):
        """A tiny state budget forces wholesale cache flushes mid-chunk;
        the produced mapping must stay functionally identical to an
        unbudgeted one (entries and effects are flush-immune) for ANY
        entry activation row.  Hamming is the state-heaviest suite
        workload, so it overflows a floor-sized budget quickly."""
        benchmark = {b.name: b for b in build_suite(0.05)}["Hamming"]
        artifact = CompiledArtifact.from_mapping(
            compile_automaton(benchmark.build(), CA_P)
        )
        data = benchmark.input_stream(4096, 3)
        backend = create_backend("lazy-dfa", artifact)
        kernel = backend.simulator.kernel
        chunk = np.frombuffer(data[2048:], dtype=np.uint8)

        budgeted = SfaKernel(kernel, max_states=64)
        lavish = SfaKernel(kernel)
        tight = budgeted.scan_mapping(chunk)
        loose = lavish.scan_mapping(chunk)
        assert budgeted.cache_info()["flushes"] > 0
        assert lavish.cache_info()["flushes"] == 0

        first_byte = int(chunk[0])
        entries = [
            np.zeros_like(kernel.match_matrix[0]),
            kernel.match_matrix[int(chunk[100])].copy(),
            kernel.match_matrix[data[0]] | kernel.match_matrix[data[1]],
        ]
        for entry_row in entries:
            tight_events, tight_exit = split_module._apply_mapping(
                kernel, entry_row, first_byte, tight
            )
            loose_events, loose_exit = split_module._apply_mapping(
                kernel, entry_row, first_byte, loose
            )
            assert tight_events == loose_events
            assert bytes(tight_exit) == bytes(loose_exit)

        # And end to end: the state-heavy workload splits bit-identically.
        serial = backend.scan(data)
        split = create_backend(
            "lazy-dfa", artifact, split_jobs=3, split_min_chunk=8
        ).scan(data)
        assert _full(split) == _full(serial)

    def test_export_seed_roundtrip_warms(self, artifact, stream):
        kernel = self._kernel(artifact)
        warm = SfaKernel(kernel)
        symbols = np.frombuffer(stream, dtype=np.uint8)
        warm.scan_mapping(symbols)
        cold = SfaKernel(kernel)
        cold.seed(warm.export_tables())
        cold.scan_mapping(symbols)
        info = cold.cache_info()
        # Only effectful transitions (a tiny minority) re-miss.
        assert info["misses"] < warm.cache_info()["misses"] / 5
        assert info["hits"] > 0

    def test_seed_into_warm_kernel_merges(self, artifact, stream):
        kernel = self._kernel(artifact)
        left = SfaKernel(kernel)
        left.scan_mapping(np.frombuffer(stream[:1500], dtype=np.uint8))
        right = SfaKernel(kernel)
        right.scan_mapping(np.frombuffer(stream[1500:], dtype=np.uint8))
        states_before = left.cache_info()["states"]
        left.seed(right.export_tables())
        assert left.cache_info()["states"] >= states_before

    def test_mapping_rejects_empty_chunk(self, artifact):
        probe = SfaKernel(self._kernel(artifact))
        with pytest.raises(ValueError, match="non-empty"):
            probe.scan_mapping(np.frombuffer(b"", dtype=np.uint8))
