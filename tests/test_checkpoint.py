"""Tests for suspend/resume (Section 2.9): splitting a stream at any point
and resuming from the checkpoint must reproduce one long run exactly."""

import ast
import asyncio
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import backend_names, create_backend
from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.core.design import CA_P
from repro.errors import SimulationError
from repro.regex.compile import compile_patterns
from repro.service import (
    DeadlineExceeded,
    NetScanClient,
    ProtocolError,
    ScanServer,
    ScanService,
)
from repro.service.net import decode_checkpoint, encode_checkpoint
from repro.sim.functional import MappedSimulator
from repro.sim.golden import Checkpoint, GoldenSimulator
from repro.sim.kernel import BitsetKernel, placement_positions
from tests.test_lazytable import _code_only
from tests.test_procpool import Ticker


def reports_of(result):
    return [(r.offset, r.ste_id) for r in result.reports]


@pytest.fixture(scope="module")
def machine():
    return compile_patterns(["needle", "na[gn]a+", "^anchor", "spl", "it"])


@pytest.fixture(scope="module")
def stream():
    rng = random.Random(77)
    background = bytearray(
        rng.choice(b"abceghilnoprst ") for _ in range(3000)
    )
    background[100:106] = b"needle"
    background[1500:1506] = b"needle"
    background[0:6] = b"anchor"
    background[2000:2005] = b"split"
    return bytes(background)


class TestGoldenResume:
    @pytest.mark.parametrize("split", [0, 1, 5, 99, 103, 1502, 2999, 3000])
    def test_split_equals_full_run(self, machine, stream, split):
        simulator = GoldenSimulator(machine)
        full = simulator.run(stream)
        first = simulator.run(stream[:split])
        second = simulator.run(stream[split:], resume=first.checkpoint)
        assert reports_of(first) + reports_of(second) == reports_of(full)

    def test_checkpoint_fields(self, machine, stream):
        simulator = GoldenSimulator(machine)
        result = simulator.run(stream[:10])
        assert result.checkpoint.symbols_processed == 10
        assert not result.checkpoint.start_of_data_pending

    def test_sod_pending_before_first_symbol(self, machine):
        simulator = GoldenSimulator(machine)
        result = simulator.run(b"")
        assert result.checkpoint.start_of_data_pending
        resumed = simulator.run(b"anchor", resume=result.checkpoint)
        assert any(r.offset == 5 for r in resumed.reports)

    def test_sod_not_rearmed_after_resume(self, machine):
        """'^anchor' must not fire when the stream resumes mid-way."""
        simulator = GoldenSimulator(machine)
        first = simulator.run(b"xy")
        resumed = simulator.run(b"anchor", resume=first.checkpoint)
        assert not any(r.ste_id.startswith("m2_") for r in resumed.reports)

    def test_many_random_splits(self, machine, stream):
        simulator = GoldenSimulator(machine)
        full = reports_of(simulator.run(stream))
        rng = random.Random(3)
        for _ in range(10):
            a, b = sorted(rng.sample(range(len(stream)), 2))
            r1 = simulator.run(stream[:a])
            r2 = simulator.run(stream[a:b], resume=r1.checkpoint)
            r3 = simulator.run(stream[b:], resume=r2.checkpoint)
            assert reports_of(r1) + reports_of(r2) + reports_of(r3) == full


class TestMappedResume:
    def test_split_equals_full_run(self, machine, stream):
        simulator = MappedSimulator(compile_automaton(machine, CA_P))
        full = simulator.run(stream)
        for split in (0, 101, 1503, len(stream)):
            first = simulator.run(stream[:split])
            second = simulator.run(stream[split:], resume=first.checkpoint)
            assert reports_of(first) + reports_of(second) == reports_of(full)

    def test_mapped_checkpoint_matches_golden_semantics(self, machine, stream):
        golden = GoldenSimulator(machine)
        mapped = MappedSimulator(compile_automaton(machine, CA_P))
        golden_split = golden.run(stream[:500])
        mapped_split = mapped.run(stream[:500])
        golden_rest = golden.run(stream[500:], resume=golden_split.checkpoint)
        mapped_rest = mapped.run(stream[500:], resume=mapped_split.checkpoint)
        assert sorted(reports_of(golden_rest)) == sorted(reports_of(mapped_rest))

    def test_activity_profile_split_merges(self, machine, stream):
        """Profiles of split runs merge to the full run's profile."""
        simulator = MappedSimulator(compile_automaton(machine, CA_P))
        full = simulator.run(stream, collect_reports=False)
        first = simulator.run(stream[:1000], collect_reports=False)
        second = simulator.run(
            stream[1000:], collect_reports=False, resume=first.checkpoint
        )
        merged = first.profile.merged_with(second.profile)
        assert merged.symbols == full.profile.symbols
        assert merged.partition_activations == full.profile.partition_activations
        assert merged.g1_crossings == full.profile.g1_crossings


class TestSplitScanResume:
    """Checkpoints and split-stream scanning compose both ways: a split
    scan yields the same checkpoint as serial, and resuming a serial
    checkpoint with a split backend (or vice versa) reproduces the one
    long run — even when the suspension point falls exactly on what
    would have been a chunk boundary."""

    @pytest.fixture(scope="class")
    def artifact(self, machine):
        return CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))

    def _split_backend(self, artifact, jobs=3):
        return create_backend(
            "lazy-dfa", artifact, split_jobs=jobs, split_min_chunk=8
        )

    def test_split_checkpoint_equals_serial(self, artifact, stream):
        serial = create_backend("lazy-dfa", artifact).scan(stream)
        split = self._split_backend(artifact).scan(stream)
        assert split.checkpoint == serial.checkpoint
        assert reports_of(split) == reports_of(serial)

    @pytest.mark.parametrize("cut", [0, 1, 5, 1000, 1500, 2999, 3000])
    def test_resume_across_backends(self, artifact, stream, cut):
        serial = create_backend("lazy-dfa", artifact)
        full = reports_of(serial.scan(stream))
        # Split head, serial tail.
        head = self._split_backend(artifact).scan(stream[:cut])
        tail = serial.scan(stream[cut:], resume=head.checkpoint)
        assert reports_of(head) + reports_of(tail) == full
        # Serial head, split tail.
        head = serial.scan(stream[:cut])
        tail = self._split_backend(artifact).scan(
            stream[cut:], resume=head.checkpoint
        )
        assert reports_of(head) + reports_of(tail) == full

    def test_suspend_on_chunk_boundary(self, artifact, stream):
        """Cut the stream exactly where a 3-way split of the full run
        placed its internal chunk boundaries (len/3, 2*len/3)."""
        serial = create_backend("lazy-dfa", artifact)
        full = reports_of(serial.scan(stream))
        for cut in (len(stream) // 3, 2 * len(stream) // 3):
            head = self._split_backend(artifact).scan(stream[:cut])
            tail = self._split_backend(artifact).scan(
                stream[cut:], resume=head.checkpoint
            )
            assert reports_of(head) + reports_of(tail) == full

    def test_sod_not_rearmed_through_split_resume(self, artifact):
        """'^anchor' must not fire after a split-scan suspension."""
        backend = self._split_backend(artifact)
        first = backend.scan(b"xy" * 16)
        resumed = backend.scan(b"anchor" * 8, resume=first.checkpoint)
        assert not any(r.ste_id.startswith("m2_") for r in resumed.reports)


class TestCheckpointProperties:
    @given(
        st.text(alphabet="ans", max_size=40),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_split_any_input(self, text, split):
        machine = compile_patterns(["na", "ans", "s"])
        simulator = GoldenSimulator(machine)
        data = text.encode()
        split = min(split, len(data))
        full = reports_of(simulator.run(data))
        first = simulator.run(data[:split])
        second = simulator.run(data[split:], resume=first.checkpoint)
        assert reports_of(first) + reports_of(second) == full

    def test_checkpoint_is_frozen(self):
        checkpoint = Checkpoint(0, 0, True)
        with pytest.raises(AttributeError):
            checkpoint.symbols_processed = 5


# ---------------------------------------------------------------------------
# One checkpoint layout: a stream suspended on any substrate of an
# artifact resumes on any other — in-process, on the service's fallback
# tier, across the scan-worker pipe and over the wire.

PORTABLE_PATTERNS = ["needle", "na[gn]a+", "^anchor", "spl", "it", "x.{14}y"]

#: Registry name and options of every substrate that resumes, and
#: ``hybrid``, a name for the packed kernel that callers still ask for.
SUBSTRATES = {
    "golden-interpreter": ("golden-interpreter", {}),
    "packed-kernel": ("packed-kernel", {}),
    "lazy-dfa": ("lazy-dfa", {}),
    "lazy-dfa-stride2": ("lazy-dfa", {"stride": 2}),
    "lazy-dfa-split2": ("lazy-dfa", {"split_jobs": 2, "split_min_chunk": 8}),
    "hybrid": ("hybrid", {}),
}


def _portable_stream() -> bytes:
    rng = random.Random(5)
    data = bytearray(rng.choice(b"abceghilnoprst ") for _ in range(177))
    data[0:6] = b"anchor"
    # "needle" sits inside the x.{14}y gap: a cut in it is inside two
    # matches of different components.
    data[30:46] = b"xab needle cdefy"
    data[100:105] = b"split"
    data[120:126] = b"nanana"
    return bytes(data)


PORTABLE_STREAM = _portable_stream()

#: 0, 1, inside ``^anchor``, just after it, inside needle/the gap, len.
PORTABLE_CUTS = [0, 1, 3, 6, 37, len(PORTABLE_STREAM)]


def rows_of(result):
    return [(r.offset, r.ste_id, r.report_code) for r in result.reports]


@pytest.fixture(scope="module")
def portable_artifact():
    machine = compile_patterns(PORTABLE_PATTERNS, report_codes=PORTABLE_PATTERNS)
    return CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))


class TestCheckpointPortability:
    """Head on A, tail on B, for every pair: the reports are the golden
    whole scan's and every B ends on the same checkpoint."""

    @pytest.fixture(scope="class")
    def backends(self, portable_artifact):
        return {
            label: create_backend(name, portable_artifact, **options)
            for label, (name, options) in SUBSTRATES.items()
        }

    @pytest.fixture(scope="class")
    def golden_rows(self, backends):
        return sorted(rows_of(backends["golden-interpreter"].scan(PORTABLE_STREAM)))

    @pytest.mark.parametrize("cut", PORTABLE_CUTS)
    @pytest.mark.parametrize("head_on", SUBSTRATES)
    def test_head_on_a_tail_on_b(self, backends, golden_rows, head_on, cut):
        head = backends[head_on].scan(PORTABLE_STREAM[:cut])
        assert type(head.checkpoint) is Checkpoint
        finals = {}
        for tail_on, backend in backends.items():
            tail = backend.scan(PORTABLE_STREAM[cut:], resume=head.checkpoint)
            assert sorted(rows_of(head) + rows_of(tail)) == golden_rows, (
                head_on, tail_on,
            )
            finals[tail_on] = tail.checkpoint
        assert len(set(finals.values())) == 1, finals

    def test_simulator_checkpoints_do_not_pass_for_portable_ones(
        self, portable_artifact, backends
    ):
        """``GoldenSimulator`` itself knows no placement; its own
        checkpoints say so, and a placement-layout reader refuses them
        instead of misreading the vector."""
        own = GoldenSimulator(portable_artifact.automaton).run(b"anc").checkpoint
        assert own.dialect is not None
        for label in ("packed-kernel", "lazy-dfa", "hybrid", "golden-interpreter"):
            with pytest.raises(SimulationError, match="means something else"):
                backends[label].scan(b"hor", resume=own)

    def test_a_negative_vector_is_refused_not_walked(self, backends):
        """Translating a vector clears its lowest set bit until none is
        left, and -1 never runs out: every reader refuses it first, and
        the wire codec does not let one in."""
        for label, backend in backends.items():
            with pytest.raises(SimulationError, match="different automaton"):
                backend.scan(b"tail", resume=Checkpoint(3, -1, False))
        with pytest.raises(ProtocolError, match="malformed checkpoint"):
            decode_checkpoint([0, "-1", False])

    def test_a_negative_symbol_count_is_refused(self, backends):
        """No stream resumes before its start: a count below zero used
        to resume, and ``the cat`` reported at offset -94."""
        for label, backend in backends.items():
            with pytest.raises(SimulationError, match="negative symbol count"):
                backend.scan(b"the cat", resume=Checkpoint(-100, 0, False))

    @pytest.mark.parametrize(
        "row",
        [
            [-100, "0x0", False],
            [1.9, "0x0", False],
            [True, "0x0", False],
            ["3", "0x0", False],
            [3, "0x0", "no"],
            [3, "0x0", 0],
            [3, "0x0", None],
        ],
    )
    def test_the_wire_codec_takes_only_a_count_and_a_bool(self, row):
        """A count is a non-bool JSON integer >= 0 and ``sod`` a JSON
        bool: ``1.9`` used to read as 1, ``"no"`` as true."""
        with pytest.raises(ProtocolError, match="malformed checkpoint"):
            decode_checkpoint(row)


def test_a_stray_bit_gets_one_answer_from_every_backend(portable_artifact):
    """A placement-layout vector with a bit no state occupies (they come
    from the wire) is refused by every backend that resumes — the packed
    kernel and the lazy DFA used to scan on with it enabled for a cycle
    where the golden interpreter and hybrid raised."""
    stray = int(np.flatnonzero(placement_positions(portable_artifact.mapping) < 0)[0])
    resumable = []
    for name in backend_names():
        backend = create_backend(name, portable_artifact)
        if backend.capabilities().resume:
            resumable.append(name)
            with pytest.raises(SimulationError):
                backend.scan(b"needle", resume=Checkpoint(5, 1 << stray, False))
    assert {"packed-kernel", "lazy-dfa", "golden-interpreter"} <= set(resumable)
    # The same check guards a kernel rebuilt from its packed tables (a
    # warm start has nothing else).
    kernel = create_backend("packed-kernel", portable_artifact).simulator.kernel
    rebuilt = BitsetKernel.from_packed(kernel.packed_tables())
    with pytest.raises(SimulationError, match=f"state bit {stray},"):
        rebuilt.enter(Checkpoint(5, 1 << stray, False))
    taken = create_backend("packed-kernel", portable_artifact).scan(b"a nee")
    assert rebuilt.enter(taken.checkpoint)[1]


class TestPortabilityThroughTheService:
    """The same guarantee at the surfaces that hand checkpoints between
    substrates on their own: breaker fallback, the pool plane, TCP."""

    @pytest.mark.parametrize("backend", [None, "lazy-dfa", "hybrid"])
    def test_fallback_tier_resumes_the_primary_tiers_checkpoint(self, backend):
        """Head on the primary tier, the breaker opens, tail on the
        golden-fallback tier: at every cut the stream is the whole
        scan's.  (The fallback tier used to read the primary's vector in
        its own bit order — wrong reports, ``fallback=True``, no error.)"""
        data = PORTABLE_STREAM

        async def scenario():
            service = ScanService(
                workers=1, breaker_threshold=1, breaker_cooldown=1e9,
                cache=False,
            )
            service.register("acme", PORTABLE_PATTERNS, backend=backend)
            await service.start()
            try:
                whole = await service.scan("acme", data)
                heads = [
                    await service.scan("acme", data[:cut])
                    for cut in range(1, len(data))
                ]
                service.inject_scan_faults("acme", 1, SimulationError("injected"))
                with pytest.raises(SimulationError):
                    await service.scan("acme", data)
                assert service.breaker_state("acme") == "open"
                tails = [
                    await service.scan(
                        "acme", data[head.offset:], resume=head.checkpoint
                    )
                    for head in heads
                ]
                return whole, heads, tails
            finally:
                await service.stop()

        whole, heads, tails = asyncio.run(scenario())
        assert not whole.fallback and rows_of(whole)
        for head, tail in zip(heads, tails):
            assert not head.fallback and tail.fallback
            assert tail.served_by == "golden-interpreter"
            assert sorted(rows_of(head) + rows_of(tail)) == sorted(
                rows_of(whole)
            ), head.offset

    def test_deadline_checkpoint_resumes_on_the_fallback_tier(self):
        data = PORTABLE_STREAM
        clock = Ticker(step=1.0)

        async def scenario():
            service = ScanService(
                workers=1, chunk_bytes=8, breaker_threshold=1,
                breaker_cooldown=1e9, clock=clock, cache=False,
            )
            service.register("acme", PORTABLE_PATTERNS, backend="hybrid")
            await service.start()
            try:
                whole = await service.scan("acme", data, deadline=1e6)
                with pytest.raises(DeadlineExceeded) as info:
                    await service.scan("acme", data, deadline=5.5)
                service.inject_scan_faults("acme", 1, SimulationError("injected"))
                with pytest.raises(SimulationError):
                    await service.scan("acme", data, deadline=1e6)
                rest = await service.scan(
                    "acme", data[info.value.offset:], deadline=1e6,
                    resume=info.value.checkpoint,
                )
                return whole, info.value, rest
            finally:
                await service.stop()

        whole, error, rest = asyncio.run(scenario())
        assert error.offset == 40  # inside needle and the x.{14}y gap
        assert rest.fallback
        assert sorted(rows_of(error) + rows_of(rest)) == sorted(rows_of(whole))

    def test_hybrid_tenant_takes_several_spans_on_the_pool_plane(self):
        """One dispatch covers at most the hold quantum, so 20 kB in
        2 KiB chunks needs a second span resumed from the first one's
        checkpoint (the pipe used to flatten a hybrid checkpoint to an
        empty vector and the resume was refused)."""
        data = (PORTABLE_STREAM * 120)[:20_000]

        async def scan(scan_workers):
            service = ScanService(
                workers=1, scan_workers=scan_workers, chunk_bytes=2048,
                cache=False,
            )
            service.register("acme", PORTABLE_PATTERNS, backend="hybrid")
            await service.start()
            try:
                outcome = await service.scan("acme", data)
                return (
                    rows_of(outcome), outcome.checkpoint,
                    service.metrics_snapshot().get("pool_dispatches", 0),
                )
            finally:
                await service.stop()

        pooled, pooled_checkpoint, dispatches = asyncio.run(scan(1))
        inloop, inloop_checkpoint, _ = asyncio.run(scan(0))
        assert pooled == inloop and pooled
        assert pooled_checkpoint == inloop_checkpoint
        assert dispatches >= 2

    def test_hybrid_tenant_resumes_over_tcp(self):
        data = PORTABLE_STREAM

        async def scenario():
            service = ScanService(workers=1, cache=False)
            service.register("acme", PORTABLE_PATTERNS, backend="hybrid")
            await service.start()
            server = ScanServer(service)
            await server.start()
            try:
                whole = await service.scan("acme", data)
                async with await NetScanClient.connect(*server.address) as client:
                    head = await client.scan("acme", data[:37])
                    # A bad resume frame is answered, not scanned; the
                    # connection and the event loop keep serving.
                    for bad in (Checkpoint(0, -1, False), Checkpoint(-100, 0, False)):
                        with pytest.raises(ProtocolError, match="malformed"):
                            await client.scan("acme", b"the cat", resume=bad)
                    tail = await client.scan(
                        "acme", data[37:], resume=head.checkpoint
                    )
                return whole, head, tail
            finally:
                await server.stop()
                await service.stop()

        whole, head, tail = asyncio.run(scenario())
        assert rows_of(head) + rows_of(tail) == rows_of(whole)
        assert tail.checkpoint == whole.checkpoint


class TestMarkedDialect:
    """``GoldenSimulator``'s automaton-order checkpoints are the one
    marked dialect: they never leave the process, and every
    placement-layout reader refuses them wherever the resume lands."""

    def test_only_a_plain_row_travels(self):
        plain = Checkpoint(7, 1 << 70, True)
        assert encode_checkpoint(plain) == [7, hex(1 << 70), True]
        assert decode_checkpoint(encode_checkpoint(plain)) == plain
        marked = Checkpoint(7, 5, False, "automaton-order")
        with pytest.raises(SimulationError, match="does not leave the process"):
            encode_checkpoint(marked)
        with pytest.raises(ProtocolError, match="malformed checkpoint"):
            decode_checkpoint([7, "0x5", False, "automaton-order"])

    @pytest.mark.parametrize("scan_workers", [0, 1])
    def test_refused_on_both_planes(self, scan_workers, portable_artifact):
        data = PORTABLE_STREAM
        marked = GoldenSimulator(portable_artifact.automaton).run(
            data[:37]
        ).checkpoint
        assert marked.dialect == "automaton-order"

        async def scenario():
            service = ScanService(
                workers=1, scan_workers=scan_workers, cache=False
            )
            service.register("lazy", PORTABLE_PATTERNS, backend="lazy-dfa")
            await service.start()
            try:
                with pytest.raises(SimulationError, match="automaton-order"):
                    await service.scan("lazy", data[37:], resume=marked)
                return await service.scan("lazy", data)
            finally:
                await service.stop()

        assert rows_of(asyncio.run(scenario()))


# -- guard --------------------------------------------------------------------

#: What only ``sim/kernel.py`` may do under ``src/repro``, as a pattern
#: over comment- and string-free source, and who else may, with why.
KERNEL_ONLY = {
    "constructs a Checkpoint": (r"(?<![\w.])Checkpoint\s*\(", {}),
    "loops over CHUNK_SYMBOLS": (
        r"\bCHUNK_SYMBOLS\b",
        {
            "faults/injector.py": "the fault harness intervenes between "
            "cycles and between the gather and the enabled-AND",
        },
    ),
    "turns a reporting row into Reports": (
        r"(?<![\w.])Report\s*\(",
        {
            "sim/circuit.py": "set-based counter/gate interpreter, runs "
            "on no packed kernel",
            "sim/crossbar.py": "bit-level switch model, reads partition "
            "slots, not packed rows",
            "service/net.py": "decodes wire rows, not reporting rows",
        },
    ),
}


def test_one_way_in_and_out_of_the_packed_kernel():
    """A second entry, drive loop, exit or row decoder fails here instead
    of in review; so does reaching into ``sim/shard.py``'s privates."""
    root = Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path for path in root.rglob("*.py")
    }
    code = {name: _code_only(path) for name, path in sources.items()}
    for what, (pattern, allowed) in KERNEL_ONLY.items():
        doing = {name for name in code if re.search(pattern, code[name])}
        assert doing == {"sim/kernel.py", *allowed}, what

    reaching = []
    for name, path in sources.items():
        if re.search(r"\bshard\s*\.\s*_[a-z]", code[name]):
            reaching.append(name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.sim.shard":
                if any(alias.name.startswith("_") for alias in node.names):
                    reaching.append(name)
    assert reaching == []
