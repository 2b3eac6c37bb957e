"""A cold lazy DFA is bit-identical to the golden interpreter.

A fresh :class:`~repro.sim.lazydfa.LazyDfaKernel`'s first scan is all
misses, so every transition it takes is one its step function computed
just then — on rows held as ints, from successor ints read off the
kernel's edge list the first time a row sets their bit.
Hypothesis draws the rulesets and the streams; the oracle is the golden
backend's scan of the whole stream: the reports as a list (offset, STE
id, report code, order), the checkpoint and the symbols consumed.

Axes: ``^``-anchored patterns (the start-of-data step), a match on the
last byte, a state budget small enough to flush mid-scan, stride 1 and
2, a resume from a mid-stream checkpoint, and an ``export_tables ->
seed`` round trip into a fresh kernel with cold misses on top.

A warm engine adopts the table an earlier engine stored as a cache
entry (``<key>.table``); it is golden too, on the suite rulesets
``auto=True`` sends to the lazy DFA and on churn-style lists, whole and
cut, and stores O(log misses) times, and only where a cache is its own.
"""

import asyncio
import math
import pickle
import random
from collections import OrderedDict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.compiler.cache import CompileCache
from repro.core.design import CA_P
from repro.engine import CacheAutomatonEngine
from repro.errors import DegradedModeWarning
from repro.regex.compile import compile_patterns
from repro.service import procpool
from repro.service.service import ScanService
from repro.sim import kernel as kernel_module
from repro.sim.golden import simulate
from repro.sim.lazydfa import LazyDfaKernel, kernel_dfa_from_tables, scan_one
from repro.workloads import synth
from repro.workloads.suite import get_benchmark

PATTERNS = ["bat", "c[ao]t", "dog+", "bar[t]?"]
DATA = b"the cat sat on the bat; dogged bart in a cot"

_PIECES = ["a", "b", "c", "d", ".", "[ab]", "[cd]", "[^a]"]


def _match_of(pattern: str) -> str:
    """A string the unanchored ``pattern`` matches at its last byte: each
    atom (a byte, ``.``, a class) as a member, repeated as often as its
    quantifier (``*``, ``+``, ``?``, ``{m,n}``) allows at least."""
    out, index = [], 0
    while index < len(pattern):
        if pattern[index] == "[":
            end = pattern.index("]", index)
            members = pattern[index + 1 : end]
            atom = "b" if members.startswith("^") else members[0]
            index = end + 1
        else:
            atom = "a" if pattern[index] == "." else pattern[index]
            index += 1
        copies = 1
        if pattern[index : index + 1] in ("*", "?"):
            copies, index = 0, index + 1
        elif pattern[index : index + 1] == "+":
            index += 1
        elif pattern[index : index + 1] == "{":
            end = pattern.index("}", index)
            copies = int(pattern[index + 1 : end].split(",")[0])
            index = end + 1
        out.append(atom * copies)
    return "".join(out)


@st.composite
def cases(draw):
    patterns = []
    for index in range(draw(st.integers(1, 4))):
        body = "".join(draw(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=5)))
        # Pattern 0 stays unanchored: the match planted at the end is its.
        anchored = index > 0 and draw(st.booleans())
        patterns.append(("^" if anchored else "") + body)
    text = st.text(alphabet="abcd", max_size=160)
    data = draw(text)
    if draw(st.booleans()):
        data += _match_of(patterns[0])  # a report on the last byte
    return {
        "patterns": patterns,
        "data": data.encode(),
        "stride": draw(st.sampled_from([1, 2])),
        "flush": draw(st.booleans()),
        "cut": draw(st.floats(0, 1)),
        "seed_from": draw(st.one_of(st.none(), text)),
    }


def _triples(result):
    return [(r.offset, r.ste_id, r.report_code) for r in result.reports]


@given(cases())
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_cold_lazy_dfa_is_bit_identical_to_golden(case):
    machine = compile_patterns(case["patterns"], report_codes=case["patterns"])
    artifact = CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))
    golden = create_backend("golden", artifact)
    backend = create_backend("lazy-dfa", artifact)
    kernel = backend.simulator.kernel
    dfa = LazyDfaKernel(kernel, stride=case["stride"])
    budget = 3 if case["flush"] else dfa._max_states
    dfa._max_states = budget  # 3 is past the constructor's floor of 64
    if case["seed_from"] is not None:
        warm = LazyDfaKernel(kernel, stride=case["stride"])
        scan_one(kernel, warm, case["seed_from"].encode(), None, False)
        dfa.seed(warm.export_tables())
        assert dfa.cache_info()["states"] == min(
            budget, warm.cache_info()["states"]
        )
    data = case["data"]
    cut = int(case["cut"] * len(data))

    def scan(piece, resume):
        raw = scan_one(kernel, dfa, piece, resume, True)
        return backend.materialise_raw(raw, True)

    head = scan(data[:cut], None)
    expected_head = golden.scan(data[:cut])
    assert _triples(head) == _triples(expected_head)
    assert head.checkpoint == expected_head.checkpoint
    tail = scan(data[cut:], head.checkpoint)
    expected = golden.scan(data)
    assert _triples(head) + _triples(tail) == _triples(expected)
    assert tail.checkpoint == expected.checkpoint
    assert head.profile.symbols + tail.profile.symbols == len(data)
    assert head.profile.reports + tail.profile.reports == expected.profile.reports
    assert dfa.cache_info()["states"] <= budget + 1  # + a scan's entry state


def test_successor_ints_match_the_packed_propagate():
    """``propagate_int`` ORs one successor int a bit on narrow rows and
    scatters edge heads in numpy on wide ones: forced either way, it is
    the OR over the edges of the row's set bits."""
    machine = compile_patterns(["ab[cd]+a", "^c.d", "[ab].b"])
    kernel = create_backend(
        "lazy-dfa", CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))
    ).simulator.kernel
    tail, head = kernel.edges()
    rng = np.random.default_rng(3)
    occupied = kernel.unpack(kernel._occupied())
    for _ in range(50):
        row = kernel.unpack(
            rng.integers(0, 2**63, kernel.words, dtype=np.uint64)
        ) & occupied
        expected = 0
        for source, target in zip(tail.tolist(), head.tolist()):
            if row >> source & 1:
                expected |= 1 << target
        for scatter_from in (0, 10**9):
            kernel._init_caches()
            with mock.patch.object(
                kernel_module, "PROPAGATE_SCATTER_BITS", scatter_from
            ):
                assert kernel.propagate_int(row) == expected


# -- the learned table as a cache entry -----------------------------------

_FRIENDLY = ("Snort", "ExactMatch", "Ranges1", "Bro217")

#: Churn-style lists: each synthetic kind at a size a test can afford.
_CHURN_LISTS = {
    "ids": lambda: synth.ids_rules(40, seed=1000),
    "dotstar": lambda: synth.dotstar_rules(45, 0.3, seed=1001),
    "exact": lambda: synth.exact_match_rules(50, seed=1002),
    "range": lambda: synth.range_rules(40, 1.0, seed=1003),
}


def _in_pieces(backend, data, rng):
    """``data`` scanned in random cuts, each resumed from the last one's
    checkpoint: the report triples."""
    cuts = sorted(rng.sample(range(1, len(data)), 6))
    got, checkpoint = [], None
    for low, high in zip([0] + cuts, cuts + [len(data)]):
        result = backend.scan(data[low:high], resume=checkpoint)
        got += _triples(result)
        checkpoint = result.checkpoint
    return got


def _assert_warm_is_golden(build, cold_data, data, tmp_path):
    """A cold engine learns ``cold_data`` and stores its table; warm
    engines adopt it and scan ``data`` whole and in pieces as the golden
    interpreter does."""
    cold = build(tmp_path)
    assert cold.backend.name == "lazy-dfa"
    cold.scan(cold_data)
    assert cold.cache_info()["table_stores"] == 1
    expected = _triples(simulate(cold.automaton, data))
    assert expected
    rng = random.Random(len(data))
    for whole in (True, False, False):
        warm = build(tmp_path)
        assert warm.cache_info()["table_hits"] == 1
        assert warm.backend.cache_info()["states"] > 1
        if whole:
            assert _triples(warm.backend.scan(data)) == expected
        else:
            assert _in_pieces(warm.backend, data, rng) == expected


@pytest.mark.parametrize("name", _FRIENDLY)
def test_a_warm_engine_on_a_friendly_suite_ruleset_is_golden(name, tmp_path):
    """The warm engine scans bytes the cold one learned on, then new
    ones."""
    bench = get_benchmark(name)
    machine = bench.build()
    _assert_warm_is_golden(
        lambda cache: CacheAutomatonEngine(machine, auto=True, cache=cache),
        bench.input_stream(8192, seed=3),
        b"".join(bench.input_stream(4096, seed=seed) for seed in (3, 4, 5)),
        tmp_path,
    )


@pytest.mark.parametrize("kind", sorted(_CHURN_LISTS))
def test_a_warm_engine_on_a_churn_list_is_golden(kind, tmp_path):
    """Text with a match of every fifth rule planted every 400 bytes; the
    cold engine learns its first two thirds, the warm one scans its last
    two."""
    patterns = _CHURN_LISTS[kind]()
    rng = random.Random(kind)
    data = bytearray(rng.choices(b"abcdefghijklmnopqrstuvwxyz0123456789 ", k=6144))
    needles = [_match_of(pattern).encode() for pattern in patterns[::5]]
    for at in range(0, len(data) - 64, 400):
        needle = needles[at // 400 % len(needles)]
        data[at : at + len(needle)] = needle
    data = bytes(data)
    _assert_warm_is_golden(
        lambda cache: CacheAutomatonEngine.from_patterns(
            patterns, auto=True, cache=cache
        ),
        data[:4096],
        data[2048:],
        tmp_path,
    )


def test_an_adopted_record_reaches_every_consumer_as_golden(tmp_path):
    """A warm engine adopted the cold one's record from its table entry.
    A pool worker's DFA built from its (pickled) spec tables, a shard
    fan-out and a split fan-out — twice, folding the workers' records
    back into the parent — all report as the golden interpreter does,
    and the fold records no cell twice."""
    bench = get_benchmark("Snort")
    machine = bench.build()

    def build():
        return CacheAutomatonEngine(
            machine,
            backend="lazy-dfa",
            cache=tmp_path,
            backend_options={"split_min_chunk": 8},
        )

    build().scan(bench.input_stream(8192, seed=3))
    warm = build()
    assert warm.cache_info()["table_hits"] == 1
    backend = warm.backend
    streams = [bench.input_stream(4096, seed=seed) for seed in (3, 4, 5)]
    expected = [_triples(simulate(machine, data)) for data in streams]
    assert any(expected)
    spec_tables = pickle.loads(pickle.dumps(backend.share_tables()))
    kernel, dfa = kernel_dfa_from_tables(spec_tables, None)
    assert dfa.cache_info()["states"] == backend.cache_info()["states"]
    raws = [scan_one(kernel, dfa, data, None, True) for data in streams]
    assert [_triples(backend.materialise_raw(raw, True)) for raw in raws] == expected
    sharded = backend.scan_many(streams, jobs=2)
    assert [_triples(result) for result in sharded] == expected
    for _ in range(2):
        assert [
            _triples(backend.scan(data, split_jobs=2)) for data in streams
        ] == expected
    assert backend.worker_cache_info()["workers"] > 0
    _, sources, columns, _ = backend._sfa._table.publish()
    cells = list(zip(sources.tolist(), columns.tolist()))
    assert cells and len(cells) == len(set(cells))


def test_a_warm_tenant_scans_its_spans_as_golden(tmp_path):
    """In-loop service spans (16-byte chunks on one cursor a span) store
    the table at the span's close; a second service on the directory
    adopts it, misses only the reporting transitions, and reports as the
    golden interpreter does."""

    async def serve(data):
        service = ScanService(
            workers=1, scan_workers=0, chunk_bytes=16, cache=str(tmp_path)
        )
        service.register("acme", PATTERNS, backend="lazy-dfa")
        await service.start()
        try:
            outcome = await service.scan("acme", data)
        finally:
            await service.stop()
        return outcome.report_rows(), service._tenant("acme").engine

    data = DATA * 8
    cold, engine = asyncio.run(serve(data))
    assert engine.cache_info()["table_stores"] == 1
    learned = engine.backend.dfa.export_tables()["dfa_sources"]
    reporting = engine.backend.cache_info()["misses"] - len(learned)
    warm, engine = asyncio.run(serve(data))
    assert engine.cache_info()["table_hits"] == 1
    assert engine.backend.cache_info()["misses"] == reporting
    assert cold == warm == _triples(simulate(engine.automaton, data))


def test_a_long_stream_stores_logarithmically_often(tmp_path):
    """A 1 MiB stream in 4 KiB pieces: each store at least doubles the
    misses behind it, so there are at most ceil(log2(misses)) + 1."""
    bench = get_benchmark("Snort")
    cache = CompileCache(tmp_path)
    engine = CacheAutomatonEngine(bench.build(), backend="lazy-dfa", cache=cache)
    data = bench.input_stream(1 << 20, seed=5)
    stream = engine.stream()
    for at in range(0, len(data), 4096):
        stream.scan(data[at : at + 4096])
    misses = engine.backend.cache_info()["misses"]
    assert 2 <= cache.stats.table_stores <= math.ceil(math.log2(misses)) + 1
    assert engine.backend.cache_info()["flushes"] == 0


class TestNothingIsStored:
    """Where no table entry is written: no cache, a space-optimised
    build, a backend that learns no table, the golden tier, and a pool
    worker (which reads the tenant's entry but never writes one)."""

    @pytest.fixture(autouse=True)
    def refuse_stores(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a DFA table was stored")

        monkeypatch.setattr(CompileCache, "store_table", refuse)

    def test_without_a_cache(self):
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS, backend="lazy-dfa", cache=None
        )
        assert _triples(engine.backend.scan(DATA))

    def test_space_optimised(self, tmp_path):
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS, backend="lazy-dfa", cache=tmp_path, optimize=True
        )
        assert _triples(engine.backend.scan(DATA))
        assert not list(tmp_path.rglob("*.table"))

    def test_on_the_packed_kernel(self, tmp_path):
        engine = CacheAutomatonEngine.from_patterns(
            PATTERNS, backend="packed-kernel", cache=tmp_path
        )
        assert _triples(engine.backend.scan(DATA))
        assert engine.cache_info()["table_misses"] == 0

    def test_on_the_golden_tier(self, tmp_path, monkeypatch):
        class BrokenSimulator:
            def __init__(self, *_args, **_kwargs):
                raise MemoryError("synthetic: cannot pack kernel tables")

        monkeypatch.setattr("repro.engine.MappedSimulator", BrokenSimulator)
        with pytest.warns(DegradedModeWarning, match="golden"):
            engine = CacheAutomatonEngine.from_patterns(
                PATTERNS, auto=True, cache=tmp_path
            )
        assert engine.health().tier == "golden-fallback"
        assert _triples(engine.backend.scan(DATA))
        assert engine.cache_info()["table_misses"] == 0

    @pytest.mark.parametrize("path", ["tables", "rebuild"])
    def test_by_a_pool_worker(self, tmp_path, monkeypatch, path):
        service = ScanService(workers=1, scan_workers=1, cache=str(tmp_path))
        service.register("acme", PATTERNS, backend="lazy-dfa")
        spec = service._tenant_worker_spec(service._tenant("acme"))
        if path == "rebuild":
            spec = replace(spec, tables=None)
        # This process plays the worker, with an engine cache of its own.
        monkeypatch.setattr(procpool, "_WORKER_ENGINES", OrderedDict())
        _, built, _ = procpool._build_engine(spec)
        assert built == path
        reply = procpool.SpanReply._make(
            procpool._serve_span(
                (spec.registration.fingerprint, DATA, None, 16, None)
            )
        )
        assert reply.consumed
        assert not list(tmp_path.rglob("*.table"))


@pytest.mark.parametrize("stride", [1, 2])
def test_exported_rows_pack_each_state_once(stride):
    """``dfa_rows`` are the table's keys, each packed once: an export
    packs only the states interned since the last one, and adopted rows
    are kept as they came, through flushes alike."""
    patterns = ["bat", "c[ao]t", "dog+", "x[0-9]+y"]
    machine = compile_patterns(patterns, report_codes=patterns)
    artifact = CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))
    kernel = create_backend("lazy-dfa", artifact).simulator.kernel
    data = b"the cat sat on the bat; x0123456789y doggg bart! cot dot " * 6
    warm = LazyDfaKernel(kernel, stride=stride)
    scan_one(kernel, warm, data[::-1], None, False)

    packs = []
    real = int.to_bytes

    def packed_keys(dfa):
        keys = dfa._table.keys
        raw = b"".join(real(key, kernel.row_bytes, "little") for key in keys)
        return np.frombuffer(raw, np.uint64).reshape(len(keys), kernel.words)

    for budget in (None, 3):
        dfa = LazyDfaKernel(kernel, stride=stride)
        dfa._table._pack = lambda key: packs.append(key) or real(
            key, kernel.row_bytes, "little"
        )
        if budget is not None:
            dfa._max_states = budget
        dfa.seed(warm.export_tables())
        assert packs == []  # adopted rows are kept as they came
        for start in range(0, len(data), 37):
            flushes = dfa.cache_info()["flushes"]
            before = list(dfa._table.keys)
            scan_one(kernel, dfa, data[start : start + 37], None, False)
            packs.clear()
            assert (dfa.export_tables()["dfa_rows"] == packed_keys(dfa)).all()
            fresh = dfa._table.keys[len(before) :]
            if dfa.cache_info()["flushes"] == flushes:
                assert packs == fresh
            assert len(packs) == len(set(packs)) <= len(dfa._table.keys)
            packs.clear()
            dfa.export_tables()
            assert packs == []
        assert (dfa.cache_info()["flushes"] > 0) == (budget is not None)
