"""Tests for the packed-bitset simulation kernel (`repro.sim.kernel`).

Three layers of evidence:

* unit tests of the packed-word primitives (pack/unpack, match matrix,
  successor propagation off the edge list, the idle fast path);
* the chunk-boundary contract: splitting any input at *every* offset and
  resuming from the checkpoint must reproduce a single-shot run exactly —
  reports, activity profiles, and per-partition counts — for workloads
  drawn from the evaluation suite;
* multi-stream batching (`MappedSimulator.run_many`) must be bit-for-bit
  identical to running each stream alone.
"""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.automata.anml import HomogeneousAutomaton, StartKind
from repro.automata.symbols import SymbolSet
from repro.backends import create_backend
from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.core.design import CA_P
from repro.errors import SimulationError
from repro.regex.compile import compile_patterns
from repro.sim import kernel as kernel_module
from repro.sim.functional import MappedSimulator
from repro.sim.golden import GoldenSimulator
from repro.sim.kernel import (
    BitsetKernel,
    Checkpoint,
    Report,
    ReportDecoder,
    as_symbols,
    popcount_rows,
)
from repro.workloads.suite import build_suite, get_benchmark

N_BITS = 100


def random_tables(seed: int, n_bits: int = N_BITS):
    rng = random.Random(seed)
    successors = [
        rng.getrandbits(n_bits) if rng.random() < 0.4 else 0
        for _ in range(n_bits)
    ]
    match_table = [rng.getrandbits(n_bits) for _ in range(256)]
    start_all = rng.getrandbits(n_bits)
    return successors, match_table, start_all


def edges_of(successors):
    """The ``(tails, heads)`` edges of per-bit successor masks."""
    pairs = [
        (tail, head)
        for tail, mask in enumerate(successors)
        for head in range(mask.bit_length())
        if mask >> head & 1
    ]
    return [tail for tail, _ in pairs], [head for _, head in pairs]


def make_kernel(seed: int = 1) -> BitsetKernel:
    successors, match_table, start_all = random_tables(seed)
    return BitsetKernel(
        N_BITS, edges_of(successors), match_table, start_all, 0, 0
    )


class TestPacking:
    @given(st.integers(min_value=0, max_value=(1 << N_BITS) - 1))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, value):
        kernel = BitsetKernel(N_BITS, ((), ()), [0] * 256, 0, 0, 0)
        assert kernel.unpack(kernel.pack(value)) == value

    def test_pack_rejects_oversized_vector(self):
        kernel = BitsetKernel(8, ((), ()), [0] * 256, 0, 0, 0)
        with pytest.raises(SimulationError):
            kernel.pack(1 << 200)

    def test_bit_indices(self):
        kernel = BitsetKernel(N_BITS, ((), ()), [0] * 256, 0, 0, 0)
        value = (1 << 0) | (1 << 63) | (1 << 64) | (1 << 99)
        assert kernel.bit_indices(kernel.pack(value)).tolist() == [0, 63, 64, 99]

    def test_match_matrix_rows(self):
        kernel = make_kernel(seed=3)
        _, match_table, _ = random_tables(3)
        for symbol in (0, 17, 255):
            assert kernel.unpack(kernel.match_matrix[symbol]) == match_table[symbol]

    def test_from_automaton_match_matrix_equals_the_per_state_loop(self):
        """``from_automaton`` ORs state bits per distinct symbol mask
        before walking a mask's bytes; row ``b`` must still be exactly the
        states whose label contains ``b``."""
        automaton = compile_patterns(["a.{3}[^b]c", "[a-f]+x", ".*q", "[0-9]{2}"])
        ids = automaton.ste_ids()
        random.Random(5).shuffle(ids)
        bit_of = {ste_id: 3 * position for position, ste_id in enumerate(ids)}
        kernel = BitsetKernel.from_automaton(automaton, bit_of, 3 * len(ids) + 7)
        for symbol in range(256):
            expected = sum(
                1 << bit_of[ste.ste_id]
                for ste in automaton.stes()
                if ste.matches(symbol)
            )
            assert kernel.unpack(kernel.match_matrix[symbol]) == expected

    def test_popcount_rows(self):
        kernel = make_kernel(seed=4)
        rows = np.stack([kernel.pack(0b1011), kernel.pack((1 << 99) | 1)])
        assert popcount_rows(rows).tolist() == [3, 2]


class TestPopcountFallback:
    """Satellite: installs without ``np.bitwise_count`` (numpy < 2.0)
    take the ``unpackbits`` path — it must agree bit-for-bit."""

    def test_unpackbits_matches_reference(self):
        rng = np.random.default_rng(21)
        rows = rng.integers(0, 1 << 63, size=(9, 4), dtype=np.uint64)
        expected = [
            sum(int(word).bit_count() for word in row) for row in rows
        ]
        assert (
            kernel_module._popcount_rows_unpackbits(rows).tolist()
            == expected
        )
        if hasattr(np, "bitwise_count"):
            assert (
                kernel_module._popcount_rows_native(rows).tolist()
                == expected
            )

    def test_unpackbits_handles_noncontiguous_rows(self):
        rng = np.random.default_rng(3)
        wide = rng.integers(0, 1 << 63, size=(5, 8), dtype=np.uint64)
        view = wide[:, ::2]
        expected = [
            sum(int(word).bit_count() for word in row) for row in view
        ]
        assert (
            kernel_module._popcount_rows_unpackbits(view).tolist()
            == expected
        )

    def test_dispatch_runs_on_fallback(self, monkeypatch):
        monkeypatch.setattr(
            kernel_module,
            "_popcount_rows_impl",
            kernel_module._popcount_rows_unpackbits,
        )
        kernel = make_kernel(seed=4)
        rows = np.stack([kernel.pack(0b1011), kernel.pack((1 << 99) | 1)])
        assert popcount_rows(rows).tolist() == [3, 2]


class TestStepCache:
    """The component tables behind ``run_chunk``: counters move with
    use, and a budget that makes them flush never changes what a run
    returns."""

    PATTERNS = ["ab+c", "cat", "d[aeiou]g"]

    def _mapping(self):
        return compile_automaton(compile_patterns(self.PATTERNS), CA_P)

    def test_counters_track_hits_and_misses(self, monkeypatch):
        # Chains of +1 edges: a shift kernel unless pinned to the tables.
        monkeypatch.setattr(kernel_module, "SHIFT_OFFSETS", 0)
        simulator = MappedSimulator(self._mapping())
        data = b"abbc cat dig abc dog cat " * 40
        simulator.run(data)
        info = simulator.cache_info()
        # A ruleset that converges steps on the one level too.
        assert info["step"]["components"] == len(self.PATTERNS)
        assert info["step"]["misses"] > 0
        assert info["step"]["hits"] > 0
        assert info["step"]["hits"] == info["step"]["lookups"] - info["step"]["misses"]
        assert info["step"]["flushes"] == 0
        assert 0 < info["step"]["states"] <= info["step"]["limit"]
        warm_hits = info["step"]["hits"]
        simulator.run(data)
        again = simulator.cache_info()
        assert again["step"]["hits"] > warm_hits
        assert again["step"]["misses"] == info["step"]["misses"]
        assert again["step"]["states"] == info["step"]["states"]
        assert again["propagate"]["misses"] >= 1

    @pytest.mark.parametrize(
        "state_bytes",
        [kernel_module._COMPONENT_STATE_BYTES, 1 << 40],
        ids=["roomy", "flushing"],
    )
    def test_overflow_to_component_tables_preserves_results(
        self, monkeypatch, state_bytes
    ):
        mapping = self._mapping()
        data = b"abbc cat dig abc dog cat " * 40
        expected = reports_of(MappedSimulator(mapping).run(data))
        monkeypatch.setattr(kernel_module, "SHIFT_OFFSETS", 0)
        # A state that costs the whole budget: the tables hold the
        # fewest states they can and drop them over and over.
        monkeypatch.setattr(kernel_module, "_COMPONENT_STATE_BYTES", state_bytes)
        tiny = MappedSimulator(mapping)
        result = tiny.run(data)
        assert reports_of(result) == expected
        info = tiny.cache_info()
        assert info["step"]["components"] == len(self.PATTERNS)
        assert info["step"]["lookups"] > 0
        assert 0 < info["step"]["misses"]
        assert (
            info["step"]["states"]
            <= info["step"]["limit"] + info["step"]["components"]
        )
        assert (info["step"]["flushes"] > 0) == (state_bytes == 1 << 40)
        # The table never grows past the ids that state bound allows.
        assert (
            tiny.kernel._components.trans.shape[1]
            <= info["step"]["limit"] + info["step"]["components"] + 1
        )

    @pytest.mark.parametrize("width", [1, 10**9], ids=["sweep", "loop"])
    def test_a_learn_fills_every_byte_column_of_its_class(self, monkeypatch, width):
        """``p`` tells ``a`` from ``b``, ``u`` does not: the two bytes are
        two byte columns, and what ``u`` learns on one it knows on the
        other."""
        monkeypatch.setattr(kernel_module, "_VECTOR_WIDTH", width)
        automaton = HomogeneousAutomaton("columns")
        automaton.add_ste("p", SymbolSet(b"a"), start=StartKind.ALL_INPUT)
        automaton.add_ste("q", SymbolSet(b"b"), reporting=True)
        automaton.add_edge("p", "q")
        automaton.add_ste("u", SymbolSet(b"ab"), start=StartKind.ALL_INPUT)
        automaton.add_ste("v", SymbolSet(b"ab"), reporting=True)
        automaton.add_edge("u", "v")
        kernel = BitsetKernel.from_automaton(
            automaton, {"p": 0, "q": 1, "u": 64, "v": 65}, 128
        )
        level = kernel_module._ComponentTables(kernel)
        columns = len(np.unique(level._classes, axis=0))
        assert level.trans.shape[0] == columns == 3  # a, b, and the rest
        blind = [
            index
            for index in range(level.components)
            if level._classes[ord("a"), index] == level._classes[ord("b"), index]
        ]
        assert len(blind) == 1

        def step(byte):
            sym = np.frombuffer(byte, dtype=np.uint8)
            return level.step(level.zero.copy(), sym)[1].tolist()

        after_a = step(b"a")
        assert level.misses == 2
        after_b = step(b"b")
        assert level.misses == 3, "u relearned what it knew"
        assert after_a[blind[0]] == after_b[blind[0]]
        filled = level.trans[:, level.zero[blind[0]]]
        assert filled[level._column_of[ord("a")]] == filled[level._column_of[ord("b")]]

    def test_budgets_bound_what_the_caches_hold(self):
        """64 KiB of Levenshtein, whose edges fall in too many bit
        offsets to shift, step on the component tables; they hold
        ``STEP_CACHE_BYTES`` and the propagation memo has its own."""
        backend, held = scan_64k_holding("Levenshtein")
        budget = kernel_module.STEP_CACHE_BYTES + kernel_module.PROPAGATE_CACHE_BYTES
        assert held < budget, f"{held / 2**20:.0f} MiB held"
        info = backend.simulator.cache_info()
        assert info["shift"]["offsets"] == 0
        assert info["step"]["lookups"] > 32 * 1024

    def test_a_shift_kernel_learns_nothing(self):
        """Fermi's edges all have offset +1: 64 KiB of it are stepped by
        shifts, with no component table and next to no memory held in
        the kernel module."""
        backend, held = scan_64k_holding("Fermi")
        info = backend.simulator.cache_info()
        assert info["shift"]["offsets"] == 1
        assert info["shift"]["cycles"] > 32 * 1024
        assert set(info["step"].values()) == {0}
        assert backend.simulator.kernel._components is None
        assert held < 1 << 20, f"{held / 2**20:.2f} MiB held"

    def test_hamming_steps_by_four_shifts(self, monkeypatch):
        """Laid out in automaton order, Hamming's grid falls in four bit
        offsets: it learns no table, and its resumed 4 KiB scans give the
        reports, checkpoints and profiles of the same kernel pinned to
        the component tables over 64 KiB."""
        benchmark = get_benchmark("Hamming")
        artifact = CompiledArtifact.from_mapping(
            compile_automaton(benchmark.build(), CA_P)
        )
        data = benchmark.input_stream(64 * 1024, seed=1)

        def scan():
            backend = create_backend("packed-kernel", artifact)
            checkpoint, seen = None, []
            for start in range(0, len(data), 4096):
                result = backend.scan(data[start : start + 4096], resume=checkpoint)
                checkpoint = result.checkpoint
                seen.append((result.reports, checkpoint, result.profile))
            return seen, backend.simulator.cache_info()

        shifted, info = scan()
        assert info["shift"]["offsets"] == 4
        assert info["shift"]["cycles"] > 0
        assert set(info["step"].values()) == {0}
        monkeypatch.setattr(kernel_module, "SHIFT_OFFSETS", 0)
        tables, pinned = scan()
        assert pinned["step"]["lookups"] > 0
        assert any(reports for reports, _, _ in shifted)
        assert shifted == tables

    def test_the_propagation_memo_holds_its_budget(self, monkeypatch):
        """An entry costs its key's and its result's row bytes, two int
        headers and a dictionary slot; charged its row bytes alone, the
        memo held three times its budget."""
        monkeypatch.setattr(kernel_module, "PROPAGATE_CACHE_BYTES", 2 << 20)
        artifact = CompiledArtifact.from_mapping(
            compile_automaton(get_benchmark("Fermi").build(), CA_P)
        )
        kernel = create_backend("packed-kernel", artifact).simulator.kernel
        kernel._init_caches()
        rows = np.random.default_rng(7).integers(
            0, np.iinfo(np.uint64).max, size=(20_000, kernel.words),
            dtype=np.uint64, endpoint=True,
        )
        rows &= kernel._occupied()
        only_kernel = [tracemalloc.Filter(True, kernel_module.__file__)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(only_kernel)
            for row in rows:
                kernel.propagate(row)
            after = tracemalloc.take_snapshot().filter_traces(only_kernel)
        finally:
            tracemalloc.stop()
        held = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        info = kernel.cache_info()["propagate"]
        assert info["size"] == info["limit"]
        assert held <= 2 << 20, f"{held / 2**20:.2f} MiB held"


def scan_64k_holding(name: str):
    """A packed-kernel backend of suite benchmark ``name`` after 64 KiB
    of its own input in 4 KiB scans, and the bytes ``kernel.py`` holds
    afterwards that it did not before."""
    benchmark = get_benchmark(name)
    artifact = CompiledArtifact.from_mapping(
        compile_automaton(benchmark.build(), CA_P)
    )
    backend = create_backend("packed-kernel", artifact)
    data = benchmark.input_stream(64 * 1024, seed=1)
    only_kernel = [tracemalloc.Filter(True, kernel_module.__file__)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_kernel)
        for start in range(0, len(data), 4096):
            backend.scan(data[start : start + 4096], collect_reports=False)
        after = tracemalloc.take_snapshot().filter_traces(only_kernel)
    finally:
        tracemalloc.stop()
    held = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    return backend, held


ALPHABET = b"abcd"
N_WORDS = 6


@st.composite
def factored_machines(draw):
    """A multi-component automaton and a bit layout for it: component 0
    is anchored (``^``), component 1 has a self-looping ``.*`` state and
    straddles two words that are not neighbours, the first three share
    word 0, the rest spread over the other words."""
    automaton = HomogeneousAutomaton("factored")
    bit_of = {}
    cursor = {word: word * 64 for word in (0, 2, 3, 5)}
    for component in range(draw(st.integers(2, 12))):
        size = draw(st.integers(2, 5))
        ids = [f"c{component}s{state}" for state in range(size)]
        for state, ste_id in enumerate(ids):
            label = draw(st.sets(st.sampled_from(ALPHABET), min_size=1))
            start = StartKind.NONE
            if state == 0:
                start = StartKind.START_OF_DATA if component == 0 else StartKind.ALL_INPUT
            elif component == 1 and state == 1:
                label = range(256)
            elif draw(st.integers(0, 5)) == 0:
                start = StartKind.ALL_INPUT
            automaton.add_ste(
                ste_id, SymbolSet(label), start=start,
                reporting=state == size - 1 or draw(st.booleans()),
            )
            if component == 1:
                bit_of[ste_id] = (64 if state % 2 else 256) + state
            else:
                word = 0 if component < 3 else (2, 3, 5)[component % 3]
                bit_of[ste_id] = cursor[word]
                cursor[word] += 1
        for source, target in zip(ids, ids[1:]):
            automaton.add_edge(source, target)
        if component == 1:
            automaton.add_edge(ids[1], ids[1])
        for _ in range(draw(st.integers(0, 3))):
            automaton.add_edge(
                draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
            )
    return automaton, bit_of


def scan_in_pieces(kernel, automaton, bit_of, pieces, resume=None):
    """Everything a scan leaves behind, resumed from piece to piece: the
    matched and enabled histories, the checkpoint after every piece and
    the reports."""
    positions = np.full(kernel.n_bits, -1)
    index = automaton.edge_index_arrays().index
    for ste_id, bit in bit_of.items():
        positions[bit] = index[ste_id]
    decoder = ReportDecoder(automaton, lambda: positions)
    matched, enabled, reports = [], [], []

    def on_chunk(sym, matched_rows, enabled_rows, offset):
        matched.append(matched_rows.tobytes())
        enabled.append(enabled_rows.tobytes())
        firing = matched_rows & kernel.report_row
        for cycle in np.flatnonzero(firing.any(axis=1)).tolist():
            decoder.emit(firing[cycle].tobytes(), offset + cycle, reports)

    checkpoint, checkpoints = resume, []
    for piece in pieces:
        _, checkpoint = kernel.drive(
            piece, checkpoint, on_chunk, enabled_history=True
        )
        checkpoints.append(checkpoint)
    return b"".join(matched), b"".join(enabled), checkpoints, reports


class TestComponentBudgetCsrAndSweepAgree:
    """Component tables that flush or not, swept all at once or one
    component at a time: one answer (pinned to the tables: a machine
    whose edges fall in few offsets would step by shifts)."""

    @given(
        factored_machines(),
        st.lists(st.sampled_from(ALPHABET + b"x"), max_size=160).map(bytes),
        st.lists(st.integers(0, 160), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_budget_gives_the_same_scan(self, machine, data, cuts):
        automaton, bit_of = machine
        cuts = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})
        pieces = [data[low:high] for low, high in zip(cuts, cuts[1:])] or [b""]

        def scan(state_bytes, width):
            with mock.patch.multiple(
                kernel_module,
                SHIFT_OFFSETS=0,
                _COMPONENT_STATE_BYTES=state_bytes,
                COMPONENT_BLOCK=16,
                _VECTOR_WIDTH=width,
            ):
                kernel = BitsetKernel.from_automaton(automaton, bit_of, N_WORDS * 64)
                return scan_in_pieces(kernel, automaton, bit_of, pieces)

        default = kernel_module._COMPONENT_STATE_BYTES
        expected = scan(default, 1)
        assert len(expected[0]) == len(data) * N_WORDS * 8
        for state_bytes in (1 << 40, default):
            # Every component swept at once, or each in its own loop.
            for width in (1, 10**9):
                assert scan(state_bytes, width) == expected, (state_bytes, width)

    def test_a_checkpoint_bit_no_transition_touches_lives_one_cycle(self):
        """A lone state is in no component; set by a checkpoint it is
        enabled for one cycle on the tables and by shifts."""
        automaton = HomogeneousAutomaton("lone")
        automaton.add_ste("lone", SymbolSet(b"a"), reporting=True)
        automaton.add_ste("p", SymbolSet(b"a"), start=StartKind.ALL_INPUT)
        automaton.add_ste("q", SymbolSet(b"b"), reporting=True)
        automaton.add_edge("p", "q")
        bit_of = {"lone": 70, "p": 3, "q": 4}
        outcomes = []
        for offsets in (0, 10**9):
            with mock.patch.object(kernel_module, "SHIFT_OFFSETS", offsets):
                kernel = BitsetKernel.from_automaton(automaton, bit_of, 128)
                reports = []
                kernel.drive(
                    b"aab",
                    Checkpoint(7, 1 << 70, False),
                    lambda sym, matched, enabled, offset: reports.extend(
                        (offset + cycle, kernel.unpack(row & kernel.report_row))
                        for cycle, row in enumerate(matched)
                    ),
                )
                outcomes.append(reports)
                assert kernel.cache_info()["shift"]["cycles"] == (3 if offsets else 0)
        assert outcomes == [[(7, 1 << 70), (8, 0), (9, 1 << 4)]] * 2


SHIFT_ALPHABET = ALPHABET + b"xy"


@st.composite
def chain_machines(draw):
    """Chains laid out one bit after the next, so most edges are +1, with
    gaps that may cross a word, a self-loop (0) here and a skip or back
    edge there."""
    automaton = HomogeneousAutomaton("chains")
    bit_of = {}
    bit = draw(st.integers(0, 70))
    for chain in range(draw(st.integers(1, 4))):
        ids = [f"c{chain}s{state}" for state in range(draw(st.integers(1, 8)))]
        for state, ste_id in enumerate(ids):
            start = StartKind.NONE
            if state == 0:
                start = draw(
                    st.sampled_from([StartKind.ALL_INPUT, StartKind.START_OF_DATA])
                )
            automaton.add_ste(
                ste_id,
                SymbolSet(draw(st.sets(st.sampled_from(SHIFT_ALPHABET), min_size=1))),
                start=start,
                reporting=state == len(ids) - 1 or draw(st.booleans()),
            )
            bit_of[ste_id] = bit
            bit += 1
        for source, target in zip(ids, ids[1:]):
            automaton.add_edge(source, target)
        for _ in range(draw(st.integers(0, 2))):
            automaton.add_edge(draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
        bit += draw(st.integers(0, 40))
    return automaton, bit_of


@st.composite
def bounded_machines(draw):
    """``x.{k}y``, ``^``-anchored or not, beside ``a[bc]+d``: laid out in
    state order (a few offsets) or shuffled across words (many)."""
    k = draw(st.integers(1, 16))
    anchor = "^" if draw(st.booleans()) else ""
    automaton = compile_patterns([f"{anchor}x.{{{k}}}y", "a[bc]+d"])
    ids = automaton.ste_ids()
    if draw(st.booleans()):
        ids = draw(st.permutations(ids))
    first = draw(st.integers(0, 100))
    return automaton, {ste_id: first + at for at, ste_id in enumerate(ids)}


def interpret(automaton, bit_of, pieces, resume):
    """:func:`scan_in_pieces`, one cycle at a time over the automaton's
    own STEs and ``edges_unordered()``: sets of STE ids, no kernel."""
    successors = {ste_id: set() for ste_id in automaton.ste_ids()}
    for source, target in automaton.edges_unordered():
        successors[source].add(target)
    stes = list(automaton.stes())
    start_all = {ste.ste_id for ste in stes if ste.start is StartKind.ALL_INPUT}
    start_sod = {ste.ste_id for ste in stes if ste.start is StartKind.START_OF_DATA}
    id_of = {bit: ste_id for ste_id, bit in bit_of.items()}

    def vector(ids):
        return sum(1 << bit_of[ste_id] for ste_id in ids)

    def row(ids):
        return vector(ids).to_bytes(N_WORDS * 8, "little")

    offset, pending, sod = 0, set(), bool(start_sod)
    if resume is not None:
        offset, sod = resume.symbols_processed, sod and resume.start_of_data_pending
        pending = {
            id_of[bit]
            for bit in range(N_WORDS * 64)
            if resume.active_state_vector >> bit & 1
        }
    matched_rows, enabled_rows, checkpoints, reports = [], [], [], []
    for piece in pieces:
        for byte in piece:
            enabled = pending | start_all | (start_sod if sod else set())
            sod = False
            matched = {ste_id for ste_id in enabled if automaton.ste(ste_id).matches(byte)}
            enabled_rows.append(row(enabled))
            matched_rows.append(row(matched))
            reports.extend(
                Report(offset, ste.ste_id, ste.report_code)
                for ste in stes
                if ste.reporting and ste.ste_id in matched
            )
            pending = set().union(*(successors[ste_id] for ste_id in matched))
            offset += 1
        checkpoints.append(Checkpoint(offset, vector(pending), sod))
    return b"".join(matched_rows), b"".join(enabled_rows), checkpoints, reports


def lone_state_machine():
    """One all-input reporting state on ``a`` and no edge: a kernel with
    no bit offsets at all."""
    automaton = HomogeneousAutomaton("chains")
    automaton.add_ste(
        "c0s0", SymbolSet(b"a"), start=StartKind.ALL_INPUT, reporting=True
    )
    return automaton, {"c0s0": 0}


class Drawn:
    """Stands in for ``st.data()`` in an explicit example: its draws
    return ``values``, in order."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy, label=None):
        return self.values.pop(0)


class TestShiftStep:
    """A kernel stepped by shifts, or pinned to the step cache, against
    :func:`interpret` — the golden simulator drives the same
    ``run_chunk``, so it cannot be the oracle here."""

    @given(
        st.one_of(factored_machines(), chain_machines(), bounded_machines()),
        st.lists(st.sampled_from(SHIFT_ALPHABET), max_size=160).map(bytes),
        st.lists(st.integers(0, 160), max_size=4),
        st.data(),
    )
    # Resumed with the state's bit set: the first cycle is not idle.
    @example(lone_state_machine(), b"a", [], Drawn(True, {0}, 0, False))
    @settings(max_examples=60, deadline=None)
    def test_shifts_and_tables_are_the_interpreter(self, machine, data, cuts, draw):
        automaton, bit_of = machine
        cuts = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})
        pieces = [data[low:high] for low, high in zip(cuts, cuts[1:])] or [b""]
        resume = None
        if draw.draw(st.booleans(), label="resumed"):
            active = draw.draw(st.sets(st.sampled_from(sorted(bit_of.values()))))
            resume = Checkpoint(
                draw.draw(st.integers(0, 99)),
                sum(1 << bit for bit in active),
                draw.draw(st.booleans()),
            )
        expected = interpret(automaton, bit_of, pieces, resume)
        assert len(expected[0]) == len(data) * N_WORDS * 8
        for offsets in (0, 10**9):
            with mock.patch.object(kernel_module, "SHIFT_OFFSETS", offsets):
                kernel = BitsetKernel.from_automaton(automaton, bit_of, N_WORDS * 64)
                got = scan_in_pieces(kernel, automaton, bit_of, pieces, resume)
            assert got == expected, offsets
            if offsets:
                assert kernel._shifts != (), "took the step cache"
            else:
                assert kernel.cache_info()["shift"] == {"offsets": 0, "cycles": 0}

    @given(st.one_of(chain_machines(), bounded_machines()), st.data())
    @settings(max_examples=30, deadline=None)
    def test_the_tables_reenter_after_the_machine_idles(self, machine, draw):
        """Bursts that each wake the machine, each followed by a gap of a
        byte no label but ``.`` holds (``x.{k}y`` dies within ``k + 1``
        of them): within one chunk the tables go idle at a block's end
        and come back through ``split`` once a burst."""
        automaton, bit_of = machine
        sources = {source for source, _ in automaton.edges_unordered()}
        wakers = sorted(
            byte
            for byte in SHIFT_ALPHABET
            for ste in automaton.stes()
            if ste.start is StartKind.ALL_INPUT
            and ste.ste_id in sources
            and ste.matches(byte)
        )
        assume(wakers)
        bursts = draw.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(wakers),
                    st.lists(st.sampled_from(SHIFT_ALPHABET), max_size=24).map(bytes),
                ).map(lambda burst: bytes([burst[0]]) + burst[1]),
                min_size=2,
                max_size=6,
            ),
            label="bursts",
        )
        data = b"".join(burst + b"z" * 40 for burst in bursts)
        expected = interpret(automaton, bit_of, [data], None)
        entered = []
        run_components = BitsetKernel._run_components

        def counted(kernel, *args):
            entered.append(args[3])
            return run_components(kernel, *args)

        with mock.patch.multiple(
            kernel_module, SHIFT_OFFSETS=0, COMPONENT_BLOCK=8
        ), mock.patch.object(BitsetKernel, "_run_components", counted):
            kernel = BitsetKernel.from_automaton(automaton, bit_of, N_WORDS * 64)
            got = scan_in_pieces(kernel, automaton, bit_of, [data])
        assert got == expected
        assert len(entered) >= len(bursts), entered


#: Corruption name -> (packed table, edit), the edit a fresh array.
CORRUPT_EDGE_LISTS = {
    "int32-offsets": ("succ_indptr", lambda a: a.astype(np.int32)),
    "int64-heads": ("succ_heads", lambda a: a.astype(np.int64)),
    "one-offset-short": ("succ_indptr", lambda a: a[:-1]),
    "2d-heads": ("succ_heads", lambda a: a.reshape(1, -1)),
    "not-from-zero": ("succ_indptr", lambda a: a + 1),
    "decreasing": (
        "succ_indptr",
        lambda a: np.concatenate([a[:50], [a[51] + 1], a[51:]]),
    ),
    "short-of-the-heads": ("succ_indptr", lambda a: np.append(a[:-1], a[-1] - 1)),
    "negative-head": ("succ_heads", lambda a: np.append(np.int32(-1), a[1:])),
    "head-past-the-vector": (
        "succ_heads",
        lambda a: np.append(a[:-1], np.int32(N_BITS)),
    ),
}


class TestEdgeListValidation:
    """``from_packed`` reads cache input: every way the edge list can be
    wrong is a :class:`SimulationError`, never a wrong scan."""

    @pytest.mark.parametrize(
        "name, edit", CORRUPT_EDGE_LISTS.values(), ids=list(CORRUPT_EDGE_LISTS)
    )
    def test_a_corrupt_edge_list_is_refused(self, name, edit):
        tables = dict(make_kernel(seed=5).packed_tables())
        tables[name] = edit(tables[name])
        with pytest.raises(SimulationError, match="corrupt kernel tables"):
            BitsetKernel.from_packed(tables)

    @pytest.mark.parametrize("name", ["succ_indptr", "succ_heads"])
    def test_a_missing_half_is_refused(self, name):
        tables = dict(make_kernel(seed=5).packed_tables())
        del tables[name]
        with pytest.raises(SimulationError, match=f"missing '{name}'"):
            BitsetKernel.from_packed(tables)


class TestPropagation:
    def brute_force(self, successors, pattern):
        combined = 0
        for bit in range(N_BITS):
            if (pattern >> bit) & 1:
                combined |= successors[bit]
        return combined

    @given(st.integers(min_value=0, max_value=(1 << N_BITS) - 1))
    @settings(max_examples=40, deadline=None)
    def test_dense_matches_brute_force(self, pattern):
        successors, _, _ = random_tables(7)
        kernel = make_kernel(seed=7)
        row, nonzero = kernel.propagate(kernel.pack(pattern))
        expected = self.brute_force(successors, pattern)
        assert kernel.unpack(row) == expected
        assert nonzero == (expected != 0)

    @pytest.mark.parametrize("width", (1, 64, 65, N_BITS))
    def test_wide_and_narrow_rows_reach_the_same_successors(self, width):
        """Up to ``PROPAGATE_SCATTER_BITS`` (64) set bits a row ORs one
        successor int a bit; past it, it scatters its edges' heads in
        numpy.  Both are the brute force, on a table where each bit has
        its own successor, so that a bit either path drops shows."""
        assert kernel_module.PROPAGATE_SCATTER_BITS == 64
        successors = [1 << (bit * 7 + 3) % N_BITS for bit in range(N_BITS)]
        match_table = [0] * 256
        bits = random.Random(width).sample(range(N_BITS), width)
        pattern = sum(1 << bit for bit in bits)
        expected = self.brute_force(successors, pattern)
        kernel = BitsetKernel(
            N_BITS, edges_of(successors), match_table, 0, 0, 0
        )
        scatter = mock.patch.object(
            BitsetKernel, "_scatter", autospec=True, side_effect=BitsetKernel._scatter
        )
        with scatter as scattered:
            assert kernel.propagate_int(pattern) == expected
        assert scattered.called == (width > 64)
        assert kernel.cache_info()["propagate"]["misses"] == 1

    def test_the_edge_list_drops_duplicates_and_keeps_tail_order(self):
        kernel = BitsetKernel(
            N_BITS, ([5, 2, 5, 2, 99], [7, 3, 7, 1, 0]), [0] * 256, 0, 0, 0
        )
        tail, head = kernel.edges()
        assert list(zip(tail.tolist(), head.tolist())) == [
            (2, 1), (2, 3), (5, 7), (99, 0),
        ]
        assert kernel.succ_indptr.dtype == np.int64
        assert kernel.succ_heads.dtype == np.int32
        with pytest.raises(SimulationError, match="leaves the 100-bit"):
            BitsetKernel(N_BITS, ([0], [N_BITS]), [0] * 256, 0, 0, 0)

    def test_propagate_result_is_cached_and_readonly(self):
        kernel = make_kernel(seed=11)
        row_a, nonzero_a = kernel.propagate(kernel.pack(0b101))
        first = kernel.cache_info()["propagate"]
        row_b, nonzero_b = kernel.propagate(kernel.pack(0b101))
        second = kernel.cache_info()["propagate"]
        assert row_a.tobytes() == row_b.tobytes()
        assert nonzero_a == nonzero_b
        assert (first["hits"], first["misses"], first["size"]) == (0, 1, 1)
        assert (second["hits"], second["misses"], second["size"]) == (1, 1, 1)
        for row in (row_a, row_b):
            with pytest.raises(ValueError):
                row[0] = 1


class TestIdleFastPath:
    def test_idle_skip_equals_stepped_run(self):
        """A mostly-idle stream must produce the same matched history as
        symbol-at-a-time stepping (no-skip reference: sod forces the slow
        path, so a resumed run from an active vector exercises both)."""
        machine = compile_patterns(["needle"])
        simulator = GoldenSimulator(machine)
        data = b"x" * 3000 + b"needle" + b"y" * 3000 + b"needle"
        result = simulator.run(data, collect_cycle_stats=True)
        assert result.report_offsets() == [3005, 6011]
        # Idle background cycles still matched the all-input start state
        # whenever the symbol hit its label; cross-check the per-cycle
        # counts against a brute-force count of label hits.
        assert len(result.stats.matched_per_cycle) == len(data)
        assert (
            sum(result.stats.matched_per_cycle)
            == result.stats.total_matched_states
        )

    def test_all_sod_machine_goes_fully_idle(self):
        machine = compile_patterns(["^abc"])
        simulator = GoldenSimulator(machine)
        result = simulator.run(b"abc" + b"z" * 5000 + b"abc")
        assert result.report_offsets() == [2]

    def test_escape_rearms_after_active_burst(self):
        machine = compile_patterns(["ab"])
        simulator = GoldenSimulator(machine)
        data = (b"a" + b"z" * 997) * 4 + b"ab"
        result = simulator.run(data)
        assert result.report_offsets() == [len(data) - 1]


WORKLOAD_NAMES = ["Bro217", "ExactMatch", "PowerEN", "Levenshtein"]


@pytest.fixture(scope="module")
def workloads():
    """Scaled-down suite entries: (automaton, mapping, input stream)."""
    by_name = {
        benchmark.name: benchmark for benchmark in build_suite(scale=0.25)
    }
    cases = []
    for name in WORKLOAD_NAMES:
        benchmark = by_name[name]
        automaton = benchmark.build()
        mapping = compile_automaton(automaton, CA_P)
        data = benchmark.input_stream(240, seed=3)
        cases.append((name, automaton, mapping, data))
    return cases


def profile_tuple(profile):
    return (
        profile.symbols,
        profile.partition_activations,
        profile.g1_crossings,
        profile.g4_crossings,
        profile.g1_switch_activations,
        profile.g4_switch_activations,
        profile.reports,
    )


def reports_of(result):
    return [(r.offset, r.ste_id, r.report_code) for r in result.reports]


class TestChunkBoundaryContract:
    """Satellite: resuming at every split offset == one single-shot run."""

    def test_golden_every_offset(self, workloads):
        for name, automaton, _, data in workloads:
            simulator = GoldenSimulator(automaton)
            full = simulator.run(data, collect_cycle_stats=True)
            for split in range(len(data) + 1):
                first = simulator.run(data[:split], collect_cycle_stats=True)
                second = simulator.run(
                    data[split:], collect_cycle_stats=True,
                    resume=first.checkpoint,
                )
                assert reports_of(first) + reports_of(second) == reports_of(
                    full
                ), (name, split)
                assert (
                    first.stats.matched_per_cycle
                    + second.stats.matched_per_cycle
                    == full.stats.matched_per_cycle
                ), (name, split)
                assert second.checkpoint == full.checkpoint, (name, split)

    def test_mapped_every_offset(self, workloads):
        for name, _, mapping, data in workloads:
            simulator = MappedSimulator(mapping)
            full = simulator.run(data, collect_partition_stats=True)
            for split in range(len(data) + 1):
                first = simulator.run(
                    data[:split], collect_partition_stats=True
                )
                second = simulator.run(
                    data[split:], collect_partition_stats=True,
                    resume=first.checkpoint,
                )
                assert reports_of(first) + reports_of(second) == reports_of(
                    full
                ), (name, split)
                merged = first.profile.merged_with(second.profile)
                assert profile_tuple(merged) == profile_tuple(full.profile), (
                    name, split,
                )
                assert (
                    first.partition_activation_counts
                    + second.partition_activation_counts
                    == full.partition_activation_counts
                ).all(), (name, split)
                assert second.checkpoint == full.checkpoint, (name, split)

    def test_split_across_kernel_chunks(self):
        """Splits near the kernel's internal chunk boundary are exact."""
        from repro.sim.kernel import CHUNK_SYMBOLS

        machine = compile_patterns(["abab", "ba+b"])
        simulator = GoldenSimulator(machine)
        rng = random.Random(5)
        data = bytes(rng.choice(b"ab") for _ in range(CHUNK_SYMBOLS + 64))
        full = simulator.run(data)
        for split in (CHUNK_SYMBOLS - 1, CHUNK_SYMBOLS, CHUNK_SYMBOLS + 1):
            first = simulator.run(data[:split])
            second = simulator.run(data[split:], resume=first.checkpoint)
            assert reports_of(first) + reports_of(second) == reports_of(full)

    @given(st.binary(max_size=80), st.integers(min_value=0, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_property_any_split(self, data, split):
        machine = compile_patterns(["ab", "b+c", "^x"])
        simulator = GoldenSimulator(machine)
        split = min(split, len(data))
        full = simulator.run(data)
        first = simulator.run(data[:split])
        second = simulator.run(data[split:], resume=first.checkpoint)
        assert reports_of(first) + reports_of(second) == reports_of(full)


class TestMultiStream:
    def test_run_many_equals_individual_runs(self, workloads):
        for name, _, mapping, _ in workloads:
            simulator = MappedSimulator(mapping)
            by_name = {
                benchmark.name: benchmark
                for benchmark in build_suite(scale=0.25)
            }
            streams = [
                by_name[name].input_stream(300, seed=seed)
                for seed in range(4)
            ] + [b""]
            batched = simulator.run_many(
                streams, collect_partition_stats=True, collect_records=True,
                collect_cycle_stats=True,
            )
            for stream, result in zip(streams, batched):
                solo = simulator.run(
                    stream, collect_partition_stats=True,
                    collect_records=True, collect_cycle_stats=True,
                )
                assert reports_of(result) == reports_of(solo), name
                assert result.stats == solo.stats, name
                assert profile_tuple(result.profile) == profile_tuple(
                    solo.profile
                ), name
                assert (
                    result.partition_activation_counts
                    == solo.partition_activation_counts
                ).all(), name
                assert result.output_records == solo.output_records, name
                assert result.checkpoint == solo.checkpoint, name
                assert result.output_buffer == solo.output_buffer, name

    def test_run_many_resumed_chunks_equal_single_shot(self, workloads):
        name, _, mapping, data = workloads[2]  # PowerEN
        simulator = MappedSimulator(mapping)
        full = simulator.run(data)
        # Feed three streams in unequal chunks through resumed batches.
        streams = [data, data[:150], data[50:]]
        cursors = [0] * len(streams)
        checkpoints = [None] * len(streams)
        collected = [[] for _ in streams]
        rng = random.Random(9)
        while any(cursor < len(s) for cursor, s in zip(cursors, streams)):
            chunks = []
            for index, stream in enumerate(streams):
                step = rng.choice([0, 7, 33, 80])
                chunks.append(stream[cursors[index] : cursors[index] + step])
                cursors[index] = min(cursors[index] + step, len(stream))
            results = simulator.run_many(chunks, resumes=checkpoints)
            checkpoints = [result.checkpoint for result in results]
            for index, result in enumerate(results):
                collected[index].extend(reports_of(result))
        assert collected[0] == reports_of(full)
        solo_b = simulator.run(streams[1])
        assert collected[1] == reports_of(solo_b)

    def test_run_many_checkpoint_mismatch(self):
        machine = compile_patterns(["a"])
        simulator = MappedSimulator(compile_automaton(machine, CA_P))
        with pytest.raises(SimulationError):
            simulator.run_many([b"a", b"b"], resumes=[None])

    def test_run_many_empty(self):
        machine = compile_patterns(["a"])
        simulator = MappedSimulator(compile_automaton(machine, CA_P))
        assert simulator.run_many([]) == []


class TestInputValidation:
    """Satellite: both simulators reject bad input identically."""

    @pytest.mark.parametrize("bad", ["text", 17, None, [1, 2]])
    def test_identical_errors(self, bad):
        machine = compile_patterns(["a"])
        golden = GoldenSimulator(machine)
        mapped = MappedSimulator(compile_automaton(machine, CA_P))
        with pytest.raises(SimulationError) as golden_error:
            golden.run(bad)
        with pytest.raises(SimulationError) as mapped_error:
            mapped.run(bad)
        assert str(golden_error.value) == str(mapped_error.value)
        assert "bytes-like" in str(golden_error.value)

    def test_run_many_validates_every_stream(self):
        machine = compile_patterns(["a"])
        simulator = MappedSimulator(compile_automaton(machine, CA_P))
        with pytest.raises(SimulationError):
            simulator.run_many([b"ok", "bad"])

    def test_bytearray_and_memoryview_accepted(self):
        machine = compile_patterns(["ab"])
        golden = GoldenSimulator(machine)
        assert golden.run(bytearray(b"ab")).report_offsets() == [1]
        assert golden.run(memoryview(b"ab")).report_offsets() == [1]
        assert as_symbols(b"ab").tolist() == [97, 98]
