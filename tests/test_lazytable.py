"""The lazy-determinisation table (:mod:`repro.sim.lazytable`).

One contract family for the three users of :class:`LazyTable` — the
lazy DFA at stride 1, the lazy DFA at stride 2 and the SFA mapping
kernel: the bounded budget flushes mid-scan without changing results,
record ids survive flushes, ``export_tables -> seed`` warms a fresh
kernel and merges correctly into a warm one whose ids differ, seeding
respects the budget, and ``cache_info()`` keeps its keys.  Then the
record of learned transitions against the rows it was read from, the
table itself, and a source scan that keeps the mechanism in one place.
"""

import gc
import io
import random
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import repro.sim
from repro.backends import create_backend
from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.core.design import CA_P
from repro.regex.compile import compile_patterns
from repro.workloads.suite import get_benchmark
from repro.sim.lazydfa import LazyDfaKernel
from repro.sim.lazytable import CHECKED_STRETCH, LazyTable
from repro.sim.split import SfaKernel

#: Overlapping wildcard patterns over {a,b,c,d}: ~190 DFA states, ~190
#: SFA states and a report event every ~18 bytes on the stream below —
#: enough to overflow the 64-state floor many times in 6000 bytes.
PATTERNS = [
    "aac[cd]b", "[cd][ab][cd]cc.b", "a.[ab]bd[ab]d", "[cd].c.d.c",
    "[cd]acdc", "d.b.bb", "abcbb", ".c.[ab].bd", "[ab].[cd]c[cd].",
    "c[cd]db[cd]d",
]
FLOOR = 64

_DFA_KEYS = {
    "states", "max_states", "hits", "misses", "flushes", "events",
    "stride", "stride_requested", "stride_classes", "tail_steps",
}
_SFA_KEYS = {
    "states", "rows", "max_states", "hits", "misses", "flushes",
    "effects", "slot_limit",
}


@pytest.fixture(scope="module")
def artifact():
    machine = compile_patterns(PATTERNS, report_codes=PATTERNS)
    return CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))


@pytest.fixture(scope="module")
def kernel(artifact):
    return create_backend("lazy-dfa", artifact).simulator.kernel


@pytest.fixture(scope="module")
def data():
    rng = random.Random(5)
    return bytes(rng.choice(b"abcd") for _ in range(6000))


@pytest.fixture(scope="module")
def symbols(data):
    return np.frombuffer(data, dtype=np.uint8)


class _Dfa:
    """Lazy DFA at one stride, behind the two calls the family needs."""

    cache_keys = _DFA_KEYS

    def __init__(self, stride):
        self.stride = stride

    def make(self, kernel, **options):
        return LazyDfaKernel(kernel, stride=self.stride, **options)

    def run(self, user, kernel, symbols):
        """A scan from the initial cursor with event ids resolved, so
        results of kernels that number their events differently compare."""
        events, total, final, sod = user.scan(
            symbols, prev=kernel.pack(0), sod=kernel.has_sod
        )
        resolved = [(offset,) + user.event(eid) for offset, eid in events]
        return resolved, total, final.tobytes(), sod


class _Sfa:
    cache_keys = _SFA_KEYS

    def make(self, kernel, **options):
        return SfaKernel(kernel, **options)

    def run(self, user, kernel, symbols):
        mapping = dict(user.scan_mapping(symbols))
        mapping["group_of_bit"] = mapping["group_of_bit"].tobytes()
        return mapping


KINDS = [
    pytest.param(_Dfa(1), id="dfa-stride1"),
    pytest.param(_Dfa(2), id="dfa-stride2"),
    pytest.param(_Sfa(), id="sfa"),
]


@pytest.mark.parametrize("kind", KINDS)
class TestTableUsers:
    def test_floor_budget_flushes_mid_scan_bit_identically(
        self, kind, kernel, symbols
    ):
        lavish = kind.make(kernel)
        tight = kind.make(kernel, max_states=FLOOR)
        assert kind.run(tight, kernel, symbols) == kind.run(
            lavish, kernel, symbols
        )
        assert lavish.cache_info()["flushes"] == 0
        info = tight.cache_info()
        assert info["flushes"] > 0
        assert info["states"] <= FLOOR + 1  # + the scan's entry state
        # The thrashing cache still agrees on a second pass.
        assert kind.run(tight, kernel, symbols) == kind.run(
            lavish, kernel, symbols
        )

    def test_record_ids_survive_a_flush(self, kind, kernel, symbols):
        tight = kind.make(kernel, max_states=FLOOR)
        records = tight._table.records.values
        half = len(symbols) // 2
        kind.run(tight, kernel, symbols[:half])
        before = list(records)
        flushes = tight.cache_info()["flushes"]
        assert before, "the workload recorded nothing"
        kind.run(tight, kernel, symbols[half:])
        assert tight.cache_info()["flushes"] > flushes
        assert records[: len(before)] == before

    def test_export_seed_into_fresh_kernel_cuts_misses(
        self, kind, kernel, symbols
    ):
        warm = kind.make(kernel)
        expected = kind.run(warm, kernel, symbols)
        cold = kind.make(kernel)
        cold.seed(warm.export_tables())
        assert cold.cache_info()["states"] == warm.cache_info()["states"]
        assert kind.run(cold, kernel, symbols) == expected
        # Only transitions that carry a record re-miss.
        assert cold.cache_info()["misses"] < warm.cache_info()["misses"] / 4
        assert cold.cache_info()["hits"] > 0

    def test_seed_into_warm_kernel_with_other_ids_equals_fresh(
        self, kind, kernel, symbols
    ):
        """The two kernels met their states in different orders, so the
        same id names different states in each; a seed that trusts the
        source's numbering wires transitions to the wrong successors."""
        expected = kind.run(kind.make(kernel), kernel, symbols)
        source = kind.make(kernel)
        kind.run(source, kernel, symbols[3000:])
        warm = kind.make(kernel)
        kind.run(warm, kernel, symbols[:1000])
        states_before = warm.cache_info()["states"]
        misses_before = warm.cache_info()["misses"]
        warm.seed(source.export_tables())
        assert warm.cache_info()["states"] > states_before
        assert kind.run(warm, kernel, symbols) == expected
        # ... and it did merge: far fewer misses than a scan from cold.
        cold_misses = kind.make(kernel)
        kind.run(cold_misses, kernel, symbols)
        assert (
            warm.cache_info()["misses"] - misses_before
            < cold_misses.cache_info()["misses"] / 2
        )

    def test_seed_over_budget_stops_at_max_states(
        self, kind, kernel, symbols
    ):
        lavish = kind.make(kernel)
        expected = kind.run(lavish, kernel, symbols)
        assert lavish.cache_info()["states"] > 2 * FLOOR
        tight = kind.make(kernel, max_states=FLOOR)
        tight.seed(lavish.export_tables())
        assert 0 < tight.cache_info()["states"] <= FLOOR
        assert tight.cache_info()["flushes"] == 0
        assert kind.run(tight, kernel, symbols) == expected

    def test_cache_info_keys(self, kind, kernel, symbols):
        user = kind.make(kernel)
        assert set(user.cache_info()) == kind.cache_keys
        kind.run(user, kernel, symbols[:500])
        assert set(user.cache_info()) == kind.cache_keys


def test_split_master_stays_under_budget_and_bit_identical(
    artifact, kernel, data, symbols
):
    """The split master only ever exports and seeds (workers do all the
    mapping), so seeding is the one place its budget can be enforced."""
    lavish = SfaKernel(kernel)
    lavish.scan_mapping(symbols)
    assert lavish.cache_info()["states"] > FLOOR
    serial = create_backend("lazy-dfa", artifact).scan(data)
    backend = create_backend(
        "lazy-dfa", artifact, split_jobs=2, split_min_chunk=8
    )
    backend._sfa = SfaKernel(kernel, max_states=FLOOR)
    backend._sfa.seed(lavish.export_tables())
    assert backend._sfa.cache_info()["states"] <= FLOOR
    for _ in range(2):  # each join folds the workers' tables back in
        split = backend.scan(data)
        assert backend.worker_cache_info()["workers"] > 0
        assert [
            (r.offset, r.ste_id, r.report_code) for r in split.reports
        ] == [(r.offset, r.ste_id, r.report_code) for r in serial.reports]
        assert split.checkpoint == serial.checkpoint
        assert backend._sfa.cache_info()["states"] <= FLOOR


@pytest.mark.parametrize(
    "spoil",
    [
        lambda rows: rows[:, :-1],
        lambda rows: np.hstack([rows, rows[:, :1]]),
        lambda rows: rows[:-1],
        lambda rows: rows.view(np.int64),
    ],
    ids=["narrow", "wide", "short", "signed"],
)
def test_seed_rejects_rows_that_are_not_this_kernels_states(
    kernel, symbols, spoil
):
    """With int keys a row of another width would intern as a state of
    its own; ``seed`` says so instead."""
    warm = LazyDfaKernel(kernel)
    warm.scan(symbols[:500], prev=kernel.pack(0), sod=kernel.has_sod)
    tables = warm.export_tables()
    cold = LazyDfaKernel(kernel)
    # A short table is refused by the record's range check: some
    # learned cell names the state it lost.
    with pytest.raises(ValueError, match="seed|adopt"):
        cold.seed(dict(tables, dfa_rows=spoil(tables["dfa_rows"])))
    assert cold.cache_info()["states"] == 0


# -- the record against the rows ----------------------------------------------


def _silent_cells(table):
    """``{(state key, column): successor key}`` read off the rows alone,
    sharing nothing with the record: a cell that is a row is silent."""
    keys, width = table.keys, table.width
    return {
        (keys[sid], column): keys[cell[width]]
        for sid, row in enumerate(table.enc_rows)
        for column, cell in enumerate(row[:width])
        if cell.__class__ is list
    }


def _fresh_like(table, max_states=None):
    return LazyTable(
        table.width,
        table.max_states if max_states is None else max_states,
        table._decode,
    )


#: The determinisation-friendly suite rulesets, each scanned cold for
#: 256 KiB on the lazy DFA.
FRIENDLY = ["Snort", "ExactMatch", "Ranges1", "Bro217", "PowerEN"]


@pytest.fixture(scope="module", params=FRIENDLY + ["flushed"])
def learned(request, kernel, symbols):
    """A table that learned from a scan, its rows and its record; the
    ``flushed`` one went through many flushes, so its record holds only
    what it learned since the last."""
    if request.param == "flushed":
        dfa = LazyDfaKernel(kernel, max_states=FLOOR)
        dfa.scan(symbols, prev=kernel.pack(0), sod=kernel.has_sod)
        assert dfa.cache_info()["flushes"] > 0
        return dfa._table
    bench = get_benchmark(request.param)
    backend = create_backend(
        "lazy-dfa",
        CompiledArtifact.from_mapping(compile_automaton(bench.build(), CA_P)),
    )
    backend.scan(bench.input_stream(256 * 1024, seed=7))
    assert backend.dfa.cache_info()["flushes"] == 0
    return backend.dfa._table


class TestRecordOracle:
    """Whatever the record holds, a table that adopts it must end with
    the source's silent cells exactly — as its rows say, not as its
    record says."""

    def test_a_fresh_table_adopts_exactly_the_silent_cells(self, learned):
        expected = _silent_cells(learned)
        assert expected
        fresh = _fresh_like(learned)
        fresh.adopt(*learned.publish())
        assert fresh.keys == learned.keys
        assert _silent_cells(fresh) == expected
        assert fresh.transitions == len(expected)
        # Its record is the source's, so a second generation is the same.
        again = _fresh_like(learned)
        again.adopt(*fresh.publish())
        assert _silent_cells(again) == expected

    def test_warm_into_warm_records_each_gained_cell_once(self, learned):
        published = learned.publish()
        keys, sources, columns, targets = published
        # The later half of the record, under ids numbered backwards.
        last, half = len(keys) - 1, len(sources) // 2
        warm = _fresh_like(learned)
        warm.adopt(
            keys[::-1],
            last - sources[half:],
            columns[half:],
            last - targets[half:],
        )
        assert warm.keys == keys[::-1]
        before = _silent_cells(warm)
        transitions = warm.transitions
        warm.adopt(*published)
        after = _silent_cells(warm)
        assert after == _silent_cells(learned)
        gained = len(after) - len(before)
        assert warm.transitions - transitions == gained
        _, *record = warm.publish()
        cells = [(warm.keys[s], c) for s, c, _ in _cells(record)]
        assert len(cells) == len(set(cells)) == len(after)
        # Offered again, nothing is gained or recorded.
        warm.adopt(*published)
        assert warm.transitions - transitions == gained
        assert len(warm.publish()[1]) == len(after)

    def test_a_budget_cut_drops_the_cells_into_states_left_out(self, learned):
        budget = len(learned.keys) // 2
        cut = _fresh_like(learned, max_states=budget)
        cut.adopt(*learned.publish())
        kept = set(learned.keys[:budget])
        assert cut.keys == learned.keys[:budget]
        silent = _silent_cells(learned)
        inside = {
            cell: target
            for cell, target in silent.items()
            if cell[0] in kept and target in kept
        }
        assert 0 < len(inside) < len(silent)
        assert _silent_cells(cut) == inside


class TestLazyTable:
    def test_fill_returns_the_reinterned_sid(self):
        table = LazyTable(4, 3, str.upper)
        enc_rows = table.enc_rows
        a = table.intern("a")
        sid, cell = table.fill(a, 0, "b")
        assert sid == 0 and cell is enc_rows[1]
        sid, cell = table.fill(1, 1, "c")
        assert sid == 1 and cell is enc_rows[2]
        # Budget reached: everything goes, "c" comes back as state 0.
        sid, cell = table.fill(2, 3, "d")
        assert sid == 0 and cell is enc_rows[1]
        assert table.keys == ["c", "d"]
        assert table.states == ["C", "D"]  # decoded once, at interning
        assert table.enc_rows is enc_rows, "flush must clear in place"
        assert enc_rows[0][3] is enc_rows[1]
        assert enc_rows[0][:3] + enc_rows[0][4:] == [~0, ~0, ~0, 0]
        assert enc_rows[1] == [~1] * 4 + [1]
        table.lookups += 3  # what a walk adds before it indexes
        assert table.counters() == {
            "states": 2, "max_states": 3, "hits": 0, "misses": 3,
            "flushes": 1,
        }

    def test_silent_and_recorded_encodings(self):
        table = LazyTable(2, 8, str.upper)
        a = table.intern("a")
        sid, cell = table.fill(a, 0, "b")
        assert sid == a and cell is table.enc_rows[1]  # the row itself
        _, enc = table.fill(a, 1, "c", record=("payload", 7))
        assert enc == (1 << 32) | 2
        assert table.enc_rows[a][1] == enc
        assert table.records.values == [("payload", 7)]
        # The same record again reuses its id; a new one gets the next.
        assert table.fill(1, 0, "a", record=("payload", 7))[1] == (1 << 32) | 0
        assert table.fill(1, 1, "a", record="other")[1] == (2 << 32) | 0
        # A missing cell is ~sid, and slot ``width`` is the row's own id.
        assert table.enc_rows[2] == [~2, ~2, 2]
        assert [row[table.width] for row in table.enc_rows] == [0, 1, 2]

    def test_published_table_omits_recorded_transitions(self):
        table = LazyTable(2, 8, str.upper)
        a = table.intern("a")
        table.fill(a, 0, "b")
        table.fill(a, 1, "c", record="r")
        table.fill(1, 1, "a")
        keys, *record = table.publish()
        assert keys == ["a", "b", "c"]
        assert [part.dtype for part in record] == [np.int32] * 3
        assert _cells(record) == [(0, 0, 1), (1, 1, 0)]

    def test_a_flush_empties_the_record(self):
        table = LazyTable(2, 2, str.upper)
        table.fill(table.intern("a"), 0, "b")
        table.fill(1, 1, "c")  # budget reached: "b" comes back as 0
        keys, *record = table.publish()
        assert keys == ["b", "c"] and _cells(record) == [(0, 1, 1)]

    def test_adopt_remaps_ids_and_keeps_what_is_there(self):
        source = LazyTable(2, 8, str.upper)
        source.fill(source.intern("x"), 0, "y")
        source.fill(1, 1, "x")
        target = LazyTable(2, 8, str.upper)
        y = target.intern("y")
        target.fill(y, 0, "z", record="r")
        target.adopt(*source.publish())
        x = target.intern("x")
        assert (y, x) == (0, 2)
        rows = target.enc_rows
        assert rows[x][0] is rows[y]
        assert rows[x][1:] == [~x, x]
        assert rows[y][0] == (1 << 32) | 1
        assert rows[y][1] is rows[x]
        # The gained cells, in the source's fill order, under local ids.
        assert _cells(target.publish()[1:]) == [(x, 0, y), (y, 1, x)]

    def test_adopt_into_an_empty_table_keeps_the_source_ids(self):
        """A fresh table takes the keys in order, so its record is the
        source's and every silent cell is the successor's own row; under
        a budget of two, the third state and the edge into it are left
        out."""
        source = LazyTable(2, 8, str.upper)
        source.fill(source.intern("x"), 0, "y")
        source.fill(1, 1, "x")
        source.fill(1, 0, "z")
        source.fill(0, 1, "x", record="r")
        keys, *record = source.publish()
        whole = LazyTable(2, 8, str.upper)
        whole.adopt(keys, *record)
        assert whole.keys == keys and whole.states == ["X", "Y", "Z"]
        assert _cells(whole.publish()[1:]) == _cells(record)
        rows = whole.enc_rows
        assert rows[0][0] is rows[1] and rows[1][1] is rows[0]
        assert rows[1][0] is rows[2] and rows[0][1] == ~0
        assert whole.transitions == 3
        # Offered again, the table gains nothing and records nothing.
        whole.adopt(keys, *record)
        assert whole.keys == keys and whole.transitions == 3
        assert _cells(whole.publish()[1:]) == _cells(record)
        cut = LazyTable(2, 2, str.upper)
        cut.adopt(keys, *record)
        assert cut.keys == ["x", "y"]
        assert _cells(cut.publish()[1:]) == [(0, 0, 1), (1, 1, 0)]
        assert cut.transitions == 2

    def test_adopt_rejects_a_repeated_key_into_an_empty_table(self):
        table = LazyTable(2, 8, str.upper)
        with pytest.raises(ValueError, match="repeats"):
            table.adopt(["a", "a"], *_record([(0, 0, 1)]))
        assert table.keys == []

    def test_adopt_rejects_a_table_of_another_shape(self):
        """A record learned at a wider width has columns past this one."""
        table = LazyTable(4, 8, str.upper)
        with pytest.raises(ValueError, match="adopt: columns"):
            table.adopt(["a", "b"], *_record([(0, 4, 1)]))
        assert table.keys == []

    def test_adopt_rejects_ragged_record_arrays(self):
        table = LazyTable(2, 8, str.upper)
        sources, columns, targets = _record([(0, 0, 1), (1, 1, 0)])
        for ragged in (
            (sources[:1], columns, targets),
            (sources, columns, targets[:1]),
            tuple(part.reshape(2, 1) for part in (sources, columns, targets)),
            (sources, columns.astype(np.float64), targets),
        ):
            with pytest.raises(ValueError, match="adopt"):
                table.adopt(["a", "b"], *ragged)
        assert table.keys == []

    def test_adopt_rejects_a_successor_id_below_missing(self):
        """-1, which no record holds, would index the id map from its end
        and wire ``a -> b``."""
        table = LazyTable(2, 8, str.upper)
        with pytest.raises(ValueError, match="adopt"):
            table.adopt(["a", "b"], *_record([(0, 0, -1)]))
        with pytest.raises(ValueError, match="adopt"):
            table.adopt(["a", "b"], *_record([(-1, 0, 0)]))
        assert table.keys == []

    def test_adopt_rejects_a_successor_id_past_the_keys(self):
        table = LazyTable(2, 8, str.upper)
        with pytest.raises(ValueError, match="adopt"):
            table.adopt(["a", "b"], *_record([(0, 1, 2)]))
        with pytest.raises(ValueError, match="adopt"):
            table.adopt(["a", "b"], *_record([(2, 1, 0)]))
        assert table.keys == []

    # -- the walk's edges ------------------------------------------------------

    def test_record_on_the_last_column(self):
        toy = _Toy()
        columns = [1, 3]  # 1 -> 2 -> 0: the last step wraps
        assert toy.walk(columns) == _reference(columns)  # cold: a miss
        assert toy.walk(columns) == _reference(columns)  # warm: a cell

    @pytest.mark.parametrize("last", [1, 2], ids=["silent", "recorded"])
    def test_miss_on_the_last_column(self, last):
        toy = _Toy()
        toy.walk([1, 1])
        misses = toy.table.misses
        columns = [1, 1, last]
        assert toy.walk(columns) == _reference(columns)
        assert toy.table.misses == misses + 1
        assert toy.walk(columns) == _reference(columns)
        assert toy.table.misses == misses + 1

    def test_back_to_back_records_inside_and_past_the_checked_stretch(self):
        # From state 0, columns 0 and 5 wrap in place: a record a step.
        columns = (
            [4] + [0] * (CHECKED_STRETCH + 40) + [1] + [0] * 100 + [4]
            + [5, 0] * CHECKED_STRETCH + [2]
        )
        toy = _Toy()
        expected = _reference(columns)
        assert len(expected[1]) > 2 * CHECKED_STRETCH
        assert toy.walk(columns) == expected
        assert toy.walk(columns) == expected
        assert toy.walk(bytes(columns)) == expected  # what the kernels pass
        assert toy.walk(columns, start=3) == _reference(columns, start=3)

    def test_flush_from_inside_the_checked_stretch(self):
        rng = random.Random(11)
        columns = [rng.randrange(3) for _ in range(3000)]
        toy = _Toy(width=3, modulus=13)
        toy.table.max_states = 3  # past the kernels' floor, like theirs
        assert toy.walk(columns) == _reference(columns, modulus=13)
        assert toy.table.flushes > 100
        assert len(toy.table.keys) <= 4
        assert toy.walk(columns) == _reference(columns, modulus=13)

    def test_empty_columns(self):
        toy = _Toy()
        assert toy.walk([]) == (1, [])
        assert toy.walk([4, 0], start=2) == (1, [])
        assert toy.table.lookups == 0 and toy.table.misses == 0

    def test_flush_and_drop_empty_the_rows_without_the_collector(self):
        gc.disable()
        try:
            toy = _Toy(modulus=13)
            toy.walk([1] * 20)
            old_row = toy.table.enc_rows[5]
            assert old_row
            toy.table.max_states = 3
            toy.walk([2] * 20)
            assert toy.table.flushes and old_row == []
            live_row = toy.table.enc_rows[0]
            assert live_row
            del toy
            assert live_row == []
        finally:
            gc.enable()


def _record(cells):
    """``(source, column, target)`` triples as a record's three arrays."""
    return tuple(np.array(part, dtype=np.int32) for part in zip(*cells))


def _cells(record):
    """A record's three arrays as ``(source, column, target)`` triples."""
    return list(zip(*(part.tolist() for part in record)))


class _Toy:
    """A step function over the states ``0 .. modulus - 1``: column ``c``
    adds ``c``, and a step that lands on 0 carries the record
    ``("wrap", c)``."""

    def __init__(self, width=6, modulus=5):
        self.modulus = modulus
        self.table = LazyTable(width, 64, lambda key: key)

    def miss(self, sid, column):
        state = (self.table.states[sid] + column) % self.modulus
        record = ("wrap", column) if state == 0 else None
        return self.table.fill(sid, column, state, record)

    def walk(self, columns, start=0):
        table = self.table
        trail = []
        sid = table.walk(table.intern(1), columns, self.miss, trail, start)
        records = table.records.values
        return table.keys[sid], [
            (index, records[record_id])
            for index, record_id in table.recorded(trail)
        ]


def _reference(columns, modulus=5, start=0):
    state, met = 1, []
    for index in range(start, len(columns)):
        state = (state + columns[index]) % modulus
        if state == 0:
            met.append((index, ("wrap", columns[index])))
    return state, met


# -- guard --------------------------------------------------------------------


def _code_only(path: Path) -> str:
    """Source text with comments and string literals (docstrings) removed."""
    tokens = tokenize.generate_tokens(
        io.StringIO(path.read_text(encoding="utf-8")).readline
    )
    return " ".join(
        token.string
        for token in tokens
        if token.type not in (tokenize.COMMENT, tokenize.STRING)
    )


def _offenders(pattern: str):
    root = Path(repro.sim.__file__).parent
    return sorted(
        path.name
        for path in root.rglob("*.py")
        if re.search(pattern, _code_only(path))
    )


def test_flush_and_transition_encode_live_in_the_table_alone():
    """A fourth private transition cache fails here instead of in review:
    under ``sim/``, only the table (and the packed kernel's step cache,
    which chains list -> list with no ids to encode) may count a flush or
    pack a record id above bit 32, and only the table decodes one — a
    fourth inline copy of the walk would have to."""
    assert _offenders(r"flush\w*\s*\+=|<<\s*32\b") == [
        "kernel.py", "lazytable.py",
    ]
    assert _offenders(r">>\s*32\b|\b4294967295\b") == ["lazytable.py"]
