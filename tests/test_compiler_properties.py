"""Property-based tests: compiler invariants over random automata.

Hypothesis generates structurally diverse homogeneous automata (chains
with local extra edges, random small CC collections); for every routable
one the compiled mapping must satisfy the structural invariants the
simulators and bitstream generator rely on.
"""

import os
import random
import subprocess
import sys
from typing import List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.anml import HomogeneousAutomaton, StartKind, merge
from repro.automata.symbols import SymbolSet
from repro.compiler import Compiler, analyse, check
from repro.core.design import CA_P, CA_S
from repro.errors import CompileError
from repro.sim.functional import simulate_mapping
from repro.sim.golden import simulate
from tests.conftest import chain_automaton


@st.composite
def small_cc_collection(draw):
    """A union of several small literal-chain components."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    cc_count = draw(st.integers(min_value=1, max_value=12))
    parts = []
    for index in range(cc_count):
        length = rng.randint(1, 30)
        automaton = HomogeneousAutomaton(f"cc{index}")
        previous = None
        for position in range(length):
            low = rng.randrange(0, 250)
            automaton.add_ste(
                f"s{position}",
                SymbolSet.from_range(low, low + rng.randint(0, 5)),
                start=StartKind.ALL_INPUT if position == 0 else StartKind.NONE,
                reporting=position == length - 1,
            )
            if previous:
                automaton.add_edge(previous, f"s{position}")
            previous = f"s{position}"
        # a few extra local edges
        names = automaton.ste_ids()
        for _ in range(rng.randint(0, length // 3)):
            u, v = rng.choice(names), rng.choice(names)
            if u != v:
                automaton.add_edge(u, v)
        parts.append(automaton)
    return merge(parts)


class TestMappingInvariants:
    @given(small_cc_collection())
    @settings(max_examples=40, deadline=None)
    def test_every_ste_mapped_exactly_once(self, automaton):
        mapping = Compiler(CA_P).compile(automaton)
        seen = set()
        for partition in mapping.partitions:
            for ste_id in partition.ste_ids:
                assert ste_id not in seen
                seen.add(ste_id)
        assert seen == set(automaton.ste_ids())

    @given(small_cc_collection())
    @settings(max_examples=40, deadline=None)
    def test_location_index_consistent(self, automaton):
        mapping = Compiler(CA_P).compile(automaton)
        for ste_id, (partition_index, slot) in mapping.location.items():
            partition = mapping.partitions[partition_index]
            assert partition.index == partition_index
            assert partition.ste_ids[slot] == ste_id

    @given(small_cc_collection())
    @settings(max_examples=40, deadline=None)
    def test_partition_capacity_respected(self, automaton):
        mapping = Compiler(CA_P).compile(automaton)
        for partition in mapping.partitions:
            assert 0 < partition.occupancy <= CA_P.partition_size

    @given(small_cc_collection())
    @settings(max_examples=30, deadline=None)
    def test_small_ccs_never_cross_partitions(self, automaton):
        """CCs that fit in one partition are atomic mapping units."""
        from repro.automata.components import connected_components

        mapping = Compiler(CA_P).compile(automaton)
        for members in connected_components(automaton):
            if len(members) <= CA_P.partition_size:
                partitions = {mapping.partition_of(m) for m in members}
                assert len(partitions) == 1

    @given(small_cc_collection())
    @settings(max_examples=25, deadline=None)
    def test_constraints_hold_and_simulation_agrees(self, automaton):
        mapping = Compiler(CA_P).compile(automaton)
        check(mapping)
        rng = random.Random(1)
        data = bytes(rng.randrange(256) for _ in range(300))
        golden = simulate(automaton, data)
        mapped = simulate_mapping(mapping, data)
        assert sorted((r.offset, r.ste_id) for r in mapped.reports) == sorted(
            (r.offset, r.ste_id) for r in golden.reports
        )


def reinserted(automaton: HomogeneousAutomaton, seed: int) -> HomogeneousAutomaton:
    """The same states and edges, inserted in a shuffled order."""
    order = automaton.ste_ids()
    random.Random(seed).shuffle(order)
    copy = HomogeneousAutomaton(automaton.automaton_id)
    for ste_id in order:
        ste = automaton.ste(ste_id)
        copy.add_ste(
            ste_id,
            ste.symbols,
            start=ste.start,
            reporting=ste.reporting,
            report_code=ste.report_code,
        )
    for source, target in automaton.edges_unordered():
        copy.add_edge(source, target)
    return copy


def first_fit_members(automaton: HomogeneousAutomaton) -> List[Set[str]]:
    """The partitions' member sets as smallest-first first-fit packing of
    whole components gives them, in partition order."""
    from repro.automata.components import connected_components

    groups: List[Set[str]] = []
    for members in connected_components(automaton):
        for group in groups:
            if len(group) + len(members) <= CA_P.partition_size:
                group.update(members)
                break
        else:
            groups.append(set(members))
    return groups


class TestSlotOrder:
    """Within a partition slots follow the automaton's insertion order;
    which partition holds a state does not depend on that order."""

    @staticmethod
    def assert_slots_ascend(mapping):
        rank = {ste_id: i for i, ste_id in enumerate(mapping.automaton.ste_ids())}
        for partition in mapping.partitions:
            ranks = [rank[ste_id] for ste_id in partition.ste_ids]
            assert ranks == sorted(ranks), partition.index

    @given(small_cc_collection(), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_slots_follow_insertion_order_over_a_first_fit_packing(
        self, automaton, seed
    ):
        expected = first_fit_members(automaton)
        for machine in (automaton, reinserted(automaton, seed)):
            mapping = Compiler(CA_P).compile(machine)
            self.assert_slots_ascend(mapping)
            assert [set(p.ste_ids) for p in mapping.partitions] == expected

    @given(small_cc_collection(), st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_a_split_component_keeps_its_partitions(self, automaton, seed):
        """With a component too large for one partition, the split and
        the way placement see the same states whatever their insertion
        order."""
        large = chain_automaton(400, extra_edges=80, seed=seed % 7)
        combined = merge([large, automaton])
        mappings = [
            Compiler(CA_P).compile(machine)
            for machine in (combined, reinserted(combined, seed))
        ]
        for mapping in mappings:
            self.assert_slots_ascend(mapping)
        first, second = (
            [(p.way, set(p.ste_ids)) for p in mapping.partitions]
            for mapping in mappings
        )
        assert first == second
        assert len(first) > 2


class TestSplitMappingInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_split_cc_wire_budget(self, seed):
        automaton = chain_automaton(
            500 + seed * 137, extra_edges=200, seed=seed, automaton_id=f"r{seed}"
        )
        mapping = Compiler(CA_P).compile(automaton)
        report = analyse(mapping)
        # Either it satisfies the budget, or check() must reject it —
        # never a silently-invalid mapping.
        if report.satisfied:
            check(mapping)
        else:
            with pytest.raises(CompileError):
                check(mapping)

    def test_a_split_is_the_same_under_any_hash_seed(self):
        """TCP's one oversized component was split on its edges in
        successor-set order, so its placement changed with
        ``PYTHONHASHSEED``."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        probe = (
            "from repro.compiler import compile_automaton\n"
            "from repro.core.design import CA_P\n"
            "from repro.workloads.suite import get_benchmark\n"
            "mapping = compile_automaton(get_benchmark('TCP').build(), CA_P)\n"
            "print([(p.way, p.ste_ids) for p in mapping.partitions])\n"
        )
        placements = [
            subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True, text=True, cwd=root, check=True,
                env=dict(
                    os.environ,
                    PYTHONPATH=os.path.join(root, "src"),
                    PYTHONHASHSEED=seed,
                ),
            ).stdout
            for seed in ("1", "2")
        ]
        assert placements[0] and placements[0] == placements[1]

    @pytest.mark.parametrize("design", [CA_P, CA_S], ids=lambda d: d.name)
    def test_determinism(self, design):
        automaton = chain_automaton(700, extra_edges=300, seed=9)
        first = Compiler(design).compile(automaton)
        second = Compiler(design).compile(automaton)
        assert [p.ste_ids for p in first.partitions] == [
            p.ste_ids for p in second.partitions
        ]


class TestSuiteScaling:
    def test_scale_grows_automata(self):
        from repro.workloads.suite import build_suite

        small = build_suite(0.5)[0].build()
        large = build_suite(1.5)[0].build()
        assert len(large) > len(small) * 2

    def test_invalid_scale(self):
        from repro.errors import ReproError
        from repro.workloads.suite import build_suite

        with pytest.raises(ReproError):
            build_suite(0)

    def test_scaled_suite_still_compiles(self):
        from repro.compiler import compile_automaton
        from repro.workloads.suite import build_suite

        benchmark = build_suite(2.0)[6]  # Bro217 at 2x
        mapping = compile_automaton(benchmark.build(), CA_P)
        assert mapping.partition_count >= 1
