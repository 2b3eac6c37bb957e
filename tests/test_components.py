"""Tests for connected-component analysis."""

from repro.automata.anml import HomogeneousAutomaton, StartKind
from repro.automata.components import (
    component_index,
    component_stats,
    connected_components,
)
from repro.automata.symbols import SymbolSet


def build(edges, states):
    automaton = HomogeneousAutomaton()
    for name in states:
        automaton.add_ste(name, SymbolSet.single("a"), start=StartKind.ALL_INPUT)
    for u, v in edges:
        automaton.add_edge(u, v)
    return automaton


class TestConnectedComponents:
    def test_isolated_states(self):
        automaton = build([], ["a", "b", "c"])
        components = connected_components(automaton)
        assert len(components) == 3
        assert all(len(c) == 1 for c in components)

    def test_weak_connectivity(self):
        """Direction is ignored: x->y and z->y are one component."""
        automaton = build([("x", "y"), ("z", "y")], ["x", "y", "z"])
        assert len(connected_components(automaton)) == 1

    def test_sorted_by_size_then_member(self):
        automaton = build([("a", "b")], ["a", "b", "z", "m"])
        components = connected_components(automaton)
        assert components == [["m"], ["z"], ["a", "b"]]

    def test_multi_pattern_components(self, figure1_automaton):
        components = connected_components(figure1_automaton)
        assert len(components) == 9  # one per pattern

    def test_component_index_consistent(self):
        automaton = build([("a", "b")], ["a", "b", "c"])
        index = component_index(automaton)
        assert index["a"] == index["b"]
        assert index["a"] != index["c"]

    def test_self_loop_single_component(self):
        automaton = build([("a", "a")], ["a"])
        assert connected_components(automaton) == [["a"]]


class TestStats:
    def test_stats_fields(self, figure1_automaton):
        stats = component_stats(figure1_automaton)
        assert stats.state_count == len(figure1_automaton)
        assert stats.component_count == 9
        assert stats.largest_component_size == 4  # 'bart'/'cart'
        assert stats.edge_count == figure1_automaton.edge_count()
        assert "CCs" in str(stats)

    def test_empty_automaton(self):
        stats = component_stats(HomogeneousAutomaton())
        assert stats.largest_component_size == 0
        assert stats.component_count == 0

