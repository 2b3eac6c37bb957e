"""Tests for connected-component analysis."""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.anml import HomogeneousAutomaton, StartKind
from repro.automata.components import (
    component_index,
    component_labels,
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


def _reference_labels(node_count, edges):
    """Smallest node id of each node's weak component, by union-find."""
    parent = list(range(node_count))

    def find(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for source, target in edges:
        low, high = sorted((find(source), find(target)))
        parent[high] = low
    return [find(node) for node in range(node_count)]


@st.composite
def edge_lists(draw):
    node_count = draw(st.integers(0, 40))
    if node_count == 0:
        return 0, []
    node = st.integers(0, node_count - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=60))
    if draw(st.booleans()):  # a long chain through shuffled ids
        order = draw(st.permutations(range(node_count)))
        edges += list(zip(order, order[1:]))
    return node_count, edges


class TestComponentLabels:
    @given(edge_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_union_find(self, graph):
        node_count, edges = graph
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        labels = component_labels(node_count, pairs[:, 0], pairs[:, 1])
        assert labels.tolist() == _reference_labels(node_count, edges)

    def test_self_loops_and_no_edges(self):
        none = np.array([], dtype=np.int64)
        assert component_labels(3, none, none).tolist() == [0, 1, 2]
        loops = np.array([1, 2])
        assert component_labels(3, loops, loops).tolist() == [0, 1, 2]

    def test_long_shuffled_chain(self):
        order = np.random.default_rng(7).permutation(20_000)
        labels = component_labels(20_000, order[:-1], order[1:])
        assert not labels.any()

    def test_runtime_imports_leave_scipy_out(self):
        """The runtime is numpy-only: importing the engine and the
        service must not pull in scipy."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        probe = (
            "import sys, repro.engine, repro.service; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'networkx')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, cwd=root, check=True,
        )
        assert out.stdout.strip() == "[]"


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

