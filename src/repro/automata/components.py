"""Connected-component analysis of homogeneous automata.

Real-world NFAs are unions of many *connected components* (CCs), each
matching one pattern or a family of patterns (Section 3.1 of the paper).
CCs have no transitions between them, so the Cache Automaton compiler
treats each CC as an atomic mapping unit; this module finds them and
computes the Table 1 characteristics (#CCs, largest CC size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.automata.anml import HomogeneousAutomaton

try:  # C-speed weak-CC labelling when scipy is present
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components as _csgraph_components
except ImportError:  # pragma: no cover - exercised only without scipy
    coo_matrix = None
    _csgraph_components = None


def component_labels(
    node_count: int, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Weak-component label (an int) of each of ``node_count`` nodes under
    the edges ``sources[i] -> targets[i]``; scipy when available, else
    union-find with path halving over the edge arrays."""
    if _csgraph_components is not None:
        matrix = coo_matrix(
            (
                np.ones(sources.shape[0], dtype=np.int8),
                (sources, targets),
            ),
            shape=(node_count, node_count),
        )
        _, labels = _csgraph_components(
            matrix, directed=True, connection="weak"
        )
        return labels
    parent = list(range(node_count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for source, target in zip(sources.tolist(), targets.tolist()):
        source_root = find(source)
        target_root = find(target)
        if target_root != source_root:
            parent[max(source_root, target_root)] = min(
                source_root, target_root
            )
    return np.fromiter(
        (find(node) for node in range(node_count)),
        dtype=np.int64,
        count=node_count,
    )


def connected_components(automaton: HomogeneousAutomaton) -> List[List[str]]:
    """Weakly connected components, each a sorted list of STE ids.

    Components are returned sorted by size ascending (the compiler packs
    smallest-first) with ties broken by the smallest member id so the
    result is deterministic.

    Works on the automaton's cached integer edge arrays, so the labelling
    itself is one sparse-graph call (or one union-find sweep) instead of a
    per-node BFS with set unions.
    """
    arrays = automaton.edge_index_arrays()
    ids = arrays.ids  # lexically sorted, so groups come out sorted too
    labels = component_labels(len(ids), arrays.sources, arrays.targets)
    groups: Dict[int, List[str]] = {}
    for ste_id, label in zip(ids, labels.tolist()):
        groups.setdefault(label, []).append(ste_id)
    components = list(groups.values())
    components.sort(key=lambda cc: (len(cc), cc[0]))
    return components


@dataclass(frozen=True)
class ComponentStats:
    """The structural characteristics reported in Table 1."""

    state_count: int
    component_count: int
    largest_component_size: int
    edge_count: int
    average_fan_out: float

    def __str__(self) -> str:
        return (
            f"{self.state_count} states, {self.component_count} CCs,"
            f" largest {self.largest_component_size},"
            f" fan-out {self.average_fan_out:.2f}"
        )


def component_stats(automaton: HomogeneousAutomaton) -> ComponentStats:
    """Compute Table 1-style structure statistics for ``automaton``."""
    components = connected_components(automaton)
    largest = max((len(cc) for cc in components), default=0)
    return ComponentStats(
        state_count=len(automaton),
        component_count=len(components),
        largest_component_size=largest,
        edge_count=automaton.edge_count(),
        average_fan_out=automaton.average_fan_out(),
    )


def component_index(automaton: HomogeneousAutomaton) -> Dict[str, int]:
    """Map each STE id to the index of its component in component order."""
    index: Dict[str, int] = {}
    for component_number, members in enumerate(connected_components(automaton)):
        for ste_id in members:
            index[ste_id] = component_number
    return index

