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


def component_labels(
    node_count: int, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Weak-component label of each of ``node_count`` nodes under the
    edges ``sources[i] -> targets[i]``: the smallest node id in its
    component.

    Min-label propagation with pointer jumping.  A label is a *root*, a
    node labelled with itself.  Every round hooks the larger root of each
    edge whose ends disagree onto the smallest root it meets, then jumps
    every label to its root.  A root that is not smaller than all its
    neighbours is hooked, so each round at least halves the roots of a
    component: ``O(log n)`` rounds.
    """
    labels = np.arange(node_count, dtype=np.int64)
    while True:
        tail, head = labels[sources], labels[targets]
        low, high = np.minimum(tail, head), np.maximum(tail, head)
        apart = low != high
        if not apart.any():
            return labels
        np.minimum.at(labels, high[apart], low[apart])
        while True:  # pointer jumping
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def connected_components(automaton: HomogeneousAutomaton) -> List[List[str]]:
    """Weakly connected components, each a sorted list of STE ids.

    Components are returned sorted by size ascending (the compiler packs
    smallest-first) with ties broken by the smallest member id so the
    result is deterministic.  This order decides which partition holds a
    state, not its slot there: ``Compiler._place`` fills each partition
    in ``automaton.ste_ids()`` order.

    Works on the automaton's cached integer edge arrays, so the labelling
    itself is a few vectorised rounds (:func:`component_labels`) instead
    of a per-node BFS with set unions.
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

