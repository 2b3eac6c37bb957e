"""Automaton optimisation passes for the space-optimised design point.

The paper's ``CA_S`` design runs NFAs through redundancy-removal first
(Section 3.1): patterns sharing common prefixes (``art`` / ``artifact``)
are matched once, which shrinks the automaton and its average active set,
at the cost of merging connected components into larger ones that need
richer interconnect.

Two language-preserving merges are provided:

* **prefix merging** — states with identical label, start kind, report
  behaviour and *predecessor set* activate under exactly the same
  conditions, so they can be fused (their successor sets union);
* **suffix merging** — dually, non-start states with identical label,
  report behaviour and *successor set* are indistinguishable going
  forward and can be fused.

Both run to a fixed point.  ``prune_unreachable`` / ``prune_dead`` remove
states that can never activate or can never contribute to a report.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.automata.anml import HomogeneousAutomaton, StartKind

#: Sentinel standing for "the state itself" in neighbour-set signatures,
#: so that states with self-loops can still be recognised as equivalent.
_SELF = "\x00__self__"


def _neighbour_signature(ste_id: str, neighbours: set) -> FrozenSet[str]:
    return frozenset(_SELF if n == ste_id else n for n in neighbours)


def _merge_groups(
    automaton: HomogeneousAutomaton,
    groups: Dict[Tuple, List[str]],
) -> HomogeneousAutomaton:
    """Rebuild the automaton fusing each group into its first member."""
    representative: Dict[str, str] = {}
    for members in groups.values():
        keep = members[0]
        for ste_id in members:
            representative[ste_id] = keep
    merged = HomogeneousAutomaton(automaton.automaton_id)
    for ste in automaton.stes():
        if representative[ste.ste_id] == ste.ste_id:
            merged.add_ste(
                ste.ste_id,
                ste.symbols,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
            )
    for source, target in automaton.edges():
        merged.add_edge(representative[source], representative[target])
    return merged


def _one_merge_pass(
    automaton: HomogeneousAutomaton, *, direction: str
) -> Tuple[HomogeneousAutomaton, int]:
    """One grouping pass; returns (new automaton, number of states removed)."""
    groups: Dict[Tuple, List[str]] = {}
    for ste in automaton.stes():
        if direction == "prefix":
            neighbours = _neighbour_signature(
                ste.ste_id, automaton.predecessors(ste.ste_id)
            )
        else:
            if ste.start is not StartKind.NONE:
                # A start state carries activation conditions a non-start
                # state lacks; merging by suffix would change the language.
                neighbours = frozenset({f"\x00__unique__{ste.ste_id}"})
            else:
                neighbours = _neighbour_signature(
                    ste.ste_id, automaton.successors(ste.ste_id)
                )
        key = (
            ste.symbols,
            ste.start,
            ste.reporting,
            ste.report_code,
            neighbours,
        )
        groups.setdefault(key, []).append(ste.ste_id)
    removed = sum(len(members) - 1 for members in groups.values())
    if removed == 0:
        return automaton, 0
    return _merge_groups(automaton, groups), removed


def merge_common_prefixes(automaton: HomogeneousAutomaton) -> HomogeneousAutomaton:
    """Fuse states reachable by identical prefixes, to a fixed point."""
    current = automaton
    while True:
        current, removed = _one_merge_pass(current, direction="prefix")
        if removed == 0:
            return current


def merge_common_suffixes(automaton: HomogeneousAutomaton) -> HomogeneousAutomaton:
    """Fuse states with identical futures, to a fixed point."""
    current = automaton
    while True:
        current, removed = _one_merge_pass(current, direction="suffix")
        if removed == 0:
            return current


def space_optimize(automaton: HomogeneousAutomaton) -> HomogeneousAutomaton:
    """The full CA_S automaton transform: prune, then prefix+suffix merge.

    Merging prefixes can expose new suffix merges and vice versa, so the
    two alternate until neither makes progress.
    """
    current = prune_dead(prune_unreachable(automaton))
    while True:
        before = len(current)
        current = merge_common_prefixes(current)
        current = merge_common_suffixes(current)
        if len(current) == before:
            return current


def prune_unreachable(automaton: HomogeneousAutomaton) -> HomogeneousAutomaton:
    """Drop states not reachable from any start state."""
    reachable = {s.ste_id for s in automaton.start_states()}
    frontier = list(reachable)
    while frontier:
        ste_id = frontier.pop()
        for target in automaton.successors(ste_id):
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    return _induced(automaton, reachable)


def prune_dead(automaton: HomogeneousAutomaton) -> HomogeneousAutomaton:
    """Drop states from which no reporting state is reachable."""
    useful = {s.ste_id for s in automaton.reporting_states()}
    frontier = list(useful)
    while frontier:
        ste_id = frontier.pop()
        for source in automaton.predecessors(ste_id):
            if source not in useful:
                useful.add(source)
                frontier.append(source)
    return _induced(automaton, useful)


def _induced(
    automaton: HomogeneousAutomaton, keep: set
) -> HomogeneousAutomaton:
    if keep == set(automaton.ste_ids()):
        return automaton
    induced = HomogeneousAutomaton(automaton.automaton_id)
    for ste in automaton.stes():
        if ste.ste_id in keep:
            induced.add_ste(
                ste.ste_id,
                ste.symbols,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
            )
    for source, target in automaton.edges():
        if source in keep and target in keep:
            induced.add_edge(source, target)
    return induced
