"""Deterministic finite automata: subset construction and minimisation.

The DFA substrate serves two roles in this reproduction:

* the **CPU baseline** — compute-centric engines process one DFA
  transition per input symbol via a dense lookup table (Section 6,
  "Compute-Centric Architectures");
* a **correctness oracle** — language equivalence of two NFAs is checked
  by comparing their minimised DFAs in tests.

The transition table is a dense ``(states, 256)`` numpy array, which is
also exactly the memory layout a table-driven CPU matcher would use.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.automata.nfa import Nfa, StateId
from repro.errors import AutomatonError, DeterminisationExplosion

ALPHABET = 256

#: Index of the dead (sink) state in every table produced here.
DEAD = 0


class Dfa:
    """A complete DFA over the byte alphabet with a dense transition table.

    State 0 is always the dead state (all self-loops, non-accepting).
    """

    def __init__(self, table: np.ndarray, accepting: np.ndarray, start: int):
        if table.ndim != 2 or table.shape[1] != ALPHABET:
            raise AutomatonError(f"table must be (n, 256), got {table.shape}")
        if accepting.shape != (table.shape[0],):
            raise AutomatonError("accepting vector length mismatch")
        if not 0 <= start < table.shape[0]:
            raise AutomatonError(f"start state {start} out of range")
        if accepting[DEAD] or (table[DEAD] != DEAD).any():
            raise AutomatonError("state 0 must be a non-accepting sink")
        self.table = table.astype(np.int64)
        self.accepting = accepting.astype(bool)
        self.start = start

    @property
    def state_count(self) -> int:
        return self.table.shape[0]

    # -- semantics ---------------------------------------------------------

    def accepts(self, data: bytes) -> bool:
        """Whole-string acceptance."""
        state = self.start
        table = self.table
        for symbol in data:
            state = table[state, symbol]
            if state == DEAD:
                return False
        return bool(self.accepting[state])

    def find_matches(self, data: bytes) -> List[int]:
        """End offsets (1-based) where an accepting state is entered.

        Offset 0 is reported if the start state itself accepts.  For
        scanning semantics build the DFA with ``scanning=True``.
        """
        matches = []
        state = self.start
        if self.accepting[state]:
            matches.append(0)
        table = self.table
        accepting = self.accepting
        for offset, symbol in enumerate(data):
            state = table[state, symbol]
            if accepting[state]:
                matches.append(offset + 1)
        return matches

    # -- minimisation ------------------------------------------------------

    def minimize(self) -> "Dfa":
        """Minimise by Moore partition refinement (vectorised with numpy).

        States are iteratively re-classified by the signature
        ``(accepting, class of each successor)`` until a fixed point; the
        quotient automaton is returned with the dead state re-canonicalised
        to index 0.
        """
        classes = self.accepting.astype(np.int64)
        while True:
            signature = np.concatenate(
                [classes[:, None], classes[self.table]], axis=1
            )
            _, new_classes = np.unique(signature, axis=0, return_inverse=True)
            if np.array_equal(new_classes, classes) or len(
                np.unique(new_classes)
            ) == len(np.unique(classes)):
                classes = new_classes
                break
            classes = new_classes
        # Renumber so the dead state's class is 0.
        dead_class = classes[DEAD]
        order = [dead_class] + [c for c in range(classes.max() + 1) if c != dead_class]
        renumber = {old: new for new, old in enumerate(order)}
        remap = np.array([renumber[c] for c in range(classes.max() + 1)])
        classes = remap[classes]
        count = classes.max() + 1
        table = np.zeros((count, ALPHABET), dtype=np.int64)
        accepting = np.zeros(count, dtype=bool)
        representative_seen = np.zeros(count, dtype=bool)
        for state in range(self.state_count):
            cls = classes[state]
            if not representative_seen[cls]:
                representative_seen[cls] = True
                table[cls] = classes[self.table[state]]
                accepting[cls] = self.accepting[state]
        return Dfa(table, accepting, int(classes[self.start]))

    def is_equivalent(self, other: "Dfa") -> bool:
        """Language equality via product-construction reachability."""
        seen: Set[Tuple[int, int]] = {(self.start, other.start)}
        frontier = [(self.start, other.start)]
        while frontier:
            mine, theirs = frontier.pop()
            if bool(self.accepting[mine]) != bool(other.accepting[theirs]):
                return False
            successors = set(
                zip(self.table[mine].tolist(), other.table[theirs].tolist())
            )
            for pair in successors:
                if pair not in seen:
                    seen.add(pair)
                    frontier.append(pair)
        return True

    def __repr__(self) -> str:
        return f"Dfa(states={self.state_count}, start={self.start})"


def determinize(nfa: Nfa, *, scanning: bool = False, max_states: int = 200_000) -> Dfa:
    """Subset construction over the byte alphabet.

    With ``scanning=True`` the start closure is re-injected after every
    step, producing the DFA of the unanchored-search machine (this is how
    table-driven IDS engines compile their rule sets).

    ``max_states`` guards against the exponential blow-up inherent to
    determinisation.
    """
    nfa.validate()
    start_closure = frozenset(nfa.epsilon_closure(nfa.start_states))
    accept_states = nfa.accept_states

    # Pre-index each NFA state's outgoing edges as (mask, target) pairs.
    edges: Dict[StateId, List[Tuple[int, StateId]]] = {
        state: [(symbols.mask, target) for symbols, target in nfa.transitions_from(state)]
        for state in nfa.states
    }
    epsilon_cache: Dict[FrozenSet[StateId], FrozenSet[StateId]] = {}

    def closure(states: FrozenSet[StateId]) -> FrozenSet[StateId]:
        if states not in epsilon_cache:
            epsilon_cache[states] = frozenset(nfa.epsilon_closure(states))
        return epsilon_cache[states]

    dfa_ids: Dict[FrozenSet[StateId], int] = {frozenset(): DEAD}
    rows: List[List[int]] = [[DEAD] * ALPHABET]
    accepting: List[bool] = [False]

    def intern(states: FrozenSet[StateId]) -> int:
        if states not in dfa_ids:
            if len(dfa_ids) >= max_states:
                raise DeterminisationExplosion(
                    f"subset construction exceeded {max_states} states"
                )
            dfa_ids[states] = len(rows)
            rows.append([DEAD] * ALPHABET)
            accepting.append(bool(states & accept_states))
        return dfa_ids[states]

    start_set = start_closure
    start_id = intern(start_set)
    worklist = [start_set]
    processed = {frozenset(), start_set}
    while worklist:
        current = worklist.pop()
        current_id = dfa_ids[current]
        # Group the 256 symbols by successor set using bitmask arithmetic:
        # each member edge contributes its mask; symbols with identical
        # "which edges fire" signatures share a successor set.
        member_edges = [pair for state in current for pair in edges.get(state, ())]
        if not member_edges and not scanning:
            continue
        successor_by_symbol: Dict[int, Set[StateId]] = {}
        for mask, target in member_edges:
            while mask:
                low_bit = mask & -mask
                symbol = low_bit.bit_length() - 1
                successor_by_symbol.setdefault(symbol, set()).add(target)
                mask ^= low_bit
        default_successor: FrozenSet[StateId] = (
            start_set if scanning else frozenset()
        )
        default_id = intern(default_successor)
        row = rows[current_id]
        for symbol in range(ALPHABET):
            row[symbol] = default_id
        if scanning and default_successor not in processed:
            processed.add(default_successor)
            worklist.append(default_successor)
        for symbol, targets in successor_by_symbol.items():
            successor = closure(frozenset(targets))
            if scanning:
                successor = frozenset(successor | start_set)
            row[symbol] = intern(successor)
            if successor not in processed:
                processed.add(successor)
                worklist.append(successor)

    table = np.array(rows, dtype=np.int64)
    return Dfa(table, np.array(accepting, dtype=bool), start_id)
