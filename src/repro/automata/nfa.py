"""Classical non-deterministic finite automata.

This is the textbook quintuple model ``(Q, sigma, delta, q0, F)`` from
Section 2.1 of the paper, extended with epsilon transitions so it can be
the target of a Thompson construction.  Transitions are labelled with
:class:`~repro.automata.symbols.SymbolSet` so a single edge covers a whole
character class.

The classical model is a *construction* intermediate: the Cache Automaton
hardware executes homogeneous (ANML-style) automata, obtained from this
model via :mod:`repro.automata.transform`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Hashable, Iterable, Iterator, List, Set, Tuple

from repro.automata.symbols import SymbolSet
from repro.errors import AutomatonError

StateId = Hashable


@dataclass(frozen=True)
class Transition:
    """One labelled edge ``source --symbols--> target``."""

    source: StateId
    symbols: SymbolSet
    target: StateId


class Nfa:
    """A classical NFA with character-class edges and epsilon transitions.

    States are opaque hashable identifiers (strings in most of this
    library).  The class is mutable during construction; analysis passes
    treat it as read-only.

    Every set of states is held as a dict (an insertion-ordered set) and
    read back as a set-like view in that order, so that a pass which
    iterates one builds the same automaton in every process: a ``set``
    of strings iterates in an order ``PYTHONHASHSEED`` picks.
    """

    def __init__(self):
        self._states: Dict[StateId, None] = {}
        self._start_states: Dict[StateId, None] = {}
        self._accept_states: Dict[StateId, None] = {}
        # state -> list of (symbols, target)
        self._transitions: Dict[StateId, List[Tuple[SymbolSet, StateId]]] = {}
        # state -> epsilon targets, in the order they were added
        self._epsilon: Dict[StateId, Dict[StateId, None]] = {}

    # -- construction ------------------------------------------------------

    def add_state(
        self, state: StateId, *, start: bool = False, accept: bool = False
    ) -> StateId:
        """Add ``state`` (idempotent); optionally mark it start/accepting."""
        self._states[state] = None
        if start:
            self._start_states[state] = None
        if accept:
            self._accept_states[state] = None
        return state

    def add_transition(self, source: StateId, symbols: SymbolSet, target: StateId):
        """Add edge ``source --symbols--> target``; endpoints are auto-added."""
        if symbols.is_empty():
            raise AutomatonError("transitions must match at least one symbol")
        self.add_state(source)
        self.add_state(target)
        self._transitions.setdefault(source, []).append((symbols, target))

    def add_epsilon(self, source: StateId, target: StateId):
        """Add an epsilon edge (taken without consuming input)."""
        self.add_state(source)
        self.add_state(target)
        self._epsilon.setdefault(source, {})[target] = None

    def set_start(self, state: StateId):
        self.add_state(state, start=True)

    def set_accept(self, state: StateId):
        self.add_state(state, accept=True)

    # -- structure queries -------------------------------------------------

    @property
    def states(self) -> AbstractSet[StateId]:
        return dict(self._states).keys()

    @property
    def start_states(self) -> AbstractSet[StateId]:
        return dict(self._start_states).keys()

    @property
    def accept_states(self) -> AbstractSet[StateId]:
        return dict(self._accept_states).keys()

    def __len__(self) -> int:
        return len(self._states)

    def transitions_from(self, state: StateId) -> List[Tuple[SymbolSet, StateId]]:
        return list(self._transitions.get(state, ()))

    def epsilon_from(self, state: StateId) -> AbstractSet[StateId]:
        return dict(self._epsilon.get(state, {})).keys()

    def all_transitions(self) -> Iterator[Transition]:
        for source, edges in self._transitions.items():
            for symbols, target in edges:
                yield Transition(source, symbols, target)

    def transition_count(self) -> int:
        return sum(len(edges) for edges in self._transitions.values())

    def has_epsilon(self) -> bool:
        return any(self._epsilon.values())

    def validate(self):
        """Raise :class:`AutomatonError` on structurally invalid automata."""
        if not self._start_states:
            raise AutomatonError("NFA has no start state")
        marked = self._start_states.keys() | self._accept_states.keys()
        dangling = marked - self._states.keys()
        if dangling:
            raise AutomatonError(f"start/accept states not in Q: {sorted(map(str, dangling))}")

    # -- semantics ---------------------------------------------------------

    def epsilon_closure(self, states: Iterable[StateId]) -> AbstractSet[StateId]:
        """All states reachable from ``states`` via epsilon edges alone,
        ``states`` first, then in the order a depth-first walk meets them."""
        closure = dict.fromkeys(states)
        frontier = list(closure)
        while frontier:
            state = frontier.pop()
            for target in self._epsilon.get(state, ()):
                if target not in closure:
                    closure[target] = None
                    frontier.append(target)
        return closure.keys()

    def step(self, active: Iterable[StateId], symbol: int) -> AbstractSet[StateId]:
        """One consuming step: successors of ``active`` on ``symbol``."""
        successors: Set[StateId] = set()
        for state in active:
            for symbols, target in self._transitions.get(state, ()):
                if symbols.matches(symbol):
                    successors.add(target)
        return self.epsilon_closure(successors)

    def accepts(self, data: bytes) -> bool:
        """Whole-string acceptance (the automaton consumes all of ``data``)."""
        active = self.epsilon_closure(self._start_states)
        for symbol in data:
            active = self.step(active, symbol)
            if not active:
                break
        return bool(active & self._accept_states.keys())

    def find_matches(self, data: bytes) -> List[int]:
        """Unanchored search: end offsets (1-based) at which a match completes.

        The start states are re-injected at every position, mirroring the
        start-on-all-input semantics of ANML automata.
        """
        matches = []
        start_closure = self.epsilon_closure(self._start_states)
        active: AbstractSet[StateId] = start_closure
        if active & self._accept_states.keys():
            matches.append(0)
        for offset, symbol in enumerate(data):
            active = self.step(active, symbol)
            active |= start_closure
            if active & self._accept_states.keys():
                matches.append(offset + 1)
        return matches

    # -- transformations ---------------------------------------------------

    def reachable_states(self) -> AbstractSet[StateId]:
        """States reachable from a start state via any edge, the start
        states first, then in the order a depth-first walk meets them."""
        seen = dict(self._start_states)
        frontier = list(seen)
        while frontier:
            state = frontier.pop()
            neighbours = [t for _, t in self._transitions.get(state, ())]
            neighbours.extend(self._epsilon.get(state, ()))
            for target in neighbours:
                if target not in seen:
                    seen[target] = None
                    frontier.append(target)
        return seen.keys()

    def trim(self) -> "Nfa":
        """A copy with unreachable states dropped."""
        keep = self.reachable_states()
        trimmed = Nfa()
        for state in keep:
            trimmed.add_state(
                state,
                start=state in self._start_states,
                accept=state in self._accept_states,
            )
        for source in keep:
            for symbols, target in self._transitions.get(source, ()):
                if target in keep:
                    trimmed.add_transition(source, symbols, target)
            for target in self._epsilon.get(source, ()):
                if target in keep:
                    trimmed.add_epsilon(source, target)
        return trimmed

    def relabelled(self, prefix: str) -> "Nfa":
        """A copy whose states are renamed ``{prefix}0, {prefix}1, ...``.

        Useful before :func:`union` to guarantee disjoint state spaces.
        """
        order = sorted(self._states, key=str)
        names = {state: f"{prefix}{index}" for index, state in enumerate(order)}
        renamed = Nfa()
        for state in order:
            renamed.add_state(
                names[state],
                start=state in self._start_states,
                accept=state in self._accept_states,
            )
        for source in order:
            for symbols, target in self._transitions.get(source, ()):
                renamed.add_transition(names[source], symbols, names[target])
            for target in self._epsilon.get(source, ()):
                renamed.add_epsilon(names[source], names[target])
        return renamed

    def __repr__(self) -> str:
        return (
            f"Nfa(states={len(self._states)}, transitions={self.transition_count()},"
            f" starts={len(self._start_states)}, accepts={len(self._accept_states)})"
        )


def union(automata: Iterable[Nfa]) -> Nfa:
    """Disjoint union of several NFAs (multi-pattern matching).

    Each component keeps its own start and accept states; state names are
    prefixed with the component index to avoid collisions.
    """
    combined = Nfa()
    for index, nfa in enumerate(automata):
        part = nfa.relabelled(f"u{index}_")
        for state in part.states:
            combined.add_state(
                state,
                start=state in part.start_states,
                accept=state in part.accept_states,
            )
        for transition in part.all_transitions():
            combined.add_transition(
                transition.source, transition.symbols, transition.target
            )
        for source in part.states:
            for target in part.epsilon_from(source):
                combined.add_epsilon(source, target)
    return combined
