"""Epsilon-transition elimination for classical NFAs.

The Thompson construction produces epsilon edges; the homogeneous model
has no counterpart for them, so they are removed before conversion.  The
standard closure construction is used: every state gains the consuming
transitions and acceptance of its epsilon closure.
"""

from __future__ import annotations

from repro.automata.nfa import Nfa


def remove_epsilon(nfa: Nfa) -> Nfa:
    """An equivalent NFA with no epsilon transitions.

    For every state *q* and every state *r* in the epsilon closure of *q*:
    *q* inherits each consuming transition of *r*, and *q* becomes
    accepting if *r* is.  Unreachable states are trimmed afterwards.
    States, closures and transitions are visited in the order the NFA
    holds them, so the result is the same in every process.
    """
    result = Nfa()
    states = nfa.states
    closures = {state: nfa.epsilon_closure([state]) for state in states}
    start_states, accept_states = nfa.start_states, nfa.accept_states
    for state in states:
        result.add_state(
            state,
            start=state in start_states,
            accept=bool(closures[state] & accept_states),
        )
    for state in states:
        for reachable in closures[state]:
            for symbols, target in nfa.transitions_from(reachable):
                result.add_transition(state, symbols, target)
    return result.trim()
