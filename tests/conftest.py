"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.automata.anml import HomogeneousAutomaton, StartKind
from repro.automata.symbols import SymbolSet
from repro.regex.compile import compile_patterns
from repro.workloads import synth

#: The paper's running example (Figure 1): patterns over {bat, bar, ...}.
FIGURE1_PATTERNS = [
    "bat", "bar", "bart", "ar", "at", "art", "car", "cat", "cart",
]


@pytest.fixture
def figure1_automaton() -> HomogeneousAutomaton:
    return compile_patterns(FIGURE1_PATTERNS, automaton_id="figure1")


@pytest.fixture
def figure1_text() -> bytes:
    return b"a cart of bats; the bartender art cat car ride"


def brute_force_ends(patterns, data: bytes) -> list[int]:
    """Offsets (0-based, inclusive) where any literal pattern ends."""
    ends = set()
    for pattern in patterns:
        needle = pattern.encode() if isinstance(pattern, str) else pattern
        start = 0
        while True:
            index = data.find(needle, start)
            if index < 0:
                break
            ends.add(index + len(needle) - 1)
            start = index + 1
    return sorted(ends)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def chain_automaton(
    length: int,
    *,
    label_width: int = 4,
    seed: int = 0,
    starts: int = 1,
    extra_edges: int = 0,
    locality: int = 20,
    automaton_id: str = "chain",
) -> HomogeneousAutomaton:
    """A single-CC automaton: a chain plus locally clustered extra edges.

    The workhorse for compiler/simulator tests: realistic local structure
    (so the partitioner can satisfy wire budgets) at any size.
    """
    generator = random.Random(seed)
    automaton = HomogeneousAutomaton(automaton_id)
    for index in range(length):
        low = generator.randrange(0, 257 - label_width)
        automaton.add_ste(
            f"s{index}",
            SymbolSet.from_range(low, low + label_width - 1),
            start=StartKind.ALL_INPUT if index < starts else StartKind.NONE,
            reporting=index == length - 1 or index % 101 == 100,
        )
    for index in range(length - 1):
        automaton.add_edge(f"s{index}", f"s{index + 1}")
    for _ in range(extra_edges):
        u = generator.randrange(length)
        v = min(length - 1, max(0, u + generator.randrange(-locality, locality + 1)))
        if u != v:
            automaton.add_edge(f"s{u}", f"s{v}")
    return automaton


#: Rule kinds of the ``ruleset-churn`` benchmark's lists, in list order.
_CHURN_KINDS = (
    lambda count, seed: synth.ids_rules(count, seed=seed),
    lambda count, seed: synth.dotstar_rules(count, 0.3, seed=seed),
    lambda count, seed: synth.exact_match_rules(count, seed=seed),
    lambda count, seed: synth.range_rules(count, 1.0, seed=seed),
)


def churn_patterns(index: int) -> list[str]:
    """Pattern list ``index`` (0–15) of the ``ruleset-churn`` benchmark:
    40–200 rules of one of four kinds."""
    count = 40 + (index * 53) % 161
    return _CHURN_KINDS[index % len(_CHURN_KINDS)](count, 1000 + index)
