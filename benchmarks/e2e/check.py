"""Golden comparison used by every workload.

The reference is the repository's golden interpreter, reached through
the same public constructor the program's users call, never through the
substrate being measured.  Equality is the per-offset multiset of
``(end, rule, state)``: lazy-dfa and hybrid emit the same matches as the
interpreter but may order them differently *within* one offset, which is
correct output, so a sequence that differs only in that order is counted
in ``order_mismatches`` and not as a failure.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

from host import quietly
from repro.engine import CacheAutomatonEngine

Triple = Tuple[int, Optional[str], str]


def match_triples(matches: Iterable) -> Tuple[Triple, ...]:
    """``engine.scan`` matches as ``(end, rule, state)`` triples."""
    return tuple((match.end, match.rule, match.state) for match in matches)


def head(data: bytes, triples: Sequence[Triple], prefix: int):
    """``data`` and its result cut to the first ``prefix`` bytes.  Comparing
    only those is exact, because every scan starts from the initial state,
    and costs only that much interpretation of a long slice."""
    return data[:prefix], tuple(t for t in triples if t[0] < prefix)


def outcome_triples(outcome) -> Tuple[Triple, ...]:
    """A service ``ScanOutcome``'s reports in the same shape."""
    return tuple(
        (offset, report_code, ste_id)
        for offset, ste_id, report_code in outcome.report_rows()
    )


class Checker:
    """Builds golden engines per ruleset and compares results to them."""

    def __init__(self) -> None:
        self._golden: Dict[Hashable, CacheAutomatonEngine] = {}
        self._expected: Dict[Tuple[Hashable, bytes], Tuple[Triple, ...]] = {}
        self.compared = 0
        self.order_mismatches = 0
        self.golden_bytes = 0

    def add_automaton(self, key: Hashable, automaton) -> None:
        self._golden[key] = quietly(
            CacheAutomatonEngine, automaton, backend="golden-interpreter", cache=None
        )

    def add_patterns(self, key: Hashable, patterns: Sequence[str]) -> None:
        """Golden engine for a pattern list, compiled exactly as
        ``from_patterns`` and ``ScanService.register`` compile it, so
        rule and state identities line up."""
        self._golden[key] = quietly(
            CacheAutomatonEngine.from_patterns,
            patterns, backend="golden-interpreter", cache=None,
        )

    def forget(self, key: Hashable) -> None:
        self._golden.pop(key, None)
        for cached in [entry for entry in self._expected if entry[0] == key]:
            del self._expected[cached]

    def expected(self, key: Hashable, data: bytes) -> Tuple[Triple, ...]:
        """Golden result for ``data`` (memoised: streams that repeat are
        interpreted once, at set-up)."""
        cached = self._expected.get((key, data))
        if cached is None:
            cached = match_triples(self._golden[key].scan(data))
            self._expected[(key, data)] = cached
            self.golden_bytes += len(data)
        return cached

    def check(self, key: Hashable, data: bytes, got: Sequence[Triple]) -> bool:
        """Compare ``got`` (the program's result on ``data``) with the
        interpreter."""
        want = self.expected(key, data)
        self.compared += 1
        if tuple(got) == want:
            return True
        if Counter(got) == Counter(want):
            self.order_mismatches += 1
            return True
        return False
