"""High-level regex -> automaton compilation entry points.

This is the user-facing front door of the regex engine:

>>> from repro.regex.compile import compile_patterns
>>> machine = compile_patterns(["bat", "bar", "car[t]?"])
>>> machine.edge_count() > 0
True

Each rule compiles to a Glushkov :class:`~repro.regex.glushkov.Fragment`
— its position automaton as columns, with no state name or report code
— and ``compile_patterns`` concatenates the rule set's fragments into
one multi-pattern machine (rule ``i``'s position ``j`` is the state
``m{i}_{j}``, reporting rule ``i``'s code), the shape every paper
workload takes before entering the Cache Automaton compiler.  The result
is already in array form: nothing per state is built until something
walks its graph.

Fragments are values of ``(FRONT_END_VERSION, pattern, eod_sentinel)``,
kept in one bounded in-process memo (:data:`FRAGMENT_MEMO_BYTES`): a
rule list that differs from one compiled before in one rule — a hot
reload, an edited list — parses and constructs that rule only.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.automata.anml import HomogeneousAutomaton, StartKind
from repro.automata.symbols import SymbolSet
from repro.compiler import cache as compile_cache
from repro.errors import RegexError
from repro.memo import BoundedMemo
from repro.regex.ast import Concat, Literal, Pattern
from repro.regex.glushkov import Fragment, concatenate, glushkov_fragment
from repro.regex.parser import parse

#: Bytes of fragments the process keeps (arrays plus the pattern text
#: and a fixed per-entry overhead; the 191 rules of the largest
#: ``ruleset-churn`` list count 338 KiB).
FRAGMENT_MEMO_BYTES = 16 << 20

#: What a memo entry costs beyond its arrays and pattern text: the key
#: tuple, the fragment and the six array headers.
_FRAGMENT_OVERHEAD_BYTES = 1024

#: The fragments compiled in this process (see the module docstring).
FRAGMENTS = BoundedMemo(FRAGMENT_MEMO_BYTES)


def fragment_of(pattern: str, eod_sentinel: Optional[int] = None) -> Fragment:
    """The Glushkov fragment of one regex, from the memo when it holds it.

    ``eod_sentinel`` enables ``$`` support: the anchor is desugared into a
    trailing literal matching the sentinel byte, and the caller must
    terminate input streams with that byte.  Without it, ``$`` raises
    :class:`~repro.errors.RegexError`.
    """
    key = (compile_cache.FRONT_END_VERSION, pattern, eod_sentinel)
    fragment = FRAGMENTS.get(key)
    if fragment is None:
        parsed = parse(pattern)
        if parsed.anchored_end:
            if eod_sentinel is None:
                raise RegexError(
                    f"pattern {pattern!r} uses '$' but no eod_sentinel was given"
                )
            parsed = Pattern(
                Concat(parsed.root, Literal(SymbolSet.single(eod_sentinel))),
                parsed.anchored_start,
                False,
                parsed.source,
            )
        fragment = glushkov_fragment(parsed)
        FRAGMENTS.put(
            key,
            fragment,
            fragment.nbytes + len(pattern) + _FRAGMENT_OVERHEAD_BYTES,
        )
    return fragment


def compile_pattern(
    pattern: str,
    *,
    report_code: Optional[str] = None,
    eod_sentinel: Optional[int] = None,
    automaton_id: Optional[str] = None,
) -> HomogeneousAutomaton:
    """Compile one regex into a homogeneous automaton (states ``p0..pN``;
    ``eod_sentinel`` as in :func:`fragment_of`)."""
    return concatenate(
        [fragment_of(pattern, eod_sentinel)],
        ["p"],
        [report_code],
        automaton_id or f"re:{pattern}",
    )


def compile_patterns(
    patterns: Sequence[str],
    *,
    report_codes: Optional[Iterable[str]] = None,
    eod_sentinel: Optional[int] = None,
    automaton_id: str = "ruleset",
) -> HomogeneousAutomaton:
    """Compile a rule set into one multi-pattern homogeneous automaton.

    Each rule's reporting states carry its report code (defaulting to the
    rule index as a string), so simulator report records identify which
    pattern fired.
    """
    if not patterns:
        raise RegexError("empty rule set")
    if report_codes is None:
        codes: List[str] = [str(index) for index in range(len(patterns))]
    else:
        codes = list(report_codes)
        if len(codes) != len(patterns):
            raise RegexError(
                f"{len(patterns)} patterns but {len(codes)} report codes"
            )
    fragments = [fragment_of(pattern, eod_sentinel) for pattern in patterns]
    return concatenate(
        fragments,
        [f"m{index}_" for index in range(len(patterns))],
        codes,
        automaton_id,
    )


def literal_pattern(
    text: str,
    *,
    report_code: Optional[str] = None,
    anchored: bool = False,
    state_prefix: str = "lit",
) -> HomogeneousAutomaton:
    """Build the chain automaton for an exact string (no regex parsing).

    Exact-match rule sets (ExactMatch, ClamAV signatures, dictionary
    scans) are a large fraction of real workloads; building them directly
    avoids escaping issues and is O(len).
    """
    if not text:
        raise RegexError("empty literal")
    automaton = HomogeneousAutomaton(f"lit:{text}")
    start_kind = StartKind.START_OF_DATA if anchored else StartKind.ALL_INPUT
    previous = None
    for index, character in enumerate(text):
        ste_id = f"{state_prefix}{index}"
        is_last = index == len(text) - 1
        automaton.add_ste(
            ste_id,
            SymbolSet.single(character),
            start=start_kind if index == 0 else StartKind.NONE,
            reporting=is_last,
            report_code=report_code if is_last else None,
        )
        if previous is not None:
            automaton.add_edge(previous, ste_id)
        previous = ste_id
    return automaton
