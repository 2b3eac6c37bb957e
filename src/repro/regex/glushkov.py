"""Glushkov position automaton: regex AST -> homogeneous automaton.

The Glushkov construction is the natural compiler front-end for spatial
automata processors: it produces an epsilon-free automaton with exactly
one state per literal *position* in the pattern, and every state is
entered only on that position's character class — i.e. the result is
*already homogeneous* (ANML-shaped), no label splitting required.

Construction (standard): compute ``nullable``, ``first``, ``last`` and the
``follow`` relation over positions; states are positions, start states are
``first``, reporting states are ``last``, edges are ``follow``.

The construction emits a :class:`Fragment` — the position automaton as
columns, with no state name, report code or per-state object — and
:func:`concatenate` joins fragments into one automaton in the array form
of :meth:`~repro.automata.anml.HomogeneousAutomaton.from_arrays`, naming
the states and attaching the report codes as it goes.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.automata.anml import (
    START_KINDS,
    HomogeneousAutomaton,
    StartKind,
    _ArrayAutomaton,
    _ArrayForm,
)
from repro.automata.symbols import SymbolSet
from repro.errors import AutomatonError, RegexError
from repro.regex.ast import (
    Alternation,
    Concat,
    Empty,
    Literal,
    Node,
    Pattern,
    Star,
)


class _Positions:
    """Assigns dense indices to literal positions and gathers follow pairs."""

    def __init__(self):
        self.symbols: List[SymbolSet] = []
        self.follow: Set[Tuple[int, int]] = set()

    def new_position(self, symbols: SymbolSet) -> int:
        self.symbols.append(symbols)
        return len(self.symbols) - 1

    def analyse(self, node: Node) -> Tuple[bool, frozenset, frozenset]:
        """Return (nullable, first, last) of ``node``, recording follows."""
        if isinstance(node, Empty):
            return True, frozenset(), frozenset()
        if isinstance(node, Literal):
            position = self.new_position(node.symbols)
            singleton = frozenset({position})
            return False, singleton, singleton
        if isinstance(node, Concat):
            left_nullable, left_first, left_last = self.analyse(node.left)
            right_nullable, right_first, right_last = self.analyse(node.right)
            for source in left_last:
                for target in right_first:
                    self.follow.add((source, target))
            first = left_first | right_first if left_nullable else left_first
            last = right_last | left_last if right_nullable else right_last
            return left_nullable and right_nullable, first, last
        if isinstance(node, Alternation):
            left_nullable, left_first, left_last = self.analyse(node.left)
            right_nullable, right_first, right_last = self.analyse(node.right)
            return (
                left_nullable or right_nullable,
                left_first | right_first,
                left_last | right_last,
            )
        if isinstance(node, Star):
            _, first, last = self.analyse(node.child)
            for source in last:
                for target in first:
                    self.follow.add((source, target))
            return True, first, last
        raise TypeError(f"unknown AST node {node!r}")


class Fragment(NamedTuple):
    """One pattern's position automaton as read-only columns, position
    order: the distinct symbol masks (``(k, 32)`` little-endian bytes, in
    first-use order) and each position's row of them, each position's
    start kind (its index in :class:`~repro.automata.anml.StartKind`) and
    whether it is a last position, and the follow pairs as ``int32``
    edge arrays in (source, target) order."""

    masks: np.ndarray
    mask_of: np.ndarray
    start: np.ndarray
    reporting: np.ndarray
    sources: np.ndarray
    targets: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(column.nbytes for column in self)


def glushkov_fragment(pattern: Pattern) -> Fragment:
    """The position automaton of ``pattern`` as a :class:`Fragment`.

    Start-state kind follows the pattern's anchoring: ``^``-anchored
    patterns get :attr:`StartKind.START_OF_DATA` (active for the first
    symbol only), unanchored patterns get :attr:`StartKind.ALL_INPUT`
    (re-armed every cycle — the scanning semantics automata processors
    use).  Patterns that match the empty string are rejected: a
    homogeneous automaton cannot report before consuming a symbol.

    ``$`` anchoring has no portable ANML encoding; callers that need it
    should append an explicit end-of-data sentinel to both pattern and
    input (see :func:`repro.regex.compile.compile_pattern`).
    """
    analysis = _Positions()
    nullable, first, last = analysis.analyse(pattern.root)
    if nullable:
        raise RegexError(
            f"pattern {pattern.source!r} matches the empty string; "
            "spatial automata report only after consuming input"
        )
    if pattern.anchored_end:
        raise RegexError(
            "'$' anchors must be desugared to a sentinel before construction"
        )
    distinct: dict = {}
    mask_of = []
    for position, symbols in enumerate(analysis.symbols):
        if symbols.is_empty():
            raise AutomatonError(f"STE {f'p{position}'!r} would match no symbol")
        mask_of.append(distinct.setdefault(symbols.mask, len(distinct)))
    start = np.zeros(len(mask_of), dtype=np.uint8)
    start[list(first)] = START_KINDS.index(
        StartKind.START_OF_DATA if pattern.anchored_start else StartKind.ALL_INPUT
    )
    reporting = np.zeros(len(mask_of), dtype=np.bool_)
    reporting[list(last)] = True
    follow = np.array(sorted(analysis.follow), dtype=np.int32).reshape(-1, 2)
    fragment = Fragment(
        np.frombuffer(
            b"".join(mask.to_bytes(32, "little") for mask in distinct),
            dtype=np.uint8,
        ).reshape(len(distinct), 32),
        np.array(mask_of, dtype=np.int32),
        start,
        reporting,
        np.ascontiguousarray(follow[:, 0]),
        np.ascontiguousarray(follow[:, 1]),
    )
    for column in fragment:
        column.setflags(write=False)
    return fragment


def _first_seen(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, renumbered)``: the distinct ``values`` in the order
    they first appear, and each value's index in that list."""
    distinct, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    by_first = np.argsort(first, kind="stable")
    rank = np.empty(len(distinct), dtype=np.int32)
    rank[by_first] = np.arange(len(distinct), dtype=np.int32)
    return distinct[by_first], rank[inverse.reshape(-1)]


def concatenate(
    fragments: Sequence[Fragment],
    prefixes: Sequence[str],
    codes: Sequence[Optional[str]],
    automaton_id: str,
) -> HomogeneousAutomaton:
    """The disjoint union of ``fragments``: position ``j`` of fragment
    ``i`` is the state ``f"{prefixes[i]}{j}"``, and fragment ``i``'s last
    positions report ``codes[i]``.

    The result is the automaton that adding those states and edges one
    by one would build, already in its array form (equal ``to_arrays()``
    and fingerprint, ids sorted, ``order`` the insertion order), so no
    per-state object is made until something walks its graph.  The
    prefixes must give every state a name of its own.
    """
    sizes = [len(fragment.mask_of) for fragment in fragments]

    def joined(column: str, shifts: Optional[List[int]] = None) -> np.ndarray:
        """One column of every fragment, end to end, each fragment's
        values shifted by its entry of ``shifts``."""
        parts = [getattr(fragment, column) for fragment in fragments]
        if shifts is not None:
            parts = [part + shift for part, shift in zip(parts, shifts)]
        return np.concatenate(parts)

    state_base = np.cumsum([0] + sizes[:-1]).tolist()
    mask_base = np.cumsum([0] + [len(f.masks) for f in fragments[:-1]]).tolist()
    names = [
        f"{prefix}{position}"
        for prefix, size in zip(prefixes, sizes)
        for position in range(size)
    ]
    # Sorted position -> insertion index, and its inverse.
    by_name = np.array(
        sorted(range(len(names)), key=names.__getitem__), dtype=np.int64
    )
    order = np.empty(len(names), dtype=np.int32)
    order[by_name] = np.arange(len(names), dtype=np.int32)
    # The masks: the fragments' tables deduplicated by content, each
    # state's row of that table, renumbered in sorted-id order.
    rows, content = np.unique(
        joined("masks").view("V32").reshape(-1), return_inverse=True
    )
    distinct, mask_of = _first_seen(
        content.reshape(-1)[joined("mask_of", mask_base)][by_name]
    )
    # The codes: one index per distinct code string, on the reporting
    # states only, renumbered in sorted-id order.
    index: dict = {}
    fragment_codes = [
        -1 if code is None else index.setdefault(code, len(index)) for code in codes
    ]
    reporting = joined("reporting")[by_name]
    code_of = np.repeat(np.array(fragment_codes, dtype=np.int32), sizes)[by_name]
    code_of[~reporting] = -1
    named = code_of >= 0
    used, code_of[named] = _first_seen(code_of[named])
    code_names = list(index)
    sources = order[joined("sources", state_base)]
    targets = order[joined("targets", state_base)]
    edge_order = np.lexsort((targets, sources))
    return _ArrayAutomaton(
        _ArrayForm(
            automaton_id,
            list(map(names.__getitem__, by_name.tolist())),
            [code_names[code] for code in used.tolist()],
            order,
            rows[distinct].view(np.uint8).reshape(len(distinct), 32),
            mask_of,
            joined("start")[by_name],
            reporting,
            code_of,
            sources[edge_order],
            targets[edge_order],
        )
    )


def build_glushkov(
    pattern: Pattern,
    *,
    automaton_id: str = "glushkov",
    report_code: str | None = None,
    state_prefix: str = "p",
) -> HomogeneousAutomaton:
    """The homogeneous position automaton for ``pattern``
    (:func:`glushkov_fragment`), states named ``{state_prefix}{position}``,
    last positions reporting ``report_code``."""
    return concatenate(
        [glushkov_fragment(pattern)], [state_prefix], [report_code], automaton_id
    )
