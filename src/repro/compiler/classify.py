"""Per-component placement: which substrate a connected component fits.

The cache-automaton design wins by routing each part of the workload to
the substrate it fits; the unit of routing is the weakly connected
component (CC), exactly the compiler's atomic mapping unit
(:mod:`repro.automata.components`).  This module decides, for every CC
of a homogeneous automaton, one thing: whether its **bounded
subset-closure probe** closes — a byte-class-compressed subset
construction over the scanning semantics of just that CC, abandoned once
a budget of distinct activation rows is exceeded.  The probe counts
exactly the rows a lazy DFA would hash-cons, so a closed probe means the
CC determinises cheaply (``lazy-dfa``) and an aborted one means it would
blow up an eager DFA and thrash a lazy one (``packed-kernel``, whose
step cache is one lazily determinised table per component).

Beside the decision the classifier keeps a few structural features —
state count, byte classes, symbol-set entropy, the probe's row count and
the growth it implies — for ``repro classify`` to print.  What travels
with the artifact is the decision alone: ``classify_version`` and
``classify_assignment`` (:meth:`ComponentClassification.to_tables`,
read back by :func:`cached_substrates`).

Everything here is deterministic: component order is the deterministic
:func:`~repro.automata.components.connected_components` order, the probe
iterates byte classes in first-byte order, and no wall-clock or RNG
input enters the features or the assignment — the same automaton always
yields the same placement, regardless of ``compile_jobs`` or process
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.anml import HomogeneousAutomaton, StartKind
from repro.automata.components import connected_components
from repro.automata.symbols import byte_signatures

#: A component's substrate, indexed by whether its probe aborted;
#: ``classify_assignment`` stores those indexes.
SUBSTRATES: Tuple[str, ...] = ("lazy-dfa", "packed-kernel")

#: Feature-table columns, in ``features`` column order.
FEATURE_COLUMNS: Tuple[str, ...] = (
    "states",
    "byte_classes",
    "symbol_entropy",
    "probe_states",
    "probe_aborted",
    "det_growth",
)

#: Hard cap on distinct activation rows the bounded probe will visit.
PROBE_BUDGET_CAP = 512

#: Serialised classification-table schema version (independent of the
#: artifact format version; bump when the tables change meaning).
#: Tables of another version are no decision: the ruleset is classified
#: again and the tables rewritten.
CLASSIFY_TABLE_VERSION = 2

#: Payload-member prefix for classification tables inside an artifact.
CLASSIFY_PREFIX = "classify_"


def default_probe_budget(state_count: int) -> int:
    """Row budget for one CC's subset-closure probe.

    Generous relative to the CC itself (a friendly CC's closure is a
    small multiple of its state count) but capped so a subset-hostile CC
    aborts quickly instead of enumerating an exponential closure.
    """
    return min(PROBE_BUDGET_CAP, max(48, 8 * state_count))


def _component_byte_signatures(
    automaton: HomogeneousAutomaton, members: Sequence[str]
) -> List[int]:
    """Per-byte member-match bitmasks for one CC.

    ``result[b]`` has bit ``i`` set iff ``members[i]`` matches byte
    ``b``; bytes with identical signatures are one equivalence class of
    the CC's alphabet.
    """
    return byte_signatures(
        (automaton.ste(ste_id).symbols.mask, 1 << position)
        for position, ste_id in enumerate(members)
    )


def probe_subset_closure(
    automaton: HomogeneousAutomaton,
    members: Sequence[str],
    *,
    budget: Optional[int] = None,
    signatures: Optional[Sequence[int]] = None,
) -> Tuple[int, bool, int]:
    """Bounded subset-closure probe of one CC's scanning semantics.

    Runs a byte-class-compressed subset construction over the activation
    rows of the CC alone — the exact rows the lazy-DFA backend would
    hash-cons — and stops as soon as more than ``budget`` distinct rows
    exist.  Returns ``(rows_visited, aborted, byte_classes)``; when
    ``aborted`` is True the closure is larger than the budget (possibly
    exponentially so).  ``signatures`` are the CC's
    :func:`_component_byte_signatures`, for a caller that already has them.

    Deterministic: the worklist is ordered, byte classes are iterated in
    first-occurrence order, and rows are Python ints.
    """
    if not members:
        return 0, False, 0
    if budget is None:
        budget = default_probe_budget(len(members))
    position = {ste_id: index for index, ste_id in enumerate(members)}
    if signatures is None:
        signatures = _component_byte_signatures(automaton, members)
    # Distinct byte classes, in first-byte order.
    classes: List[int] = []
    seen_signatures = set()
    for signature in signatures:
        if signature not in seen_signatures:
            seen_signatures.add(signature)
            classes.append(signature)
    successor_mask = [0] * len(members)
    all_input_mask = 0
    sod_mask = 0
    for ste_id in members:
        source = position[ste_id]
        for target in automaton.successors(ste_id):
            if target in position:
                successor_mask[source] |= 1 << position[target]
        start = automaton.ste(ste_id).start
        if start is StartKind.ALL_INPUT:
            all_input_mask |= 1 << source
        elif start is StartKind.START_OF_DATA:
            sod_mask |= 1 << source
    # The initial configuration: nothing active, start-of-data pending.
    # Its successors activate both start kinds; afterwards only the
    # all-input starts self-enable.
    seen = {0}
    worklist = [(0, True)]
    aborted = False
    while worklist:
        row, sod_pending = worklist.pop()
        enabled = all_input_mask
        if sod_pending:
            enabled |= sod_mask
        remaining = row
        while remaining:
            low = remaining & -remaining
            enabled |= successor_mask[low.bit_length() - 1]
            remaining ^= low
        for signature in classes:
            successor = enabled & signature
            if successor not in seen:
                if len(seen) > budget:
                    aborted = True
                    worklist.clear()
                    break
                seen.add(successor)
                worklist.append((successor, False))
    return len(seen), aborted, len(classes)


def _symbol_entropy(signatures: Sequence[int]) -> float:
    """Shannon entropy (bits) of the CC's byte -> byte-class map.

    0 when every byte behaves identically (one class); up to 8 when all
    256 bytes are distinguishable.  High entropy marks rich symbol
    structure (ranges, case-folds) that widens the subset alphabet.
    """
    counts: Dict[int, int] = {}
    for signature in signatures:
        counts[signature] = counts.get(signature, 0) + 1
    entropy = 0.0
    for count in counts.values():
        p = count / 256.0
        entropy -= p * math.log2(p)
    return entropy


@dataclass(frozen=True)
class ComponentClassification:
    """Per-CC features and substrate assignment.

    ``components`` is the deterministic CC order of
    :func:`~repro.automata.components.connected_components`; row ``i``
    of ``features`` (:data:`FEATURE_COLUMNS`) and ``assignment`` (an
    index into :data:`SUBSTRATES`) describes ``components[i]``.
    """

    components: Tuple[Tuple[str, ...], ...]
    features: np.ndarray
    assignment: np.ndarray

    @property
    def component_count(self) -> int:
        return len(self.components)

    def backend_of(self, component: int) -> str:
        return SUBSTRATES[int(self.assignment[component])]

    def rows(self) -> List[Dict[str, object]]:
        """One plain-python dict per CC (CLI table rows)."""
        table: List[Dict[str, object]] = []
        for index, members in enumerate(self.components):
            row: Dict[str, object] = {
                "component": index,
                "representative": members[0],
            }
            for column_index, column in enumerate(FEATURE_COLUMNS):
                row[column] = float(self.features[index, column_index])
            row["backend"] = self.backend_of(index)
            table.append(row)
        return table

    def to_tables(self) -> Dict[str, np.ndarray]:
        """The decision as flat ``classify_*`` artifact payload members."""
        return {
            f"{CLASSIFY_PREFIX}version": np.asarray(
                CLASSIFY_TABLE_VERSION, dtype=np.int64
            ),
            f"{CLASSIFY_PREFIX}assignment": np.asarray(
                self.assignment, dtype=np.int32
            ),
        }


def cached_substrates(
    tables: Dict[str, np.ndarray]
) -> Optional[List[str]]:
    """Each component's substrate as ``classify_*`` tables recorded it —
    what :func:`classify_automaton` with default arguments would assign —
    or ``None`` when the tables cannot stand in for that call: absent,
    written under another :data:`CLASSIFY_TABLE_VERSION`, or malformed.
    """
    try:
        if int(tables[f"{CLASSIFY_PREFIX}version"]) != CLASSIFY_TABLE_VERSION:
            return None
        assignment = tables[f"{CLASSIFY_PREFIX}assignment"].tolist()
        if min(assignment, default=0) < 0:
            return None
        return [SUBSTRATES[index] for index in assignment]
    except (KeyError, IndexError, TypeError, ValueError, AttributeError):
        return None


def classify_automaton(
    automaton: HomogeneousAutomaton,
    *,
    probe_budget: Optional[int] = None,
) -> ComponentClassification:
    """Classify every CC of ``automaton``: ``lazy-dfa`` when its
    subset-closure probe closes within ``probe_budget`` rows (default
    :func:`default_probe_budget`), ``packed-kernel`` when it aborts.
    Deterministic for a given automaton and budget.
    """
    components = tuple(
        tuple(members) for members in connected_components(automaton)
    )
    features = np.zeros((len(components), len(FEATURE_COLUMNS)), dtype=np.float64)
    assignment = np.zeros(len(components), dtype=np.int32)
    for index, members in enumerate(components):
        signatures = _component_byte_signatures(automaton, members)
        probe_states, aborted, byte_classes = probe_subset_closure(
            automaton, members, budget=probe_budget, signatures=signatures
        )
        features[index] = (
            len(members),
            byte_classes,
            _symbol_entropy(signatures),
            probe_states,
            1.0 if aborted else 0.0,
            probe_states / max(1, len(members)),
        )
        assignment[index] = aborted
    return ComponentClassification(components, features, assignment)
