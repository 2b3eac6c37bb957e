"""Placement: whether a ruleset runs on the lazy DFA or the packed kernel.

The unit of placement is the weakly connected component (CC), the
compiler's atomic mapping unit (:mod:`repro.automata.components`).  Per
CC the question is one thing: whether its **bounded subset-closure
probe** closes — a byte-class-compressed subset construction over the
scanning semantics of just that CC, abandoned once a budget of distinct
activation rows is exceeded.  The probe counts exactly the rows a lazy
DFA would hash-cons, so a closed probe means the CC determinises cheaply
and an aborted one means it would blow up an eager DFA and thrash a lazy
one.

The engine's ``auto=True`` decision is :func:`place_automaton`: the
ruleset runs on ``lazy-dfa`` when every CC's probe closes, and whole on
``packed-kernel`` otherwise, so it probes the CCs in order and stops at
the first probe that aborts.  The :class:`Placement` it returns — the
substrate, the deciding CC and the CC count — is what travels with the
artifact (:meth:`Placement.to_tables`, read back by
:func:`cached_placement`).

The census, :func:`classify_automaton`, probes every CC to its budget
and keeps a few structural features beside each verdict — state count,
byte classes, symbol-set entropy, the probe's row count and the growth
it implies — for ``repro classify`` and the benchmark's layer probe.
No engine reads it.

Both read the automaton's array form, never its per-state objects: the
CC grouping (:func:`~repro.automata.components.component_order`), every
CC's probe inputs and key (``_components``) are a few bulk numpy steps,
and the byte signatures of a batch of CCs one
:func:`~repro.automata.symbols.byte_signature_words` call.  A probe's
answer depends on the CC's content only — member masks and start kinds,
local edges, budget — so it is memoised in process (:data:`VERDICTS`,
bounded by :data:`VERDICT_MEMO_BYTES`): a rule list edited in one rule
probes that rule's CC only, and gets the :class:`Placement` a fresh
probe would.

Everything here is deterministic: component order is the deterministic
:func:`~repro.automata.components.connected_components` order, the probe
iterates byte classes in first-byte order, and no wall-clock or RNG
input enters the features or the decision — the same automaton always
yields the same placement, regardless of ``compile_jobs`` or process
count.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.automata.anml import (
    START_KINDS,
    HomogeneousAutomaton,
    StartKind,
    _ArrayForm,
)
from repro.automata.components import component_order
from repro.automata.symbols import byte_signature_words, byte_signatures
from repro.memo import BoundedMemo

#: A component's substrate, indexed by whether its probe aborted.
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

#: Serialised placement-table schema version (independent of the
#: artifact format version; bump when the tables change meaning).
#: Tables of another version are no decision: the ruleset is placed
#: again and the tables rewritten.  Version 2 held the census's
#: per-component assignment.
CLASSIFY_TABLE_VERSION = 3

#: Payload-member prefix for placement tables inside an artifact.
CLASSIFY_PREFIX = "classify_"

#: Bytes of probe verdicts the process keeps: an entry is its component's
#: key (33 bytes a member, 8 an edge) plus a fixed overhead.
VERDICT_MEMO_BYTES = 4 << 20

_VERDICT_OVERHEAD_BYTES = 256

#: ``(component key, budget) -> (rows, aborted, byte classes)`` of the
#: probes run in this process (see :func:`probe_subset_closure`).
VERDICTS = BoundedMemo(VERDICT_MEMO_BYTES)

#: A member's key record: its 32-byte mask and its start kind.
_RECORD_BYTES = 33

_ALL_INPUT = START_KINDS.index(StartKind.ALL_INPUT)
_START_OF_DATA = START_KINDS.index(StartKind.START_OF_DATA)


def default_probe_budget(state_count: int) -> int:
    """Row budget for one CC's subset-closure probe.

    Generous relative to the CC itself (a friendly CC's closure is a
    small multiple of its state count) but capped so a subset-hostile CC
    aborts quickly instead of enumerating an exponential closure.
    """
    return min(PROBE_BUDGET_CAP, max(48, 8 * state_count))


class _Component(NamedTuple):
    """One CC's probe inputs, free of STE ids: per member, in member
    order, its row of the automaton's mask table and its start kind's
    index; its edges as member indices in (source, target) order; and
    ``key``, the member count, each member's 32-byte mask and start kind
    and the edges, as bytes — equal keys give equal probes.  ``masks`` is
    the automaton's whole mask table."""

    masks: np.ndarray
    mask_rows: np.ndarray
    start: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    key: bytes


def _components(
    form: _ArrayForm, members: np.ndarray, bounds: Sequence[int]
) -> List[_Component]:
    """The probe inputs of the member groups ``members[bounds[c]:bounds[c
    + 1]]`` (indices into ``form.ids``), with the edges inside each group,
    in one vectorised pass over the array form."""
    bounds = np.asarray(bounds, dtype=np.int64)
    count = len(bounds) - 1
    sizes = np.diff(bounds)
    group = np.full(len(form.ids), -1, dtype=np.int64)
    group[members] = np.repeat(np.arange(count), sizes)
    local = np.zeros(len(form.ids), dtype=np.int64)
    local[members] = np.arange(len(members)) - np.repeat(bounds[:-1], sizes)
    inside = (group[form.sources] >= 0) & (
        group[form.sources] == group[form.targets]
    )
    edge_group = group[form.sources][inside]
    sources = local[form.sources][inside].astype(np.int32)
    targets = local[form.targets][inside].astype(np.int32)
    by_group = np.lexsort((targets, sources, edge_group))
    edge_group, sources, targets = (
        edge_group[by_group], sources[by_group], targets[by_group]
    )
    edge_bounds = np.searchsorted(edge_group, np.arange(count + 1)).tolist()
    mask_rows, start = form.mask_of[members], form.start[members]
    records = np.concatenate(
        [form.masks[mask_rows], start[:, None]], axis=1
    ).tobytes()
    edges = np.stack([sources, targets], axis=1).tobytes()
    bounds = bounds.tolist()
    components = []
    for index in range(count):
        low, high = bounds[index], bounds[index + 1]
        edge_low, edge_high = edge_bounds[index], edge_bounds[index + 1]
        components.append(
            _Component(
                form.masks,
                mask_rows[low:high],
                start[low:high],
                sources[edge_low:edge_high],
                targets[edge_low:edge_high],
                (high - low).to_bytes(4, "little")
                + records[low * _RECORD_BYTES : high * _RECORD_BYTES]
                + edges[edge_low * 8 : edge_high * 8],
            )
        )
    return components


def _all_components(
    automaton: HomogeneousAutomaton,
) -> Tuple[List[List[str]], List[_Component]]:
    """Every CC of ``automaton`` in :func:`~repro.automata.components.
    connected_components` order: its member ids and its probe inputs."""
    form = automaton._array_form()
    members, bounds = component_order(len(form.ids), form.sources, form.targets)
    ordered = list(map(form.ids.__getitem__, members.tolist()))
    edges = bounds.tolist()
    names = [ordered[low:high] for low, high in zip(edges, edges[1:])]
    return names, _components(form, members, bounds)


def _component_of(
    automaton: HomogeneousAutomaton, members: Sequence[str]
) -> _Component:
    """The probe inputs of the CC ``members`` of ``automaton``."""
    index = automaton.edge_index_arrays().index
    positions = np.fromiter(map(index.__getitem__, members), np.int64, len(members))
    return _components(automaton._array_form(), positions, [0, len(members)])[0]


def _signatures(component: _Component) -> List[int]:
    """Per-byte member-match bitmasks for one CC: ``result[b]`` has bit
    ``i`` set iff member ``i`` matches byte ``b``; bytes with identical
    signatures are one equivalence class of the CC's alphabet."""
    size = len(component.mask_rows)
    return byte_signatures(
        component.masks, component.mask_rows, np.arange(size), size
    )


def _batch_signatures(components: Sequence[_Component]) -> List[List[int]]:
    """:func:`_signatures` of each of one automaton's ``components``;
    those of up to 64 members in one :func:`byte_signature_words` pass."""
    small = [
        index
        for index, component in enumerate(components)
        if len(component.mask_rows) <= 64
    ]
    found: Dict[int, List[int]] = {}
    if small:
        sizes = [len(components[index].mask_rows) for index in small]
        offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
        words = byte_signature_words(
            components[small[0]].masks,
            np.concatenate([components[index].mask_rows for index in small]),
            np.arange(offsets.size) - offsets,
            64,
            np.repeat(np.arange(len(small)), sizes),
            len(small),
        )
        found = dict(zip(small, words[:, :, 0].tolist()))
    return [
        found[index] if index in found else _signatures(component)
        for index, component in enumerate(components)
    ]


def _component_byte_signatures(
    automaton: HomogeneousAutomaton, members: Sequence[str]
) -> List[int]:
    """:func:`_signatures` of the CC ``members`` of ``automaton``."""
    return _signatures(_component_of(automaton, members))


def probe_subset_closure(
    automaton: HomogeneousAutomaton,
    members: Sequence[str],
    *,
    budget: Optional[int] = None,
    signatures: Optional[Sequence[int]] = None,
    component: Optional[_Component] = None,
) -> Tuple[int, bool, int]:
    """Bounded subset-closure probe of one CC's scanning semantics.

    Runs a byte-class-compressed subset construction over the activation
    rows of the CC alone — the exact rows the lazy-DFA backend would
    hash-cons — and stops as soon as more than ``budget`` distinct rows
    exist.  Returns ``(rows_visited, aborted, byte_classes)``; when
    ``aborted`` is True the closure is larger than the budget (possibly
    exponentially so).  ``signatures`` are the CC's
    :func:`_component_byte_signatures` and ``component`` its probe
    inputs, for a caller that already has them.

    The answer depends on the CC's content only — its members' masks and
    start kinds and its edges, whatever the states are called — so an
    equal CC probed before at the same budget, in this automaton or
    another, is answered from the verdict memo (:data:`VERDICTS`).

    Deterministic: the worklist is ordered, byte classes are iterated in
    first-occurrence order, and rows are Python ints.
    """
    if not members:
        return 0, False, 0
    if component is None:
        component = _component_of(automaton, members)
    size = len(component.mask_rows)
    if budget is None:
        budget = default_probe_budget(size)
    key = (component.key, budget)
    verdict = VERDICTS.get(key)
    if verdict is not None:
        return verdict
    if signatures is None:
        signatures = _signatures(component)
    # Distinct byte classes, in first-byte order.
    classes = list(dict.fromkeys(signatures))
    successor_mask = [0] * size
    for source, target in zip(
        component.sources.tolist(), component.targets.tolist()
    ):
        successor_mask[source] |= 1 << target
    all_input_mask = sod_mask = 0
    for position, start in enumerate(component.start.tolist()):
        if start == _ALL_INPUT:
            all_input_mask |= 1 << position
        elif start == _START_OF_DATA:
            sod_mask |= 1 << position
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
    verdict = (len(seen), aborted, len(classes))
    VERDICTS.put(key, verdict, len(component.key) + _VERDICT_OVERHEAD_BYTES)
    return verdict


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
    names, inputs = _all_components(automaton)
    components = tuple(map(tuple, names))
    features = np.zeros((len(components), len(FEATURE_COLUMNS)), dtype=np.float64)
    assignment = np.zeros(len(components), dtype=np.int32)
    for index, (members, component, signatures) in enumerate(
        zip(components, inputs, _batch_signatures(inputs))
    ):
        probe_states, aborted, byte_classes = probe_subset_closure(
            automaton,
            members,
            budget=probe_budget,
            signatures=signatures,
            component=component,
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


class Placement(NamedTuple):
    """The ``auto=True`` decision for one automaton.

    ``substrate`` is ``lazy-dfa`` when every one of the
    ``component_count`` CCs' probes closes, else ``packed-kernel``;
    ``component`` is the index (in ``connected_components`` order) of
    the first CC whose probe aborts, ``None`` when none does.  An
    automaton without components runs on the packed kernel.
    """

    substrate: str
    component: Optional[int]
    component_count: int

    def reason(self) -> str:
        """Why, in words, for a health event or ``repro classify``."""
        if self.component is not None:
            return (
                f"component {self.component} of {self.component_count} "
                "exceeds its subset-closure budget"
            )
        if self.component_count:
            return (
                f"all {self.component_count} components' subset-closure "
                "probes close"
            )
        return "no component to probe"

    def to_tables(self) -> Dict[str, np.ndarray]:
        """The decision as flat ``classify_*`` artifact payload members."""
        return {
            f"{CLASSIFY_PREFIX}version": np.asarray(
                CLASSIFY_TABLE_VERSION, dtype=np.int64
            ),
            f"{CLASSIFY_PREFIX}substrate": np.asarray(self.substrate),
            f"{CLASSIFY_PREFIX}component": np.asarray(
                -1 if self.component is None else self.component,
                dtype=np.int64,
            ),
            f"{CLASSIFY_PREFIX}components": np.asarray(
                self.component_count, dtype=np.int64
            ),
        }


def cached_placement(tables: Dict[str, np.ndarray]) -> Optional[Placement]:
    """The decision ``classify_*`` tables recorded — what
    :func:`place_automaton` would return — or ``None`` when the tables
    cannot stand in for that call: absent, written under another
    :data:`CLASSIFY_TABLE_VERSION`, or malformed.
    """
    try:
        version, substrate, component, count = (
            tables[f"{CLASSIFY_PREFIX}{name}"].item()
            for name in ("version", "substrate", "component", "components")
        )
        if operator.index(version) != CLASSIFY_TABLE_VERSION:
            return None
        component, count = operator.index(component), operator.index(count)
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    hostile = component >= 0 or count == 0
    if not -1 <= component < count or substrate != SUBSTRATES[hostile]:
        return None
    return Placement(substrate, None if component < 0 else component, count)


def place_automaton(automaton: HomogeneousAutomaton) -> Placement:
    """The ``auto=True`` decision: probe the CCs in
    :func:`~repro.automata.components.connected_components` order at the
    default budget and stop at the first probe that aborts — one hostile
    component sends the whole ruleset to the packed kernel, so the rest
    cannot change the answer.  Computes no feature; equal to the
    census's verdict (:func:`classify_automaton`) by construction.
    """
    names, components = _all_components(automaton)
    unseen = [
        index
        for index, component in enumerate(components)
        if (component.key, default_probe_budget(len(component.mask_rows)))
        not in VERDICTS
    ]
    signatures: Dict[int, List[int]] = {}
    batch = 4
    for index, (members, component) in enumerate(zip(names, components)):
        at = bisect_left(unseen, index)
        if index not in signatures and unseen[at : at + 1] == [index]:
            # The next unseen CCs' signatures in one pass, twice as many
            # each time: an early abort wastes little, and a ruleset
            # probed to the end takes a few passes.
            chosen = unseen[at : at + batch]
            signatures = dict(
                zip(chosen, _batch_signatures([components[i] for i in chosen]))
            )
            batch *= 2
        if probe_subset_closure(
            automaton,
            members,
            signatures=signatures.get(index),
            component=component,
        )[1]:
            return Placement(SUBSTRATES[1], index, len(components))
    return Placement(SUBSTRATES[not components], None, len(components))
