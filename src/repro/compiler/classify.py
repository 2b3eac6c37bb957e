"""Per-component structural classification and substrate cost model.

The cache-automaton design wins by routing each part of the workload to
the substrate it fits; the unit of routing is the weakly connected
component (CC), exactly the compiler's atomic mapping unit
(:mod:`repro.automata.components`).  This module computes, for every CC
of a homogeneous automaton:

* **structural features** — state count, edge count, fan-out density,
  byte-class count, symbol-set entropy, start-anchoredness — plus an
  **estimated determinisation growth** obtained by *bounded
  subset-closure probing*: a byte-class-compressed subset construction
  over the scanning semantics of just that CC, abandoned once a budget
  of distinct activation rows is exceeded.  The probe counts exactly the
  rows the lazy-DFA backend would hash-cons, so it predicts both the
  eager backend's blow-up and the lazy backend's cache pressure;
* a **cost model** — per-symbol microsecond estimates for running the CC
  on each candidate substrate, from the fixed coefficients of
  :class:`CostModel`;
* the resulting **partition assignment** — each CC is placed on the
  substrate with the lowest predicted cost.  DFA-friendly CCs (small
  subset closure) go to ``lazy-dfa``; subset-hostile CCs (the ones that
  abort eager determinisation and thrash the lazy cache) stay on the
  ``packed-kernel``, whose cost grows only with the packed word count.

The result serialises to flat numpy tables (``classify_*`` payload
members) carried by version-3 :class:`~repro.backends.artifact.
CompiledArtifact` payloads, and is consumed by the ``hybrid`` execution
backend (:mod:`repro.backends.hybrid`) and the ``repro classify`` CLI.

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
from repro.errors import AutomatonError

#: Candidate substrates, in preference order (ties go to the earlier
#: entry).  Order is part of the serialised format: ``classify_assignment``
#: stores indexes into this tuple.
SUBSTRATES: Tuple[str, ...] = ("lazy-dfa", "packed-kernel")

#: Feature-table columns, in ``classify_features`` column order.
FEATURE_COLUMNS: Tuple[str, ...] = (
    "states",
    "edges",
    "fan_out",
    "byte_classes",
    "symbol_entropy",
    "start_all_input",
    "start_anchored_fraction",
    "probe_states",
    "probe_aborted",
    "det_growth",
)

#: Hard cap on distinct activation rows the bounded probe will visit.
PROBE_BUDGET_CAP = 512

#: Serialised classification-table schema version (independent of the
#: artifact format version; bump when columns change meaning).
CLASSIFY_TABLE_VERSION = 1

#: Payload-member prefix for classification tables inside an artifact.
CLASSIFY_PREFIX = "classify_"


def default_probe_budget(state_count: int) -> int:
    """Row budget for one CC's subset-closure probe.

    Generous relative to the CC itself (a friendly CC's closure is a
    small multiple of its state count) but capped so a subset-hostile CC
    aborts quickly instead of enumerating an exponential closure.
    """
    return min(PROBE_BUDGET_CAP, max(48, 8 * state_count))


@dataclass(frozen=True)
class CostModel:
    """Per-symbol substrate cost coefficients, in microseconds.

    The defaults are fixed constants, not a live calibration: they were
    derived once from the PowerEN rates of the ``pr7-split-scan``
    measurement on a one-core host (3.84M warm lazy-DFA and 460k mapped
    symbols/s over PowerEN's 21 packed words) and have not moved since,
    because stored ``classify_model`` rows are compared with them
    (:func:`cached_substrates`): a changed constant invalidates every
    cached placement.

    * ``lazy_warm_us`` — one warm lazy-DFA transition (size-independent);
    * ``lazy_miss_us`` — one lazy-DFA cache miss (a packed kernel step
      plus hash-consing the new row); charged per symbol scaled by the
      predicted steady-state miss fraction;
    * ``kernel_base_us`` / ``kernel_word_us`` — the packed kernel's
      fixed per-symbol overhead and its per-64-state-word gather+OR cost;
    * ``dfa_budget`` — the transition-cache state budget assumed when
      predicting whether a CC's closure thrashes the lazy cache.
    """

    lazy_warm_us: float = 0.26
    lazy_miss_us: float = 25.0
    kernel_base_us: float = 0.2
    kernel_word_us: float = 0.094
    dfa_budget: int = 4096

    def lazy_cost_us(self, probe_states: float, aborted: bool) -> float:
        """Predicted per-symbol cost of the CC on the lazy-DFA backend."""
        if aborted:
            miss_fraction = 1.0
        else:
            half = self.dfa_budget / 2.0
            if probe_states <= half:
                miss_fraction = 0.0
            else:
                miss_fraction = min(1.0, (probe_states - half) / half)
        return self.lazy_warm_us + miss_fraction * self.lazy_miss_us

    def kernel_cost_us(self, state_count: int) -> float:
        """Predicted per-symbol cost of the CC on the packed kernel."""
        words = (state_count + 63) // 64
        return self.kernel_base_us + self.kernel_word_us * max(1, words)

    def as_dict(self) -> Dict[str, float]:
        return {
            "lazy_warm_us": self.lazy_warm_us,
            "lazy_miss_us": self.lazy_miss_us,
            "kernel_base_us": self.kernel_base_us,
            "kernel_word_us": self.kernel_word_us,
            "dfa_budget": self.dfa_budget,
        }

    def as_row(self) -> List[float]:
        """The coefficients as the ``classify_model`` table row."""
        return [float(value) for value in self.as_dict().values()]


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
    """Per-CC feature table, substrate costs, and partition assignment.

    ``components`` is the deterministic CC order of
    :func:`~repro.automata.components.connected_components`; row ``i``
    of ``features``/``costs``/``assignment`` describes ``components[i]``.
    ``substrates`` names the columns of ``costs`` and the codomain of
    ``assignment`` (indexes into it).
    """

    components: Tuple[Tuple[str, ...], ...]
    features: np.ndarray
    costs: np.ndarray
    assignment: np.ndarray
    substrates: Tuple[str, ...] = SUBSTRATES
    cost_model: CostModel = CostModel()

    @property
    def component_count(self) -> int:
        return len(self.components)

    def backend_of(self, component: int) -> str:
        return self.substrates[int(self.assignment[component])]

    def groups(self) -> List[Tuple[str, List[int]]]:
        """CC indexes grouped by assigned substrate, substrate order.

        Only substrates with at least one CC appear; the hybrid backend
        builds one sub-artifact per returned group.
        """
        grouped: List[Tuple[str, List[int]]] = []
        for index, substrate in enumerate(self.substrates):
            members = [
                component
                for component in range(self.component_count)
                if int(self.assignment[component]) == index
            ]
            if members:
                grouped.append((substrate, members))
        return grouped

    def feature(self, component: int, column: str) -> float:
        return float(self.features[component, FEATURE_COLUMNS.index(column)])

    def rows(self) -> List[Dict[str, object]]:
        """One plain-python dict per CC (CLI/report table rows)."""
        table: List[Dict[str, object]] = []
        for index, members in enumerate(self.components):
            row: Dict[str, object] = {
                "component": index,
                "representative": members[0],
            }
            for column_index, column in enumerate(FEATURE_COLUMNS):
                row[column] = float(self.features[index, column_index])
            for substrate_index, substrate in enumerate(self.substrates):
                row[f"cost_{substrate}_us"] = float(
                    self.costs[index, substrate_index]
                )
            row["backend"] = self.backend_of(index)
            table.append(row)
        return table

    # -- serialisation -----------------------------------------------------

    def to_tables(self) -> Dict[str, np.ndarray]:
        """Flat array tables (``classify_*`` artifact payload members)."""
        return {
            f"{CLASSIFY_PREFIX}version": np.asarray(
                CLASSIFY_TABLE_VERSION, dtype=np.int64
            ),
            f"{CLASSIFY_PREFIX}features": np.asarray(
                self.features, dtype=np.float64
            ),
            f"{CLASSIFY_PREFIX}costs": np.asarray(
                self.costs, dtype=np.float64
            ),
            f"{CLASSIFY_PREFIX}assignment": np.asarray(
                self.assignment, dtype=np.int32
            ),
            f"{CLASSIFY_PREFIX}substrates": np.asarray(self.substrates),
            f"{CLASSIFY_PREFIX}model": np.asarray(
                self.cost_model.as_row(), dtype=np.float64
            ),
        }

    @classmethod
    def from_tables(
        cls, tables: Dict[str, np.ndarray], automaton: HomogeneousAutomaton
    ) -> "ComponentClassification":
        """Rebuild from payload tables against the in-memory automaton.

        Component membership is reconstructed from the automaton (the CC
        order is deterministic), so only the per-CC rows travel in the
        payload; a row-count mismatch means the tables do not belong to
        this automaton and raises :class:`AutomatonError`.
        """
        try:
            version = int(tables[f"{CLASSIFY_PREFIX}version"])
            features = np.asarray(
                tables[f"{CLASSIFY_PREFIX}features"], dtype=np.float64
            )
            costs = np.asarray(
                tables[f"{CLASSIFY_PREFIX}costs"], dtype=np.float64
            )
            assignment = np.asarray(
                tables[f"{CLASSIFY_PREFIX}assignment"], dtype=np.int32
            )
            substrates = tuple(
                str(name)
                for name in np.asarray(
                    tables[f"{CLASSIFY_PREFIX}substrates"]
                ).reshape(-1)
            )
            model_row = np.asarray(
                tables[f"{CLASSIFY_PREFIX}model"], dtype=np.float64
            ).reshape(-1)
        except KeyError as error:
            raise AutomatonError(
                f"classification tables missing member {error}"
            ) from None
        if version != CLASSIFY_TABLE_VERSION:
            raise AutomatonError(
                f"unsupported classification-table version {version} "
                f"(expected {CLASSIFY_TABLE_VERSION})"
            )
        components = tuple(
            tuple(members) for members in connected_components(automaton)
        )
        if features.shape[0] != len(components) or assignment.shape[0] != len(
            components
        ):
            raise AutomatonError(
                "classification tables do not match the automaton "
                f"({features.shape[0]} rows for {len(components)} components)"
            )
        model = CostModel(
            lazy_warm_us=float(model_row[0]),
            lazy_miss_us=float(model_row[1]),
            kernel_base_us=float(model_row[2]),
            kernel_word_us=float(model_row[3]),
            dfa_budget=int(model_row[4]),
        )
        return cls(
            components=components,
            features=features,
            costs=costs,
            assignment=assignment,
            substrates=substrates,
            cost_model=model,
        )


def cached_substrates(
    tables: Dict[str, np.ndarray]
) -> Optional[List[str]]:
    """Each component's substrate as ``classify_*`` tables recorded it —
    what :func:`classify_automaton` with default arguments would assign —
    or ``None`` when the tables cannot stand in for that call: absent,
    written under another :data:`CLASSIFY_TABLE_VERSION`, substrate list
    or :class:`CostModel`, or malformed.
    """
    try:
        if (
            int(tables[f"{CLASSIFY_PREFIX}version"]) != CLASSIFY_TABLE_VERSION
            or tuple(tables[f"{CLASSIFY_PREFIX}substrates"].tolist())
            != SUBSTRATES
            or tables[f"{CLASSIFY_PREFIX}model"].tolist()
            != CostModel().as_row()
        ):
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
    cost_model: Optional[CostModel] = None,
    probe_budget: Optional[int] = None,
) -> ComponentClassification:
    """Classify every CC of ``automaton`` and assign it a substrate.

    ``probe_budget`` overrides the per-CC subset-closure row budget
    (default :func:`default_probe_budget`); ``cost_model`` overrides the
    calibrated coefficients.  Deterministic for a given automaton and
    arguments.
    """
    model = cost_model or CostModel()
    components = tuple(
        tuple(members) for members in connected_components(automaton)
    )
    features = np.zeros((len(components), len(FEATURE_COLUMNS)), dtype=np.float64)
    costs = np.zeros((len(components), len(SUBSTRATES)), dtype=np.float64)
    assignment = np.zeros(len(components), dtype=np.int32)
    for index, members in enumerate(components):
        state_count = len(members)
        member_set = set(members)
        edge_count = sum(
            len(automaton.successors(ste_id) & member_set)
            for ste_id in members
        )
        signatures = _component_byte_signatures(automaton, members)
        probe_states, aborted, byte_classes = probe_subset_closure(
            automaton, members, budget=probe_budget, signatures=signatures
        )
        starts = [
            automaton.ste(ste_id).start
            for ste_id in members
            if automaton.ste(ste_id).start is not StartKind.NONE
        ]
        all_input = sum(1 for start in starts if start is StartKind.ALL_INPUT)
        anchored_fraction = (
            (len(starts) - all_input) / len(starts) if starts else 0.0
        )
        growth = probe_states / max(1, state_count)
        features[index] = (
            state_count,
            edge_count,
            edge_count / max(1, state_count),
            byte_classes,
            _symbol_entropy(signatures),
            all_input,
            anchored_fraction,
            probe_states,
            1.0 if aborted else 0.0,
            growth,
        )
        lazy_cost = model.lazy_cost_us(probe_states, aborted)
        kernel_cost = model.kernel_cost_us(state_count)
        costs[index] = (lazy_cost, kernel_cost)
        assignment[index] = int(np.argmin(costs[index]))
    return ComponentClassification(
        components=components,
        features=features,
        costs=costs,
        assignment=assignment,
        substrates=SUBSTRATES,
        cost_model=model,
    )
