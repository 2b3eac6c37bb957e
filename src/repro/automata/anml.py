"""Homogeneous (ANML-style) automata — the Cache Automaton's native model.

In an ANML automaton every state has valid incoming transitions for only
one symbol set, so the state itself can carry the label: a state (called an
STE, *state transition element*) is active after step *t* iff some
predecessor was active at step *t-1* **and** the step-*t* input symbol is
in the state's label.  This is what lets the hardware evaluate state-match
as one SRAM row read and state-transition as a crossbar traversal.

This module provides the :class:`HomogeneousAutomaton` graph model plus
ANML-XML serialisation compatible with the format used by Micron's AP SDK
and the ANMLZoo benchmarks (the subset this library needs).
"""

from __future__ import annotations

import hashlib
import json
import operator
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set

import numpy as np

from repro.automata.charclass import parse_symbol_set
from repro.automata.symbols import SymbolSet
from repro.errors import AnmlError, AutomatonError


@dataclass(frozen=True)
class EdgeIndexArrays:
    """Integer-indexed view of an automaton's transition graph.

    ``ids`` is the lexically sorted state list; ``index`` maps each id to
    its position; ``sources``/``targets`` hold one entry per edge as
    positions into ``ids``.  Edge order is whatever the successor sets
    yield — canonicalise with :meth:`argsort_edges` when order matters.
    """

    ids: List[str]
    index: Dict[str, int]
    sources: np.ndarray
    targets: np.ndarray

    def argsort_edges(self) -> np.ndarray:
        """Permutation putting edges in (source, target) order."""
        return np.lexsort((self.targets, self.sources))


class StartKind(Enum):
    """When a state self-activates, independent of predecessors."""

    #: Never self-activates; only predecessor activation can enable it.
    NONE = "none"
    #: Active for the very first input symbol only (anchored match).
    START_OF_DATA = "start-of-data"
    #: Active for every input symbol (unanchored search).
    ALL_INPUT = "all-input"


#: Start kinds in the order :meth:`HomogeneousAutomaton.to_arrays` numbers
#: them (part of the stored layout).
START_KINDS = tuple(StartKind)
_START_INDEX = {kind: index for index, kind in enumerate(START_KINDS)}


@dataclass(frozen=True)
class Ste:
    """One state transition element: a labelled, flagged automaton state."""

    ste_id: str
    symbols: SymbolSet
    start: StartKind = StartKind.NONE
    reporting: bool = False
    report_code: Optional[str] = None

    def matches(self, symbol: int) -> bool:
        return self.symbols.matches(symbol)


class HomogeneousAutomaton:
    """A homogeneous NFA: labelled states + an unlabelled transition graph."""

    def __init__(self, automaton_id: str = "anml"):
        self.automaton_id = automaton_id
        self._stes: Dict[str, Ste] = {}
        self._successors: Dict[str, Set[str]] = {}
        self._predecessors: Dict[str, Set[str]] = {}
        #: Bumped on every structural mutation; lets derived values (e.g.
        #: the compile cache's content fingerprint) be memoised safely.
        self._mutation_version = 0
        self._edge_arrays: Optional[EdgeIndexArrays] = None
        self._edge_arrays_version = -1
        self._validated_version = -1
        self._fingerprint_memo = (-1, "")
        self._form_memo: tuple = (-1, None)

    # -- construction ------------------------------------------------------

    def add_ste(
        self,
        ste_id: str,
        symbols: SymbolSet,
        *,
        start: StartKind = StartKind.NONE,
        reporting: bool = False,
        report_code: Optional[str] = None,
    ) -> Ste:
        """Add a new STE; raises if the id already exists."""
        if ste_id in self._stes:
            raise AutomatonError(f"duplicate STE id {ste_id!r}")
        if symbols.is_empty():
            raise AutomatonError(f"STE {ste_id!r} would match no symbol")
        ste = Ste(ste_id, symbols, start, reporting, report_code)
        self._stes[ste_id] = ste
        self._successors[ste_id] = set()
        self._predecessors[ste_id] = set()
        self._mutation_version += 1
        return ste

    def add_edge(self, source: str, target: str):
        """Connect ``source`` to ``target`` (activate-on-match)."""
        if source not in self._stes:
            raise AutomatonError(f"unknown source STE {source!r}")
        if target not in self._stes:
            raise AutomatonError(f"unknown target STE {target!r}")
        self._successors[source].add(target)
        self._predecessors[target].add(source)
        self._mutation_version += 1

    def remove_ste(self, ste_id: str):
        """Delete an STE and all edges touching it."""
        if ste_id not in self._stes:
            raise AutomatonError(f"unknown STE {ste_id!r}")
        for target in self._successors.pop(ste_id):
            self._predecessors[target].discard(ste_id)
        for source in self._predecessors.pop(ste_id):
            self._successors[source].discard(ste_id)
        del self._stes[ste_id]
        self._mutation_version += 1

    def replace_ste(self, ste: Ste):
        """Swap in a modified copy of an existing STE (edges kept)."""
        if ste.ste_id not in self._stes:
            raise AutomatonError(f"unknown STE {ste.ste_id!r}")
        if ste.symbols.is_empty():
            raise AutomatonError(f"STE {ste.ste_id!r} would match no symbol")
        self._stes[ste.ste_id] = ste
        self._mutation_version += 1

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._stes)

    def __contains__(self, ste_id: str) -> bool:
        return ste_id in self._stes

    def ste(self, ste_id: str) -> Ste:
        try:
            return self._stes[ste_id]
        except KeyError:
            raise AutomatonError(f"unknown STE {ste_id!r}") from None

    def stes(self) -> Iterator[Ste]:
        return iter(self._stes.values())

    def report_code(self, ste_id: str) -> Optional[str]:
        """The report code of one STE (``None`` when it has none)."""
        return self.ste(ste_id).report_code

    def ste_ids(self) -> List[str]:
        return list(self._stes)

    def successors(self, ste_id: str) -> Set[str]:
        return set(self._successors[ste_id])

    def predecessors(self, ste_id: str) -> Set[str]:
        return set(self._predecessors[ste_id])

    def edges(self) -> Iterator[tuple[str, str]]:
        for source, targets in self._successors.items():
            for target in sorted(targets):
                yield (source, target)

    def edges_unordered(self) -> Iterator[tuple[str, str]]:
        """Edge iterator without the per-node target sort.

        Hot paths (constraint analysis, component finding, simulator table
        construction) only aggregate over edges, so they skip
        :meth:`edges`'s deterministic-order guarantee and its sort cost.
        """
        for source, targets in self._successors.items():
            for target in targets:
                yield (source, target)

    @property
    def mutation_version(self) -> int:
        """Monotonic counter of structural mutations (for memoisation)."""
        return self._mutation_version

    def edge_index_arrays(self) -> EdgeIndexArrays:
        """Cached integer edge view (rebuilt only after mutations).

        Component finding, constraint analysis, and cache fingerprinting
        all reduce over every edge; sharing one integer-array view turns
        each of those from a per-edge Python loop into array work.
        """
        if (
            self._edge_arrays is not None
            and self._edge_arrays_version == self._mutation_version
        ):
            return self._edge_arrays
        ids = sorted(self._stes)
        index = {ste_id: position for position, ste_id in enumerate(ids)}
        sources: List[int] = []
        targets: List[int] = []
        for ste_id, successor_set in self._successors.items():
            if successor_set:
                sources.extend([index[ste_id]] * len(successor_set))
                targets.extend(map(index.__getitem__, successor_set))
        self._edge_arrays = EdgeIndexArrays(
            ids,
            index,
            np.asarray(sources, dtype=np.int32),
            np.asarray(targets, dtype=np.int32),
        )
        self._edge_arrays_version = self._mutation_version
        return self._edge_arrays

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._successors.values())

    def start_states(self) -> List[Ste]:
        return [s for s in self._stes.values() if s.start is not StartKind.NONE]

    def reporting_states(self) -> List[Ste]:
        return [s for s in self._stes.values() if s.reporting]

    def out_degree(self, ste_id: str) -> int:
        return len(self._successors[ste_id])

    def in_degree(self, ste_id: str) -> int:
        return len(self._predecessors[ste_id])

    def average_fan_out(self) -> float:
        if not self._stes:
            return 0.0
        return self.edge_count() / len(self._stes)

    def validate(self):
        """Check invariants: starts exist, no dangling edges, labels non-empty.

        The per-edge checks are memoised on the mutation counter, so
        validating an unchanged automaton twice costs only the start-state
        scan.  The dangling check uses C-level set containment per node
        instead of a Python loop per edge.
        """
        if not self._stes:
            raise AutomatonError("automaton has no states")
        if not self.start_states():
            raise AutomatonError("automaton has no start states")
        if self._validated_version == self._mutation_version:
            return
        known = self._stes.keys()
        predecessors = self._predecessors
        for source, targets in self._successors.items():
            if not targets:
                continue
            if not targets <= known:
                target = min(targets - known)
                raise AutomatonError(f"edge {source!r}->{target!r} dangles")
            if not all(source in predecessors[target] for target in targets):
                target = next(
                    t for t in targets if source not in predecessors[t]
                )
                raise AutomatonError(
                    f"predecessor index out of sync for {source!r}->{target!r}"
                )
        self._validated_version = self._mutation_version

    # -- transformations ---------------------------------------------------

    def copy(self, automaton_id: Optional[str] = None) -> "HomogeneousAutomaton":
        duplicate = HomogeneousAutomaton(automaton_id or self.automaton_id)
        duplicate._stes = dict(self._stes)
        duplicate._successors = {k: set(v) for k, v in self._successors.items()}
        duplicate._predecessors = {k: set(v) for k, v in self._predecessors.items()}
        return duplicate

    def relabelled(self, prefix: str) -> "HomogeneousAutomaton":
        """A copy with states renamed ``{prefix}0..{prefix}N`` (stable order)."""
        renamed = HomogeneousAutomaton(self.automaton_id)
        self._insert_into(renamed, prefix)
        return renamed

    def _insert_into(self, other: "HomogeneousAutomaton", prefix: str):
        """Add this automaton's states, renamed ``{prefix}0..{prefix}N`` in
        their own order, and its edges to ``other``."""
        names = {old: f"{prefix}{index}" for index, old in enumerate(self._stes)}
        for old_id, ste in self._stes.items():
            other.add_ste(
                names[old_id],
                ste.symbols,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
            )
        for source, target in self.edges_unordered():
            other.add_edge(names[source], names[target])

    # -- array form ----------------------------------------------------------

    def _array_form(self) -> "_ArrayForm":
        """This automaton in the layout of :meth:`to_arrays`, memoised on
        the mutation counter (the placement probe, the kernel, the
        fingerprint and the cache entry all read it)."""
        version, form = self._form_memo
        if version == self._mutation_version:
            return form
        edge_arrays = self.edge_index_arrays()
        masks: Dict[int, int] = {}
        codes: Dict[str, int] = {}
        mask_of, start, reporting, code_of = [], [], [], []
        for ste in map(self._stes.__getitem__, edge_arrays.ids):
            mask_of.append(masks.setdefault(ste.symbols.mask, len(masks)))
            start.append(_START_INDEX[ste.start])
            reporting.append(ste.reporting)
            code_of.append(
                -1
                if ste.report_code is None
                else codes.setdefault(ste.report_code, len(codes))
            )
        edge_order = edge_arrays.argsort_edges()
        form = _ArrayForm(
            self.automaton_id,
            edge_arrays.ids,
            list(codes),
            order=np.fromiter(
                map(edge_arrays.index.__getitem__, self._stes),
                dtype=np.int32,
                count=len(self._stes),
            ),
            masks=np.frombuffer(
                b"".join(mask.to_bytes(32, "little") for mask in masks),
                dtype=np.uint8,
            ).reshape(len(masks), 32),
            mask_of=np.asarray(mask_of, dtype=np.int32),
            start=np.asarray(start, dtype=np.uint8),
            reporting=np.asarray(reporting, dtype=np.bool_),
            code_of=np.asarray(code_of, dtype=np.int32),
            sources=edge_arrays.sources[edge_order],
            targets=edge_arrays.targets[edge_order],
        )
        self._form_memo = (self._mutation_version, form)
        return form

    def _fingerprint(self, form: Optional["_ArrayForm"] = None) -> str:
        """:meth:`_ArrayForm.fingerprint` of this automaton, memoised on
        the mutation counter; ``form`` is its array form when the caller
        already holds it."""
        version, value = self._fingerprint_memo
        if version != self._mutation_version:
            if form is None:
                form = self._array_form()
            value = form.fingerprint()
            self._fingerprint_memo = (self._mutation_version, value)
        return value

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The automaton as flat arrays, the inverse of :meth:`from_arrays`.

        The layout is :meth:`edge_index_arrays`'s: per-state columns in
        sorted-id order, edges as index pairs into it, in (source, target)
        order — equal automata give equal arrays whatever order their
        successor sets iterate in.  ``order`` lists the states in
        insertion order, which ``stes()`` exposes and a copy must keep.
        The columns index tables of the *distinct* symbol masks and
        report codes; strings travel as one JSON document (lossless for
        any ``str``).
        """
        return self._array_form().arrays()

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray]
    ) -> "HomogeneousAutomaton":
        """Rebuild an automaton from :meth:`to_arrays` output.

        The arrays may come from disk, so everything :meth:`add_ste` and
        :meth:`add_edge` would have refused is refused here too — duplicate
        ids, empty symbol sets, edges to unknown states — along with any
        missing member, wrong shape or out-of-range index, all as
        :class:`AutomatonError`.  The ids are proven sorted and distinct by
        one pairwise pass, not by sorting them.

        Nothing per state is built here.  The automaton keeps the columns
        it validated, answers ``ste_ids()``, ``len``, ``in`` and ``ste()``
        from them, and builds its states and edge sets the first time any
        other method needs them.  Its :meth:`edge_index_arrays` view is the
        stored edge arrays, and its fingerprint is hashed from the columns
        now, so loading an entry and checking it costs no graph walk.
        """
        try:
            names = json.loads(bytes(arrays["names"]))
            automaton_id, ids, codes = names["id"], names["ids"], names["codes"]
            order = np.asarray(arrays["order"], dtype=np.int32)
            masks = np.asarray(arrays["masks"], dtype=np.uint8)
            mask_of = np.asarray(arrays["mask_of"], dtype=np.int32)
            start = np.asarray(arrays["start"], dtype=np.uint8)
            reporting = np.asarray(arrays["reporting"], dtype=np.bool_)
            code_of = np.asarray(arrays["code_of"], dtype=np.int32)
            sources = np.asarray(arrays["sources"], dtype=np.int32)
            targets = np.asarray(arrays["targets"], dtype=np.int32)
        except (KeyError, TypeError, ValueError) as error:
            raise AutomatonError(
                f"unreadable automaton arrays: {type(error).__name__}: {error}"
            ) from None

        def within(column: np.ndarray, low: int, high: int) -> bool:
            return column.size == 0 or (
                int(column.min()) >= low and int(column.max()) < high
            )

        count = len(ids) if isinstance(ids, list) else -1
        if not (
            isinstance(automaton_id, str)
            and isinstance(codes, list)
            and count >= 0
            and set(map(type, ids)) <= {str}
            and set(map(type, codes)) <= {str}
            and masks.ndim == 2
            and masks.shape[1] == 32
            and all(
                column.shape == (count,)
                for column in (order, mask_of, start, reporting, code_of)
            )
            and sources.ndim == 1
            and sources.shape == targets.shape
            and within(mask_of, 0, masks.shape[0])
            and within(start, 0, len(START_KINDS))
            and within(code_of, -1, len(codes))
            and within(sources, 0, count)
            and within(targets, 0, count)
        ):
            raise AutomatonError("malformed automaton arrays")
        # Strictly increasing: sorted, and so without repeats.
        if not all(map(operator.lt, ids, ids[1:])):
            raise AutomatonError("automaton arrays repeat or misorder STE ids")
        if not np.array_equal(np.sort(order), np.arange(count)):
            raise AutomatonError("automaton arrays' order is no permutation")
        edge_keys = sources.astype(np.int64) * count + targets
        if not (edge_keys[1:] > edge_keys[:-1]).all():
            raise AutomatonError("automaton arrays repeat or misorder edges")
        if masks.shape[0] and not masks.any(axis=1).all():
            raise AutomatonError("automaton arrays hold an empty symbol set")
        return _ArrayAutomaton(
            _ArrayForm(
                automaton_id,
                ids,
                codes,
                order,
                masks,
                mask_of,
                start,
                reporting,
                code_of,
                sources,
                targets,
            )
        )

    def __repr__(self) -> str:
        return (
            f"HomogeneousAutomaton({self.automaton_id!r}, states={len(self)},"
            f" edges={self.edge_count()}, starts={len(self.start_states())},"
            f" reports={len(self.reporting_states())})"
        )


class _ArrayForm(NamedTuple):
    """An automaton as :meth:`HomogeneousAutomaton.to_arrays` lays it out,
    with the id and code lists already out of their JSON document."""

    automaton_id: str
    ids: List[str]
    codes: List[str]
    order: np.ndarray
    masks: np.ndarray
    mask_of: np.ndarray
    start: np.ndarray
    reporting: np.ndarray
    code_of: np.ndarray
    sources: np.ndarray
    targets: np.ndarray

    def arrays(self) -> Dict[str, np.ndarray]:
        names = json.dumps(
            {"id": self.automaton_id, "ids": self.ids, "codes": self.codes}
        )
        arrays = {"names": np.frombuffer(names.encode("ascii"), dtype=np.uint8)}
        for field in self._fields[3:]:
            arrays[field] = getattr(self, field)
        return arrays

    def fingerprint(self) -> str:
        """SHA-256 of the columns: the state and edge counts as
        little-endian int64; the UTF-8 ids joined by ``\\0``; per state
        its 32-byte symbol mask (``masks[mask_of]``), then per state its
        start kind's index and report flag as bytes; the report codes as
        one JSON list and ``code_of`` (-1 for none) as little-endian
        int32; then ``sources`` and ``targets`` as little-endian int32 —
        a few bulk conversions, nothing per state in Python."""
        digest = hashlib.sha256(
            np.array([len(self.ids), len(self.sources)], "<i8").tobytes()
        )
        digest.update("\0".join(self.ids).encode("utf-8"))
        digest.update(b"\0")
        digest.update(self.masks[self.mask_of].tobytes())
        digest.update(self.start.astype(np.uint8).tobytes())
        digest.update(self.reporting.astype(np.uint8).tobytes())
        digest.update(json.dumps(self.codes).encode("ascii"))
        digest.update(self.code_of.astype("<i4").tobytes())
        digest.update(self.sources.astype("<i4").tobytes())
        digest.update(self.targets.astype("<i4").tobytes())
        return digest.hexdigest()


def _symbol_set(row: np.ndarray) -> SymbolSet:
    """The symbol set of one 32-byte little-endian mask row."""
    return SymbolSet.from_mask(int.from_bytes(row.tobytes(), "little"))


class _Decoded:
    """``_stes``, ``_successors`` and ``_predecessors`` of an
    :class:`_ArrayAutomaton` that has not built them: the first read
    decodes the object, whose own attributes then shadow this one."""

    def __get__(self, automaton, owner=None):
        if automaton is None:
            return self
        # Not automaton._decode: another thread may have decoded it, and
        # so changed its class, since the lookup that landed here.
        _ArrayAutomaton._decode(automaton)
        return vars(automaton)[self.name]

    def __set_name__(self, owner, name: str):
        self.name = name


class _ArrayAutomaton(HomogeneousAutomaton):
    """What :meth:`HomogeneousAutomaton.from_arrays` returns (the validated
    array form) and what the regex front end builds (the array form of
    its fragments, :func:`repro.regex.glushkov.concatenate`), decoded
    only as far as it is asked.

    ``ste_ids()``, ``len``, ``in``, ``ste()``, ``report_code()`` and
    ``validate()`` answer from the columns (a state's :class:`Ste` is made
    on its first ``ste()`` and kept).
    Every other method reads ``_stes``, ``_successors`` or
    ``_predecessors``, which this object lacks: the first such read lands
    in the class's :class:`_Decoded` attribute, which decodes all three
    and turns the object into a plain :class:`HomogeneousAutomaton`.  So
    an automaton built by ``add_ste`` pays nothing for this, and this one
    pays nothing more once decoded (a ``__getattr__`` hook would tax
    every attribute read, decoded or not: ~90 against ~20 ns).
    """

    def __init__(self, form: _ArrayForm):
        super().__init__(form.automaton_id)
        del self._stes, self._successors, self._predecessors
        self._form = form
        self._made: Dict[int, Ste] = {}
        self._report_codes: Optional[List[Optional[str]]] = None
        self._symbol_sets: List[Optional[SymbolSet]] = [None] * len(form.masks)
        self._edge_arrays = EdgeIndexArrays(
            form.ids,
            dict(zip(form.ids, range(len(form.ids)))),
            form.sources,
            form.targets,
        )
        self._edge_arrays_version = self._mutation_version
        self._form_memo = (self._mutation_version, form)
        self._fingerprint(form)

    _stes = _Decoded()
    _successors = _Decoded()
    _predecessors = _Decoded()

    def __len__(self) -> int:
        return len(self._form.ids)

    def __contains__(self, ste_id: str) -> bool:
        return ste_id in self._edge_arrays.index

    def ste_ids(self) -> List[str]:
        return list(map(self._form.ids.__getitem__, self._form.order.tolist()))

    def validate(self):
        # The columns were checked (or built) whole: no edge dangles.
        if not len(self):
            raise AutomatonError("automaton has no states")
        if not self._form.start.any():
            raise AutomatonError("automaton has no start states")

    def ste(self, ste_id: str) -> Ste:
        try:
            at = self._edge_arrays.index[ste_id]
        except KeyError:
            raise AutomatonError(f"unknown STE {ste_id!r}") from None
        made = self._made.get(at)
        if made is None:
            form, mask = self._form, int(self._form.mask_of[at])
            symbols = self._symbol_sets[mask]
            if symbols is None:
                symbols = _symbol_set(form.masks[mask])
                self._symbol_sets[mask] = symbols
            code = int(form.code_of[at])
            made = self._made[at] = Ste(
                ste_id,
                symbols,
                START_KINDS[form.start[at]],
                bool(form.reporting[at]),
                None if code < 0 else form.codes[code],
            )
        return made

    def report_code(self, ste_id: str) -> Optional[str]:
        try:
            at = self._edge_arrays.index[ste_id]
        except KeyError:
            raise AutomatonError(f"unknown STE {ste_id!r}") from None
        if self._report_codes is None:
            # Once, in bulk: a report decode asks for a few states' codes,
            # again and again.
            codes = self._form.codes + [None]  # what code_of's -1 selects
            self._report_codes = list(
                map(codes.__getitem__, self._form.code_of.tolist())
            )
        return self._report_codes[at]

    def _decode(self):
        """Every state at once, in bulk (reusing those ``ste()`` made),
        and the edge sets.  Each dict is complete before it is set, and
        the columns stay, so a reader in another thread never sees half
        a graph."""
        form, ids = self._form, self._form.ids
        symbol_sets = [
            _symbol_set(row) if symbols is None else symbols
            for symbols, row in zip(self._symbol_sets, form.masks)
        ]
        codes = form.codes + [None]  # what code_of's -1 selects
        made = list(
            map(
                Ste,
                ids,
                map(symbol_sets.__getitem__, form.mask_of.tolist()),
                map(START_KINDS.__getitem__, form.start.tolist()),
                form.reporting.tolist(),
                map(codes.__getitem__, form.code_of.tolist()),
            )
        )
        # A copy taken in one C call: a reader's ste() may add to _made.
        for at, ste in self._made.copy().items():
            made[at] = ste
        stes = {
            ste.ste_id: ste for ste in map(made.__getitem__, form.order.tolist())
        }
        successors = {ste_id: set() for ste_id in stes}
        predecessors = {ste_id: set() for ste_id in stes}
        for source, target in zip(
            map(ids.__getitem__, form.sources.tolist()),
            map(ids.__getitem__, form.targets.tolist()),
        ):
            successors[source].add(target)
            predecessors[target].add(source)
        self._successors, self._predecessors = successors, predecessors
        self._stes = stes
        self.__class__ = HomogeneousAutomaton


def merge(
    automata: Iterable[HomogeneousAutomaton], automaton_id: str = "merged"
) -> HomogeneousAutomaton:
    """Disjoint union of homogeneous automata (multi-pattern machine)."""
    combined = HomogeneousAutomaton(automaton_id)
    for index, automaton in enumerate(automata):
        automaton._insert_into(combined, f"m{index}_")
    return combined


# -- ANML XML serialisation -------------------------------------------------

_START_ATTRIBUTE = {
    StartKind.NONE: None,
    StartKind.START_OF_DATA: "start-of-data",
    StartKind.ALL_INPUT: "all-input",
}
_START_FROM_ATTRIBUTE = {v: k for k, v in _START_ATTRIBUTE.items() if v}


def to_anml(automaton: HomogeneousAutomaton) -> str:
    """Serialise to an ANML XML document string."""
    root = ElementTree.Element("anml-network", {"id": automaton.automaton_id})
    for ste in automaton.stes():
        attributes = {
            "id": ste.ste_id,
            "symbol-set": ste.symbols.canonical_expression(),
        }
        start_value = _START_ATTRIBUTE[ste.start]
        if start_value:
            attributes["start"] = start_value
        element = ElementTree.SubElement(
            root, "state-transition-element", attributes
        )
        for target in sorted(automaton.successors(ste.ste_id)):
            ElementTree.SubElement(element, "activate-on-match", {"element": target})
        if ste.reporting:
            report_attributes = {}
            if ste.report_code is not None:
                report_attributes["reportcode"] = ste.report_code
            ElementTree.SubElement(element, "report-on-match", report_attributes)
    ElementTree.indent(root)
    return ElementTree.tostring(root, encoding="unicode")


def from_anml(document: str) -> HomogeneousAutomaton:
    """Parse an ANML XML document produced by :func:`to_anml` (or the AP SDK)."""
    try:
        root = ElementTree.fromstring(document)
    except ElementTree.ParseError as error:
        raise AnmlError(f"not well-formed XML: {error}") from error
    if root.tag == "anml":
        networks = root.findall("automata-network") + root.findall("anml-network")
        if len(networks) != 1:
            raise AnmlError(f"expected exactly one network, found {len(networks)}")
        root = networks[0]
    elif root.tag not in ("anml-network", "automata-network"):
        raise AnmlError(f"unexpected root element <{root.tag}>")
    automaton = HomogeneousAutomaton(root.get("id", "anml"))
    pending_edges: List[tuple[str, str]] = []
    for element in root:
        if element.tag != "state-transition-element":
            raise AnmlError(f"unsupported ANML element <{element.tag}>")
        ste_id = element.get("id")
        if not ste_id:
            raise AnmlError("state-transition-element without id")
        expression = element.get("symbol-set")
        if expression is None:
            raise AnmlError(f"STE {ste_id!r} has no symbol-set")
        start_attribute = element.get("start")
        if start_attribute in (None, "none"):
            start = StartKind.NONE
        elif start_attribute in _START_FROM_ATTRIBUTE:
            start = _START_FROM_ATTRIBUTE[start_attribute]
        else:
            raise AnmlError(f"unknown start kind {start_attribute!r}")
        reporting = False
        report_code = None
        for child in element:
            if child.tag == "activate-on-match":
                target = child.get("element")
                if not target:
                    raise AnmlError(f"activate-on-match without element in {ste_id!r}")
                pending_edges.append((ste_id, target))
            elif child.tag == "report-on-match":
                reporting = True
                report_code = child.get("reportcode")
            else:
                raise AnmlError(f"unsupported child <{child.tag}> in {ste_id!r}")
        automaton.add_ste(
            ste_id,
            parse_symbol_set(expression),
            start=start,
            reporting=reporting,
            report_code=report_code,
        )
    for source, target in pending_edges:
        automaton.add_edge(source, target)
    return automaton


def with_report_codes(
    automaton: HomogeneousAutomaton, code: str
) -> HomogeneousAutomaton:
    """A copy where every reporting STE carries ``code`` as its report code."""
    updated = automaton.copy()
    for ste in list(updated.stes()):
        if ste.reporting and ste.report_code is None:
            updated.replace_ste(replace(ste, report_code=code))
    return updated
