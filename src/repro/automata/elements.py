"""ANML circuit elements: boolean gates and counters (AP compatibility).

Micron's ANML is richer than pure homogeneous NFAs: besides STEs it has
combinational **boolean gates** (and/or/inverter) and **counters** with
latch / pulse / roll-over semantics.  The Cache Automaton paper maps only
STEs — which is why the compiler rejects circuits containing counters or
AND/NOT gates — but real ANMLZoo inputs use these elements, so the
library models them for front-end compatibility:

* :class:`CircuitAutomaton` — STEs + gates + counters with ported edges;
* :mod:`repro.sim.circuit` — a reference simulator for full circuits;
* :func:`lower_circuit` — rewrites what *can* run on Cache Automaton
  (OR gates are pure wiring; reporting ORs fold into their inputs) into a
  plain :class:`~repro.automata.anml.HomogeneousAutomaton`, and raises
  :class:`~repro.errors.CompileError` for counters/AND/NOT, the honest
  boundary of the paper's architecture.

Element semantics (per the AP SDK, as implemented by VASim):

* STEs match and activate exactly as in the homogeneous model;
* gates evaluate *combinationally within a cycle* on the activation
  signals of STEs, counters, and other gates (the gate network must be
  acyclic);
* a signal wired to an STE enables it for the *next* symbol;
* counters count activation events on their ``count`` port and are
  cleared by their ``reset`` port (reset wins over count): **latch**
  output stays high from target until reset; **pulse** fires for one
  cycle at target and holds until reset; **roll-over** fires for one
  cycle and restarts from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.automata.anml import HomogeneousAutomaton, StartKind, Ste
from repro.automata.symbols import SymbolSet
from repro.errors import AutomatonError, CompileError


class GateKind(Enum):
    AND = "and"
    OR = "or"
    NOT = "inverter"


class CounterMode(Enum):
    LATCH = "latch"
    PULSE = "pulse"
    ROLLOVER = "roll-over"


@dataclass(frozen=True)
class Gate:
    """A combinational boolean element."""

    gate_id: str
    kind: GateKind
    reporting: bool = False
    report_code: Optional[str] = None


@dataclass(frozen=True)
class Counter:
    """A saturating/rolling event counter with a target threshold."""

    counter_id: str
    target: int
    mode: CounterMode = CounterMode.LATCH
    reporting: bool = False
    report_code: Optional[str] = None

    def __post_init__(self):
        if self.target < 1:
            raise AutomatonError(
                f"counter {self.counter_id!r} target must be >= 1"
            )


#: Counter input ports.
PORT_ACTIVATE = "activate"
PORT_COUNT = "count"
PORT_RESET = "reset"


class CircuitAutomaton:
    """An ANML circuit: STEs, gates, and counters wired together."""

    def __init__(self, circuit_id: str = "circuit"):
        self.circuit_id = circuit_id
        self._stes: Dict[str, Ste] = {}
        self._gates: Dict[str, Gate] = {}
        self._counters: Dict[str, Counter] = {}
        #: (source, target, port) triples.
        self._edges: Set[Tuple[str, str, str]] = set()

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
        self._check_fresh(ste_id)
        if symbols.is_empty():
            raise AutomatonError(f"STE {ste_id!r} would match no symbol")
        ste = Ste(ste_id, symbols, start, reporting, report_code)
        self._stes[ste_id] = ste
        return ste

    def add_gate(
        self,
        gate_id: str,
        kind: GateKind,
        *,
        reporting: bool = False,
        report_code: Optional[str] = None,
    ) -> Gate:
        self._check_fresh(gate_id)
        gate = Gate(gate_id, kind, reporting, report_code)
        self._gates[gate_id] = gate
        return gate

    def add_counter(
        self,
        counter_id: str,
        target: int,
        *,
        mode: CounterMode = CounterMode.LATCH,
        reporting: bool = False,
        report_code: Optional[str] = None,
    ) -> Counter:
        self._check_fresh(counter_id)
        counter = Counter(counter_id, target, mode, reporting, report_code)
        self._counters[counter_id] = counter
        return counter

    def connect(self, source: str, target: str, *, port: str = PORT_ACTIVATE):
        """Wire ``source``'s output to ``target`` (on ``port`` for counters)."""
        if source not in self:
            raise AutomatonError(f"unknown source element {source!r}")
        if target not in self:
            raise AutomatonError(f"unknown target element {target!r}")
        if target in self._counters:
            if port not in (PORT_COUNT, PORT_RESET):
                raise AutomatonError(
                    f"counter {target!r} accepts ports "
                    f"'{PORT_COUNT}'/'{PORT_RESET}', not {port!r}"
                )
        elif port != PORT_ACTIVATE:
            raise AutomatonError(
                f"{target!r} is not a counter; only the "
                f"'{PORT_ACTIVATE}' port exists"
            )
        self._edges.add((source, target, port))

    def _check_fresh(self, element_id: str):
        if element_id in self:
            raise AutomatonError(f"duplicate element id {element_id!r}")

    # -- queries -----------------------------------------------------------

    def __contains__(self, element_id: str) -> bool:
        return (
            element_id in self._stes
            or element_id in self._gates
            or element_id in self._counters
        )

    def __len__(self) -> int:
        return len(self._stes) + len(self._gates) + len(self._counters)

    def stes(self) -> Iterator[Ste]:
        return iter(self._stes.values())

    def gates(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def ste(self, ste_id: str) -> Ste:
        return self._stes[ste_id]

    def gate(self, gate_id: str) -> Gate:
        return self._gates[gate_id]

    def counter(self, counter_id: str) -> Counter:
        return self._counters[counter_id]

    def edges(self) -> Iterator[Tuple[str, str, str]]:
        return iter(sorted(self._edges))

    def inputs_to(self, element_id: str, port: str = PORT_ACTIVATE) -> List[str]:
        return sorted(
            source
            for source, target, edge_port in self._edges
            if target == element_id and edge_port == port
        )

    def reporting_elements(self) -> List[str]:
        names = [s.ste_id for s in self._stes.values() if s.reporting]
        names += [g.gate_id for g in self._gates.values() if g.reporting]
        names += [c.counter_id for c in self._counters.values() if c.reporting]
        return sorted(names)

    # -- validation ----------------------------------------------------------

    def gate_evaluation_order(self) -> List[str]:
        """Topological order of the gate network (gates only).

        Gates evaluate combinationally, so a cycle through gates is a
        combinational loop and is rejected.
        """
        dependencies: Dict[str, Set[str]] = {g: set() for g in self._gates}
        for source, target, _ in self._edges:
            if target in self._gates and source in self._gates:
                dependencies[target].add(source)
        order: List[str] = []
        resolved: Set[str] = set()
        visiting: Set[str] = set()

        def visit(gate_id: str):
            if gate_id in resolved:
                return
            if gate_id in visiting:
                raise AutomatonError(
                    f"combinational cycle through gate {gate_id!r}"
                )
            visiting.add(gate_id)
            for dependency in sorted(dependencies[gate_id]):
                visit(dependency)
            visiting.discard(gate_id)
            resolved.add(gate_id)
            order.append(gate_id)

        for gate_id in sorted(self._gates):
            visit(gate_id)
        return order

    def validate(self):
        if not self._stes:
            raise AutomatonError("circuit has no STEs")
        if not any(s.start is not StartKind.NONE for s in self._stes.values()):
            raise AutomatonError("circuit has no start states")
        for gate in self._gates.values():
            fan_in = len(self.inputs_to(gate.gate_id))
            if gate.kind is GateKind.NOT and fan_in != 1:
                raise AutomatonError(
                    f"inverter {gate.gate_id!r} needs exactly one input"
                )
            if gate.kind is not GateKind.NOT and fan_in < 1:
                raise AutomatonError(f"gate {gate.gate_id!r} has no inputs")
        for counter in self._counters.values():
            if not self.inputs_to(counter.counter_id, PORT_COUNT):
                raise AutomatonError(
                    f"counter {counter.counter_id!r} has no count input"
                )
        self.gate_evaluation_order()  # raises on combinational cycles


def lower_circuit(circuit: CircuitAutomaton) -> HomogeneousAutomaton:
    """Lower a circuit to a pure homogeneous automaton, where possible.

    OR gates are pure wiring: every (input -> OR -> output) pair becomes a
    direct edge, and a *reporting* OR folds its report onto each input
    element.  Counters, AND, and NOT gates have no STE encoding — the
    Cache Automaton architecture (and this compiler) handles only
    homogeneous NFAs, so their presence raises :class:`CompileError`.
    """
    circuit.validate()
    for counter in circuit.counters():
        raise CompileError(
            f"counter {counter.counter_id!r}: counters are not mappable to "
            "Cache Automaton STE arrays (AP-only feature)"
        )
    for gate in circuit.gates():
        if gate.kind is not GateKind.OR:
            raise CompileError(
                f"gate {gate.gate_id!r} ({gate.kind.value}): only OR gates "
                "lower to pure state wiring"
            )

    # Resolve each OR gate to its transitive STE inputs (gates may chain).
    def ste_sources(element_id: str, seen: frozenset = frozenset()) -> Set[str]:
        if element_id in seen:
            raise AutomatonError(f"combinational cycle at {element_id!r}")
        if element_id in {s.ste_id for s in circuit.stes()}:
            return {element_id}
        sources: Set[str] = set()
        for source in circuit.inputs_to(element_id):
            sources |= ste_sources(source, seen | {element_id})
        return sources

    lowered = HomogeneousAutomaton(circuit.circuit_id)
    reporting_extra: Dict[str, str] = {}
    for gate in circuit.gates():
        if gate.reporting:
            for source in ste_sources(gate.gate_id):
                reporting_extra[source] = gate.report_code or gate.gate_id

    for ste in circuit.stes():
        reporting = ste.reporting or ste.ste_id in reporting_extra
        report_code = ste.report_code
        if ste.ste_id in reporting_extra and report_code is None:
            report_code = reporting_extra[ste.ste_id]
        lowered.add_ste(
            ste.ste_id,
            ste.symbols,
            start=ste.start,
            reporting=reporting,
            report_code=report_code,
        )

    # Direct STE->STE edges plus the flattened OR wiring.
    for source, target, port in circuit.edges():
        if port != PORT_ACTIVATE or target not in {
            s.ste_id for s in circuit.stes()
        }:
            continue
        for real_source in ste_sources(source):
            lowered.add_edge(real_source, target)
    return lowered
