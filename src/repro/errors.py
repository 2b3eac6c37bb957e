"""Exception hierarchy for the Cache Automaton reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the major
subsystems: automata construction, regex parsing, compilation/mapping, and
hardware-model configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class AutomatonError(ReproError):
    """Invalid automaton structure or an operation on an unsuitable automaton."""


class SymbolSetError(AutomatonError):
    """Invalid symbol, range, or symbol-set expression."""


class DeterminisationExplosion(AutomatonError):
    """Eager subset construction blew past its state budget."""


class StrideError(AutomatonError):
    """Invalid k-stride configuration (unsupported stride value or an
    alphabet the stride transform cannot represent)."""


class RegexError(ReproError):
    """Base class for regex-engine errors."""


class RegexSyntaxError(RegexError):
    """Malformed regular expression.

    Carries the pattern and the offset at which parsing failed so tooling
    can point at the offending character.
    """

    def __init__(self, message: str, pattern: str = "", position: int = -1):
        self.pattern = pattern
        self.position = position
        if position >= 0:
            message = f"{message} (at offset {position} in {pattern!r})"
        super().__init__(message)


class AnmlError(AutomatonError):
    """Malformed ANML document or unsupported ANML feature."""


class CompileError(ReproError):
    """The compiler could not map an automaton onto the target design."""


class CapacityError(CompileError):
    """The automaton does not fit in the configured cache capacity."""


class ConnectivityError(CompileError):
    """A mapping violates the interconnect's wire budget."""


class PartitioningError(ReproError):
    """The graph partitioner was given an infeasible request."""


class HardwareModelError(ReproError):
    """Inconsistent hardware-model parameters (geometry, timing, energy)."""


class SimulationError(ReproError):
    """The functional simulator was driven with invalid state or input."""


class JobsError(ReproError):
    """A worker count (``jobs=`` argument or its environment variable)
    that is neither an integer nor ``"auto"``."""


class BackendError(ReproError):
    """Unknown execution backend, or a backend request it cannot serve."""


class ArtifactError(ReproError):
    """A compiled-artifact payload is corrupt, incomplete, or does not
    belong to the (automaton, design) it was loaded against.

    The artifact cache treats this as "quarantine and recompile", never
    as a hard failure."""


class FaultError(ReproError):
    """Invalid fault-injection configuration or an uninjectable target."""


class DegradedModeWarning(RuntimeWarning):
    """A subsystem fell back to a slower but safe tier.

    Emitted (never raised) when the engine or compiler degrades
    gracefully instead of failing: parallel compilation dropping to the
    serial path, a corrupt cache artefact being quarantined and
    recompiled, or the mapped simulator giving way to the golden
    interpreter.  It derives from :class:`RuntimeWarning`, not
    :class:`ReproError`, because the operation still succeeds.
    """
