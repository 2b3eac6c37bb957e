"""The compiled-artifact IR: one object every backend builds from.

A :class:`CompiledArtifact` is the complete, serialisable product of
compilation — the placement (:class:`~repro.compiler.mapping.Mapping`),
the packed simulator kernel tables, the k-stride alphabet, the
``auto=True`` placement decision, and the content fingerprints of both compiler inputs.
It is the single argument of every backend's ``from_artifact`` and the
one entry kind the artifact cache stores under
:func:`~repro.compiler.cache.cache_key`.

The payload (:meth:`CompiledArtifact.to_payload` /
:meth:`~CompiledArtifact.from_payload`, an array dict persisted as
``.npz``) holds the placement as the three arrays the mapping itself
holds — ``part``, ``slot`` (aligned with
``automaton.edge_index_arrays().ids``) and ``ways`` — so storing writes
them as they are and loading hands them straight to
:class:`~repro.compiler.mapping.Mapping`; beside them sit the
fingerprints, the stride, and the ``kernel_*`` / ``stride_*`` /
``classify_*`` tables.

Versions follow one rule: :data:`ARTIFACT_FORMAT_VERSION` is hashed into
the cache key, so changing the layout changes every address and entries
of another layout are never read.  The payload also records the version
it was written under; like the stored fingerprints it is re-verified on
load, and a mismatch — as any corrupt or unreadable member — raises
:class:`~repro.errors.ArtifactError`, which the cache turns into
"quarantine and recompile".
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.automata.anml import HomogeneousAutomaton
from repro.compiler.cache import automaton_fingerprint, design_fingerprint
from repro.compiler.mapping import Mapping
from repro.core.design import DesignPoint
from repro.errors import ArtifactError

#: The payload layout's version: bump it whenever a member is added,
#: dropped, or changes meaning.  Hashed into
#: :func:`~repro.compiler.cache.cache_key`, so entries of another layout
#: are simply never looked up again.
ARTIFACT_FORMAT_VERSION = 3

#: Payload member prefix under which kernel tables are stored.
_KERNEL_PREFIX = "kernel_"

#: Payload member prefix for the compressed stride-alphabet tables.
_STRIDE_PREFIX = "stride_"

#: Payload member prefix for the placement-decision tables.
_CLASSIFY_PREFIX = "classify_"


@dataclass(frozen=True)
class CompiledArtifact:
    """Everything needed to execute a compiled automaton on any backend.

    ``kernel_tables`` may be empty — backends that need the packed
    tables (see :attr:`~repro.backends.base.AutomatonBackend.
    consumes_kernel_tables`) rebuild them from the mapping when absent.
    """

    mapping: Mapping
    kernel_tables: Dict[str, np.ndarray] = field(default_factory=dict)
    automaton_fingerprint: str = ""
    design_fingerprint: str = ""
    #: Effective k-stride the artifact was compiled for (1 = unstrided).
    stride: int = 1
    #: Compressed stride-alphabet tables (``stride_k`` /
    #: ``stride_class_of`` / ``stride_reps``); empty when unstrided.
    stride_tables: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Placement-decision tables (``classify_version``,
    #: ``classify_substrate``, ``classify_component`` and
    #: ``classify_components``, see
    #: :meth:`repro.compiler.classify.Placement.to_tables`): the
    #: ``auto=True`` decision.  Empty until an ``auto=True`` engine
    #: attaches them; no backend reads them.
    classify_tables: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def automaton(self) -> HomogeneousAutomaton:
        """The automaton actually mapped (post any optimisation)."""
        return self.mapping.automaton

    @property
    def design(self) -> DesignPoint:
        return self.mapping.design

    @classmethod
    def from_mapping(
        cls,
        mapping: Mapping,
        kernel_tables: Optional[Dict[str, np.ndarray]] = None,
        *,
        stride: int = 1,
        stride_tables: Optional[Dict[str, np.ndarray]] = None,
    ) -> "CompiledArtifact":
        """Wrap a freshly compiled mapping, fingerprinting its inputs.

        ``stride`` enters the design fingerprint (when != 1), so strided
        and unstrided artifacts content-address separately.
        """
        return cls(
            mapping=mapping,
            kernel_tables=dict(kernel_tables or {}),
            automaton_fingerprint=automaton_fingerprint(mapping.automaton),
            design_fingerprint=design_fingerprint(
                mapping.design, stride=stride
            ),
            stride=stride,
            stride_tables=dict(stride_tables or {}),
        )

    def with_kernel_tables(
        self, kernel_tables: Dict[str, np.ndarray]
    ) -> "CompiledArtifact":
        """A copy of this artifact carrying ``kernel_tables``."""
        return replace(self, kernel_tables=dict(kernel_tables))

    def with_classify_tables(
        self, classify_tables: Dict[str, np.ndarray]
    ) -> "CompiledArtifact":
        """A copy carrying the placement-decision tables."""
        return replace(self, classify_tables=dict(classify_tables))

    # -- serialisation -----------------------------------------------------

    def to_payload(self) -> Dict[str, np.ndarray]:
        """The versioned array-dict payload persisted by the cache."""
        automaton = self.mapping.automaton
        payload: Dict[str, np.ndarray] = {
            "artifact_version": np.asarray(
                ARTIFACT_FORMAT_VERSION, dtype=np.int64
            ),
            "part": self.mapping.part,
            "slot": self.mapping.slot,
            "ways": self.mapping.ways,
            "fingerprint": np.asarray(
                self.automaton_fingerprint
                or automaton_fingerprint(automaton)
            ),
            "design": np.asarray(
                self.design_fingerprint
                or design_fingerprint(self.design, stride=self.stride)
            ),
            "stride": np.asarray(self.stride, dtype=np.int64),
        }
        for name, array in self.kernel_tables.items():
            payload[f"{_KERNEL_PREFIX}{name}"] = array
        for name, array in self.stride_tables.items():
            # Alphabet table names already carry the stride_ prefix.
            payload[name] = array
        for name, array in self.classify_tables.items():
            # Placement table names already carry the classify_ prefix.
            payload[name] = array
        return payload

    @classmethod
    def from_payload(
        cls,
        data,
        automaton: HomogeneousAutomaton,
        design: DesignPoint,
        *,
        stride: int = 1,
    ) -> "CompiledArtifact":
        """Rebuild an artifact against the in-memory compiler inputs.

        ``data`` is any mapping of member name -> array (an open ``npz``
        file works directly).  The payload's stored fingerprints are
        re-verified against ``automaton``/``design``/``stride``; any
        missing member, shape mismatch, unsupported version, stride
        mismatch, or fingerprint mismatch raises :class:`ArtifactError`.
        """
        try:
            members = set(
                data.files if hasattr(data, "files") else data.keys()
            )
            version = int(data["artifact_version"])
            if version != ARTIFACT_FORMAT_VERSION:
                raise ArtifactError(
                    f"unsupported artifact version {version} "
                    f"(expected {ARTIFACT_FORMAT_VERSION})"
                )
            part = data["part"]
            slot = data["slot"]
            ways = data["ways"]
            stored_fingerprint = str(data["fingerprint"])
            stored_design = str(data["design"])
            stored_stride = int(data["stride"])
        except ArtifactError:
            raise
        except Exception as error:
            raise ArtifactError(f"unreadable member: {error}") from None
        if stored_stride != stride:
            raise ArtifactError(
                f"artifact was compiled at stride {stored_stride}, "
                f"loaded against stride {stride}"
            )
        states = (len(automaton.edge_index_arrays().ids),)
        if (
            stored_fingerprint != automaton_fingerprint(automaton)
            or stored_design != design_fingerprint(design, stride=stride)
            or part.shape != states
            or slot.shape != states
        ):
            raise ArtifactError("stored fingerprints do not match the key")
        mapping = Mapping(design, automaton, part, slot, ways)
        kernel_tables = {
            name[len(_KERNEL_PREFIX):]: data[name]
            for name in members
            if name.startswith(_KERNEL_PREFIX)
        }
        stride_tables = {
            name: data[name]
            for name in members
            if name.startswith(_STRIDE_PREFIX)
        }
        classify_tables = {
            name: data[name]
            for name in members
            if name.startswith(_CLASSIFY_PREFIX)
        }
        return cls(
            mapping=mapping,
            kernel_tables=kernel_tables,
            automaton_fingerprint=stored_fingerprint,
            design_fingerprint=stored_design,
            stride=stored_stride,
            stride_tables=stride_tables,
            classify_tables=classify_tables,
        )

    def npz_bytes(self) -> bytes:
        """The payload serialised as ``npz`` bytes (cache file format)."""
        buffer = io.BytesIO()
        np.savez(buffer, **self.to_payload())
        return buffer.getvalue()

    @classmethod
    def from_npz_bytes(
        cls,
        payload: bytes,
        automaton: HomogeneousAutomaton,
        design: DesignPoint,
        *,
        stride: int = 1,
    ) -> "CompiledArtifact":
        """Inverse of :meth:`npz_bytes`; raises :class:`ArtifactError`."""
        try:
            data = np.load(io.BytesIO(payload), allow_pickle=False)
        except Exception as error:
            raise ArtifactError(f"not a valid artifact archive: {error}") from None
        return cls.from_payload(data, automaton, design, stride=stride)
