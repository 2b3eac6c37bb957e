"""k-stride alphabet transformation (CAMA-style symbol-set compression).

A k-stride automaton consumes *k* input bytes per transition.  Done
naively the transition alphabet explodes to ``256**k`` columns; CAMA's
observation is that an automaton only distinguishes bytes up to the
equivalence classes of its symbol-set labels, so the strided alphabet
can be the *k-fold product of byte classes* instead.  A ruleset with
``C`` distinct byte classes needs ``C**k`` stride classes — typically
a few hundred for k=2 on real rulesets, not 65536.

This module derives that compressed alphabet:

- :func:`resolve_stride` — stride selection mirroring
  :func:`repro.parallel.resolve_jobs` (explicit value, else the
  ``REPRO_STRIDE`` environment variable, else 1), validating against
  the supported values {1, 2, 4}.
- :class:`StrideAlphabet` — the byte-class map plus the fold that
  turns a window of k bytes into one dense stride-class id, and its
  inverse (:meth:`~StrideAlphabet.representative_bytes`) used by the
  lazy DFA to materialise a missing strided transition by stepping the
  unstrided kernel over any representative window of the class.

The partition comes from either the compiled kernel's match matrix
(two bytes are equivalent iff their match-matrix rows are identical)
or the automaton's STE symbol sets
(:func:`repro.automata.symbols.equivalence_classes`); both induce the
same canonical numbering, so alphabets derived on either side of the
compile boundary agree.

When ``C**k`` would exceed :data:`STRIDE_CLASS_LIMIT` the transform
degrades k -> k//2 (ultimately to 1) rather than build an intractable
table; callers surface the effective stride through ``cache_info()``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Union

import numpy as np

from repro.automata.symbols import ALPHABET_SIZE, equivalence_classes
from repro.errors import StrideError

STRIDE_ENV = "REPRO_STRIDE"

#: Strides the execution stack supports (1 = unstrided passthrough).
STRIDE_VALUES = (1, 2, 4)

#: Ceiling on ``n_byte_classes ** stride``; above it the transform
#: degrades to the next smaller stride instead of building the table.
STRIDE_CLASS_LIMIT = 16384


def resolve_stride(stride: Union[int, str, None] = None) -> int:
    """Stride for the lazy-DFA path.

    ``stride`` may be an int, a numeric string, or ``None``/"auto" —
    the latter consults ``REPRO_STRIDE`` and falls back to 1
    (unstrided).  Values outside {1, 2, 4} raise :class:`StrideError`,
    including bad ``REPRO_STRIDE`` settings, so a typo'd environment
    fails loudly instead of silently scanning unstrided.
    """
    source = "stride"
    if stride is None or stride == "auto":
        stride = os.environ.get(STRIDE_ENV) or 1
        source = STRIDE_ENV
    try:
        value = int(stride)
    except (TypeError, ValueError):
        raise StrideError(
            f"{source} must be an integer from {STRIDE_VALUES}, got {stride!r}"
        ) from None
    if value not in STRIDE_VALUES:
        raise StrideError(
            f"{source} must be one of {STRIDE_VALUES}, got {value}"
        )
    return value


@dataclass(frozen=True)
class StrideAlphabet:
    """Compressed k-stride alphabet over byte equivalence classes.

    ``byte_class`` maps each byte value to its dense class id;
    ``representatives[c]`` is the smallest byte in class ``c``.  A
    window of k bytes folds to the stride-class id
    ``class(b0)*C**(k-1) + ... + class(b_{k-1})`` (first byte most
    significant), giving ``C**k`` dense ids without materialising a
    65536-wide map.
    """

    stride: int
    byte_class: np.ndarray = field(repr=False)
    representatives: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.stride not in STRIDE_VALUES:
            raise StrideError(
                f"stride must be one of {STRIDE_VALUES}, got {self.stride}"
            )
        if self.byte_class.shape != (ALPHABET_SIZE,):
            raise StrideError(
                f"byte_class must have shape (256,), got {self.byte_class.shape}"
            )
        self.byte_class.setflags(write=False)
        self.representatives.setflags(write=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_byte_classes(
        cls,
        class_of: np.ndarray,
        representatives: np.ndarray,
        stride: int,
        *,
        limit: int = STRIDE_CLASS_LIMIT,
    ) -> "StrideAlphabet":
        """Build the alphabet, degrading stride while ``C**k`` > limit."""
        stride = resolve_stride(stride)
        n_classes = int(representatives.size)
        while stride > 1 and n_classes**stride > limit:
            stride //= 2
        return cls(
            stride=stride,
            byte_class=np.asarray(class_of, dtype=np.int32).copy(),
            representatives=np.asarray(representatives, dtype=np.uint8).copy(),
        )

    @classmethod
    def from_kernel(
        cls, kernel, stride: int, *, limit: int = STRIDE_CLASS_LIMIT
    ) -> "StrideAlphabet":
        """Derive classes from a packed kernel's match matrix.

        Two bytes are interchangeable exactly when their match-matrix
        rows are bit-identical — no activation row can then distinguish
        them, so every kernel micro-step (and hence every DFA
        transition) agrees on the whole class.
        """
        from repro.automata.symbols import partition_byte_columns

        class_of, representatives = partition_byte_columns(
            np.asarray(kernel.match_matrix)
        )
        return cls.from_byte_classes(
            class_of, representatives, stride, limit=limit
        )

    @classmethod
    def from_automaton(
        cls, automaton, stride: int, *, limit: int = STRIDE_CLASS_LIMIT
    ) -> "StrideAlphabet":
        """Derive classes from the STE symbol sets of an ANML automaton."""
        class_of, representatives = equivalence_classes(
            ste.symbols for ste in automaton.stes()
        )
        return cls.from_byte_classes(
            class_of, representatives, stride, limit=limit
        )

    @classmethod
    def from_tables(cls, tables: Dict[str, np.ndarray]) -> "StrideAlphabet":
        """Rebuild from a :meth:`tables` export (cache / worker job)."""
        return cls(
            stride=int(np.asarray(tables["stride_k"]).reshape(())),
            byte_class=np.asarray(
                tables["stride_class_of"], dtype=np.int32
            ).copy(),
            representatives=np.asarray(
                tables["stride_reps"], dtype=np.uint8
            ).copy(),
        )

    # -- queries -----------------------------------------------------------

    @property
    def n_byte_classes(self) -> int:
        return int(self.representatives.size)

    @property
    def n_stride_classes(self) -> int:
        return self.n_byte_classes**self.stride

    def stride_classes(self, symbols: np.ndarray) -> np.ndarray:
        """Fold byte windows into stride-class ids, vectorised.

        ``symbols`` must be a uint8 array whose length is a multiple of
        the stride (callers peel the odd tail first); returns an int64
        array of ``len(symbols) // stride`` dense class ids.
        """
        k = self.stride
        if len(symbols) % k:
            raise StrideError(
                f"input length {len(symbols)} is not a multiple of stride {k}"
            )
        classes = self.byte_class[symbols]
        folded = classes[0::k].astype(np.int64)
        for phase in range(1, k):
            folded *= self.n_byte_classes
            folded += classes[phase::k]
        return folded

    def representative_bytes(self, stride_class: int) -> bytes:
        """Any k-byte window belonging to ``stride_class`` (the
        smallest-byte representative of each digit).  Every window in
        the class drives the kernel identically, so the lazy DFA may
        materialise a missing transition from this one."""
        base = self.n_byte_classes
        digits = []
        value = int(stride_class)
        for _ in range(self.stride):
            digits.append(value % base)
            value //= base
        if value:
            raise StrideError(
                f"stride class {stride_class} out of range "
                f"(alphabet has {self.n_stride_classes} classes)"
            )
        return bytes(int(self.representatives[d]) for d in reversed(digits))

    def tables(self) -> Dict[str, np.ndarray]:
        """Arrays for worker jobs / artifact payloads."""
        return {
            "stride_k": np.array(self.stride, dtype=np.int32),
            "stride_class_of": np.asarray(self.byte_class, dtype=np.int32),
            "stride_reps": np.asarray(self.representatives, dtype=np.uint8),
        }
