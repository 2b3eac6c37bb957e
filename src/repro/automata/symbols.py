"""Symbol sets over the 8-bit input alphabet.

A Cache Automaton STE (state transition element) is labelled by the set of
input symbols it matches.  In hardware this label is materialised as a
256-bit one-hot column of an SRAM array (one bit per possible byte value);
in software we model it with :class:`SymbolSet`, an immutable 256-bit set
backed by a Python integer bitmask.

The class supports the label vocabulary used by ANML and by common regex
character classes: single symbols, ranges, unions, complements, and the
``*`` (match-all) wildcard.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple, Union

import numpy as np

from repro.errors import SymbolSetError

ALPHABET_SIZE = 256
_FULL_MASK = (1 << ALPHABET_SIZE) - 1

SymbolLike = Union[int, str, bytes]


def _symbol_value(symbol: SymbolLike) -> int:
    """Normalise a symbol given as int, 1-char str, or 1-byte bytes to 0..255."""
    if isinstance(symbol, bool):
        raise SymbolSetError(f"booleans are not symbols: {symbol!r}")
    if isinstance(symbol, int):
        value = symbol
    elif isinstance(symbol, str):
        if len(symbol) != 1:
            raise SymbolSetError(f"expected a single character, got {symbol!r}")
        value = ord(symbol)
    elif isinstance(symbol, (bytes, bytearray)):
        if len(symbol) != 1:
            raise SymbolSetError(f"expected a single byte, got {symbol!r}")
        value = symbol[0]
    else:
        raise SymbolSetError(f"cannot interpret {symbol!r} as a symbol")
    if not 0 <= value < ALPHABET_SIZE:
        raise SymbolSetError(f"symbol value {value} outside byte alphabet [0, 255]")
    return value


class SymbolSet:
    """Immutable set of byte symbols, the label domain of an STE.

    Instances are hashable and support the standard set algebra via
    operators (``|``, ``&``, ``-``, ``~``) as well as named methods.
    """

    __slots__ = ("_mask",)

    def __init__(self, symbols: Iterable[SymbolLike] = ()):
        mask = 0
        for symbol in symbols:
            mask |= 1 << _symbol_value(symbol)
        self._mask = mask

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_mask(cls, mask: int) -> "SymbolSet":
        """Build a set directly from a 256-bit integer bitmask."""
        if mask < 0 or mask > _FULL_MASK:
            raise SymbolSetError(f"mask {mask:#x} is not a 256-bit bitmask")
        instance = cls.__new__(cls)
        instance._mask = mask
        return instance

    @classmethod
    def single(cls, symbol: SymbolLike) -> "SymbolSet":
        """The singleton set containing exactly ``symbol``."""
        return cls.from_mask(1 << _symbol_value(symbol))

    @classmethod
    def from_range(cls, low: SymbolLike, high: SymbolLike) -> "SymbolSet":
        """The inclusive range ``[low, high]`` of byte values."""
        low_value = _symbol_value(low)
        high_value = _symbol_value(high)
        if low_value > high_value:
            raise SymbolSetError(f"empty range: low {low_value} > high {high_value}")
        width = high_value - low_value + 1
        return cls.from_mask(((1 << width) - 1) << low_value)

    @classmethod
    def from_string(cls, text: Union[str, bytes]) -> "SymbolSet":
        """The set of all characters appearing in ``text``."""
        if isinstance(text, str):
            text = text.encode("latin-1")
        mask = 0
        for value in text:
            mask |= 1 << value
        return cls.from_mask(mask)

    @classmethod
    def any(cls) -> "SymbolSet":
        """The ``*`` wildcard: matches every byte."""
        return cls.from_mask(_FULL_MASK)

    @classmethod
    def none(cls) -> "SymbolSet":
        """The empty set (matches nothing)."""
        return cls.from_mask(0)

    # -- queries -----------------------------------------------------------

    @property
    def mask(self) -> int:
        """The underlying 256-bit integer bitmask."""
        return self._mask

    def matches(self, symbol: SymbolLike) -> bool:
        """True if ``symbol`` is in the set."""
        return bool(self._mask >> _symbol_value(symbol) & 1)

    def is_empty(self) -> bool:
        return self._mask == 0

    def is_full(self) -> bool:
        return self._mask == _FULL_MASK

    def cardinality(self) -> int:
        """Number of symbols in the set."""
        return self._mask.bit_count()

    def symbols(self) -> Iterator[int]:
        """Iterate the member byte values in increasing order."""
        mask = self._mask
        while mask:
            low_bit = mask & -mask
            yield low_bit.bit_length() - 1
            mask ^= low_bit

    def ranges(self) -> Iterator[tuple[int, int]]:
        """Iterate maximal inclusive ranges ``(low, high)`` covering the set."""
        start = None
        previous = None
        for value in self.symbols():
            if start is None:
                start = previous = value
            elif value == previous + 1:
                previous = value
            else:
                yield (start, previous)
                start = previous = value
        if start is not None:
            yield (start, previous)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "SymbolSet") -> "SymbolSet":
        return SymbolSet.from_mask(self._mask | other._mask)

    def intersection(self, other: "SymbolSet") -> "SymbolSet":
        return SymbolSet.from_mask(self._mask & other._mask)

    def difference(self, other: "SymbolSet") -> "SymbolSet":
        return SymbolSet.from_mask(self._mask & ~other._mask & _FULL_MASK)

    def complement(self) -> "SymbolSet":
        return SymbolSet.from_mask(~self._mask & _FULL_MASK)

    def issubset(self, other: "SymbolSet") -> bool:
        return self._mask & ~other._mask == 0

    def isdisjoint(self, other: "SymbolSet") -> bool:
        return self._mask & other._mask == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __invert__(self) -> "SymbolSet":
        return self.complement()

    def __contains__(self, symbol: SymbolLike) -> bool:
        return self.matches(symbol)

    def __iter__(self) -> Iterator[int]:
        return self.symbols()

    def __len__(self) -> int:
        return self.cardinality()

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolSet):
            return NotImplemented
        return self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    # -- hardware views ----------------------------------------------------

    def to_onehot(self) -> np.ndarray:
        """The 256-element uint8 one-hot column stored in the SRAM array.

        Bit position *i* (row *i* of the array) is 1 exactly when byte value
        *i* is in the set; broadcasting input symbol *i* as a row address
        reads this bit out as the state's match result.
        """
        column = np.zeros(ALPHABET_SIZE, dtype=np.uint8)
        for value in self.symbols():
            column[value] = 1
        return column

    @classmethod
    def from_onehot(cls, column: np.ndarray) -> "SymbolSet":
        """Inverse of :meth:`to_onehot`."""
        if column.shape != (ALPHABET_SIZE,):
            raise SymbolSetError(
                f"one-hot column must have shape (256,), got {column.shape}"
            )
        mask = 0
        for value in np.flatnonzero(column):
            mask |= 1 << int(value)
        return cls.from_mask(mask)

    # -- presentation ------------------------------------------------------

    def canonical_expression(self) -> str:
        """A compact, ANML-flavoured textual form such as ``[a-c x 0-9]``."""
        if self.is_full():
            return "*"
        if self.is_empty():
            return "[]"
        parts = []
        for low, high in self.ranges():
            if low == high:
                parts.append(_printable(low))
            else:
                parts.append(f"{_printable(low)}-{_printable(high)}")
        return "[" + " ".join(parts) + "]"

    def __repr__(self) -> str:
        return f"SymbolSet({self.canonical_expression()})"


def byte_signatures(labelled_bits: Iterable[Tuple[int, int]]) -> List[int]:
    """Per-byte OR of the ``bits`` of every ``(mask, bits)`` pair whose
    256-bit symbol ``mask`` contains the byte.

    With one pair per state and ``bits`` the state's position bit, entry
    ``b`` is the set of states matching byte ``b`` — a kernel's match
    table, a component's alphabet signature.  A ruleset has thousands of
    states but a few dozen distinct masks, many of them wide (``.`` is
    256 bits), so the bits are ORed per distinct mask first and each
    mask's members walked once.
    """
    by_mask: dict[int, int] = {}
    for mask, bits in labelled_bits:
        by_mask[mask] = by_mask.get(mask, 0) | bits
    signatures = [0] * ALPHABET_SIZE
    for mask, bits in by_mask.items():
        while mask:
            low_bit = mask & -mask
            signatures[low_bit.bit_length() - 1] |= bits
            mask ^= low_bit
    return signatures


def equivalence_classes(
    sets: Iterable[SymbolSet],
) -> tuple[np.ndarray, np.ndarray]:
    """Partition the byte alphabet by membership signature across ``sets``.

    Two byte values are equivalent exactly when every set in ``sets``
    either contains both or neither — no automaton labelled from
    ``sets`` can distinguish them, so transition tables may be indexed
    by class instead of by byte.  Returns ``(class_of, representatives)``
    where ``class_of`` maps each byte value to its dense class id and
    ``representatives[c]`` is the smallest byte value in class ``c``.
    Class ids are assigned in order of each class's smallest member, so
    the numbering is canonical for a given partition regardless of the
    iteration order of ``sets``.
    """
    masks = [symbol_set.mask for symbol_set in sets]
    raw = b"".join(mask.to_bytes(32, "little") for mask in masks)
    columns = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), 32),
        axis=1,
        bitorder="little",
    ).T  # (256, n_sets): row b is byte b's membership signature
    return partition_byte_columns(columns)


def partition_byte_columns(
    columns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Class map of a ``(256, ...)`` per-byte signature matrix.

    Bytes with identical rows share a class; ids are assigned in order
    of each class's smallest byte (canonical numbering shared by the
    automaton- and kernel-derived alphabets).  Returns ``(class_of,
    representatives)`` as :func:`equivalence_classes` does.
    """
    _, inverse = np.unique(columns, axis=0, return_inverse=True)
    inverse = inverse.reshape(ALPHABET_SIZE)
    first_seen = np.full(int(inverse.max()) + 1, ALPHABET_SIZE, dtype=np.int64)
    np.minimum.at(first_seen, inverse, np.arange(ALPHABET_SIZE))
    order = np.argsort(first_seen, kind="stable")
    remap = np.empty_like(order)
    remap[order] = np.arange(order.size)
    class_of = remap[inverse].astype(np.int32)
    representatives = first_seen[order].astype(np.uint8)
    return class_of, representatives


def _printable(value: int) -> str:
    """Render a byte value as itself when printable, else as \\xNN."""
    character = chr(value)
    if character.isprintable() and character not in " -[]\\":
        return character
    return f"\\x{value:02x}"


#: Shared wildcard instance; SymbolSet is immutable so sharing is safe.
ANY = SymbolSet.any()

#: Shared empty instance.
NONE = SymbolSet.none()
