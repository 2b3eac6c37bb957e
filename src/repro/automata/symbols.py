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

from typing import Iterable, Iterator, List, Optional, Tuple, Union

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


def byte_signature_words(
    masks: np.ndarray,
    mask_of: np.ndarray,
    bits: np.ndarray,
    n_bits: int,
    group: Optional[np.ndarray] = None,
    groups: int = 1,
) -> np.ndarray:
    """``(groups, 256, words)`` ``uint64`` words, bit ``i`` of a row at
    bit ``i % 64`` of word ``i // 64``: entry ``[g, b]`` is the OR of ``1
    << bits[i]`` over the states ``i`` of group ``group[i]`` (all in group
    0 by default) whose symbol mask — row ``mask_of[i]`` of the ``(k,
    32)`` little-endian table ``masks`` — contains byte ``b``.  Every
    ``bits[i]`` is below ``n_bits``; bits may repeat within a group.

    With ``bits`` the states' positions, entry ``[g, b]`` is the set of
    group ``g``'s states matching byte ``b`` — a kernel's match matrix,
    each component's alphabet signature.  A ruleset has thousands of
    states but a few dozen distinct masks, most of them narrow, so the
    bits are ORed per (group, mask) first and each such row is then ORed
    into the bytes its mask holds: work in the (mask, byte) memberships
    of the rows, all in a few bulk steps whatever the number of groups.
    When wide masks make the memberships outweigh the states (Fermi: 852
    masks, ~100k memberships) and one group has no repeated bit, a
    ``(256, n_bits)`` bit grid scattered from the states is cheaper, and
    is used.
    """
    masks = np.asarray(masks, dtype=np.uint8)
    mask_of = np.asarray(mask_of, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int64)
    words = max(1, -(-n_bits // 64))
    if group is None:
        group = np.zeros_like(bits)
        pairs, slot = np.unique(mask_of, return_inverse=True)
        used, pair_mask = pairs, np.arange(len(pairs))
        table = np.unpackbits(masks[used], axis=1, bitorder="little")
        if int(table.sum()) * words > ALPHABET_SIZE * len(bits) and (
            np.bincount(bits, minlength=1).max() <= 1
        ):
            grid = np.zeros((ALPHABET_SIZE, words * 64), dtype=np.uint8)
            grid[:, bits] = table.T[:, slot.reshape(-1)]
            packed = np.packbits(grid, axis=1, bitorder="little")
            return packed.view(np.uint64).reshape(1, ALPHABET_SIZE, words)
    else:
        group = np.asarray(group, dtype=np.int64)
        pairs, slot = np.unique(group * len(masks) + mask_of, return_inverse=True)
        # Only the masks the states use: the table may be a whole ruleset's.
        used, pair_mask = np.unique(pairs % len(masks), return_inverse=True)
        table = np.unpackbits(masks[used], axis=1, bitorder="little")
    by_pair = np.zeros((len(pairs), words), dtype=np.uint64)
    np.bitwise_or.at(
        by_pair,
        (slot.reshape(-1), bits >> 6),
        np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)),
    )
    # Each (group, mask) row goes to every byte its mask holds.
    held_mask, held_byte = np.divmod(np.flatnonzero(table), ALPHABET_SIZE)
    first = np.searchsorted(held_mask, np.arange(len(table) + 1))
    pair_mask = pair_mask.reshape(-1)
    sizes = first[pair_mask + 1] - first[pair_mask]
    source = np.repeat(np.arange(len(pairs)), sizes)
    within = np.arange(len(source)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # A single group's pairs are its masks, whose quotient is group 0.
    target = (pairs // max(1, len(masks)))[source] * ALPHABET_SIZE + held_byte[
        first[pair_mask][source] + within
    ]
    order = np.argsort(target, kind="stable")
    target = target[order]
    starts = np.flatnonzero(np.diff(target, prepend=-1))
    out = np.zeros((groups * ALPHABET_SIZE, words), dtype=np.uint64)
    out[target[starts]] = np.bitwise_or.reduceat(
        by_pair[source[order]], starts, axis=0
    )
    return out.reshape(groups, ALPHABET_SIZE, words)


def byte_signatures(
    masks: np.ndarray, mask_of: np.ndarray, bits: np.ndarray, n_bits: int
) -> List[int]:
    """:func:`byte_signature_words` of one group, as one int a byte."""
    rows = byte_signature_words(masks, mask_of, bits, n_bits)[0]
    if rows.shape[1] == 1:
        return rows.ravel().tolist()
    raw, width = rows.tobytes(), rows.shape[1] * 8
    return [
        int.from_bytes(raw[at : at + width], "little")
        for at in range(0, len(raw), width)
    ]


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
