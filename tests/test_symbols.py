"""Unit and property tests for SymbolSet (the STE label domain)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.automata.symbols import (
    ALPHABET_SIZE,
    ANY,
    NONE,
    SymbolSet,
    byte_signatures,
)
from repro.errors import SymbolSetError

symbol_sets = st.builds(
    SymbolSet, st.lists(st.integers(min_value=0, max_value=255), max_size=40)
)


class TestConstruction:
    def test_empty(self):
        assert SymbolSet().is_empty()
        assert len(SymbolSet()) == 0
        assert not SymbolSet()

    def test_single_from_int_str_bytes(self):
        assert SymbolSet.single(97) == SymbolSet.single("a") == SymbolSet.single(b"a")

    def test_from_range(self):
        digits = SymbolSet.from_range("0", "9")
        assert len(digits) == 10
        assert "5" in digits
        assert "a" not in digits

    def test_from_range_single_point(self):
        assert SymbolSet.from_range(7, 7) == SymbolSet.single(7)

    def test_reversed_range_rejected(self):
        with pytest.raises(SymbolSetError):
            SymbolSet.from_range("z", "a")

    def test_from_string(self):
        assert sorted(SymbolSet.from_string("aba")) == [ord("a"), ord("b")]

    def test_from_string_bytes(self):
        assert sorted(SymbolSet.from_string(b"\x00\xff")) == [0, 255]

    def test_any_and_none(self):
        assert ANY.is_full()
        assert len(ANY) == ALPHABET_SIZE
        assert NONE.is_empty()

    def test_out_of_range_symbol(self):
        with pytest.raises(SymbolSetError):
            SymbolSet.single(256)
        with pytest.raises(SymbolSetError):
            SymbolSet.single(-1)

    def test_multichar_string_rejected(self):
        with pytest.raises(SymbolSetError):
            SymbolSet.single("ab")

    def test_bool_rejected(self):
        with pytest.raises(SymbolSetError):
            SymbolSet.single(True)

    def test_bad_mask(self):
        with pytest.raises(SymbolSetError):
            SymbolSet.from_mask(-1)
        with pytest.raises(SymbolSetError):
            SymbolSet.from_mask(1 << 256)


class TestAlgebra:
    def test_union_intersection_difference(self):
        a = SymbolSet.from_range("a", "m")
        b = SymbolSet.from_range("g", "z")
        assert len(a | b) == 26
        assert (a & b) == SymbolSet.from_range("g", "m")
        assert (a - b) == SymbolSet.from_range("a", "f")

    def test_complement_involution(self):
        digits = SymbolSet.from_range("0", "9")
        assert ~~digits == digits
        assert (digits | ~digits).is_full()
        assert (digits & ~digits).is_empty()

    def test_subset_disjoint(self):
        small = SymbolSet.from_string("abc")
        big = SymbolSet.from_range("a", "f")
        assert small.issubset(big)
        assert not big.issubset(small)
        assert small.isdisjoint(SymbolSet.from_string("xyz"))

    def test_hash_and_eq(self):
        assert hash(SymbolSet.from_string("ab")) == hash(SymbolSet.from_string("ba"))
        assert SymbolSet.from_string("ab") != SymbolSet.from_string("ac")
        assert SymbolSet.single(0) != 1  # not equal to non-SymbolSet


class TestRangesIteration:
    def test_symbols_sorted(self):
        s = SymbolSet.from_string("zax")
        assert list(s) == sorted([ord("z"), ord("a"), ord("x")])

    def test_ranges_maximal(self):
        s = SymbolSet.from_string("abcxy") | SymbolSet.single(0)
        assert list(s.ranges()) == [(0, 0), (97, 99), (120, 121)]

    def test_ranges_empty(self):
        assert list(NONE.ranges()) == []

    def test_ranges_full(self):
        assert list(ANY.ranges()) == [(0, 255)]


class TestOnehot:
    def test_shape_and_dtype(self):
        column = SymbolSet.from_string("a").to_onehot()
        assert column.shape == (256,)
        assert column.dtype == np.uint8
        assert column.sum() == 1
        assert column[ord("a")] == 1

    def test_roundtrip(self):
        s = SymbolSet.from_range(10, 20) | SymbolSet.single(255)
        assert SymbolSet.from_onehot(s.to_onehot()) == s

    def test_bad_shape(self):
        with pytest.raises(SymbolSetError):
            SymbolSet.from_onehot(np.zeros(255, dtype=np.uint8))


class TestPresentation:
    def test_wildcard(self):
        assert ANY.canonical_expression() == "*"

    def test_empty(self):
        assert NONE.canonical_expression() == "[]"

    def test_range_rendering(self):
        assert SymbolSet.from_range("a", "c").canonical_expression() == "[a-c]"

    def test_unprintable_rendering(self):
        assert SymbolSet.single(0).canonical_expression() == "[\\x00]"

    def test_repr_contains_expression(self):
        assert "[a-c]" in repr(SymbolSet.from_range("a", "c"))


class TestProperties:
    @given(symbol_sets, symbol_sets)
    def test_union_cardinality(self, a, b):
        assert len(a | b) == len(a) + len(b) - len(a & b)

    @given(symbol_sets, symbol_sets)
    def test_de_morgan(self, a, b):
        assert ~(a | b) == (~a & ~b)
        assert ~(a & b) == (~a | ~b)

    @given(symbol_sets)
    def test_onehot_roundtrip(self, s):
        assert SymbolSet.from_onehot(s.to_onehot()) == s

    @given(symbol_sets)
    def test_ranges_cover_exactly(self, s):
        covered = SymbolSet(
            value for low, high in s.ranges() for value in range(low, high + 1)
        )
        assert covered == s

    @given(symbol_sets, st.integers(min_value=0, max_value=255))
    def test_matches_agrees_with_iteration(self, s, symbol):
        assert s.matches(symbol) == (symbol in set(s))

    @given(st.lists(st.tuples(symbol_sets, st.integers(0, 40)), max_size=30))
    def test_byte_signatures_equal_the_per_state_loop(self, labelled):
        """Grouping states by distinct mask first must give what walking
        every state's every symbol gives."""
        expected = [0] * ALPHABET_SIZE
        for symbols, position in labelled:
            for symbol in symbols:
                expected[symbol] |= 1 << position
        assert expected == byte_signatures(
            (symbols.mask, 1 << position) for symbols, position in labelled
        )
