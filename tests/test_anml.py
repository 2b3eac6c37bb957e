"""Tests for the homogeneous automaton model and ANML XML round-tripping."""

from dataclasses import replace

import pytest

from repro.automata.anml import (
    HomogeneousAutomaton,
    StartKind,
    from_anml,
    merge,
    to_anml,
    with_report_codes,
)
from repro.automata.symbols import SymbolSet
from repro.errors import AnmlError, AutomatonError
from repro.sim.golden import match_offsets


def small_machine() -> HomogeneousAutomaton:
    automaton = HomogeneousAutomaton("small")
    automaton.add_ste("a", SymbolSet.single("a"), start=StartKind.ALL_INPUT)
    automaton.add_ste("b", SymbolSet.single("b"), reporting=True, report_code="ab")
    automaton.add_edge("a", "b")
    return automaton


class TestModel:
    def test_duplicate_id_rejected(self):
        automaton = small_machine()
        with pytest.raises(AutomatonError):
            automaton.add_ste("a", SymbolSet.single("x"))

    def test_empty_label_rejected(self):
        automaton = HomogeneousAutomaton()
        with pytest.raises(AutomatonError):
            automaton.add_ste("x", SymbolSet.none())

    def test_edge_to_unknown_state(self):
        automaton = small_machine()
        with pytest.raises(AutomatonError):
            automaton.add_edge("a", "ghost")
        with pytest.raises(AutomatonError):
            automaton.add_edge("ghost", "a")

    def test_successor_predecessor_symmetry(self):
        automaton = small_machine()
        assert automaton.successors("a") == {"b"}
        assert automaton.predecessors("b") == {"a"}
        assert automaton.in_degree("b") == 1
        assert automaton.out_degree("a") == 1

    def test_remove_ste_cleans_edges(self):
        automaton = small_machine()
        automaton.remove_ste("b")
        assert automaton.successors("a") == set()
        assert "b" not in automaton

    def test_replace_ste_keeps_edges(self):
        from dataclasses import replace

        automaton = small_machine()
        ste = automaton.ste("b")
        automaton.replace_ste(replace(ste, report_code="changed"))
        assert automaton.ste("b").report_code == "changed"
        assert automaton.predecessors("b") == {"a"}

    def test_validate_requires_start(self):
        automaton = HomogeneousAutomaton()
        automaton.add_ste("x", SymbolSet.single("x"))
        with pytest.raises(AutomatonError):
            automaton.validate()

    def test_validate_empty(self):
        with pytest.raises(AutomatonError):
            HomogeneousAutomaton().validate()

    def test_copy_is_independent(self):
        automaton = small_machine()
        duplicate = automaton.copy()
        duplicate.remove_ste("b")
        assert "b" in automaton

    def test_relabel_preserves_language(self):
        automaton = small_machine()
        renamed = automaton.relabelled("x")
        assert match_offsets(renamed, b"zabz") == match_offsets(automaton, b"zabz")

    def test_merge_disjoint(self):
        left = small_machine()
        right = small_machine()
        combined = merge([left, right])
        assert len(combined) == 4
        # Reports double up but offsets are identical.
        assert match_offsets(combined, b"ab") == [1]

    def test_merge_names_states_by_part_and_position(self):
        """``merge`` renames while inserting: ids are ``m{part}_{n}`` in
        each part's own state order, parts in list order, and every part's
        states, flags and edges arrive under the new names."""
        left = small_machine()
        right = small_machine()
        right.add_ste("c", SymbolSet.single("c"), reporting=True, report_code="C")
        right.add_edge("b", "c")
        right.add_edge("c", "c")
        combined = merge([left, right], automaton_id="both")
        assert combined.automaton_id == "both"
        assert combined.ste_ids() == [
            f"m0_{n}" for n in range(len(left))
        ] + [f"m1_{n}" for n in range(len(right))]
        for part, automaton in enumerate([left, right]):
            names = {
                old: f"m{part}_{n}" for n, old in enumerate(automaton.ste_ids())
            }
            for old, new in names.items():
                assert combined.ste(new) == replace(automaton.ste(old), ste_id=new)
                assert combined.successors(new) == {
                    names[target] for target in automaton.successors(old)
                }
                assert combined.predecessors(new) == {
                    names[source] for source in automaton.predecessors(old)
                }
        combined.validate()

    def test_average_fan_out(self):
        assert small_machine().average_fan_out() == pytest.approx(0.5)
        assert HomogeneousAutomaton().average_fan_out() == 0.0

    def test_unknown_ste_lookup(self):
        with pytest.raises(AutomatonError):
            small_machine().ste("nope")

    def test_with_report_codes(self):
        automaton = HomogeneousAutomaton()
        automaton.add_ste(
            "r", SymbolSet.single("r"), start=StartKind.ALL_INPUT, reporting=True
        )
        coded = with_report_codes(automaton, "CODE")
        assert coded.ste("r").report_code == "CODE"


class TestAnmlXml:
    def test_roundtrip_structure(self, figure1_automaton):
        document = to_anml(figure1_automaton)
        parsed = from_anml(document)
        assert len(parsed) == len(figure1_automaton)
        assert parsed.edge_count() == figure1_automaton.edge_count()
        for ste in figure1_automaton.stes():
            other = parsed.ste(ste.ste_id)
            assert other.symbols == ste.symbols
            assert other.start == ste.start
            assert other.reporting == ste.reporting

    def test_roundtrip_language(self, figure1_automaton, figure1_text):
        parsed = from_anml(to_anml(figure1_automaton))
        assert match_offsets(parsed, figure1_text) == match_offsets(
            figure1_automaton, figure1_text
        )

    def test_start_of_data_roundtrip(self):
        automaton = HomogeneousAutomaton()
        automaton.add_ste(
            "s", SymbolSet.single("s"), start=StartKind.START_OF_DATA, reporting=True
        )
        parsed = from_anml(to_anml(automaton))
        assert parsed.ste("s").start is StartKind.START_OF_DATA

    def test_wildcard_symbol_set(self):
        automaton = HomogeneousAutomaton()
        automaton.add_ste("w", SymbolSet.any(), start=StartKind.ALL_INPUT)
        parsed = from_anml(to_anml(automaton))
        assert parsed.ste("w").symbols.is_full()

    def test_report_code_preserved(self):
        parsed = from_anml(to_anml(small_machine()))
        assert parsed.ste("b").report_code == "ab"

    def test_anml_wrapper_element(self):
        inner = to_anml(small_machine())
        document = f"<anml>{inner}</anml>"
        assert len(from_anml(document)) == 2

    def test_malformed_xml(self):
        with pytest.raises(AnmlError):
            from_anml("<anml-network><unclosed></anml-network")

    def test_unknown_root(self):
        with pytest.raises(AnmlError):
            from_anml("<something-else/>")

    def test_missing_symbol_set(self):
        with pytest.raises(AnmlError):
            from_anml(
                '<anml-network id="x">'
                '<state-transition-element id="a"/></anml-network>'
            )

    def test_missing_id(self):
        with pytest.raises(AnmlError):
            from_anml(
                '<anml-network id="x">'
                '<state-transition-element symbol-set="a"/></anml-network>'
            )

    def test_unknown_start_kind(self):
        with pytest.raises(AnmlError):
            from_anml(
                '<anml-network id="x"><state-transition-element id="a" '
                'symbol-set="a" start="sometimes"/></anml-network>'
            )

    def test_unknown_child_element(self):
        with pytest.raises(AnmlError):
            from_anml(
                '<anml-network id="x"><state-transition-element id="a" '
                'symbol-set="a"><frobnicate/></state-transition-element>'
                "</anml-network>"
            )

    def test_forward_edge_reference(self):
        """activate-on-match may reference an STE defined later."""
        document = (
            '<anml-network id="x">'
            '<state-transition-element id="a" symbol-set="a" start="all-input">'
            '<activate-on-match element="b"/></state-transition-element>'
            '<state-transition-element id="b" symbol-set="b">'
            "<report-on-match/></state-transition-element>"
            "</anml-network>"
        )
        parsed = from_anml(document)
        assert match_offsets(parsed, b"ab") == [1]
