"""Tests for the benchmark suite, synthetic generators, distance automata,
and input streams."""

import os
import random
import subprocess
import sys

import pytest

from repro.automata.components import component_stats
from repro.errors import AutomatonError, ReproError
from repro.sim.golden import match_offsets, simulate
from repro.workloads import inputs, synth
from repro.workloads.distance import (
    hamming_automaton,
    levenshtein_automaton,
    levenshtein_nfa,
)
from repro.workloads.suite import BENCHMARK_NAMES, build_suite, get_benchmark


def hamming_distance(a: bytes, b: bytes) -> int:
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


def edit_distance(a: bytes, b: bytes) -> int:
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        current = [i]
        for j, y in enumerate(b, 1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (x != y))
            )
        previous = current
    return previous[-1]


class TestHammingAutomaton:
    def test_exact_match(self):
        automaton = hamming_automaton(b"gattaca", 1)
        assert 6 in match_offsets(automaton, b"gattaca")

    def test_one_substitution(self):
        automaton = hamming_automaton(b"gattaca", 1)
        assert 6 in match_offsets(automaton, b"gatxaca")

    def test_two_substitutions_rejected_at_k1(self):
        automaton = hamming_automaton(b"gattaca", 1)
        assert match_offsets(automaton, b"gxtxaca") == []

    def test_brute_force_agreement(self):
        rng = random.Random(31)
        pattern = bytes(rng.choice(b"ACGT") for _ in range(8))
        automaton = hamming_automaton(pattern, 2)
        text = bytes(rng.choice(b"ACGT") for _ in range(300))
        expected = [
            end
            for end in range(7, len(text))
            if hamming_distance(text[end - 7 : end + 1], pattern) <= 2
        ]
        assert match_offsets(automaton, text) == expected

    def test_anchored(self):
        automaton = hamming_automaton(b"abc", 1, anchored=True)
        assert match_offsets(automaton, b"abcabc") == [2]
        assert match_offsets(automaton, b"xbcabc") == [2]  # 1 mismatch at start
        assert match_offsets(automaton, b"xycabc") == []

    def test_validation(self):
        with pytest.raises(AutomatonError):
            hamming_automaton(b"", 1)
        with pytest.raises(AutomatonError):
            hamming_automaton(b"abc", -1)
        with pytest.raises(AutomatonError):
            hamming_automaton(b"abc", 3)

    def test_report_code(self):
        automaton = hamming_automaton(b"ab", 1, report_code="gene7")
        reports = simulate(automaton, b"ab").reports
        assert all(r.report_code == "gene7" for r in reports)


class TestLevenshteinAutomaton:
    def test_exact_and_substitution(self):
        automaton = levenshtein_automaton(b"kitten", 1)
        assert match_offsets(automaton, b"kitten")
        assert match_offsets(automaton, b"kitxen")

    def test_insertion_and_deletion(self):
        automaton = levenshtein_automaton(b"kitten", 1)
        assert match_offsets(automaton, b"kit_ten")  # one insertion
        assert match_offsets(automaton, b"kiten")  # one deletion

    def test_distance_two_needed(self):
        automaton1 = levenshtein_automaton(b"kitten", 1)
        automaton2 = levenshtein_automaton(b"kitten", 2)
        assert not match_offsets(automaton1, b"sittin")
        assert match_offsets(automaton2, b"sittin")

    def test_brute_force_agreement(self):
        rng = random.Random(32)
        pattern = bytes(rng.choice(b"ab") for _ in range(6))
        automaton = levenshtein_automaton(pattern, 1)
        text = bytes(rng.choice(b"ab") for _ in range(60))
        expected = set()
        for end in range(len(text)):
            for start in range(max(0, end - 8), end + 1):
                if edit_distance(text[start : end + 1], pattern) <= 1:
                    expected.add(end)
                    break
        assert set(match_offsets(automaton, text)) == expected

    def test_nfa_epsilon_structure(self):
        nfa = levenshtein_nfa(b"abc", 1)
        assert nfa.has_epsilon()  # deletions are epsilon moves

    def test_distance_must_be_less_than_length(self):
        with pytest.raises(AutomatonError):
            levenshtein_automaton(b"ab", 2)

    def test_the_suite_ruleset_is_the_same_under_any_hash_seed(self):
        """Epsilon removal and trimming once walked ``set``s of state
        names, so the order of the split states — and so which label
        each ``"{target}#{n}"`` got — changed with ``PYTHONHASHSEED``."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        probe = (
            "from repro.workloads.suite import get_benchmark\n"
            "automaton = get_benchmark('Levenshtein').build()\n"
            "ids = automaton.ste_ids()\n"
            "print(repr((ids, [automaton.ste(i).symbols.mask for i in ids],"
            " sorted(automaton.edges_unordered()))))\n"
        )
        builds = [
            subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True, text=True, cwd=root, check=True,
                env=dict(
                    os.environ,
                    PYTHONPATH=os.path.join(root, "src"),
                    PYTHONHASHSEED=seed,
                ),
            ).stdout
            for seed in ("1", "2")
        ]
        assert builds[0] and builds[0] == builds[1]


class TestGenerators:
    def test_determinism(self):
        assert synth.dotstar_rules(20, 0.5, seed=1) == synth.dotstar_rules(
            20, 0.5, seed=1
        )
        assert synth.ids_rules(10, seed=2) == synth.ids_rules(10, seed=2)

    def test_dotstar_fraction_respected(self):
        none = synth.dotstar_rules(50, 0.0, seed=3)
        everything = synth.dotstar_rules(50, 1.0, seed=3)
        assert not any(".*" in rule for rule in none)
        assert all(".*" in rule for rule in everything)

    def test_dotstar_fraction_validated(self):
        with pytest.raises(ReproError):
            synth.dotstar_rules(10, 1.5)

    def test_all_rule_families_compile(self):
        from repro.regex.compile import compile_patterns

        for rules in (
            synth.dotstar_rules(10, 0.5, seed=4),
            synth.range_rules(10, 1.0, seed=5),
            synth.exact_match_rules(10, seed=6),
            synth.ids_rules(10, seed=7),
            synth.prosite_motifs(10, seed=8),
            synth.spm_patterns(10, seed=9),
        ):
            machine = compile_patterns(rules)
            machine.validate()

    def test_clamav_family_sharing(self):
        signatures = synth.clamav_signatures(20, seed=10)
        heads = {s[:16] for s in signatures}
        assert len(heads) < 20  # families share heads

    def test_fermi_wide_labels(self):
        automaton = synth.fermi_automaton(5, length=4, seed=11)
        widths = [ste.symbols.cardinality() for ste in automaton.stes()]
        # Ranges clip at the alphabet edges, but stay broad on average —
        # that breadth is what keeps Fermi's active set huge.
        assert min(widths) >= 40
        assert sum(widths) / len(widths) >= 100

    def test_random_forest_structure(self):
        automaton = synth.random_forest_automaton(7, 5, seed=12)
        stats = component_stats(automaton)
        assert stats.component_count == 7
        assert stats.largest_component_size == 5

    def test_entity_names_first_letters(self):
        names = synth.entity_resolution_names(30, seed=13, first_letters="ab")
        assert {name[:1] for name in names} <= {b"a", b"b"}


class TestInputs:
    def test_lengths(self):
        for maker in (
            lambda: inputs.random_bytes(1000, seed=1),
            lambda: inputs.random_over_alphabet(1000, b"ab", seed=2),
            lambda: inputs.text_stream(1000, seed=3),
            lambda: inputs.dna_stream(1000, seed=4),
            lambda: inputs.protein_stream(1000, seed=5),
            lambda: inputs.record_stream(1000, b"0123", seed=6),
        ):
            assert len(maker()) == 1000

    def test_alphabet_respected(self):
        stream = inputs.dna_stream(500, seed=7)
        assert set(stream) <= set(b"ACGT")

    def test_planting_guarantees_occurrences(self):
        background = inputs.random_over_alphabet(2000, b"x", seed=8)
        planted = inputs.with_planted_matches(
            background, [b"needle"], occurrences=5, seed=9
        )
        assert planted.count(b"needle") >= 1

    def test_planting_validations(self):
        with pytest.raises(ReproError):
            inputs.with_planted_matches(b"short", [b"toolongneedle"], occurrences=1)
        with pytest.raises(ReproError):
            inputs.with_planted_matches(b"x" * 10, [], occurrences=1)
        with pytest.raises(ReproError):
            inputs.random_over_alphabet(10, b"")

    def test_record_stream_separators(self):
        stream = inputs.record_stream(160, b"01", record_length=16, seed=10)
        assert stream[15] == 0x0A
        assert stream[31] == 0x0A

    def test_determinism(self):
        assert inputs.random_bytes(100, seed=1) == inputs.random_bytes(100, seed=1)
        assert inputs.random_bytes(100, seed=1) != inputs.random_bytes(100, seed=2)


class TestSuite:
    def test_twenty_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 20
        assert len(set(BENCHMARK_NAMES)) == 20

    def test_lookup(self):
        assert get_benchmark("Snort").name == "Snort"
        with pytest.raises(ReproError):
            get_benchmark("NotABenchmark")

    def test_paper_rows_present(self):
        for benchmark in build_suite():
            assert benchmark.paper.states > 0
            assert benchmark.paper.s_states <= benchmark.paper.states

    def test_builders_deterministic(self):
        benchmark = get_benchmark("Bro217")
        first = benchmark.build()
        second = benchmark.build()
        assert sorted(first.ste_ids()) == sorted(second.ste_ids())
        assert sorted(first.edges()) == sorted(second.edges())

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_benchmark_builds_and_matches(self, name):
        benchmark = get_benchmark(name)
        automaton = benchmark.build()
        automaton.validate()
        data = benchmark.input_stream(2000, seed=3)
        assert len(data) == 2000
        result = simulate(automaton, data, collect_reports=False)
        # Activity must be non-trivial: the input actually exercises it.
        assert result.stats.total_matched_states > 0

    def test_space_trend_mirrors_paper(self):
        """Where the paper's CC count collapses, ours must too."""
        from repro.automata.optimize import space_optimize

        for name in ("EntityResolution", "Brill", "Snort"):
            automaton = get_benchmark(name).build()
            before = component_stats(automaton)
            after = component_stats(space_optimize(automaton))
            assert after.component_count < before.component_count / 2, name
            assert after.state_count < before.state_count, name
