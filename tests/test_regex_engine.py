"""Differential tests: our regex engine vs Python's ``re`` module.

The oracle: an end offset *j* is reported iff some substring ending at
*j* is in the pattern's language — checked with ``re.fullmatch`` over all
substrings.  This pins the Glushkov construction, the golden simulator,
and (via separate tests) the Thompson+DFA path against an independent
implementation.
"""

import hashlib
import os
import random
import re
import signal
import sys
import threading
import time

import pytest

from repro.automata.dfa import determinize
from repro.automata.epsilon import remove_epsilon
from repro.automata.transform import to_homogeneous
from repro.compiler.cache import automaton_fingerprint
from repro.errors import RegexError
from repro.memo import BoundedMemo
from repro.regex import compile as regex_compile
from repro.regex.compile import (
    FRAGMENT_MEMO_BYTES,
    compile_pattern,
    compile_patterns,
    literal_pattern,
)
from repro.regex.glushkov import build_glushkov
from repro.regex.parser import parse
from repro.regex.thompson import build_thompson
from repro.sim.golden import match_offsets
from repro.workloads.suite import get_benchmark
from tests.conftest import churn_patterns

#: Patterns spanning every supported construct.
PATTERNS = [
    "abc",
    "a|b",
    "ab|cd|ef",
    "a*bc",
    "a+b",
    "ab?c",
    "a{3}",
    "a{2,4}b",
    "(ab)+",
    "(?:ab|cd)*ef",
    "[abc]x[^abc]",
    "[a-f]{2}",
    "a.c",
    ".*abc",
    "a.*b",
    "x(y|z)w",
    "(a|ab)(c|bc)",
    "a(b|c)*d",
    "[ab][ab][ab]",
    "z{1,2}[xy]+",
    "(abc|a)bc",
    "a[b-d]?e",
]

ALPHABET = "abcdefxyzw"


def oracle_ends(pattern: str, text: str) -> list[int]:
    compiled = re.compile(pattern, re.DOTALL)
    ends = []
    for j in range(len(text)):
        if any(
            compiled.fullmatch(text, i, j + 1) for i in range(j + 1)
        ):
            ends.append(j)
    return ends


def random_text(seed: int, length: int = 60) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice(ALPHABET) for _ in range(length))


class TestGlushkovVsRe:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_scanning_offsets_match_re(self, pattern):
        machine = compile_pattern(pattern)
        for seed in range(4):
            text = random_text(seed)
            expected = oracle_ends(pattern, text)
            assert match_offsets(machine, text.encode()) == expected, (
                pattern, text
            )

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_glushkov_equals_thompson_path(self, pattern):
        """Two independent constructions must produce the same language."""
        parsed = parse(pattern)
        glushkov = build_glushkov(parsed)
        thompson = to_homogeneous(
            remove_epsilon(build_thompson(parsed)),
            start=list(glushkov.start_states())[0].start,
        )
        for seed in range(3):
            text = random_text(seed, 50).encode()
            assert match_offsets(glushkov, text) == match_offsets(thompson, text), (
                pattern
            )

    def test_planted_matches_found(self):
        machine = compile_pattern("needle")
        text = b"hay needle hayneedlehay"
        assert match_offsets(machine, text) == [9, 19]


class TestAnchors:
    def test_start_anchor(self):
        machine = compile_pattern("^ab")
        assert match_offsets(machine, b"abab") == [1]

    def test_end_anchor_requires_sentinel(self):
        with pytest.raises(RegexError):
            compile_pattern("ab$")

    def test_end_anchor_with_sentinel(self):
        machine = compile_pattern("ab$", eod_sentinel=0)
        assert match_offsets(machine, b"abxab\x00") == [5]
        assert match_offsets(machine, b"abxab") == []


class TestEmptyLanguageEdges:
    def test_nullable_pattern_rejected(self):
        with pytest.raises(RegexError):
            compile_pattern("a*")

    def test_nullable_alternation_rejected(self):
        with pytest.raises(RegexError):
            compile_pattern("a|")


class TestMultiPattern:
    def test_report_codes_identify_rules(self):
        machine = compile_patterns(["cat", "dog"], report_codes=["feline", "canine"])
        from repro.sim.golden import simulate

        reports = simulate(machine, b"a cat and a dog").reports
        codes = {report.report_code for report in reports}
        assert codes == {"feline", "canine"}

    def test_default_codes_are_indices(self):
        machine = compile_patterns(["aa", "bb"])
        from repro.sim.golden import simulate

        reports = simulate(machine, b"aabb").reports
        assert {report.report_code for report in reports} == {"0", "1"}

    def test_code_count_mismatch(self):
        with pytest.raises(RegexError):
            compile_patterns(["a", "b"], report_codes=["only-one"])

    def test_empty_rule_set(self):
        with pytest.raises(RegexError):
            compile_patterns([])


class TestLiteralPattern:
    def test_chain_matches(self):
        machine = literal_pattern("exact")
        assert match_offsets(machine, b"an exact match, exactly") == [7, 20]

    def test_anchored_literal(self):
        machine = literal_pattern("ab", anchored=True)
        assert match_offsets(machine, b"abab") == [1]

    def test_single_character(self):
        machine = literal_pattern("x")
        assert match_offsets(machine, b"axbx") == [1, 3]
        assert len(machine) == 1

    def test_empty_rejected(self):
        with pytest.raises(RegexError):
            literal_pattern("")


class TestDfaCrossCheck:
    @pytest.mark.parametrize("pattern", PATTERNS[:12])
    def test_golden_equals_scanning_dfa(self, pattern):
        from repro.automata.transform import homogeneous_to_nfa

        machine = compile_pattern(pattern)
        dfa = determinize(homogeneous_to_nfa(machine))
        for seed in range(3):
            text = random_text(seed, 70).encode()
            dfa_ends = [offset - 1 for offset in dfa.find_matches(text) if offset > 0]
            assert match_offsets(machine, text) == dfa_ends, pattern


#: ``(to_arrays() digest, fingerprint)`` prefixes of every suite ruleset
#: and of the ``ruleset-churn`` lists as ``from_patterns`` compiles them,
#: as the per-state front end (states added one by one and merged) built
#: them: the array front end must build the very same automata.
PINNED_DIGESTS = {
    "Brill": ("1cbf4b1082301281", "adf01c125905ff3a"),
    "Bro217": ("45fb90fa49e58242", "771f35be73b401e9"),
    "ClamAV": ("deb13f6c5963300a", "1c484e3fc2744266"),
    "Dotstar": ("358190098dceb3c4", "73acff447b18d405"),
    "Dotstar03": ("79fbd6d32cff0783", "67c69f58c2a56b5f"),
    "Dotstar06": ("64926eb6c5a1d529", "65d0aec19c52aa2b"),
    "Dotstar09": ("dcb1f85ae1a1ff63", "305539083f30fbd7"),
    "EntityResolution": ("54104ddbc0828dba", "cf532baa84d274ce"),
    "ExactMatch": ("213261145d72076f", "6c4664af7a379960"),
    "Fermi": ("2d50d3c078e8b463", "f347b663c5ef6080"),
    "Hamming": ("53ed28ef582fafde", "84ff40a2360f74b7"),
    "Levenshtein": ("9bf9f7ecbcab5369", "d120f63dcad5644b"),
    "PowerEN": ("34ff569a512303e8", "451d1a4ae9b5743d"),
    "Protomata": ("bbaeb525b8658c7d", "16222fbc2fe98486"),
    "RandomForest": ("31344c65666eec32", "f96880784a05864e"),
    "Ranges05": ("a37c73046a3bfa70", "bc4fdbe637f652d4"),
    "Ranges1": ("05e88c9008d6cf50", "9f2a0ac311557261"),
    "SPM": ("8e5abc296251fd09", "107b89c05a70044d"),
    "Snort": ("6440bb7306893fa6", "44584a001a92d4a6"),
    "TCP": ("a58875c8ae730870", "10855632aef43d0a"),
    "list00": ("be329b23b6c82351", "eb01730bf62eec48"),
    "list01": ("341fe7cbf240cb44", "73103b623032d5e1"),
    "list02": ("5fda451e0fb29d28", "f9aca56733e9ca57"),
    "list03": ("b1646270b63afdbf", "14a4a3b027e93547"),
    "list04": ("aaec17df26478334", "b728268ac8bc6cec"),
    "list05": ("040cab1aaee799ae", "56b98cdce79c62df"),
    "list06": ("64837c96f2c813dc", "3716775e5caa3bf0"),
    "list07": ("af3367d8226642d7", "256600a6fb5e0cd4"),
    "list08": ("b9501f51fcef3de6", "8bf95d0b11a097c2"),
    "list09": ("9d1c06d77e416877", "62a764685f761b81"),
    "list10": ("1cb847848fa9b176", "491f0631a48985ce"),
    "list11": ("def9a37aac93b6ae", "c419f4d7a43b5e20"),
    "list12": ("365b8e867e0e15cb", "977a68510779b436"),
    "list13": ("a5bc410960706a59", "17ca02da0d462e52"),
    "list14": ("d9ac3db350524bef", "d83e0d3b7346bee8"),
    "list15": ("6193799d05968439", "7904f1fbddd397f4"),
}


def _pinned_automaton(name):
    if name.startswith("list"):
        patterns = churn_patterns(int(name[4:]))
        return compile_patterns(patterns, report_codes=patterns, automaton_id="engine")
    return get_benchmark(name).build()


def _digests(automaton):
    digest = hashlib.sha256()
    for member, array in sorted(automaton.to_arrays().items()):
        digest.update(f"{member}:{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16], automaton_fingerprint(automaton)[:16]


@pytest.fixture()
def fresh_fragments(monkeypatch):
    """An empty fragment memo of the default bound for one test."""
    memo = BoundedMemo(FRAGMENT_MEMO_BYTES)
    monkeypatch.setattr(regex_compile, "FRAGMENTS", memo)
    return memo


class TestArrayFrontEnd:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_arrays_and_fingerprint_are_pinned(self, name):
        assert _digests(_pinned_automaton(name)) == PINNED_DIGESTS[name]

    def test_an_edited_list_parses_one_pattern(self, monkeypatch, fresh_fragments):
        patterns = churn_patterns(5)
        compile_patterns(patterns, report_codes=patterns, automaton_id="engine")
        parsed = []
        real = regex_compile.parse
        monkeypatch.setattr(
            regex_compile, "parse", lambda text: parsed.append(text) or real(text)
        )
        edited = list(patterns)
        edited[17] = "qzxwvy42"
        automaton = compile_patterns(edited, report_codes=edited, automaton_id="engine")
        assert parsed == ["qzxwvy42"]
        # What the memo served is what a fresh front end compiles.
        fresh_fragments.clear()
        again = compile_patterns(edited, report_codes=edited, automaton_id="engine")
        assert _digests(automaton) == _digests(again)
        assert len(parsed) == 1 + len(set(edited))

    def test_the_memo_holds_its_byte_bound(self, fresh_fragments):
        patterns = churn_patterns(15)
        expected = _digests(compile_patterns(patterns))
        fresh_fragments.limit = 20_000
        fresh_fragments.clear()
        first = compile_patterns(patterns)
        info = fresh_fragments.info()
        assert info["evictions"] > 0
        assert 0 < info["bytes"] <= 20_000
        assert 0 < len(fresh_fragments) < len(set(patterns))
        assert _digests(first) == _digests(compile_patterns(patterns)) == expected

    def test_threads_compiling_overlapping_lists_agree(self, fresh_fragments):
        """Two registrations racing on one memo: each gets the automaton
        a lone compile gives, and every pattern is held once."""
        base = churn_patterns(9)
        lists = [base[:120], base[60:]]
        expected = [_digests(compile_patterns(rules)) for rules in lists]
        fresh_fragments.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                fresh_fragments.clear()
                barrier = threading.Barrier(len(lists))
                results = [None] * len(lists)

                def register(index):
                    barrier.wait()
                    results[index] = _digests(compile_patterns(lists[index]))

                threads = [
                    threading.Thread(target=register, args=(index,))
                    for index in range(len(lists))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert results == expected
                assert len(fresh_fragments) == len(set(base))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_child_forked_mid_lookup_compiles(self, fresh_fragments):
        """A scan process forked while another thread held the memo's
        lock must not wait on that lock forever."""
        with fresh_fragments._lock:
            pid = os.fork()
            if pid == 0:  # the child: compile, then leave at once
                code = 0 if len(compile_patterns(["bat", "c[ao]t"])) == 6 else 1
                os._exit(code)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on the memo's lock")
        assert os.waitstatus_to_exitcode(status) == 0
