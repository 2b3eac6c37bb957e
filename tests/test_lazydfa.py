"""A cold lazy DFA is bit-identical to the golden interpreter.

A fresh :class:`~repro.sim.lazydfa.LazyDfaKernel`'s first scan is all
misses, so every transition it takes is one its step function computed
just then — on rows held as ints, from successor ints read off the
kernel's edge list the first time a row sets their bit.
Hypothesis draws the rulesets and the streams; the oracle is the golden
backend's scan of the whole stream: the reports as a list (offset, STE
id, report code, order), the checkpoint and the symbols consumed.

Axes: ``^``-anchored patterns (the start-of-data step), a match on the
last byte, a state budget small enough to flush mid-scan, stride 1 and
2, a resume from a mid-stream checkpoint, and an ``export_tables ->
seed`` round trip into a fresh kernel with cold misses on top.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.core.design import CA_P
from repro.regex.compile import compile_patterns
from repro.sim import kernel as kernel_module
from repro.sim.lazydfa import LazyDfaKernel, scan_one

_PIECES = ["a", "b", "c", "d", ".", "[ab]", "[cd]", "[^a]"]


def _match_of(pattern: str) -> str:
    """A string the unanchored ``pattern`` matches at its last byte."""
    out, index = [], 0
    while index < len(pattern):
        if pattern[index] == "[":
            end = pattern.index("]", index)
            members = pattern[index + 1 : end]
            out.append("b" if members.startswith("^") else members[0])
            index = end + 1
        else:
            out.append("a" if pattern[index] == "." else pattern[index])
            index += 1
    return "".join(out)


@st.composite
def cases(draw):
    patterns = []
    for index in range(draw(st.integers(1, 4))):
        body = "".join(draw(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=5)))
        # Pattern 0 stays unanchored: the match planted at the end is its.
        anchored = index > 0 and draw(st.booleans())
        patterns.append(("^" if anchored else "") + body)
    text = st.text(alphabet="abcd", max_size=160)
    data = draw(text)
    if draw(st.booleans()):
        data += _match_of(patterns[0])  # a report on the last byte
    return {
        "patterns": patterns,
        "data": data.encode(),
        "stride": draw(st.sampled_from([1, 2])),
        "flush": draw(st.booleans()),
        "cut": draw(st.floats(0, 1)),
        "seed_from": draw(st.one_of(st.none(), text)),
    }


def _triples(result):
    return [(r.offset, r.ste_id, r.report_code) for r in result.reports]


@given(cases())
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_cold_lazy_dfa_is_bit_identical_to_golden(case):
    machine = compile_patterns(case["patterns"], report_codes=case["patterns"])
    artifact = CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))
    golden = create_backend("golden", artifact)
    backend = create_backend("lazy-dfa", artifact)
    kernel = backend.simulator.kernel
    dfa = LazyDfaKernel(kernel, stride=case["stride"])
    budget = 3 if case["flush"] else dfa._max_states
    dfa._max_states = budget  # 3 is past the constructor's floor of 64
    if case["seed_from"] is not None:
        warm = LazyDfaKernel(kernel, stride=case["stride"])
        scan_one(kernel, warm, case["seed_from"].encode(), None, False)
        dfa.seed(warm.export_tables())
        assert dfa.cache_info()["states"] == min(
            budget, warm.cache_info()["states"]
        )
    data = case["data"]
    cut = int(case["cut"] * len(data))

    def scan(piece, resume):
        raw = scan_one(kernel, dfa, piece, resume, True)
        return backend.materialise_raw(raw, True)

    head = scan(data[:cut], None)
    expected_head = golden.scan(data[:cut])
    assert _triples(head) == _triples(expected_head)
    assert head.checkpoint == expected_head.checkpoint
    tail = scan(data[cut:], head.checkpoint)
    expected = golden.scan(data)
    assert _triples(head) + _triples(tail) == _triples(expected)
    assert tail.checkpoint == expected.checkpoint
    assert head.profile.symbols + tail.profile.symbols == len(data)
    assert head.profile.reports + tail.profile.reports == expected.profile.reports
    assert dfa.cache_info()["states"] <= budget + 1  # + a scan's entry state


def test_successor_ints_match_the_packed_propagate():
    """``propagate_int`` ORs one successor int a bit on narrow rows and
    scatters edge heads in numpy on wide ones: forced either way, it is
    the OR over the edges of the row's set bits."""
    machine = compile_patterns(["ab[cd]+a", "^c.d", "[ab].b"])
    kernel = create_backend(
        "lazy-dfa", CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))
    ).simulator.kernel
    tail, head = kernel.edges()
    rng = np.random.default_rng(3)
    occupied = kernel.unpack(kernel._occupied())
    for _ in range(50):
        row = kernel.unpack(
            rng.integers(0, 2**63, kernel.words, dtype=np.uint64)
        ) & occupied
        expected = 0
        for source, target in zip(tail.tolist(), head.tolist()):
            if row >> source & 1:
                expected |= 1 << target
        for scatter_from in (0, 10**9):
            kernel._init_caches()
            with mock.patch.object(
                kernel_module, "PROPAGATE_SCATTER_BITS", scatter_from
            ):
                assert kernel.propagate_int(row) == expected
