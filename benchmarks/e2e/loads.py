"""Seeded rulesets and input streams for the five workloads.

The program under test only ever receives what is generated here; the
same ``seed`` gives byte-identical pattern lists and streams, and the
sha256 of both is pinned for the default seed (``pins.json``) so an edit
to ``repro.workloads`` cannot silently change the load.

Sizes are fixed per workload and never depend on the seed: the seed
chooses *content*, so that ten runs on ten seeds measure the same amount
and kind of work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.regex.compile import compile_patterns
from repro.workloads import synth
from repro.workloads.suite import get_benchmark

DEFAULT_SEED = 7
#: Never used while a change is being written; gains are confirmed on it.
HELD_OUT_SEED = 11

PROBE_BYTES = 8 * 1024
_PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

_TEXT_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789 "


@dataclass
class Ruleset:
    """One ruleset with the bytes it will scan.

    ``patterns`` is the regex list when the ruleset has one (the serving
    layer registers tenants by pattern list); ``build`` always yields the
    automaton.  ``probe`` is the 8 KiB "first result" slice, ``warm`` the
    warm-up slices, ``streams`` the measured ones (disjoint from both).
    """

    name: str
    build: Callable[[], object]
    probe: bytes
    warm: List[bytes]
    streams: List[bytes]
    patterns: Optional[List[str]] = None
    dfa_max_states: Optional[int] = None


@dataclass
class Load:
    workload: str
    seed: int
    rulesets: List[Ruleset]
    #: Serving workloads: the request order, as (ruleset, stream) indices.
    requests: List[Tuple[int, int]] = field(default_factory=list)
    #: Open-loop inter-arrival gaps in seconds (seeded exponential).
    gaps: List[float] = field(default_factory=list)

    def digest(self) -> str:
        sha = hashlib.sha256()
        for ruleset in self.rulesets:
            sha.update(ruleset.name.encode())
            sha.update(json.dumps(ruleset.patterns).encode())
            for blob in [ruleset.probe, *ruleset.warm, *ruleset.streams]:
                sha.update(len(blob).to_bytes(8, "big"))
                sha.update(blob)
        sha.update(json.dumps(self.requests[:4096]).encode())
        sha.update(json.dumps([round(gap, 9) for gap in self.gaps[:4096]]).encode())
        return sha.hexdigest()


class CircularSlices:
    """Fixed-size slices cut from one pool, never the same bytes twice.

    The pool is read as a ring; each lap starts 4099 bytes later than
    the one before, so a slice of a later lap shares its distribution
    with earlier slices but is a different byte string.  A pass over
    "warm" data therefore scans fresh bytes, not a buffer the program
    could have memoised.
    """

    _LAP_SHIFT = 4099

    def __init__(self, pool: bytes, slice_bytes: int):
        self._ring = pool + pool[:slice_bytes]
        self._pool_bytes = len(pool)
        self._slice_bytes = slice_bytes
        self._per_lap = len(pool) // slice_bytes
        self._served = 0

    def next(self) -> bytes:
        lap, index = divmod(self._served, self._per_lap)
        self._served += 1
        start = (index * self._slice_bytes + lap * self._LAP_SHIFT) % self._pool_bytes
        return self._ring[start : start + self._slice_bytes]


def _suite_ruleset(
    name: str,
    seed: int,
    index: int,
    *,
    probe_bytes: int,
    slice_bytes: int,
    warm_slices: int,
    pool_bytes: int,
) -> Ruleset:
    bench = get_benchmark(name)
    base = seed * 1000 + index * 10
    warm_data = bench.input_stream(warm_slices * slice_bytes, seed=base + 1)
    return Ruleset(
        name=name,
        build=bench.build,
        probe=bench.input_stream(probe_bytes, seed=base),
        warm=_cut(warm_data, slice_bytes),
        streams=[bench.input_stream(pool_bytes, seed=base + 2)],
    )


def _cut(data: bytes, slice_bytes: int) -> List[bytes]:
    return [
        data[start : start + slice_bytes]
        for start in range(0, len(data) - slice_bytes + 1, slice_bytes)
    ]


#: Slices are short, so that the noise reference is read every few
#: milliseconds of scanning; the hostile rulesets scan 50x slower per byte.
FRIENDLY_SLICE = 32 * 1024
HOSTILE_SLICE = 1024
#: The hostile rulesets take 10-60 ms per KiB even for the first result.
_HOSTILE_PROBE = 2 * 1024


def offline_friendly(seed: int) -> Load:
    rulesets = [
        _suite_ruleset(
            name, seed, index, probe_bytes=PROBE_BYTES,
            slice_bytes=FRIENDLY_SLICE, warm_slices=8, pool_bytes=1 << 20,
        )
        for index, name in enumerate(("Snort", "ExactMatch", "Ranges1", "Bro217"))
    ]
    return Load("offline-friendly", seed, rulesets)


def offline_hostile(seed: int) -> Load:
    rulesets = [
        _suite_ruleset(
            name, seed, index, probe_bytes=_HOSTILE_PROBE,
            slice_bytes=HOSTILE_SLICE, warm_slices=8, pool_bytes=256 * 1024,
        )
        for index, name in enumerate(("Hamming", "Levenshtein", "Fermi"))
    ]
    rng = random.Random(seed * 1000 + 99)
    bounded = ["x.{14}y"]
    warm_bytes = 8 * HOSTILE_SLICE
    text = bytes(rng.choices(b"abcdwxyz", k=_HOSTILE_PROBE + warm_bytes + 256 * 1024))
    rulesets.append(
        Ruleset(
            name="BoundedRepetition",
            build=lambda: compile_patterns(bounded, automaton_id="BoundedRepetition"),
            probe=text[:_HOSTILE_PROBE],
            warm=_cut(text[_HOSTILE_PROBE : _HOSTILE_PROBE + warm_bytes], HOSTILE_SLICE),
            streams=[text[_HOSTILE_PROBE + warm_bytes :]],
            patterns=bounded,
        )
    )
    return Load("offline-hostile", seed, rulesets)


# -- ruleset-churn ------------------------------------------------------------

CHURN_LISTS = 16
_CHURN_KINDS: Tuple[Callable[[int, int], List[str]], ...] = (
    lambda count, seed: synth.ids_rules(count, seed=seed),
    lambda count, seed: synth.dotstar_rules(count, 0.3, seed=seed),
    lambda count, seed: synth.exact_match_rules(count, seed=seed),
    lambda count, seed: synth.range_rules(count, 1.0, seed=seed),
)


def _literal_heads(patterns: Sequence[str], limit: int = 12) -> List[bytes]:
    """Leading alphanumeric runs of the rules, planted so matches occur."""
    heads: List[bytes] = []
    for pattern in patterns:
        run = []
        for character in pattern:
            if not character.isalnum():
                break
            run.append(character)
        if len(run) >= 4:
            heads.append("".join(run).encode())
        if len(heads) >= limit:
            break
    return heads


def _planted_text(length: int, rng: random.Random, needles: Sequence[bytes]) -> bytes:
    weights = [1.0 / (rank + 1) for rank in range(len(_TEXT_ALPHABET))]
    stream = bytearray(rng.choices(_TEXT_ALPHABET, weights=weights, k=length))
    if needles:
        for _ in range(max(2, length // 1500)):
            needle = rng.choice(needles)
            position = rng.randrange(0, length - len(needle) + 1)
            stream[position : position + len(needle)] = needle
    return bytes(stream)


def churn_patterns(index: int) -> List[str]:
    """Pattern list ``index``, the same for every seed, like the suite
    rulesets of the other workloads: the kind and the size (40–200) depend
    on the index.  The seed draws the bytes scanned and the edits.  Lists
    drawn from the seed differed in start-up cost by 20 % from one seed to
    the next, which would have hidden any change smaller than that."""
    count = 40 + (index * 53) % 161
    return _CHURN_KINDS[index % len(_CHURN_KINDS)](count, 1000 + index)


def churn_edit(patterns: Sequence[str], seed: int, index: int, cycle: int) -> List[str]:
    """``patterns`` with one rule replaced by a literal no earlier cycle
    used, so the artifact cache must miss and store."""
    rng = random.Random((seed * 1000 + index) * 1000 + cycle)
    word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(10))
    edited = list(patterns)
    edited[rng.randrange(len(edited))] = f"{word}{cycle}"
    return edited


def ruleset_churn(seed: int) -> Load:
    rulesets = []
    for index in range(CHURN_LISTS):
        patterns = churn_patterns(index)
        rng = random.Random(seed * 1000 + 500 + index)
        text = _planted_text(2 * PROBE_BYTES, rng, _literal_heads(patterns))
        rulesets.append(
            Ruleset(
                name=f"list{index:02d}",
                build=lambda patterns=patterns: compile_patterns(patterns),
                probe=text[:PROBE_BYTES],
                warm=[],
                streams=[text[PROBE_BYTES:]],
                patterns=patterns,
            )
        )
    return Load("ruleset-churn", seed, rulesets)


# -- serving ------------------------------------------------------------------

#: (tenant, pattern list, input generator of the matching suite entry,
#: lazy-DFA state budget).  Budgets sit above the steady-state DFA size of
#: each ruleset on this traffic, so the measured phase sees no flushes.
_TENANTS = (
    ("Bro217", lambda: synth.ids_rules(40, seed=217, dotstar_probability=0.05), 4096),
    ("TCP", lambda: synth.ids_rules(60, seed=7, dotstar_probability=0.05), 4096),
    (
        "PowerEN",
        lambda: synth.ids_rules(
            110, seed=43, class_probability=0.35, dotstar_probability=0.08
        ),
        8192,
    ),
    (
        "Snort",
        lambda: synth.ids_rules(
            170, seed=31, dotstar_probability=0.25, shared_prefixes=12
        ),
        8192,
    ),
)

#: Request sizes 2/16/64 KiB over 32 streams per tenant.
_STREAM_SIZES = [2048] * 19 + [16384] * 10 + [65536] * 3
_WARM_SIZES = [2048] * 4 + [16384] * 3 + [65536]
#: Requests per size in one block of the request order: 6:3:1 for every
#: tenant, so any few dozen consecutive requests carry the same mix of
#: work and a slice of wall time measures the program, not the draw.
BLOCK_MIX = ((2048, 6), (16384, 3), (65536, 1))
_BLOCKS = 500


def serving(workload: str, seed: int, rate_per_s: float) -> Load:
    rulesets = []
    for index, (name, make_patterns, budget) in enumerate(_TENANTS):
        bench = get_benchmark(name)
        patterns = make_patterns()
        base = seed * 100_000 + index * 1000
        rulesets.append(
            Ruleset(
                name=name,
                build=lambda patterns=patterns: compile_patterns(patterns),
                probe=bench.input_stream(PROBE_BYTES, seed=base),
                warm=[
                    bench.input_stream(size, seed=base + 1 + n)
                    for n, size in enumerate(_WARM_SIZES)
                ],
                streams=[
                    bench.input_stream(size, seed=base + 100 + n)
                    for n, size in enumerate(_STREAM_SIZES)
                ],
                patterns=patterns,
                dfa_max_states=budget,
            )
        )
    rng = random.Random(seed * 7919 + 1)
    by_size = {
        size: [n for n, other in enumerate(_STREAM_SIZES) if other == size]
        for size, _ in BLOCK_MIX
    }
    requests = []
    for _ in range(_BLOCKS):
        block = [
            (tenant, rng.choice(by_size[size]))
            for tenant in range(len(rulesets))
            for size, count in BLOCK_MIX
            for _ in range(count)
        ]
        rng.shuffle(block)
        requests += block
    gaps = [rng.expovariate(rate_per_s) for _ in requests]
    return Load(workload, seed, rulesets, requests, gaps)


def verify_pin(load: Load) -> Optional[str]:
    """``None`` when the load matches its pin (or has none: only the
    default seed is pinned); otherwise the message to fail the run with."""
    if load.seed != DEFAULT_SEED:
        return None
    with open(_PINS_PATH, "r", encoding="utf-8") as handle:
        pins: Dict[str, str] = json.load(handle)
    expected = pins.get(load.workload)
    actual = load.digest()
    if expected == actual:
        return None
    return (
        f"input pin mismatch for {load.workload} at seed {load.seed}: "
        f"pins.json has {expected}, generated {actual} — repro.workloads "
        "changed the load; re-pin only in a change that claims no gain"
    )
