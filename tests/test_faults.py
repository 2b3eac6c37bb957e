"""Fault injection, detection, and the engine's graceful-degradation chain.

Covers the three layers of the resilience story: the seeded fault
models (deterministic plans, kernel perturbation semantics, parity
detection, outcome classification), the AVF campaign runner, and the
engine/compiler fallbacks (quarantine + recompile on corrupt artifacts,
golden-interpreter fallback on kernel construction failure, serial
fallback only on pool-level failures).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import Compiler, compile_automaton
from repro.compiler import mapping as mapping_module
from repro.compiler.bitstream import generate
from repro.compiler.cache import CompileCache
from repro.core.design import CA_P
from repro.core.switches import CrossbarSwitch, SwitchSpec
from repro.engine import CacheAutomatonEngine
from repro.errors import (
    DegradedModeWarning,
    FaultError,
    HardwareModelError,
    SimulationError,
)
from repro.eval.faults import run_campaign
from repro.faults import (
    ALL_SITES,
    DETECTED,
    MASKED,
    SDC,
    FaultConfig,
    FaultEvent,
    FaultInjector,
    FaultSite,
    FaultySimulator,
    classify,
    draw_event,
)
from repro.regex.compile import compile_patterns
from repro.sim.crossbar import CrossbarLevelSimulator
from repro.sim.functional import MappedSimulator
from repro.sim.golden import match_offsets
from repro.workloads.inputs import LOWERCASE, random_over_alphabet
from tests.conftest import chain_automaton
from tests.test_parallel import (
    _dies_in_worker,
    _raises_in_worker,
    inject_job_fault,
    inject_spawn_failure,
)


@pytest.fixture(scope="module")
def automaton():
    return compile_patterns(
        ["bat", "c[ao]t", "dog+"],
        report_codes=["bat", "cat", "dog"],
        automaton_id="faults-test",
    )


@pytest.fixture(scope="module")
def faulty(automaton):
    mapping = compile_automaton(automaton, CA_P)
    return FaultySimulator(MappedSimulator(mapping))


DATA = b"the cat sat on the bat with a dogg and a cot"


class TestFaultModels:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(FaultError, match="match_flip_rate"):
            FaultConfig(match_flip_rate=1.5).validate()
        with pytest.raises(FaultError, match="crossbar_stuck1_rate"):
            FaultConfig(crossbar_stuck1_rate=-0.1).validate()

    def test_enabled_sites(self):
        assert FaultConfig().enabled_sites() == ()
        assert FaultConfig(match_flip_rate=0.1).enabled_sites() == (
            FaultSite.MATCH,
        )
        assert set(ALL_SITES.enabled_sites()) == set(FaultSite)

    def test_event_kind_must_match_site(self):
        with pytest.raises(FaultError, match="match faults"):
            FaultEvent(FaultSite.MATCH, "stuck0", 0, 1).validate()
        with pytest.raises(FaultError, match="target bit"):
            FaultEvent(FaultSite.CROSSBAR, "stuck0", -1, 1).validate()

    def test_persistence_matches_kind(self):
        with pytest.raises(FaultError, match="persistent"):
            FaultEvent(FaultSite.CROSSBAR, "stuck1", 3, 1).validate()
        with pytest.raises(FaultError, match="transient"):
            FaultEvent(FaultSite.MATCH, "flip", -1, 1).validate()


class TestKernelFaults:
    def test_clean_run_matches_golden(self, automaton, faulty):
        reference = faulty.run(DATA)
        assert reference.report_offsets() == match_offsets(automaton, DATA)
        assert reference.detected == ()

    def test_dropped_edge_loses_matches(self, faulty):
        reference = faulty.run(DATA)
        outcomes = set()
        for source, target in faulty.edge_bits:
            event = FaultEvent(FaultSite.CROSSBAR, "stuck0", -1, source, target)
            outcomes.add(classify(faulty.run(DATA, [event]), reference))
        # Dead cross-points can only mask or silently lose matches —
        # parity covers the match array, not the switches.
        assert outcomes <= {MASKED, SDC}
        assert SDC in outcomes

    def test_stuck_high_wire_adds_matches(self, faulty):
        reference = faulty.run(DATA)
        signatures = set()
        for bit in faulty.state_bits.tolist():
            event = FaultEvent(FaultSite.CROSSBAR, "stuck1", -1, bit)
            report = faulty.run(DATA, [event])
            assert report.detected == ()
            signatures.add(report.signature)
        # At least one enable wire held high must corrupt the reports.
        assert any(s != reference.signature for s in signatures)

    def test_match_flip_always_detected(self, faulty):
        reference = faulty.run(DATA)
        for cycle in (0, 7, len(DATA) - 1):
            for bit in faulty.state_bits[:4].tolist():
                event = FaultEvent(FaultSite.MATCH, "flip", cycle, bit)
                report = faulty.run(DATA, [event])
                assert cycle in report.detected
                assert classify(report, reference) == DETECTED

    def test_state_ghost_can_corrupt_silently(self, faulty):
        reference = faulty.run(DATA)
        outcomes = {
            classify(
                faulty.run(
                    DATA, [FaultEvent(FaultSite.STATE, "ghost", cycle, bit)]
                ),
                reference,
            )
            for cycle in range(0, len(DATA), 5)
            for bit in faulty.state_bits.tolist()
        }
        assert outcomes <= {MASKED, SDC}
        assert SDC in outcomes

    def test_edge_drop_scans_like_a_kernel_built_without_the_edge(self):
        """A 128-bit chain ``0 -> 1 -> ... -> 127`` (every byte matches
        every state, bit 0 starts, bit 127 reports): dropping the
        cross-point ``60 -> 61`` scans exactly as the chain built without
        that edge does, and not as the intact chain."""
        from repro.sim.kernel import BitsetKernel

        def chain(edges):
            tails = [tail for tail, _ in edges]
            heads = [head for _, head in edges]
            return BitsetKernel(
                128, (tails, heads), [(1 << 128) - 1] * 256, 1, 0, 1 << 127
            )

        def scan(kernel):
            matched = []
            _, checkpoint = kernel.drive(
                bytes(300),
                None,
                lambda sym, rows, enabled, offset: matched.append(rows.tobytes()),
            )
            return b"".join(matched), checkpoint

        links = [(bit, bit + 1) for bit in range(127)]
        intact = chain(links)
        faulted = intact.with_faults(drop_edges=((60, 61),))
        without = chain([link for link in links if link != (60, 61)])
        assert scan(faulted) == scan(without)
        assert scan(faulted) != scan(intact)
        assert len(faulted.succ_heads) == len(intact.succ_heads) - 1
        # Stuck-high injection composes with it.
        assert intact.with_faults(stuck_high_bits=(5,)) is not intact


class TestInjector:
    def test_plan_is_deterministic(self, faulty):
        config = FaultConfig(
            seed=3,
            match_flip_rate=0.01,
            state_drop_rate=0.01,
            state_ghost_rate=0.01,
            crossbar_stuck0_rate=0.05,
            crossbar_stuck1_rate=0.05,
        )
        injector = FaultInjector(config)
        first = injector.plan(512, faulty.state_bits, faulty.edge_bits)
        second = injector.plan(512, faulty.state_bits, faulty.edge_bits)
        assert first == second

    def test_seed_changes_plan(self, faulty):
        plans = {
            FaultInjector(
                FaultConfig(seed=seed, match_flip_rate=0.05)
            ).plan(512, faulty.state_bits, faulty.edge_bits)
            for seed in range(4)
        }
        assert len(plans) > 1

    def test_zero_rates_plan_nothing(self, faulty):
        injector = FaultInjector(FaultConfig())
        assert injector.plan(512, faulty.state_bits, faulty.edge_bits) == ()

    def test_draw_event_targets_enabled_kinds(self, faulty):
        config = FaultConfig(crossbar_stuck1_rate=0.1)
        rng = np.random.default_rng(0)
        for _ in range(8):
            event = draw_event(
                rng, FaultSite.CROSSBAR, config, len(DATA),
                faulty.state_bits, faulty.edge_bits,
            )
            assert event.kind == "stuck1"

    def test_draw_event_needs_states(self, faulty):
        with pytest.raises(FaultError, match="no states"):
            draw_event(
                np.random.default_rng(0), FaultSite.MATCH, ALL_SITES,
                8, np.array([], dtype=np.int64), [],
            )


class TestCrossbarStuckWires:
    def test_switch_stuck_input(self):
        switch = CrossbarSwitch(SwitchSpec(4, 4))
        switch.connect(0, 1)
        switch.connect(2, 3)
        idle = np.zeros(4, dtype=bool)
        assert not switch.evaluate(idle).any()
        switch.set_stuck_input(0, 1)
        assert switch.evaluate(idle).tolist() == [False, True, False, False]
        switch.set_stuck_input(2, 0)
        driven = np.ones(4, dtype=bool)
        assert switch.evaluate(driven).tolist() == [False, True, False, False]
        switch.clear_stuck_faults()
        assert not switch.has_stuck_faults()
        assert switch.evaluate(driven).tolist() == [False, True, False, True]

    def test_switch_stuck_output(self):
        switch = CrossbarSwitch(SwitchSpec(4, 4))
        switch.connect(1, 2)
        switch.set_stuck_output(0, 1)
        switch.set_stuck_output(2, 0)
        active = np.array([False, True, False, False])
        assert switch.evaluate(active).tolist() == [True, False, False, False]

    def test_stuck_value_validated(self):
        switch = CrossbarSwitch(SwitchSpec(4, 4))
        with pytest.raises(HardwareModelError, match="0 or 1"):
            switch.set_stuck_input(0, 2)
        with pytest.raises(HardwareModelError, match="out of range"):
            switch.set_stuck_output(9, 1)

    def test_bitstream_stuck1_equals_kernel_fault(self, automaton, faulty):
        """The structural (bitstream) and kernel fault models agree."""
        mapping = compile_automaton(automaton, CA_P)
        bitstream = generate(mapping)
        size = mapping.design.partition_size
        for bit in faulty.state_bits[:4].tolist():
            crossbar = CrossbarLevelSimulator(
                bitstream, stuck_wires=[(bit // size, bit % size, 1)]
            )
            structural = sorted({r.offset for r in crossbar.run(DATA)})
            kernel_report = faulty.run(
                DATA, [FaultEvent(FaultSite.CROSSBAR, "stuck1", -1, bit)]
            )
            assert structural == kernel_report.report_offsets()

    def test_stuck_wire_coordinates_validated(self, automaton):
        bitstream = generate(compile_automaton(automaton, CA_P))
        with pytest.raises(SimulationError, match="partition"):
            CrossbarLevelSimulator(bitstream, stuck_wires=[(99, 0, 1)])
        with pytest.raises(SimulationError, match="value"):
            CrossbarLevelSimulator(bitstream, stuck_wires=[(0, 0, 7)])


class TestCampaign:
    def test_same_seed_same_result(self, automaton):
        data = random_over_alphabet(1024, LOWERCASE, seed=11)
        first = run_campaign(automaton, data, trials=24, seed=7)
        second = run_campaign(automaton, data, trials=24, seed=7)
        assert first == second

    def test_outcomes_partition_trials(self, automaton):
        data = random_over_alphabet(1024, LOWERCASE, seed=11)
        result = run_campaign(automaton, data, trials=24, seed=7)
        assert sum(result.totals().values()) == 24
        assert sum(row.trials for row in result.rows) == 24
        for row in result.rows:
            assert row.masked + row.detected + row.sdc == row.trials

    def test_match_site_fully_covered(self, automaton):
        data = random_over_alphabet(1024, LOWERCASE, seed=11)
        result = run_campaign(automaton, data, trials=24, seed=7)
        match_row = next(r for r in result.rows if r.site == "match")
        assert match_row.detected == match_row.trials
        assert match_row.coverage == 1.0

    def test_rejects_degenerate_inputs(self, automaton):
        with pytest.raises(FaultError, match="non-empty"):
            run_campaign(automaton, b"", trials=4)
        with pytest.raises(FaultError, match="positive"):
            run_campaign(automaton, b"abc", trials=0)
        with pytest.raises(FaultError, match="no fault sites"):
            run_campaign(automaton, b"abc", trials=4, config=FaultConfig())


class TestEngineDegradation:
    def test_corrupt_artifact_quarantined_and_recompiled(
        self, automaton, tmp_path
    ):
        cache = CompileCache(tmp_path / "artifacts")
        cold = CacheAutomatonEngine(automaton, cache=cache)
        assert cold.health().tier == "cold-compile"
        assert not cold.health().degraded
        [artifact] = list((tmp_path / "artifacts").rglob("*.artifact"))
        artifact.write_bytes(b"garbage, not a cache entry")
        with pytest.warns(DegradedModeWarning, match="quarantine"):
            recovered = CacheAutomatonEngine(automaton, cache=cache)
        health = recovered.health()
        assert health.tier == "recompiled"
        assert health.degraded
        assert health.cache["quarantines"] == 1
        assert any("quarantined" in event for event in health.events)
        assert [m.end for m in recovered.scan(DATA)] == [
            m.end for m in cold.scan(DATA)
        ]
        # The recompile re-stored a good artifact: next engine is warm.
        warm = CacheAutomatonEngine(automaton, cache=cache)
        assert warm.health().tier == "warm-cache"

    def test_rejected_cached_tables_quarantined(
        self, automaton, tmp_path, monkeypatch
    ):
        cache = CompileCache(tmp_path / "artifacts")
        CacheAutomatonEngine(automaton, cache=cache)

        def explode(*_args, **_kwargs):
            raise SimulationError("corrupt kernel tables: synthetic")

        monkeypatch.setattr(MappedSimulator, "from_cached", explode)
        with pytest.warns(DegradedModeWarning, match="rejected"):
            engine = CacheAutomatonEngine(automaton, cache=cache)
        assert engine.health().tier == "recompiled"
        assert engine.health().cache["quarantines"] == 1
        assert [m.rule for m in engine.scan(b"a bat")] == ["bat"]

    def test_golden_fallback_when_kernel_unbuildable(
        self, automaton, monkeypatch
    ):
        class BrokenSimulator:
            def __init__(self, *_args, **_kwargs):
                raise MemoryError("synthetic: cannot pack kernel tables")

        monkeypatch.setattr(
            "repro.engine.MappedSimulator", BrokenSimulator
        )
        with pytest.warns(DegradedModeWarning, match="golden"):
            engine = CacheAutomatonEngine(automaton, cache=None)
        health = engine.health()
        assert health.tier == "golden-fallback"
        assert health.backend == "golden-interpreter"
        assert health.degraded
        # The golden interpreter must serve identical matches...
        assert [m.end for m in engine.scan(DATA)] == match_offsets(
            automaton, DATA
        )
        assert engine.count(DATA) == len(engine.scan(DATA))
        # ...including across checkpointed stream chunks and batches.
        scanner = engine.stream()
        chunked = [m.end for c in (DATA[:10], DATA[10:]) for m in scanner.scan(c)]
        assert chunked == match_offsets(automaton, DATA)
        many = engine.scan_many([DATA, b"a bat"])
        assert [m.end for m in many[0]] == match_offsets(automaton, DATA)

    def test_tampered_kernel_tables_rejected(self, automaton):
        simulator = MappedSimulator(compile_automaton(automaton, CA_P))
        tables = simulator.packed_tables()
        tables["match_matrix"] = tables["match_matrix"][:7]
        with pytest.raises(SimulationError, match="corrupt kernel tables"):
            MappedSimulator.from_cached(simulator.mapping, tables)


class TestPoolFallback:
    """The compile site on a worker plane that fails for real (fault
    injection shared with ``tests/test_parallel.py``)."""

    @pytest.fixture()
    def parallel_setup(self, monkeypatch):
        monkeypatch.setattr(mapping_module, "PARALLEL_SPLIT_MIN_STATES", 0)
        from repro.automata.anml import merge

        chains = [
            chain_automaton(300, seed=23 + i, automaton_id=f"cc{i}")
            for i in range(2)
        ]
        return merge(chains, automaton_id="pool-fallback")

    def test_worker_exception_propagates(self, parallel_setup, monkeypatch):
        inject_job_fault(
            monkeypatch, mapping_module, "_split_payload_worker",
            _raises_in_worker,
        )
        with pytest.raises(ValueError, match="rejected its payload"):
            Compiler(CA_P, jobs=2).compile(parallel_setup)

    def test_broken_pool_degrades_to_serial(self, parallel_setup, monkeypatch):
        serial = Compiler(CA_P, jobs=1).compile(parallel_setup)
        inject_job_fault(
            monkeypatch, mapping_module, "_split_payload_worker",
            _dies_in_worker,
        )
        with pytest.warns(DegradedModeWarning, match="serial"):
            degraded = Compiler(CA_P, jobs=2).compile(parallel_setup)
        assert dict(degraded.location) == dict(serial.location)

    def test_pool_creation_failure_degrades(self, parallel_setup, monkeypatch):
        inject_spawn_failure(monkeypatch)
        with pytest.warns(DegradedModeWarning, match="serial"):
            degraded = Compiler(CA_P, jobs=2).compile(parallel_setup)
        serial = Compiler(CA_P, jobs=1).compile(parallel_setup)
        assert dict(degraded.location) == dict(serial.location)
