"""Parallel compilation must be indistinguishable from serial.

The compiler fans oversized-CC splitting out to worker processes; the
per-component seeds are derived from the component's member ids (mixed
with the compiler RNG's base draw), so the resulting mapping must be
bit-for-bit identical whatever the worker count, worker scheduling, or
whether the pool was used at all.
"""

from __future__ import annotations

import pytest

from repro.automata.anml import merge
from repro.compiler import Compiler, compile_automaton
from repro.compiler import mapping as mapping_module
from repro.compiler.cache import automaton_fingerprint, design_fingerprint
from repro.core.design import CA_64, CA_P
from repro.parallel import resolve_jobs
from repro.workloads.suite import build_suite
from tests.conftest import chain_automaton


def _mapping_signature(mapping):
    """Everything placement-visible: locations, partition membership,
    ways, footprint, and edge classification."""
    return (
        dict(mapping.location),
        [tuple(partition.ste_ids) for partition in mapping.partitions],
        [partition.way for partition in mapping.partitions],
        mapping.cache_bytes(),
        mapping.classify_edges(),
    )


def _multi_cc_oversized():
    """Four independent CCs, each larger than a CA_P partition."""
    chains = [
        chain_automaton(
            400, seed=17 + index, automaton_id=f"cc{index}"
        )
        for index in range(4)
    ]
    return merge(chains, automaton_id="parallel-test")


def resolve_compile_jobs(jobs):
    """Resolution as ``Compiler._split_components`` calls it:
    ``REPRO_COMPILE_JOBS``, else the CPU count."""
    return resolve_jobs(jobs, mapping_module.COMPILE_JOBS_ENV)


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(mapping_module.COMPILE_JOBS_ENV, "7")
        assert resolve_compile_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(mapping_module.COMPILE_JOBS_ENV, "5")
        assert resolve_compile_jobs(None) == 5

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv(mapping_module.COMPILE_JOBS_ENV, raising=False)
        assert resolve_compile_jobs("auto") >= 1

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.delenv(mapping_module.COMPILE_JOBS_ENV, raising=False)
        assert resolve_compile_jobs(0) == 1
        assert resolve_compile_jobs(-4) == 1


class TestParallelEquivalence:
    def test_pool_split_matches_serial(self, monkeypatch):
        """Force the pool on (threshold 0) with several oversized CCs."""
        automaton = _multi_cc_oversized()
        serial = Compiler(CA_P, jobs=1).compile(automaton)
        monkeypatch.setattr(
            mapping_module, "PARALLEL_SPLIT_MIN_STATES", 0
        )
        for jobs in (2, 4):
            parallel = Compiler(CA_P, jobs=jobs).compile(automaton)
            assert _mapping_signature(parallel) == _mapping_signature(serial)

    def test_repeated_compiles_are_deterministic(self):
        automaton = _multi_cc_oversized()
        first = Compiler(CA_P, jobs=1).compile(automaton)
        second = Compiler(CA_P, jobs=1).compile(automaton)
        assert _mapping_signature(first) == _mapping_signature(second)

    @pytest.mark.parametrize(
        "name", ["TCP", "PowerEN", "Levenshtein", "Bro217", "Fermi"]
    )
    def test_suite_workloads_identical_across_job_counts(
        self, name, monkeypatch
    ):
        monkeypatch.setattr(
            mapping_module, "PARALLEL_SPLIT_MIN_STATES", 0
        )
        suite = {spec.name: spec for spec in build_suite(2)}
        automaton = suite[name].build()
        serial = compile_automaton(automaton, CA_P, jobs=1)
        parallel = compile_automaton(automaton, CA_P, jobs=2)
        assert _mapping_signature(parallel) == _mapping_signature(serial)

    def test_fingerprints_agree_across_job_counts(self, monkeypatch):
        """Cache keys of parallel and serial artifacts must collide."""
        monkeypatch.setattr(
            mapping_module, "PARALLEL_SPLIT_MIN_STATES", 0
        )
        automaton = _multi_cc_oversized()
        serial = Compiler(CA_P, jobs=1).compile(automaton)
        parallel = Compiler(CA_P, jobs=2).compile(automaton)
        assert automaton_fingerprint(
            serial.automaton
        ) == automaton_fingerprint(parallel.automaton)
        assert design_fingerprint(serial.design) == design_fingerprint(
            parallel.design
        )

    def test_design_changes_mapping(self):
        """Sanity: the signature is sensitive to what we compile onto."""
        automaton = _multi_cc_oversized()
        p_mapping = Compiler(CA_P, jobs=1).compile(automaton)
        wide = Compiler(CA_64, jobs=1).compile(automaton)
        assert _mapping_signature(p_mapping) != _mapping_signature(wide)


class TestPhaseTimings:
    def test_compile_records_phases(self):
        compiler = Compiler(CA_P, jobs=1)
        compiler.compile(_multi_cc_oversized())
        timings = compiler.last_phase_timings
        assert set(timings) == {
            "validate", "components", "pack", "split", "place"
        }
        assert all(duration >= 0.0 for duration in timings.values())
        # Oversized CCs force real splitting work.
        assert timings["split"] > 0.0
