"""The worker plane (``repro.parallel``), on real processes.

One fault family for the plane itself and the three one-shot call sites
built on :func:`repro.parallel.fan_out` — oversized-CC splitting in the
compiler, ``scan_many`` sharding, split-stream scanning: a job that
SIGKILLs its own worker and a plane that cannot spawn degrade, once,
to the serial result and leave no shared-memory block behind; a job
that raises propagates as itself.  Faults are injected by replacing the
site's job function with one that misbehaves *only in a worker process*
(under ``fork`` the workers inherit the patched module), so the serial
path the site falls back to is the real one.
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import repro
from repro.backends import create_backend
from repro.backends.artifact import CompiledArtifact
from repro.automata.anml import merge
from repro.compiler import Compiler, compile_automaton
from repro.compiler import mapping as mapping_module
from repro.core.design import CA_P
from repro.errors import DegradedModeWarning, JobsError
from repro.parallel import WorkerLost, WorkerPool, ask_parent, fan_out
from repro.parallel import resolve_jobs
from repro.regex.compile import compile_patterns
from repro.sim import shard as shard_module
from repro.sim import split as split_module
from tests.conftest import chain_automaton

PARENT = os.getpid()

#: The job function a fault stands in front of.  Filled before the
#: workers fork, so they inherit it.
_REAL = {}


def _dies_in_worker(payload):
    if os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL["job"](payload)


def _raises_in_worker(payload):
    if os.getpid() != PARENT:
        raise ValueError("job rejected its payload")
    return _REAL["job"](payload)


def inject_job_fault(monkeypatch, module, name, fault) -> None:
    """Replace ``module.name`` — a site's job function — with ``fault``
    (:func:`_dies_in_worker` or :func:`_raises_in_worker`)."""
    monkeypatch.setitem(_REAL, "job", getattr(module, name))
    monkeypatch.setattr(module, name, fault)


def inject_spawn_failure(monkeypatch) -> None:
    def no_fork(self):
        raise OSError("fork unavailable: injected")

    monkeypatch.setattr(WorkerPool, "_spawn", no_fork)


def shm_blocks() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


# -- the four sites -----------------------------------------------------------


def _square(payload):
    return payload * payload


def _run_plane(jobs):
    payloads = list(range(6))
    squares = None
    if jobs > 1:
        squares = fan_out(_square, payloads, jobs, what="squaring")
    if squares is None:
        squares = [_square(payload) for payload in payloads]
    return squares


def _run_compile(jobs):
    chains = [
        chain_automaton(300, seed=23 + index, automaton_id=f"cc{index}")
        for index in range(3)
    ]
    mapping = Compiler(CA_P, jobs=jobs).compile(
        merge(chains, automaton_id="plane-faults")
    )
    return dict(mapping.location), [p.way for p in mapping.partitions]


PATTERNS = ["needle", "na[gn]a+", "c[ao]t+", "dog+"]
STREAM = b"a needle in a nagaaa cattt dogg stack; " * 60


def _lazy_dfa(**options):
    machine = compile_patterns(PATTERNS, report_codes=PATTERNS)
    artifact = CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))
    return create_backend("lazy-dfa", artifact, **options)


def _rows(result):
    return (
        [(r.offset, r.ste_id, r.report_code) for r in result.reports],
        result.checkpoint,
    )


def _run_shard(jobs):
    streams = [STREAM, STREAM[5:700], STREAM[11:], b"dogg"]
    return [_rows(r) for r in _lazy_dfa().scan_many(streams, jobs=jobs)]


def _run_split(jobs):
    backend = _lazy_dfa(split_min_chunk=8)
    return _rows(backend.scan(STREAM, split_jobs=jobs))


#: site -> (run(jobs) -> comparable result, module and name of its job).
SITES = {
    "plane": (_run_plane, sys.modules[__name__], "_square"),
    "compile": (_run_compile, mapping_module, "_split_payload_worker"),
    "shard": (_run_shard, shard_module, "_scan_shard_worker"),
    "split": (_run_split, split_module, "_split_mapping_worker"),
}


@pytest.fixture(params=sorted(SITES))
def site(request, monkeypatch):
    # Three ~300-state CCs are far below the size where fanning a
    # compile out pays; lower the bar so the compile site fans out.
    monkeypatch.setattr(mapping_module, "PARALLEL_SPLIT_MIN_STATES", 0)
    return SITES[request.param]


class TestFaultFamily:
    @pytest.mark.parametrize("fault", ["worker-killed", "spawn-fails"])
    def test_plane_failure_degrades_once_to_the_serial_result(
        self, site, fault, monkeypatch
    ):
        run, module, job = site
        serial = run(1)
        assert run(2) == serial  # the healthy plane agrees to begin with
        before = shm_blocks()
        if fault == "worker-killed":
            inject_job_fault(monkeypatch, module, job, _dies_in_worker)
        else:
            inject_spawn_failure(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = run(2)
        assert degraded == serial
        notices = [
            w for w in caught if issubclass(w.category, DegradedModeWarning)
        ]
        assert len(notices) == 1, [str(w.message) for w in caught]
        assert "degrading to serial" in str(notices[0].message)
        assert shm_blocks() == before

    def test_job_exception_propagates_as_itself(self, site, monkeypatch):
        run, module, job = site
        before = shm_blocks()
        inject_job_fault(monkeypatch, module, job, _raises_in_worker)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedModeWarning)
            with pytest.raises(ValueError, match="rejected its payload"):
                run(2)
        assert shm_blocks() == before


# -- the plane's blocking driver ---------------------------------------------


def _slow_when_small(payload):
    time.sleep(0.02 * (6 - payload))
    return payload


def _context_of_job(payload):
    return payload, ask_parent()


class TestBlockingDriver:
    def test_run_returns_results_in_submission_order(self):
        """Seven jobs on two workers, the early ones the slowest: jobs
        queue behind busy workers and finish out of order."""
        pool = WorkerPool(2)
        try:
            assert pool.run(_slow_when_small, range(7)) == list(range(7))
            assert len(pool.worker_pids()) == 2
            assert pool.respawns == 0
        finally:
            pool.shutdown()
        assert pool.worker_pids() == ()

    def test_ask_parent_fetches_the_jobs_context(self):
        pool = WorkerPool(1)
        try:
            futures = [
                pool.submit(_context_of_job, index, context=f"spec-{index}")
                for index in range(3)
            ]
            pool.wait(futures)
            assert [future.result() for future in futures] == [
                (0, "spec-0"), (1, "spec-1"), (2, "spec-2"),
            ]
        finally:
            pool.shutdown()

    def test_lost_worker_is_replaced_and_the_pool_carries_on(self):
        pool = WorkerPool(1)
        try:
            _REAL["job"] = _square
            with pytest.raises(WorkerLost):
                pool.run(_dies_in_worker, [3])
            assert pool.respawns == 1
            assert pool.run(_square, [3, 4]) == [9, 16]
        finally:
            pool.shutdown()
            _REAL.clear()


# -- nothing outlives a run -------------------------------------------------

#: Run in a fresh interpreter, so nothing an earlier test started counts:
#: a pool's life, then each one-shot fan-out on a lazy-DFA backend.
_FRESH_RUN = """
import json, multiprocessing
from multiprocessing import resource_tracker
from repro.backends import create_backend
from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.core.design import CA_P
from repro.parallel import WorkerPool
from repro.regex.compile import compile_patterns

pool = WorkerPool(2)
pool.start()
pool.shutdown()
machine = compile_patterns({patterns!r}, report_codes={patterns!r})
artifact = CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))
backend = create_backend("lazy-dfa", artifact, split_min_chunk=8)
backend.scan_many([{stream!r}, {stream!r}[7:]], jobs=2)
backend.scan({stream!r}, split_jobs=2)
print(json.dumps({{
    "workers": backend.worker_cache_info()["workers"],
    "tracker": resource_tracker._resource_tracker._pid,
    "children": [p.name for p in multiprocessing.active_children()],
}}))
"""


def test_a_run_starts_no_tracker_and_leaves_no_process():
    """Workers get their tables inside their jobs, so no run starts
    multiprocessing's resource tracker, and every worker a pool or a
    fan-out started has ended when it returns."""
    root = Path(repro.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root))
    script = _FRESH_RUN.format(patterns=PATTERNS, stream=STREAM)
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {"workers": 3, "tracker": None, "children": []}


# -- guard --------------------------------------------------------------------


def test_parallel_is_the_only_module_that_imports_process_machinery():
    """A fifth pool site fails here instead of in review."""
    pattern = re.compile(
        r"^\s*(from|import) (multiprocessing|concurrent\.futures)", re.M
    )
    root = Path(repro.__file__).parent
    offenders = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    )
    assert offenders == ["parallel.py"]
    # Workers get their tables inside their jobs: no module, parallel.py
    # included, names the shared-memory block or its tracker.
    tracker = re.compile(r"\b(shared_memory|resource_tracker)\b")
    assert not sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if tracker.search(path.read_text(encoding="utf-8"))
    )
    # The two fan-out scanners are the lazy-DFA backend's own: what the
    # serial scan, the pool workers and each other need of them lives
    # beside ``LazyDfaKernel``, so retiring one is deleting its file.
    fan_outs = re.compile(r"^\s*from repro\.sim(\.| import )(shard|split)\b", re.M)
    importers = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if fan_outs.search(path.read_text(encoding="utf-8"))
    )
    assert importers == ["backends/lazydfa.py"]


@pytest.mark.parametrize(
    "env",
    [
        mapping_module.COMPILE_JOBS_ENV,
        shard_module.SCAN_JOBS_ENV,
        split_module.SPLIT_JOBS_ENV,
    ],
)
def test_a_mistyped_worker_count_is_a_typed_error_naming_its_source(
    env, monkeypatch
):
    """Compile, shard and split resolve their worker count through one
    function; a typo must reach the CLI as a one-line ``ReproError``
    that says whether the argument or the environment was wrong."""
    monkeypatch.delenv(env, raising=False)
    with pytest.raises(JobsError, match=r"^jobs must be .* got 'x'$"):
        resolve_jobs("x", env)
    monkeypatch.setenv(env, "many")
    for unset in (None, "auto"):
        with pytest.raises(JobsError, match=rf"^{env} must be .* got 'many'$"):
            resolve_jobs(unset, env, 1)
    assert resolve_jobs(3, env) == 3  # an explicit count never reads env
