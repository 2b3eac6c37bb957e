"""Host stamp, the noise reference and resource accounting.

The result of a run is only comparable with another run when both carry
the same stamp and their timings are expressed on the same scale.  The
hosts this benchmark runs on share their cores with other tenants, whose
load slows everything here by 1.1–1.9x for seconds or minutes at a time;
``Calibrator`` measures that slowdown next to every timed sample, so
that timings can be reported in *quiet-host* seconds (METRICS.md,
"Estimator").
"""

from __future__ import annotations

import bisect
import os
import platform
import random
import resource
import statistics
import time
import warnings
from typing import Dict, List, Sequence, Tuple

from repro.engine import CacheAutomatonEngine

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def stamp() -> Dict[str, object]:
    import numpy

    return {
        "host.cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def descendant_pids() -> List[int]:
    """Pids of every live descendant of this process (``/proc`` walk).

    Scan worker processes are children of this process or of its
    forkserver, so direct children alone would miss them.
    """
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were listing
        parents[int(entry)] = int(fields[1])
    found: List[int] = []
    frontier = [os.getpid()]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent:
                found.append(pid)
                frontier.append(pid)
    return found


def cpu_seconds(pids: Sequence[int] = ()) -> Tuple[float, float]:
    """User+system CPU so far of (this process, the live processes
    ``pids``).  Children still running are invisible to
    ``RUSAGE_CHILDREN``, hence ``/proc``."""
    children = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        children += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return time.process_time(), children


def peak_rss_mib() -> float:
    """max(SELF, CHILDREN) ``ru_maxrss`` in MiB (KiB on Linux); the
    children figure covers only reaped ones, so call after teardown."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The service's shared-memory blocks start it as a child of this
    process; left alone it ends only after this process has, as an orphan
    nobody waited for.  The stop hook is private to the standard library,
    hence the guard: without it the tracker still ends, just unwaited.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


#: One timed sample: (value in seconds, started, ended) on ``perf_counter``.
Sample = Tuple[float, float, float]

#: The reference computation: a fixed 2 KiB scan on a fixed eight-rule
#: lazy-dfa engine, ~0.15 ms.  It is the same kind of work as the program
#: does (interpreter-bound, dictionary- and array-driven), so the host's
#: interference slows it by the same factor; a pure arithmetic spin is
#: slowed only about half as much and under-corrects (METRICS.md).
_REFERENCE_RULES = (
    "alpha[0-9]+", "bravo", "char(lie|ade)", "delta.{2}x",
    "echo[a-f]{3}", "foxtrot", "golf|hotel", "india[^ ]k",
)
_REFERENCE_BYTES = 2048
#: References looked at around a sample: those taken from this long
#: before it started to this long after it ended, and never fewer than
#: ``_MIN_REFERENCES`` (the nearest ones are added).
_PAD_S = 0.005
_MIN_REFERENCES = 4


def quietly(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with the program's degraded-mode warnings
    silenced: they are counted through ``health()``, not printed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return call(*args, **kwargs)


class Calibrator:
    """Measures how much the host slows this process down, all the time.

    ``tick()`` runs the reference computation and logs when it ran and
    how long it took.  The workloads tick between timed units (and, on
    the serving workloads, from a coroutine on the service's own loop),
    so every timed sample has references next to it.  The fastest
    reference of the run is the quiet host's speed; a sample's
    *slowdown* is the median of the references around it over that
    fastest one, and its quiet-host value is what was measured divided
    by its slowdown.  Only the ratio of the reference to its own best is
    used, so a change that makes the lazy DFA faster leaves the
    correction alone.
    """

    def __init__(self) -> None:
        self._engine = quietly(
            CacheAutomatonEngine.from_patterns,
            list(_REFERENCE_RULES), backend="lazy-dfa", cache=None,
        )
        self._data = bytes(
            random.Random(0).choices(
                b"abcdefghijklmnopqrstuvwxyz0123456789 ", k=_REFERENCE_BYTES
            )
        )
        self._at: List[float] = []
        self._cost: List[float] = []
        #: Seconds of the fastest reference so far: the quiet host's speed.
        self.best = float("inf")
        self.tick(16)

    def tick(self, count: int = 2) -> None:
        """``count`` references, after one that is not logged: it refills
        the processor caches the workload's last unit emptied, which is
        the workload's doing and not the host's."""
        scan, data, clock = self._engine.scan, self._data, time.perf_counter
        scan(data)
        for _ in range(count):
            started = clock()
            scan(data)
            ended = clock()
            self._at.append(started)
            self._cost.append(ended - started)
        self.best = min(self.best, *self._cost[-count:])

    def slowdown(self, started: float, ended: float) -> float:
        low = bisect.bisect_left(self._at, started - _PAD_S)
        high = bisect.bisect_right(self._at, ended + _PAD_S)
        while high - low < _MIN_REFERENCES and (low > 0 or high < len(self._at)):
            low, high = max(0, low - 1), min(len(self._at), high + 1)
        return max(1.0, statistics.median(self._cost[low:high]) / self.best)

    def quiet(self, sample: Sample) -> float:
        """The sample's value in quiet-host seconds."""
        value, started, ended = sample
        return value / self.slowdown(started, ended)

    def mean_slowdown(self) -> float:
        """Mean over the whole run; 1.0 on a host that never interfered."""
        return statistics.fmean(self._cost) / self.best


def percentile(samples: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty sample, share in [0, 1]."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(share * len(ordered) + 0.5) - 1))
    return ordered[rank]
