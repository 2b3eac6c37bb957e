"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around each call
into a layer of the program (spans inside the program are a later
change).  They are kept in memory and written once, at exit.  A layer's
self time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional

_current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: [name, start, end, parent index or None, request id or None]
        self.spans: List[list] = []
        #: Tables the probes want written next to the spans.
        self.extra: Dict[str, object] = {}

    def span(self, name: str, request: Optional[object] = None):
        """Context manager recording one span; free when tracing is off."""
        if not self.enabled:
            return nullcontext()
        return self._record(name, request)

    @contextmanager
    def _record(self, name: str, request: Optional[object]) -> Iterator[None]:
        parent = _current.get()
        if request is None and parent is not None:
            request = self.spans[parent][4]
        index = len(self.spans)
        row = [name, time.perf_counter(), None, parent, request]
        self.spans.append(row)
        token = _current.set(index)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            _current.reset(token)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        covered: Dict[int, float] = defaultdict(float)
        for row in self.spans:
            if row[3] is not None and row[2] is not None:
                covered[row[3]] += row[2] - row[1]
        totals: Dict[str, float] = defaultdict(float)
        for index, row in enumerate(self.spans):
            if row[2] is not None:
                totals[row[0]] += (row[2] - row[1]) - covered[index]
        return dict(totals)

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        payload = {
            "columns": ["name", "start_s", "end_s", "parent", "request"],
            "spans": self.spans,
            "self_time_s": self.self_times(),
            **self.extra,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
