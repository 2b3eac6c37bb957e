"""A bounded in-process memo shared by the compile path's pure steps.

The regex front end keeps each rule's fragment and placement keeps each
component's probe verdict, so a rule list that differs from one seen
before in one rule recomputes that rule only.  Both are pure functions
of their key, so a lost entry costs a recomputation and nothing else:
the memo is a least-recently-used map bounded by the bytes its entries
claim, and safe to share between threads (a service registering tenants
from several threads; two threads computing the same key store equal
values, and the second store is dropped).
"""

from __future__ import annotations

import functools
import os
import threading
import weakref
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple


def _relock(memo: "weakref.ref[BoundedMemo]") -> None:
    """A child forked while another thread held a memo's lock would wait
    on it forever: the child starts with a fresh one."""
    alive = memo()
    if alive is not None:
        alive._lock = threading.Lock()


class BoundedMemo:
    """LRU map from hashable keys to values, holding at most ``limit``
    bytes as counted by :meth:`put`'s ``nbytes``.  ``limit`` may be
    reassigned; it is read at every store."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        os.register_at_fork(
            after_in_child=functools.partial(_relock, weakref.ref(self))
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[object]:
        """The value stored under ``key`` (now the most recent), or
        ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` is held (no hit or miss is counted)."""
        return key in self._entries

    def put(self, key: Hashable, value: object, nbytes: int) -> None:
        """Store ``value`` under ``key`` as ``nbytes`` bytes, evicting the
        least recently used entries past the limit.  A value larger than
        the limit is not stored."""
        with self._lock:
            if key in self._entries or nbytes > self.limit:
                return
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            while self._bytes > self.limit:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> Dict[str, int]:
        """Entries, bytes held, the limit, hits, misses and evictions."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "limit": self.limit,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
