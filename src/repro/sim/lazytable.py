"""One bounded, hash-consed transition table for lazy determinisation.

:class:`~repro.sim.lazydfa.LazyDfaKernel` (state = activation row;
column = byte, or compressed stride class when striding) and
:class:`~repro.sim.split.SfaKernel` (state = entry -> exit mapping;
column = byte) determinise different automata with the same RE2-style
mechanism.  :class:`LazyTable` holds that mechanism once; a kernel keeps
only its step function — what the successor of ``(state, column)`` is
and what the transition must remember — and its scan loop.

* **Hash-consing.**  A state is any hashable *key*; :meth:`LazyTable.
  intern` maps it to a dense id, and ``keys[sid]`` maps back.
  ``states[sid]`` is the key *decoded* once, at interning, into the form
  the step function works on (row arrays over the key's bytes), so a
  miss does not pay for the conversion again.
* **Encoded rows.**  ``enc_rows[sid]`` is a ``width``-entry Python list
  the scan loops index directly: ``-1`` missing, the bare successor id
  for a *silent* transition, ``(record_id + 1) << 32 | next_id`` for one
  that carries a record — so a warm step is one list index and one
  comparison.
* **Records are flush-immune.**  What a non-silent transition must
  remember (a report event, a stride window's report combo, an SFA slot
  effect) is interned in ``records``, an :class:`Interner` that is never
  cleared: ids handed out before a flush resolve to the same payload
  after it, so callers can hold them and transitions re-created after a
  flush reuse them.
* **Bounded, flush on overflow.**  :meth:`LazyTable.fill` is the only
  place a scan adds states.  At ``max_states`` it drops every state and
  transition (RE2's policy — cheap, and an adversarial input degrades
  to the kernel's propagate path instead of exhausting memory) and
  re-interns the *current* state, returning its new id so the scan
  cursor survives.
* **Publication.**  An ``int32`` mirror of the silent successors is
  written at fill time, so :meth:`LazyTable.publish` hands out the
  ``(states, width)`` table a shared-memory block carries without
  walking the Python lists.  :meth:`LazyTable.adopt` merges such a table
  into this one — fresh or warm — remapping ids through the keys and
  stopping at the budget.  Transitions that carry a record are *not*
  published (``-1`` in the table): a consumer recomputes each on first
  use, one miss per distinct transition.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np


class Interner:
    """Append-only ``value -> dense id`` table; ``values[id]`` maps back."""

    def __init__(self):
        self.values: list = []
        self._ids: Dict[Hashable, int] = {}

    def id(self, value: Hashable) -> int:
        found = self._ids.get(value)
        if found is None:
            found = self._ids[value] = len(self.values)
            self.values.append(value)
        return found


class LazyTable:
    """Bounded cache of lazily-determinised states and transitions.

    ``decode(key)`` gives the working form of a state, kept in
    ``states``.  Single-threaded mutable state.  ``keys``, ``states``
    and ``enc_rows`` are cleared *in place* on a flush, so a scan loop
    may hold them in locals across :meth:`fill`.  ``max_states`` may be
    reassigned at any time; :meth:`intern` itself never checks it (a
    scan interns its entry state unconditionally), so the table holds
    at most ``max_states + 1`` states.
    """

    def __init__(
        self,
        width: int,
        max_states: int,
        decode: Callable[[Hashable], object],
    ):
        self.width = int(width)
        self.max_states = int(max_states)
        self._decode = decode
        self.lookups = 0
        self.misses = 0
        self.flushes = 0
        self.records = Interner()
        self.keys: List[Hashable] = []
        self.states: list = []
        self.enc_rows: List[List[int]] = []
        self._ids: Dict[Hashable, int] = {}
        self._next = np.full((256, self.width), -1, dtype=np.int32)

    def intern(self, key: Hashable) -> int:
        """Dense id of the state ``key``."""
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self.keys)
            self._ids[key] = sid
            self.keys.append(key)
            self.states.append(self._decode(key))
            self.enc_rows.append([-1] * self.width)
            capacity = self._next.shape[0]
            if sid >= capacity:
                grown = np.full(
                    (capacity * 2, self.width), -1, dtype=np.int32
                )
                grown[:capacity] = self._next
                self._next = grown
        return sid

    def fill(
        self,
        sid: int,
        column: int,
        next_key: Hashable,
        record: Optional[Hashable] = None,
    ) -> Tuple[int, int]:
        """Record the missing ``(sid, column)`` transition; returns
        ``(sid, encoded transition)``.

        May flush the whole table (state budget reached); the returned
        ``sid`` is the — possibly re-interned — id of the *current*
        state, so the caller's cursor survives the remap.
        """
        self.misses += 1
        if len(self.keys) >= self.max_states:
            current = self.keys[sid]
            self.flushes += 1
            self._next[: len(self.keys)] = -1
            self._ids.clear()
            del self.keys[:]
            del self.states[:]
            del self.enc_rows[:]
            sid = self.intern(current)
        enc = self._ids.get(next_key)  # the usual miss: a known successor
        if enc is None:
            enc = self.intern(next_key)
        if record is None:
            self._next[sid, column] = enc
        else:
            enc |= (self.records.id(record) + 1) << 32
        self.enc_rows[sid][column] = enc
        return sid, enc

    def publish(self) -> Tuple[List[Hashable], np.ndarray]:
        """``(keys in id order, (states, width) int32 silent successors)``,
        both snapshots: later fills and flushes do not show in them."""
        return list(self.keys), self._next[: len(self.keys)].copy()

    def adopt(self, keys: Sequence[Hashable], nxt: np.ndarray) -> None:
        """Merge another table's :meth:`publish` output into this one.

        Source ids are remapped through the keys, so the two tables need
        not agree on numbering and this one may already be warm.  States
        that do not fit under ``max_states`` are left out, and with them
        the transitions that lead there — they re-miss here, as
        transitions with records always do.  Nothing of ``nxt`` is kept
        (it may view memory that is unmapped right after).
        """
        nxt = np.asarray(nxt)
        if nxt.shape != (len(keys), self.width):
            raise ValueError(
                f"adopt: table of shape {nxt.shape} does not match "
                f"{len(keys)} keys of width {self.width}"
            )
        # Source id -> local id.  The spare last slot is what a missing
        # (-1) source transition indexes, so missing stays missing.
        sid_map = np.full(len(keys) + 1, -1, dtype=np.int32)
        for index, key in enumerate(keys):
            sid = self._ids.get(key)
            if sid is None:
                if len(self.keys) >= self.max_states:
                    continue
                sid = self.intern(key)
            sid_map[index] = sid
        sources = np.flatnonzero(sid_map[:-1] >= 0)
        local = sid_map[sources]
        remapped = sid_map[nxt[sources]]
        # Whether (state, column) is silent is a property of the step
        # function, not of who computed it, so the mirror alone says
        # which of the offered transitions this table still lacks.
        rows, columns = np.nonzero((remapped >= 0) & (self._next[local] < 0))
        gained = remapped[rows, columns]
        self._next[local[rows], columns] = gained
        enc_rows = self.enc_rows
        for sid, column, value in zip(
            local[rows].tolist(), columns.tolist(), gained.tolist()
        ):
            enc_rows[sid][column] = value

    def counters(self) -> Dict[str, int]:
        """The ``cache_info()`` keys every table user reports; ``hits``
        is derived (lookups minus misses)."""
        return {
            "states": len(self.keys),
            "max_states": self.max_states,
            "hits": self.lookups - self.misses,
            "misses": self.misses,
            "flushes": self.flushes,
        }
