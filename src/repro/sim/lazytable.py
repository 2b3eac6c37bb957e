"""One bounded, hash-consed transition table for lazy determinisation.

:class:`~repro.sim.lazydfa.LazyDfaKernel` (state = activation row;
column = byte, or compressed stride class when striding) and
:class:`~repro.sim.split.SfaKernel` (state = entry -> exit mapping;
column = byte) determinise different automata with the same RE2-style
mechanism.  :class:`LazyTable` holds that mechanism once, scan loop
included; a kernel keeps only its step function — what the successor of
``(state, column)`` is and what the transition must remember — and what
it does with the records a scan met.

* **Hash-consing.**  A state is any hashable *key*; :meth:`LazyTable.
  intern` maps it to a dense id, and ``keys[sid]`` maps back.
  ``states[sid]`` is the key *decoded* once, at interning, into the form
  the step function works on (the SFA's row arrays over the key's
  bytes; the lazy DFA's key, an activation row held as an int, already
  is that form), so a miss does not pay for the conversion again.
* **Chained rows, one walk.**  ``enc_rows[sid]`` is a Python list of
  ``width + 1`` cells.  A *silent* transition's cell is the successor's
  row itself, a missing one is ``~sid`` and one that carries a record is
  the int ``(record_id + 1) << 32 | next_id``; slot ``width`` holds the
  row's own id.  :meth:`LazyTable.walk` — the one scan loop of all three
  users — is therefore ``for column in columns: row = row[column]``, one
  list index a byte.  An int cell makes the next index raise
  ``TypeError``; the handler settles the cell (a miss, or a record put
  on the walk's *trail*) and steps the next :data:`CHECKED_STRETCH`
  columns with a per-step check — and the next, for as long as a
  stretch meets a record — because records and misses come in bursts:
  a report-dense stream pays no raise per record.  Trails are decoded
  after the walk (:meth:`LazyTable.recorded`,
  :meth:`LazyTable.tally`).  Rows refer to rows, so a flush and a
  dropped table clear every row in place instead of leaving the cycles
  to the collector.
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
* **One record of what was learned.**  :meth:`LazyTable.fill` appends
  each silent transition's ``(source, column, target)`` to one ``int32``
  array in fill order, and a flush empties it with the rest.  That
  record is the table's only published form: :meth:`LazyTable.publish`
  hands it out with the keys as three arrays, and :meth:`LazyTable.adopt`
  merges one into this table, remapping ids through the keys, stopping
  at the budget and reading the row cells to see what it lacks (an
  empty table, the warm start's case, ends with the source ids).  Its
  consumers are worker processes (a service tenant's spec, a shard or
  split fan-out's shared tables) and the lazy DFA's ``<key>.table``
  cache entry, which a warm engine adopts at build.  Transitions that
  carry a record are *not* published: a consumer recomputes each on
  first use, one miss per distinct transition.  A table given a ``pack``
  function keeps its keys' packed bytes the same way
  (:meth:`LazyTable.packed_keys`: a key is packed once, the first time a
  publication needs it, and a flush starts over), so a publication
  encodes only the keys interned since the last one.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain, islice
from operator import eq, getitem, setitem
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

#: The low 32 bits of a cell that carries a record: the successor's id.
_ID_MASK = 4294967295

#: Columns :meth:`LazyTable.walk` steps with a per-step check after a
#: cell that is not a row, before it goes back to raising on the next
#: one.  One raise costs ~400 ns, one checked step ~33 ns against ~11
#: unchecked (CPython 3.11, 2-CPU x86-64 host); 16 and 32 read slower
#: than 64 on a stream with a report every ~16 bytes, and no faster on
#: one with two reports a KiB.
CHECKED_STRETCH = 64

#: Trails with at least this many records are tallied in numpy, whose
#: ~10 µs set-up a Python loop over fewer records undercuts.
_BULK_TALLY = 128


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
    may hold them in locals across :meth:`fill`; so is every row, so a
    row held across a flush is empty.  ``max_states`` may be reassigned
    at any time; :meth:`intern` itself never checks it (a scan interns
    its entry state unconditionally), so the table holds at most
    ``max_states + 1`` states.
    """

    def __init__(
        self,
        width: int,
        max_states: int,
        decode: Callable[[Hashable], object],
        pack: Optional[Callable[[Hashable], bytes]] = None,
    ):
        self.width = int(width)
        self.max_states = int(max_states)
        self._decode = decode
        self._pack = pack
        #: ``pack(key)`` of ``keys[:_packed_count]``, in id order.
        self._packed = bytearray()
        self._packed_count = 0
        self.lookups = 0
        self.misses = 0
        self.flushes = 0
        #: Transitions held: one a fill, none after a flush, and what an
        #: adoption gained.
        self.transitions = 0
        self.records = Interner()
        self.keys: List[Hashable] = []
        self.states: list = []
        self.enc_rows: List[list] = []
        self._ids: Dict[Hashable, int] = {}
        #: The silent transitions learned since the last flush, in fill
        #: order, as ``source, column, target`` triples.
        self._record = array("i")

    def __del__(self):
        self._clear_rows()

    def _clear_rows(self) -> None:
        for row in self.enc_rows:
            row.clear()
        del self.enc_rows[:]

    def intern(self, key: Hashable) -> int:
        """Dense id of the state ``key``."""
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self.keys)
            self._ids[key] = sid
            self.keys.append(key)
            self.states.append(self._decode(key))
            row = [~sid] * (self.width + 1)
            row[-1] = sid
            self.enc_rows.append(row)
        return sid

    def fill(
        self,
        sid: int,
        column: int,
        next_key: Hashable,
        record: Optional[Hashable] = None,
    ) -> Tuple[int, object]:
        """Record the missing ``(sid, column)`` transition; returns
        ``(sid, cell)``: the successor's row when the transition is
        silent, else the record-carrying int.

        May flush the whole table (state budget reached); the returned
        ``sid`` is the — possibly re-interned — id of the *current*
        state, so the caller's cursor survives the remap.
        """
        self.misses += 1
        self.transitions += 1
        if len(self.keys) >= self.max_states:
            current = self.keys[sid]
            self.flushes += 1
            self.transitions = 1
            del self._record[:]
            del self._packed[:]
            self._packed_count = 0
            self._ids.clear()
            del self.keys[:]
            del self.states[:]
            self._clear_rows()
            sid = self.intern(current)
        nid = self._ids.get(next_key)  # the usual miss: a known successor
        if nid is None:
            nid = self.intern(next_key)
        if record is None:
            self._record.extend((sid, column, nid))
            cell = self.enc_rows[nid]
        else:
            cell = (self.records.id(record) + 1) << 32 | nid
        self.enc_rows[sid][column] = cell
        return sid, cell

    def walk(
        self,
        sid: int,
        columns: Sequence[int],
        miss: Callable[[int, int], Tuple[int, object]],
        trail: List[int],
        start: int = 0,
    ) -> int:
        """Step from state ``sid`` over ``columns[start:]``; returns the id
        of the state after the last one.

        ``columns`` is a list of ints or, cheaper to build, ``bytes``.
        ``miss(sid, column)`` computes a missing transition and returns
        what :meth:`fill` does.  Each transition that carries a record
        appends two ints to ``trail``: its index in ``columns`` and its
        cell, which :meth:`recorded` and :meth:`tally` decode.
        """
        end = len(columns)
        self.lookups += end - start
        enc_rows = self.enc_rows
        push = trail.append
        row = enc_rows[sid]
        it = iter(columns)
        next(islice(it, start, start), None)
        while True:
            try:
                for column in it:
                    row = row[column]
            except TypeError:
                # ``row`` is the int read one column before ``column``,
                # which ``it`` has yielded and the walk has not stepped.
                at = end - it.__length_hint__() - 2
                row = self._settle(row, at, columns, miss, trail)
                stretch = chain((column,), islice(it, CHECKED_STRETCH - 1))
            else:
                if row.__class__ is not list:  # read at the last column
                    row = self._settle(row, end - 1, columns, miss, trail)
                return row[self.width]
            # Checked stretches, for as long as each one meets a record.
            while True:
                met = len(trail)
                for at, column in enumerate(stretch, at + 1):
                    cell = row[column]
                    if cell.__class__ is list:
                        row = cell
                    elif cell > 0:
                        push(at)
                        push(cell)
                        row = enc_rows[cell & _ID_MASK]
                    else:
                        row = self._settle(cell, at, columns, miss, trail)
                if len(trail) == met:
                    break
                stretch = islice(it, CHECKED_STRETCH)

    def _settle(
        self,
        cell: int,
        at: int,
        columns: Sequence[int],
        miss: Callable[[int, int], Tuple[int, object]],
        trail: List[int],
    ) -> list:
        """The row :meth:`walk` goes on from after the int ``cell`` it
        read at index ``at``: a miss is filled, a record is trailed."""
        if cell < 0:
            cell = miss(~cell, columns[at])[1]
            if cell.__class__ is list:
                return cell
        trail.append(at)
        trail.append(cell)
        return self.enc_rows[cell & _ID_MASK]

    @staticmethod
    def recorded(trail: List[int], base: int = 0) -> List[Tuple[int, int]]:
        """A :meth:`walk` trail as ``(base + index, record id)`` pairs, in
        walk order."""
        return [
            (base + index, (cell >> 32) - 1)
            for index, cell in zip(trail[::2], trail[1::2])
        ]

    @staticmethod
    def tally(trail: List[int]) -> Dict[int, int]:
        """``record id -> times met`` over a :meth:`walk` trail."""
        cells = trail[1::2]
        if len(cells) >= _BULK_TALLY:
            ids, times = np.unique(
                np.array(cells, dtype=np.int64) >> 32, return_counts=True
            )
            return dict(zip((ids - 1).tolist(), times.tolist()))
        tally: Dict[int, int] = {}
        for cell in cells:
            record_id = (cell >> 32) - 1
            tally[record_id] = tally.get(record_id, 0) + 1
        return tally

    def publish(self) -> Tuple[List[Hashable], np.ndarray, np.ndarray, np.ndarray]:
        """``(keys in id order, sources, columns, targets)``: the silent
        transitions learned since the last flush as ``int32`` arrays in
        fill order.  All four are snapshots: later fills and flushes do
        not show in them."""
        triples = np.array(self._record, dtype=np.int32).reshape(-1, 3)
        return (list(self.keys), *triples.T.copy())

    def packed_keys(self) -> bytes:
        """``pack(key)`` of every key, in id order (the table was given a
        ``pack`` function): each key is packed once, the first time this
        is asked for after its intern."""
        if self._packed_count < len(self.keys):
            self._packed += b"".join(map(self._pack, self.keys[self._packed_count :]))
            self._packed_count = len(self.keys)
        return bytes(self._packed)

    def adopt(
        self,
        keys: Sequence[Hashable],
        sources: np.ndarray,
        columns: np.ndarray,
        targets: np.ndarray,
        packed: Optional[Sequence[bytes]] = None,
    ) -> None:
        """Merge another table's :meth:`publish` output into this one.

        Source ids are remapped through the keys, so the two tables need
        not agree on numbering and this one may already be warm.  States
        that do not fit under ``max_states`` are left out, and with them
        the transitions into and out of them — they re-miss here, as
        transitions with records always do.  What this table gained goes
        on its own record; a cell it already holds is neither set nor
        recorded again.  Nothing of the arrays is kept (they may view
        memory that is unmapped right after).  Arrays that are not one
        record — not 1-D integers of one length, ids that are no key's
        index, columns past the width — raise ``ValueError``; so does a
        key not yet here that repeats.  ``packed``, aligned with ``keys``,
        is each key's ``pack`` output when the caller read the keys from
        it, so the keys gained are not packed again.
        """
        cells = [np.asarray(part) for part in (sources, columns, targets)]
        if len({part.shape for part in cells}) != 1 or any(
            part.ndim != 1 or part.dtype.kind not in "iu" for part in cells
        ):
            raise ValueError(
                f"adopt: a record is three 1-D integer arrays of one "
                f"length, not {[f'{p.dtype} {p.shape}' for p in cells]}"
            )
        sources, columns, targets = cells
        for name, part, end in (
            ("source id", sources, len(keys)),
            ("column", columns, self.width),
            ("target id", targets, len(keys)),
        ):
            if part.size and not 0 <= int(part.min()) <= int(part.max()) < end:
                raise ValueError(
                    f"adopt: {name}s run from {part.min()} to {part.max()}, "
                    f"outside 0 .. {end - 1}"
                )
        # The keys not yet here take the next free ids in source order,
        # as many as the budget leaves room for, so an empty table (a
        # fresh kernel seeded from a cache entry or a worker's spec) ends
        # with the source ids.  Each key is hashed once to look it up and
        # a new one once more: a state key may be an int of thousands of
        # bits, so a hash costs more than a step of the loop.
        start = len(self.keys)
        known = list(map(self._ids.get, keys))
        new_at = [at for at, sid in enumerate(known) if sid is None]
        new_at = new_at[: max(0, self.max_states - start)]
        new = list(map(keys.__getitem__, new_at))
        added = dict(zip(new, range(start, start + len(new))))
        if len(added) != len(new):
            raise ValueError("adopt: a key repeats, so no table published it")
        # Source id -> local id, -1 for a state left out.
        fresh = iter(added.values())
        sid_map = np.array(
            [next(fresh, -1) if sid is None else sid for sid in known],
            dtype=np.int64,
        )
        self._extend(
            added, None if packed is None else b"".join(map(packed.__getitem__, new_at))
        )
        local, gained = sid_map[sources], sid_map[targets]
        keep = (local >= 0) & (gained >= 0)
        local, columns, gained = local[keep], columns[keep], gained[keep]
        if start:
            # A cell this table lacks is still ``~source``: read the row
            # cells in one C-level pass.  (An empty table lacks them
            # all.)  Whether (state, column) is silent is a property of
            # the step function, not of who computed it.
            held = map(
                getitem,
                map(self.enc_rows.__getitem__, local.tolist()),
                columns.tolist(),
            )
            lacking = np.fromiter(
                map(eq, held, (~local).tolist()), dtype=bool, count=len(local)
            )
            local, columns = local[lacking], columns[lacking]
            gained = gained[lacking]
        self._link(local, columns, gained)

    def _extend(
        self, added: Dict[Hashable, int], packed: Optional[bytes] = None
    ) -> None:
        """Intern the keys of ``added``, none of them here yet, under
        their ids, which run on from the last one; ``packed`` is their
        ``pack`` output, when the caller has it."""
        start = len(self.keys)
        self._ids.update(added)
        self.keys += added
        self.states += map(self._decode, added)
        if packed is not None and self._packed_count == start:
            self._packed += packed
            self._packed_count = len(self.keys)
        cells, rows = self.width + 1, self.enc_rows
        for sid in range(start, len(self.keys)):
            row = [~sid] * cells
            row[-1] = sid
            rows.append(row)

    def _link(
        self, sources: np.ndarray, columns: np.ndarray, targets: np.ndarray
    ) -> None:
        """Point each ``(source, column)`` cell at ``target``'s row and
        record it: the silent transitions :meth:`adopt` gained, set in
        one C-level pass instead of a Python loop a transition."""
        row_of = self.enc_rows.__getitem__
        deque(
            map(
                setitem,
                map(row_of, sources.tolist()),
                columns.tolist(),
                map(row_of, targets.tolist()),
            ),
            maxlen=0,
        )
        triples = np.stack([sources, columns, targets], axis=1)
        self._record.frombytes(triples.astype(np.int32).tobytes())
        self.transitions += len(columns)

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
