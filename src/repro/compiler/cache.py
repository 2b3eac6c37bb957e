"""Content-addressed on-disk cache for compiled artefacts.

Everything between a pattern list and a ready backend is a pure function
of its inputs, so every stage's product is an entry of this cache
(``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), and a warm start is "read,
verify, build the backend" and nothing else.  There are three kinds of
entry, under two keys:

* the **source key** (:func:`source_key`) hashes what the regex front
  end reads — :data:`FRONT_END_VERSION`, the ordered pattern list, the
  report codes, the automaton id — and addresses the *compiled
  automaton* (``<key>.automaton``: the arrays of
  :meth:`~repro.automata.anml.HomogeneousAutomaton.to_arrays` plus the
  key and the automaton's fingerprint), so ``from_patterns`` rebuilds the
  automaton in bulk instead of parsing and merging again.  Reordering
  the list or editing a rule or a rule id gives another key;
* the **artefact key** (:func:`cache_key`) hashes
  :data:`~repro.backends.artifact.ARTIFACT_FORMAT_VERSION` and the two
  inputs of the compiler proper, and addresses the
  :class:`~repro.backends.artifact.CompiledArtifact` (``<key>.artifact``):
  the placement arrays, the packed simulator tables, the stride alphabet
  and the ``auto=True`` placement decision:

  * the **automaton fingerprint** hashes the automaton's array form:
    the canonically ordered state list (ids sorted), each state's symbol
    mask / start kind / report flags, and the canonically ordered edge
    list — any structural change changes the key (the hash is memoised
    on the automaton's mutation counter, so unchanged automata
    fingerprint once per process; a rebuilt automaton hashes the arrays
    it was rebuilt from, as its own verification);
  * the **design fingerprint** hashes every field of the
    :class:`~repro.core.design.DesignPoint` (and the stride), so any
    parameter change (partition size, wire budgets, geometry, clock)
    busts the key.  It is memoised per (design, stride);

* the artefact key also addresses the lazy DFA's **learned table**
  (``<key>.table``: the state rows and the record of learned cells
  :meth:`~repro.sim.lazydfa.LazyDfaKernel.export_tables` gives, with the
  key and the digest of the kernel the table was learned on), which a
  warm engine adopts so that it scans warm from its first byte
  (:meth:`CompileCache.load_table`, :meth:`CompileCache.store_table`).
  A table offered to another kernel is quarantined, never adopted.

All three share one flat file layout (:func:`pack_entry` /
:func:`unpack_entry`), so loading an entry is one read, one CRC-32 and
one small JSON header, and every member is an aligned array view of the
bytes read:

====================  ==================================================
bytes                 content
====================  ==================================================
8                     the magic tag :data:`ENTRY_MAGIC`
4                     CRC-32 of everything after it (little-endian)
4                     header length ``n`` (little-endian)
``n``                 JSON header: member name -> ``[dtype.str, shape,
                      offset]``, offsets counted from the first body
to a multiple of 8    zero padding
...                   the member bodies in C order, each padded to 8
====================  ==================================================

Versions follow one rule: the constant that versions an entry's layout
is hashed into that entry's key.  Bumping it changes every address, so
entries of another version are plain misses — never read, never
quarantined — and nothing on a read path compares version numbers to
decide what to do.

The artefact payload is owned by
:class:`repro.backends.artifact.CompiledArtifact` and the automaton's by
:class:`~repro.automata.anml.HomogeneousAutomaton` — this module only
lays them out, addresses, stores, and quarantines them, through one read
path (:meth:`CompileCache._load_entry`) and one write path
(:meth:`CompileCache._store_entry`).  Entries store the keys and
fingerprints they were written under and are re-verified on load;
mismatches and unreadable files count as misses, never errors.  Corrupt
entries are additionally *quarantined* (deleted) so every subsequent
warm start does not re-hit the same bad file, and transient I/O errors
are retried with bounded, jittered exponential backoff before the cache
degrades to a cold compile (:class:`~repro.errors.DegradedModeWarning`
is emitted when it does).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import struct
import tempfile
import time
import warnings
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.automata.anml import HomogeneousAutomaton
from repro.core.design import DesignPoint
from repro.errors import ArtifactError, AutomatonError, DegradedModeWarning

_Entry = TypeVar("_Entry")

#: Environment override for the cache directory root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump whenever the regex front end (parser, Glushkov construction,
#: ``merge``'s state naming) would compile some pattern list to a
#: different automaton, or the stored automaton's array layout or file
#: layout changes.  It is hashed into every source key, so entries
#: written by the older front end are simply never looked up again.
FRONT_END_VERSION = 3

#: The first bytes of every cache entry (see :func:`pack_entry`).
ENTRY_MAGIC = b"REPROENT"

#: Magic tag, CRC-32 of the rest, header length.
_PREFIX = struct.Struct("<8sII")

#: Bounded-retry policy for transient cache I/O errors.
RETRY_ATTEMPTS = 3
RETRY_BACKOFF_SECONDS = 0.01

#: OSError subclasses that no amount of retrying will fix.
_PERMANENT_OS_ERRORS = (
    FileNotFoundError,
    PermissionError,
    IsADirectoryError,
    NotADirectoryError,
)


def default_cache_root() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def automaton_fingerprint(automaton: HomogeneousAutomaton) -> str:
    """Content hash of the automaton's array form
    (:meth:`~repro.automata.anml.HomogeneousAutomaton.to_arrays`), column
    by column: the ids, each state's symbol mask, start kind, report flag
    and report code in sorted-id order, then the edges in (source,
    target) order.

    Memoised per automaton object on its mutation counter, so hot paths
    (engine construction in a warm process) pay the hash once.  An
    automaton rebuilt by ``from_arrays`` carries the hash of the arrays
    it was rebuilt from, so it is never walked for it.
    """
    return automaton._fingerprint()


def design_fingerprint(design: DesignPoint, *, stride: int = 1) -> str:
    """Content hash of every design-point field.

    ``stride`` folds the k-stride execution transform into the hash, so
    strided and unstrided artefacts for the same design occupy distinct
    content addresses.  Stride 1 (unstrided) adds nothing, keeping every
    pre-stride fingerprint stable.  Memoised per (design, stride): a
    warm start asks for it once for the key and once to verify the
    artefact.
    """
    return _design_fingerprint(design, stride)


@functools.lru_cache(maxsize=64)
def _design_fingerprint(design: DesignPoint, stride: int) -> str:
    fields = asdict(design)
    if stride != 1:
        fields["__stride__"] = stride
    payload = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key(
    automaton: HomogeneousAutomaton,
    design: DesignPoint,
    *,
    stride: int = 1,
) -> str:
    """The content address of the compiled artefact for (automaton,
    design, stride), in the current payload layout."""
    # Read at call time: the layout's owner imports this module.
    from repro.backends.artifact import ARTIFACT_FORMAT_VERSION

    combined = (
        f"repro:artifact:{ARTIFACT_FORMAT_VERSION}:"
        f"{design_fingerprint(design, stride=stride)}:"
        f"{automaton_fingerprint(automaton)}"
    )
    return hashlib.sha256(combined.encode("ascii")).hexdigest()


def source_key(
    patterns: Sequence[str], report_codes: Sequence[str], automaton_id: str
) -> str:
    """The content address of the automaton the regex front end compiles
    from these inputs (order matters: states are named by rule index)."""
    payload = json.dumps(
        [FRONT_END_VERSION, automaton_id, list(patterns), list(report_codes)]
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _padded(size: int) -> int:
    return -size % 8


def pack_entry(members: Mapping[str, np.ndarray]) -> bytes:
    """``members`` as one cache entry (layout in the module docstring);
    :func:`unpack_entry` is the inverse.  An array whose dtype string
    does not describe it — Python objects, structured records — is
    refused with :class:`ValueError`: an entry holds plain data only."""
    header: Dict[str, list] = {}
    bodies = []
    offset = 0
    for name, value in members.items():
        array = np.asarray(value)
        if array.dtype.hasobject or np.dtype(array.dtype.str) != array.dtype:
            raise ValueError(
                f"member {name!r} is not plain data ({array.dtype})"
            )
        body = array.tobytes()
        pad = bytes(_padded(len(body)))
        header[name] = [array.dtype.str, list(array.shape), offset]
        bodies += [body, pad]
        offset += len(body) + len(pad)
    head = json.dumps(header, separators=(",", ":")).encode("ascii")
    rest = b"".join(
        [
            struct.pack("<I", len(head)),
            head,
            bytes(_padded(_PREFIX.size + len(head))),
            *bodies,
        ]
    )
    return ENTRY_MAGIC + struct.pack("<I", zlib.crc32(rest)) + rest


def unpack_entry(buffer: Union[bytes, bytearray]) -> Dict[str, np.ndarray]:
    """The members of a :func:`pack_entry` entry, each a view of
    ``buffer`` (writable when ``buffer`` is a ``bytearray``).

    Anything that is not a whole entry as written — another magic tag, a
    failed checksum, a header that does not describe arrays inside the
    buffer, an object dtype — raises :class:`~repro.errors.ArtifactError`.
    """
    if len(buffer) < _PREFIX.size:
        raise ArtifactError("not a cache entry: too short")
    magic, checksum, head_size = _PREFIX.unpack_from(buffer)
    if magic != ENTRY_MAGIC:
        raise ArtifactError("not a cache entry: wrong magic tag")
    if zlib.crc32(memoryview(buffer)[len(ENTRY_MAGIC) + 4:]) != checksum:
        raise ArtifactError("cache entry fails its checksum")
    head_end = _PREFIX.size + head_size
    base = head_end + _padded(head_end)
    try:
        header = json.loads(buffer[_PREFIX.size:head_end])
        members = {}
        for name, (dtype, shape, offset) in header.items():
            dtype = np.dtype(dtype)
            if dtype.hasobject:
                raise ArtifactError(f"member {name!r} holds Python objects")
            if not isinstance(offset, int) or offset < 0:
                raise ArtifactError(f"member {name!r} has offset {offset!r}")
            members[name] = np.ndarray(
                tuple(shape), dtype, buffer, base + offset
            )
    except (AttributeError, TypeError, ValueError) as error:
        raise ArtifactError(f"unreadable entry header: {error}") from None
    return members


@dataclass
class CacheStats:
    """Hit/miss/bypass accounting for one cache instance.

    ``hits``/``misses``/``stores`` count artefact lookups;
    compiled-automaton lookups by source key have their own
    ``automaton_*`` counters and learned DFA tables their ``table_*``
    ones, so the artefact hit ratio keeps its meaning.  ``quarantines``
    counts corrupt entries of any kind deleted on load; ``retries``
    counts transient I/O errors that were retried.
    """

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    stores: int = 0
    quarantines: int = 0
    retries: int = 0
    automaton_hits: int = 0
    automaton_misses: int = 0
    automaton_stores: int = 0
    table_hits: int = 0
    table_misses: int = 0
    table_stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class CompileCache:
    """Content-addressed store of compiled automata and compiled
    artefacts.

    One instance fronts one on-disk directory; lookups are keyed by
    :func:`source_key` and :func:`cache_key`.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        *,
        retry_attempts: int = RETRY_ATTEMPTS,
        retry_backoff: float = RETRY_BACKOFF_SECONDS,
        retry_rng: Optional[random.Random] = None,
    ):
        self.directory = (
            Path(directory) if directory is not None else default_cache_root()
        )
        self.retry_attempts = max(1, retry_attempts)
        self.retry_backoff = retry_backoff
        self._retry_rng = retry_rng if retry_rng is not None else random.Random()
        self.stats = CacheStats()

    # -- resilience --------------------------------------------------------

    def _retry_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): equal jitter over
        an exponential — half the delay is deterministic, half uniform-
        random, so concurrent engine constructors hammering one cache
        directory decorrelate instead of retrying in lockstep."""
        ceiling = self.retry_backoff * (2 ** (attempt - 1))
        return ceiling * 0.5 + ceiling * 0.5 * self._retry_rng.random()

    def _with_retries(self, operation):
        """Run ``operation``, retrying transient ``OSError``\\ s with
        bounded, jittered exponential backoff; permanent errors raise
        immediately."""
        attempt = 0
        while True:
            try:
                return operation()
            except _PERMANENT_OS_ERRORS:
                raise
            except OSError:
                attempt += 1
                if attempt >= self.retry_attempts:
                    raise
                self.stats.retries += 1
                time.sleep(self._retry_delay(attempt))

    def _quarantine(self, path: Path, reason: str):
        """Delete a corrupt artefact so warm starts stop re-hitting it."""
        try:
            path.unlink()
        except OSError:
            pass
        self.stats.quarantines += 1
        warnings.warn(
            f"quarantined corrupt cache artefact {path.name}: {reason}",
            DegradedModeWarning,
            stacklevel=4,
        )

    def quarantine_mapping(
        self,
        automaton: HomogeneousAutomaton,
        design: DesignPoint,
        *,
        stride: int = 1,
    ):
        """Evict the mapping artefact for (automaton, design, stride).

        Called by the engine when an artefact loads cleanly but its
        simulator tables turn out to be unusable."""
        self._quarantine(
            self.mapping_path(automaton, design, stride=stride),
            "unusable simulator tables",
        )

    # -- paths -------------------------------------------------------------

    def _artifact_path(self, key: str, suffix: str) -> Path:
        return self.directory / key[:2] / f"{key}{suffix}"

    def mapping_path(
        self,
        automaton: HomogeneousAutomaton,
        design: DesignPoint,
        *,
        stride: int = 1,
    ) -> Path:
        return self._artifact_path(
            cache_key(automaton, design, stride=stride), ".artifact"
        )

    @staticmethod
    def _write_atomic(path: Path, payload: bytes):
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=path.name, suffix=".tmp", delete=False
        )
        # Only Exception: KeyboardInterrupt/SystemExit must propagate
        # untouched (a stray .tmp file is harmless; intercepting the
        # interrupt to clean it up is not).
        try:
            handle.write(payload)
            handle.close()
            os.replace(handle.name, path)
        except Exception:
            handle.close()
            os.unlink(handle.name)
            raise

    def _store_entry(self, path: Path, payload: bytes) -> bool:
        """Write ``payload`` to ``path`` atomically, retrying transient
        errors; ``False`` when the directory is unwritable (the cache then
        behaves as uncached)."""
        try:
            self._with_retries(lambda: self._write_atomic(path, payload))
        except OSError:
            return False
        return True

    def _load_entry(
        self, path: Path, decode: Callable[..., _Entry]
    ) -> Optional[_Entry]:
        """``decode(members)`` of the entry at ``path`` (a member name ->
        array dict, see :func:`unpack_entry`), or ``None`` on any kind of
        miss.

        Failure handling: a missing file is a plain miss; transient read
        errors are retried with backoff, then degrade to a miss with a
        :class:`DegradedModeWarning`; an entry that does not unpack
        (truncated, failed checksum, not an entry at all) or that
        ``decode`` refuses with :class:`~repro.errors.ArtifactError` (the
        content address pins the key and the fingerprints, so a mismatch
        means the file's bytes are wrong) is quarantined.
        """

        def read() -> bytearray:
            # A bytearray, so the members are writable arrays; a short
            # read leaves zeros the checksum refuses.
            with open(path, "rb") as handle:
                buffer = bytearray(os.fstat(handle.fileno()).st_size)
                handle.readinto(buffer)
            return buffer

        try:
            buffer = self._with_retries(read)
        except FileNotFoundError:
            return None
        except OSError as error:
            warnings.warn(
                f"cache read failed after {self.retry_attempts} attempt(s) "
                f"({error}); compiling cold",
                DegradedModeWarning,
                stacklevel=3,
            )
            return None
        try:
            return decode(unpack_entry(buffer))
        except ArtifactError as error:
            self._quarantine(path, str(error))
            return None

    # -- compiled automata ---------------------------------------------------

    def automaton_path(self, key: str) -> Path:
        return self._artifact_path(key, ".automaton")

    def store_automaton(
        self, key: str, automaton: HomogeneousAutomaton
    ) -> Optional[Path]:
        """Persist the automaton the front end compiled for source key
        ``key`` (see :func:`source_key`); returns the entry's path, or
        ``None`` when the directory is unwritable."""
        path = self.automaton_path(key)
        form = automaton._array_form()
        payload = pack_entry(
            {
                "key": np.asarray(key),
                "fingerprint": np.asarray(automaton._fingerprint(form)),
                **form.arrays(),
            }
        )
        if not self._store_entry(path, payload):
            return None
        self.stats.automaton_stores += 1
        return path

    def load_automaton(self, key: str) -> Optional[HomogeneousAutomaton]:
        """The compiled automaton stored under source key ``key``, or
        ``None`` on a miss.

        The stored arrays pass
        :meth:`~repro.automata.anml.HomogeneousAutomaton.from_arrays`'s
        checks, and the fingerprint it hashes from them must equal the
        stored one, so a hit is as good as a compile.  The automaton keeps
        those arrays and builds no per-state object until something walks
        its graph, and the hash — memoised on the automaton — is the one
        the artefact lookup that follows needs anyway.  Failures are
        handled as :meth:`load_artifact` handles them.
        """

        def decode(data) -> HomogeneousAutomaton:
            try:
                if str(data["key"]) != key:
                    raise ArtifactError("stored source key does not match")
                automaton = HomogeneousAutomaton.from_arrays(data)
                if str(data["fingerprint"]) != automaton_fingerprint(automaton):
                    raise ArtifactError(
                        "stored fingerprint does not match the automaton"
                    )
            except (AutomatonError, KeyError) as error:
                raise ArtifactError(f"unreadable automaton: {error}") from None
            return automaton

        automaton = self._load_entry(self.automaton_path(key), decode)
        if automaton is None:
            self.stats.automaton_misses += 1
        else:
            self.stats.automaton_hits += 1
        return automaton

    # -- compiled artifacts ------------------------------------------------

    def store_artifact(self, artifact) -> Optional[Path]:
        """Persist a :class:`~repro.backends.artifact.CompiledArtifact`
        under its content address; returns the artefact path (``None``
        when the directory is unwritable)."""
        path = self.mapping_path(
            artifact.automaton, artifact.design, stride=artifact.stride
        )
        if not self._store_entry(path, artifact.entry_bytes()):
            return None
        self.stats.stores += 1
        return path

    def load_artifact(
        self,
        automaton: HomogeneousAutomaton,
        design: DesignPoint,
        *,
        stride: int = 1,
    ):
        """The cached :class:`~repro.backends.artifact.CompiledArtifact`
        for (automaton, design, stride), or ``None`` on a miss.

        The hit is trusted without re-running constraint checks, because
        artefacts are only ever written after a validated compile and
        the content address pins both compiler inputs.  Failures —
        missing, unreadable after retries, corrupt or mismatching — are
        misses, handled as :meth:`_load_entry` describes.
        """
        from repro.backends.artifact import CompiledArtifact

        artifact = self._load_entry(
            self.mapping_path(automaton, design, stride=stride),
            lambda data: CompiledArtifact.from_payload(
                data, automaton, design, stride=stride
            ),
        )
        if artifact is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return artifact

    # -- learned DFA tables ------------------------------------------------

    def table_path(self, key: str) -> Path:
        return self._artifact_path(key, ".table")

    def store_table(
        self, key: str, kernel: str, tables: Mapping[str, np.ndarray]
    ) -> Optional[Path]:
        """Persist the ``dfa_rows`` and the ``dfa_sources`` /
        ``dfa_columns`` / ``dfa_targets`` record of
        :meth:`~repro.sim.lazydfa.LazyDfaKernel.export_tables` under
        artefact key ``key``, named for the kernel they were learned on
        (``kernel``, its :meth:`~repro.sim.lazydfa.LazyDfaKernel.digest`);
        returns the entry's path, or ``None`` when the directory is
        unwritable."""
        path = self.table_path(key)
        payload = pack_entry(
            {
                "key": np.asarray(key),
                "kernel": np.asarray(kernel),
                "dfa_rows": tables["dfa_rows"],
                "dfa_sources": tables["dfa_sources"],
                "dfa_columns": tables["dfa_columns"],
                "dfa_targets": tables["dfa_targets"],
            }
        )
        # A table is rewritten at every doubling, so the old entry goes
        # first: renaming over an existing file makes ext4 (auto_da_alloc)
        # allocate and submit the new file's blocks inside the rename,
        # ~140 µs against ~25 µs for unlink plus rename, and the write
        # then lands in the scan that stored.  A reader in between sees a
        # plain miss.
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
        if not self._store_entry(path, payload):
            return None
        self.stats.table_stores += 1
        return path

    def load_table(
        self,
        key: str,
        kernel: str,
        adopt: Callable[[Dict[str, np.ndarray]], None],
    ) -> bool:
        """Hand the table stored under artefact key ``key`` to ``adopt``
        (:meth:`~repro.sim.lazydfa.LazyDfaKernel.seed`); ``False`` on a
        miss.

        The entry must name the kernel ``kernel`` digests: a table learned
        on any other kernel, or one ``adopt`` refuses, is quarantined,
        never adopted.  Failures are otherwise handled as
        :meth:`_load_entry` describes.
        """

        def decode(data) -> bool:
            try:
                if str(data["key"]) != key:
                    raise ArtifactError("stored artifact key does not match")
                if str(data["kernel"]) != kernel:
                    raise ArtifactError("table was learned on another kernel")
                adopt(data)
            except (IndexError, KeyError, TypeError, ValueError) as error:
                raise ArtifactError(f"unusable table: {error}") from None
            return True

        adopted = self._load_entry(self.table_path(key), decode) is not None
        if adopted:
            self.stats.table_hits += 1
        else:
            self.stats.table_misses += 1
        return adopted
