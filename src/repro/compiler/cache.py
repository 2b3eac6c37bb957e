"""Content-addressed on-disk cache for compiled artefacts.

Everything between a pattern list and a ready backend is a pure function
of its inputs, so every stage's product is an entry of this cache
(``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), and a warm start is "read,
verify, build the backend" and nothing else.  There are two kinds of
entry, each under its own key:

* the **source key** (:func:`source_key`) hashes what the regex front
  end reads — :data:`FRONT_END_VERSION`, the ordered pattern list, the
  report codes, the automaton id — and addresses the *compiled
  automaton* (``<key>.automaton.npz``: the arrays of
  :meth:`~repro.automata.anml.HomogeneousAutomaton.to_arrays` plus the
  key and the automaton's fingerprint), so ``from_patterns`` rebuilds the
  automaton in bulk instead of parsing and merging again.  Reordering
  the list or editing a rule or a rule id gives another key;
* the **artefact key** (:func:`cache_key`) hashes
  :data:`~repro.backends.artifact.ARTIFACT_FORMAT_VERSION` and the two
  inputs of the compiler proper, and addresses the
  :class:`~repro.backends.artifact.CompiledArtifact` (``<key>.npz``):
  the placement arrays, the packed simulator tables, the stride alphabet
  and the ``auto=True`` placement decision:

  * the **automaton fingerprint** hashes the canonically ordered state
    list (ids sorted), each state's symbol mask / start kind / report
    flags, and the canonically ordered edge list — any structural change
    changes the key (the hash is memoised on the automaton's mutation
    counter, so unchanged automata fingerprint once per process; a
    rebuilt automaton pays it once, as its own verification);
  * the **design fingerprint** hashes every field of the
    :class:`~repro.core.design.DesignPoint` (and the stride), so any
    parameter change (partition size, wire budgets, geometry, clock)
    busts the key.

Versions follow one rule: the constant that versions an entry's layout
is hashed into that entry's key.  Bumping it changes every address, so
entries of another version are plain misses — never read, never
quarantined — and nothing on a read path compares version numbers to
decide what to do.

The artefact payload layout is owned by
:class:`repro.backends.artifact.CompiledArtifact` and the automaton's by
:class:`~repro.automata.anml.HomogeneousAutomaton` — this module only
addresses, stores, and quarantines them, through one read path
(:meth:`CompileCache._load_entry`) and one write path
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

import hashlib
import io
import json
import os
import random
import tempfile
import time
import warnings
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.automata.anml import HomogeneousAutomaton, StartKind
from repro.core.design import DesignPoint
from repro.errors import ArtifactError, AutomatonError, DegradedModeWarning

_Entry = TypeVar("_Entry")

#: Environment override for the cache directory root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump whenever the regex front end (parser, Glushkov construction,
#: ``merge``'s state naming) would compile some pattern list to a
#: different automaton, or the stored automaton's array layout changes.
#: It is hashed into every source key, so entries written by the older
#: front end are simply never looked up again.
FRONT_END_VERSION = 1

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


_START_BYTES = {kind: kind.value.encode("ascii") for kind in StartKind}


def automaton_fingerprint(automaton: HomogeneousAutomaton) -> str:
    """Content hash of the automaton's structure (canonical order).

    Memoised per automaton object on its mutation counter, so hot paths
    (engine construction in a warm process) pay the hash once.
    """
    memo = getattr(automaton, "_fingerprint_memo", None)
    if memo is not None and memo[0] == automaton.mutation_version:
        return memo[1]
    digest = hashlib.sha256()
    arrays = automaton.edge_index_arrays()
    # One join and one update for all states: a ruleset has thousands of
    # states but few distinct masks, whose 32-byte forms are memoised.
    mask_bytes: Dict[int, bytes] = {}
    fields = []
    for ste in map(automaton.ste, arrays.ids):
        mask = ste.symbols.mask
        packed = mask_bytes.get(mask)
        if packed is None:
            packed = mask_bytes[mask] = mask.to_bytes(32, "little")
        fields += (
            ste.ste_id.encode("utf-8"),
            b"\x00",
            packed,
            _START_BYTES[ste.start],
            b"R" if ste.reporting else b"-",
            (ste.report_code or "").encode("utf-8"),
            b"\x00",
        )
    digest.update(b"".join(fields))
    order = arrays.argsort_edges()
    digest.update(arrays.sources[order].astype("<i4").tobytes())
    digest.update(arrays.targets[order].astype("<i4").tobytes())
    value = digest.hexdigest()
    automaton._fingerprint_memo = (automaton.mutation_version, value)
    return value


def design_fingerprint(design: DesignPoint, *, stride: int = 1) -> str:
    """Content hash of every design-point field.

    ``stride`` folds the k-stride execution transform into the hash, so
    strided and unstrided artefacts for the same design occupy distinct
    content addresses.  Stride 1 (unstrided) adds nothing, keeping every
    pre-stride fingerprint stable.
    """
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


@dataclass
class CacheStats:
    """Hit/miss/bypass accounting for one cache instance.

    ``hits``/``misses``/``stores`` count artefact lookups;
    compiled-automaton lookups by source key have their own
    ``automaton_*`` counters, so the artefact hit ratio keeps its
    meaning.  ``quarantines`` counts corrupt entries of either kind
    deleted on load; ``retries`` counts transient I/O errors that were
    retried.
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
            cache_key(automaton, design, stride=stride), ".npz"
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
        """``decode(members)`` of the ``.npz`` entry at ``path``, or
        ``None`` on any kind of miss.

        Failure handling: a missing file is a plain miss; transient read
        errors are retried with backoff, then degrade to a miss with a
        :class:`DegradedModeWarning`; an entry that is not an archive,
        whose members do not read back (truncated, failed checksum), or
        that ``decode`` refuses with :class:`~repro.errors.ArtifactError`
        (the content address pins the key and the fingerprints, so a
        mismatch means the file's bytes are wrong) is quarantined.
        """

        def read() -> _Entry:
            # The file is opened here, not by numpy, which leaks the
            # handle when the archive's directory does not parse.
            with open(path, "rb") as handle:
                members = np.load(handle, allow_pickle=False)
                if not hasattr(members, "files"):
                    raise ArtifactError("a bare array, not an archive")
                with members:
                    return decode(members)

        try:
            return self._with_retries(read)
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
        except (
            ArtifactError, ValueError, zipfile.BadZipFile, EOFError
        ) as error:
            self._quarantine(path, str(error))
            return None

    # -- compiled automata ---------------------------------------------------

    def automaton_path(self, key: str) -> Path:
        return self._artifact_path(key, ".automaton.npz")

    def store_automaton(
        self, key: str, automaton: HomogeneousAutomaton
    ) -> Optional[Path]:
        """Persist the automaton the front end compiled for source key
        ``key`` (see :func:`source_key`); returns the entry's path, or
        ``None`` when the directory is unwritable."""
        path = self.automaton_path(key)
        buffer = io.BytesIO()
        np.savez(
            buffer,
            key=np.asarray(key),
            fingerprint=np.asarray(automaton_fingerprint(automaton)),
            **automaton.to_arrays(),
        )
        if not self._store_entry(path, buffer.getvalue()):
            return None
        self.stats.automaton_stores += 1
        return path

    def load_automaton(self, key: str) -> Optional[HomogeneousAutomaton]:
        """The compiled automaton stored under source key ``key``, or
        ``None`` on a miss.

        The automaton is rebuilt in bulk from the stored arrays and its
        fingerprint recomputed and compared with the stored one, so a hit
        is as good as a compile, and the hash — memoised on the automaton
        — is the one the artefact lookup that follows needs anyway.
        Failures are handled as :meth:`load_artifact` handles them.
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
        if not self._store_entry(path, artifact.npz_bytes()):
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
