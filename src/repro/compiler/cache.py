"""Content-addressed on-disk cache for compiled artefacts.

Compiling an automaton is deterministic in exactly two inputs: the
automaton's structure (states, labels, flags, edges) and the design
point.  This module hashes both into one cache key and persists the
expensive products of compilation — the placement, the packed simulator
tables, and the configuration bitstream — under a versioned directory
(``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), so repeated engine
construction over the same workload skips the compiler and the
simulator-table build entirely.

Key scheme / invalidation rules:

* the **automaton fingerprint** hashes the canonically ordered state
  list (ids sorted), each state's symbol mask / start kind / report
  flags, and the canonically ordered edge list — any structural change
  changes the key (the hash is memoised on the automaton's mutation
  counter, so unchanged automata fingerprint once per process);
* the **design fingerprint** hashes every field of the
  :class:`~repro.core.design.DesignPoint`, so any parameter change
  (partition size, wire budgets, geometry, clock) busts the key;
* the cache directory embeds :data:`CACHE_FORMAT_VERSION` (which also
  folds in the mapping serialisation format version), so artefact-layout
  changes simply start a fresh namespace — stale artefacts are never
  reinterpreted.

The payload layout itself is owned by
:class:`repro.backends.artifact.CompiledArtifact` — this module only
addresses, stores, and quarantines it.  Artefacts store the fingerprints
they were written under and are re-verified on load; mismatches and
unreadable files count as misses, never errors.  Corrupt artefacts are additionally *quarantined*
(deleted) so every subsequent warm start does not re-hit the same bad
file, and transient I/O errors are retried with bounded, jittered
exponential backoff before the cache degrades to a cold compile
(:class:`~repro.errors.DegradedModeWarning` is emitted when it does).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import time
import warnings
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.automata.anml import HomogeneousAutomaton
from repro.compiler.mapping import Mapping
from repro.compiler.serialize import FORMAT_VERSION as MAPPING_FORMAT_VERSION
from repro.core.design import DesignPoint
from repro.errors import ArtifactError, DegradedModeWarning

#: Environment override for the cache directory root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump when the artefact layout changes; versions the cache namespace.
CACHE_FORMAT_VERSION = 1

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
    """Content hash of the automaton's structure (canonical order).

    Memoised per automaton object on its mutation counter, so hot paths
    (engine construction in a warm process) pay the hash once.
    """
    memo = getattr(automaton, "_fingerprint_memo", None)
    if memo is not None and memo[0] == automaton.mutation_version:
        return memo[1]
    digest = hashlib.sha256()
    arrays = automaton.edge_index_arrays()
    for ste_id in arrays.ids:
        ste = automaton.ste(ste_id)
        digest.update(ste_id.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(ste.symbols.mask.to_bytes(32, "little"))
        digest.update(ste.start.value.encode("ascii"))
        digest.update(b"R" if ste.reporting else b"-")
        digest.update((ste.report_code or "").encode("utf-8"))
        digest.update(b"\x00")
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
    """The content address of all artefacts for (automaton, design,
    stride)."""
    combined = (
        f"repro:{CACHE_FORMAT_VERSION}:{MAPPING_FORMAT_VERSION}:"
        f"{design_fingerprint(design, stride=stride)}:"
        f"{automaton_fingerprint(automaton)}"
    )
    return hashlib.sha256(combined.encode("ascii")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/bypass accounting for one cache instance.

    ``quarantines`` counts corrupt artefacts deleted on load;
    ``retries`` counts transient I/O errors that were retried.
    """

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    stores: int = 0
    quarantines: int = 0
    retries: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "stores": self.stores,
            "quarantines": self.quarantines,
            "retries": self.retries,
        }


class CompileCache:
    """Content-addressed store of compiled mappings, simulator tables,
    and bitstreams.

    One instance fronts one on-disk directory; all lookups are keyed by
    :func:`cache_key`.  ``enabled=False`` turns every operation into an
    accounted bypass (useful for benchmarking the cold path with the same
    code shape).
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        *,
        enabled: bool = True,
        retry_attempts: int = RETRY_ATTEMPTS,
        retry_backoff: float = RETRY_BACKOFF_SECONDS,
        retry_rng: Optional[random.Random] = None,
    ):
        root = Path(directory) if directory is not None else default_cache_root()
        self.directory = root / f"v{CACHE_FORMAT_VERSION}"
        self.enabled = enabled
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

    def bitstream_path(
        self, automaton: HomogeneousAutomaton, design: DesignPoint
    ) -> Path:
        return self._artifact_path(cache_key(automaton, design), ".bitstream")

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

    # -- compiled artifacts ------------------------------------------------

    def store_artifact(self, artifact) -> Optional[Path]:
        """Persist a :class:`~repro.backends.artifact.CompiledArtifact`
        under its content address; returns the artefact path (``None``
        when the cache is disabled or the directory is unwritable)."""
        if not self.enabled:
            self.stats.bypasses += 1
            return None
        path = self.mapping_path(
            artifact.automaton,
            artifact.design,
            stride=getattr(artifact, "stride", 1),
        )
        try:
            self._with_retries(
                lambda: self._write_atomic(path, artifact.npz_bytes())
            )
        except OSError:
            return None  # unwritable cache dir: behave as uncached
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

        The artifact's per-state structures materialise lazily; the hit
        is trusted without re-running constraint checks, because
        artefacts are only ever written after a validated compile and
        the content address pins both compiler inputs.

        Failure handling: a missing file is a plain miss; transient read
        errors are retried with backoff, then degrade to a miss with a
        :class:`DegradedModeWarning`; a corrupt or mismatching artefact
        (the content address pins both fingerprints, so a mismatch means
        the file's bytes are wrong — surfaced by the deserialiser as
        :class:`~repro.errors.ArtifactError`) is quarantined and counts
        as a miss.
        """
        from repro.backends.artifact import CompiledArtifact

        if not self.enabled:
            self.stats.bypasses += 1
            return None
        path = self.mapping_path(automaton, design, stride=stride)
        try:
            data = self._with_retries(
                lambda: np.load(path, allow_pickle=False)
            )
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError as error:
            self.stats.misses += 1
            warnings.warn(
                f"cache read failed after {self.retry_attempts} attempt(s) "
                f"({error}); compiling cold",
                DegradedModeWarning,
                stacklevel=2,
            )
            return None
        except (ValueError, zipfile.BadZipFile) as error:
            self._quarantine(path, str(error))
            self.stats.misses += 1
            return None
        try:
            artifact = CompiledArtifact.from_payload(
                data, automaton, design, stride=stride
            )
        except ArtifactError as error:
            self._quarantine(path, str(error))
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return artifact

    # -- bitstreams --------------------------------------------------------

    def store_bitstream(self, mapping: Mapping, payload: bytes) -> Optional[Path]:
        """Persist packed bitstream bytes under the mapping's address."""
        if not self.enabled:
            self.stats.bypasses += 1
            return None
        path = self.bitstream_path(mapping.automaton, mapping.design)
        try:
            self._with_retries(lambda: self._write_atomic(path, payload))
        except OSError:
            return None
        self.stats.stores += 1
        return path

    def load_bitstream(
        self, automaton: HomogeneousAutomaton, design: DesignPoint
    ) -> Optional[bytes]:
        """Cached packed bitstream bytes, or ``None`` on a miss."""
        if not self.enabled:
            self.stats.bypasses += 1
            return None
        path = self.bitstream_path(automaton, design)
        try:
            payload = self._with_retries(path.read_bytes)
        except OSError:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload


def bitstream_bytes(
    mapping: Mapping, cache: Optional[CompileCache] = None
) -> bytes:
    """Packed bitstream for ``mapping``, via the cache when provided.

    A hit returns the stored bytes verbatim (bit-identical to what
    :func:`repro.compiler.bitstream.generate` produces for this mapping);
    a miss generates, stores, and returns them.
    """
    from repro.compiler.bitstream import generate

    if cache is not None:
        cached = cache.load_bitstream(mapping.automaton, mapping.design)
        if cached is not None:
            return cached
    payload = generate(mapping).to_bytes()
    if cache is not None:
        cache.store_bitstream(mapping, payload)
    return payload
