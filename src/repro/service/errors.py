"""Typed failure modes of the multi-tenant scan service.

Every rejection or interruption a client can observe is a distinct
exception class deriving from :class:`ServiceError` (itself a
:class:`~repro.errors.ReproError`, so ``repro.cli`` turns all of them
into one-line diagnostics).  Each carries a ``retryable`` flag the
retrying client consults: admission rejections under load
(:class:`Overloaded`) and requests orphaned by a crashed worker
(:class:`WorkerCrashed`) are transient and worth a backoff-retry;
contract violations (:class:`StreamTooLarge`, :class:`UnknownTenant`)
and lifecycle rejections (:class:`ServiceClosed`) are not.

:class:`DeadlineExceeded` is the mid-stream interruption contract: the
service scans in chunks through the checkpoint machinery, so when a
request's budget expires the exception carries the *partial progress* —
the global byte offset reached, the reports already emitted, and the
:class:`~repro.sim.golden.Checkpoint` to resume from.  Resuming from
that checkpoint over the remaining bytes yields reports bit-identical
to an uninterrupted scan.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.sim.golden import Checkpoint, Report


class ServiceError(ReproError):
    """Base class for scan-service failures.

    ``retryable`` tells clients whether backing off and resubmitting
    the same request can succeed (the condition is transient).
    ``wire_fields`` names the constructor arguments — each also an
    attribute — that an error frame carries and the client rebuilds the
    error from (:func:`repro.service.net.encode_error`); a class built
    from its message alone declares none.
    """

    retryable = False
    wire_fields: Tuple[str, ...] = ()


class UnknownTenant(ServiceError):
    """The request names a tenant that was never registered."""

    wire_fields = ("tenant",)

    def __init__(self, tenant: str):
        self.tenant = tenant
        super().__init__(f"unknown tenant {tenant!r}; register it first")


class StreamTooLarge(ServiceError):
    """The stream exceeds the tenant's ``max_stream_bytes`` limit."""

    wire_fields = ("tenant", "size", "limit")

    def __init__(self, tenant: str, size: int, limit: int):
        self.tenant = tenant
        self.size = size
        self.limit = limit
        super().__init__(
            f"tenant {tenant!r}: stream of {size} bytes exceeds the "
            f"per-request limit of {limit} bytes"
        )


class Overloaded(ServiceError):
    """Load shed: the admission queue (or the tenant's in-flight
    allowance) is full.  Retryable — back off and resubmit."""

    retryable = True
    wire_fields = ("tenant", "reason")

    def __init__(self, tenant: str, reason: str):
        self.tenant = tenant
        self.reason = reason
        super().__init__(f"tenant {tenant!r} rejected: {reason}")


class WorkerCrashed(ServiceError):
    """The worker executing this request died mid-flight.

    The supervisor restarts the worker; the request itself is failed
    with this retryable error so the client can resubmit."""

    retryable = True
    wire_fields = ("tenant",)

    def __init__(self, tenant: str):
        self.tenant = tenant
        super().__init__(
            f"tenant {tenant!r}: worker crashed while serving the request"
        )


class ServiceClosed(ServiceError):
    """The service is draining or stopped; no new work is admitted."""

    def __init__(self, reason: str = "service is not accepting requests"):
        super().__init__(reason)


class ProtocolError(ServiceError):
    """A malformed or unsupported frame on the wire protocol.

    Contract violation, not transient: retrying the same bytes would
    fail identically (:mod:`repro.service.net`)."""


class ConnectionLost(ServiceError):
    """The transport died with requests in flight.

    Retryable — reconnect and resubmit; any scan the server completed
    after the disconnect was simply discarded with its connection."""

    retryable = True


class DeadlineExceeded(ServiceError):
    """The request's deadline expired; carries the partial progress.

    ``offset`` is the global byte offset the scan reached (``0`` when
    the deadline expired while the request was still queued);
    ``reports`` are the match records already emitted up to ``offset``;
    ``checkpoint`` resumes the stream — submit the remaining bytes with
    ``resume=checkpoint`` and the combined report stream is
    bit-identical to one uninterrupted scan.
    """

    wire_fields = ("tenant", "offset", "reports", "checkpoint")

    def __init__(
        self,
        tenant: str,
        *,
        offset: int,
        reports: Optional[List[Report]] = None,
        checkpoint: Optional[Checkpoint] = None,
    ):
        self.tenant = tenant
        self.offset = offset
        self.reports: Tuple[Report, ...] = tuple(reports or ())
        self.checkpoint = checkpoint
        super().__init__(
            f"tenant {tenant!r}: deadline exceeded at byte offset {offset} "
            f"({len(self.reports)} report(s) emitted before interruption)"
        )
