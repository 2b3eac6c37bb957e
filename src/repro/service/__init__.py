"""Multi-tenant asyncio scan service over the Cache Automaton engine.

Public surface::

    from repro.service import ScanService, TenantLimits, RetryingClient

    service = ScanService(workers=2, max_queue=64)
    service.register("tenant-a", ["cat", "dog+"])
    async with service:
        outcome = await service.scan("tenant-a", data, deadline=0.5)

See :mod:`repro.service.service` for the admission / deadline /
circuit-breaker / drain semantics and :mod:`repro.service.errors` for
the typed failure modes.
"""

from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.client import RetryingClient
from repro.service.errors import (
    ConnectionLost,
    DeadlineExceeded,
    Overloaded,
    ProtocolError,
    ServiceClosed,
    ServiceError,
    StreamTooLarge,
    UnknownTenant,
    WorkerCrashed,
)
from repro.service.net import NetScanClient, ScanServer, connect_retrying
from repro.service.procpool import (
    POOL_COUNTERS,
    ProcPoolScanExecutor,
    TenantWorkerSpec,
)
from repro.service.service import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_MAX_QUEUE,
    SERVICE_COUNTERS,
    TENANT_COUNTERS,
    ScanOutcome,
    ScanService,
    ServiceMetrics,
    TenantLimits,
    TenantRegistration,
)

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "RetryingClient",
    "ConnectionLost",
    "DeadlineExceeded",
    "Overloaded",
    "ProtocolError",
    "ServiceClosed",
    "ServiceError",
    "StreamTooLarge",
    "UnknownTenant",
    "WorkerCrashed",
    "NetScanClient",
    "ScanServer",
    "connect_retrying",
    "POOL_COUNTERS",
    "ProcPoolScanExecutor",
    "TenantWorkerSpec",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_MAX_QUEUE",
    "SERVICE_COUNTERS",
    "TENANT_COUNTERS",
    "ScanOutcome",
    "ScanService",
    "ServiceMetrics",
    "TenantLimits",
    "TenantRegistration",
]
