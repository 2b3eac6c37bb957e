"""Network front end for the scan service: asyncio TCP, framed protocol.

One :class:`ScanServer` wraps one running
:class:`~repro.service.service.ScanService` and speaks a length-prefixed
frame protocol; the matching :class:`NetScanClient` exposes the same
``scan(tenant, data, deadline=, resume=)`` coroutine surface as the
in-process service, so :class:`~repro.service.client.RetryingClient`
works over the wire unchanged — including typed, ``retryable``-flagged
errors reconstructed from error frames.

Wire format — every frame (both directions) is::

    >II big-endian prefix: (header_len, blob_len)
    header: UTF-8 JSON object
    blob:   raw bytes (the scan payload; empty for most frames)

The scan bytes ride in the binary blob, never inside JSON, so framing
cost is O(1) in the stream size.  Request headers carry ``id`` (echoed
verbatim in the response — responses may arrive out of submission
order; the client correlates by id) and ``op``:

``submit``
    One scan: ``tenant``, optional ``deadline`` (seconds of budget) and
    ``checkpoint``; blob = data.  Response: the fields of
    :class:`~repro.service.service.ScanOutcome`, ``reports`` as
    ``[offset, ste_id, report_code]`` rows.
``resume``
    ``submit`` with a *required* checkpoint — the explicit
    continue-after-``DeadlineExceeded`` verb.
``stream``
    Incremental scanning with a server-held cursor: frames sharing a
    ``stream`` id are scanned as one logical stream per connection
    (``final: true`` drops the cursor).  Checkpoints still return on
    every response, so a client can fail over a stream to a new
    connection via ``resume``.
``register`` / ``health`` / ``drain`` / ``ping``
    Tenant registration (``tenant``, the fields of
    ``TenantRegistration.to_wire()`` and optionally ``limits``, the
    fields of ``TenantLimits``), a metrics snapshot, graceful shutdown
    of the service *and* server (optional ``drain_timeout``), liveness.

A failed request answers ``{"error": {...}}``: ``type``, ``message``,
``retryable`` and the ``wire_fields`` the error's class declares
(:mod:`repro.service.errors`).  Each type that crosses the wire owns its
field list; values that are not JSON scalars travel by field name
(:data:`_WIRE_CODECS`).

Checkpoints serialise as ``[symbols, hex(state_vector), sod]`` — the
active-state vector is an arbitrary-precision integer, which JSON
numbers cannot carry exactly — and only in the placement layout every
backend shares (:meth:`~repro.sim.kernel.Checkpoint.wire_row`).

Backpressure: the server reads at most ``max_inflight`` frames per
connection ahead of their responses; past that it simply stops reading
the socket, so TCP flow control pushes back to the sender, which is
tied to the service's own bounded admission queue (a shed request
returns a retryable ``Overloaded`` error frame).  ``idle_timeout``
closes connections with no inbound frame for that many seconds.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from dataclasses import asdict, fields
from typing import Dict, Optional, Sequence, Tuple

from repro.service.client import RetryingClient
from repro.service.errors import ConnectionLost, ProtocolError, ServiceError
from repro.service.service import (
    ScanOutcome,
    ScanService,
    TenantLimits,
    TenantRegistration,
)
from repro.sim.golden import Checkpoint, Report

#: Sanity bounds on inbound frames (header is JSON metadata only).
MAX_HEADER_BYTES = 1 << 20
MAX_BLOB_BYTES = 1 << 28

#: Default per-connection in-flight request bound (backpressure).
DEFAULT_MAX_INFLIGHT = 32

_PREFIX = struct.Struct(">II")

_LIMIT_FIELDS = frozenset(field.name for field in fields(TenantLimits))


# -- frame codec -------------------------------------------------------------


def encode_frame(header: Dict[str, object], blob: bytes = b"") -> bytes:
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _PREFIX.pack(len(header_bytes), len(blob)) + header_bytes + blob


async def read_frame(reader) -> Tuple[Dict[str, object], bytes]:
    """One frame off the wire; raises ``IncompleteReadError`` at EOF."""
    header_len, blob_len = _PREFIX.unpack(await reader.readexactly(8))
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"frame header of {header_len} bytes (cap "
                            f"{MAX_HEADER_BYTES})")
    if blob_len > MAX_BLOB_BYTES:
        raise ProtocolError(f"frame blob of {blob_len} bytes (cap "
                            f"{MAX_BLOB_BYTES})")
    header_bytes = await reader.readexactly(header_len)
    blob = await reader.readexactly(blob_len) if blob_len else b""
    try:
        header = json.loads(header_bytes)
    except ValueError as error:
        raise ProtocolError(f"frame header is not JSON: {error}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header, blob


def encode_checkpoint(checkpoint: Optional[Checkpoint]):
    return None if checkpoint is None else checkpoint.wire_row()


def decode_checkpoint(row) -> Optional[Checkpoint]:
    if row is None:
        return None
    try:
        return Checkpoint.from_wire_row(row)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"malformed checkpoint {row!r}: {error}") from None


def decode_limits(raw) -> Optional[TenantLimits]:
    """The ``limits`` object of a register frame: known fields only, each
    an integer >= 1 (``dfa_max_states`` may also be null)."""
    if raw is None:
        return None
    if not isinstance(raw, dict) or not set(raw) <= _LIMIT_FIELDS:
        raise ProtocolError(
            f"limits must be an object over {sorted(_LIMIT_FIELDS)}"
        )
    for name, value in raw.items():
        if value is None and name == "dfa_max_states":
            continue
        if type(value) is not int or value < 1:  # bool is not a count
            raise ProtocolError(
                f"limit {name} must be an integer >= 1, got {value!r}"
            )
    return TenantLimits(**raw)


def encode_reports(reports):
    return [[r.offset, r.ste_id, r.report_code] for r in reports]


def decode_reports(rows) -> Tuple[Report, ...]:
    try:
        return tuple(
            Report(int(offset), ste_id, report_code)
            for offset, ste_id, report_code in rows or ()
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"malformed report rows: {error}") from None


#: Field name -> (encode, decode) for the values that are not JSON
#: scalars, whichever type declares the field.
_WIRE_CODECS = {
    "reports": (encode_reports, decode_reports),
    "checkpoint": (encode_checkpoint, decode_checkpoint),
}
_AS_IS = (lambda value: value,) * 2
_OUTCOME_FIELDS = tuple(field.name for field in fields(ScanOutcome))
_ERROR_TYPES = {
    cls.__name__: cls for cls in (ServiceError, *ServiceError.__subclasses__())
}


def _encode_fields(value, names: Sequence[str]) -> Dict[str, object]:
    return {
        name: _WIRE_CODECS.get(name, _AS_IS)[0](getattr(value, name))
        for name in names
    }


def _decode_fields(payload, names: Sequence[str]) -> Dict[str, object]:
    try:
        return {
            name: _WIRE_CODECS.get(name, _AS_IS)[1](payload[name])
            for name in names
        }
    except KeyError as missing:
        raise ProtocolError(f"frame lacks the field {missing}") from None


def encode_error(error: Exception) -> Dict[str, object]:
    return {
        "type": type(error).__name__,
        "message": str(error),
        "retryable": bool(getattr(error, "retryable", False)),
        **_encode_fields(error, getattr(error, "wire_fields", ())),
    }


def decode_error(payload: Dict[str, object]) -> ServiceError:
    """Rebuild the typed exception a server error frame describes."""
    kind = _ERROR_TYPES.get(payload.get("type"))
    message = str(payload.get("message", "remote service error"))
    if kind is None:
        error = ServiceError(message)
        error.retryable = bool(payload.get("retryable", False))
        return error
    if not kind.wire_fields:
        return kind(message)
    try:
        return kind(**_decode_fields(payload, kind.wire_fields))
    except ProtocolError as malformed:
        return malformed


def _seconds(header: Dict[str, object], name: str) -> Optional[float]:
    """A time budget off a request frame: a finite number >= 0, or null."""
    value = header.get(name)
    if value is not None and not (
        type(value) in (int, float) and 0 <= value < math.inf  # nan fails both
    ):
        raise ProtocolError(
            f"{name} must be a finite number >= 0 or null, got {value!r}"
        )
    return value


# -- server ------------------------------------------------------------------


class _Connection:
    """Per-connection server state: write lock, stream cursors, tasks."""

    def __init__(self, writer, max_inflight: int):
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.inflight = asyncio.Semaphore(max_inflight)
        self.cursors: Dict[str, Optional[Checkpoint]] = {}
        self.tasks: set = set()


class ScanServer:
    """Asyncio TCP server exposing one :class:`ScanService`.

    The service's lifecycle stays with its owner: ``start`` here only
    opens the listening socket (the service must already be started),
    and ``stop`` only closes connections — except for the ``drain``
    verb, which gracefully stops *both* (stop admitting → drain →
    join → close), which is what ``repro serve`` runs on SIGINT/SIGTERM.
    """

    def __init__(
        self,
        service: ScanService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout: Optional[float] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self.max_inflight = max(1, max_inflight)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._drain_task: Optional[asyncio.Task] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for connection in list(self._connections):
            for task in list(connection.tasks):
                task.cancel()
            connection.writer.close()

    # -- connection handling ---------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        connection = _Connection(writer, self.max_inflight)
        self._connections.add(connection)
        try:
            while True:
                # Backpressure: never read more than max_inflight frames
                # ahead of their responses — the socket buffer fills and
                # TCP pushes back to the client.
                await connection.inflight.acquire()
                try:
                    if self.idle_timeout is not None:
                        header, blob = await asyncio.wait_for(
                            read_frame(reader), self.idle_timeout
                        )
                    else:
                        header, blob = await read_frame(reader)
                except BaseException:
                    connection.inflight.release()
                    raise
                task = asyncio.get_running_loop().create_task(
                    self._handle(connection, header, blob)
                )
                connection.tasks.add(task)
                task.add_done_callback(connection.tasks.discard)
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
            ProtocolError,
        ):
            pass
        except asyncio.CancelledError:  # pragma: no cover - server stop
            raise
        finally:
            self._connections.discard(connection)
            for task in list(connection.tasks):
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _handle(self, connection, header, blob) -> None:
        request_id = header.get("id")
        try:
            response, out_blob = await self._dispatch(connection, header, blob)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            response, out_blob = {"error": encode_error(error)}, b""
        finally:
            connection.inflight.release()
        response["id"] = request_id
        frame = encode_frame(response, out_blob)
        async with connection.write_lock:
            try:
                connection.writer.write(frame)
                await connection.writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # peer is gone; the read loop tears the rest down

    async def _dispatch(self, connection, header, blob):
        op = header.get("op")
        if op == "ping":
            return {"pong": True}, b""
        if op == "health":
            return {"metrics": self.service.metrics_snapshot()}, b""
        if op == "register":
            return self._op_register(header), b""
        if op in ("submit", "resume"):
            return await self._op_submit(header, blob, require_resume=(op == "resume"))
        if op == "stream":
            return await self._op_stream(connection, header, blob)
        if op == "drain":
            return self._op_drain(header), b""
        raise ProtocolError(f"unknown op {op!r}")

    def _op_register(self, header):
        tenant = header.get("tenant")
        if not tenant or not isinstance(tenant, str):
            raise ProtocolError("register needs a tenant")
        reloaded = self.service.install(
            tenant,
            TenantRegistration.from_wire(header),
            limits=decode_limits(header.get("limits")),
        )
        return {"reloaded": reloaded}

    async def _op_submit(self, header, blob, *, require_resume: bool):
        tenant = header.get("tenant")
        if not tenant:
            raise ProtocolError("submit needs a tenant")
        resume = decode_checkpoint(header.get("checkpoint"))
        if require_resume and resume is None:
            raise ProtocolError("resume needs a checkpoint")
        outcome = await self.service.scan(
            tenant, blob, deadline=_seconds(header, "deadline"), resume=resume
        )
        return _encode_fields(outcome, _OUTCOME_FIELDS), b""

    async def _op_stream(self, connection, header, blob):
        tenant = header.get("tenant")
        stream_id = header.get("stream")
        if not tenant or not isinstance(stream_id, str):
            raise ProtocolError("stream needs tenant and a stream id")
        cursor = connection.cursors.get(stream_id)
        outcome = await self.service.scan(
            tenant, blob, deadline=_seconds(header, "deadline"), resume=cursor
        )
        if header.get("final"):
            connection.cursors.pop(stream_id, None)
        else:
            connection.cursors[stream_id] = outcome.checkpoint
        return _encode_fields(outcome, _OUTCOME_FIELDS), b""

    def _op_drain(self, header):
        drain_timeout = _seconds(header, "drain_timeout")
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain(drain_timeout)
            )
        return {"draining": True}

    async def _drain(self, drain_timeout) -> None:
        await self.service.stop(drain_timeout=drain_timeout)
        await self.stop()


# -- client ------------------------------------------------------------------


class NetScanClient:
    """Async client for :class:`ScanServer`.

    ``scan`` has the exact signature and typed-error behaviour of
    :meth:`ScanService.scan`, so it drops into
    :class:`~repro.service.client.RetryingClient` unchanged.  Requests
    are correlated by id, so any number of coroutines can share one
    connection; a dead connection fails every in-flight request with a
    retryable :class:`ConnectionLost`.
    """

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls, host: str, port: int, *, timeout: Optional[float] = None
    ) -> "NetScanClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass
        self._fail_pending(ConnectionLost("client closed"))

    async def __aenter__(self) -> "NetScanClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- plumbing ---------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                header, _blob = await read_frame(self._reader)
                future = self._pending.pop(header.get("id"), None)
                if future is None or future.done():
                    continue
                if "error" in header:
                    future.set_exception(decode_error(header["error"]))
                else:
                    future.set_result(header)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            if not self._closed:
                self._fail_pending(
                    ConnectionLost(f"connection lost: {error or 'EOF'}")
                )

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _request(
        self, op: str, header: Dict[str, object], blob: bytes = b""
    ) -> Dict[str, object]:
        if self._closed or self._reader_task.done():
            raise ConnectionLost("connection is closed")
        self._next_id += 1
        request_id = self._next_id
        header = {"id": request_id, "op": op, **header}
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(encode_frame(header, blob))
                await self._writer.drain()
        except (ConnectionError, RuntimeError) as error:
            self._pending.pop(request_id, None)
            raise ConnectionLost(f"send failed: {error}") from error
        return await future

    # -- verbs ------------------------------------------------------------

    async def ping(self) -> bool:
        return bool((await self._request("ping", {})).get("pong"))

    async def register(
        self,
        tenant: str,
        patterns,
        *,
        limits: Optional[TenantLimits] = None,
        backend: Optional[str] = None,
        stride=None,
        backend_options: Optional[Dict[str, object]] = None,
    ) -> bool:
        registration = TenantRegistration(
            tuple(patterns),
            backend=backend,
            stride=stride,
            backend_options=dict(backend_options or {}),
        )
        header = {"tenant": tenant, **registration.to_wire()}
        if limits is not None:
            header["limits"] = asdict(limits)
        return bool((await self._request("register", header)).get("reloaded"))

    async def scan(
        self,
        tenant: str,
        data: bytes,
        *,
        deadline: Optional[float] = None,
        resume: Optional[Checkpoint] = None,
    ) -> ScanOutcome:
        op = "submit" if resume is None else "resume"
        header: Dict[str, object] = {"tenant": tenant, "deadline": deadline}
        if resume is not None:
            header["checkpoint"] = encode_checkpoint(resume)
        response = await self._request(op, header, bytes(data))
        return ScanOutcome(**_decode_fields(response, _OUTCOME_FIELDS))

    async def stream_scan(
        self,
        tenant: str,
        stream_id: str,
        chunk: bytes,
        *,
        deadline: Optional[float] = None,
        final: bool = False,
    ) -> ScanOutcome:
        """One chunk of a server-side cursored stream (``stream`` verb)."""
        header: Dict[str, object] = {
            "tenant": tenant,
            "stream": stream_id,
            "deadline": deadline,
            "final": bool(final),
        }
        response = await self._request("stream", header, bytes(chunk))
        return ScanOutcome(**_decode_fields(response, _OUTCOME_FIELDS))

    async def health(self) -> Dict[str, object]:
        return (await self._request("health", {})).get("metrics", {})

    async def drain(self, drain_timeout: Optional[float] = None) -> bool:
        response = await self._request(
            "drain", {"drain_timeout": drain_timeout}
        )
        return bool(response.get("draining"))


async def connect_retrying(
    host: str,
    port: int,
    *,
    timeout: Optional[float] = None,
    **retry_options,
) -> Tuple[NetScanClient, RetryingClient]:
    """Convenience: a connected client wrapped in the backoff retrier."""
    client = await NetScanClient.connect(host, port, timeout=timeout)
    return client, RetryingClient(client, **retry_options)
