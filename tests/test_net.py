"""Network front end (``repro.service.net``): frame codec, verbs,
typed-error reconstruction, backpressure, and the ``repro serve``
signal-handling contract.

The wire must be invisible to correctness: a scan over TCP returns the
same rows, checkpoints, and typed errors as the in-process call, so
``RetryingClient`` works over ``NetScanClient`` unchanged.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.service import (
    ConnectionLost,
    DeadlineExceeded,
    NetScanClient,
    Overloaded,
    ProtocolError,
    RetryingClient,
    ScanServer,
    ScanService,
    ServiceClosed,
    ServiceError,
    StreamTooLarge,
    TenantLimits,
    UnknownTenant,
    WorkerCrashed,
    connect_retrying,
)
from repro.service.net import (
    decode_checkpoint,
    decode_error,
    decode_reports,
    encode_checkpoint,
    encode_error,
    encode_frame,
    encode_reports,
    read_frame,
)
from repro.sim.golden import Checkpoint, Report

PATTERNS = ["cat", "dog+", "ba[rt]"]
DATA = b"the cat sat on the bar while the dog dogged a bat " * 4


def run(coro):
    return asyncio.run(coro)


def rows(outcome_or_reports):
    reports = getattr(outcome_or_reports, "reports", outcome_or_reports)
    return [(r.offset, r.ste_id, r.report_code) for r in reports]


async def started_service(**kwargs):
    kwargs.setdefault("cache", False)
    service = ScanService(**kwargs)
    service.register("acme", PATTERNS)
    await service.start()
    return service


class TestFrameCodec:
    def test_frame_round_trip(self):
        async def scenario():
            header = {"op": "submit", "id": 3, "tenant": "acme"}
            blob = b"\x00\x01payload\xff"
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(header, blob))
            reader.feed_eof()
            return await read_frame(reader)

        header, blob = run(scenario())
        assert header == {"op": "submit", "id": 3, "tenant": "acme"}
        assert blob == b"\x00\x01payload\xff"

    def test_oversized_header_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\xff\xff\xff\xff\x00\x00\x00\x00")
            with pytest.raises(ProtocolError):
                await read_frame(reader)

        run(scenario())

    def test_non_json_header_rejected(self):
        async def scenario():
            import struct

            garbage = b"not json"
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">II", len(garbage), 0) + garbage)
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await read_frame(reader)

        run(scenario())

    def test_checkpoint_round_trip_preserves_bigint(self):
        """The active-state vector is an arbitrary-precision integer;
        JSON numbers cannot carry it exactly, hex strings can."""
        checkpoint = Checkpoint(
            symbols_processed=12345,
            active_state_vector=(1 << 300) | 0x5A5A,
            start_of_data_pending=True,
        )
        decoded = decode_checkpoint(encode_checkpoint(checkpoint))
        assert decoded.symbols_processed == 12345
        assert decoded.active_state_vector == (1 << 300) | 0x5A5A
        assert decoded.start_of_data_pending is True
        assert decode_checkpoint(None) is None
        with pytest.raises(ProtocolError):
            decode_checkpoint(["zap"])

    def test_report_round_trip(self):
        reports = (Report(7, "s3", "cat"), Report(40, "s9", "dog"))
        assert decode_reports(encode_reports(reports)) == reports

    ERRORS = [
        UnknownTenant("ghost"),
        StreamTooLarge("acme", 100, 10),
        Overloaded("acme", "queue full"),
        WorkerCrashed("acme"),
        ServiceClosed("draining"),
        ProtocolError("bad frame"),
        ConnectionLost("gone"),
        DeadlineExceeded(
            "acme",
            offset=64,
            reports=[Report(7, "s3", "cat")],
            checkpoint=Checkpoint(64, 1 << 200, False),
        ),
    ]

    @pytest.mark.parametrize("error", ERRORS)
    def test_error_round_trip(self, error):
        """Through JSON and back: same class, same message, and every
        attribute the constructor set — so a field a class forgot to
        declare in ``wire_fields`` fails here."""
        decoded = decode_error(json.loads(json.dumps(encode_error(error))))
        assert type(decoded) is type(error)
        assert decoded.retryable == error.retryable
        assert str(decoded) == str(error)
        assert vars(decoded) == vars(error)
        assert set(vars(error)) == set(error.wire_fields)

    def test_every_service_error_is_covered_above(self):
        """A new subclass must join ``ERRORS`` (and so declare its
        fields) before it can cross the wire as itself."""

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        assert {type(error) for error in self.ERRORS} == set(
            subclasses(ServiceError)
        )

    def test_deadline_error_round_trip_carries_progress(self):
        error = DeadlineExceeded(
            "acme",
            offset=64,
            reports=[Report(7, "s3", "cat")],
            checkpoint=Checkpoint(64, 1 << 200, False),
        )
        decoded = decode_error(encode_error(error))
        assert isinstance(decoded, DeadlineExceeded)
        assert decoded.offset == 64
        assert rows(decoded.reports) == [(7, "s3", "cat")]
        assert decoded.checkpoint.active_state_vector == 1 << 200

    def test_unknown_error_type_preserves_retryable(self):
        decoded = decode_error(
            {"type": "Mystery", "message": "huh", "retryable": True}
        )
        assert decoded.retryable is True


class TestServerVerbs:
    def test_submit_matches_in_process(self):
        async def scenario():
            service = await started_service(chunk_bytes=32)
            server = ScanServer(service)
            await server.start()
            host, port = server.address
            try:
                reference = await service.scan("acme", DATA)
                async with await NetScanClient.connect(host, port) as client:
                    assert await client.ping()
                    outcome = await client.scan("acme", DATA)
                return rows(reference), rows(outcome), outcome
            finally:
                await server.stop()
                await service.stop()

        reference, networked, outcome = run(scenario())
        assert networked == reference
        assert outcome.offset == len(DATA)
        assert not outcome.fallback

    def test_typed_errors_cross_the_wire(self):
        async def scenario():
            service = await started_service()
            service.register(
                "tiny", PATTERNS, limits=TenantLimits(max_stream_bytes=8)
            )
            server = ScanServer(service)
            await server.start()
            try:
                async with await NetScanClient.connect(*server.address) as c:
                    with pytest.raises(UnknownTenant):
                        await c.scan("ghost", b"abc")
                    with pytest.raises(StreamTooLarge) as info:
                        await c.scan("tiny", b"x" * 9)
                    assert info.value.size == 9
                    assert info.value.limit == 8
            finally:
                await server.stop()
                await service.stop()

        run(scenario())

    def test_deadline_over_wire_resumes_bit_identical(self):
        """A ``DeadlineExceeded`` error frame carries the checkpoint;
        the ``resume`` verb continues the stream with the combined rows
        equal to one uninterrupted scan."""
        from tests.test_procpool import Ticker

        clock = Ticker(step=1.0)

        async def scenario():
            service = ScanService(chunk_bytes=16, clock=clock, cache=False)
            service.register("acme", PATTERNS)
            await service.start()
            server = ScanServer(service)
            await server.start()
            try:
                reference = await service.scan("acme", DATA, deadline=10_000)
                async with await NetScanClient.connect(*server.address) as c:
                    with pytest.raises(DeadlineExceeded) as info:
                        await c.scan("acme", DATA, deadline=3.5)
                    error = info.value
                    rest = await c.scan(
                        "acme",
                        DATA[error.offset:],
                        deadline=10_000,
                        resume=error.checkpoint,
                    )
                return rows(reference), error, rest
            finally:
                await server.stop()
                await service.stop()

        reference, error, rest = run(scenario())
        assert 0 < error.offset < len(DATA)
        assert rows(error.reports) + rows(rest) == reference

    def test_stream_verb_keeps_server_side_cursor(self):
        async def scenario():
            service = await started_service(chunk_bytes=32)
            server = ScanServer(service)
            await server.start()
            try:
                reference = await service.scan("acme", DATA)
                collected = []
                async with await NetScanClient.connect(*server.address) as c:
                    half = len(DATA) // 2
                    first = await c.stream_scan("acme", "s1", DATA[:half])
                    collected += rows(first)
                    second = await c.stream_scan(
                        "acme", "s1", DATA[half:], final=True
                    )
                    collected += rows(second)
                return rows(reference), collected
            finally:
                await server.stop()
                await service.stop()

        reference, collected = run(scenario())
        assert collected == reference

    def test_health_and_register_verbs(self):
        async def scenario():
            service = await started_service()
            server = ScanServer(service)
            await server.start()
            try:
                async with await NetScanClient.connect(*server.address) as c:
                    assert await c.register("wire", ["emu"]) is True
                    outcome = await c.scan("wire", b"an emu!")
                    metrics = await c.health()
                return outcome, metrics
            finally:
                await server.stop()
                await service.stop()

        outcome, metrics = run(scenario())
        assert [r.report_code for r in outcome.reports] == ["emu"]
        assert metrics["completed"] >= 1
        assert "scan_workers" in metrics

    @pytest.mark.parametrize("backend", ["eager-dfa", "nope"])
    def test_register_naming_no_backend_is_refused(self, backend):
        """The retired eager-dfa is as unknown as any other name: the
        register frame is answered with an error, and the connection
        goes on serving."""
        async def scenario():
            service = await started_service()
            server = ScanServer(service)
            await server.start()
            try:
                async with await NetScanClient.connect(*server.address) as c:
                    with pytest.raises(ServiceError, match="unknown backend"):
                        await c.register("wire", ["emu"], backend=backend)
                    outcome = await c.scan("acme", b"the cat")
                return outcome, service.tenant_names()
            finally:
                await server.stop()
                await service.stop()

        outcome, tenants = run(scenario())
        assert [r.offset for r in outcome.reports] == [6]
        assert "wire" not in tenants

    def test_unknown_op_is_protocol_error(self):
        async def scenario():
            service = await started_service()
            server = ScanServer(service)
            await server.start()
            try:
                async with await NetScanClient.connect(*server.address) as c:
                    with pytest.raises(ProtocolError):
                        await c._request("transmogrify", {})
                    good = {"tenant": "wire", "patterns": ["emu"]}
                    for bad in (
                        {"patterns": "emu"},
                        {"patterns": ["emu", 7]},
                        {"tenant": 7},
                        {"backend_options": ["max_states"]},
                        {"limits": ["max_in_flight"]},
                        {"limits": {"max_in_flight": 2, "burst": 9}},
                        {"limits": {"max_in_flight": "x"}},
                        {"limits": {"max_in_flight": True}},
                        {"limits": {"max_stream_bytes": 0}},
                        {"limits": {"max_in_flight": None}},
                        {"limits": {"dfa_max_states": 1.5}},
                    ):
                        with pytest.raises(ProtocolError):
                            await c._request("register", {**good, **bad})
                    # A time budget is a finite number >= 0 or null
                    # (Python's json reads NaN and Infinity).
                    for budget in ("x", [1], True, -1, float("nan"), float("inf")):
                        for op, field in (
                            ("submit", "deadline"),
                            ("stream", "deadline"),
                            ("drain", "drain_timeout"),
                        ):
                            frame = {"tenant": "acme", "stream": "s", field: budget}
                            with pytest.raises(ProtocolError, match=field):
                                await c._request(op, frame, b"cat")
                    # Nothing above registered, let alone poisoned, the
                    # tenant: a well-formed frame does, and it scans.
                    assert "wire" not in service.tenant_names()
                    limits = {"max_in_flight": 2, "dfa_max_states": None}
                    await c._request("register", {**good, "limits": limits})
                    outcome = await c.scan("wire", b"an emu!")
                    assert [r.report_code for r in outcome.reports] == ["emu"]
            finally:
                await server.stop()
                await service.stop()

        run(scenario())

    def test_retrying_client_rides_overload(self):
        """``Overloaded`` crosses the wire retryable, so the stock
        ``RetryingClient`` wrapped around a ``NetScanClient`` retries
        through a full admission queue to completion."""
        import random

        async def scenario():
            service = ScanService(workers=1, max_queue=1, cache=False)
            service.register(
                "acme", PATTERNS, limits=TenantLimits(max_in_flight=64)
            )
            await service.start()
            service.set_scan_delay("acme", 0.005)
            server = ScanServer(service)
            await server.start()
            try:
                # The queue holds one request, and each of the other five
                # holds that slot once, for at most the scan ahead of it
                # (5 ms of delay and a few bytes).  A retry waits at least
                # half its capped backoff, 25 ms here, so two refusals of
                # one request never fall in the same holder's stay: at
                # most five refusals, so one of its first six attempts
                # (of eight) is admitted.  The stock budget, 4 attempts
                # from 5 ms, could run out inside ~35 ms of refusals.
                net, retrier = await connect_retrying(
                    *server.address,
                    max_attempts=8,
                    base_delay=0.05,
                    rng=random.Random(0),
                )
                async with net:
                    outcomes = await asyncio.gather(*[
                        retrier.scan("acme", DATA) for _ in range(6)
                    ])
                return retrier, outcomes
            finally:
                await server.stop()
                await service.stop()

        retrier, outcomes = run(scenario())
        assert all(o.offset == len(DATA) for o in outcomes)
        assert retrier.retries > 0
        assert retrier.exhausted == 0

    def test_drain_verb_stops_service_and_server(self):
        async def scenario():
            service = await started_service()
            server = ScanServer(service)
            await server.start()
            async with await NetScanClient.connect(*server.address) as c:
                # A malformed drain is refused whole: still accepting,
                # and the well-formed one after it is not a no-op.
                with pytest.raises(ProtocolError):
                    await c._request("drain", {"drain_timeout": "x"})
                assert (await c.scan("acme", DATA)).offset == len(DATA)
                assert await c.drain(drain_timeout=1.0) is True
            for _ in range(100):
                if server._server is None:
                    break
                await asyncio.sleep(0.01)
            assert server._server is None
            with pytest.raises(ServiceClosed):
                await service.scan("acme", DATA)

        run(scenario())


class TestConnectionFailure:
    def test_idle_timeout_disconnects(self):
        async def scenario():
            service = await started_service()
            server = ScanServer(service, idle_timeout=0.05)
            await server.start()
            try:
                client = await NetScanClient.connect(*server.address)
                await client.ping()
                await asyncio.sleep(0.2)  # idle past the timeout
                with pytest.raises(ConnectionLost):
                    await client.scan("acme", DATA)
                await client.close()
            finally:
                await server.stop()
                await service.stop()

        run(scenario())

    def test_server_death_fails_inflight_retryably(self):
        async def scenario():
            service = await started_service(workers=1)
            server = ScanServer(service)
            await server.start()
            client = await NetScanClient.connect(*server.address)
            service.set_scan_delay("acme", 0.05)
            pending = asyncio.ensure_future(client.scan("acme", DATA))
            await asyncio.sleep(0.01)
            await server.stop()
            with pytest.raises(ConnectionLost) as info:
                await pending
            assert info.value.retryable
            await client.close()
            await service.stop()

        run(scenario())

    def test_request_after_close_raises(self):
        async def scenario():
            service = await started_service()
            server = ScanServer(service)
            await server.start()
            try:
                client = await NetScanClient.connect(*server.address)
                await client.close()
                with pytest.raises(ConnectionLost):
                    await client.ping()
            finally:
                await server.stop()
                await service.stop()

        run(scenario())


class TestServeSignals:
    """``repro serve --port``: graceful drain on SIGINT/SIGTERM with the
    documented exit codes (130 and 0)."""

    @staticmethod
    def _spawn_server(tmp_path, *extra):
        rules = tmp_path / "rules.txt"
        rules.write_text("cat\ndog+\n")
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(rules),
             "--port", "0", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=root,
        )
        # Warnings (e.g. artifact-cache quarantine notes) may precede
        # the banner on the merged stream; skip to the banner line.
        banner = ""
        for _ in range(50):
            banner = process.stdout.readline()
            if "serving tenant" in banner or not banner:
                break
        assert "serving tenant" in banner, banner
        # "... on 127.0.0.1:PORT (..." -> PORT
        address = banner.split(" on ", 1)[1].split(" ", 1)[0]
        port = int(address.rsplit(":", 1)[1])
        return process, port

    @pytest.mark.parametrize(
        "signum,expected_exit",
        [(signal.SIGTERM, 0), (signal.SIGINT, 130)],
    )
    def test_signal_drains_with_documented_exit(
        self, tmp_path, signum, expected_exit
    ):
        process, port = self._spawn_server(tmp_path)
        try:
            async def one_scan():
                async with await NetScanClient.connect(
                    "127.0.0.1", port, timeout=10
                ) as client:
                    return await client.scan("default", b"a cat appears")

            outcome = run(one_scan())
            assert [r.report_code for r in outcome.reports] == ["cat"]
            process.send_signal(signum)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == expected_exit, output
        assert signal.Signals(signum).name in output
        assert "drained: 1 completed" in output
