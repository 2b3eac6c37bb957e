"""Command-line interface for the Cache Automaton toolchain.

Subcommands::

    python -m repro.cli compile RULES.txt [--design CA_P] [--anml OUT.anml]
        compile a rule file (one regex per line, '#' comments) and print
        the mapping report: states, partitions, ways, cache bytes, wire
        usage, derived clock.

    python -m repro.cli scan RULES.txt INPUT.bin [INPUT2.bin ...]
                        [--design CA_P] [--limit N] [--backend NAME]
                        [--jobs N] [--split-jobs N] [--stride K]
        compile, map, and scan one or more binary input files; print
        match records and the modelled performance/energy summary over
        all of them.  Builds through the engine, so the compiled
        automaton and artifact come from the cache under
        ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) when a previous
        run — ``scan`` or ``serve`` — left them there.
        ``--backend`` selects any registered execution backend (default:
        the packed kernel; ``--backend lazy-dfa`` for the lazy-DFA
        transition cache).  With several inputs and a sharding backend,
        ``--jobs`` controls the scan worker pool (also settable via
        ``REPRO_SCAN_JOBS``).  ``--split-jobs N`` (also
        ``REPRO_SPLIT_JOBS``) splits each *single* input across N
        workers on backends with an SFA split path (the lazy-DFA
        backend), bit-identical to the serial scan.  ``--stride K``
        (1, 2, or 4; also ``REPRO_STRIDE``) makes the lazy-DFA backend
        consume K bytes per step over a compressed stride alphabet.

    python -m repro.cli backends
        list the registered execution backends with their aliases and
        capability matrix.

    python -m repro.cli anml-info FILE.anml
        parse an ANML document and print its structural characteristics.

    python -m repro.cli classify RULES.txt [--probe-budget N]
        run the per-component classifier (see
        :mod:`repro.compiler.classify`) and print one row per connected
        component: states, byte classes, symbol entropy, the bounded
        subset-closure probe's rows and whether it aborted, and the
        substrate that decides (``lazy-dfa`` iff the probe closed).

    python -m repro.cli designs
        list the built-in design points with their derived parameters.

    python -m repro.cli profile-compile [RULES.txt | --workload NAME]
        compile cold (single process) and print the wall-clock
        attribution per compiler phase: validate, components, pack,
        split (with coarsen/refine sub-phases), place, check, bitstream.

    python -m repro.cli fault-campaign [RULES.txt | --workload NAME]
        run a seeded single-fault injection campaign (match-array flips,
        crossbar stuck-ats, state-vector upsets) and print the AVF-style
        masked / detected / SDC table per fault site.

    python -m repro.cli serve RULES.txt INPUT.bin [INPUT2.bin ...]
                        [--deadline S] [--workers N] [--repeat N]
                        [--scan-workers N]
        run the resilient scan service in-process: register the rule
        file as a tenant, submit every input through the admission
        queue with a per-request deadline (scans are chunked, so
        expiry interrupts mid-stream), retry shed requests with
        backoff, drain gracefully, and print per-request outcomes plus
        the service metrics snapshot.  ``--scan-workers N`` moves chunk
        execution into a pool of N worker processes.

    python -m repro.cli serve RULES.txt --port P [--host H]
                        [--scan-workers N] [--drain-timeout S]
        network mode: serve the tenant over the length-prefixed TCP
        frame protocol until SIGINT/SIGTERM, then drain gracefully
        (exit 130 on SIGINT, 0 on SIGTERM).  ``--port 0`` picks a free
        port and prints it.

    python -m repro.cli loadgen [--scenario baseline|faulted|both|serving]
                        [--duration S] [--seed N] [--scan-workers N]
                        [--transport inproc|tcp] [--connect HOST:PORT]
        drive the service with the open-loop load generator; the
        ``faulted`` scenario kills a worker, slows one tenant past its
        deadline, submits oversized streams, and injects backend
        faults (circuit breaker trips to the golden-fallback tier and
        recovers).  Prints the run table and exits 1 if any exception
        escaped the typed-error surface.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.automata.anml import from_anml, to_anml
from repro.automata.components import component_stats
from repro.backends import (
    DEFAULT_BACKEND,
    backend_names,
    backend_spec,
    create_backend,
)
from repro.backends.artifact import CompiledArtifact
from repro.baselines.ap import ApModel
from repro.compiler import (
    analyse,
    compile_automaton,
    compile_space_optimized,
    generate,
    mapping_to_json,
)
from repro.core.design import CA_64, CA_P, CA_S, DesignPoint
from repro.core.energy import EnergyModel
from repro.core.system import ConfigurationModel
from repro.engine import CacheAutomatonEngine
from repro.errors import ReproError
from repro.eval.tables import format_table
from repro.regex.compile import compile_patterns

_DESIGNS = {design.name: design for design in (CA_P, CA_S, CA_64)}


def _load_rules(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as handle:
        rules = [
            line.strip()
            for line in handle
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not rules:
        raise ReproError(f"no rules found in {path}")
    return rules


def _design(name: str) -> DesignPoint:
    try:
        return _DESIGNS[name]
    except KeyError:
        raise ReproError(
            f"unknown design {name!r}; choose from {', '.join(_DESIGNS)}"
        ) from None


def _compile(rules: List[str], design: DesignPoint):
    machine = compile_patterns(rules, report_codes=rules)
    if design.name.startswith("CA_S"):
        return compile_space_optimized(machine, design)
    return compile_automaton(machine, design)


def _print_mapping_report(mapping) -> None:
    design = mapping.design
    stats = component_stats(mapping.automaton)
    report = analyse(mapping)
    edges = mapping.classify_edges()
    print(f"design:            {design.name} ({design.description})")
    print(f"states:            {stats.state_count} in {stats.component_count} CCs "
          f"(largest {stats.largest_component_size})")
    print(f"partitions:        {mapping.partition_count} across "
          f"{mapping.ways_used} way(s), "
          f"{mapping.occupancy_fraction()*100:.0f}% slot occupancy")
    print(f"cache utilisation: {mapping.cache_bytes()/1024:.0f} KB")
    print(f"edges:             {edges['local']} local, {edges['g1']} within-way, "
          f"{edges['g4']} cross-way")
    print(f"wire usage:        G1 out/in {report.max_out_g1}/{report.max_in_g1} "
          f"(budget {design.g1_wires_per_partition}), "
          f"G4 out/in {report.max_out_g4}/{report.max_in_g4} "
          f"(budget {design.g4_wires_per_partition})")
    print(f"clock:             {design.frequency_ghz:g} GHz "
          f"(max {design.max_frequency_ghz:.2f}) -> "
          f"{design.throughput_gbps:.1f} Gb/s")


def _cmd_compile(arguments) -> int:
    design = _design(arguments.design)
    mapping = _compile(_load_rules(arguments.rules), design)
    _print_mapping_report(mapping)
    bitstream = generate(mapping)
    configuration = ConfigurationModel()
    print(f"bitstream:         {configuration.configuration_bytes(bitstream)//1024} KB, "
          f"loads in {configuration.configuration_ms(bitstream):.4f} ms")
    if arguments.anml:
        with open(arguments.anml, "w", encoding="utf-8") as handle:
            handle.write(to_anml(mapping.automaton))
        print(f"ANML written to    {arguments.anml}")
    if arguments.save_mapping:
        with open(arguments.save_mapping, "w", encoding="utf-8") as handle:
            handle.write(mapping_to_json(mapping))
        print(f"mapping written to {arguments.save_mapping}")
    return 0


def _cmd_scan(arguments) -> int:
    design = _design(arguments.design)
    rules = _load_rules(arguments.rules)
    streams = []
    for path in arguments.input:
        with open(path, "rb") as handle:
            streams.append(handle.read())
    # The library's front door: artifact cache, warm start and the tier
    # chain are the engine's; the printed lines need the backend's own
    # results (reports, activity profile, output buffer).
    backend = CacheAutomatonEngine.from_patterns(
        rules,
        design=design,
        optimize=design.name.startswith("CA_S"),
        backend=arguments.backend,
        scan_jobs=arguments.jobs,
        split_jobs=arguments.split_jobs,
        stride=arguments.stride,
    ).backend
    if len(streams) == 1:
        results = [backend.scan(streams[0])]
    else:
        results = backend.scan_many(streams)
    total_matches = 0
    for path, result in zip(arguments.input, results):
        if len(streams) > 1:
            print(f"-- {path}")
        total_matches += len(result.reports)
        shown = result.reports[: arguments.limit]
        for record in shown:
            print(f"offset {record.offset}: {record.report_code!r}")
        if len(result.reports) > len(shown):
            print(f"... and {len(result.reports) - len(shown)} more")
    # The summary covers every input, whatever order they came in.
    total_bytes = sum(map(len, streams))
    profile = results[0].profile
    for result in results[1:]:
        profile = profile.merged_with(result.profile)
    buffers = [r.output_buffer for r in results if r.output_buffer is not None]
    energy = EnergyModel(design)
    ap = ApModel()
    print(f"\n{total_matches} matches in {total_bytes} bytes "
          f"(backend {backend.name})")
    print(f"modelled scan:  {total_bytes/(design.frequency_ghz*1e9)*1e3:.4f} ms "
          f"at {design.throughput_gbps:.1f} Gb/s "
          f"({ap.speedup_of(design):.1f}x Micron's AP)")
    if backend.capabilities().activity_profile and profile.symbols:
        print(f"energy:         "
              f"{energy.energy_per_symbol_nj(profile):.3f} nJ/symbol, "
              f"avg power {energy.average_power_watts(profile):.2f} W")
    if buffers:
        print(f"output buffer:  "
              f"{sum(buffer.interrupts for buffer in buffers)} interrupt(s)")
    return 0


def _cmd_backends(_arguments) -> int:
    machine = compile_patterns(["a"])
    artifact = CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))
    rows = [(
        "Backend", "Aliases", "Resume", "Batch", "Split", "Profile",
        "Faults", "Description",
    )]
    for name in backend_names():
        spec = backend_spec(name)
        capabilities = create_backend(name, artifact).capabilities()
        rows.append((
            f"{name} *" if name == DEFAULT_BACKEND else name,
            ", ".join(spec.aliases) if spec.aliases else "-",
            "yes" if capabilities.resume else "no",
            "yes" if capabilities.batch else "no",
            "yes" if capabilities.split else "no",
            "yes" if capabilities.activity_profile else "no",
            "yes" if capabilities.fault_events else "no",
            capabilities.description,
        ))
    print(format_table(rows))
    print("\n* default backend")
    return 0


def _cmd_classify(arguments) -> int:
    from repro.compiler.classify import classify_automaton

    rules = _load_rules(arguments.rules)
    machine = compile_patterns(rules, report_codes=rules)
    classification = classify_automaton(
        machine, probe_budget=arguments.probe_budget
    )
    rows = [(
        "CC", "Repr", "States", "Classes", "Entropy", "Probe",
        "Aborted", "Growth", "Backend",
    )]
    for row in classification.rows():
        rows.append((
            int(row["component"]),
            row["representative"],
            int(row["states"]),
            int(row["byte_classes"]),
            f"{row['symbol_entropy']:.3f}",
            int(row["probe_states"]),
            "yes" if row["probe_aborted"] else "no",
            f"{row['det_growth']:.2f}",
            row["backend"],
        ))
    print(format_table(rows))
    placed: dict = {}
    for row in classification.rows():
        placed[row["backend"]] = placed.get(row["backend"], 0) + 1
    summary = ", ".join(
        f"{count} CC(s) -> {backend}" for backend, count in sorted(placed.items())
    )
    print(f"\nplacement: {summary}")
    return 0


def _cmd_anml_info(arguments) -> int:
    with open(arguments.file, "r", encoding="utf-8") as handle:
        automaton = from_anml(handle.read())
    stats = component_stats(automaton)
    print(f"id:         {automaton.automaton_id}")
    print(f"states:     {stats.state_count}")
    print(f"edges:      {stats.edge_count} (avg fan-out {stats.average_fan_out:.2f})")
    print(f"components: {stats.component_count} (largest {stats.largest_component_size})")
    print(f"starts:     {len(automaton.start_states())}")
    print(f"reporting:  {len(automaton.reporting_states())}")
    return 0


def _workload_automaton(arguments):
    """The automaton of a command that takes a rules file or
    ``--workload NAME`` (+ ``--scale``), and the label it prints as the
    source."""
    if arguments.workload:
        from repro.workloads.suite import build_suite

        suite = {
            benchmark.name: benchmark
            for benchmark in build_suite(arguments.scale)
        }
        try:
            automaton = suite[arguments.workload].build()
        except KeyError:
            raise ReproError(
                f"unknown workload {arguments.workload!r}; choose from "
                f"{', '.join(sorted(suite))}"
            ) from None
        return automaton, f"{arguments.workload} (scale {arguments.scale:g})"
    if arguments.rules:
        rules = _load_rules(arguments.rules)
        return compile_patterns(rules, report_codes=rules), arguments.rules
    raise ReproError("supply a rules file or --workload NAME")


def _cmd_profile_compile(arguments) -> int:
    from repro.eval.profiling import profile_compile

    design = _design(arguments.design)
    automaton, source = _workload_automaton(arguments)
    profile, mapping = profile_compile(
        automaton, design, include_bitstream=not arguments.no_bitstream
    )
    print(f"workload:   {source}")
    print(f"design:     {design.name}")
    print(f"states:     {profile.states}")
    print(f"partitions: {profile.partitions}")
    print(format_table(profile.rows()))
    return 0


def _cmd_fault_campaign(arguments) -> int:
    from repro.eval.faults import run_campaign
    from repro.workloads.inputs import LOWERCASE, random_over_alphabet

    design = _design(arguments.design)
    automaton, source = _workload_automaton(arguments)
    data = random_over_alphabet(
        arguments.input_bytes, LOWERCASE, seed=arguments.seed
    )
    result = run_campaign(
        automaton,
        data,
        design=design,
        trials=arguments.trials,
        seed=arguments.seed,
    )
    print(f"workload:   {source}")
    print(f"design:     {design.name}")
    print(f"states:     {result.states}")
    print(f"input:      {result.input_bytes} bytes, "
          f"{result.trials} trials, seed {result.seed}")
    print(format_table(result.table_rows()))
    return 0


def _tenant_service(arguments, rules):
    """The ``serve`` command's service (batch and network mode alike):
    built from its flags, with its one tenant registered."""
    from repro.service import ScanService, TenantLimits

    service = ScanService(
        workers=arguments.workers,
        scan_workers=arguments.scan_workers,
        chunk_bytes=arguments.chunk_bytes,
        default_deadline=arguments.deadline,
    )
    service.register(
        arguments.tenant,
        rules,
        limits=TenantLimits(max_stream_bytes=arguments.max_stream_bytes),
        backend=arguments.backend,
    )
    return service


def _cmd_serve(arguments) -> int:
    import asyncio

    from repro.service import (
        POOL_COUNTERS,
        SERVICE_COUNTERS,
        DeadlineExceeded,
        RetryingClient,
        ServiceError,
    )

    rules = _load_rules(arguments.rules)
    if arguments.port is not None:
        return _serve_network(arguments, rules)
    if not arguments.input:
        raise ReproError(
            "serve needs input files in batch mode, or --port to run "
            "the network server"
        )
    streams = []
    for path in arguments.input:
        with open(path, "rb") as handle:
            streams.append((path, handle.read()))

    async def run() -> int:
        service = _tenant_service(arguments, rules)
        client = RetryingClient(service)
        completed = failed = 0
        async with service:
            requests = [
                (path, data)
                for path, data in streams
                for _ in range(arguments.repeat)
            ]

            async def one(path: str, data: bytes):
                nonlocal completed, failed
                try:
                    outcome = await client.scan(arguments.tenant, data)
                except DeadlineExceeded as error:
                    failed += 1
                    print(f"{path}: DEADLINE after {error.offset} bytes "
                          f"({len(error.reports)} partial match(es))")
                except ServiceError as error:
                    failed += 1
                    print(f"{path}: {type(error).__name__}: {error}")
                else:
                    completed += 1
                    tier = " [fallback]" if outcome.fallback else ""
                    print(f"{path}: {len(outcome.reports)} match(es) in "
                          f"{outcome.offset} bytes via {outcome.served_by}"
                          f"{tier} ({outcome.latency_s * 1e3:.2f} ms)")

            await asyncio.gather(
                *(one(path, data) for path, data in requests)
            )
            await service.stop(drain_timeout=arguments.drain_timeout)
        snapshot = service.metrics_snapshot()
        print(f"\n{completed} completed, {failed} failed "
              f"({snapshot['shed']} shed, {snapshot['timeouts']} deadlined, "
              f"{client.retries} retried)")
        keys = SERVICE_COUNTERS
        if arguments.scan_workers:
            keys += tuple(POOL_COUNTERS)
        rows = [("Counter", "Value")] + [(key, snapshot[key]) for key in keys]
        print(format_table(rows))
        return 0 if failed == 0 else 1

    return asyncio.run(run())


def _serve_network(arguments, rules) -> int:
    """Long-running TCP server mode (``repro serve --port``).

    SIGINT and SIGTERM both trigger a graceful drain — stop admitting,
    let queued and in-flight requests finish (deadlines forced after
    ``--drain-timeout``), join the workers, close the sockets — then
    exit with the documented one-line-diagnostic codes: 130 for SIGINT
    (interrupted by the user), 0 for SIGTERM (clean supervised stop).
    """
    import asyncio
    import signal

    from repro.service import ScanServer

    async def run() -> int:
        service = _tenant_service(arguments, rules)
        await service.start()
        server = ScanServer(
            service, host=arguments.host, port=arguments.port
        )
        await server.start()
        host, port = server.address
        print(
            f"serving tenant {arguments.tenant!r} on {host}:{port} "
            f"({arguments.workers} worker(s), "
            f"{arguments.scan_workers} scan process(es)); "
            "SIGINT/SIGTERM drains",
            flush=True,
        )
        stop = asyncio.Event()
        received: dict = {}
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum,
                lambda signum=signum: (
                    received.setdefault("signal", signum),
                    stop.set(),
                ),
            )
        await stop.wait()
        signum = received.get("signal", signal.SIGTERM)
        print(
            f"{signal.Signals(signum).name} received: draining "
            f"(budget {arguments.drain_timeout}s)",
            flush=True,
        )
        # Drain the service first (stops admitting; in-flight requests
        # finish or deadline out), then close the listening socket and
        # any lingering connections.
        await service.stop(drain_timeout=arguments.drain_timeout)
        await server.stop()
        snapshot = service.metrics_snapshot()
        pooled = ""
        if arguments.scan_workers:
            pooled = (
                f"; {snapshot['pool_chunks']} chunk(s) in "
                f"{snapshot['pool_dispatches']} pool dispatch(es), "
                f"{snapshot['pool_respawns']} respawn(s), cold starts "
                f"{snapshot['pool_cold_tables']} tables / "
                f"{snapshot['pool_cold_rebuilds']} rebuild"
            )
        print(
            f"drained: {snapshot['completed']} completed, "
            f"{snapshot['shed']} shed, {snapshot['timeouts']} deadlined, "
            f"{snapshot['failed']} failed{pooled}",
            flush=True,
        )
        return 130 if signum == signal.SIGINT else 0

    return asyncio.run(run())


def _parse_hostport(value: str):
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ReproError(f"expected HOST:PORT, got {value!r}")
    return (host or "127.0.0.1", int(port))


def _cmd_loadgen(arguments) -> int:
    import dataclasses

    from repro.eval.loadgen import (
        baseline_config,
        faulted_config,
        run_loadgen,
        serving_config,
    )

    if arguments.connect is not None:
        connect = _parse_hostport(arguments.connect)
        configs = [
            serving_config(
                connect=connect,
                scan_workers=arguments.scan_workers,
                duration_s=arguments.duration,
                seed=arguments.seed,
            )
        ]
    elif arguments.scenario == "serving":
        configs = [
            serving_config(
                scan_workers=arguments.scan_workers,
                transport=arguments.transport,
                duration_s=arguments.duration,
                seed=arguments.seed,
            )
        ]
    else:
        builders = {"baseline": baseline_config, "faulted": faulted_config}
        names = (
            list(builders) if arguments.scenario == "both"
            else [arguments.scenario]
        )
        configs = [
            dataclasses.replace(
                builders[name](
                    duration_s=arguments.duration, seed=arguments.seed
                ),
                scan_workers=arguments.scan_workers,
                transport=arguments.transport,
            )
            for name in names
        ]
    rows = [(
        "Scenario", "Sent", "Done", "Shed", "Timeout", "Oversize",
        "Retried", "Thru rps", "p50 ms", "p95 ms", "p99 ms",
        "Fail rate", "Trips", "Recov", "Restarts",
    )]
    unhandled = 0
    completed = 0
    for config in configs:
        record = run_loadgen(config)
        unhandled += record.unhandled_exceptions
        completed += record.completed
        rows.append((
            record.scenario,
            record.requests_sent,
            record.completed,
            record.shed,
            record.timeouts,
            record.oversized,
            record.retried,
            f"{record.throughput_rps:.1f}",
            "-" if record.latency_p50_ms is None
            else f"{record.latency_p50_ms:.2f}",
            "-" if record.latency_p95_ms is None
            else f"{record.latency_p95_ms:.2f}",
            "-" if record.latency_p99_ms is None
            else f"{record.latency_p99_ms:.2f}",
            f"{record.failure_rate:.3f}",
            record.breaker_trips,
            record.breaker_recoveries,
            record.worker_restarts,
        ))
    print(format_table(rows))
    # Machine-readable summary lines the CI smoke jobs grep for.
    print(f"completed_total: {completed}")
    print(f"unhandled_exceptions: {unhandled}")
    if unhandled:
        raise ReproError(
            f"{unhandled} unhandled exception(s) escaped the typed-error "
            "surface"
        )
    return 0


def _cmd_designs(_arguments) -> int:
    rows = [(
        "Design", "Clock (GHz)", "Throughput (Gb/s)", "Reach",
        "States/slice", "Area@32K (mm2)",
    )]
    for design in _DESIGNS.values():
        rows.append((
            design.name,
            design.frequency_ghz,
            design.throughput_gbps,
            design.reachability,
            design.states_per_slice,
            design.area_overhead_mm2(32 * 1024),
        ))
    print(format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Cache Automaton toolchain"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser("compile", help="compile a rule file")
    compile_parser.add_argument("rules")
    compile_parser.add_argument("--design", default="CA_P", choices=sorted(_DESIGNS))
    compile_parser.add_argument("--anml", help="also write the automaton as ANML XML")
    compile_parser.add_argument(
        "--save-mapping", help="write the compiled placement as a JSON artefact"
    )
    compile_parser.set_defaults(handler=_cmd_compile)

    scan_parser = subparsers.add_parser(
        "scan",
        help="compile (or load from the $REPRO_CACHE_DIR artifact cache) "
             "and scan one or more input files",
    )
    scan_parser.add_argument("rules")
    scan_parser.add_argument("input", nargs="+")
    scan_parser.add_argument("--design", default="CA_P", choices=sorted(_DESIGNS))
    scan_parser.add_argument("--limit", type=int, default=20,
                             help="max match records to print (per input)")
    scan_parser.add_argument(
        "--backend", default=None,
        help="execution backend (see `python -m repro.cli backends`; "
             f"default {DEFAULT_BACKEND})",
    )
    scan_parser.add_argument(
        "--jobs", default=None,
        help="worker processes for multi-input scans on backends that "
             "shard (lazy-dfa); default REPRO_SCAN_JOBS or 1 (no sharding)",
    )
    scan_parser.add_argument(
        "--split-jobs", default=None, dest="split_jobs",
        help="split each single input across N workers on backends with "
             "an SFA split path (lazy-dfa), bit-identical to serial; "
             "default REPRO_SPLIT_JOBS or 1 (no splitting)",
    )
    scan_parser.add_argument(
        "--stride", default=None,
        help="consume k bytes per step on backends with a k-stride path "
             "(lazy-dfa; one of 1, 2, 4); default REPRO_STRIDE or 1",
    )
    scan_parser.set_defaults(handler=_cmd_scan)

    backends_parser = subparsers.add_parser(
        "backends", help="list registered execution backends"
    )
    backends_parser.set_defaults(handler=_cmd_backends)

    classify_parser = subparsers.add_parser(
        "classify", help="per-component substrate classification"
    )
    classify_parser.add_argument("rules")
    classify_parser.add_argument(
        "--probe-budget", type=int, default=None, dest="probe_budget",
        help="subset-closure probe row budget per component "
             "(default: scaled from component size, capped at 512)",
    )
    classify_parser.set_defaults(handler=_cmd_classify)

    info_parser = subparsers.add_parser("anml-info", help="inspect an ANML file")
    info_parser.add_argument("file")
    info_parser.set_defaults(handler=_cmd_anml_info)

    designs_parser = subparsers.add_parser("designs", help="list design points")
    designs_parser.set_defaults(handler=_cmd_designs)

    profile_parser = subparsers.add_parser(
        "profile-compile", help="per-phase compile-time breakdown"
    )
    profile_parser.add_argument("rules", nargs="?", help="rule file to compile")
    profile_parser.add_argument(
        "--workload", help="profile a suite benchmark instead of a rule file"
    )
    profile_parser.add_argument(
        "--scale", type=float, default=1.0,
        help="suite scale factor for --workload (default 1.0)",
    )
    profile_parser.add_argument(
        "--design", default="CA_P", choices=sorted(_DESIGNS)
    )
    profile_parser.add_argument(
        "--no-bitstream", action="store_true",
        help="skip the bitstream-generation phase",
    )
    profile_parser.set_defaults(handler=_cmd_profile_compile)

    fault_parser = subparsers.add_parser(
        "fault-campaign", help="seeded fault-injection campaign (AVF table)"
    )
    fault_parser.add_argument("rules", nargs="?", help="rule file to compile")
    fault_parser.add_argument(
        "--workload", help="inject into a suite benchmark instead of a rule file"
    )
    fault_parser.add_argument(
        "--scale", type=float, default=1.0,
        help="suite scale factor for --workload (default 1.0)",
    )
    fault_parser.add_argument(
        "--design", default="CA_P", choices=sorted(_DESIGNS)
    )
    fault_parser.add_argument(
        "--trials", type=int, default=48,
        help="single-fault trials to run (default 48)",
    )
    fault_parser.add_argument(
        "--input-bytes", type=int, default=2048,
        help="length of the generated input stream (default 2048)",
    )
    fault_parser.add_argument(
        "--seed", type=int, default=7,
        help="campaign seed (input generation and fault draws)",
    )
    fault_parser.set_defaults(handler=_cmd_fault_campaign)

    serve_parser = subparsers.add_parser(
        "serve", help="run the resilient scan service over input files"
    )
    serve_parser.add_argument("rules")
    serve_parser.add_argument(
        "input", nargs="*",
        help="input files (batch mode; omit when running with --port)",
    )
    serve_parser.add_argument(
        "--tenant", default="default", help="tenant name (default 'default')"
    )
    serve_parser.add_argument(
        "--backend", default=None,
        help="execution backend for the tenant's engine",
    )
    serve_parser.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline in seconds (default: unbounded)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="service worker coroutines (default 2)",
    )
    serve_parser.add_argument(
        "--chunk-bytes", type=int, default=4096, dest="chunk_bytes",
        help="scan chunk size — where a deadline can cut a scan "
             "(default 4096)",
    )
    serve_parser.add_argument(
        "--max-stream-bytes", type=int, default=1 << 20,
        dest="max_stream_bytes",
        help="admission limit on one request's stream (default 1 MiB)",
    )
    serve_parser.add_argument(
        "--repeat", type=int, default=1,
        help="submit each input N times (default 1)",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=30.0, dest="drain_timeout",
        help="graceful-drain budget on shutdown (default 30 s)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for network mode (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None,
        help="run as a TCP server on this port instead of batch mode "
             "(0 picks a free port)",
    )
    serve_parser.add_argument(
        "--scan-workers", type=int, default=0, dest="scan_workers",
        help="scan worker processes (0 = scan in the event loop)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    loadgen_parser = subparsers.add_parser(
        "loadgen", help="open-loop load generation with injected faults"
    )
    loadgen_parser.add_argument(
        "--scenario", default="both",
        choices=("baseline", "faulted", "both", "serving"),
        help="which canned scenario(s) to run (default both)",
    )
    loadgen_parser.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds of open-loop load per scenario (default 2.0)",
    )
    loadgen_parser.add_argument(
        "--seed", type=int, default=7,
        help="RNG seed for streams and jitter (default 7)",
    )
    loadgen_parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive an already-running `repro serve --port` server over "
             "TCP instead of building a local service",
    )
    loadgen_parser.add_argument(
        "--transport", default="inproc", choices=("inproc", "tcp"),
        help="how requests reach the locally built service "
             "(default inproc; ignored with --connect)",
    )
    loadgen_parser.add_argument(
        "--scan-workers", type=int, default=0, dest="scan_workers",
        help="scan worker processes for the locally built service "
             "(0 = scan in the event loop)",
    )
    loadgen_parser.set_defaults(handler=_cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    # SimulationError, CompileError, and every other library failure
    # derive from ReproError, so each becomes a one-line diagnostic and
    # exit status 1 (argparse reserves 2 for usage errors) — never a
    # traceback.  Scripts and the CI jobs rely on this contract.
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
