#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

One run, as the driver calls it (one workload, one seed, one process)::

    python3 benchmarks/e2e/run.py --workload serve-inloop --seed 7 \
        --seconds 8 --trace 0

prints the run's numbers by name with their units and, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1`` (which also writes ``out/trace-<workload>.json``).

All five workloads, each as several fresh subprocesses whose rounds are
interleaved so a noisy stretch of the host hits all workloads alike::

    python3 benchmarks/e2e/run.py [--seed N] [--rounds 3] [--trace] [--out F]

``--smoke`` checks that the names printed and the names declared in
``BENCHMARK.json`` are the same set; ``--agree A.json B.json`` compares
two result files written with ``--out`` against the declared bounds.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import gc
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: A run during which the noise reference ran this much slower than its
#: own best, on average, is flagged; the multi-round runner re-runs it once.
UNRESOLVED_ABOVE = 2.0
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- one run --------------------------------------------------------------------


def run_once(name: str, seed: int, seconds: float, trace: bool, setup_reps) -> dict:
    """Generate the load, set up several times, measure the last system."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import host
    import loads
    import workloads
    from check import Checker
    from spans import Tracer

    began = time.perf_counter()
    tracer = Tracer(trace)
    checker = Checker()
    calib = host.Calibrator()
    workload = workloads.by_name(name)(checker, tracer, calib)
    load = workload.generate(seed)
    pin_error = loads.verify_pin(load)
    if pin_error:
        raise SystemExit(pin_error)

    # The load and its golden results stay alive for the whole run; without
    # this every full collection would walk them, and the pauses would
    # land in the program's timings.
    gc.collect()
    gc.freeze()
    generated = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    rulesets = len(load.rulesets)
    cold = workloads.Starts.empty(rulesets)
    warm = workloads.Starts.empty(rulesets)
    setups = []
    layers = {}
    tally, plain_tally = workloads.Tally(), workloads.Tally()
    system = None
    try:
        for rep in range(setup_reps or workload.setup_reps):
            if system is not None:
                workload.close(system)
            cache_dir = os.path.join(scratch, f"cache{rep}")
            started = time.perf_counter()
            system = workload.build(cache_dir, cold)
            workload.walk(system, cold)
            ended = time.perf_counter()
            setups.append((ended - started, started, ended))
            # The twin starts on the directory the cold build populated.
            workload.close(workload.build(cache_dir, warm))
        set_up = time.perf_counter()
        if trace:
            # Tracing off, on, on, off, after a fifth that is thrown away:
            # the system is still meeting its streams for the first time
            # then, and whichever side took that fifth would look slow.
            # The difference of the sides is what tracing costs.
            tracer.enabled = False
            workload.measure(system, seconds / 5, workloads.Tally())
            for enabled in (False, True, True, False):
                tracer.enabled = enabled
                workload.measure(
                    system, seconds / 5, tally if enabled else plain_tally
                )
            tracer.enabled = True
        else:
            workload.measure(system, seconds, tally)
        measured = workload.finish(tally)
        if trace:
            import layers as layer_probes

            layers = layer_probes.collect(
                workload, system, measured, workload.finish(plain_tally),
                scratch, tracer,
            )
        workload.close(system)
    finally:
        workload.shutdown()
        host.stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        f"{name}: generate {generated - began:.1f} s, "
        f"{len(setups)} set-ups {set_up - generated:.1f} s, "
        f"measure and check {time.perf_counter() - set_up:.1f} s",
        file=sys.stderr,
    )

    def median(samples):
        return statistics.median(map(calib.quiet, samples))

    def per_ruleset(samples):
        """Quiet-host seconds for one of every ruleset."""
        return sum(median(one) for one in samples)

    walk_bytes = sum(
        len(r.probe) + sum(map(len, r.warm)) for r in load.rulesets
    )
    end_to_end = {
        "setup_s": median(setups),
        "ready_cold_ms": per_ruleset(cold.ready) / rulesets * 1e3,
        "ready_warm_ms": per_ruleset(warm.ready) / rulesets * 1e3,
        "first_scan_mb_per_s": walk_bytes
        / (per_ruleset(cold.first_scan) + per_ruleset(filter(None, cold.walk))) / 1e6,
        "scan_mb_per_s": measured.scan_mb_per_s,
        "capacity_rps": measured.capacity_rps,
        "latency_p50_ms": measured.latency_p50_ms,
        "within_limit_share": measured.within_limit_share,
        "cpu_ms_per_mb": measured.cpu_ms_per_mb,
        "peak_rss_mb": host.peak_rss_mib(),
    }
    slowdown = calib.mean_slowdown()
    if trace:
        layers.update(
            {
                "host.cpus": host.stamp()["host.cpus"],
                "host.calib_ms": calib.best * 1e3,
                "host.slowdown": slowdown,
                "check.order_mismatches": checker.order_mismatches,
            }
        )
        tracer.dump(
            os.path.join(OUT_DIR, f"trace-{name}.json"),
            {"workload": name, "seed": seed, "per_layer": layers},
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host.stamp(),
        "calib_ms": calib.best * 1e3,
        "slowdown": slowdown,
        "unresolved": slowdown > UNRESOLVED_ABOVE,
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "samples": measured.samples,
        "golden_mb": checker.golden_bytes / 1e6,
        "compared": checker.compared,
        "end_to_end": end_to_end,
        "detail": measured.detail,
        "per_layer": layers,
    }


def report_run(result: dict, spec: dict) -> None:
    """Print the run by name with units; last line is the driver's JSON."""
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    print(
        f"# {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']} "
        f"samples={result['samples']} compared={result['compared']} "
        f"golden_mb={result['golden_mb']:.3f} "
        f"calib_ms={result['calib_ms']:.4f} slowdown={result['slowdown']:.2f}"
        f"{' UNRESOLVED (host too noisy)' if result['unresolved'] else ''}"
    )
    for row in declared:
        print(f"{row['name']:<40} {values[row['name']]:>14.6g} {row['unit']}")
    print(json.dumps({key: result[key] for key in ("host", "detail", "end_to_end")}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
                    for row in declared
                },
            }
        )
    )


# -- all workloads, several rounds ----------------------------------------------


def _spawn(name: str, seed: int, seconds: float, trace: int, setup_reps: int) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--json",
    ]
    if setup_reps:
        command += ["--setup-reps", str(setup_reps)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(
            f"{name} round failed ({done.returncode}):\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, rounds: int, trace: int, setup_reps: int) -> dict:
    """Rounds interleaved w1r1, w2r1, …, w5r1, w1r2, …; a round whose two
    calibrations disagree is re-run once, and otherwise kept out of the
    median and printed as unresolved."""
    spec = load_spec()
    names = [row["name"] for row in spec["workloads"]]
    rows = {name: [] for name in names}
    for round_index in range(rounds):
        for name in names:
            result = _spawn(name, seed, seconds, trace, setup_reps)
            if result["unresolved"]:
                result = _spawn(name, seed, seconds, trace, setup_reps)
            rows[name].append(result)
            print(
                f"round {round_index + 1}/{rounds} {name}: "
                f"{'unresolved' if result['unresolved'] else 'ok'} "
                f"failed={result['failed']}/{result['attempted']}",
                file=sys.stderr,
            )
    section = "per_layer" if trace else "end_to_end"
    summary = {"seed": seed, "seconds": seconds, "rounds": rounds, "trace": trace,
               "host": rows[names[0]][0]["host"], "workloads": {}}
    for name in names:
        steady = [r for r in rows[name] if not r["unresolved"]] or rows[name]
        metrics = {}
        for row in spec[section]:
            values = [r[section][row["name"]] for r in steady]
            metrics[row["name"]] = {
                "unit": row["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "rounds": values,
            }
        summary["workloads"][name] = {
            "metrics": metrics,
            "samples": sum(r["samples"] for r in steady),
            "attempted": sum(r["attempted"] for r in rows[name]),
            "failed": sum(r["failed"] for r in rows[name]),
            "unresolved_rounds": sum(r["unresolved"] for r in rows[name]),
            "calib_ms": [r["calib_ms"] for r in rows[name]],
        }
    return summary


def print_summary(summary: dict) -> None:
    for name, block in summary["workloads"].items():
        flag = (
            f"  [{block['unresolved_rounds']} unresolved round(s)]"
            if block["unresolved_rounds"] else ""
        )
        print(
            f"\n== {name}  seed={summary['seed']} rounds={summary['rounds']} "
            f"samples={block['samples']} "
            f"failed={block['failed']}/{block['attempted']}{flag}"
        )
        print(f"{'metric':<40} {'median':>12} {'min':>12} {'max':>12}  unit")
        for metric, row in block["metrics"].items():
            print(
                f"{metric:<40} {row['median']:>12.5g} {row['min']:>12.5g} "
                f"{row['max']:>12.5g}  {row['unit']}"
            )


# -- smoke and agreement --------------------------------------------------------


def smoke() -> int:
    """Names printed == names declared, well formed, within the limits."""
    spec = load_spec()
    problems = []
    for section, limit in (("end_to_end", 16), ("per_layer", 128)):
        names = [row["name"] for row in spec[section]]
        if len(names) > limit:
            problems.append(f"{section}: {len(names)} metrics > {limit}")
        problems += [f"{section}: bad name {n!r}" for n in names if not NAME_RE.match(n)]
        if len(set(names)) != len(names):
            problems.append(f"{section}: duplicate names")
    names = [row["name"] for row in spec["workloads"]]
    # Untraced on every workload; traced on one offline and one serving
    # workload, which between them take every branch of the probes.  Two
    # at a time: a smoke run checks names, not timings.
    plan = [(name, 0) for name in names] + [(names[0], 1), (names[-1], 1)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: _spawn(job[0], 7, 2.0, job[1], 1), plan))
    for (name, trace), result in zip(plan, results):
        section = "per_layer" if trace else "end_to_end"
        declared = {row["name"] for row in spec[section]}
        printed = set(result[section])
        if declared != printed:
            problems.append(
                f"{name} trace={trace}: declared-not-printed "
                f"{sorted(declared - printed)}, printed-not-declared "
                f"{sorted(printed - declared)}"
            )
        if result["failed"]:
            problems.append(f"{name}: {result['failed']} failed operations")
        print(f"smoke {name} trace={trace}: {len(printed)} metrics", file=sys.stderr)
    for problem in problems:
        print("SMOKE FAIL:", problem)
    print("smoke ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def agree(path_a: str, path_b: str) -> int:
    """Compare two ``--out`` files of the same commit metric by metric:
    their medians may differ by at most ``bound`` × A's median, either way."""
    spec = load_spec()
    with open(path_a, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        second = json.load(handle)
    disagreements = 0
    print(f"{'workload':<18} {'metric':<22} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>6}")
    for name in first["workloads"]:
        for row in spec["end_to_end"]:
            a = first["workloads"][name]["metrics"][row["name"]]["median"]
            b = second["workloads"][name]["metrics"][row["name"]]["median"]
            worse = (b - a) / a if row["better"] == "lower" else (a - b) / a
            verdict = "" if abs(worse) <= row["bound"] else "  DISAGREE"
            disagreements += bool(verdict)
            print(
                f"{name:<18} {row['name']:<22} {a:>12.5g} {b:>12.5g} "
                f"{worse:>+9.3f} {row['bound']:>6.2f}{verdict}"
            )
    for name in first["workloads"]:
        for summary in (first, second):
            if summary["workloads"][name]["failed"]:
                disagreements += 1
                print(f"{name}: failed operations in a result set")
    print("agree" if not disagreements else f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


def pin() -> int:
    """Rewrite ``pins.json`` from what the default seed generates now.
    Only for a change that redefines the load and claims no gain."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import loads
    import workloads
    from check import Checker
    from spans import Tracer

    pins = {}
    for cls in workloads.WORKLOADS:
        load = cls(Checker(), Tracer(False), None).generate(loads.DEFAULT_SEED)
        pins[cls.name] = load.digest()
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
    print(json.dumps(pins, indent=1))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--setup-reps", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--out", help="write the result set here")
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("the program under test (src/repro) is not in this checkout",
              file=sys.stderr)
        return 3
    if args.agree:
        return agree(*args.agree)
    if args.smoke:
        return smoke()
    if args.pin:
        return pin()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.workload:
        result = run_once(
            args.workload, args.seed, seconds, bool(args.trace), args.setup_reps
        )
        if args.json:
            print(json.dumps(result))
        else:
            report_run(result, spec)
        return 0
    summary = run_all(args.seed, seconds, args.rounds, args.trace, args.setup_reps)
    print_summary(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
    failed = sum(block["failed"] for block in summary["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
