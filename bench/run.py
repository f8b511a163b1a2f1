#!/usr/bin/env python3
"""The pavls benchmark: one command, three workloads, exact output checks.

Run from the root of a checkout::

    python3 bench/run.py                     # every workload, a table
    python3 bench/run.py --workload hardened_lex_2_32 --seed 3 --seconds 10
    python3 bench/run.py --workload ic_grid_n100_m20 --trace 1
    python3 bench/run.py --smoke             # tiny runs plus a tampered digest

A run of one workload sets its inputs up at least ``SETUPS`` times and
for ``SETUP_BUDGET_S`` seconds, runs one untimed warm-up unit under the
tracer (it yields the classes-visited count), then repeats the
workload's unit until ``--seconds`` of unit time have passed.  A fixed
reference kernel runs between set-ups and between units, and each set-up
or unit time is scaled by ``REFERENCE_KERNEL_S`` over the mean kernel time
on either side of it: its time on the host at quiet speed.  ``setup_s``
is the median scaled set-up and ``ops_per_s`` the unit's operations over
the median scaled unit time; the record keeps the unscaled figures
(``setup_s_samples``, ``wall_ops_per_s``).  An operation is a certified
step on ``layered_certify_2_64``, an executed swap on ``hardened_lex_2_32``
and a ``run()`` cell on ``ic_grid_n100_m20``, so ``ops_per_s`` is the
workload's ``certified_steps_per_s``, ``lex_swaps_per_s`` or
``runs_per_s``.  Every unit's output is compared exactly with
``expected.json``; ``fail_frac`` is failed over attempted operations.

With ``--trace 1`` the run instead reports per-layer figures: one traced
set-up plus the mean traced unit, after half of ``--seconds`` untraced
and half traced, whose throughputs give the tracing overhead.  The spans
are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the detailed record (work counts, input properties, machine).  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: a full-size run sets up at least SETUPS times and for SETUP_BUDGET_S
#: seconds of wall time in all; setup_s is the median
SETUPS = 5
SETUP_BUDGET_S = 1.0
DEFAULT_SEED = 7

#: Time of :func:`reference_kernel` on a quiet 2-vCPU Xeon host.  Other
#: tenants of a shared host can slow every process on it by 1.5x or more
#: for seconds to minutes; scaling set-up and unit times by the kernel's
#: time around them cancels most of that, so ``setup_s`` and ``ops_per_s``
#: compare programs, not moments.
REFERENCE_KERNEL_S = 0.015
REFERENCE_SCALE = math.lcm(*range(1, 66))

WORKLOAD_NAMES = ("layered_certify_2_64", "hardened_lex_2_32", "ic_grid_n100_m20")


def import_program():
    """Import the ``pavls`` sources of this checkout, never another copy."""
    if not (SRC / "pavls" / "__init__.py").is_file():
        raise SystemExit(f"error: no pavls sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pavls
    if Path(pavls.__file__).resolve().parent != SRC / "pavls":
        raise SystemExit(f"error: imported pavls from {pavls.__file__}, not {SRC}")
    import tracing
    import workloads
    return tracing, workloads


def machine(seed: int) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_kernel() -> int:
    """Fixed work on the standard library alone, in the engine's mix: random
    ballots as frozensets, dict counts, Fractions, scaled big integers and
    CSV-like text.  Its time tracks the host's speed, never the program's."""
    rng = random.Random(12345)
    counts: dict[frozenset, int] = {}
    total = Fraction(0)
    scaled = 0
    lines = []
    for i in range(2000):
        ballot = frozenset(j for j in range(20) if rng.random() < 0.5)
        counts[ballot] = counts.get(ballot, 0) + 1
        total += Fraction(len(ballot), i % 11 + 1)
        scaled += REFERENCE_SCALE // (len(ballot) + 1) * counts[ballot]
        lines.append(",".join(map(str, sorted(ballot))))
    return hash((total, scaled, "\n".join(lines)))


def time_reference() -> float:
    """Time of one reference kernel.  The program's objects are frozen
    meanwhile, so the collector runs only over the kernel's objects and the
    program's heap cannot change the kernel's time."""
    gc.freeze()
    try:
        started = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - started
    finally:
        gc.unfreeze()


def at_quiet_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled by the reference kernel's times around them."""
    return seconds * REFERENCE_KERNEL_S * 2 / (before + after)


def time_units(w, seconds: float, expected: dict,
               reference=time_reference) -> tuple[list[float], list[float], int, int]:
    """Repeat the unit until ``seconds`` of unit time; check every output.
    Return the unit times, unscaled and at quiet speed."""
    times: list[float] = []
    scaled: list[float] = []
    attempted = failed = 0
    before = reference()
    while not times or sum(times) < seconds:
        started = time.perf_counter()
        out = w.unit()
        times.append(time.perf_counter() - started)
        after = reference()
        scaled.append(at_quiet_speed(times[-1], before, after))
        before = after
        attempted += w.ops()
        failed += w.failures(out, expected)
    return times, scaled, attempted, failed


def traced_unit(tracing, w):
    """One untimed unit under the tracer: output work counts plus the
    classes visited, and whether the tracer saw the same work."""
    tracer = tracing.Tracer()
    tracer.set_phase("unit")
    tracing.instrument(tracer)
    try:
        out = w.unit()
    finally:
        tracer.uninstall()
    classes = tracer.stat("core.delta").counters.get("classes_visited", 0)
    work = dict(w.work(out), classes_visited=classes)
    return out, work, counts_match(tracer, work, 1)


def counts_match(tracer, work: dict, units: int) -> bool:
    seen = {
        "delta_evals": tracer.stat("core.delta", "unit").calls,
        "swaps_applied": tracer.stat("core.apply_swap", "unit").calls,
        "picker_scans": tracer.stat("search.scan", "unit").calls,
    }
    return all(seen[key] == work[key] * units for key in seen)


def layer_metrics(tracer, w, units: int, untraced: float, traced: float) -> dict:
    """Per-layer figures: one set-up plus the mean traced unit."""

    def per_run(name: str, field) -> float:
        return field(tracer.stat(name, "setup")) + field(tracer.stat(name, "unit")) / units

    def latency(name: str, q: float) -> float:
        stats = tracer.stat(name, "unit")
        return stats.percentile_us(q) if stats.calls else tracer.stat(name, "setup").percentile_us(q)

    calls = lambda s: s.calls
    self_s = lambda s: s.self_time
    total = lambda s: s.total
    counter = lambda key: lambda s: s.counters.get(key, 0)

    delta_self = per_run("core.delta", self_s)
    classes = per_run("core.delta", counter("classes_visited"))
    scans = per_run("search.scan", calls)
    evals = per_run("search.scan", counter("evals"))
    m = {
        "core.delta.calls": (per_run("core.delta", calls), "count"),
        "core.delta.self_s": (delta_self, "s"),
        "core.delta.us_p50": (latency("core.delta", 0.5), "us"),
        "core.delta.us_p99": (latency("core.delta", 0.99), "us"),
        "core.delta.classes_visited": (classes, "count"),
        "core.delta.ns_per_class": (delta_self / classes * 1e9 if classes else 0.0, "ns"),
        "core.apply_swap.calls": (per_run("core.apply_swap", calls), "count"),
        "core.apply_swap.self_s": (per_run("core.apply_swap", self_s), "s"),
        "core.apply_swap.us_p50": (latency("core.apply_swap", 0.5), "us"),
        "core.apply_swap.us_p99": (latency("core.apply_swap", 0.99), "us"),
        "core.assert_quantized.self_s": (per_run("core.assert_quantized", self_s), "s"),
        "core.validate_sequence.self_s": (per_run("core.validate_sequence", self_s), "s"),
        "core.state_init.calls": (per_run("core.state_init", calls), "count"),
        "core.state_init.self_s": (per_run("core.state_init", self_s), "s"),
        "core.index_build_s": (per_run("core.index_build", total), "s"),
        "search.scan.calls": (scans, "count"),
        "search.scan.self_s": (per_run("search.scan", self_s), "s"),
        "search.scan.us_p50": (latency("search.scan", 0.5), "us"),
        "search.scan.us_p99": (latency("search.scan", 0.99), "us"),
        "search.evals_per_scan": (evals / scans if scans else 0.0, "evals/scan"),
        "search.useful_ratio": (
            per_run("search.scan", counter("found")) / evals if evals else 0.0, "swaps/eval"),
        "constructions.build_s": (
            tracer.outer_total("constructions.build", "setup")
            + tracer.outer_total("constructions.build", "unit") / units, "s"),
        "constructions.sequence_us_per_swap": (
            per_run("constructions.sequence", total) / w.sequence_len * 1e6
            if w.sequence_len else 0.0, "us"),
        "samplers.sample.calls": (per_run("samplers.sample", calls), "count"),
        "samplers.sample.self_s": (per_run("samplers.sample", self_s), "s"),
        "samplers.sample.us_p50": (latency("samplers.sample", 0.5), "us"),
        "harness.run_experiment.self_s": (per_run("harness.run_experiment", self_s), "s"),
        "harness.select_initial.self_s": (per_run("harness.select_initial", self_s), "s"),
        "harness.aggregate.self_s": (per_run("harness.aggregate", self_s), "s"),
        "formats.parse_native.s": (per_run("formats.parse_native", total), "s"),
        "formats.serialize_native.s": (per_run("formats.serialize_native", total), "s"),
        "formats.native_bytes": (per_run("formats.serialize_native", counter("bytes")), "B"),
        "formats.write_csv.s": (per_run("formats.write_csv", total), "s"),
        "formats.csv_bytes": (per_run("formats.write_csv", counter("bytes")), "B"),
        "trace.untraced_ops_per_s": (untraced, "1/s"),
        "trace.traced_ops_per_s": (traced, "1/s"),
        "trace.overhead_pct": ((untraced / traced - 1) * 100, "%"),
    }
    # Counts are exact: each traced unit repeats the same work.
    return {name: {"value": int(value) if unit == "count" and value == int(value) else value,
                   "unit": unit}
            for name, (value, unit) in m.items()}


def run_workload(args, expected: dict | None = None) -> int:
    tracing, workloads = import_program()
    if expected is None:
        expected = json.loads((BENCH / "expected.json").read_text())
    cls = workloads.WORKLOADS[args.workload]
    want = expected[cls.name][args.size]
    record = {"workload": cls.name, "size": args.size, "trace": args.trace,
              "machine": machine(args.seed)}

    # The smoke check's tiny runs skip the reference kernel and the repeats.
    if args.size == "full":
        setups, budget, reference = SETUPS, SETUP_BUDGET_S, time_reference
    else:
        setups, budget, reference = 1, 0.0, lambda: REFERENCE_KERNEL_S
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            w = cls(args.size, args.seed, tracer)
        finally:
            tracer.uninstall()
    else:
        setup_times, setup_scaled = [], []
        before = reference()
        loop_started = time.perf_counter()
        while len(setup_times) < setups or time.perf_counter() - loop_started < budget:
            w = None  # release the previous inputs before building new ones
            gc.collect()
            started = time.perf_counter()
            w = cls(args.size, args.seed)
            setup_times.append(time.perf_counter() - started)
            after = reference()
            setup_scaled.append(at_quiet_speed(setup_times[-1], before, after))
            before = after
        record["setup_s_samples"] = setup_times

    out, work, match = traced_unit(tracing, w)
    attempted, failed = w.ops(), w.failures(out, want)
    gc.collect()
    if args.trace:
        half = args.seconds / 2
        times, scaled, a, f = time_units(w, half, want, reference)
        untraced = w.ops() / statistics.median(scaled)
        tracer.set_phase("unit")
        tracing.instrument(tracer)
        try:
            traced_times, traced_scaled, a2, f2 = time_units(w, half, want, reference)
        finally:
            tracer.uninstall()
        traced = w.ops() / statistics.median(traced_scaled)
        match = match and counts_match(tracer, work, len(traced_times))
        attempted, failed = attempted + a + a2, failed + f + f2
        metrics = layer_metrics(tracer, w, len(traced_times), untraced, traced)
        times, scaled = times + traced_times, scaled + traced_scaled
    else:
        times, scaled, a, f = time_units(w, args.seconds, want, reference)
        attempted, failed = attempted + a, failed + f
        rate = w.ops() / statistics.median(scaled)
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ops_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
        }
    failed += w.final_failures(len(times) + 1)

    record.update(
        units=len(times),
        ops_per_unit=w.ops(),
        unit_s_p50=statistics.median(times),
        unit_s_max=max(times),
        wall_ops_per_s=w.ops() / statistics.median(times),
        reference_unit_s_p50=statistics.median(scaled),
        work_per_unit=work,
        trace_counts_match=match,
        descriptors=dict(w.descriptors(),
                         evals_per_swap=work["delta_evals"] / max(1, work["swaps_applied"])),
        fail_frac=failed / attempted,
    )
    if not args.trace:
        record["throughput"] = {"name": w.throughput, "value": metrics["ops_per_s"]["value"],
                                "unit": "1/s"}
    else:
        record["trace_missing"] = tracer.missing
        tracer.dump(BENCH / "out" / f"trace_{cls.name}_seed{args.seed}.json", record)
    correct = failed == 0
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, check=False)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: no result, exit code {proc.returncode}")
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        print(f"{name}: {'correct' if result['correct'] else 'INCORRECT'}")
        for metric, value in result["metrics"].items():
            label = record["throughput"]["name"] if metric == "ops_per_s" else metric
            print(f"  {label:<34} {value['value']:>14.6g} {value['unit']}")
        print(f"  {'fail_frac':<34} {record['fail_frac']:>14.6g} 1"
              f"  ({result['failed']} of {result['attempted']} failed)")
        work = ", ".join(f"{k}={v}" for k, v in record["work_per_unit"].items())
        print(f"  work per unit: {work}")
    return 1 if status else 0


def smoke() -> int:
    """Tiny run of every workload, one traced; each must print exactly the
    metrics BENCHMARK.json declares.  Then one run with a tampered expected
    digest, which must fail."""
    started = time.perf_counter()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    tampered = copy.deepcopy(expected)
    entry = tampered["layered_certify_2_64"]["tiny"]
    entry["deltas_sha256"] = "0" * len(entry["deltas_sha256"])
    runs = [(name, 0, expected, 0) for name in WORKLOAD_NAMES]
    runs += [("ic_grid_n100_m20", 1, expected, 0), ("layered_certify_2_64", 0, tampered, 1)]
    problems = []
    for name, trace, table, want in runs:
        args = parse_args(["--workload", name, "--size", "tiny", "--seconds", "0",
                           "--trace", str(trace)])
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run_workload(args, table)
        if code != want:
            problems.append(f"{name} trace={trace}: exit {code}, expected {want}")
        metrics = json.loads(out.getvalue().splitlines()[-1])["metrics"]
        names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
        if set(metrics) != names:
            problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(metrics) ^ names)}")
    for problem in problems:
        print(problem)
    print(f"smoke: {'ok' if not problems else 'FAILED'} in {time.perf_counter() - started:.2f}s")
    return 1 if problems else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small instances for the smoke check")
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def _expired(_signum, _frame):
    raise TimeoutError("run exceeded its deadline; is a search looping?")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    # A broken engine can make a search loop forever; fail instead.
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(int(120 + 1.5 * args.seconds))
    try:
        return run_workload(args)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
