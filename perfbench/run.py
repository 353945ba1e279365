#!/usr/bin/env python3
"""Benchmark for a4csl: one workload, one seed, one run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 it repeats rounds of the workload for --seconds seconds of
timed work and prints the end-to-end metrics, as measured and at reference
speed (see speed.py).  With --trace 1 it runs a
fixed, seed-determined set of rounds untraced, traced twice and untraced
again, and prints the per-layer metrics of the first traced pass; its
spans are written to perfbench/out/.  Every output is checked; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, Speedometer, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median of fresh interpreter starts made between rounds, one
# per SETUP_EVERY_S seconds of timed work and at least SETUP_MIN_STARTS, so
# that they sample the machine over the whole run.  Each start is scaled to
# reference speed by SETUP_PROBES runs of the speed task just before and
# just after it.  One warm-up start, which also leaves the bytecode
# compiled, comes first and is not counted.
SETUP_EVERY_S = 1.5
SETUP_MIN_STARTS = 5
SETUP_PROBES = 3
SETUP_CODE = (
    "import a4csl, a4csl.icosian as ico\n"
    "a4csl.unit_group()\n"
    "ico.unit_right_mul_matrices()\n"
)


def load_program() -> None:
    """Put the checkout's src/ first on sys.path and import a4csl from it."""
    if not (SRC / "a4csl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no a4csl package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import a4csl

    if Path(a4csl.__file__).resolve().parent != SRC / "a4csl":
        sys.exit(f"perfbench: imported a4csl from {a4csl.__file__}, not from {SRC}")


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def fresh_start() -> tuple[float, float]:
    """Seconds for a fresh interpreter to import a4csl and build its tables,
    as measured and at reference speed (from the task run just before and
    just after it)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = probe(SETUP_PROBES)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
    wall = perf_counter() - t0
    task = (before + probe(SETUP_PROBES)) / 2
    return wall, wall * REFERENCE_S / task


def run_round(workload, items, speedo: Speedometer, latencies: list | None = None):
    """Call the workload's op on each item; returns (outputs, seconds).
    Time spent in the speedometer's task is left out of both."""
    outs = []
    busy = speedo.busy
    start = perf_counter()
    for item in items:
        b0 = speedo.busy
        t0 = perf_counter()
        try:
            out = workload.op(item)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            out = exc
        if latencies is not None:
            latencies.append(perf_counter() - t0 - (speedo.busy - b0))
        outs.append(out)
    return outs, perf_counter() - start - (speedo.busy - busy)


def score(workload, items, outs) -> tuple[int, int]:
    """(ops attempted, ops failed) for one round's outputs."""
    attempted = failed = 0
    for item, out in zip(items, outs):
        weight = workload.weight(item)
        attempted += weight
        if isinstance(out, Exception):
            failed += weight
            continue
        try:
            failed += workload.failures(item, out)
        except Exception:  # noqa: BLE001 - a malformed output fails its check
            failed += weight
    return attempted, failed


def measure(workload, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Rounds of the workload for `seconds` of timed work, with the
    speedometer running; times are reported as measured and at reference
    speed, each round scaled by the task's mean time during that round."""
    stream = workload.rounds(seed)
    speedo = Speedometer()
    busy = ref_busy = 0.0
    rounds = 0
    latencies: list[float] = []
    ref_latencies: list[float] = []
    starts: list[tuple[float, float]] = []
    attempted = failed = 0
    exec(SETUP_CODE, {})  # the lazy tables every call would otherwise build
    fresh_start()
    while not rounds or busy < seconds:
        items = next(stream)
        first_sample, first_latency = len(speedo.samples), len(latencies)
        with speedo:
            speedo.tick()
            outs, dt = run_round(workload, items, speedo, latencies)
        scale = REFERENCE_S / statistics.fmean(speedo.samples[first_sample:])
        ref_latencies.extend(x * scale for x in latencies[first_latency:])
        rounds += 1
        busy += dt
        ref_busy += dt * scale
        a, f = score(workload, items, outs)
        attempted += a
        failed += f
        if len(starts) < busy / SETUP_EVERY_S:
            starts.append(fresh_start())
    while len(starts) < SETUP_MIN_STARTS:
        starts.append(fresh_start())
    # Only the metrics in BENCHMARK.json go into the JSON result.  The others
    # are printed: on a shared host the run-to-run spread of times as
    # measured exceeds any allowed bound (see perfbench/README.md, Steadiness).
    metrics = {
        "setup_s": (statistics.median(ref for _wall, ref in starts), "s"),
        "ref_latency_p50_ms": (1e3 * statistics.median(ref_latencies), "ms"),
        "ref_latency_p90_ms": (1e3 * percentile90(ref_latencies), "ms"),
    }
    info = {
        "wall_s": (busy / rounds, "s"),
        "ops_per_s": ((attempted - failed) / busy, "1/s"),
        "ref_ops_per_s": ((attempted - failed) / ref_busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * percentile90(latencies), "ms"),
        "setup_measured_s": (statistics.median(wall for wall, _ref in starts), "s"),
        "task_ms": (1e3 * statistics.fmean(speedo.samples), "ms"),
        "failed_ratio": (failed / attempted, "ratio"),
        "rounds": (rounds, "count"),
        "setup_starts": (len(starts), "count"),
        "latency_samples": (len(latencies), "count"),
        "task_samples": (len(speedo.samples), "count"),
        "timed_s": (busy, "s"),
    }
    return metrics, attempted, failed, info


def percentile90(xs: list[float]) -> float:
    """Interpolated between order statistics: with census's four to seven
    calls the default (exclusive) method extrapolates past the slowest."""
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def mismatches(workload, rounds, outs, base_outs) -> int:
    """Ops whose output differs from the first untraced pass."""
    return sum(
        workload.weight(item)
        for items, o, b in zip(rounds, outs, base_outs)
        for item, x, y in zip(items, o, b)
        if isinstance(x, Exception) or x != y
    )


def traced(workload, seed: int, host: dict):
    """Per-layer metrics of a fixed set of rounds; also returns whether the
    exact counts repeated in the second traced pass."""
    from tracer import EXACT_COUNTS, Tracer, layer_metrics

    stream = workload.rounds(seed)
    rounds = [next(stream) for _ in range(workload.trace_rounds)]

    idle = Speedometer()  # never started: nothing to leave out

    def one_pass(tracer=None):
        outs, secs = [], 0.0
        if tracer is not None:
            tracer.install()
        try:
            for items in rounds:
                o, dt = run_round(workload, items, idle)
                outs.append(o)
                secs += dt
        finally:
            if tracer is not None:
                tracer.uninstall()
        return outs, secs

    # Untraced, traced, traced, untraced: the two orders cancel slow drift
    # in machine speed out of the overhead ratio.
    base_outs, base_s = one_pass()
    attempted = failed = 0
    for items, outs in zip(rounds, base_outs):
        a, f = score(workload, items, outs)
        attempted += a
        failed += f
    passes = []
    for _ in range(2):
        tr = Tracer()
        outs, secs = one_pass(tr)
        passes.append((tr, secs))
        failed += mismatches(workload, rounds, outs, base_outs)
    outs, secs = one_pass()
    base_s += secs
    failed += mismatches(workload, rounds, outs, base_outs)
    (tr1, traced_s), (tr2, traced_s2) = passes
    metrics = layer_metrics(tr1)
    metrics["trace.overhead_ratio"] = ((traced_s + traced_s2) / base_s, "ratio")
    again = layer_metrics(tr2)
    unstable = [k for k in EXACT_COUNTS if metrics[k][0] != again[k][0]]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": workload.name,
            "seed": seed,
            "machine": host,
            "metrics": {k: v for k, (v, _u) in metrics.items()},
            "spans": tr1.spans(),
        }, fh)
    info = {
        "untraced_s": (base_s / 2, "s"),
        "traced_s": ((traced_s + traced_s2) / 2, "s"),
        "spans": (len(tr1.span_name), "count"),
    }
    for name in unstable:
        print(f"# {name} differs between the traced passes: {metrics[name][0]} != {again[name][0]}")
    print(f"# spans written to {path.relative_to(ROOT)}")
    return metrics, attempted, failed, info, not unstable


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    host = machine()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']}")

    if args.trace:
        metrics, attempted, failed, info, counts_repeat = traced(workload, args.seed, host)
    else:
        counts_repeat = True
        metrics, attempted, failed, info = measure(workload, args.seed, args.seconds)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:34s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
