"""The dblkit benchmark: time to a verdict and law throughput.

Run from the root of a dblkit checkout::

    python3 dblbench/run.py --workload kernel-laws --seed 1 --seconds 20 --trace 0

Workloads: ``kernel-laws``, ``internal-bundles``, ``documents`` (see
``dblbench/README.md``).  The run builds its inputs from the seed, repeats
whole rounds of the workload's operations in this one process and thread
until ``--seconds`` have passed and at least 100 verdicts were timed,
checks every verdict against answers the benchmark computes itself, and
prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every time it
reports is in reference seconds (see ``dblbench/clock.py``).  The traced
run also writes its spans to ``dblbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("kernel-laws", "internal-bundles", "documents")
# dblkit's CLI reads these as defaults; the benchmark runs on the built-in ones
SETTINGS = ("DBLKIT_JOBS", "DBLKIT_MAX_TUPLES", "DBLKIT_WORD_CAP")
SETUP_REPEATS = 3
MIN_VERDICTS = 100
SPAN_COUNT = 20_000


def _arguments(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _rounds(wl, inputs, expected, seconds, tracer):
    """Whole rounds until the time is up and enough verdicts were timed; the
    traced run alternates plain and traced rounds, starting plain."""
    from dblbench.trace import OFF

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer.enabled and len(plain) > len(traced):
            tracer.trace_id += 1
            traced.append((tracer.trace_id, wl.run_round(inputs, expected, tracer)))
        else:
            plain.append(wl.run_round(inputs, expected, OFF))
        last = traced[-1][1] if tracer.enabled and len(traced) == len(plain) else plain[-1]
        print(f"round: {last.end - last.start:.3f} s wall, {len(last.verdicts)} verdicts", file=sys.stderr)
        done = time.perf_counter() - start >= seconds
        if tracer.enabled:
            done = done and traced and len(plain) == len(traced)
        else:
            done = done and sum(len(r.verdicts) for r in plain) >= MIN_VERDICTS
        if done:
            return plain, traced


def _end_to_end(clock, setup_s, rounds):
    times = [clock.seconds(a, b) for r in rounds for a, b in r.verdicts]
    round_s = [clock.seconds(r.start, r.end) for r in rounds]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(round_s), "s"),
        "verdict_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "verdict_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "laws_per_s": (sum(r.instances for r in rounds) / sum(round_s), "instances/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _layer_runs(name, modules, wl, inputs, traced, tracer, seed, workdir, clock):
    """Traces for the per-layer metrics: the traced rounds and probes of
    this workload, then, for the layers it never reaches, one traced round
    of each other workload on its small inputs; returns ``(label, trace
    ids)`` pairs, the first label that gives a metric a value winning."""
    from dblbench.common import probe_report_eq

    def probes(w, w_inputs):
        first = tracer.trace_id + 1
        probe_report_eq(tracer)
        if hasattr(w, "probe"):
            w.probe(w_inputs, tracer)
        return set(range(first, tracer.trace_id + 1))

    sources = [("rounds", {tid for tid, _ in traced} | {0}), ("probes", probes(wl, inputs))]
    for other, w in modules.items():
        if other == name:
            continue
        tracer.trace_id += 1
        first = tracer.trace_id
        w_inputs = w.setup(seed, tracer, small=True)
        w_inputs["workdir"], w_inputs["clock"] = workdir, clock
        tracer.trace_id += 1
        w.run_round(w_inputs, w.reference(w_inputs), tracer)
        sources.append((f"{other} (small inputs)", set(range(first, tracer.trace_id + 1)) | probes(w, w_inputs)))
    return sources


def _per_layer(clock, tracer, sources, plain, traced, span_stamps, count):
    from dblbench.layers import layer_metrics

    for s in tracer.spans:
        s["seconds"] = clock.seconds(s["start"], s["end"])
    metrics, origin = layer_metrics(tracer.spans, sources)
    plain_s = statistics.median(clock.seconds(r.start, r.end) for r in plain)
    traced_s = statistics.median(clock.seconds(r.start, r.end) for _, r in traced)
    metrics["trace.overhead_pct"] = {"value": (traced_s / plain_s - 1) * 100, "unit": "%"}
    metrics["trace.spans_per_round"] = {
        "value": sum(1 for s in tracer.spans if s["trace"] == traced[0][0]),
        "unit": "count",
    }
    metrics["trace.span_ns"] = {"value": clock.seconds(*span_stamps) / count * 1e9, "unit": "ns"}
    return metrics, origin


def _time_spans(count):
    """Wall stamps around ``count`` empty spans on a tracer of their own;
    their cost times the spans per round bounds the tracing overhead where
    the round-time difference is lost in noise."""
    from dblbench.trace import Tracer

    tracer = Tracer()
    t = time.perf_counter()
    for _ in range(count):
        with tracer.span("empty"):
            pass
    return t, time.perf_counter()


def main(argv=None) -> int:
    args = _arguments(argv)
    root = Path.cwd()
    if not (root / "src" / "dblkit" / "__init__.py").is_file():
        print("dblbench: src/dblkit not found; run from the root of a dblkit checkout", file=sys.stderr)
        return 2
    for key in SETTINGS:
        os.environ.pop(key, None)
    sys.path[:0] = [str(root / "src"), str(BENCH.parent)]

    from dblbench.clock import Clock

    clock = Clock()
    clock.start()
    out_dir = BENCH / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        t = time.perf_counter()
        import dblkit.cli  # noqa: F401  (the CLI imports every layer but the ones below)
        import dblkit.builders  # noqa: F401
        import dblkit.mutate  # noqa: F401
        import dblkit.zoo  # noqa: F401

        imported = (t, time.perf_counter())

        from dblbench import documents, internal_bundles, kernel_laws
        from dblbench.trace import OFF, Tracer

        modules = {"kernel-laws": kernel_laws, "internal-bundles": internal_bundles, "documents": documents}
        wl = modules[args.workload]
        tracer = Tracer() if args.trace else OFF
        workdir.mkdir(parents=True, exist_ok=True)
        setups = []
        for i in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = wl.setup(args.seed, tracer if i == 0 else OFF)
            setups.append((t, time.perf_counter()))
        inputs["workdir"], inputs["clock"] = str(workdir), clock
        expected = wl.reference(inputs)
        plain, traced = _rounds(wl, inputs, expected, args.seconds, tracer)
        rounds = plain + [r for _, r in traced]
        if args.trace:
            sources = _layer_runs(args.workload, modules, wl, inputs, traced, tracer, args.seed, str(workdir), clock)
            span_stamps = _time_spans(SPAN_COUNT)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    took = [e - s for s, e in zip(clock.starts, clock.ends)]
    print(f"calibration: {len(took)} slices, median {statistics.median(took) * 1e3:.3f} ms", file=sys.stderr)
    if args.trace:
        metrics, origin = _per_layer(clock, tracer, sources, plain, traced, span_stamps, SPAN_COUNT)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        for name, label in origin.items():
            if label != "rounds":
                print(f"{name}: from {label}", file=sys.stderr)
        print(f"spans written to {trace_path}", file=sys.stderr)
    else:
        setup_s = clock.seconds(*imported) + statistics.median(clock.seconds(a, b) for a, b in setups)
        metrics = _end_to_end(clock, setup_s, rounds)

    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
