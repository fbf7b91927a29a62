"""Table 1 host-time benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mst-128 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched,
for ``--seconds`` (whole cycles, at least one), in reference seconds: host
seconds scaled by the host's speed over each timed call, as a fixed probe
measures it (see ``hostclock.py``).  ``--trace 1`` runs the first
``TRACE_PASSES`` passes untraced and then traced (layer spans recorded
from outside the program, see ``tracing.py``) and reports the per-layer
metrics in host seconds, the tracing overhead and whether tracing changed
any output.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Result files go to
``.perfbench_out/`` at the repository root.

Exits with status 2, printing no result, when the program source
(``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostclock import HostClock, WallClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: set-up repetitions; ``setup_s`` is the median.
SETUP_REPEATS = 7

#: passes a traced run times twice, untraced and then traced: the first
#: of the cycle, so the per-layer counts of a seed always repeat.
TRACE_PASSES = 1

#: Child-process import timing: a fresh interpreter importing the API and
#: loading the algorithm registry, in reference seconds.
_IMPORT_PROBE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from hostclock import HostClock\n"
    "with HostClock() as clock:\n"
    "    span = clock.span()\n"
    "    with span:\n"
    "        import repro.api\n"
    "        repro.api.algorithm_names()\n"
    "print(span.ref_s)\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_msgs_per_s": "msgs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model_rounds": "rounds",
    "model_messages": "msgs",
    "model_bits": "bit",
}

PER_LAYER_UNITS = {
    "api.session.self_s": "s",
    "harness.workload_s": "s",
    "harness.check_s": "s",
    "harness.describe_s": "s",
    "algorithms.self_s": "s",
    "primitives.calls": "count",
    "primitives.self_s": "s",
    "butterfly.router.calls": "count",
    "butterfly.router.self_s": "s",
    "ncc.exchange.calls": "count",
    "ncc.exchange.self_s": "s",
    "ncc.engine.busy_s": "s",
    "ncc.rounds_empty_ratio": "ratio",
    "ncc.msgs_per_round.p50": "msgs",
    "ncc.msgs_per_round.max": "msgs",
    "ncc.builder.add_calls": "count",
    "ncc.builder.add_arrays_calls": "count",
    "ncc.messages_constructed": "count",
    "ncc.payload_boxes": "count",
    "hashing.calls": "count",
    "hashing.self_s": "s",
    "rng.node_rng.calls": "count",
    "rng.node_rng.busy_s": "s",
    "other.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

TIMING_NOTE = (
    "times in reference seconds (host seconds scaled by the probe's speed); "
    "timed calls: warm process (imports and registry loaded in set-up); "
    "cold inputs for Session.run (a fresh Session per pass, so each call "
    "builds its workload graph and ButterflyGrid inside the timed call); "
    "the aggregation call reuses the problem and grid built in set-up, on a "
    "fresh NCCRuntime built outside the timed call"
)


def host_fingerprint() -> dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def import_seconds() -> float:
    """Reference seconds a fresh interpreter spends importing the program."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(HERE), str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def setup(workload, inputs):
    """Times the set-up ``SETUP_REPEATS`` times, in reference seconds;
    returns (setup_s, context)."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    builds = []
    ctx = None
    with HostClock() as clock:
        for _ in range(SETUP_REPEATS):
            span = clock.span()
            with span:
                ctx = workload.build(inputs)
            builds.append(span.ref_s)
    return statistics.median(imports) + statistics.median(builds), ctx


def run_pass(workload, ctx, k: int, clock):
    gc.collect()  # leave no garbage from the last pass to this one's timed calls
    return workload.run_pass(ctx, k % workload.passes, clock)


def run_cycles(workload, ctx, budget: float):
    """Whole cycles of passes while ``budget`` host seconds last (at
    least one); returns the passes of each cycle."""
    cycles = []
    t_start = perf_counter()
    with HostClock() as clock:
        while True:
            cycles.append([run_pass(workload, ctx, k, clock) for k in range(workload.passes)])
            elapsed = perf_counter() - t_start
            if elapsed + elapsed / len(cycles) > budget:
                return cycles


def end_to_end(cycles, setup_s: float) -> dict[str, float]:
    """Times are medians over the run's cycles; model counts are a
    cycle's, the same in every cycle."""
    cycle = cycles[0]
    return {
        "wall_s": statistics.median(statistics.fmean(r.seconds for r in c) for c in cycles),
        "sim_msgs_per_s": statistics.median(
            sum(r.messages for r in c) / sum(r.seconds for r in c) for c in cycles
        ),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "model_rounds": statistics.fmean(r.rounds for r in cycle),
        "model_messages": statistics.fmean(r.messages for r in cycle),
        "model_bits": statistics.fmean(r.bits for r in cycle),
    }


def per_layer(log, t, traced, untraced, counters: dict[str, int]) -> dict[str, float]:
    """Per-pass means over the traced passes (so layer self times add up
    to the traced pass time); round-shape figures over all traced rounds.
    ``t`` is ``tracing.layer_totals(log)``; ``counters`` is the program's
    counter movement over the traced passes."""
    passes = len(traced)
    traced_wall = sum(r.seconds for r in traced)
    rounds = sorted(log.round_messages)
    all_self = sum(row["self"] for row in t.values())
    metrics = {
        "api.session.self_s": t["api.session"]["self"],
        "harness.workload_s": t["harness.workload"]["busy"],
        "harness.check_s": t["harness.check"]["busy"],
        "harness.describe_s": t["harness.describe"]["busy"],
        "algorithms.self_s": t["algorithms"]["self"],
        "primitives.calls": t["primitives"]["calls"],
        "primitives.self_s": t["primitives"]["self"],
        "butterfly.router.calls": t["butterfly.router"]["calls"],
        "butterfly.router.self_s": t["butterfly.router"]["self"],
        "ncc.exchange.calls": t["ncc.exchange"]["calls"],
        "ncc.exchange.self_s": t["ncc.exchange"]["self"],
        "ncc.engine.busy_s": t["ncc.engine"]["busy"],
        "ncc.builder.add_calls": log.counted["ncc.builder.add"],
        "ncc.builder.add_arrays_calls": log.counted["ncc.builder.add_arrays"],
        "ncc.messages_constructed": counters.get("ncc.messages_constructed", 0),
        "ncc.payload_boxes": counters.get("ncc.payload_boxes", 0),
        "hashing.calls": t["hashing"]["calls"],
        "hashing.self_s": t["hashing"]["self"],
        "rng.node_rng.calls": t["rng.node_rng"]["calls"],
        "rng.node_rng.busy_s": t["rng.node_rng"]["busy"],
        "other.self_s": traced_wall - all_self,
    }
    metrics = {name: value / passes for name, value in metrics.items()}
    metrics["ncc.rounds_empty_ratio"] = (
        sum(1 for m in rounds if m == 0) / len(rounds) if rounds else 0.0
    )
    metrics["ncc.msgs_per_round.p50"] = statistics.median(rounds) if rounds else 0
    metrics["ncc.msgs_per_round.max"] = rounds[-1] if rounds else 0
    metrics["trace.overhead_ratio"] = traced_wall / sum(r.seconds for r in untraced)
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def trace_mismatches(untraced, traced) -> list[int]:
    """Indexes of traced passes whose output differs from the untraced
    pass over the same inputs; each differing call is marked failed."""
    mismatched = []
    for k, (plain, seen) in enumerate(zip(untraced, traced)):
        differing = [i for i, (a, b) in enumerate(zip(plain.digests, seen.digests)) if a != b]
        if (plain.rounds, plain.messages, plain.bits) != (seen.rounds, seen.messages, seen.bits):
            differing = differing or [0]
        for i in differing:
            seen.failures.setdefault(i, f"pass {k} call {i}: traced output differs from untraced")
        if differing:
            mismatched.append(k)
    return mismatched


def layer_table(t, traced) -> list[str]:
    from tracing import SPAN_NAMES

    passes = len(traced)
    wall = sum(r.seconds for r in traced) / passes
    lines = [
        f"per-layer (means per pass over {passes} traced passes; traced wall {wall:.4f} s)",
        f"  {'span':<18}{'calls':>12}{'busy_s':>11}{'self_s':>11}{'share':>8}",
    ]
    for name in SPAN_NAMES:
        row = t[name]
        lines.append(
            f"  {name:<18}{row['calls'] / passes:>12.1f}{row['busy'] / passes:>11.4f}"
            f"{row['self'] / passes:>11.4f}{row['self'] / passes / wall:>8.1%}"
        )
    other = wall - sum(row["self"] for row in t.values()) / passes
    lines.append(f"  {'other':<18}{'':>12}{'':>11}{other:>11.4f}{other / wall:>8.1%}")
    return lines


def write_spans(log, path: Path) -> None:
    """The traced run's layer spans: one column per field, ``names`` maps
    the ``name`` ids, ``parent`` is a row index (-1 for a root span)."""
    import numpy

    from tracing import SPAN_NAMES

    numpy.savez_compressed(
        path,
        names=numpy.array(SPAN_NAMES),
        name=numpy.frombuffer(log.name, dtype=numpy.int8),
        start=numpy.frombuffer(log.start, dtype=numpy.float64),
        end=numpy.frombuffer(log.end, dtype=numpy.float64),
        parent=numpy.frombuffer(log.parent, dtype=numpy.int64),
        round_messages=numpy.frombuffer(log.round_messages, dtype=numpy.int64),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return run(workload, args.seed, args.seconds, bool(args.trace))


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    host = host_fingerprint()
    print(f"perfbench {workload.name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(TIMING_NOTE)

    inputs = workload.inputs(seed)
    setup_s, ctx = setup(workload, inputs)
    result: dict[str, object] = {"workload": workload.name, "seed": seed, "host": host}

    if not trace:
        cycles = run_cycles(workload, ctx, seconds)
        metrics = end_to_end(cycles, setup_s)
        units = END_TO_END_UNITS
        results = every_pass = [r for c in cycles for r in c]
        host_s = sum(r.host_seconds for r in results)
        print(
            f"wall_s and sim_msgs_per_s are medians over {len(cycles)} cycle(s) of "
            f"{workload.passes} pass(es); model_* are means over the passes of one "
            f"cycle; the passes took {host_s:.4f} host s, "
            f"{sum(r.seconds for r in results) / host_s:.4f} reference s per host s"
        )
    else:
        from repro.telemetry import METRICS, MetricRegistry
        from tracing import SpanLog, instrumented, layer_totals

        clock = WallClock()
        untraced = [run_pass(workload, ctx, k, clock) for k in range(TRACE_PASSES)]
        log = SpanLog()
        before = METRICS.snapshot()
        with instrumented(log):
            traced = [run_pass(workload, ctx, k, clock) for k in range(TRACE_PASSES)]
        counters = MetricRegistry.delta(before, METRICS.snapshot())
        totals = layer_totals(log)
        metrics = per_layer(log, totals, traced, untraced, counters)
        units = PER_LAYER_UNITS
        every_pass = untraced + traced
        mismatched = trace_mismatches(untraced, traced)
        print(
            f"tracing-invisible: {'OK' if not mismatched else 'MISMATCH'} "
            f"({len(traced) - len(mismatched)}/{len(traced)} passes give the same "
            "SHA-256 per call over canonical output and the same rounds/messages/bits)"
        )
        for line in layer_table(totals, traced):
            print(line)
        results = untraced
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{workload.name}-seed{seed}-spans.npz"
        write_spans(log, spans_path)
        print(f"spans: {len(log)} written to {spans_path.relative_to(ROOT)}")
        result["tracing_invisible"] = not mismatched

    for k, r in enumerate(results):
        print(
            f"pass {k}: {r.seconds:.4f} s ({r.host_seconds:.4f} host s)  rounds={r.rounds} "
            f"messages={r.messages} bits={r.bits} sha256={r.digest[:16]}"
        )
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    attempted = sum(r.ops for r in every_pass)
    failures = [f for r in every_pass for f in r.failures.values()]
    for f in failures:
        print(f"FAILED {f}")
    print(f"ops_attempted = {attempted}  ops_failed = {len(failures)}")

    result.update(passes=[vars(r) for r in results], failures=failures)
    result["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
