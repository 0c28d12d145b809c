"""Repository benchmark: one command per workload, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the host, the seed and a hash of the generated
inputs.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: End-to-end metrics (every workload reports all of them) and units.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload, seed: int):
    """Set up ``SETUP_REPEATS`` times; keep the last state.

    Returns the state, the raw set-up times and the host speed probed
    between them (set-up is CPU-bound; see speed.py).
    """
    from speed import SpeedProbe

    probe = SpeedProbe()
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        probe.maybe()
        started = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - started)
    return state, times, probe.speed()


def run(args) -> tuple:
    """``(record, result)`` of one benchmark run."""
    import host
    from inputs import fingerprint
    from workloads import LATE_MS, MAX_LATE_SHARE, WORKLOADS

    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **host.host_record()}
    state, setup_times, setup_speed = set_up(workload, args.seed)
    problems = []
    try:
        record["inputs_sha256"] = fingerprint(workload.inputs(state, args.seconds))
        # Start every measurement from the same collector state: the
        # garbage of the discarded set-ups would otherwise shift when
        # the cyclic collector runs, and with it the peak memory.
        gc.collect()
        untraced = workload.measure(state, args.seconds)
        phases = [untraced]
        if args.trace:
            metrics, trace_problems = traced_run(workload, state, args.seconds, untraced,
                                                 phases, record)
            problems += trace_problems
        else:
            latency = untraced.latency
            values = {
                "setup_s": statistics.median(setup_times) * setup_speed,
                "throughput_per_s": untraced.throughput,
                "latency_p50_ms": latency["p50"],
                "latency_tail_ms": latency["tail"],
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
            record["latency"] = latency
        checks, check_problems = workload.check(state)
    finally:
        workload.close(state)
    problems += check_problems
    late = untraced.extra.get("gen_late_share", 0.0)
    if late > MAX_LATE_SHARE:
        problems.append(f"generator ran over {LATE_MS} ms late on {late:.1%} "
                        "of requests: the run measured the generator")
    attempted = sum(p.ops for p in phases) + checks
    failed = sum(p.failed for p in phases) + len(check_problems)
    record.update(setup_samples_s=setup_times, setup_host_speed=setup_speed,
                  problems=problems,
                  extra=untraced.extra, error_rate=failed / attempted)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return record, result


def traced_run(workload, state, seconds, untraced, phases, record):
    """Per-layer metrics: diagnostics untraced, then a traced phase."""
    from layers import PER_LAYER, layer_metrics, targets
    from spans import Tracer

    diagnostics = workload.diagnostics(state, seconds)
    tracer = Tracer()
    exec_starts = {}
    tracer.install(targets(exec_starts))
    try:
        before = workload.snapshot(state)
        traced = workload.measure(state, seconds, tracer)
        after = workload.snapshot(state)
    finally:
        tracer.uninstall()
    phases.append(traced)
    values, ok, notes = layer_metrics(tracer, traced, untraced, before, after,
                                      exec_starts, diagnostics)
    values["mem.peak_rss_mb"] = peak_rss_mib()
    record.update(absent_layers=tracer.absent, spans=len(tracer.spans))
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    return metrics, ([] if ok else notes)


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The shard workers are joined by the workloads' ``close``; this also
    covers any child left behind by a failed run and the helper process
    ``multiprocessing`` starts to track shared-memory segments, which
    would otherwise outlive the benchmark until it noticed its exit.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        record, result = run(args)
    finally:
        stop_children()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import host as _host

    _host.pin_blas_env()  # before NumPy loads anywhere
    sys.exit(main())
