"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytics-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics on an untraced run.
``--trace 1`` measures the per-layer metrics: the workload runs for half
the time with every layer boundary wrapped by :mod:`layertrace`, then the
same operations run untraced on a fresh federation, which gives the tracing
overhead and proves the wrappers changed no answer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit for a human reader.  A failed output check
exits with code 1 and prints no result.  See ``LAYERS.md`` beside this file
for what each metric means and which layer it belongs to.
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

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _import_program():
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {source}")
    sys.path.insert(0, str(source))


def timed_setup(workload):
    """Build the federation several times; keep the last, report the median."""
    seconds = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous federation before building the next
        gc.collect()
        begin = time.perf_counter()
        state = workload.setup()
        seconds.append(time.perf_counter() - begin)
    return state, statistics.median(seconds)


def end_to_end(workload, record, setup_s: float, peak_rss_mb: float) -> dict:
    """The untraced metrics every workload reports (see LAYERS.md)."""
    from inputs import percentile, relative_errors

    samples = len(record.latencies)
    tail = workload.tail_percentile
    if samples * (1.0 - tail / 100.0) < 10:
        raise SystemExit(
            f"perfbench: {samples} latency samples leave fewer than 10 beyond "
            f"p{tail:g}; run longer"
        )
    met = sum(1 for latency in record.latencies if latency <= workload.slo_seconds)
    errors = relative_errors(workload.exact_pairs(record))
    return {
        "setup_s": (setup_s, "s"),
        "qps": (record.answered / record.busy_seconds, "1/s"),
        "latency_p50_ms": (1e3 * percentile(record.latencies, 50.0), "ms"),
        "latency_tail_ms": (1e3 * percentile(record.latencies, tail), "ms"),
        "slo_attainment": (met / record.attempted, "fraction"),
        "rel_error_median": (statistics.median(errors), "fraction"),
        "epsilon_per_query": (record.epsilon / record.answered, "epsilon"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def informational(workload, record) -> dict:
    """Figures printed for the reader but not recorded as bounded metrics."""
    return {
        "latency_samples": (len(record.latencies), "count"),
        "tail_percentile": (workload.tail_percentile, "percent"),
        "slo_limit_ms": (1e3 * workload.slo_seconds, "ms"),
        "error_rate": (record.failed / record.attempted, "fraction"),
        "wire_bytes_per_query": (record.wire_bytes / record.answered, "B"),
        "ingest_rows_per_s": (record.rows_ingested / record.busy_seconds, "1/s"),
    }


def untraced(workload, seconds: float):
    state, setup_s = timed_setup(workload)
    record = workload.run(state, seconds=seconds)
    # Read before the checks and the exact answers allocate their own memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.check(state, record)
    metrics = end_to_end(workload, record, setup_s, peak_rss_mb)
    return record, metrics, informational(workload, record)


def traced(workload, seconds: float):
    from layertrace import measure_layers

    _, plain, metrics = measure_layers(workload, seconds=seconds / 2.0)
    extra = {k: v for k, v in informational(workload, plain).items() if k not in metrics}
    return plain, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny runs every workload in seconds, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    _import_program()
    from workloads import FULL, TINY, WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, TINY if args.scale == "tiny" else FULL)
    try:
        if args.trace:
            record, metrics, extra = traced(workload, args.seconds)
        else:
            record, metrics, extra = untraced(workload, args.seconds)
    except CheckFailed as failure:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
        return 1
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:38s} {value:16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": record.attempted,
                "failed": record.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
