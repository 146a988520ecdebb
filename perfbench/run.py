"""Serving benchmark for ``repro.service.MonitorService``.

Run from the repository root::

    python3 perfbench/run.py --workload orders --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's streams run
untraced until ``--seconds`` have passed (the stream in progress is
finished), every time rescaled to a reference host speed (see
``hostspeed.py``), and ``setup_s`` is the median of several service
constructions, each in a fresh process started between two streams.
``--trace 1`` runs the workload's fixed traced streams twice — untraced,
then with every layer boundary wrapped — and reports the per-layer
metrics and the tracing overhead; the spans go to ``.perfbench-out/``.  Every report is checked
against a definitional oracle; the last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process service constructions behind one ``setup_s`` value.
SETUP_PROBES = 11

#: Updates a run measures at least, whatever ``--seconds`` says, so
#: that at least ten samples lie beyond ``check_p95_ms``.
MIN_UPDATES = 200

#: Reference timings a set-up probe takes before and after construction.
REFERENCE_SAMPLES = 20

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_p95_ms": "ms",
    "snapshot_p50_ms": "ms",
    "snapshot_mb": "MB",
    "restore_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers the benchmark does not measure, and why.
UNMEASURED = {
    "core.triggers": "off the serving path: MonitorService never fires triggers",
    "lint.setanalysis": "off the serving path: the service's lint gate runs no set-level analysis",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", type=int, metavar="STREAM", default=None,
        help="internal: time one construction in this process and exit",
    )
    return parser.parse_args(argv)


def setup_probe(workload: Any, seed: int, index: int) -> None:
    """Print the seconds one ``MonitorService(...)`` construction takes in
    this fresh process, after imports and input generation, rescaled to
    the reference host (see :mod:`hostspeed`).

    The modules construction would otherwise import on first use (the
    lint passes, the past evaluator) are imported first, so the time is
    construction work, not module loading.
    """
    import gc

    import repro.lint.deps  # noqa: F401
    import repro.lint.hierarchy  # noqa: F401
    import repro.lint.passes  # noqa: F401
    import repro.lint.semantic  # noqa: F401
    import repro.pasteval.monitor  # noqa: F401
    from repro.service import MonitorService

    import hostspeed

    stream = workload.stream(seed, index)
    initial = stream.initial()
    gc.collect()
    host = [hostspeed.reference_seconds() for _ in range(REFERENCE_SAMPLES)]
    start = perf_counter()
    MonitorService(
        stream.constraints, initial, engine="compiled", lint="warn",
        **workload.service,
    )
    seconds = perf_counter() - start
    host += [hostspeed.reference_seconds() for _ in range(REFERENCE_SAMPLES)]
    print(json.dumps({"setup_s": seconds * hostspeed.scale(host)}))


def measure_setup(name: str, seed: int, index: int) -> float:
    """Reference-host seconds of one construction, timed in a fresh
    process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name,
         "--seed", str(seed), "--setup-probe", str(index)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _tally(results: list[Any]) -> tuple[int, int, list[str]]:
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    errors = [e for r in results for e in r.errors]
    return attempted, failed, errors


def end_to_end(workload: Any, seed: int, seconds: float) -> tuple[dict[str, float], list[Any], str]:
    """Run streams 0, 1, ... untraced until ``seconds`` have passed (the
    stream in progress is finished), with every time rescaled to the
    reference host (:mod:`hostspeed`).  The set-up probes run between
    streams, so they are spread over the run like the streams."""
    from client import run_stream

    results: list[Any] = []
    setup: list[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or sum(
        len(r.latencies) - workload.warmup for r in results
    ) < MIN_UPDATES:
        stream = workload.stream(seed, len(results))
        results.append(run_stream(workload, stream).scaled())
        if len(setup) < SETUP_PROBES:
            setup.append(measure_setup(workload.name, seed, len(setup)))
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(workload.name, seed, len(setup)))

    latencies = [t for r in results for t in r.latencies[workload.warmup:]]
    snapshots = [t for r in results for t in r.snapshots]
    sizes = [len(r.last_snapshot) for r in results if r.last_snapshot]
    restores = [r.restore_s for r in results if r.restore_s]
    updates = sum(len(r.latencies) for r in results)
    metrics = {
        "setup_s": statistics.median(setup),
        "updates_per_s": updates / sum(r.wall for r in results),
        "check_p50_ms": statistics.median(latencies) * 1e3,
        "check_p95_ms": statistics.quantiles(latencies, n=20, method="inclusive")[-1] * 1e3,
        "snapshot_p50_ms": statistics.median(snapshots) * 1e3,
        "snapshot_mb": statistics.median(sizes) / 1e6,
        "restore_s": statistics.median(restores),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(t * 1e3 > metrics["check_p95_ms"] for t in latencies)
    reference = statistics.fmean(t for r in results for t in r.host)
    counts = (
        f"{len(results)} streams, {updates} updates, {len(latencies)} after "
        f"warm-up ({beyond} beyond p95), "
        f"{len(snapshots)} snapshots, {len(restores)} restores, "
        f"{len(setup)} fresh-process constructions; "
        f"reference timing mean {reference * 1e3:.4f} ms"
    )
    return metrics, results, counts


def traced(workload: Any, seed: int) -> tuple[dict[str, float], list[Any], str]:
    from client import run_stream
    from layers import layer_metrics
    from tracing import Tracer

    streams = [workload.stream(seed, i) for i in range(workload.trace_streams)]
    plain = [run_stream(workload, stream) for stream in streams]
    tracer = Tracer()
    tracer.install()
    try:
        results = []
        for index, stream in enumerate(streams):
            tracer.stream = index
            results.append(run_stream(workload, stream, tracer))
    finally:
        tracer.uninstall()
    untraced_wall = sum(r.wall for r in plain)
    overhead = (sum(r.wall for r in results) / untraced_wall - 1) * 100
    metrics = layer_metrics(
        tracer.spans, results, tracer.groundings, tracer.kernels.values(), overhead
    )
    out = ROOT / ".perfbench-out" / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(out)
    note = (
        f"{len(streams)} streams traced, {len(tracer.spans)} spans written to "
        f"{out.relative_to(ROOT)}; tracing overhead {overhead:.1f}% of "
        f"{untraced_wall:.3f} s untraced update time"
    )
    return metrics, plain + results, note


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe is not None:
        setup_probe(workload, args.seed, args.setup_probe)
        return 0
    if args.trace:
        from layers import PER_LAYER

        values, results, note = traced(workload, args.seed)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values, results, note = end_to_end(workload, args.seed, args.seconds)
        units = END_TO_END
    attempted, failed, errors = _tally(results)
    print(f"perfbench {workload.name} seed {args.seed}: {note}")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if args.trace:
        for layer, why in UNMEASURED.items():
            print(f"  not measured: {layer} ({why})")
    for error in errors[:20]:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
