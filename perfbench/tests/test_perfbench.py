"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
from client import run_stream  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from repro.core.monitor import IntegrityMonitor, UpdateReport  # noqa: E402
from repro.service import MonitorService  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HELD_OUT_SEED = 90_417


def tiny(name: str, size: int) -> Workload:
    return dataclasses.replace(WORKLOADS[name], size=size, trace_streams=1)


def test_oracle_reads_the_constraints_definitionally() -> None:
    sub, fill = "Sub", "Fill"
    events = [
        [(sub, (1,))],
        [(sub, (2,))],
        [(fill, (2,))],  # 1 still open: FIFO violated here
        [(sub, (1,))],   # second submission of 1
    ]
    assert oracle.fifo(events) == 2
    assert oracle.at_most_once(events, sub) == 3
    assert oracle.at_most_once(events, fill) is None
    # An order filled in its own submission instant is not open.
    assert oracle.fifo([[(sub, (1,)), (fill, (1,))], [(sub, (2,))], [(fill, (2,))]]) is None
    stamp, use, drop = "S", "U", "D"
    assert oracle.fresh_use([[(stamp, (0,))], [], [(use, (0,))]], stamp, use, 2) is None
    assert oracle.fresh_use([[(stamp, (0,))], [], [], [(use, (0,))]], stamp, use, 2) == 3
    assert oracle.refresh_deadline([[(stamp, (0,))], [], [(drop, (0,))]], stamp, drop, 2) is None
    assert oracle.refresh_deadline([[(stamp, (0,))], [], []], stamp, drop, 2) == 2
    # A deadline past the end of the stream is not a violation yet.
    assert oracle.refresh_deadline([[(stamp, (0,))], []], stamp, drop, 2) is None


def test_corrupted_report_is_a_failed_operation(monkeypatch) -> None:
    workload = tiny("orders", 15)
    stream = workload.stream(HELD_OUT_SEED, 0)
    assert stream.expected, "the injections must give the oracle violations"
    original = MonitorService.submit_state

    async def corrupted(self, state, session="default"):
        report = await original(self, state, session)
        # Swallow every violation the service reports.
        return UpdateReport(report.instant, report.satisfied, ())

    monkeypatch.setattr(MonitorService, "submit_state", corrupted)
    result = run_stream(workload, stream)
    assert result.failed >= len(set(stream.expected.values()))
    assert any("!= oracle" in error for error in result.errors)


def test_self_time_subtracts_the_union_of_children() -> None:
    # (id, name, start, end, parent, kind, update, stream, tag)
    spans = [
        (1, "root", 0.0, 10.0, None, "update", 1, 0, None),
        (2, "a", 1.0, 4.0, 1, "update", 1, 0, None),
        (3, "b", 3.0, 6.0, 1, "update", 1, 0, None),  # overlaps a
        (4, "c", 2.0, 3.0, 2, "update", 1, 0, None),  # inside a
        (5, "d", 9.0, 12.0, 1, "update", 1, 0, None),  # runs past root
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - (5.0 + 1.0)  # [1, 6] and [9, 10] covered
    assert own[2] == 3.0 - 1.0
    assert own[3] == 3.0
    assert own[4] == 1.0


def test_wrappers_are_removed_after_the_traced_run() -> None:
    workload = tiny("orders", 12)
    stream = workload.stream(HELD_OUT_SEED, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_stream(workload, stream, tracer)
    finally:
        tracer.uninstall()
    assert traced.failed == 0
    metrics = layer_metrics(tracer.spans, [traced], tracer.groundings,
                            tracer.kernels.values(), 0.0)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["trace.updates"] == len(stream.states) - 1
    assert metrics["history.extend_calls_per_update"] == 3

    wrapper = Tracer._traced.__code__.co_consts
    wrapper_codes = {c for c in wrapper if hasattr(c, "co_name")}
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        plain = run_stream(workload, stream)
    finally:
        sys.setprofile(None)
    assert plain.failed == 0
    assert IntegrityMonitor.append_state.__code__ in seen
    assert not seen & wrapper_codes
    assert tracer.spans and len(tracer.spans) == metrics["trace.spans"]


def test_held_out_seed_runs_clean_on_every_workload() -> None:
    sizes = {"orders": 25, "staleness": 60}
    assert set(sizes) == set(WORKLOADS)
    for name, size in sizes.items():
        workload = tiny(name, size)
        stream = workload.stream(HELD_OUT_SEED, 0)
        result = run_stream(workload, stream)
        assert result.failed == 0, (name, result.errors)
        length = len(stream.states)
        for constraint, instant in stream.injected.items():
            assert stream.expected[constraint] == instant
            assert instant >= length - length // 10
        assert result.restore_s > 0 and result.snapshots


def test_scaled_rescales_every_time_by_the_reference() -> None:
    from client import StreamResult
    from hostspeed import REFERENCE_S

    # A stream timed in a phase twice as slow as the reference host: its
    # reference timings and its measured times both doubled.
    slow = StreamResult(
        attempted=4, latencies=[0.2, 0.8], wall=2.0, snapshots=[0.4],
        last_snapshot="{}", restore_s=0.6,
        host=[REFERENCE_S * 1.5, REFERENCE_S * 2.5],
    )
    scaled = slow.scaled()
    assert scaled.latencies == [0.1, 0.4]
    assert (scaled.wall, scaled.snapshots, scaled.restore_s) == (1.0, [0.2], 0.3)
    assert scaled.attempted == 4 and slow.latencies[0] == 0.2
